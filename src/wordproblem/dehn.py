"""Length-reducing word-problem solver over symmetrized relators.

The step: find a subword a of w that is a prefix of some symmetrized
relator r = a*b with |a| > |r|/2 (strictly more than half), replace a by
b^-1 and freely reduce.  Each step strictly shortens the word, so the
loop terminates in at most |w| steps.  If the empty word is reached the
input was trivial.  If no step applies and the presentation satisfies
C'(1/6), the word is certified nontrivial; otherwise the run is
inconclusive.

Step selection is deterministic: positions are scanned left to right; at
a position the longest matching majority prefix wins, remaining ties go
to the lowest relator index.  b may be empty (a whole relator maps to
the empty word).

Cost.  Each relator is indexed once per call by its shortest majority
prefix r[:|r|//2 + 1]; a majority match at a position exists exactly
when one of these prefixes starts there, so a position costs one dict
lookup per distinct prefix length.  After a replacement only the two
seams (left part against b^-1, then against the right part) are freely
reduced, and the scan resumes just left of the first changed letter:
windows further left are unchanged and were already rejected (Domanski
and Anshel, J. Algorithms 1985).  So for a fixed presentation the
positions scanned are linear in |w|; each replacement also rebuilds the
word tuple once, a copy done in C.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .presentations import GroupPresentation, SymmetrizedRelators, max_piece_ratio, symmetrize
from .words import Word, free_reduce, invert


class Verdict(enum.Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL_CERTIFIED = "nontrivial-certified"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DehnStep:
    relator: int  # index into the symmetrized set
    pos: int  # position in the word being rewritten
    replaced: int  # length of the replaced prefix a


@dataclass(frozen=True)
class DehnOutcome:
    verdict: Verdict
    trace: Tuple[DehnStep, ...]
    final_word: Word


def _majority_index(s: SymmetrizedRelators) -> list:
    """[(h, {r[:h]: [(idx, r), ...]})] with h = |r|//2 + 1, by increasing h."""
    groups: dict = {}
    for idx, r in enumerate(s.words):
        h = len(r) // 2 + 1
        groups.setdefault(h, {}).setdefault(r[:h], []).append((idx, r))
    return sorted(groups.items())


def _scan(w: Word, start: int, index: list) -> Optional[DehnStep]:
    """The leftmost majority match at or after start, longest then lowest index."""
    n = len(w)
    for pos in range(start, n):
        best = 0
        best_idx = -1
        for h, table in index:
            if pos + h > n:
                break
            hits = table.get(w[pos : pos + h])
            if hits is None:
                continue
            for idx, r in hits:
                m = h
                end = min(n - pos, len(r))
                while m < end and w[pos + m] == r[m]:
                    m += 1
                if m > best or (m == best and idx < best_idx):
                    best, best_idx = m, idx
        if best_idx >= 0:
            return DehnStep(best_idx, pos, best)
    return None


def _cancels(x, y) -> bool:
    return x.index == y.index and x.sign == -y.sign


def _replace(w: Word, s: SymmetrizedRelators, step: DehnStep) -> Tuple[Word, int]:
    """w with the step applied and freely reduced, and the length of the
    prefix of w it keeps unchanged.  w must be freely reduced, so only
    the seams around the inserted b^-1 can cancel."""
    mid = invert(s.words[step.relator][step.replaced :])
    left = step.pos
    right = step.pos + step.replaced
    j = 0
    while left and j < len(mid) and _cancels(w[left - 1], mid[j]):
        left -= 1
        j += 1
    t = len(mid)
    while t > j and right < len(w) and _cancels(mid[t - 1], w[right]):
        t -= 1
        right += 1
    if t == j:
        while left and right < len(w) and _cancels(w[left - 1], w[right]):
            left -= 1
            right += 1
    return w[:left] + mid[j:t] + w[right:], left


def dehn_step(w: Word, s: SymmetrizedRelators) -> Optional[Tuple[Word, DehnStep]]:
    """One majority-subword replacement, or None if none applies.

    w must be freely reduced; the result is freely reduced and strictly
    shorter.
    """
    step = _scan(w, 0, _majority_index(s))
    if step is None:
        return None
    return _replace(w, s, step)[0], step


def dehn_solve(w: Word, p: GroupPresentation) -> DehnOutcome:
    """Run the step to termination and classify the result.

    A presentation with no relators leaves nothing to replace; free
    reduction then decides the word problem outright, so nonempty
    reduced words are certified nontrivial.  Every letter of w must name
    one of the presentation's generators.
    """
    if w and max(w).index >= p.n_gens:
        raise ValueError(f"letter index {max(w).index} out of range for {p.n_gens} generators")
    s = symmetrize(p)
    current = free_reduce(w)
    trace = []
    if s.words:
        index = _majority_index(s)
        # positions left of cut - h_max + 1 see only unchanged letters
        reach = index[-1][0] - 1
        start = 0
        while current:
            step = _scan(current, start, index)
            if step is None:
                break
            current, cut = _replace(current, s, step)
            trace.append(step)
            start = max(0, cut - reach)
    if not current:
        verdict = Verdict.TRIVIAL
    elif not s.words or max_piece_ratio(s) < Fraction(1, 6):
        verdict = Verdict.NONTRIVIAL_CERTIFIED
    else:
        verdict = Verdict.INCONCLUSIVE
    return DehnOutcome(verdict, tuple(trace), current)


def replay_dehn_trace(w: Word, s: SymmetrizedRelators, trace) -> Word:
    """Re-apply recorded steps from scratch, checking each precondition.

    Starts from free_reduce(w), exactly as the solver does, and freely
    reduces the whole word after each step.  Raises ValueError if any
    step does not match the word it is applied to.
    """
    current = free_reduce(w)
    for step in trace:
        if not 0 <= step.relator < len(s.words):
            raise ValueError(f"step {step}: relator index out of range")
        r = s.words[step.relator]
        if not 0 < step.replaced <= len(r) or 2 * step.replaced <= len(r):
            raise ValueError(f"step {step}: not a majority prefix of relator")
        if current[step.pos : step.pos + step.replaced] != r[: step.replaced]:
            raise ValueError(f"step {step}: word does not contain the prefix")
        b = r[step.replaced :]
        current = free_reduce(
            current[: step.pos] + invert(b) + current[step.pos + step.replaced :]
        )
    return current
