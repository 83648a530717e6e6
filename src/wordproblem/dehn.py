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

Cost.  A presentation is prepared once and kept in a small cache keyed
on the presentation: the words of symmetrize(p), in its order, are
coded as strings by generator index (words.letter_codes, which has no
code past generator 557,055) and indexed by their shortest majority
prefix r[:|r|//2 + 1]; the C'(1/6) certificate, max_piece_ratio of that
set, is computed when first needed and kept with them.  A call codes
the word once; the loop, _solve, runs on code strings, so free
reduction (in words), the scan and the meet of a deleted relator's
sides compare characters, slicing and concatenation are copies done in
C, and the final word is decoded once at the end.  The CLI's dehn-solve gives _solve a text
word's code string (words.text_code) and prints the codes it returns
as text.  A set given to dehn_step is prepared once as well, in a
second small cache keyed on the set, and its words are coded as they
stand.  The scan samples the word (Wu and
Manber, "A fast algorithm for multi-pattern searching", 1994): with m
the shortest majority prefix length, q = max(1, m // 2) and k = m - q +
1, it looks up one q-letter slice per k positions in the set of the
q-letter slices that start in the first k letters of some majority
prefix.  No match is skipped: a match covers m letters from its
position, and exactly one sampled slice starts in its first k letters
and so lies inside them.  Only a window of k positions whose slice is
in the set is resolved position by position, at one dict lookup per
distinct prefix length.  The inserted b^-1 never cancels against its
neighbours (see _replace); only a whole relator's deletion lets the
sides meet.  The scan resumes just left of the first changed letter:
windows further left are unchanged and were already rejected (Domanski
and Anshel, J. Algorithms 1985).  So for a fixed presentation the
slices looked up are about |w| / k plus those of the resolved windows;
each replacement also copies the word string once.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Optional, Tuple

from .presentations import GroupPresentation, SymmetrizedRelators, max_piece_ratio, symmetrize
from .words import GenLetter, Word, check_word, free_reduce, free_reduce_code, invert, letter_codes


class Verdict(enum.Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL_CERTIFIED = "nontrivial-certified"
    INCONCLUSIVE = "inconclusive"


class DehnStep(NamedTuple):
    relator: int  # index into the symmetrized set
    pos: int  # position in the word being rewritten
    replaced: int  # length of the replaced prefix a


class DehnOutcome(NamedTuple):
    verdict: Verdict
    trace: Tuple[DehnStep, ...]
    final_word: Word


class _Prepared:
    """A symmetrized set made ready for the solver: its words coded as
    they stand, their coded inverses, the majority index over the codes,
    the scan's sampling filter and the set's C'(1/6) certificate.

    The tables hold words.letter_codes' codes of the set's letters and
    their inverses: a code depends on its generator's index alone, and
    a generator past index 557,055 has none and raises ValueError.
    """

    def __init__(self, s: SymmetrizedRelators):
        self.relators = s
        letters = dict.fromkeys(chain.from_iterable(s.words))
        # a set given to dehn_step need not hold the inverses that b^-1 brings
        self.encode = letter_codes(chain(letters, map(GenLetter.inverse, letters)))
        self.decode = {code: letter for letter, code in self.encode.items()}
        flip = {ord(code): ord(code) ^ 1 for code in self.decode}
        self.words = ["".join(map(self.encode.__getitem__, r)) for r in s.words]
        self.inverses = [r[::-1].translate(flip) for r in self.words]
        # [(h, {r[:h]: [(idx, r), ...]})] with h = |r|//2 + 1, by increasing h
        groups: dict = {}
        for idx, r in enumerate(self.words):
            h = len(r) // 2 + 1
            groups.setdefault(h, {}).setdefault(r[:h], []).append((idx, r))
        self.index = sorted(groups.items())
        # the scan's sampling filter (Wu and Manber, TR 94-17, 1994): with m
        # the shortest majority prefix length, the q-letter slices of each
        # majority prefix that start in its first k letters; see _scan
        m = self.index[0][0] if self.index else 1
        self.q = max(1, m // 2)
        self.k = m - self.q + 1
        self.grams = frozenset(
            a[j : j + self.q] for _, table in self.index for a in table for j in range(self.k)
        )

    @functools.cached_property
    def certified(self) -> bool:
        """C'(1/6), which makes a word the solver leaves nonempty
        nontrivial; computed on first need, as a word that reduces to
        the empty word needs no certificate."""
        return not self.words or max_piece_ratio(self.relators) < Fraction(1, 6)


@functools.lru_cache(maxsize=16)
def _prepare(p: GroupPresentation) -> _Prepared:
    return _Prepared(symmetrize(p))


@functools.lru_cache(maxsize=16)
def _prepare_set(s: SymmetrizedRelators) -> _Prepared:
    return _Prepared(s)


def _coded(w: Word, prep: _Prepared, n_gens: Optional[int] = None) -> Tuple[str, dict]:
    """w as codes, and the table that decodes them.  A letter equal to one
    the prepared table codes takes that code; the letters it lacks must
    pass check_word, with n_gens if given, and are coded in a copy."""
    try:
        return "".join(map(prep.encode.__getitem__, w)), prep.decode
    except KeyError:
        pass
    new = check_word([x for x in dict.fromkeys(w) if x not in prep.encode], n_gens)
    encode = {**prep.encode, **letter_codes(new)}
    return "".join(map(encode.__getitem__, w)), {code: x for x, code in encode.items()}


def _scan(w: str, start: int, prep: _Prepared) -> Optional[DehnStep]:
    """The leftmost majority match at or after start, longest then lowest index.

    Only the positions s = start + k - 1, start + 2k - 1, ... with s + q
    <= |w| are sampled.  A match at pos >= start covers at least
    w[pos:pos + m], and exactly one sampled s lies in [pos, pos + k - 1];
    w[s:s + q] starts s - pos < k letters into the matched majority
    prefix and ends within its first m letters, so it is one of the
    grams.  So when w[s:s + q] is not a gram, no match starts in
    (s - k, s]; when it is, each position of that window is resolved in
    turn, and the first window with a match holds the leftmost one.
    """
    n = len(w)
    q, k, grams, index = prep.q, prep.k, prep.grams, prep.index
    for s in range(start + k - 1, n - q + 1, k):
        if w[s : s + q] not in grams:
            continue
        for pos in range(s - k + 1, s + 1):
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


def _replace(w: str, inverses: list, step: DehnStep) -> Tuple[str, int]:
    """w with a replaced by b^-1, and the length of the prefix of w it
    keeps unchanged; when b is empty the two sides meet and cancel.
    On a set closed under cyclic shifts, b^-1 cancels against neither
    neighbour of a freely reduced w.  A right cancel needs the letter
    after the match to be b's first letter, which would make the scan's
    longest match one letter longer.  A left cancel needs the letter
    before it to be b's last letter; then the shift b_last*a*b[:-1] has
    a majority prefix at pos - 1, which the leftmost scan, or a
    rejection left of its start that still holds, would have taken."""
    inverse = inverses[step.relator]
    left = step.pos
    right = step.pos + step.replaced
    if step.replaced < len(inverse):
        return w[:left] + inverse[: len(inverse) - step.replaced] + w[right:], left
    while left and right < len(w) and ord(w[left - 1]) ^ 1 == ord(w[right]):
        left -= 1
        right += 1
    return w[:left] + w[right:], left


def dehn_step(w: Word, s: SymmetrizedRelators) -> Optional[Tuple[Word, DehnStep]]:
    """One majority-subword replacement, or None if none applies.

    w must be freely reduced; the result is freely reduced and strictly
    shorter.
    """
    prep = _prepare_set(s)
    code, decode = _coded(w, prep)
    step = _scan(code, 0, prep)
    if step is None:
        return None
    # a set not closed under cyclic shifts may cancel b^-1 on its left
    reduced = free_reduce_code(_replace(code, prep.inverses, step)[0])
    return tuple(map(decode.__getitem__, reduced)), step


def dehn_solve(w: Word, p: GroupPresentation) -> DehnOutcome:
    """Run the step to termination and classify the result.

    A presentation with no relators leaves nothing to replace; free
    reduction then decides the word problem outright, so nonempty
    reduced words are certified nontrivial.  Every letter of w must name
    one of the presentation's generators.
    """
    prep = _prepare(p)
    code, decode = _coded(w, prep, p.n_gens)
    verdict, trace, final = _solve(code, prep)
    return DehnOutcome(verdict, trace, tuple(map(decode.__getitem__, final)))


def _solve(code: str, prep: _Prepared) -> DehnOutcome:
    """dehn_solve on a code string whose letters name generators of the
    prepared presentation; the final word is a code string too."""
    current = free_reduce_code(code)
    trace = []
    if prep.index:
        # positions left of cut - h_max + 1 see only unchanged letters
        reach = prep.index[-1][0] - 1
        start = 0
        while current:
            step = _scan(current, start, prep)
            if step is None:
                break
            current, cut = _replace(current, prep.inverses, step)
            trace.append(step)
            start = max(0, cut - reach)
    if not current:
        verdict = Verdict.TRIVIAL
    elif prep.certified:
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
        if step.pos < 0 or current[step.pos : step.pos + step.replaced] != r[: step.replaced]:
            raise ValueError(f"step {step}: word does not contain the prefix")
        b = r[step.replaced :]
        current = free_reduce(
            current[: step.pos] + invert(b) + current[step.pos + step.replaced :]
        )
    return current
