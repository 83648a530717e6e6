"""String rewriting systems and bounded equivalence search.

Words here are plain strings over the letters 'a'.. up to the alphabet
size.  A system is an ordered list of productions (lhs, rhs); a directed
system rewrites x*lhs*y to x*rhs*y, a symmetric one additionally carries
the swapped production for every rule.

Search over a symmetric system runs bidirectionally from both words;
over a directed system it is forward reachability from the first word
only.  Every positive answer carries a derivation trace that an
independent replayer can check step by step.

Text format, read by :func:`wordproblem.words.read_declarations`:

    alpha: a b c d e
    kind: thue            (or semithue; semithue if no 'kind:' line)
    rule: ac -> ca

'alpha:' and 'kind:' are declared at most once; the lines may come in
any order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from .presentations import SemigroupPresentation
from .search import DerivationTrace, SearchOutcome, class_search, forward_search, replay
from .words import (LETTERS, alphabet_size, at_line, check_letters, format_plain, parse_plain,
                    read_declarations)


class SystemKind(enum.Enum):
    SEMI_THUE = "semithue"
    THUE = "thue"


@dataclass(frozen=True)
class RewriteSystem:
    alphabet_size: int
    rules: Tuple[Tuple[str, str], ...]
    kind: SystemKind = SystemKind.SEMI_THUE

    def __post_init__(self):
        if not 1 <= self.alphabet_size <= len(LETTERS):
            raise ValueError(f"alphabet size must be between 1 and {len(LETTERS)}")
        for lhs, rhs in self.rules:
            if not lhs:
                raise ValueError("empty rule left side (would match everywhere)")
            check_letters(lhs + rhs, self.alphabet_size)
        if self.kind is SystemKind.THUE:
            rule_set = set(self.rules)
            for rule in self.rules:
                _check_swap(rule, rule_set)


def _check_swap(rule: Tuple[str, str], rule_set: set) -> None:
    """A symmetric system carries the swap of every rule."""
    lhs, rhs = rule
    if (rhs, lhs) not in rule_set:
        raise ValueError(f"symmetric system is missing the swap of ({lhs!r}, {rhs!r})")


def apply_rule(w: str, sys: RewriteSystem, rule_index: int, pos: int) -> str:
    """Rewrite w at pos with the given rule; the lhs must occur there."""
    if not 0 <= rule_index < len(sys.rules):
        raise ValueError(f"rule index {rule_index} out of range")
    lhs, rhs = sys.rules[rule_index]
    if w[pos : pos + len(lhs)] != lhs or pos < 0:
        raise ValueError(f"rule {rule_index} lhs {lhs!r} does not occur at {pos} in {w!r}")
    return w[:pos] + rhs + w[pos + len(lhs):]


def _moves(w: str, rules: Tuple[Tuple[str, str], ...]) -> List[Tuple[str, Tuple[int, int]]]:
    """Every one-step rewrite of w as (word, (rule index, position)),
    ordered by (position, rule index), duplicates included."""
    hits = []
    for idx, (lhs, _) in enumerate(rules):
        pos = w.find(lhs)
        while pos != -1:
            hits.append((pos, idx))
            pos = w.find(lhs, pos + 1)
    hits.sort()
    out = []
    for pos, idx in hits:
        lhs, rhs = rules[idx]
        out.append((w[:pos] + rhs + w[pos + len(lhs):], (idx, pos)))
    return out


def successors(w: str, sys: RewriteSystem) -> List[Tuple[str, int, int]]:
    """All one-step rewrites of w as (word, rule index, position).

    Ordered by (position, rule index) and deduplicated by resulting word,
    keeping the first witness, so the result is deterministic.
    """
    out = []
    seen = set()
    for word, (idx, pos) in _moves(w, sys.rules):
        if word not in seen:
            seen.add(word)
            out.append((word, idx, pos))
    return out


def thue_closure(sys: RewriteSystem) -> RewriteSystem:
    """Symmetric closure: original rules (deduplicated) then missing swaps."""
    swaps = tuple((rhs, lhs) for lhs, rhs in sys.rules)
    rules = tuple(dict.fromkeys(sys.rules + swaps))
    return RewriteSystem(sys.alphabet_size, rules, SystemKind.THUE)


def from_semigroup(p: SemigroupPresentation) -> RewriteSystem:
    """Equations as productions, closed into a symmetric system."""
    return thue_closure(RewriteSystem(p.alphabet_size, tuple(p.equations)))


def replay_trace(sys: RewriteSystem, trace: DerivationTrace) -> str:
    """Re-apply every step, checking occurrences; raises on any mismatch."""
    for _ in replay(trace, lambda w, step: apply_rule(w, sys, *step)):
        pass
    return trace.end


def _swap_index_map(sys: RewriteSystem) -> dict:
    by_rule = {}
    for i, rule in enumerate(sys.rules):
        by_rule.setdefault(rule, i)
    return {
        i: by_rule[(rhs, lhs)] for i, (lhs, rhs) in enumerate(sys.rules)
    }


def search_equivalence(
    w1: str, w2: str, sys: RewriteSystem, budget: int
) -> SearchOutcome:
    """Bounded search for a derivation linking w1 and w2.

    Symmetric systems get a bidirectional class search; directed systems
    get forward reachability from w1.  The budget caps expanded states.
    REFUTED_EXHAUSTED is returned only when a complete class (or the
    complete forward-reachability set) was enumerated without finding
    the target.
    """
    check_letters(w1, sys.alphabet_size)
    check_letters(w2, sys.alphabet_size)

    def succ(w):
        # no deduplication here: the search keeps the first witness of each word
        return _moves(w, sys.rules)

    if sys.kind is SystemKind.THUE:
        swap = _swap_index_map(sys)

        def reverse_step(step):
            idx, pos = step
            return (swap[idx], pos)

        return class_search(w1, w2, succ, reverse_step, lambda w: (len(w), w), budget)
    return forward_search(w1, w2, succ, budget)


def rewrite_bounded(w: str, sys: RewriteSystem, max_steps: int) -> DerivationTrace:
    """Deterministic rewriting: repeatedly take the first move (leftmost
    position, lowest rule index) until none applies or the step limit is
    reached."""
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    check_letters(w, sys.alphabet_size)
    start = w
    steps = []
    for _ in range(max_steps):
        # each rule's leftmost occurrence; the least (position, index) is the move
        hits = [(pos, idx) for idx, (lhs, _) in enumerate(sys.rules)
                if (pos := w.find(lhs)) != -1]
        if not hits:
            break
        pos, idx = min(hits)
        lhs, rhs = sys.rules[idx]
        w = w[:pos] + rhs + w[pos + len(lhs):]
        steps.append((idx, pos))
    return DerivationTrace(start, tuple(steps), w)


def format_system(sys: RewriteSystem) -> str:
    lines = ["alpha: " + " ".join(LETTERS[: sys.alphabet_size])]
    lines.append(f"kind: {sys.kind.value}")
    for lhs, rhs in sys.rules:
        lines.append(f"rule: {lhs} -> {format_plain(rhs)}")
    return "\n".join(lines) + "\n"


def _kind(value: str) -> SystemKind:
    try:
        return SystemKind(value)
    except ValueError:
        raise ValueError("kind must be thue or semithue") from None


def _rule(value: str, size: int) -> Tuple[str, str]:
    """The two checked sides of the value of a 'rule:' line."""
    sides = [s.strip() for s in value.split("->")]
    if len(sides) != 2 or not sides[0]:
        raise ValueError("expected 'rule: lhs -> rhs'")
    lhs, rhs = map(parse_plain, sides)
    if not lhs:
        raise ValueError("empty left side is not allowed")
    check_letters(lhs + rhs, size)
    return lhs, rhs


def parse_system(text: str) -> RewriteSystem:
    found = read_declarations(text, once=("alpha", "kind"), many=("rule",))
    if not found["alpha"]:
        raise ValueError("missing 'alpha:' line")
    alphabet = at_line(*found["alpha"][0], alphabet_size)
    kind = at_line(*found["kind"][0], _kind) if found["kind"] else SystemKind.SEMI_THUE
    rules = tuple(at_line(*line, _rule, alphabet) for line in found["rule"])
    if kind is SystemKind.THUE:
        rule_set = set(rules)
        for (lineno, _), rule in zip(found["rule"], rules):
            at_line(lineno, rule, _check_swap, rule_set)
    return RewriteSystem(alphabet, rules, kind)
