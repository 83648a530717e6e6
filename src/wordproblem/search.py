"""Bounded breadth-first search and the derivation traces it proves.

One breadth-first loop serves two entry points.  The class search for
symmetric systems grows a frontier from each end and expands the smaller
one each time, the source's on a tie; a state reached from both sides
joins the two halves of the path.  Forward reachability for directed
systems is the one-sided case: only the source's side grows, and
reaching the target is the meet.  The budget counts expanded (popped)
states, summed over both sides.  String and tree rewriting share the
loop, and this module owns their witness format: a
:class:`DerivationTrace` (start, steps, end), re-checked by :func:`replay`
with the caller's step function.

Outcomes:
  PROVEN             a path was found; a DerivationTrace witnesses it
  REFUTED_EXHAUSTED  a full class/reachability set was enumerated within
                     budget and does not contain the target
  BUDGET_EXHAUSTED   the budget ran out first

The class search canonicalizes the (source, target) pair under a caller
supplied sort key before searching, so status and statistics are
invariant under swapping source and target; the witness is re-oriented
afterwards via the caller's step reverser.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Tuple


class SearchStatus(enum.Enum):
    PROVEN = "proven"
    REFUTED_EXHAUSTED = "refuted-exhausted"
    BUDGET_EXHAUSTED = "budget-exhausted"


class SearchStats(NamedTuple):
    expanded: int
    frontier_peak: int
    depth: int


class DerivationTrace(NamedTuple):
    """Replayable witness: steps rewriting start into end.  String steps
    are (rule index, position) pairs, tree steps are TreeSteps."""

    start: object
    steps: Tuple[object, ...]
    end: object


class SearchOutcome(NamedTuple):
    """Status plus (for PROVEN) a derivation trace and run statistics."""

    status: SearchStatus
    trace: Optional[DerivationTrace]
    stats: SearchStats


def replay(
    trace: DerivationTrace, apply_step: Callable[[object, object], object]
) -> Iterator[Tuple[object, object]]:
    """Yield (step, state after it) for every step of the trace, applying
    each with apply_step(state, step), which raises if the step does not
    apply; then raise ValueError unless the last state is trace.end."""
    state = trace.start
    for step in trace.steps:
        state = apply_step(state, step)
        yield step, state
    if state != trace.end:
        raise ValueError(f"trace ends at {state!r}, recorded end is {trace.end!r}")


def forward_search(
    start,
    goal,
    successors_of: Callable[[object], Iterable[Tuple[object, object]]],
    budget: int,
) -> SearchOutcome:
    """BFS reachability from start to goal; steps come from successors_of."""
    return _search(start, goal, successors_of, None, budget)


def class_search(
    start,
    goal,
    successors_of: Callable[[object], Iterable[Tuple[object, object]]],
    reverse_step: Callable[[object], object],
    sort_key: Callable[[object], object],
    budget: int,
) -> SearchOutcome:
    """Bidirectional BFS over the class of a symmetric rewrite relation.

    successors_of must enumerate one-step neighbours deterministically;
    reverse_step(step) must be the step applying the opposite rewrite at
    the same place.  If either side's frontier empties without meeting,
    that side's class is complete and the words are provably inequivalent.
    """
    # the budget check and the equal-ends shortcut come before any sort key
    if budget < 1 or start == goal or not sort_key(goal) < sort_key(start):
        return _search(start, goal, successors_of, reverse_step, budget)
    outcome = _search(goal, start, successors_of, reverse_step, budget)
    if outcome.trace is not None:
        steps = tuple(reverse_step(s) for s in reversed(outcome.trace.steps))
        outcome = outcome._replace(trace=DerivationTrace(start, steps, goal))
    return outcome


def _search(a, b, successors_of, reverse_step, budget) -> SearchOutcome:
    """The breadth-first loop from a toward b.  Side 0 grows from a; side 1
    grows from b only when reverse_step is given, and otherwise holds b
    alone, so reaching b is the meet."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if a == b:
        return SearchOutcome(SearchStatus.PROVEN, DerivationTrace(a, (), b),
                             SearchStats(0, 0, 0))
    one_sided = reverse_step is None
    # state -> None at the root, else (parent, step): side 0 records the
    # step from parent to state, side 1 the step from state to parent
    visited = ({a: None}, {b: None})
    fronts = (deque([(a, 0)]), deque() if one_sided else deque([(b, 0)]))
    expanded = 0
    peak = len(fronts[0]) + len(fronts[1])
    max_depth = 0
    meet = None
    while meet is None and fronts[0] and (one_sided or fronts[1]):
        if expanded >= budget:
            return SearchOutcome(SearchStatus.BUDGET_EXHAUSTED, None,
                                 SearchStats(expanded, peak, max_depth))
        side = 0 if one_sided or len(fronts[0]) <= len(fronts[1]) else 1
        mine, theirs, frontier = visited[side], visited[1 - side], fronts[side]
        state, depth = frontier.popleft()
        expanded += 1
        max_depth = max(max_depth, depth)
        for nxt, step in successors_of(state):
            if nxt in mine:
                continue
            mine[nxt] = (state, reverse_step(step) if side else step)
            if nxt in theirs:
                meet = nxt
                break
            frontier.append((nxt, depth + 1))
        peak = max(peak, len(fronts[0]) + len(fronts[1]))

    stats = SearchStats(expanded, peak, max_depth)
    if meet is None:
        return SearchOutcome(SearchStatus.REFUTED_EXHAUSTED, None, stats)
    steps = _walk_back(visited[0], meet) + _walk_back(visited[1], meet)[::-1]
    return SearchOutcome(SearchStatus.PROVEN, DerivationTrace(a, tuple(steps), b), stats)


def _walk_back(visited, state) -> List[object]:
    """The steps recorded in visited on the way from the root to state."""
    steps = []
    while visited[state] is not None:
        state, step = visited[state]
        steps.append(step)
    steps.reverse()
    return steps
