"""Bounded breadth-first search and the derivation traces it proves.

Two entry points: plain forward reachability (directed systems) and a
bidirectional class search for symmetric systems, where the target's
class is explored at the same time as the source's.  The budget counts
expanded (popped) states, summed over both directions.  String and tree
rewriting share both, and this module owns their witness format: a
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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple


class SearchStatus(enum.Enum):
    PROVEN = "proven"
    REFUTED_EXHAUSTED = "refuted-exhausted"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class SearchStats:
    expanded: int
    frontier_peak: int
    depth: int


@dataclass(frozen=True)
class DerivationTrace:
    """Replayable witness: steps rewriting start into end.  String steps
    are (rule index, position) pairs, tree steps are TreeSteps."""

    start: object
    steps: Tuple[object, ...]
    end: object


@dataclass(frozen=True)
class SearchOutcome:
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
) -> Tuple[SearchStatus, Optional[DerivationTrace], SearchStats]:
    """BFS reachability from start to goal; steps come from successors_of."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if start == goal:
        return SearchStatus.PROVEN, DerivationTrace(start, (), goal), SearchStats(0, 0, 0)
    visited = {start: None}
    frontier = deque([(start, 0)])
    expanded = 0
    peak = 1
    max_depth = 0
    while frontier:
        if expanded >= budget:
            return SearchStatus.BUDGET_EXHAUSTED, None, SearchStats(expanded, peak, max_depth)
        state, depth = frontier.popleft()
        expanded += 1
        max_depth = max(max_depth, depth)
        for nxt, step in successors_of(state):
            if nxt in visited:
                continue
            visited[nxt] = (state, step)
            if nxt == goal:
                return (
                    SearchStatus.PROVEN,
                    DerivationTrace(start, tuple(_walk_back(visited, nxt)), goal),
                    SearchStats(expanded, peak, max_depth),
                )
            frontier.append((nxt, depth + 1))
            peak = max(peak, len(frontier))
    return SearchStatus.REFUTED_EXHAUSTED, None, SearchStats(expanded, peak, max_depth)


def _walk_back(visited, state) -> List[object]:
    """The steps recorded in visited on the way from the root to state."""
    steps = []
    while visited[state] is not None:
        state, step = visited[state]
        steps.append(step)
    steps.reverse()
    return steps


def class_search(
    start,
    goal,
    successors_of: Callable[[object], Iterable[Tuple[object, object]]],
    reverse_step: Callable[[object], object],
    sort_key: Callable[[object], object],
    budget: int,
) -> Tuple[SearchStatus, Optional[DerivationTrace], SearchStats]:
    """Bidirectional BFS over the class of a symmetric rewrite relation.

    successors_of must enumerate one-step neighbours deterministically;
    reverse_step(step) must be the step applying the opposite rewrite at
    the same place.  If either side's frontier empties without meeting,
    that side's class is complete and the words are provably inequivalent.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if start == goal:
        return SearchStatus.PROVEN, DerivationTrace(start, (), goal), SearchStats(0, 0, 0)
    swapped = sort_key(goal) < sort_key(start)
    a, b = (goal, start) if swapped else (start, goal)

    visited_a = {a: None}  # state -> (parent, step applied to parent) toward a
    visited_b = {b: None}  # state -> (parent, step applied to state) toward b
    front_a = deque([(a, 0)])
    front_b = deque([(b, 0)])
    expanded = 0
    peak = 2
    max_depth = 0
    meet = None

    while front_a and front_b and meet is None:
        if expanded >= budget:
            return SearchStatus.BUDGET_EXHAUSTED, None, SearchStats(expanded, peak, max_depth)
        from_a = len(front_a) <= len(front_b)
        frontier = front_a if from_a else front_b
        state, depth = frontier.popleft()
        expanded += 1
        max_depth = max(max_depth, depth)
        for nxt, step in successors_of(state):
            if from_a:
                if nxt in visited_a:
                    continue
                visited_a[nxt] = (state, step)
                if nxt in visited_b:
                    meet = nxt
                    break
                front_a.append((nxt, depth + 1))
            else:
                if nxt in visited_b:
                    continue
                visited_b[nxt] = (state, reverse_step(step))
                if nxt in visited_a:
                    meet = nxt
                    break
                front_b.append((nxt, depth + 1))
        peak = max(peak, len(front_a) + len(front_b))

    stats = SearchStats(expanded, peak, max_depth)
    if meet is None:
        return SearchStatus.REFUTED_EXHAUSTED, None, stats

    # a -> meet, then meet -> b (visited_b records that half from b's end)
    steps = _walk_back(visited_a, meet) + _walk_back(visited_b, meet)[::-1]
    if swapped:
        steps = [reverse_step(s) for s in reversed(steps)]
    return SearchStatus.PROVEN, DerivationTrace(start, tuple(steps), goal), stats
