from collections import deque

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from wordproblem.rewriting import RewriteSystem, SystemKind, search_equivalence
from wordproblem.search import (
    DerivationTrace,
    SearchOutcome,
    SearchStats,
    SearchStatus,
    class_search,
    forward_search,
    replay,
)
from wordproblem.terms import ASSOCIATIVITY, parse_term, search_tree_equivalence


def add(n, step):
    """Step function over integers: a step k applies only to multiples of k."""
    if n % step:
        raise ValueError(f"step {step} does not apply to {n}")
    return n + step


class TestReplay:
    def test_yields_each_intermediate_state(self):
        trace = DerivationTrace(2, (2, 4, 8), 16)
        assert list(replay(trace, add)) == [(2, 4), (4, 8), (8, 16)]

    def test_step_that_does_not_apply(self):
        trace = DerivationTrace(2, (2, 3), 7)
        states = replay(trace, add)
        assert next(states) == (2, 4)
        with pytest.raises(ValueError, match="step 3 does not apply to 4"):
            next(states)

    def test_wrong_end(self):
        with pytest.raises(ValueError, match="^trace ends at 4, recorded end is 5$"):
            list(replay(DerivationTrace(2, (2,), 5), add))

    def test_empty_steps_must_start_at_the_end(self):
        assert list(replay(DerivationTrace(3, (), 3), add)) == []
        with pytest.raises(ValueError, match="^trace ends at 3, recorded end is 4$"):
            list(replay(DerivationTrace(3, (), 4), add))


class TestClassSearchTrace:
    """A cycle 0..9 walked by +1/-1 steps; 7 sorts before 9, so the
    search from 9 runs from 7 and re-orients its witness."""

    @staticmethod
    def search(start, goal):
        def successors(n):
            return [((n + 1) % 10, 1), ((n - 1) % 10, -1)]

        return class_search(start, goal, successors, lambda step: -step, lambda n: n, 100)

    def test_swapped_pair_keeps_its_orientation(self):
        status, trace, _ = self.search(9, 7)
        assert status is SearchStatus.PROVEN
        assert (trace.start, trace.end) == (9, 7)
        assert list(replay(trace, lambda n, step: (n + step) % 10))[-1][1] == 7

    def test_equal_ends(self):
        status, trace, stats = self.search(4, 4)
        assert status is SearchStatus.PROVEN
        assert trace == DerivationTrace(4, (), 4)
        assert stats.expanded == 0


def cycle_successors(n):
    return [((n + 1) % 10, 1), ((n - 1) % 10, -1)]


@pytest.mark.parametrize("search", [
    lambda: forward_search(0, 3, cycle_successors, 100),
    # 7 sorts after 2, so the class search runs from the start...
    lambda: class_search(2, 7, cycle_successors, lambda s: -s, lambda n: n, 100),
    # ...and here from the goal, re-orienting the trace
    lambda: class_search(7, 2, cycle_successors, lambda s: -s, lambda n: n, 100),
    lambda: search_equivalence("ab", "ba", RewriteSystem(2, (("ab", "ba"),)), 10),
    lambda: search_equivalence(
        "ab", "ba", RewriteSystem(2, (("ab", "ba"), ("ba", "ab")), SystemKind.THUE), 10),
    lambda: search_tree_equivalence(
        parse_term("(A (B C))"), parse_term("((A B) C)"), [ASSOCIATIVITY], 10),
], ids=["forward", "class-from-start", "class-from-goal", "semithue", "thue", "tree"])
def test_every_entry_point_returns_a_search_outcome(search):
    outcome = search()
    assert type(outcome) is SearchOutcome
    status, trace, stats = outcome
    assert (outcome[0], outcome[1], outcome[2]) == (status, trace, stats)
    assert (outcome.status, outcome.trace, outcome.stats) == (status, trace, stats)
    assert status is SearchStatus.PROVEN and isinstance(stats, SearchStats)
    assert trace.steps and trace.start != trace.end


# ---------------------------------------------------------------- oracles
# The two breadth-first loops as they stood before forward reachability
# became the one-sided case of the class search.  Status, trace and
# statistics of the shared loop must match them exactly.


def oracle_forward_search(start, goal, successors_of, budget):
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
                    DerivationTrace(start, tuple(oracle_walk_back(visited, nxt)), goal),
                    SearchStats(expanded, peak, max_depth),
                )
            frontier.append((nxt, depth + 1))
            peak = max(peak, len(frontier))
    return SearchStatus.REFUTED_EXHAUSTED, None, SearchStats(expanded, peak, max_depth)


def oracle_walk_back(visited, state):
    steps = []
    while visited[state] is not None:
        state, step = visited[state]
        steps.append(step)
    steps.reverse()
    return steps


def oracle_class_search(start, goal, successors_of, reverse_step, sort_key, budget):
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if start == goal:
        return SearchStatus.PROVEN, DerivationTrace(start, (), goal), SearchStats(0, 0, 0)
    swapped = sort_key(goal) < sort_key(start)
    a, b = (goal, start) if swapped else (start, goal)

    visited_a = {a: None}
    visited_b = {b: None}
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
    steps = oracle_walk_back(visited_a, meet) + oracle_walk_back(visited_b, meet)[::-1]
    if swapped:
        steps = [reverse_step(s) for s in reversed(steps)]
    return SearchStatus.PROVEN, DerivationTrace(start, tuple(steps), goal), stats


def outcome(search, *args):
    """The search's result, or ("raises", message) for a ValueError."""
    try:
        return search(*args)
    except ValueError as e:
        return "raises", str(e)


@st.composite
def labelled_graphs(draw):
    """Vertices 0..n-1, edges as (tail, head) pairs in a fixed order
    (loops and parallel edges included), a start, a goal, a budget from
    -1 to n + 1 and a random vertex order for the sort key."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=n // 2, max_size=2 * n))
    start = draw(vertex)
    goal = (start + draw(st.integers(0, n - 1))) % n
    return edges, start, goal, draw(st.integers(-1, n + 1)), draw(st.permutations(range(n)))


class TestAgainstTheSeparateLoops:
    """Random labelled graphs: directed for forward_search (step = edge
    index), undirected for class_search (step = (edge index, +1 or -1),
    reversed by negating the sign)."""

    @given(labelled_graphs())
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_forward_search(self, graph):
        edges, start, goal, budget, _ = graph
        note(f"edges={edges} start={start} goal={goal} budget={budget}")

        def successors(u):
            return [(v, i) for i, (t, v) in enumerate(edges) if t == u]

        def apply_step(u, i):
            if edges[i][0] != u:
                raise ValueError(f"edge {i} does not leave {u}")
            return edges[i][1]

        got = outcome(forward_search, start, goal, successors, budget)
        assert got == outcome(oracle_forward_search, start, goal, successors, budget)
        if got[0] is SearchStatus.PROVEN:
            list(replay(got[1], apply_step))

    @given(labelled_graphs())
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    def test_class_search(self, graph):
        edges, start, goal, budget, order = graph
        note(f"edges={edges} start={start} goal={goal} budget={budget} order={order}")

        def successors(u):
            out = []
            for i, (t, h) in enumerate(edges):
                if t == u:
                    out.append((h, (i, 1)))
                if h == u:
                    out.append((t, (i, -1)))
            return out

        def apply_step(u, step):
            i, sign = step
            t, h = edges[i] if sign > 0 else edges[i][::-1]
            if t != u:
                raise ValueError(f"step {step} does not apply to {u}")
            return h

        args = (start, goal, successors, lambda s: (s[0], -s[1]), order.__getitem__, budget)
        got = outcome(class_search, *args)
        assert got == outcome(oracle_class_search, *args)
        if got[0] is SearchStatus.PROVEN:
            list(replay(got[1], apply_step))
