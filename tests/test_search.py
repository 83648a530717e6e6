import pytest

from wordproblem.search import DerivationTrace, SearchStatus, class_search, replay


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
