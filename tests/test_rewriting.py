import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordproblem.presentations import catalog
from wordproblem.rewriting import (
    DerivationTrace,
    RewriteSystem,
    SystemKind,
    apply_rule,
    format_system,
    from_semigroup,
    parse_system,
    replay_trace,
    rewrite_bounded,
    search_equivalence,
    successors,
    thue_closure,
)
from wordproblem.search import SearchStatus, class_search, forward_search

CEIJTIN = from_semigroup(catalog("ceijtin"))


def naive_successors(w, sys):
    """Independent scanner: try every rule at every position by slicing."""
    out = []
    for pos in range(len(w)):
        for idx, (lhs, rhs) in enumerate(sys.rules):
            if w[pos : pos + len(lhs)] == lhs:
                out.append((w[:pos] + rhs + w[pos + len(lhs):], idx, pos))
    dedup = []
    seen = set()
    for word, idx, pos in out:
        if word not in seen:
            seen.add(word)
            dedup.append((word, idx, pos))
    return dedup


def random_system(rng, alphabet_size, n_rules, max_side, length_preserving=False):
    letters = [chr(ord("a") + i) for i in range(alphabet_size)]
    rules = []
    while len(rules) < n_rules:
        llen = rng.randint(1, max_side)
        rlen = llen if length_preserving else rng.randint(0, max_side)
        lhs = "".join(rng.choice(letters) for _ in range(llen))
        rhs = "".join(rng.choice(letters) for _ in range(rlen))
        if (lhs, rhs) not in rules:
            rules.append((lhs, rhs))
    return RewriteSystem(alphabet_size, tuple(rules))


class TestApplyRule:
    def test_commuting_letters(self):
        sys = RewriteSystem(5, (("ac", "ca"),))
        assert apply_rule("ac", sys, 0, 0) == "ca"

    def test_erasing_prefix(self):
        sys = RewriteSystem(5, (("caaa", "aaa"),))
        assert apply_rule("caaa", sys, 0, 0) == "aaa"

    def test_identity_rule(self):
        sys = RewriteSystem(1, (("a", "a"),))
        assert apply_rule("aa", sys, 0, 1) == "aa"

    def test_errors(self):
        sys = RewriteSystem(2, (("ab", "ba"),))
        with pytest.raises(ValueError, match="rule index 5 out of range"):
            apply_rule("ab", sys, 5, 0)
        with pytest.raises(ValueError):
            apply_rule("ab", sys, 0, 1)


class TestSuccessors:
    def test_ceijtin_examples(self):
        results = {word for word, _, _ in successors("ac", CEIJTIN)}
        assert "ca" in results
        assert successors("", CEIJTIN) == []
        results = {word for word, _, _ in successors("aaa", CEIJTIN)}
        assert results == {"caaa", "daaa"}

    def test_agrees_with_naive_scanner(self):
        rng = random.Random(31)
        for _ in range(200):
            sys = random_system(rng, 3, rng.randint(1, 4), 3)
            w = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            assert successors(w, sys) == naive_successors(w, sys)

    def test_deterministic_order(self):
        sys = RewriteSystem(2, (("a", "b"), ("aa", "b")))
        assert successors("aa", sys) == [("ba", 0, 0), ("b", 1, 0), ("ab", 0, 1)]


def oracle_thue_closure(sys):
    """The original loop: first occurrences of the rules, then each missing
    swap in the order of the rules it swaps."""
    rules = []
    seen = set()
    for rule in sys.rules:
        if rule not in seen:
            seen.add(rule)
            rules.append(rule)
    for lhs, rhs in list(rules):
        if (rhs, lhs) not in seen:
            seen.add((rhs, lhs))
            rules.append((rhs, lhs))
    return RewriteSystem(sys.alphabet_size, tuple(rules), SystemKind.THUE)


class TestThueClosure:
    def test_matches_oracle_with_duplicates_and_swaps(self):
        rng = random.Random(61)
        sides = ["a", "b", "aa", "ab", "ba", "bb"]
        for _ in range(2000):
            pool = [(rng.choice(sides), rng.choice(sides)) for _ in range(rng.randint(1, 4))]
            rules = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(0, 2)):
                lhs, rhs = rng.choice(rules)
                rules.insert(rng.randint(0, len(rules)), (rhs, lhs))
            sys = RewriteSystem(2, tuple(rules))
            assert thue_closure(sys) == oracle_thue_closure(sys)

    def test_single_swap(self):
        sys = RewriteSystem(3, (("ab", "c"),))
        closed = thue_closure(sys)
        assert closed.rules == (("ab", "c"), ("c", "ab"))
        assert closed.kind is SystemKind.THUE

    def test_symmetric_fixed_point(self):
        sys = RewriteSystem(2, (("ab", "ba"), ("ba", "ab")))
        assert thue_closure(sys).rules == sys.rules

    def test_ceijtin_rule_count(self):
        assert len(CEIJTIN.rules) == 18

    def test_thue_invariant_enforced(self):
        with pytest.raises(ValueError):
            RewriteSystem(2, (("ab", "ba"),), SystemKind.THUE)

    def test_empty_lhs_rejected(self):
        with pytest.raises(ValueError):
            RewriteSystem(2, (("", "a"),))

    @pytest.mark.parametrize("size", [0, 27])
    def test_alphabet_size_out_of_range(self, size):
        with pytest.raises(ValueError, match="^alphabet size must be between 1 and 26$"):
            RewriteSystem(size, ())


class TestSearchEquivalence:
    def test_one_step_proofs(self):
        for source, target in (("caaa", "aaa"), ("ac", "ca")):
            outcome = search_equivalence(source, target, CEIJTIN, 10)
            assert outcome.status is SearchStatus.PROVEN
            assert len(outcome.trace.steps) == 1
            assert replay_trace(CEIJTIN, outcome.trace) == target

    def test_reflexivity_with_minimal_budget(self):
        outcome = search_equivalence("ab", "ab", CEIJTIN, 1)
        assert outcome.status is SearchStatus.PROVEN
        assert outcome.trace.steps == ()

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            search_equivalence("a", "b", CEIJTIN, 0)

    def test_singleton_class_refuted(self):
        # no rule applies to "b", so its class is fully enumerated at once
        outcome = search_equivalence("aaa", "b", CEIJTIN, 1000)
        assert outcome.status is SearchStatus.REFUTED_EXHAUSTED

    def test_budget_exhaustion(self):
        outcome = search_equivalence("aaa", "aaaa", CEIJTIN, 200)
        assert outcome.status is SearchStatus.BUDGET_EXHAUSTED
        assert outcome.stats.expanded == 200

    def test_symmetry_of_status_and_stats(self):
        rng = random.Random(32)
        pairs = [("aaa", "b"), ("caaa", "aaa"), ("aaa", "aaaa"), ("ce", "eca")]
        for _ in range(30):
            length = rng.randint(1, 5)
            pairs.append(
                (
                    "".join(rng.choice("abcde") for _ in range(length)),
                    "".join(rng.choice("abcde") for _ in range(rng.randint(1, 5))),
                )
            )
        for budget in (1, 7, 50, 400):
            for u, v in pairs:
                fwd = search_equivalence(u, v, CEIJTIN, budget)
                bwd = search_equivalence(v, u, CEIJTIN, budget)
                assert fwd.status == bwd.status
                assert fwd.stats == bwd.stats

    def test_proven_traces_replay(self):
        rng = random.Random(33)
        for _ in range(100):
            sys = thue_closure(random_system(rng, 3, 3, 3, length_preserving=True))
            u = "".join(rng.choice("abc") for _ in range(rng.randint(0, 4)))
            v = "".join(rng.choice("abc") for _ in range(rng.randint(0, 4)))
            outcome = search_equivalence(u, v, sys, 3000)
            if outcome.status is SearchStatus.PROVEN:
                assert outcome.trace.start == u
                assert replay_trace(sys, outcome.trace) == v

    def test_length_preserving_never_proves_across_lengths(self):
        rng = random.Random(34)
        for _ in range(100):
            sys = thue_closure(random_system(rng, 3, 3, 3, length_preserving=True))
            u = "".join(rng.choice("abc") for _ in range(3))
            v = "".join(rng.choice("abc") for _ in range(5))
            outcome = search_equivalence(u, v, sys, 3000)
            assert outcome.status is not SearchStatus.PROVEN

    def test_semithue_is_forward_only(self):
        sys = RewriteSystem(3, (("ab", "c"),))
        fwd = search_equivalence("ab", "c", sys, 100)
        assert fwd.status is SearchStatus.PROVEN
        bwd = search_equivalence("c", "ab", sys, 100)
        assert bwd.status is SearchStatus.REFUTED_EXHAUSTED

    def test_determinism(self):
        first = search_equivalence("cdca", "cdcae", CEIJTIN, 500)
        second = search_equivalence("cdca", "cdcae", CEIJTIN, 500)
        assert first == second


class TestReplay:
    def test_ceijtin_random_walks_replay(self):
        # the meeting point of the class search is often two or more steps
        # from the target, so the target-side half of each trace is checked
        rng = random.Random(71)
        for _ in range(120):
            start = target = "".join(rng.choice("abcde") for _ in range(5))
            for _ in range(rng.randint(1, 8)):
                target = rng.choice(successors(target, CEIJTIN) or [(target,)])[0]
            outcome = search_equivalence(start, target, CEIJTIN, 3000)
            assert outcome.status is SearchStatus.PROVEN
            assert (outcome.trace.start, outcome.trace.end) == (start, target)
            assert replay_trace(CEIJTIN, outcome.trace) == target

    def test_replay_checks_occurrences(self):
        trace = DerivationTrace("ac", ((0, 1),), "ca")
        with pytest.raises(ValueError):
            replay_trace(CEIJTIN, trace)

    def test_replay_checks_rule_index(self):
        sys = RewriteSystem(2, (("ab", "ba"),))
        with pytest.raises(ValueError, match="rule index 5 out of range"):
            replay_trace(sys, DerivationTrace("ab", ((5, 0),), "ba"))

    def test_replay_checks_end(self):
        trace = DerivationTrace("ac", ((0, 0),), "ac")
        with pytest.raises(ValueError):
            replay_trace(CEIJTIN, trace)


class TestRewriteBounded:
    def test_runs_until_fixed_point(self):
        sys = RewriteSystem(5, (("caaa", "aaa"), ("daaa", "aaa")))
        trace = rewrite_bounded("cdaaa", sys, 10)
        assert trace.end == "aaa"
        assert replay_trace(sys, trace) == "aaa"

    def test_respects_step_limit(self):
        sys = RewriteSystem(1, (("a", "aa"),))
        trace = rewrite_bounded("a", sys, 5)
        assert len(trace.steps) == 5

    def test_negative_step_limit_rejected(self):
        sys = RewriteSystem(1, (("a", "aa"),))
        with pytest.raises(ValueError, match="^max_steps must be >= 0$"):
            rewrite_bounded("a", sys, -1)
        assert rewrite_bounded("a", sys, 0) == DerivationTrace("a", (), "a")

    def test_matches_the_first_successor_loop(self):
        def oracle(w, sys, max_steps):
            start, steps = w, []
            for _ in range(max_steps):
                nexts = successors(w, sys)
                if not nexts:
                    break
                w, idx, pos = nexts[0]
                steps.append((idx, pos))
            return DerivationTrace(start, tuple(steps), w)

        rng = random.Random(48)
        for _ in range(300):
            size = rng.randint(1, 3)
            sys = random_system(rng, size, rng.randint(1, 5), 3)
            word = "".join(rng.choice("abc"[:size]) for _ in range(rng.randint(0, 12)))
            max_steps = rng.randint(0, 30)
            assert rewrite_bounded(word, sys, max_steps) == oracle(word, sys, max_steps)


class TestTextFormat:
    def test_round_trip(self):
        for sys in (CEIJTIN, RewriteSystem(3, (("ab", ""),))):
            assert parse_system(format_system(sys)) == sys

    def test_empty_rhs_as_one(self):
        sys = parse_system("alpha: a b\nrule: ab -> 1\n")
        assert sys.rules == (("ab", ""),)

    @pytest.mark.parametrize("text, line", [
        ("alpha: a b\nkind: semithue\nrule: ax -> b\n", 3),
        ("rule: a -> x\nalpha: a b\n", 1),
    ])
    def test_letter_error_names_its_line(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: letter 'x' outside alphabet of size 2$"):
            parse_system(text)

    @pytest.mark.parametrize("text, line", [
        ("alpha: a b\nkind: thue\nrule: ab -> ba\n", 3),
        ("rule: ab -> ba\nalpha: a b\nkind: thue\n", 1),
        ("alpha: a b\nrule: ab -> ba\nrule: ba -> ab\nrule: a -> b\nkind: thue\n", 4),
    ])
    def test_missing_swap_names_its_line(self, text, line):
        message = f"^line {line}: symmetric system is missing the swap of "
        with pytest.raises(ValueError, match=message):
            parse_system(text)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parse_system("alpha: a b\nrule: 1 -> a\n")
        with pytest.raises(ValueError):
            parse_system("alpha: a b\nrule: ax -> a\n")
        with pytest.raises(ValueError):
            parse_system("rule: a -> b\n")
        with pytest.raises(ValueError):
            parse_system("alpha: a b\nkind: sideways\n")


# The search loop takes every rewrite as it comes and leaves the first
# witness of each word to its visited map; the oracle feeds the same loop
# the deduplicated successors of the independent scanner instead.


def oracle_search_equivalence(w1, w2, sys, budget):
    def succ(w):
        return [(word, (idx, pos)) for word, idx, pos in naive_successors(w, sys)]

    if sys.kind is SystemKind.SEMI_THUE:
        return forward_search(w1, w2, succ, budget)
    first = {}
    for idx, rule in enumerate(sys.rules):
        first.setdefault(rule, idx)
    swap = [first[(rhs, lhs)] for lhs, rhs in sys.rules]
    return class_search(w1, w2, succ, lambda step: (swap[step[0]], step[1]),
                        lambda w: (len(w), w), budget)


@st.composite
def small_searches(draw):
    """A semi-Thue or Thue system over 2-3 letters and two words over them."""
    letters = "abc"[:draw(st.integers(2, 3))]
    kind = draw(st.sampled_from(["semithue", "closure", "shuffled"]))
    side = st.text(alphabet=letters, min_size=1, max_size=3)
    rhs = st.text(alphabet=letters, max_size=3) if kind == "semithue" else side
    rules = draw(st.lists(st.tuples(side, rhs), min_size=1, max_size=4))
    sys = RewriteSystem(len(letters), tuple(rules))
    if kind == "closure":
        sys = thue_closure(sys)
    elif kind == "shuffled":
        # swaps interleaved and repeated, as a symmetric system may list them
        rules = draw(st.permutations(rules + [(r, l) for l, r in rules] + rules[:1]))
        sys = RewriteSystem(len(letters), tuple(rules), SystemKind.THUE)
    word = st.text(alphabet=letters, max_size=6)
    return sys, draw(word), draw(word)


@given(small_searches(), st.integers(1, 40))
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_search_equivalence_matches_the_deduplicating_oracle(search, budget):
    sys, w1, w2 = search
    assert search_equivalence(w1, w2, sys, budget) == \
        oracle_search_equivalence(w1, w2, sys, budget)
