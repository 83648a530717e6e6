import random

import pytest

from wordproblem.cayley import (
    CayleyGraph,
    TableStatus,
    estimate_delta,
    geodesic_distance,
    to_cayley_graph,
    to_tgf,
    todd_coxeter,
    word_problem_finite,
)
from wordproblem.presentations import GroupPresentation, catalog
from wordproblem.words import free_reduce, make_word, parse_word


def w(text):
    return parse_word(text)


D5_TABLE = todd_coxeter(catalog("dihedral5"), 64)
D5 = to_cayley_graph(D5_TABLE)


def trace_relator(graph, relator, start):
    v = start
    for letter in relator:
        v = graph.step(v, letter)
    return v


class TestToddCoxeter:
    def test_dihedral5_has_ten_cosets(self):
        assert D5_TABLE.status is TableStatus.COMPLETE
        assert D5_TABLE.n_cosets == 10

    def test_cyclic_group(self):
        table = todd_coxeter(GroupPresentation(1, (w("aaa"),)), 8)
        assert table.status is TableStatus.COMPLETE
        assert table.n_cosets == 3

    def test_torus_budget_exceeded(self):
        table = todd_coxeter(catalog("torus"), 1000)
        assert table.status is TableStatus.BUDGET_EXCEEDED

    def test_free_group_budget_exceeded(self):
        table = todd_coxeter(GroupPresentation(2, ()), 50)
        assert table.status is TableStatus.BUDGET_EXCEEDED

    def test_trivial_group(self):
        table = todd_coxeter(GroupPresentation(1, (w("a"),)), 4)
        assert table.status is TableStatus.COMPLETE
        assert table.n_cosets == 1
        graph = to_cayley_graph(table)
        assert graph.neighbors == ((0, 0),)

    def test_permutation_invariant(self):
        for vertexcount, table in ((10, D5_TABLE),):
            n = table.n_cosets
            assert n == vertexcount
            for gen in range(table.n_gens):
                forward = [table.rows[v][2 * gen] for v in range(n)]
                backward = [table.rows[v][2 * gen + 1] for v in range(n)]
                assert sorted(forward) == list(range(n))
                for v in range(n):
                    assert backward[forward[v]] == v

    def test_relator_tracing_from_every_coset(self):
        for presentation, table in (
            (catalog("dihedral5"), D5_TABLE),
            (GroupPresentation(1, (w("aaa"),)), todd_coxeter(GroupPresentation(1, (w("aaa"),)), 8)),
        ):
            graph = to_cayley_graph(table)
            for relator in presentation.relators:
                for v in range(graph.n_vertices):
                    assert trace_relator(graph, relator, v) == v

    def test_known_group_orders(self):
        # coincidence-heavy presentations with independently known orders
        cases = [
            (GroupPresentation(2, (w("aaaa"), w("bb"), w("abab"))), 8),  # D4
            (GroupPresentation(2, (w("aaaa"), w("aaBB"), w("baBa"))), 8),  # Q8
            (GroupPresentation(2, (w("abAB"), w("aa"), w("bbb"))), 6),  # Z2 x Z3
            (GroupPresentation(2, (w("aaa"), w("bbb"), w("abab"))), 12),  # A4
            (GroupPresentation(2, (w("aaaa"), w("bb"), w("ababab"))), 24),  # S4
            (GroupPresentation(2, (w("aa"), w("bbb"), w("ababababab"))), 60),  # A5
        ]
        for presentation, order in cases:
            table = todd_coxeter(presentation, 4096)
            assert table.status is TableStatus.COMPLETE
            assert table.n_cosets == order
            graph = to_cayley_graph(table)
            for relator in presentation.relators:
                for v in range(graph.n_vertices):
                    assert trace_relator(graph, relator, v) == v

    def test_determinism(self):
        again = todd_coxeter(catalog("dihedral5"), 64)
        assert again == D5_TABLE

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            todd_coxeter(catalog("torus"), 0)

    def test_incomplete_table_rejected_for_graph(self):
        table = todd_coxeter(catalog("torus"), 100)
        with pytest.raises(ValueError):
            to_cayley_graph(table)


class TestCayleyGraphStructure:
    def test_sigma_edges_form_two_five_cycles(self):
        sigma = [D5.neighbors[v][0] for v in range(10)]
        seen = set()
        cycle_lengths = []
        for start in range(10):
            if start in seen:
                continue
            length, v = 1, sigma[start]
            seen.add(start)
            while v != start:
                seen.add(v)
                v = sigma[v]
                length += 1
            cycle_lengths.append(length)
        assert cycle_lengths == [5, 5]

    def test_tau_edges_form_perfect_matching(self):
        tau = [D5.neighbors[v][2] for v in range(10)]
        assert all(tau[tau[v]] == v for v in range(10))
        assert all(tau[v] != v for v in range(10))

    def test_z3_is_a_triangle(self):
        graph = to_cayley_graph(todd_coxeter(GroupPresentation(1, (w("aaa"),)), 8))
        assert graph.n_vertices == 3
        succ = [graph.neighbors[v][0] for v in range(3)]
        assert sorted(succ) == [0, 1, 2] and all(succ[v] != v for v in range(3))

    def test_validation_rejects_broken_mirror(self):
        with pytest.raises(ValueError):
            CayleyGraph(1, ((1, 1), (0, 1)))


class TestWordProblem:
    def test_sigma_power_five_trivial(self):
        assert word_problem_finite(w("aaaaa"), D5)

    def test_sigma_alone_nontrivial(self):
        assert not word_problem_finite(w("a"), D5)

    def test_exchange_relator_trivial(self):
        assert word_problem_finite(w("baba"), D5)

    def test_invariant_under_free_reduction(self):
        rng = random.Random(51)
        for _ in range(300):
            word = make_word(
                [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))]
            )
            assert word_problem_finite(word, D5) == word_problem_finite(
                free_reduce(word), D5
            )

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            word_problem_finite(w("c"), D5)


class TestMetrics:
    def test_distance_to_sigma_squared(self):
        target = D5.trace(w("aa"))
        assert geodesic_distance(D5, 0, target) == 2

    def test_distance_to_self(self):
        assert geodesic_distance(D5, 3, 3) == 0

    def test_triangle_delta_on_three_cycle(self):
        graph = to_cayley_graph(todd_coxeter(GroupPresentation(1, (w("aaa"),)), 8))
        assert estimate_delta(graph) == 0

    def test_delta_on_d5_is_small(self):
        # 10 vertices, diameter 3; any side point is near the other sides
        assert 0 <= estimate_delta(D5) <= 2

    def test_disconnected_graph_rejected(self):
        two_loops = CayleyGraph(1, ((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            geodesic_distance(two_loops, 0, 1)
        with pytest.raises(ValueError):
            estimate_delta(two_loops)


class TestExport:
    def test_tgf_shape(self):
        text = to_tgf(D5)
        lines = text.strip().splitlines()
        sep = lines.index("#")
        assert sep == 10
        edges = lines[sep + 1 :]
        assert len(edges) == 10 * 2
        assert all(len(e.split()) == 3 for e in edges)

    def test_tgf_stable(self):
        assert to_tgf(D5) == to_tgf(to_cayley_graph(todd_coxeter(catalog("dihedral5"), 64)))


def test_tgf_refuses_more_than_26_generators():
    assert to_tgf(CayleyGraph(26, ((0,) * 52,))).endswith("0 0 z\n")
    with pytest.raises(ValueError, match="outside the 26 text letters"):
        to_tgf(CayleyGraph(27, ((0,) * 54,)))
