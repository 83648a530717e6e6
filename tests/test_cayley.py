import random
import re
import sys
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from wordproblem.presentations import CATALOG, GroupPresentation, catalog
from wordproblem.words import GenLetter, free_reduce, make_word, parse_word


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


# ------------------------------------------------- permutation models
# Generator permutations built here, independently of the enumerator.  A
# permutation is the tuple of images of 0..k-1; a word acts letter by
# letter from the left.


def compose(x, y):
    """x, then y."""
    return tuple(y[i] for i in x)


def inverse(x):
    out = [0] * len(x)
    for i, j in enumerate(x):
        out[j] = i
    return tuple(out)


def cycles(k, *cs):
    p = list(range(k))
    for c in cs:
        for i, x in enumerate(c):
            p[x] = c[(i + 1) % len(c)]
    return tuple(p)


def mobius(a, b, c, d, p):
    """z -> (az + b) / (cz + d) on the projective line over F_p; p is infinity."""
    def image(z):
        num, den = (a, c) if z == p else ((a * z + b) % p, (c * z + d) % p)
        return p if den == 0 else num * pow(den, -1, p) % p
    return tuple(image(z) for z in range(p + 1))


def dihedral(n):
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple(-i % n for i in range(n))
    return GroupPresentation(2, (w("a" * n), w("bb"), w("baba"))), (rotation, reflection)


PERMUTATION_MODELS = {
    "D3": dihedral(3),
    "D5": (catalog("dihedral5"), dihedral(5)[1]),
    "D8": dihedral(8),
    "A5": (GroupPresentation(2, (w("aa"), w("bbb"), w("ab" * 5))),
           (cycles(5, (0, 1), (2, 3)), cycles(5, (0, 2, 4)))),
    "PSL27": (GroupPresentation(2, (w("aa"), w("bbb"), w("ab" * 7), w("abAB" * 4))),
              (mobius(0, 6, 1, 0, 7), mobius(0, 1, 6, 1, 7))),
}


@pytest.mark.parametrize("name", PERMUTATION_MODELS)
def test_coset_table_is_the_permutation_group(name):
    """Sending each vertex to the permutation of a word traced to it is a
    bijection onto the generated group that respects every edge."""
    presentation, gens = PERMUTATION_MODELS[name]
    letters = [p for g in gens for p in (g, inverse(g))]  # edge columns 2i, 2i + 1
    graph = to_cayley_graph(todd_coxeter(presentation, 4096))
    identity = tuple(range(len(gens[0])))
    perm = {0: identity}
    queue = [0]
    for u in queue:  # breadth-first: a word reaches each vertex once
        for column, v in enumerate(graph.neighbors[u]):
            if v not in perm:
                perm[v] = compose(perm[u], letters[column])
                queue.append(v)
    group, frontier = {identity}, [identity]  # closed under the generators
    for x in frontier:
        for y in (compose(x, g) for g in gens):
            if y not in group:
                group.add(y)
                frontier.append(y)
    assert len(perm) == graph.n_vertices == len(set(perm.values()))
    assert set(perm.values()) == group
    for u, row in enumerate(graph.neighbors):
        for column, v in enumerate(row):
            assert perm[v] == compose(perm[u], letters[column]), (u, column)


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
        for word in ("c", "cC"):  # also when the letter cancels
            with pytest.raises(ValueError, match="^letter index 2 out of range for 2 generators$"):
                word_problem_finite(w(word), D5)

    @pytest.mark.parametrize("letter", [GenLetter(0, 0), GenLetter(0, 2), GenLetter(-1, 1)])
    def test_malformed_letter(self, letter):
        # sign 0 once stepped along A's column and sign 2 along a's
        message = f"^malformed letter {re.escape(repr(letter))}$"
        with pytest.raises(ValueError, match=message):
            D5.step(0, letter)
        with pytest.raises(ValueError, match=message):
            word_problem_finite(w("ab") + (letter,), D5)


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
        assert estimate_delta(D5) == 1

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


# ------------------------------------------------- triangle thinness
# The triple-by-triple scan estimate_delta replaced, with its own
# breadth-first distances and geodesic choice.


def oracle_distances(g, source):
    dist = [-1] * g.n_vertices
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def oracle_geodesic(g, dist_to, u, v):
    path = [u]
    cur = u
    while cur != v:
        cur = min(n for n in g.neighbors[cur] if dist_to[v][n] == dist_to[v][cur] - 1)
        path.append(cur)
    return path


def oracle_estimate_delta(g):
    n = g.n_vertices
    dist = [oracle_distances(g, s) for s in range(n)]
    if any(d < 0 for row in dist for d in row):
        raise ValueError("graph is disconnected")
    if n < 3:
        return 0

    geodesic = {}
    for u in range(n):
        for v in range(u + 1, n):
            geodesic[(u, v)] = oracle_geodesic(g, dist, u, v)

    def side(u, v):
        return geodesic[(u, v)] if u < v else geodesic[(v, u)]

    delta = 0
    for x in range(n):
        for y in range(x + 1, n):
            for z in range(y + 1, n):
                sides = (side(x, y), side(y, z), side(x, z))
                for i in range(3):
                    others = sides[(i + 1) % 3] + sides[(i + 2) % 3]
                    for point in sides[i]:
                        defect = min(dist[point][q] for q in others)
                        if defect > delta:
                            delta = defect
    return delta


def permutation_cayley_graph(gens, limit):
    """Cayley graph of the group the permutations generate, vertices in
    breadth-first order from the identity; None past limit vertices."""
    letters = [p for g in gens for p in (g, inverse(g))]
    identity = tuple(range(len(gens[0])))
    index = {identity: 0}
    order = [identity]
    for x in order:
        for y in (compose(x, letter) for letter in letters):
            if y not in index:
                if len(order) == limit:
                    return None
                index[y] = len(order)
                order.append(y)
    return CayleyGraph(len(gens), tuple(tuple(index[compose(x, letter)] for letter in letters)
                                        for x in order))


@given(st.integers(2, 5).flatmap(
    lambda k: st.lists(st.permutations(range(k)).map(tuple), min_size=1, max_size=3)))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_delta_matches_the_triple_scan_on_permutation_groups(gens):
    graph = permutation_cayley_graph(gens, 40)
    if graph is not None:
        assert estimate_delta(graph) == oracle_estimate_delta(graph)


@pytest.mark.parametrize("n", range(3, 13))
def test_delta_matches_the_triple_scan_on_dihedral_groups(n):
    graph = to_cayley_graph(todd_coxeter(dihedral(n)[0], 4096))
    assert estimate_delta(graph) == oracle_estimate_delta(graph)


def test_delta_matches_the_triple_scan_on_a5():
    graph = to_cayley_graph(todd_coxeter(PERMUTATION_MODELS["A5"][0], 4096))
    assert estimate_delta(graph) == oracle_estimate_delta(graph)


@pytest.mark.parametrize("name, delta", [
    ("D3", 1), ("D4", 1), ("D6", 2), ("D7", 2), ("D10", 3), ("D15", 4), ("D20", 5), ("A5", 5)])
def test_delta_exact_values(name, delta):
    presentation = PERMUTATION_MODELS["A5"][0] if name == "A5" else dihedral(int(name[1:]))[0]
    assert estimate_delta(to_cayley_graph(todd_coxeter(presentation, 4096))) == delta


# Cayley graphs are vertex-transitive, and there the longest side decides
# delta.  Schreier graphs (permutations acting on points) are not: delta
# can fall below half the diameter, and then the branch and bound must
# measure further sides and build more tables.


def schreier_graph(perms):
    """Each point's edge to its image under each permutation and, mirrored,
    under its inverse; None when the points are not all connected."""
    columns = [c for p in perms for c in (p, inverse(p))]
    graph = CayleyGraph(len(perms), tuple(zip(*columns)))
    return graph if -1 not in oracle_distances(graph, 0) else None


def test_delta_on_a_path_is_below_half_its_diameter():
    # two involutions make the path 0-1-2-3-4 with loops at both ends;
    # every geodesic triangle on a tree is a tripod
    graph = schreier_graph([(1, 0, 3, 2, 4), (0, 2, 1, 4, 3)])
    assert geodesic_distance(graph, 0, 4) == 4
    assert estimate_delta(graph) == oracle_estimate_delta(graph) == 0


@given(st.integers(3, 24).flatmap(
    lambda k: st.lists(st.permutations(range(k)).map(tuple), min_size=1, max_size=2)))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_delta_matches_the_triple_scan_on_schreier_graphs(perms):
    graph = schreier_graph(perms)
    if graph is not None:
        assert estimate_delta(graph) == oracle_estimate_delta(graph)


# ------------------------------------------------- lazy enumeration oracle
# The enumerator with lazy coincidences: rows of dead cosets stay named in
# the table, and every read goes through find.  Under find the table is
# the same congruence closure as the eager one, so the rows and the
# status must agree, partial tables included.


class _OracleBudget(Exception):
    pass


def oracle_todd_coxeter(p, max_cosets):
    cols = 2 * p.n_gens
    relators = [[2 * letter.index + (letter.sign < 0) for letter in r] for r in p.relators]

    table = [[None] * cols]
    parent = [0]
    pending = deque()

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def define(alpha, c):
        if len(table) >= max_cosets:
            raise _OracleBudget
        beta = len(table)
        table.append([None] * cols)
        parent.append(beta)
        table[alpha][c] = beta
        table[beta][c ^ 1] = alpha
        return beta

    def deduce(alpha, c, beta):
        alpha, beta = find(alpha), find(beta)
        t = table[alpha][c]
        if t is not None:
            if find(t) != beta:
                pending.append((find(t), beta))
                process()
            return
        table[alpha][c] = beta
        u = table[beta][c ^ 1]
        if u is None:
            table[beta][c ^ 1] = alpha
        elif find(u) != alpha:
            pending.append((find(u), alpha))
            process()

    def process():
        while pending:
            x, y = pending.popleft()
            x, y = find(x), find(y)
            if x == y:
                continue
            lo, hi = (x, y) if x < y else (y, x)
            parent[hi] = lo
            row = table[hi]
            for c in range(cols):
                t = row[c]
                if t is None:
                    continue
                u = table[lo][c]
                if u is None:
                    table[lo][c] = t
                elif find(u) != find(t):
                    pending.append((find(u), find(t)))

    def scan_and_fill(alpha, rel):
        f, i = alpha, 0
        b, j = alpha, len(rel)
        while True:
            while i < j:
                t = table[find(f)][rel[i]]
                if t is None:
                    break
                f = find(t)
                i += 1
            while j > i:
                t = table[find(b)][rel[j - 1] ^ 1]
                if t is None:
                    break
                b = find(t)
                j -= 1
            if i == j:
                f, b = find(f), find(b)
                if f != b:
                    pending.append((f, b))
                    process()
                return
            if i == j - 1:
                deduce(find(f), rel[i], find(b))
                return
            f = define(find(f), rel[i])
            i += 1

    status = TableStatus.COMPLETE
    try:
        alpha = 0
        while alpha < len(table):
            if find(alpha) != alpha:
                alpha += 1
                continue
            for rel in relators:
                scan_and_fill(alpha, rel)
                if find(alpha) != alpha:
                    break
            if find(alpha) == alpha:
                for c in range(cols):
                    if table[alpha][c] is None:
                        define(alpha, c)
            alpha += 1
    except _OracleBudget:
        status = TableStatus.BUDGET_EXCEEDED

    live = [x for x in range(len(table)) if find(x) == x]
    renumber = {old: new for new, old in enumerate(live)}
    rows = tuple(
        tuple(renumber[find(t)] if t is not None else None for t in table[old])
        for old in live
    )
    return rows, status


def letters_over(n_gens, min_size=0, max_size=None):
    letter = st.builds(GenLetter, st.integers(0, n_gens - 1), st.sampled_from((1, -1)))
    return st.lists(letter, min_size=min_size, max_size=max_size).map(tuple)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
           st.just(n), st.lists(letters_over(n, 1, 10), max_size=4))),
       st.integers(1, 300))
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_todd_coxeter_matches_the_lazy_oracle(generators_and_relators, budget):
    n_gens, relators = generators_and_relators
    p = GroupPresentation(n_gens, tuple(relators))
    table = todd_coxeter(p, budget)
    assert (table.rows, table.status) == oracle_todd_coxeter(p, budget)


# A relator u^m that outweighs the others lets todd_coxeter skip the scans
# its period proves closed; draw such powers often, beside short relators.
def power_relators(n_gens):
    power = st.tuples(letters_over(n_gens, 1, 4), st.integers(1, 7)).map(lambda t: t[0] * t[1])
    return st.lists(power, min_size=1, max_size=3)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), power_relators(n))),
       st.integers(1, 200))
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_todd_coxeter_matches_the_lazy_oracle_on_proper_powers(generators_and_relators, budget):
    n_gens, relators = generators_and_relators
    p = GroupPresentation(n_gens, tuple(relators))
    table = todd_coxeter(p, budget)
    assert (table.rows, table.status) == oracle_todd_coxeter(p, budget)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_the_period_of_a_to_the_n_spares_its_scans(n):
    # D_n has two a-cycles, the rotations and the reflections; a^n is
    # scanned once on each, where every one of the 2n cosets scanned it
    scans = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "scan_and_fill" \
                and len(frame.f_locals["rel"]) == n:
            scans.append(frame.f_locals["alpha"])

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        table = todd_coxeter(dihedral(n)[0], 4096)
    finally:
        sys.setprofile(previous)
    assert (table.n_cosets, table.status) == (2 * n, TableStatus.COMPLETE)
    assert len(scans) == 2


@pytest.mark.parametrize("budget", [1, 2, 3, 10, 100, 1000])
@pytest.mark.parametrize("name", [name for name, (build, _) in CATALOG.items()
                                  if isinstance(build(), GroupPresentation)])
def test_todd_coxeter_matches_the_lazy_oracle_on_catalog(name, budget):
    p = catalog(name)
    table = todd_coxeter(p, budget)
    assert (table.rows, table.status) == oracle_todd_coxeter(p, budget)


@pytest.mark.parametrize("name", PERMUTATION_MODELS)
def test_todd_coxeter_matches_the_lazy_oracle_on_finite_groups(name):
    p = PERMUTATION_MODELS[name][0]
    table = todd_coxeter(p, 4096)
    assert (table.rows, table.status) == oracle_todd_coxeter(p, 4096)


PERMUTATION_GRAPHS = {name: to_cayley_graph(todd_coxeter(p, 4096))
                      for name, (p, _) in PERMUTATION_MODELS.items()}


# letters the walk must refuse, naming the first: plain tuples, which equal
# the GenLetters with the same fields, malformed letters and out of range
BAD_LETTERS = [(0, 1), (1, -1), GenLetter(0, 0), GenLetter(1, 2), GenLetter(-1, 1),
               GenLetter(2, 1), GenLetter(7, -1)]


def oracle_walk(graph, word, start):
    """Every letter checked in order, then one step per letter."""
    for letter in word:
        if not isinstance(letter, GenLetter) or letter.sign not in (1, -1) or letter.index < 0:
            raise ValueError(f"malformed letter {letter!r}")
        if letter.index >= graph.n_gens:
            raise ValueError(f"letter index {letter.index} out of range for {graph.n_gens} "
                             "generators")
    vertex = start
    for letter in word:
        vertex = graph.neighbors[vertex][2 * letter.index + (letter.sign < 0)]
    return vertex


def outcome(walk, *args):
    try:
        return walk(*args)
    except ValueError as exc:
        return str(exc)


@given(st.sampled_from(sorted(PERMUTATION_MODELS)), letters_over(2, max_size=60),
       st.lists(st.tuples(st.integers(0, 60), st.sampled_from(BAD_LETTERS)), max_size=2),
       st.integers(0, 10**6))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_trace_matches_a_letter_by_letter_walk(name, word, bad, start):
    graph = PERMUTATION_GRAPHS[name]
    start %= graph.n_vertices
    for at, letter in bad:
        word = word[:at] + (letter,) + word[at:]
    assert outcome(graph.trace, word, start) == outcome(oracle_walk, graph, word, start)


@pytest.mark.parametrize("bad, message", [
    ((0, 1), "malformed letter (0, 1)"),
    (GenLetter(0, 2), "malformed letter GenLetter(index=0, sign=2)"),
    (GenLetter(2, -1), "letter index 2 out of range for 2 generators"),
])
def test_a_bad_letter_after_a_hundred_good_ones(bad, message):
    good = w("ab" * 50)
    for word in ((bad,), good + (bad,), good + (bad,) + good):
        with pytest.raises(ValueError) as info:
            word_problem_finite(word, D5)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            D5.trace(word, 3)
        assert str(info.value) == message


@pytest.mark.parametrize("neighbors, message", [
    (((0, 0), (1,)), "vertex 1: expected 2 edges"),
    (((2, 0),), "vertex 0: edge target 2 out of range"),
])
def test_cayley_graph_guards(neighbors, message):
    with pytest.raises(ValueError) as info:
        CayleyGraph(1, neighbors)
    assert str(info.value) == message
