"""Coset enumeration and Cayley graphs of finite quotients.

Enumeration is relator scanning with gap filling (the HLT procedure of
the Handbook of Computational Group Theory, section 5.1): each live coset
scans every relator (defining new cosets to fill gaps) and then fills
any still-undefined generator entries.  A coincidence found while
closing a scan is processed at once and in full, keeping the smallest id
of each class as representative: the row of each coset that dies is
walked, the back entry of each of its edges is cleared, and the edge is
moved to the representatives, or the two entries it meets are queued to
merge.  So when a coincidence has been processed, no live row names a
dead coset, and scans read the table directly; only the coincidence
routine looks representatives up.  New cosets are numbered in first-use
order, so the final table is deterministic.

Columns pair generators with their inverses: generator i acts through
column 2i, its inverse through column 2i+1.

The subgroup is fixed to the trivial one, so a complete table *is* the
group: vertices of the Cayley graph are cosets and coset 0 is the
identity.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from .presentations import GroupPresentation
from .words import GenLetter, Word, distinct_letters, spell


class TableStatus(enum.Enum):
    COMPLETE = "complete"
    BUDGET_EXCEEDED = "budget-exceeded"


def _column(letter: GenLetter) -> int:
    return 2 * letter.index + (0 if letter.sign > 0 else 1)


class CosetTable(NamedTuple):
    n_gens: int
    rows: Tuple[Tuple[Optional[int], ...], ...]
    status: TableStatus

    @property
    def n_cosets(self) -> int:
        return len(self.rows)


class _Budget(Exception):
    pass


def todd_coxeter(p: GroupPresentation, max_cosets: int) -> CosetTable:
    """Enumerate cosets of the trivial subgroup, at most max_cosets ever
    defined.  Finite groups whose enumeration fits the budget give a
    COMPLETE table with exactly |G| cosets; otherwise the partial table
    is returned with status BUDGET_EXCEEDED."""
    if max_cosets < 1:
        raise ValueError("coset budget must be >= 1")
    cols = 2 * p.n_gens
    relators = [[_column(letter) for letter in r] for r in p.relators]

    table: List[List[Optional[int]]] = [[None] * cols]
    parent = [0]

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def define(alpha: int, c: int) -> int:
        if len(table) >= max_cosets:
            raise _Budget
        beta = len(table)
        table.append([None] * cols)
        parent.append(beta)
        table[alpha][c] = beta
        table[beta][c ^ 1] = alpha
        return beta

    def merge(x: int, y: int, dead: List[int]):
        x, y = find(x), find(y)
        if x != y:
            lo, hi = (x, y) if x < y else (y, x)
            parent[hi] = lo
            dead.append(hi)

    def coincidence(x: int, y: int):
        # Each dead coset's row is walked once.  Clearing the back entry of
        # every edge leaving it means the edge is moved only once, and that
        # no row is left naming the dead coset.
        dead: List[int] = []
        merge(x, y, dead)
        for gamma in dead:
            row = table[gamma]
            for c, delta in enumerate(row):
                if delta is None:
                    continue
                table[delta][c ^ 1] = None
                mu, nu = find(gamma), find(delta)
                t = table[mu][c]
                if t is not None:
                    merge(nu, t, dead)
                    continue
                u = table[nu][c ^ 1]
                if u is not None:
                    merge(mu, u, dead)
                    continue
                table[mu][c] = nu
                table[nu][c ^ 1] = mu

    def scan_and_fill(alpha: int, rel: List[int]):
        f, i = alpha, 0
        b, j = alpha, len(rel)
        while True:
            while i < j:
                t = table[f][rel[i]]
                if t is None:
                    break
                f = t
                i += 1
            while j > i:
                t = table[b][rel[j - 1] ^ 1]
                if t is None:
                    break
                b = t
                j -= 1
            if i == j:
                if f != b:
                    coincidence(f, b)
                return
            if i == j - 1:
                # both entries are empty, or the scans would have gone on
                table[f][rel[i]] = b
                table[b][rel[i] ^ 1] = f
                return
            f = define(f, rel[i])
            i += 1

    status = TableStatus.COMPLETE
    try:
        alpha = 0
        while alpha < len(table):
            if parent[alpha] == alpha:
                for rel in relators:
                    scan_and_fill(alpha, rel)
                    if parent[alpha] != alpha:
                        break
                else:
                    row = table[alpha]
                    for c in range(cols):
                        if row[c] is None:
                            define(alpha, c)
            alpha += 1
    except _Budget:
        status = TableStatus.BUDGET_EXCEEDED

    live = [x for x in range(len(table)) if parent[x] == x]
    renumber = {old: new for new, old in enumerate(live)}
    renumber[None] = None
    rows = tuple(tuple(map(renumber.__getitem__, table[old])) for old in live)
    if status is TableStatus.COMPLETE:
        assert all(t is not None for row in rows for t in row)
    return CosetTable(p.n_gens, rows, status)


@dataclass(frozen=True)
class CayleyGraph:
    """Finite Cayley graph: vertex 0 is the identity; every vertex has one
    outgoing edge per generator and per inverse, and the edge labelled s
    from u to v is mirrored by the edge labelled s^-1 from v to u."""

    n_gens: int
    neighbors: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.neighbors)
        for u, row in enumerate(self.neighbors):
            if len(row) != 2 * self.n_gens:
                raise ValueError(f"vertex {u}: expected {2 * self.n_gens} edges")
            for c, v in enumerate(row):
                if not 0 <= v < n:
                    raise ValueError(f"vertex {u}: edge target {v} out of range")
                if self.neighbors[v][c ^ 1] != u:
                    raise ValueError(
                        f"edge {u} -[{c}]-> {v} has no inverse edge back"
                    )

    @property
    def n_vertices(self) -> int:
        return len(self.neighbors)

    def step(self, vertex: int, letter: GenLetter) -> int:
        return self.trace((letter,), vertex)

    def trace(self, w: Word, start: int = 0) -> int:
        column = {letter: _column(letter) for letter in distinct_letters(w, self.n_gens)}
        neighbors = self.neighbors
        vertex = start
        for c in map(column.__getitem__, w):
            vertex = neighbors[vertex][c]
        return vertex


def to_cayley_graph(t: CosetTable) -> CayleyGraph:
    if t.status is not TableStatus.COMPLETE:
        raise ValueError("coset table is incomplete; cannot build a Cayley graph")
    return CayleyGraph(t.n_gens, t.rows)


def word_problem_finite(w: Word, g: CayleyGraph) -> bool:
    """True iff w traces from the identity vertex back to it.  Every edge
    has its mirror, so w need not be freely reduced."""
    return g.trace(w) == 0


def _bfs_distances(g: CayleyGraph, source: int) -> List[int]:
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


def geodesic_distance(g: CayleyGraph, u: int, v: int) -> int:
    dist = _bfs_distances(g, u)
    if dist[v] < 0:
        raise ValueError("graph is disconnected")
    return dist[v]


def _lex_least_geodesic(g: CayleyGraph, dist_to, u: int, v: int) -> List[int]:
    # Greedy walk: among neighbours one step closer to v, take the smallest.
    path = [u]
    cur = u
    while cur != v:
        cur = min(n for n in g.neighbors[cur] if dist_to[v][n] == dist_to[v][cur] - 1)
        path.append(cur)
    return path


def estimate_delta(g: CayleyGraph) -> int:
    """Largest thinness defect over all geodesic triangles on vertex triples.

    One geodesic per unordered vertex pair (the lexicographically least)
    is used; the defect of a side is how far one of its points can be
    from the union of the other two sides.  Cubic in the vertex count,
    intended for small graphs.

    For each vertex u the distances from every point to the chosen
    geodesic from u to each other vertex w are tabulated as
    ``by_point[u][p][w]``; that is n^3 entries, about 4.7 million (some
    60 MB with the per-geodesic vectors) for the 168 vertices of
    PSL(2,7).  The defect of a point p on the side u-v, over every third
    vertex w at once, is then one C-level
    ``max(map(min, by_point[u][p], by_point[v][p]))``, so Python loops
    only over the points of the n^2/2 sides.  A third vertex equal to u
    or v contributes 0, since the side u-u is the point u.
    """
    n = g.n_vertices
    dist = [_bfs_distances(g, s) for s in range(n)]
    if any(d < 0 for row in dist for d in row):
        raise ValueError("graph is disconnected")

    geodesic = {(u, v): _lex_least_geodesic(g, dist, u, v)
                for u in range(n) for v in range(u + 1, n)}
    # near[u][w][p]: distance from p to the side u-w (distances are symmetric)
    near = [[dist[u]] * n for u in range(n)]
    for (u, w), path in geodesic.items():
        near[u][w] = near[w][u] = list(map(min, *(dist[q] for q in path)))
    by_point = [list(zip(*row)) for row in near]
    # an end point of a side lies on one of the other two sides
    return max((max(map(min, by_point[u][p], by_point[v][p]))
                for (u, v), path in geodesic.items() for p in path[1:-1]), default=0)


def to_tgf(g: CayleyGraph) -> str:
    """Trivial graph format: vertex lines, '#', then one labelled edge per
    vertex and positive generator (inverse edges are implied)."""
    names = spell(range(g.n_gens))
    lines = [f"{v} {v}" for v in range(g.n_vertices)]
    lines.append("#")
    for u in range(g.n_vertices):
        for i, name in enumerate(names):
            lines.append(f"{u} {g.neighbors[u][2 * i]} {name}")
    return "\n".join(lines) + "\n"
