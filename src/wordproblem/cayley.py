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

One scan is skipped where it provably changes nothing.  When a relator
is a proper power u^m whose m exceeds the letters of all the other
relators together (a^n in a dihedral group), a closed scan of it from a
coset closes the whole cycle, and the cosets reached from there by u,
u^2, ..., u^(m-1) skip it: about two scans of a^n on D_n, not 2n.  The
table is the same at every step, partial tables included.

Columns pair generators with their inverses: a letter acts through the
column its code names (words.letter_codes), 2i for generator i and 2i+1
for its inverse.  A Cayley graph keeps each letter's column of targets,
so a walk looks each letter up once.

The subgroup is fixed to the trivial one, so a complete table *is* the
group: vertices of the Cayley graph are cosets and coset 0 is the
identity.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

from .presentations import GroupPresentation
from .words import GenLetter, Word, distinct_letters, letter_codes, only_gen_letters, spell


class TableStatus(enum.Enum):
    COMPLETE = "complete"
    BUDGET_EXCEEDED = "budget-exceeded"


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
    codes = letter_codes(set().union(*p.relators))
    relators = [[ord(codes[letter]) for letter in r] for r in p.relators]

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

    # Write a relator r as u^m with u primitive.  Once the scan of r from a
    # live alpha has closed, the scans from alpha.u^i (0 < i < m) read the
    # same closed cycle, and merging cosets keeps it closed, so those later
    # cosets can skip r.  Marking them walks (m - 1)|u| letters, and every
    # coset pays a set lookup; that pays only when r's scans are most of a
    # coset's work.  So r gets marks when m exceeds the letters of all the
    # other relators together, which at most one relator can.
    root, rest, closed = (), relators, set()
    size = max(map(len, relators), default=0)
    others = sum(map(len, relators)) - size
    if size > others:
        longest = next(r for r in relators if len(r) == size)
        period = next(q for q in range(1, size + 1)
                      if size % q == 0 and longest[q:] == longest[:-q])
        if size // period > max(others, 1):
            root, rest = longest[:period], [r for r in relators if r is not longest]

    status = TableStatus.COMPLETE
    try:
        alpha = 0
        while alpha < len(table):
            if parent[alpha] == alpha:
                skip = alpha in closed
                for rel in rest if skip else relators:
                    scan_and_fill(alpha, rel)
                    if parent[alpha] != alpha:
                        break
                else:
                    if root and not skip:
                        beta = alpha
                        for _ in range(size // len(root) - 1):
                            for c in root:
                                beta = table[beta][c]
                            if beta > alpha:
                                closed.add(beta)
                    row = table[alpha]
                    if None in row:
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

    @cached_property
    def _columns(self) -> Dict[GenLetter, Tuple[int, ...]]:
        """Each of the 2 n_gens letters with its column of neighbors:
        entry u is the vertex its edge from u reaches."""
        columns = list(zip(*self.neighbors)) or [()] * (2 * self.n_gens)
        codes = letter_codes(GenLetter(i, s) for i in range(self.n_gens) for s in (1, -1))
        return {x: columns[ord(c)] for x, c in codes.items()}

    def trace(self, w: Word, start: int = 0) -> int:
        # one lookup per letter; a plain tuple would find its GenLetter's
        # column, and a letter outside the table has none, so either way
        # distinct_letters names the first bad letter
        if not only_gen_letters(w):
            distinct_letters(w, self.n_gens)
        columns = self._columns
        vertex = start
        try:
            for column in map(columns.__getitem__, w):
                vertex = column[vertex]
        except KeyError:
            distinct_letters(w, self.n_gens)
            raise
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
    from the union of the other two sides.  The defect of a point p on
    the side u-v, over every third vertex w at once, is one C-level
    ``max(map(min, by_point[u][p], by_point[v][p]))``, where
    ``by_point[u][p][w]`` is the distance from p to the geodesic from u
    to w; a third vertex equal to u or v contributes 0, since the side
    u-u is the point u.

    Branch and bound: the point at distance i from u on a side of length
    d lies within i of u, on every side u-w, and within d - i of v, so
    its defect is at most min(i, d - i).  Sides are visited by decreasing
    length, only points whose bound beats the best defect so far are
    measured, and the search stops once d // 2 can beat it no more.
    Geodesics and a vertex's ``by_point`` table (n^2 entries, each
    geodesic's distance vector built once) are made only when a point
    that survives needs them.

    So the cost is n breadth-first searches and sorting the n^2/2 sides
    by length, plus O(n^2 D) per table built on n vertices of diameter
    D.  Where the longest side decides the answer, as on every graph of
    a finite group presentation tried (dihedral, A5, PSL(2,7)), that is
    two tables: the 256 vertices of D128 take about 0.2 s on an x86-64
    machine with Python 3.11.  The worst case still builds every table
    and holds the n^3 distances: graphs that are not vertex-transitive
    can need them.
    """
    n = g.n_vertices
    dist = [_bfs_distances(g, s) for s in range(n)]
    if any(d < 0 for row in dist for d in row):
        raise ValueError("graph is disconnected")

    # sides[d]: the vertex pairs u < v at distance d
    sides: List[List[Tuple[int, int]]] = [[] for _ in range(max(map(max, dist), default=0) + 1)]
    for u, row in enumerate(dist):
        for v in range(u + 1, n):
            sides[row[v]].append((u, v))

    near = {}  # (u, w) with u < w: each vertex's distance to the side u-w
    by_point: List[Optional[List[Tuple[int, ...]]]] = [None] * n

    def table(u: int) -> List[Tuple[int, ...]]:
        if by_point[u] is None:
            rows = [dist[u]] * n
            for w in range(n):
                if w != u:
                    side = (u, w) if u < w else (w, u)
                    if side not in near:
                        path = _lex_least_geodesic(g, dist, *side)
                        near[side] = list(map(min, *(dist[q] for q in path)))
                    rows[w] = near[side]
            by_point[u] = list(zip(*rows))
        return by_point[u]

    best = 0
    for d in range(len(sides) - 1, 0, -1):
        for u, v in sides[d]:
            if d // 2 <= best:
                return best
            path = _lex_least_geodesic(g, dist, u, v)
            for i in range(best + 1, d - best):
                if min(i, d - i) > best:
                    p = path[i]
                    best = max(best, max(map(min, table(u)[p], table(v)[p])))
    return best


def to_tgf(g: CayleyGraph) -> str:
    """Trivial graph format: vertex lines, '#', then one labelled edge per
    vertex and positive generator (inverse edges are implied)."""
    names = spell(range(g.n_gens))
    lines = [f"{v} {v}" for v in range(g.n_vertices)] + ["#"]
    for u, row in enumerate(g.neighbors):
        lines += [f"{u} {v} {name}" for v, name in zip(row[::2], names)]  # generators' columns
    return "\n".join(lines) + "\n"
