"""Reference computations made apart from the program under test.

Nothing here imports ``wordproblem``.  Group words are tuples of
(generator index, sign) pairs, which compare equal to the program's
``GenLetter`` tuples; string words are plain strings; trees are nested
2-tuples with leaf names as strings.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction

# ---------------------------------------------------------------- free groups


def free_reduce(w):
    out = []
    for g, s in w:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def invert(w):
    return tuple((g, -s) for g, s in reversed(w))


def exponent_sum(w, gen):
    """Signed number of occurrences of generator ``gen`` in ``w``."""
    return sum(s for g, s in w if g == gen)


def word_text(w):
    if not w:
        return "1"
    return "".join(chr(97 + g) if s > 0 else chr(65 + g) for g, s in w)


def parse_text(text):
    text = text.strip()
    if text in ("", "1"):
        return ()
    return tuple((ord(c.lower()) - 97, 1 if c.islower() else -1) for c in text)


# ------------------------------------------------- symmetrized sets and Dehn


def symmetrize(relators):
    """Cyclic shifts of each cyclically reduced relator, then of its
    inverse, first occurrence kept (the documented order of the solver's
    relator indices)."""
    seen = {}
    for r in relators:
        for v in (tuple(r), invert(r)):
            for k in range(len(v)):
                seen.setdefault(v[k:] + v[:k], None)
    return list(seen)


def max_piece_ratio(sym):
    """max |common prefix| / |shorter word| over distinct pairs, exactly."""
    best = Fraction(0)
    for i, u in enumerate(sym):
        for v in sym[i + 1:]:
            k = 0
            while k < len(u) and k < len(v) and u[k] == v[k]:
                k += 1
            if k:
                best = max(best, Fraction(k, min(len(u), len(v))))
    return best


def is_c6(relators):
    """True when the relators satisfy C'(1/6): every piece is shorter than
    a sixth of each relator it lies in."""
    return max_piece_ratio(symmetrize(relators)) < Fraction(1, 6)


def is_dehn_reduced(w, sym):
    """No subword of w is more than half of a symmetrized relator."""
    majority = {}
    for r in sym:
        k = len(r) // 2 + 1
        majority.setdefault(k, set()).add(r[:k])
    for k, prefixes in majority.items():
        for i in range(len(w) - k + 1):
            if w[i:i + k] in prefixes:
                return False
    return True


def join(u, v):
    """Free reduction of u*v for freely reduced u and v."""
    i = 0
    while i < min(len(u), len(v)) and u[-1 - i] == (v[i][0], -v[i][1]):
        i += 1
    return u[:len(u) - i] + v[i:]


def replay_dehn(w, sym, steps):
    """Apply (relator index, position, replaced length) steps to the free
    reduction of w, checking that each one replaces more than half of a
    relator that occurs there.  Returns the final word."""
    cur = free_reduce(w)
    for idx, pos, m in steps:
        r = sym[idx]
        if not (2 * m > len(r) and m <= len(r) and cur[pos:pos + m] == r[:m]):
            raise ValueError(f"step {(idx, pos, m)} does not apply")
        cur = join(join(cur[:pos], invert(r[m:])), cur[pos + m:])
    return cur


# --------------------------------------------------------- finite groups


class Dihedral:
    """D_n as pairs (rotation, flip); a is the rotation, b the flip, so
    <a, b | a^n, b^2, abab> is satisfied."""

    def __init__(self, n):
        self.n = n
        self.identity = (0, 0)
        self.gens = ((1, 0), (0, 1))

    def mul(self, x, y):
        r1, f1 = x
        r2, f2 = y
        return ((r1 + (-r2 if f1 else r2)) % self.n, f1 ^ f2)

    def inv(self, x):
        r, f = x
        return (r, 1) if f else ((-r) % self.n, 0)


class Permutations:
    """Permutation group on range(k) generated by the given images."""

    def __init__(self, *gens):
        self.gens = tuple(tuple(g) for g in gens)
        self.identity = tuple(range(len(self.gens[0])))

    def mul(self, x, y):  # x then y
        return tuple(y[i] for i in x)

    def inv(self, x):
        out = [0] * len(x)
        for i, j in enumerate(x):
            out[j] = i
        return tuple(out)


def cycles_to_perm(n, *cycles):
    p = list(range(n))
    for c in cycles:
        for i, x in enumerate(c):
            p[x] = c[(i + 1) % len(c)]
    return tuple(p)


class PSL2:
    """PSL(2, p): 2x2 matrices of determinant 1 mod p, up to sign."""

    def __init__(self, p, *gens):
        self.p = p
        self.identity = self._norm((1, 0, 0, 1))
        self.gens = tuple(self._norm(g) for g in gens)

    def _norm(self, m):
        neg = tuple((-x) % self.p for x in m)
        return min(tuple(x % self.p for x in m), neg)

    def mul(self, x, y):
        a, b, c, d = x
        e, f, g, h = y
        p = self.p
        return self._norm(((a * e + b * g) % p, (a * f + b * h) % p,
                           (c * e + d * g) % p, (c * f + d * h) % p))

    def inv(self, x):
        a, b, c, d = x
        return self._norm((d, -b, -c, a))


A5 = Permutations(cycles_to_perm(5, (0, 1), (2, 3)), cycles_to_perm(5, (0, 2, 4)))
PSL27 = PSL2(7, (0, 6, 1, 0), (0, 1, 6, 1))


def evaluate(group, w):
    x = group.identity
    for g, s in w:
        gen = group.gens[g]
        x = group.mul(x, gen if s > 0 else group.inv(gen))
    return x


def element_words(group):
    """A shortest word for every element, by breadth-first search."""
    words = {group.identity: ()}
    queue = deque([group.identity])
    while queue:
        x = queue.popleft()
        for g in range(len(group.gens)):
            for s in (1, -1):
                gen = group.gens[g]
                y = group.mul(x, gen if s > 0 else group.inv(gen))
                if y not in words:
                    words[y] = words[x] + ((g, s),)
                    queue.append(y)
    return words


# -------------------------------------------------------- Cayley graphs


def relators_close(rows, relators):
    """Every relator, read from every vertex of the table, returns there.
    Column 2i is generator i, column 2i+1 its inverse."""
    for start in range(len(rows)):
        for r in relators:
            v = start
            for g, s in r:
                v = rows[v][2 * g + (0 if s > 0 else 1)]
            if v != start:
                return False
    return True


def distances(rows):
    n = len(rows)
    out = []
    for s in range(n):
        d = [-1] * n
        d[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in rows[u]:
                if d[v] < 0:
                    d[v] = d[u] + 1
                    queue.append(v)
        out.append(d)
    return out


def delta_by_definition(rows):
    """Thinness of geodesic triangles, straight from the definition: for
    each unordered vertex pair take the lexicographically least geodesic
    (as a vertex sequence, among all geodesics), and report the largest
    distance from a point of one side to the union of the other two."""
    n = len(rows)
    dist = distances(rows)
    memo = {}

    def all_geodesics(u, v):
        if (u, v) not in memo:
            if u == v:
                memo[(u, v)] = [(v,)]
            else:
                memo[(u, v)] = [
                    (u,) + rest
                    for x in set(rows[u]) if dist[x][v] == dist[u][v] - 1
                    for rest in all_geodesics(x, v)
                ]
        return memo[(u, v)]

    side = {}
    for u in range(n):
        for v in range(u + 1, n):
            side[(u, v)] = side[(v, u)] = min(all_geodesics(u, v))
    delta = 0
    for x in range(n):
        for y in range(x + 1, n):
            for z in range(y + 1, n):
                tri = (side[(x, y)], side[(y, z)], side[(x, z)])
                for i in range(3):
                    rest = set(tri[(i + 1) % 3]) | set(tri[(i + 2) % 3])
                    for p in tri[i]:
                        delta = max(delta, min(dist[p][q] for q in rest))
    return delta


# ------------------------------------------------------------ sequences


def thue_morse(start, n):
    """Letters start .. start+n-1 of the Thue-Morse word, as bit parities."""
    return "".join("01"[bin(k).count("1") & 1] for k in range(start, start + n))


def ternary_fixed_point(n):
    """Prefix of the fixed point of 0->012, 1->02, 2->1."""
    images = {"0": "012", "1": "02", "2": "1"}
    w = "0"
    while len(w) < n:
        w = "".join(images[c] for c in w)
    return w[:n]


def first_power(w, k):
    """First (position, block length) of a k-th power, position first, or
    None.  Period by period: a k-th power of period p at i is a run of
    (k-1)p positions j with w[j] == w[j+p]."""
    best = None
    n = len(w)
    for p in range(1, n // k + 1):
        need = (k - 1) * p
        run = 0
        for j in range(n - p):
            run = run + 1 if w[j] == w[j + p] else 0
            if run >= need:
                i = j - need + 1
                if best is None or i < best[0]:
                    best = (i, p)
                break
    return best


def is_power(w, i, p, k):
    return i >= 0 and p >= 1 and i + k * p <= len(w) and w[i:i + (k - 1) * p] == w[i + p:i + k * p]


# ------------------------------------------------------- string rewriting


def letter_counts(w):
    return Counter(w)


def replay_string(rules, start, steps):
    """Apply (rule index, position) steps; each left side must occur."""
    w = start
    for idx, pos in steps:
        lhs, rhs = rules[idx]
        if pos < 0 or w[pos:pos + len(lhs)] != lhs:
            raise ValueError(f"rule {idx} does not occur at {pos} in {w!r}")
        w = w[:pos] + rhs + w[pos + len(lhs):]
    return w


# ---------------------------------------------------------------- trees


def leaves(t):
    out = []
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.append(x[1])
            stack.append(x[0])
        else:
            out.append(x)
    return out


def parse_tree(text):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            pair = stack.pop()
            if len(pair) != 2:
                raise ValueError("a node needs two children")
            stack[-1].append(tuple(pair))
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("unbalanced term")
    return stack[0][0]


def tree_text(t):
    if isinstance(t, tuple):
        return f"({tree_text(t[0])} {tree_text(t[1])})"
    return t


def _reassociate(t, forward):
    if forward:  # ((x y) z) -> (x (y z))
        if not (isinstance(t, tuple) and isinstance(t[0], tuple)):
            raise ValueError("left side of associativity does not match")
        (x, y), z = t
        return (x, (y, z))
    if not (isinstance(t, tuple) and isinstance(t[1], tuple)):
        raise ValueError("right side of associativity does not match")
    x, (y, z) = t
    return ((x, y), z)


def replay_assoc(start, steps):
    """Apply (forward?, path) associativity steps to a tree."""
    t = start
    for forward, path in steps:
        def at(sub, rest):
            if not rest:
                return _reassociate(sub, forward)
            if not isinstance(sub, tuple):
                raise ValueError(f"path {path!r} leaves the tree")
            if rest[0] == "L":
                return (at(sub[0], rest[1:]), sub[1])
            return (sub[0], at(sub[1], rest[1:]))
        t = at(t, path)
    return t


def left_comb(names):
    t = names[0]
    for x in names[1:]:
        t = (t, x)
    return t


def right_comb(names):
    t = names[-1]
    for x in reversed(names[:-1]):
        t = (x, t)
    return t
