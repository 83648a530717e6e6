"""What the workloads share: the query record and seeded input helpers."""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from . import oracles


class Query(NamedTuple):
    """One timed unit of work.

    ``run`` makes the program calls and returns their result; only it is
    timed.  ``check`` tests a result against facts computed apart from
    the program.  ``summary`` reduces a result to a value that must be
    equal on every pass over the same inputs.
    """

    cls: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    summary: Callable[[object], object] = repr


def rng_for(seed, *labels):
    """A generator determined by the seed and the labels alone."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def random_reduced_word(rng, n, n_gens):
    w = []
    while len(w) < n:
        letter = (rng.randrange(n_gens), rng.choice((1, -1)))
        if not w or w[-1] != (letter[0], -letter[1]):
            w.append(letter)
    return tuple(w)


def nontrivial_word(rng, n, n_gens):
    """Freely reduced word whose exponent sum in generator 0 is not 0."""
    while True:
        w = random_reduced_word(rng, n, n_gens)
        if oracles.exponent_sum(w, 0):
            return w


def trivial_word(rng, relators, n_gens, n):
    """Freely reduced product of conjugated relators, at least n long."""
    w = ()
    while len(w) < n:
        r = rng.choice(relators)
        if rng.random() < 0.5:
            r = oracles.invert(r)
        k = rng.randrange(len(r))
        u = random_reduced_word(rng, rng.randrange(1, 6), n_gens)
        w = oracles.join(w, oracles.free_reduce(u + r[k:] + r[:k] + oracles.invert(u)))
    return w


def surface_relator(genus):
    r = []
    for i in range(genus):
        a, b = 2 * i, 2 * i + 1
        r += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return tuple(r)


def dihedral_relators(n):
    return ((0, 1),) * n, ((1, 1),) * 2, ((0, 1), (1, 1)) * 2


def reshaped(rng, relators):
    """The same relators in another order, each rotated and perhaps
    inverted: another presentation of the same group."""
    out = []
    for r in relators:
        if rng.random() < 0.5:
            r = oracles.invert(r)
        k = rng.randrange(len(r))
        out.append(r[k:] + r[:k])
    rng.shuffle(out)
    return tuple(out)
