"""dehn-words: Dehn's algorithm on two surface groups and a random
C'(1/6) presentation.

Scan-only words (random, nonzero exponent sum in generator a) make the
solver scan, replace little and then pay the C'(1/6) certificate; those
on the genus-2g surface hold the median.  Trivial words (products of
conjugated relators) make it rewrite most of the word; the 2x class on
the genus-g surface holds the tail.
"""

from __future__ import annotations

from wordproblem import dehn, presentations
from wordproblem.words import GenLetter

from . import oracles
from .core import (Query, nontrivial_word, random_reduced_word, rng_for, surface_relator,
                   trivial_word)

SETUP_IMPORTS = ("wordproblem",)
FRESH_PER_PASS = False

SIZES = {
    "full": dict(genus=8, rand_gens=4, rand_rels=2, rand_len=36,
                 scan_len=1000, n=2000,
                 counts={"scan-g": 25, "scan-2g": 40, "scan-R": 5,
                         "trivial-1x-g": 10, "trivial-2x-g": 17, "trivial-2x-R": 3}),
    "smoke": dict(genus=2, rand_gens=4, rand_rels=2, rand_len=30,
                  scan_len=200, n=200,
                  counts={"scan-g": 2, "scan-R": 2, "scan-2g": 2,
                          "trivial-1x-g": 2, "trivial-2x-g": 2, "trivial-2x-R": 2}),
}

# metric -> (layer, 1x class, 2x class)
DOUBLING = {
    "dehn.doubling": ("dehn", "trivial-1x-g", "trivial-2x-g"),
    "presentations.doubling": ("presentations", "scan-g", "scan-2g"),
}


def random_c6_presentation(rng, n_gens, n_rels, length):
    """Cyclically reduced relators with exponent sum 0 in generator a,
    accepted only when the benchmark's own piece check finds C'(1/6)."""
    while True:
        rels = []
        while len(rels) < n_rels:
            r = random_reduced_word(rng, length, n_gens)
            if r[0] != (r[-1][0], -r[-1][1]) and oracles.exponent_sum(r, 0) == 0:
                rels.append(r)
        if oracles.is_c6(rels):
            return tuple(rels)


def generate(seed, size):
    s = SIZES[size]
    g = s["genus"]
    rng = rng_for(seed, "dehn-words")
    groups = {
        "g": (2 * g, (surface_relator(g),)),
        "2g": (4 * g, (surface_relator(2 * g),)),
        "R": (s["rand_gens"], random_c6_presentation(
            rng, s["rand_gens"], s["rand_rels"], s["rand_len"])),
    }
    items = []  # (class, group key, word, trivial?)
    for cls, count in s["counts"].items():
        kind, key = cls.split("-")[0], cls.split("-")[-1]
        n_gens, rels = groups[key]
        for _ in range(count):
            if kind == "scan":
                items.append((cls, key, nontrivial_word(rng, s["scan_len"], n_gens), False))
            else:
                n = s["n"] * (2 if "-2x-" in cls else 1)
                items.append((cls, key, trivial_word(rng, rels, n_gens, n), True))
    return {"groups": groups, "items": items}


def build(inputs):
    return {key: presentations.GroupPresentation(
                n_gens, tuple(tuple(GenLetter(*x) for x in r) for r in rels))
            for key, (n_gens, rels) in inputs["groups"].items()}


def queries(inputs, fixed, pass_no):
    sym = {key: oracles.symmetrize(rels) for key, (_, rels) in inputs["groups"].items()}
    out = []
    for cls, key, w, trivial in inputs["items"]:
        word = tuple(GenLetter(*x) for x in w)
        out.append(Query(cls, (lambda p=fixed[key], word=word: dehn.dehn_solve(word, p)),
                         _checker(w, sym[key], trivial), _summary))
    return out


def _summary(o):
    return (o.verdict.value, tuple((s.relator, s.pos, s.replaced) for s in o.trace),
            o.final_word)


def _checker(w, sym, trivial):
    def check(o):
        steps = [(s.relator, s.pos, s.replaced) for s in o.trace]
        final = oracles.replay_dehn(w, sym, steps)
        if final != o.final_word:
            return False
        if trivial:  # Greendlinger: under C'(1/6) a trivial word reduces to 1
            return o.verdict.value == "trivial" and final == ()
        # nonzero exponent sum: nontrivial in the abelianization
        return (o.verdict.value == "nontrivial-certified"
                and oracles.exponent_sum(final, 0) == oracles.exponent_sum(w, 0)
                and oracles.is_dehn_reduced(final, sym))
    return check
