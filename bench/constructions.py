"""constructions: coset enumeration, triangle thinness and power-freeness.

Coset queries enumerate a group of known order and answer long words on
its Cayley graph: A5, PSL(2,7) and dihedral groups D_n, D_2n.  Delta
queries estimate triangle thinness on dihedral Cayley graphs of v and 2v
vertices.  Power-free queries check factors of the Thue-Morse word (k=3)
and of the square-free ternary word (k=2) at lengths n and 2n, plus
Thue-Morse factors with a planted cube.  The Thue-Morse 1x class holds
the median, the 2x class the tail.
"""

from __future__ import annotations

from wordproblem import cayley, presentations, sequences
from wordproblem.words import GenLetter

from . import oracles
from .core import Query, dihedral_relators, random_reduced_word, reshaped, rng_for

SETUP_IMPORTS = ("wordproblem",)
FRESH_PER_PASS = False

SIZES = {
    "full": dict(dihedral=64, delta_n=5, tm_n=448, sf_n=320, planted_n=384, n_words=12,
                 word_len=200, offsets=1024,
                 counts={"coset-A5": 10, "coset-PSL": 10, "planted": 7, "delta-1x": 3,
                         "coset-1x": 3, "sf-1x": 3, "tm-1x": 30,
                         "coset-2x": 3, "sf-2x": 3, "delta-2x": 3, "tm-2x": 25}),
    "smoke": dict(dihedral=8, delta_n=4, tm_n=64, sf_n=48, planted_n=64, n_words=4,
                  word_len=40, offsets=64,
                  counts={"coset-A5": 1, "coset-PSL": 1, "coset-1x": 1, "coset-2x": 1,
                          "delta-1x": 1, "delta-2x": 1, "planted": 2,
                          "tm-1x": 1, "sf-1x": 1, "tm-2x": 1, "sf-2x": 1}),
}

DOUBLING = {
    "sequences.doubling": ("sequences", "tm-1x", "tm-2x"),
    "cayley.coset_doubling": ("cayley", "coset-1x", "coset-2x"),
    "cayley.delta_doubling": ("cayley", "delta-1x", "delta-2x"),
}

A5_RELATORS = (((0, 1),) * 2, ((1, 1),) * 3, ((0, 1), (1, 1)) * 5)
PSL_RELATORS = (((0, 1),) * 2, ((1, 1),) * 3, ((0, 1), (1, 1)) * 7,
                ((0, 1), (1, 1), (0, -1), (1, -1)) * 4)


def _group(cls, s):
    """(model, relators) for a coset or delta class."""
    if cls == "coset-A5":
        return oracles.A5, A5_RELATORS
    if cls == "coset-PSL":
        return oracles.PSL27, PSL_RELATORS
    n = s["dihedral"] if cls.startswith("coset") else s["delta_n"]
    if cls.endswith("2x"):
        n *= 2
    return oracles.Dihedral(n), dihedral_relators(n)


def _group_words(rng, model, s):
    """Random words, every other one completed to the identity."""
    shortest = oracles.element_words(model)
    out = []
    for i in range(s["n_words"]):
        w = random_reduced_word(rng, s["word_len"], 2)
        if i % 2:
            w = w + shortest[model.inv(oracles.evaluate(model, w))]
        out.append(w)
    return out


def generate(seed, size):
    s = SIZES[size]
    rng = rng_for(seed, "constructions")
    items = []  # (class, data)
    for cls, count in s["counts"].items():
        for _ in range(count):
            if cls.startswith(("coset", "delta")):
                model, rels = _group(cls, s)
                words = _group_words(rng, model, s) if cls.startswith("coset") else []
                items.append((cls, dict(model=model, relators=reshaped(rng, rels),
                                        order=len(oracles.element_words(model)),
                                        words=words)))
            elif cls == "planted":
                n = s["planted_n"]
                off = rng.randrange(s["offsets"])
                pos = rng.randrange(n // 3, n // 2)
                block = "".join(rng.choice("01") for _ in range(rng.randrange(2, 7)))
                base = oracles.thue_morse(off, n)
                items.append((cls, dict(off=off, n=n, pos=pos, block=block,
                                        word=base[:pos] + block * 3 + base[pos:])))
            else:
                n = s[cls[:2] + "_n"] * (2 if cls.endswith("2x") else 1)
                items.append((cls, dict(off=rng.randrange(s["offsets"]), n=n)))
    return {"items": items, "size": s}


def build(inputs):
    return [presentations.GroupPresentation(
                2, tuple(tuple(GenLetter(*x) for x in r) for r in d["relators"]))
            if cls.startswith(("coset", "delta")) else None
            for cls, d in inputs["items"]]


def queries(inputs, fixed, pass_no):
    out = []
    for (cls, d), p in zip(inputs["items"], fixed):
        if cls.startswith("coset"):
            words = [tuple(GenLetter(*x) for x in w) for w in d["words"]]
            out.append(Query(cls, (lambda p=p, d=d, words=words: _coset_query(p, d, words)),
                             _coset_check(d), _coset_summary))
        elif cls.startswith("delta"):
            out.append(Query(cls, (lambda p=p, d=d: _delta_query(p, d)),
                             _delta_check(d), repr))
        elif cls == "planted":
            out.append(Query(cls, (lambda w=d["word"]: sequences.is_power_free(w, 3)),
                             _planted_check(d), repr))
        else:
            tm = cls.startswith("tm")
            out.append(Query(cls, (lambda d=d, tm=tm: _seq_query(d, tm)),
                             _seq_check(d, tm), repr))
    return out


def _coset_query(p, d, words):
    table = cayley.todd_coxeter(p, 50 * d["order"])
    graph = cayley.to_cayley_graph(table)
    return graph, [cayley.word_problem_finite(w, graph) for w in words]


def _coset_summary(result):
    graph, answers = result
    return graph.neighbors, answers


def _coset_check(d):
    def check(result):
        graph, answers = result
        model = d["model"]
        return (graph.n_vertices == d["order"]
                and oracles.relators_close(graph.neighbors, d["relators"])
                and answers == [oracles.evaluate(model, w) == model.identity
                                for w in d["words"]])
    return check


def _delta_query(p, d):
    graph = cayley.to_cayley_graph(cayley.todd_coxeter(p, 50 * d["order"]))
    return graph.neighbors, cayley.estimate_delta(graph)


def _delta_check(d):
    def check(result):
        rows, delta = result
        return (len(rows) == d["order"] and oracles.relators_close(rows, d["relators"])
                and delta == oracles.delta_by_definition(rows))
    return check


def _seq_query(d, tm):
    off, n = d["off"], d["n"]
    if tm:
        w = sequences.thue_morse_prefix(off + n)[off:]
    else:
        w = sequences.square_free_ternary_prefix(off + n)[off:]
    return w, sequences.is_power_free(w, 3 if tm else 2)


def _seq_check(d, tm):
    def check(result):
        w, (ok, witness) = result
        # Thue-Morse is cube-free (Thue); the ternary word is checked
        # square-free once per run by check_inputs
        expected = (oracles.thue_morse(d["off"], d["n"]) if tm else
                    oracles.ternary_fixed_point(d["off"] + d["n"])[d["off"]:])
        return w == expected and ok and witness is None
    return check


def _planted_check(d):
    def check(result):
        ok, witness = result
        if ok or witness is None:
            return False
        i, length = witness
        return oracles.is_power(d["word"], i, length, 3) and i <= d["pos"]
    return check


def check_inputs(inputs):
    """The ternary prefix covering every factor used is square-free."""
    s = inputs["size"]
    return oracles.first_power(
        oracles.ternary_fixed_point(s["offsets"] + 2 * s["sf_n"]), 2) is None
