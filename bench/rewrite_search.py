"""rewrite-search: bounded equivalence search on strings and trees, and
the Turing-machine reduction.

Classes: Ceijtin pairs that exhaust a fixed budget (infinite classes),
batches of Ceijtin pairs joined by a short random walk (proven), pairs
in the commutation system on three letters (proven when the letter
counts agree, refuted-exhausted otherwise), associativity searches from
a left comb (proven against the right comb, refuted-exhausted against a
comb with permuted leaves), and unary_appender runs through the
rewriting encoding.  Refuted commutation pairs hold the median,
refuted associativity searches the tail.
"""

from __future__ import annotations

from wordproblem import presentations, reductions, rewriting, terms

from . import oracles
from .core import Query, rng_for

SETUP_IMPORTS = ("wordproblem",)
FRESH_PER_PASS = False
DOUBLING = {}

SIZES = {
    "full": dict(budget=3000, ceijtin_len=9, walk=4, batch=8, comm_batch=32,
                 comm_counts=(4, 4, 3), comm_other=(8, 1, 2), leaves=7, tm_n=(200, 260),
                 tree_budget=100000,
                 counts={"walk": 8, "comm-eq": 7, "assoc-eq": 5, "tm": 5,
                         "comm-neq": 47, "assoc-neq": 25, "ceijtin-budget": 3}),
    "smoke": dict(budget=200, ceijtin_len=6, walk=3, batch=2, comm_batch=2,
                  comm_counts=(2, 2, 1), comm_other=(3, 1, 1), leaves=4, tm_n=(2, 4),
                  tree_budget=10000,
                  counts={"walk": 1, "comm-eq": 1, "assoc-eq": 1, "tm": 1,
                          "comm-neq": 1, "assoc-neq": 1, "ceijtin-budget": 1}),
}

COMMUTATION = (("ab", "ba"), ("ba", "ab"), ("ac", "ca"), ("ca", "ac"),
               ("bc", "cb"), ("cb", "bc"))


def ceijtin_rules():
    """Ceijtin's equations, then their swaps: the order of the rules in
    the symmetric closure of the semigroup presentation."""
    eqs = [("ac", "ca"), ("ad", "da"), ("bc", "cb"), ("bd", "db"), ("ce", "eca"),
           ("de", "edb"), ("cdca", "cdcae"), ("caaa", "aaa"), ("daaa", "aaa")]
    return eqs + [(r, l) for l, r in eqs]


def _walk(rng, w, rules, steps):
    for _ in range(steps):
        hits = [(i, p) for i, (lhs, _) in enumerate(rules)
                for p in range(len(w)) if w.startswith(lhs, p)]
        i, p = rng.choice(hits)
        w = w[:p] + rules[i][1] + w[p + len(rules[i][0]):]
    return w


def _ceijtin_word(rng, n):
    """Random word around 'aaa', whose class is infinite (caaa = aaa)."""
    k = rng.randrange(n + 1)
    return "".join(rng.choice("abcde") for _ in range(k)) + "aaa" + \
        "".join(rng.choice("abcde") for _ in range(n - k))


def _arrangement(rng, counts):
    letters = [c for c, k in zip("abc", counts) for _ in range(k)]
    rng.shuffle(letters)
    return "".join(letters)


def generate(seed, size):
    s = SIZES[size]
    rng = rng_for(seed, "rewrite-search")
    rules = ceijtin_rules()
    items = []
    for cls, count in s["counts"].items():
        for _ in range(count):
            if cls == "walk":
                pairs = []
                for _ in range(s["batch"]):
                    w = _ceijtin_word(rng, s["ceijtin_len"])
                    pairs.append((w, _walk(rng, w, rules, s["walk"])))
                items.append((cls, pairs))
            elif cls == "ceijtin-budget":
                items.append((cls, (_ceijtin_word(rng, s["ceijtin_len"]),
                                    _ceijtin_word(rng, s["ceijtin_len"]))))
            elif cls == "comm-eq":
                # a short random walk away, batched since each pair is quick
                words = [_arrangement(rng, s["comm_counts"]) for _ in range(s["comm_batch"])]
                items.append((cls, [(w, _walk(rng, w, COMMUTATION, s["walk"])) for w in words]))
            elif cls == "comm-neq":
                # other letter counts, whose class is much the smaller: the
                # search ends once it has enumerated that class, so every
                # pair costs about the same
                items.append((cls, [(_arrangement(rng, s["comm_counts"]),
                                     _arrangement(rng, s["comm_other"]))]))
            elif cls.startswith("assoc"):
                names = rng.sample("ABCDEFGHIJKLMNOPQRSTUVWXYZ", s["leaves"])
                if cls == "assoc-eq":
                    target = oracles.right_comb(names)
                else:
                    perm = names[:]
                    while perm == names:
                        rng.shuffle(perm)
                    target = oracles.left_comb(perm)
                items.append((cls, (oracles.left_comb(names), target)))
            else:
                items.append((cls, rng.randrange(*s["tm_n"])))
    return {"items": items, "size": s}


def build(inputs):
    return {
        "ceijtin": rewriting.from_semigroup(presentations.catalog("ceijtin")),
        "comm": rewriting.RewriteSystem(3, COMMUTATION, rewriting.SystemKind.THUE),
        "machine": reductions.tm_catalog("unary_appender"),
        "encoding": reductions.encode(reductions.tm_catalog("unary_appender")),
    }


def _to_term(t):
    if isinstance(t, tuple):
        return terms.Node(_to_term(t[0]), _to_term(t[1]))
    return terms.Leaf(t)


def _from_term(t):
    if isinstance(t, terms.Node):
        return (_from_term(t.left), _from_term(t.right))
    return t.name


def queries(inputs, fixed, pass_no):
    s = inputs["size"]
    out = []
    for cls, data in inputs["items"]:
        if cls == "walk":
            out.append(Query(cls, (lambda pairs=data: [
                rewriting.search_equivalence(a, b, fixed["ceijtin"], s["budget"])
                for a, b in pairs]), _walk_check(data), _string_summary))
        elif cls == "ceijtin-budget":
            a, b = data
            out.append(Query(cls, (lambda a=a, b=b: [
                rewriting.search_equivalence(a, b, fixed["ceijtin"], s["budget"])]),
                _budget_check(a, b, s["budget"]), _string_summary))
        elif cls.startswith("comm"):
            out.append(Query(cls, (lambda pairs=data: [
                rewriting.search_equivalence(a, b, fixed["comm"], s["budget"] * 100)
                for a, b in pairs]), _comm_check(data), _string_summary))
        elif cls.startswith("assoc"):
            a, b = (_to_term(t) for t in data)
            out.append(Query(cls, (lambda a=a, b=b: terms.search_tree_equivalence(
                a, b, [terms.ASSOCIATIVITY], s["tree_budget"])), _assoc_check(*data),
                _tree_summary))
        else:
            out.append(Query(cls, (lambda n=data: _tm_query(fixed, n)), _tm_check(data),
                             _tm_summary))
    return out


def _string_summary(outcomes):
    return [(o.status.value, o.stats, o.trace) for o in outcomes]


def _tree_summary(o):
    return o.status.value, o.stats, o.trace


def _replays(rules, o, a, b):
    return (o.status.value == "proven"
            and oracles.replay_string(rules, a, o.trace.steps) == b)


def _walk_check(pairs):
    rules = ceijtin_rules()
    return lambda outcomes: all(_replays(rules, o, a, b)
                                for o, (a, b) in zip(outcomes, pairs))


def _budget_check(a, b, budget):
    rules = ceijtin_rules()

    def check(outcomes):
        (o,) = outcomes
        if o.status.value == "proven":
            return _replays(rules, o, a, b)
        # both classes are infinite, so the search cannot end refuted
        return o.status.value == "budget-exhausted" and o.stats.expanded == budget
    return check


def _comm_check(pairs):
    def check(outcomes):
        return all(_replays(COMMUTATION, o, a, b)
                   if oracles.letter_counts(a) == oracles.letter_counts(b)
                   else o.status.value == "refuted-exhausted"
                   for o, (a, b) in zip(outcomes, pairs))
    return check


def _assoc_check(a, b):
    def check(o):
        if oracles.leaves(a) != oracles.leaves(b):
            return o.status.value == "refuted-exhausted"
        steps = [(st.direction == "fwd", st.path) for st in o.trace.steps]
        return (o.status.value == "proven" and all(st.rule == 0 for st in o.trace.steps)
                and oracles.replay_assoc(a, steps) == b
                and _from_term(o.trace.end) == b)
    return check


def _tm_query(fixed, n):
    enc = fixed["encoding"]
    tape = (1,) * n
    ok = reductions.verify_simulation(fixed["machine"], tape, n + 5)
    start = enc.start_word(tape)
    return ok, start, enc.halt_word, rewriting.search_equivalence(
        start, enc.halt_word, enc.system, 100 * n)


def _tm_summary(result):
    ok, start, halt, o = result
    return ok, start, halt, o.status.value, o.stats, o.trace


def _tm_check(n):
    # Letters: blank a, mark b, states c d, end markers e f, halt marker g.
    start, halt = "ec" + "b" * n + "f", "egf"

    def check(result):
        ok, s, h, o = result
        return (ok and (s, h) == (start, halt) and o.status.value == "proven"
                and len(o.trace.steps) == 2 * n + 3
                and oracles.replay_string(_encoding_rules(), s, o.trace.steps) == h)
    return check


def _encoding_rules():
    """The rules of the unary_appender encoding, in the documented order:
    transitions sorted by (state, symbol), each right move once per
    neighbour letter and once for the right end marker; then one halt
    rule per missing transition; then the erasures beside the marker."""
    rules = []
    for here, new, write in (("ca", "d", "b"), ("cb", "c", "b")):
        rules += [(here + t, write + new + t) for t in "ab"]
        rules.append((here + "f", write + new + "af"))
    rules += [("da", "g"), ("db", "g")]
    rules += [(t + "g", "g") for t in "ab"] + [("g" + t, "g") for t in "ab"]
    return rules
