"""Golden behaviour digests: every engine's answers on seeded inputs.

Each engine below answers a fixed set of seeded cases.  Every answer is
written as one line of text built from its fields, never from ``repr``,
so a record that prints differently is not a change in behaviour.  The
sha256 of the lines is compared with the digest committed here.  Inputs
come only from ``Random(seed).random()`` and catalog entries, whose
values Python keeps the same across releases.

A change that means to alter an engine's answers, such as a mended
fault, updates that engine's digest, and CHANGES.md names the engine and
the reason.  Any other failure here is a change in behaviour.
"""

import hashlib
import random

import pytest

from wordproblem.cayley import estimate_delta, to_cayley_graph, todd_coxeter
from wordproblem.dehn import dehn_solve, dehn_step
from wordproblem.presentations import GroupPresentation, SymmetrizedRelators, catalog, symmetrize
from wordproblem.reductions import TM_CATALOG, encode, tm_catalog, tm_run
from wordproblem.rewriting import (RewriteSystem, SystemKind, from_semigroup, search_equivalence,
                                  successors)
from wordproblem.sequences import is_power_free, square_free_ternary_prefix, thue_morse_prefix
from wordproblem.terms import ASSOCIATIVITY, Leaf, Node, format_term, search_tree_equivalence
from wordproblem.words import (LETTERS, GenLetter, concat, cyclic_shifts, format_word, free_reduce,
                               invert, parse_word)


def pick(rng, n):
    """An integer in range(n), drawn from Random.random() alone."""
    return int(rng.random() * n)


def random_letter(rng, n_gens):
    return GenLetter(pick(rng, n_gens), 1 if rng.random() < 0.5 else -1)


def reduced_word(rng, n_gens, length):
    out = []
    while len(out) < length:
        x = random_letter(rng, n_gens)
        if not out or out[-1] != x.inverse():
            out.append(x)
    return tuple(out)


def cyclically_reduced_word(rng, n_gens, length):
    while True:
        r = reduced_word(rng, n_gens, length)
        if r[0] != r[-1].inverse():
            return r


def random_presentation(rng):
    """1-3 relators of 3-10 letters over 2-4 generators; half the time
    the first extends the second, so that majority matches tie."""
    n_gens = 2 + pick(rng, 3)
    relators = [cyclically_reduced_word(rng, n_gens, 3 + pick(rng, 8))
                for _ in range(1 + pick(rng, 3))]
    if len(relators) > 1 and rng.random() < 0.5:
        relators[0] = relators[1] + reduced_word(rng, n_gens, 1 + pick(rng, 3))
    return GroupPresentation(n_gens, tuple(relators))


def long_relator_presentation(rng):
    """1-2 relators of 24-36 letters over 3-4 generators; such random
    relators are mostly C'(1/6)."""
    n_gens = 3 + pick(rng, 2)
    return GroupPresentation(n_gens, tuple(cyclically_reduced_word(rng, n_gens, 24 + pick(rng, 13))
                                           for _ in range(1 + pick(rng, 2))))


def trivial_word(rng, p, chunks):
    """A product of conjugates u * r' * u^-1, each r' a cyclic shift of a
    relator or of its inverse."""
    parts = []
    for _ in range(chunks):
        r = p.relators[pick(rng, len(p.relators))]
        if rng.random() < 0.5:
            r = invert(r)
        r = cyclic_shifts(r)[pick(rng, len(r))]
        u = reduced_word(rng, p.n_gens, pick(rng, 4))
        parts += [u, r, invert(u)]
    return concat(*parts)


def laden_word(rng, p, chunks):
    """Majority prefixes of relator shifts between random letters."""
    parts = []
    for _ in range(chunks):
        r = p.relators[pick(rng, len(p.relators))]
        r = cyclic_shifts(r)[pick(rng, len(r))]
        parts.append(r[: len(r) // 2 + 1 + pick(rng, (len(r) + 1) // 2)])
        parts.append(reduced_word(rng, p.n_gens, pick(rng, 3)))
    return concat(*parts)


def group_words(rng, p):
    yield reduced_word(rng, p.n_gens, pick(rng, 20))
    yield tuple(random_letter(rng, p.n_gens) for _ in range(pick(rng, 16)))
    yield trivial_word(rng, p, 1 + pick(rng, 4))
    yield laden_word(rng, p, 1 + pick(rng, 4))


def dehn_presentations(rng):
    return ([catalog("surface"), catalog("surface", genus=3), catalog("torus"),
             catalog("dihedral5"), catalog("free_abelian", rank=3), catalog("trefoil"),
             catalog("higman_truncated")]
            + [random_presentation(rng) for _ in range(16)]
            + [long_relator_presentation(rng) for _ in range(4)])


def step_text(step):
    return f"{step.relator},{step.pos},{step.replaced}"


def dehn_solve_lines():
    rng = random.Random(1801)
    for p in dehn_presentations(rng):
        for _ in range(6):
            for word in group_words(rng, p):
                o = dehn_solve(word, p)
                yield (f"{o.verdict.value}|{' '.join(map(step_text, o.trace))}"
                       f"|{format_word(o.final_word)}")


def open_set(rng):
    """Relators and some of their shifts, a set not closed under cyclic
    shifts or inversion."""
    n_gens = 2 + pick(rng, 3)
    words = []
    for _ in range(1 + pick(rng, 3)):
        r = cyclically_reduced_word(rng, n_gens, 3 + pick(rng, 6))
        words.append(r)
        if rng.random() < 0.5:
            words.append(cyclic_shifts(r)[pick(rng, len(r))])
    return GroupPresentation(n_gens, tuple(words)), SymmetrizedRelators(tuple(dict.fromkeys(words)))


def dehn_step_lines():
    rng = random.Random(1802)
    cases = [(p, symmetrize(p)) for p in dehn_presentations(rng)]
    cases += [open_set(rng) for _ in range(24)]
    for p, s in cases:
        for _ in range(6):
            for word in group_words(rng, p):
                result = dehn_step(free_reduce(word), s)
                if result is None:
                    yield "none"
                else:
                    yield f"{format_word(result[0])}|{step_text(result[1])}"


def table_text(t):
    rows = ";".join(" ".join("-" if x is None else str(x) for x in row) for row in t.rows)
    return f"{t.status.value}|{t.n_gens}|{t.n_cosets}|{rows}"


def todd_coxeter_lines():
    for p, budgets in ((catalog("dihedral5"), (1, 2, 3, 7, 10, 11, 100)),
                       (catalog("torus"), (30,)),
                       (catalog("trefoil"), (25,)),
                       (catalog("surface"), (40,)),
                       (catalog("free_abelian", rank=2), (12, 50))):
        for budget in budgets:
            yield table_text(todd_coxeter(p, budget))
    rng = random.Random(1803)
    for _ in range(60):
        n_gens = 1 + pick(rng, 3)
        relators = tuple(reduced_word(rng, n_gens, 1 + pick(rng, 8))
                         for _ in range(1 + pick(rng, 4)))
        yield table_text(todd_coxeter(GroupPresentation(n_gens, relators), 1 + pick(rng, 150)))


def estimate_delta_lines():
    d3 = GroupPresentation(2, (parse_word("aaa"), parse_word("bb"), parse_word("abab")))
    z6 = GroupPresentation(1, (parse_word("aaaaaa"),))
    for p in (catalog("dihedral5"), d3, z6):
        g = to_cayley_graph(todd_coxeter(p, 100))
        yield f"{g.n_vertices}|{estimate_delta(g)}"


def outcome_text(o, format_step, format_state=str):
    s = o.stats
    head = f"{o.status.value}|{s.expanded},{s.frontier_peak},{s.depth}"
    if o.trace is None:
        return head + "|none"
    t = o.trace
    return (f"{head}|{format_state(t.start)}>{format_state(t.end)}"
            f"|{' '.join(map(format_step, t.steps))}")


def string_step(step):
    idx, pos = step
    return f"{idx},{pos}"


def plain_word(rng, size, length):
    return "".join(LETTERS[pick(rng, size)] for _ in range(length))


def walk(rng, w, sys, steps):
    """w after up to steps rewrites, each one picked among its successors."""
    for _ in range(steps):
        nexts = successors(w, sys)
        if not nexts:
            break
        w = nexts[pick(rng, len(nexts))][0]
    return w


def search_equivalence_lines():
    rng = random.Random(1804)
    comm = RewriteSystem(3, tuple((x + y, y + x) for x in "abc" for y in "abc" if x != y),
                         SystemKind.THUE)
    ceijtin = from_semigroup(catalog("ceijtin"))
    for sys, size, budget in ((comm, 3, 400), (ceijtin, 5, 250)):
        for _ in range(32):
            a = plain_word(rng, size, 3 + pick(rng, 4))
            kind = rng.random()
            if kind < 0.5:
                b = walk(rng, a, sys, 1 + pick(rng, 5))
            else:
                b = plain_word(rng, size, len(a) + pick(rng, 2))
            yield outcome_text(search_equivalence(a, b, sys, budget if kind < 0.9 else 4),
                               string_step)
    enc = encode(tm_catalog("unary_appender"))
    for marks in range(4):
        start = enc.start_word((1,) * marks)
        yield outcome_text(search_equivalence(start, enc.halt_word, enc.system, 60), string_step)


def random_tree(rng, leaves):
    if len(leaves) == 1:
        return Leaf(leaves[0])
    cut = 1 + pick(rng, len(leaves) - 1)
    return Node(random_tree(rng, leaves[:cut]), random_tree(rng, leaves[cut:]))


def tree_step(step):
    return f"{step.rule},{step.direction},{step.path}"


def tree_search_lines():
    rng = random.Random(1805)
    for _ in range(40):
        names = [f"x{i}" for i in range(5 + pick(rng, 2))]
        a = random_tree(rng, names)
        if rng.random() < 0.3:
            i = pick(rng, len(names) - 1)
            names[i], names[i + 1] = names[i + 1], names[i]
        b = random_tree(rng, names)
        budget = 3 if rng.random() < 0.2 else 200
        o = search_tree_equivalence(a, b, [ASSOCIATIVITY], budget)
        yield outcome_text(o, tree_step, format_term)


def power_free_lines():
    rng = random.Random(1806)
    words = [plain_word(rng, 2 + pick(rng, 2), 5 + pick(rng, 36)) for _ in range(80)]
    words += [thue_morse_prefix(200), square_free_ternary_prefix(120)]
    for w in words:
        for k in (2, 3, 4):
            ok, witness = is_power_free(w, k)
            yield f"{ok}|{'none' if witness is None else '%d,%d' % witness}"


def digits(cells):
    return ",".join(map(str, cells))


def reduction_lines():
    for name in TM_CATALOG:
        enc = encode(tm_catalog(name))
        yield f"{name}|{enc.system.alphabet_size}|{enc.system.kind.value}|{enc.halt_word}"
        yield " ".join(f"{lhs}>{rhs}" for lhs, rhs in enc.system.rules)
    rng = random.Random(1807)
    for _ in range(40):
        m = tm_catalog(list(TM_CATALOG)[pick(rng, len(TM_CATALOG))])
        tape = tuple(pick(rng, m.n_symbols) for _ in range(pick(rng, 7)))
        r = tm_run(m, tape, pick(rng, 21))
        c = r.config
        yield f"{r.halted}|{r.steps}|{digits(c.left)}/{c.state}/{c.head}/{digits(c.right)}"


DIGESTS = {
    "dehn_solve": (dehn_solve_lines,
                   "8f821900db6170e9bb34cf02a4271ac5757a1a2aea9c1f6467c42c21cae0013e"),
    "dehn_step": (dehn_step_lines,
                  "e7ed946df9a2ebedd6446e7c6945df089f8810305f27d5ce3f1474419e5bfc4f"),
    "todd_coxeter": (todd_coxeter_lines,
                     "7fa9d8a9f541cdf244fba8d365c5bd191341c97b4ef3fa552c651af6d31fb54d"),
    "estimate_delta": (estimate_delta_lines,
                       "17a84ef2d4d86b47be3ea4e3fa02cc1712ed986cbd4c5f0cde8d06dd0048b257"),
    "search_equivalence": (search_equivalence_lines,
                           "27b71bc56005e6ff4e1b7c8768a35f62206445fb46444070e713b8bd2221ab01"),
    "search_tree_equivalence": (tree_search_lines,
                                "768d75ccb75e4e777cb241585577d23159141270b70b3bcbf5a355228ca95454"),
    "is_power_free": (power_free_lines,
                      "54e31e0fee4274327aac9d833f2ec6dfbaf57c45abf9bde235da5d1d47b7e954"),
    "encode_and_tm_run": (reduction_lines,
                          "85b5bbd4e132086a0d8cd8f47ea895ff146c51b710dcad914107c77712067365"),
}


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("engine", DIGESTS)
def test_answers_match_the_committed_digest(engine):
    lines, expected = DIGESTS[engine]
    assert digest(lines()) == expected, (
        f"{engine} answers differently on its seeded cases; if that is meant, "
        "update its digest and name the engine and the reason in CHANGES.md")
