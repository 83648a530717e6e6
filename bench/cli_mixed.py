"""cli-mixed: README-style invocations of ``wordproblem.cli.main(argv)``,
run in-process with standard output and error captured.

Every pass makes fresh inputs: no two calls share input-file content or
a word, as separate processes would not share a cache.  Three malformed
inputs fail today because of faults in the program (an exception escapes
``main``); they do not depend on the seed and count as failed operations
in every pass.  The short subcommands hold the median, dehn-solve with a
long trace holds the tail.
"""

from __future__ import annotations

import io
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import wordproblem.cli as cli

from . import oracles
from .core import (Query, dihedral_relators, random_reduced_word, reshaped, rng_for,
                   surface_relator, trivial_word)

SETUP_IMPORTS = ("wordproblem", "wordproblem.cli")
FRESH_PER_PASS = True
DOUBLING = {}

SIZES = {
    "full": dict(dehn_len=2400, dihedral=(20, 40), leaves=5, reduce_len=3000,
                 counts={"dehn-solve": 20, "cayley": 4, "tree-equiv": 4, "equiv": 3,
                         "rewrite": 3, "small-cancel": 4, "seq": 3, "catalog": 4,
                         "reduce": 40, "tm-run": 3, "tm-encode": 3, "malformed": 6,
                         "fault": 3}),
    "smoke": dict(dehn_len=60, dihedral=(5, 9), leaves=4, reduce_len=40,
                  counts={"dehn-solve": 1, "cayley": 1, "tree-equiv": 2, "equiv": 2,
                          "rewrite": 1, "small-cancel": 2, "seq": 2, "catalog": 3,
                          "reduce": 1, "tm-run": 1, "tm-encode": 1, "malformed": 6,
                          "fault": 3}),
}

ERROR_PREFIX = "wordproblem: error:"


def generate(seed, size):
    return {"seed": seed, "size": SIZES[size],
            "workdir": Path(__file__).resolve().parent / "runs" / f"work-{os.getpid()}"}


def build(inputs):
    return None


def cleanup(inputs):
    shutil.rmtree(inputs["workdir"], ignore_errors=True)


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def queries(inputs, fixed, pass_no):
    s = inputs["size"]
    rng = rng_for(inputs["seed"], "cli-mixed", pass_no)
    work = inputs["workdir"] / f"pass{pass_no}"
    shutil.rmtree(inputs["workdir"], ignore_errors=True)
    work.mkdir(parents=True)
    ctx = _Context(rng, work, s)
    out = []
    for cls, count in s["counts"].items():
        make = MAKERS[cls]
        for i in range(count):
            argv, check = make(ctx, i)
            if cls != "fault":
                argv = argv + ["--format", rng.choice(("human", "lines"))]
            out.append(Query(cls, (lambda argv=argv: _invoke(argv)), check, repr))
    return out


def pass_counts(results):
    return {"cli.bytes_out": sum(len(r[1]) + len(r[2]) for r in results
                                 if isinstance(r, tuple))}


class _Context:
    """Seeded source of distinct inputs and files for one pass."""

    def __init__(self, rng, work, size):
        self.rng, self.work, self.size = rng, work, size
        self.used = {}
        self.files = 0

    def unique(self, kind, make):
        """A value from make() that no earlier call for this kind gave."""
        used = self.used.setdefault(kind, set())
        while True:
            value = make()
            if value not in used:
                used.add(value)
                return value

    def file(self, text):
        used = self.used.setdefault("file", set())
        if text in used:
            raise ValueError("input files must differ")
        used.add(text)
        self.files += 1
        path = self.work / f"in{self.files}.txt"
        path.write_text(text)
        return str(path)


# ----------------------------------------------------------- output reading


def _fields(out):
    """Output lines as (key, value): 'key: value' and 'key value' alike."""
    rows = []
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if not sep or " " in key:
            key, _, value = line.partition(" ")
        rows.append((key, value))
    return rows


def _ok(result):
    c, out, err = result
    return c == 0 and err == ""


# ------------------------------------------------------------ subcommands


def _relabel(rng, w, n_gens):
    perm = list(range(n_gens))
    rng.shuffle(perm)
    return tuple((perm[g], s) for g, s in w)


def _dehn_solve(ctx, i):
    rng = ctx.rng
    rel = ctx.unique("relator", lambda: reshaped(rng, (_relabel(rng, surface_relator(2), 4),))[0])
    path = ctx.file(f"gens: a b c d\nrel: {oracles.word_text(rel)}\n")
    w = ctx.unique("word", lambda: trivial_word(rng, (rel,), 4, ctx.size["dehn_len"]))
    sym = oracles.symmetrize((rel,))

    def check(result):
        rows = _fields(result[1])
        steps = []
        for k, v in rows:
            if k == "step":
                nums = [int(x) for x in v.replace("relator ", "").replace(" at ", " ")
                        .replace(" replacing ", " ").split()]
                steps.append(tuple(nums))
        return (_ok(result) and rows[0] == ("verdict", "trivial")
                and rows[-1] == ("final", "1")
                and oracles.replay_dehn(w, sym, steps) == ())
    return ["dehn-solve", "--presentation", path, oracles.word_text(w)], check


def _cayley(ctx, i):
    rng = ctx.rng
    n = ctx.unique("dihedral", lambda: rng.randrange(*ctx.size["dihedral"]))
    rels = reshaped(rng, dihedral_relators(n))
    path = ctx.file("gens: a b\n" + "".join(f"rel: {oracles.word_text(r)}\n" for r in rels))
    model = oracles.Dihedral(n)
    w = random_reduced_word(rng, 200, 2)
    if i % 2:
        w = w + oracles.element_words(model)[model.inv(oracles.evaluate(model, w))]
    text = oracles.word_text(w)
    answer = "trivial" if oracles.evaluate(model, w) == model.identity else "nontrivial"

    def check(result):
        rows = _fields(result[1])
        if not (_ok(result) and rows[0] == ("status", "complete")
                and rows[1] == ("cosets", str(2 * n))
                and rows[2] in (("word", f"{text} {answer}"), ("word", f"{text}: {answer}"))):
            return False
        tgf = result[1].splitlines()[3:]
        if tgf[:2 * n] != [f"{v} {v}" for v in range(2 * n)] or tgf[2 * n] != "#":
            return False
        perm = {"a": [None] * (2 * n), "b": [None] * (2 * n)}
        for line in tgf[2 * n + 1:]:
            u, v, g = line.split()
            perm[g][int(u)] = int(v)
        inv = {g: {v: u for u, v in enumerate(p)} for g, p in perm.items()}
        rows_ = [[perm["a"][v], inv["a"][v], perm["b"][v], inv["b"][v]]
                 for v in range(2 * n)]
        return len(tgf) == 4 * n + 1 + 2 * n and oracles.relators_close(rows_, rels)
    return ["cayley", "--presentation", path, "--max-cosets", str(100 * n),
            "--word", text, "--tgf"], check


def _tree_equiv(ctx, i):
    rng = ctx.rng
    x, y, z = ctx.unique("variables", lambda: tuple(
        "?" + "".join(rng.choice("xyzuvw") for _ in range(3)) for _ in range(3)))
    if len({x, y, z}) < 3:
        x, y, z = x + "1", y + "2", z + "3"
    path = ctx.file(f"rule: (({x} {y}) {z}) => ({x} ({y} {z}))\n")
    names = rng.sample("ABCDEFGHIJKLMNOPQRSTUVWXYZ", ctx.size["leaves"])
    a = oracles.left_comb(names)
    if i % 2:
        b = oracles.right_comb(names)
    else:
        perm = names[:]
        while perm == names:
            rng.shuffle(perm)
        b = oracles.left_comb(perm)
    equal = oracles.leaves(a) == oracles.leaves(b)

    def check(result):
        rows = _fields(result[1])
        if not _ok(result) or rows[0] != ("status", "proven" if equal else "refuted-exhausted"):
            return False
        t = a
        for k, v in rows[1:-1]:
            rule, direction, at, _, term = v.split(" ", 4)
            t = oracles.replay_assoc(t, [(direction == "fwd", at[1:].replace("-", ""))])
            if k != "step" or rule != "0" or oracles.parse_tree(term) != t:
                return False
        return rows[-1][0] == "stats" and (not equal or t == b)
    return ["tree-equiv", "--rules", path, "--from", oracles.tree_text(a),
            "--to", oracles.tree_text(b), "--budget", "100000"], check


def _system_file(ctx, rules, kind):
    lines = [f"alpha: {' '.join('abcd'[:max(len(set(''.join(l + r for l, r in rules))), 1)])}",
             f"kind: {kind}"] + [f"rule: {l} -> {r}" for l, r in rules]
    return ctx.file("\n".join(lines) + "\n")


def _string_steps(rows):
    steps, words = [], []
    for k, v in rows:
        if k == "step":
            idx, at, _, word = v.split(" ", 3)
            steps.append((int(idx), int(at[1:])))
            words.append("" if word == "1" else word)
    return steps, words


def _replays(rules, start, steps, words):
    w = start
    for step, word in zip(steps, words):
        w = oracles.replay_string(rules, w, [step])
        if w != word:
            return False
    return True


def _equiv(ctx, i):
    rng = ctx.rng
    rules = list(ctx.unique("rules", lambda: tuple(rng.sample(
        [("ab", "ba"), ("ba", "ab"), ("ac", "ca"), ("ca", "ac"), ("bc", "cb"), ("cb", "bc")],
        6))))
    path = _system_file(ctx, rules, "thue")
    letters = list("aaabbcc")
    rng.shuffle(letters)
    a = "".join(letters)
    rng.shuffle(letters)
    b = "".join(letters) if i % 2 else "".join(letters)[:-1] + "a"
    equal = sorted(a) == sorted(b)

    def check(result):
        rows = _fields(result[1])
        if not _ok(result) or rows[0] != ("status", "proven" if equal else "refuted-exhausted"):
            return False
        steps, words = _string_steps(rows)
        return rows[-1][0] == "stats" and (not equal or (
            _replays(rules, a, steps, words) and (words[-1] if words else a) == b))
    return ["equiv", "--sys", path, "--from", a, "--to", b, "--budget", "100000"], check


def _rewrite(ctx, i):
    rng = ctx.rng
    k = 3 + i % 2
    rules = list(ctx.unique("rules", lambda: tuple(rng.sample(
        [(y + x, x + y) for x in "abcd"[:k] for y in "abcd"[:k] if x < y],
        k * (k - 1) // 2))))
    path = _system_file(ctx, rules, "semithue")
    w = ctx.unique("word", lambda: "".join(rng.choice("abcd"[:k]) for _ in range(30)))

    def check(result):
        rows = _fields(result[1])
        steps, words = _string_steps(rows)
        return (_ok(result) and _replays(rules, w, steps, words)
                and rows[-1] == ("final", "".join(sorted(w))))
    return ["rewrite", "--sys", path, w, "--max-steps", "1000"], check


def _higman_relators(exps):
    out = []
    for e in exps:
        out.append(((0, -1),) * e + ((1, 1),) + ((0, 1),) * e
                   + ((2, -1),) * e + ((3, -1),) + ((2, 1),) * e)
    return tuple(out)


def _small_cancel(ctx, i):
    rng = ctx.rng
    if i % 2:
        g = ctx.unique("genus", lambda: rng.randrange(2, 13))
        ratio = Fraction(1, 4 * g)
        argv = ["small-cancel", "--preset", "surface", "--genus", str(g)]
    else:
        exps = ctx.unique("exponents", lambda: tuple(sorted(
            rng.sample(range(1, 5), rng.randrange(1, 4)))))
        ratio = oracles.max_piece_ratio(oracles.symmetrize(_higman_relators(exps)))
        argv = ["small-cancel", "--preset", "higman_truncated",
                "--exponents", ",".join(map(str, exps))]
    verdict = "holds" if ratio < Fraction(1, 6) else "fails"

    def check(result):
        rows = _fields(result[1])
        return _ok(result) and len(rows) == 2 and (
            rows == [("ratio", str(ratio)), ("smallcancel", f"1/6 {verdict}")]
            or rows == [("max", f"piece ratio: {ratio}"), ("C'(1/6)", verdict)])
    return argv, check


def _seq(ctx, i):
    rng = ctx.rng
    n = ctx.unique("seq", lambda: rng.randrange(100, 300))
    tm = i % 2 == 0
    word = oracles.thue_morse(0, n) if tm else oracles.ternary_fixed_point(n)
    k = 3 if tm else 2

    def check(result):
        lines = result[1].splitlines()
        return _ok(result) and lines[0] in (f"word: {word}", f"word {word}") and \
            lines[1] in (f"power-free k={k}: true", f"powerfree {k} true") and \
            (tm or oracles.first_power(word, 2) is None)
    return ["seq", "--kind", "tm" if tm else "sf3", "--n", str(n), "--check", str(k)], check


def _catalog(ctx, i):
    rng = ctx.rng
    kind = i % 3
    if kind == 0:
        g = ctx.unique("catalog-genus", lambda: rng.randrange(2, 14))
        gens = 2 * g
        rels = (surface_relator(g),)
        argv = ["catalog", "surface", "--genus", str(g)]
    elif kind == 1:
        exps = ctx.unique("catalog-exponents", lambda: tuple(sorted(
            rng.sample(range(0, 9), rng.randrange(1, 5)))))
        gens = 4
        rels = _higman_relators(exps)
        argv = ["catalog", "higman_truncated", "--exponents", ",".join(map(str, exps))]
    else:
        def check(result):
            lines = result[1].splitlines()
            return (_ok(result) and lines[:2] == ["alpha: a b c d e", "kind: thue"]
                    and len(lines) == 2 + 18)
        return ["catalog", "ceijtin", "--rewrite"], check
    expected = "gens: " + " ".join(chr(97 + k) for k in range(gens)) + "\n" + \
        "".join(f"rel: {oracles.word_text(r)}\n" for r in rels)
    return argv, lambda result: _ok(result) and result[1] == expected


def _reduce(ctx, i):
    rng = ctx.rng
    w = ctx.unique("word", lambda: tuple((rng.randrange(3), rng.choice((1, -1)))
                                 for _ in range(ctx.size["reduce_len"])))
    reduced = oracles.word_text(oracles.free_reduce(w))
    return ["reduce", oracles.word_text(w)], lambda result: _ok(result) and \
        result[1] in (f"reduced: {reduced}\n", f"reduced {reduced}\n")


def _machine_file(ctx):
    """unary_appender over 2 to 20 tape symbols; a new size for each file."""
    extra = ctx.unique("extra-symbols", lambda: ctx.rng.randrange(19))
    symbols = " ".join(chr(97 + k) for k in range(2 + extra))
    return ctx.file(f"states: 2\nsymbols: {symbols}\nstart: q0\n"
                    "trans: q0 b -> q0 b R\ntrans: q0 a -> q1 b R\n"), extra


def _tm_run(ctx, i):
    rng = ctx.rng
    path, _ = _machine_file(ctx)
    n = ctx.unique("tape", lambda: rng.randrange(5, 200))
    want = [("status", "halted"), ("steps", str(n + 1)), ("tape", "b" * (n + 1))]
    return ["tm-run", "--machine", path, "--input", "b" * n], \
        lambda result: _ok(result) and _fields(result[1]) == want


def _tm_encode(ctx, i):
    rng = ctx.rng
    path, extra = _machine_file(ctx)
    n = ctx.unique("tape", lambda: rng.randrange(5, 200))
    k = 2 + extra  # tape symbols; then states q0 q1, end markers, halt marker
    q0, lend, rend, halt = chr(97 + k), chr(99 + k), chr(100 + k), chr(101 + k)

    def check(result):
        lines = result[1].splitlines()
        # one rule per neighbour and one for the right end for each of the
        # two right moves, a halt rule per missing transition, 2k erasures
        n_rules = 2 * (k + 1) + (2 * k - 2) + 2 * k
        return (_ok(result) and lines[0] == f"# halt-word: {lend}{halt}{rend}"
                and lines[1] == f"# start-word: {lend}{q0}{'b' * n}{rend}"
                and lines[3] == "kind: semithue"
                and sum(line.startswith("rule: ") for line in lines) == n_rules)
    return ["tm-encode", "--machine", path, "--input", "b" * n], check


def _malformed(ctx, i):
    rng = ctx.rng
    bad = "".join(rng.choice("abAB") for _ in range(rng.randrange(3, 30)))
    if i == 0:
        argv = ["dehn-solve", "--preset", "surface", "--genus", "2", bad + "#" + bad]
    elif i == 1:
        argv = ["cayley", "--presentation", ctx.file(f"gens: a c\nrel: {bad}\n")]
    elif i == 2:
        argv = ["rewrite", "--sys", ctx.file(f"alpha: a b\nkind: thue\nrules: {bad}\n"), "ab"]
    elif i == 3:
        argv = ["tree-equiv", "--rules", ctx.file(f"rule: ((?x ?y) ?z) => (?x ?{bad})\n"),
                "--from", "(A B)", "--to", "(B A)"]
    elif i == 4:
        argv = ["tm-run", "--machine", ctx.file(
            f"states: 1\nsymbols: a b\ntrans: q0 a -> q0 b X{bad}\n")]
    else:
        argv = ["seq", "--kind", "tm", "--n", str(-rng.randrange(1, 1000))]
    return argv, _error_check


def _error_check(result):
    code, out, err = result
    lines = err.splitlines()
    return code == 1 and out == "" and len(lines) == 1 and lines[0].startswith(ERROR_PREFIX)


FAULT_MACHINE = "states: 1\nsymbols: a b\ntrans: q0 ab -> q0 b R\n"
DEEP_TERM = "(A " * 3000 + "B" + ")" * 3000


def _fault(ctx, i):
    """Inputs that should end as one error line; today an exception
    escapes main: ZeroDivisionError, TypeError, RecursionError."""
    if i == 0:
        argv = ["small-cancel", "--preset", "surface", "--genus", "2", "--bound", "1/0"]
    elif i == 1:
        path = ctx.work / "fault-machine.txt"
        path.write_text(FAULT_MACHINE)
        argv = ["tm-run", "--machine", str(path)]
    else:
        path = ctx.work / "fault-rules.txt"
        path.write_text("rule: ((?x ?y) ?z) => (?x (?y ?z))\n")
        argv = ["tree-equiv", "--rules", str(path), "--from", DEEP_TERM, "--to", "(A B)"]
    return argv, _error_check


MAKERS = {
    "dehn-solve": _dehn_solve, "cayley": _cayley, "tree-equiv": _tree_equiv,
    "equiv": _equiv, "rewrite": _rewrite, "small-cancel": _small_cancel, "seq": _seq,
    "catalog": _catalog, "reduce": _reduce, "tm-run": _tm_run, "tm-encode": _tm_encode,
    "malformed": _malformed, "fault": _fault,
}
