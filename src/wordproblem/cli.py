"""Command-line front end.

Every subcommand reads and writes the plain-text formats defined by the
library modules and emits deterministic output, so identical invocations
are byte-identical.  Exit codes: 0 when a question was decided or a
construction completed, 2 when a budget ran out before a decision
(search budgets, coset budgets, step limits, inconclusive solver runs),
1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import cayley, dehn, presentations, reductions, rewriting, sequences, terms
from .search import DerivationTrace, SearchStatus, replay
from .words import LETTERS, cyclic_reduce, format_word, free_reduce, parse_word

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _emit(args, human: str, machine: str):
    print(machine if args.format == "lines" else human)


def _show(args, key: str, value):
    """One 'key: value' line, or 'key value' in the lines format."""
    _emit(args, f"{key}: {value}", f"{key} {value}")


def _word_arg(text: str) -> str:
    """A string-rewriting word from the command line; '1' is the empty word."""
    return "" if text == "1" else text


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _group_presentation(args) -> presentations.GroupPresentation:
    if args.presentation:
        p = presentations.parse_presentation(_read(args.presentation))
    else:
        p = _catalog_entry(args.preset, args)
    if not isinstance(p, presentations.GroupPresentation):
        raise ValueError("this command needs a group presentation")
    return p


def _catalog_entry(name: str, args):
    params = {}
    if args.genus is not None:
        params["genus"] = args.genus
    if args.rank is not None:
        params["rank"] = args.rank
    if args.exponents is not None:
        params["exponents"] = tuple(int(e) for e in args.exponents.split(","))
    return presentations.catalog(name, **params)


def _add_source(sub, names, file_flag: str):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=names)
    group.add_argument(file_flag, metavar="FILE")


def _add_catalog_params(sub):
    sub.add_argument("--genus", type=int, help="parameter for the surface preset")
    sub.add_argument("--rank", type=int, help="parameter for the free_abelian preset")
    sub.add_argument("--exponents", help="comma list for the higman_truncated preset")


def _add_presentation_args(sub):
    _add_source(sub, presentations.CATALOG_NAMES, "--presentation")
    _add_catalog_params(sub)


def _machine(args) -> reductions.TuringMachine:
    if args.machine:
        return reductions.parse_machine(_read(args.machine))
    return reductions.tm_catalog(args.preset)


def cmd_reduce(args) -> int:
    w = parse_word(args.word)
    _show(args, "reduced", format_word(free_reduce(w)))
    if args.cyclic:
        core, conj = cyclic_reduce(w)
        _show(args, "core", format_word(core))
        _show(args, "conjugator", format_word(conj))
    return EXIT_OK


def cmd_dehn_solve(args) -> int:
    p = _group_presentation(args)
    w = parse_word(args.word, p.n_gens)
    outcome = dehn.dehn_solve(w, p)
    _show(args, "verdict", outcome.verdict.value)
    for step in outcome.trace:
        _emit(
            args,
            f"step: relator {step.relator} at {step.pos} replacing {step.replaced}",
            f"step {step.relator} {step.pos} {step.replaced}",
        )
    _show(args, "final", format_word(outcome.final_word))
    return EXIT_UNDECIDED if outcome.verdict is dehn.Verdict.INCONCLUSIVE else EXIT_OK


def cmd_small_cancel(args) -> int:
    try:
        lam = Fraction(args.bound)
    except ZeroDivisionError:
        raise ValueError(f"bound {args.bound!r} has a zero denominator") from None
    p = _group_presentation(args)
    if not p.relators:
        raise ValueError("presentation has no relators")
    ratio = presentations.max_piece_ratio(presentations.symmetrize(p))
    verdict = "holds" if ratio < lam else "fails"
    _emit(args, f"max piece ratio: {ratio}", f"ratio {ratio}")
    _emit(args, f"C'({lam}): {verdict}", f"smallcancel {lam} {verdict}")
    return EXIT_OK


def _print_string_trace(sys_, trace: DerivationTrace):
    for (idx, pos), w in replay(trace, lambda w, step: rewriting.apply_rule(w, sys_, *step)):
        print(f"step {idx} @{pos} => {w or '1'}")


def _print_tree_trace(rules, trace: DerivationTrace):
    for step, t in replay(trace, lambda t, step: terms.apply_tree_step(t, rules, step)):
        where = step.path or "-"
        print(f"step {step.rule} {step.direction} @{where} => {terms.format_term(t)}")


def _search_result(args, outcome, print_trace) -> int:
    """Status line, the trace of a proven answer, the stats line, and the
    exit code of an equivalence search."""
    _show(args, "status", outcome.status.value)
    if outcome.trace is not None:
        print_trace(outcome.trace)
    s = outcome.stats
    _emit(
        args,
        f"stats: expanded={s.expanded} frontier-peak={s.frontier_peak} depth={s.depth}",
        f"stats {s.expanded} {s.frontier_peak} {s.depth}",
    )
    return EXIT_UNDECIDED if outcome.status is SearchStatus.BUDGET_EXHAUSTED else EXIT_OK


def cmd_rewrite(args) -> int:
    sys_ = rewriting.parse_system(_read(args.sys))
    trace = rewriting.rewrite_bounded(_word_arg(args.word), sys_, args.max_steps)
    _print_string_trace(sys_, trace)
    _show(args, "final", trace.end or "1")
    return EXIT_OK


def cmd_equiv(args) -> int:
    sys_ = rewriting.parse_system(_read(args.sys))
    w1 = _word_arg(getattr(args, "from"))
    outcome = rewriting.search_equivalence(w1, _word_arg(args.to), sys_, args.budget)
    return _search_result(args, outcome, lambda trace: _print_string_trace(sys_, trace))


def cmd_tree_equiv(args) -> int:
    rules = terms.parse_tree_rules(_read(args.rules))
    a = terms.parse_term(getattr(args, "from"))
    b = terms.parse_term(args.to)
    outcome = terms.search_tree_equivalence(a, b, rules, args.budget)
    return _search_result(args, outcome, lambda trace: _print_tree_trace(rules, trace))


def cmd_seq(args) -> int:
    if args.kind == "tm":
        word = sequences.thue_morse_prefix(args.n)
    else:
        word = sequences.square_free_ternary_prefix(args.n)
    _show(args, "word", word)
    if args.check is not None:
        ok, witness = sequences.is_power_free(word, args.check)
        if ok:
            _emit(
                args,
                f"power-free k={args.check}: true",
                f"powerfree {args.check} true",
            )
        else:
            pos, length = witness
            _emit(
                args,
                f"power-free k={args.check}: false (block of length {length} at {pos})",
                f"powerfree {args.check} false {pos} {length}",
            )
    return EXIT_OK


def cmd_cayley(args) -> int:
    p = _group_presentation(args)
    table = cayley.todd_coxeter(p, args.max_cosets)
    _show(args, "status", table.status.value)
    _show(args, "cosets", table.n_cosets)
    if table.status is not cayley.TableStatus.COMPLETE:
        return EXIT_UNDECIDED
    graph = cayley.to_cayley_graph(table)
    if args.word is not None:
        w = parse_word(args.word, p.n_gens)
        answer = "trivial" if cayley.word_problem_finite(w, graph) else "nontrivial"
        _show(args, f"word {args.word}", answer)
    if args.delta:
        _show(args, "delta", cayley.estimate_delta(graph))
    if args.tgf:
        print(cayley.to_tgf(graph), end="")
    return EXIT_OK


def cmd_tm_run(args) -> int:
    m = _machine(args)
    tape = reductions.parse_tape(args.input, m)
    result = reductions.tm_run(m, tape, args.max_steps)
    _show(args, "status", "halted" if result.halted else "running")
    _show(args, "steps", result.steps)
    visible = reductions.format_tape(result.config.tape()).strip(LETTERS[reductions.BLANK])
    _show(args, "tape", visible or "1")
    return EXIT_OK if result.halted else EXIT_UNDECIDED


def cmd_tm_encode(args) -> int:
    m = _machine(args)
    enc = reductions.encode(m)
    print(f"# halt-word: {enc.halt_word}")
    if args.input is not None:
        tape = reductions.parse_tape(args.input, m)
        print(f"# start-word: {enc.start_word(tape)}")
    print(rewriting.format_system(enc.system), end="")
    return EXIT_OK


def cmd_catalog(args) -> int:
    p = _catalog_entry(args.name, args)
    if args.rewrite:
        if not isinstance(p, presentations.SemigroupPresentation):
            raise ValueError("--rewrite only applies to semigroup presentations")
        print(rewriting.format_system(rewriting.from_semigroup(p)), end="")
    else:
        print(presentations.format_presentation(p), end="")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="wordproblem")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        sub = subs.add_parser(name, **kwargs)
        sub.add_argument("--format", choices=("human", "lines"), default="human")
        sub.set_defaults(func=func)
        return sub

    sub = add("reduce", cmd_reduce, help="freely reduce a group word")
    sub.add_argument("word")
    sub.add_argument("--cyclic", action="store_true", help="also cyclically reduce")

    sub = add("dehn-solve", cmd_dehn_solve, help="run the length-reducing solver")
    _add_presentation_args(sub)
    sub.add_argument("word")

    sub = add("small-cancel", cmd_small_cancel, help="max piece ratio and C'(λ) check")
    _add_presentation_args(sub)
    sub.add_argument("--bound", default="1/6", help="λ as a fraction (default 1/6)")

    sub = add("rewrite", cmd_rewrite, help="apply rewrite steps deterministically")
    sub.add_argument("--sys", required=True, metavar="FILE")
    sub.add_argument("--max-steps", type=int, default=100)
    sub.add_argument("word")

    sub = add("equiv", cmd_equiv, help="bounded equivalence search for words")
    sub.add_argument("--sys", required=True, metavar="FILE")
    sub.add_argument("--from", required=True)
    sub.add_argument("--to", required=True)
    sub.add_argument("--budget", type=int, default=10000)

    sub = add("tree-equiv", cmd_tree_equiv, help="bounded equivalence search for trees")
    sub.add_argument("--rules", required=True, metavar="FILE")
    sub.add_argument("--from", required=True)
    sub.add_argument("--to", required=True)
    sub.add_argument("--budget", type=int, default=10000)

    sub = add("seq", cmd_seq, help="repetition-free sequences")
    sub.add_argument("--kind", choices=("tm", "sf3"), required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--check", type=int, help="verify k-power-freeness")

    sub = add("cayley", cmd_cayley, help="coset enumeration and Cayley graph")
    _add_presentation_args(sub)
    sub.add_argument("--max-cosets", type=int, default=1000)
    sub.add_argument("--word", help="answer the word problem on the graph")
    sub.add_argument("--delta", action="store_true", help="triangle thinness estimate")
    sub.add_argument("--tgf", action="store_true", help="print the graph in TGF")

    sub = add("tm-run", cmd_tm_run, help="simulate a Turing machine")
    _add_source(sub, reductions.TM_CATALOG_NAMES, "--machine")
    sub.add_argument("--input", default="1")
    sub.add_argument("--max-steps", type=int, default=1000)

    sub = add("tm-encode", cmd_tm_encode, help="emit the rewriting system of a machine")
    _add_source(sub, reductions.TM_CATALOG_NAMES, "--machine")
    sub.add_argument("--input", help="also print the start word for this tape")

    sub = add("catalog", cmd_catalog, help="print a named presentation")
    sub.add_argument("name")
    _add_catalog_params(sub)
    sub.add_argument(
        "--rewrite", action="store_true", help="emit a semigroup as a rewrite system"
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_ERROR
        return code
    except (ValueError, OSError) as exc:
        print(f"wordproblem: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("wordproblem: error: input nested too deeply", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
