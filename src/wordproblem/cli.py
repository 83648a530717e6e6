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
import functools
import inspect
import sys
from fractions import Fraction

from . import cayley, dehn, presentations, reductions, rewriting, sequences, terms
from .search import DerivationTrace, SearchStatus, replay
from .words import (LETTERS, code_text, cyclic_reduce, format_plain, format_word,
                    free_reduce_code, parse_plain, parse_word, text_code)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


# Human wordings of the row keys that do not read 'key: field ...'.
_HUMAN = {
    "step": "step: relator {} at {} replacing {}".format,
    "ratio": "max piece ratio: {}".format,
    "smallcancel": "C'({}): {}".format,
    "stats": "stats: expanded={} frontier-peak={} depth={}".format,
    "powerfree": lambda k, verdict, *block: f"power-free k={k}: {verdict}" + (
        " (block of length {1} at {0})".format(*block) if block else ""),
}


def _show(args, key: str, *fields):
    """One output row: 'key field ...' in the lines format; in the human
    one 'key: field ...', or the key's wording in _HUMAN."""
    if args.format == "lines":
        print(key, *fields)
    elif key in _HUMAN:
        print(_HUMAN[key](*fields))
    else:
        print(f"{key}:", *fields)


def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _source(args, named, parse):
    """The object --preset names, or the one parsed from the file option."""
    if args.file:
        return parse(_read(args.file))
    return named(args.preset)


def _catalog_entry(args, name: str) -> presentations.Presentation:
    params = {}
    for _, param in presentations.CATALOG.values():
        value = getattr(args, param) if param else None
        if value is not None:
            params[param] = value
    return presentations.catalog(name, **params)


def _group_presentation(args) -> presentations.GroupPresentation:
    named = functools.partial(_catalog_entry, args)
    p = _source(args, named, presentations.parse_presentation)
    if not isinstance(p, presentations.GroupPresentation):
        raise ValueError("this command needs a group presentation")
    return p


def _add_source(sub, names, file_flag: str):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=tuple(names))
    group.add_argument(file_flag, dest="file", metavar="FILE")


def _int_tuple(text: str) -> tuple:
    try:
        return tuple(int(e) for e in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid comma list of ints: {text!r}") from None


def _add_catalog_params(sub):
    """One option per catalog parameter, typed like the builder's default:
    an int, or a tuple given as a comma list."""
    for name, (build, param) in presentations.CATALOG.items():
        if param is None:
            continue
        if isinstance(inspect.signature(build).parameters[param].default, tuple):
            sub.add_argument(f"--{param}", type=_int_tuple, help=f"comma list for the {name} preset")
        else:
            sub.add_argument(f"--{param}", type=int, help=f"parameter for the {name} preset")


def _add_presentation_args(sub):
    _add_source(sub, presentations.CATALOG, "--presentation")
    _add_catalog_params(sub)


def cmd_reduce(args) -> int:
    # the reduced row goes text -> codes -> text and builds no letters
    _show(args, "reduced", code_text(free_reduce_code(text_code(args.word))))
    if args.cyclic:
        core, conj = cyclic_reduce(parse_word(args.word))
        _show(args, "core", format_word(core))
        _show(args, "conjugator", format_word(conj))
    return EXIT_OK


def cmd_dehn_solve(args) -> int:
    p = _group_presentation(args)
    w = parse_word(args.word, p.n_gens)
    outcome = dehn.dehn_solve(w, p)
    _show(args, "verdict", outcome.verdict.value)
    for step in outcome.trace:
        _show(args, "step", step.relator, step.pos, step.replaced)
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
    _show(args, "ratio", ratio)
    _show(args, "smallcancel", lam, verdict)
    return EXIT_OK


def _print_string_trace(sys_, trace: DerivationTrace):
    for (idx, pos), w in replay(trace, lambda w, step: rewriting.apply_rule(w, sys_, *step)):
        print(f"step {idx} @{pos} => {format_plain(w)}")


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
    _show(args, "stats", s.expanded, s.frontier_peak, s.depth)
    return EXIT_UNDECIDED if outcome.status is SearchStatus.BUDGET_EXHAUSTED else EXIT_OK


def cmd_rewrite(args) -> int:
    sys_ = rewriting.parse_system(_read(args.sys))
    trace = rewriting.rewrite_bounded(parse_plain(args.word), sys_, args.max_steps)
    _print_string_trace(sys_, trace)
    _show(args, "final", format_plain(trace.end))
    return EXIT_OK


def cmd_equiv(args) -> int:
    sys_ = rewriting.parse_system(_read(args.sys))
    w1 = parse_plain(getattr(args, "from"))
    outcome = rewriting.search_equivalence(w1, parse_plain(args.to), sys_, args.budget)
    return _search_result(args, outcome, lambda trace: _print_string_trace(sys_, trace))


def cmd_tree_equiv(args) -> int:
    rules = terms.parse_tree_rules(_read(args.rules))
    a = terms.parse_term(getattr(args, "from"))
    b = terms.parse_term(args.to)
    outcome = terms.search_tree_equivalence(a, b, rules, args.budget)
    return _search_result(args, outcome, lambda trace: _print_tree_trace(rules, trace))


# the word is built and checked in memory, a few bytes per letter
_SEQ_MAX_LETTERS = 2 ** 24


def cmd_seq(args) -> int:
    if args.n > _SEQ_MAX_LETTERS:
        raise ValueError(f"--n takes at most {_SEQ_MAX_LETTERS} letters, got {args.n}")
    if args.kind == "tm":
        word = sequences.thue_morse_prefix(args.n)
    else:
        word = sequences.square_free_ternary_prefix(args.n)
    # checked before the word is printed, so an invalid power prints nothing
    check = None if args.check is None else sequences.is_power_free(word, args.check)
    _show(args, "word", word)
    if check is not None:
        ok, witness = check
        _show(args, "powerfree", args.check, "true" if ok else "false", *(witness or ()))
    return EXIT_OK


# estimate_delta holds about n^3 distances, so its memory grows with the
# cube of the coset count
_DELTA_MAX_COSETS = 256


def cmd_cayley(args) -> int:
    p = _group_presentation(args)
    w = None if args.word is None else parse_word(args.word, p.n_gens)
    table = cayley.todd_coxeter(p, args.max_cosets)
    complete = table.status is cayley.TableStatus.COMPLETE
    if args.delta and complete and table.n_cosets > _DELTA_MAX_COSETS:
        raise ValueError(f"--delta takes at most {_DELTA_MAX_COSETS} cosets, "
                         f"the table has {table.n_cosets}")
    _show(args, "status", table.status.value)
    _show(args, "cosets", table.n_cosets)
    if not complete:
        return EXIT_UNDECIDED
    graph = cayley.to_cayley_graph(table)
    if w is not None:
        answer = "trivial" if cayley.word_problem_finite(w, graph) else "nontrivial"
        _show(args, f"word {args.word}", answer)
    if args.delta:
        _show(args, "delta", cayley.estimate_delta(graph))
    if args.tgf:
        print(cayley.to_tgf(graph), end="")
    return EXIT_OK


def cmd_tm_run(args) -> int:
    m = _source(args, reductions.tm_catalog, reductions.parse_machine)
    tape = reductions.parse_tape(args.input, m)
    result = reductions.tm_run(m, tape, args.max_steps)
    _show(args, "status", "halted" if result.halted else "running")
    _show(args, "steps", result.steps)
    visible = reductions.format_tape(result.config.tape()).strip(LETTERS[reductions.BLANK])
    _show(args, "tape", format_plain(visible))
    return EXIT_OK if result.halted else EXIT_UNDECIDED


def cmd_tm_encode(args) -> int:
    m = _source(args, reductions.tm_catalog, reductions.parse_machine)
    tape = None if args.input is None else reductions.parse_tape(args.input, m)
    enc = reductions.encode(m)
    print(f"# halt-word: {enc.halt_word}")
    if tape is not None:
        print(f"# start-word: {enc.start_word(tape)}")
    print(rewriting.format_system(enc.system), end="")
    return EXIT_OK


def cmd_catalog(args) -> int:
    p = _catalog_entry(args, args.name)
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
    _add_source(sub, reductions.TM_CATALOG, "--machine")
    sub.add_argument("--input", default="1")
    sub.add_argument("--max-steps", type=int, default=1000)

    sub = add("tm-encode", cmd_tm_encode, help="emit the rewriting system of a machine")
    _add_source(sub, reductions.TM_CATALOG, "--machine")
    sub.add_argument("--input", help="also print the start word for this tape")

    sub = add("catalog", cmd_catalog, help="print a named presentation")
    sub.add_argument("name")
    _add_catalog_params(sub)
    sub.add_argument(
        "--rewrite", action="store_true", help="emit a semigroup as a rewrite system"
    )

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use; importing the module builds none."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_ERROR
        return code
    except (ValueError, OSError) as exc:
        message = exc
    except RecursionError:
        message = "input nested too deeply"
    except MemoryError:
        message = "out of memory"
    print(f"wordproblem: error: {message}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
