import argparse
import contextlib
import io
import random
import subprocess
import sys

import pytest

from wordproblem import cli, sequences
from wordproblem.cli import main
from wordproblem.presentations import CATALOG
from wordproblem.reductions import TM_CATALOG
from wordproblem.words import LETTERS, cyclic_reduce, format_word, free_reduce, parse_word

CLI = [sys.executable, "-m", "wordproblem.cli"]


def run(*args, files=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def ceijtin_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("systems") / "ceijtin.txt"
    result = run("catalog", "ceijtin", "--rewrite")
    assert result.returncode == 0
    path.write_text(result.stdout)
    return str(path)


class TestSubcommands:
    def test_reduce(self):
        result = run("reduce", "abBA")
        assert result.returncode == 0
        assert result.stdout == "reduced: 1\n"

    def test_reduce_cyclic(self):
        result = run("reduce", "abA", "--cyclic", "--format", "lines")
        assert result.stdout == "reduced abA\ncore b\nconjugator a\n"

    def test_seq_prints_the_32_letter_word(self):
        result = run("seq", "--kind", "tm", "--n", "32")
        assert result.returncode == 0
        assert result.stdout == "word: 01101001100101101001011001101001\n"

    def test_seq_check(self):
        result = run("seq", "--kind", "sf3", "--n", "100", "--check", "2", "--format", "lines")
        assert result.returncode == 0
        assert result.stdout.endswith("powerfree 2 true\n")

    def test_catalog_dihedral5(self):
        result = run("catalog", "dihedral5")
        assert result.returncode == 0
        assert result.stdout == "gens: a b\nrel: aaaaa\nrel: bb\nrel: baba\n"

    def test_catalog_surface_genus(self):
        result = run("catalog", "surface", "--genus", "3")
        assert "rel: abABcdCDefEF\n" in result.stdout

    def test_equiv_proven(self, ceijtin_file):
        result = run(
            "equiv", "--sys", ceijtin_file, "--from", "caaa", "--to", "aaa", "--budget", "10"
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "status: proven"
        assert "step 7 @0 => aaa" in result.stdout

    def test_equiv_budget_exhausted_exit_code(self, ceijtin_file):
        result = run(
            "equiv", "--sys", ceijtin_file, "--from", "aaa", "--to", "aaaa", "--budget", "50"
        )
        assert result.returncode == 2
        assert result.stdout.splitlines()[0] == "status: budget-exhausted"

    def test_equiv_refuted_is_decided(self, ceijtin_file):
        result = run(
            "equiv", "--sys", ceijtin_file, "--from", "aaa", "--to", "b", "--budget", "1000"
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "status: refuted-exhausted"

    def test_rewrite(self, ceijtin_file):
        result = run("rewrite", "--sys", ceijtin_file, "caaa", "--max-steps", "1")
        assert result.returncode == 0
        assert result.stdout == "step 7 @0 => aaa\nfinal: aaa\n"

    def test_dehn_solve_trivial(self):
        result = run("dehn-solve", "--preset", "surface", "--genus", "2", "abABcdCD")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "verdict: trivial"
        assert lines[-1] == "final: 1"

    def test_dehn_solve_inconclusive_exit_code(self):
        result = run("dehn-solve", "--preset", "torus", "aabbAABB")
        assert result.returncode == 2
        assert result.stdout.splitlines()[0] == "verdict: inconclusive"

    def test_small_cancel(self):
        result = run("small-cancel", "--preset", "surface", "--genus", "2", "--format", "lines")
        assert result.returncode == 0
        assert result.stdout == "ratio 1/8\nsmallcancel 1/6 holds\n"
        result = run("small-cancel", "--preset", "torus")
        assert "C'(1/6): fails" in result.stdout

    def test_cayley(self):
        result = run("cayley", "--preset", "dihedral5", "--max-cosets", "64", "--word", "aaaaa")
        assert result.returncode == 0
        assert result.stdout == "status: complete\ncosets: 10\nword aaaaa: trivial\n"

    def test_cayley_budget_exit_code(self):
        result = run("cayley", "--preset", "torus", "--max-cosets", "100")
        assert result.returncode == 2

    def test_cayley_tgf(self):
        result = run("cayley", "--preset", "dihedral5", "--max-cosets", "64", "--tgf")
        assert result.returncode == 0
        assert "#" in result.stdout

    def test_tm_run(self):
        result = run("tm-run", "--preset", "unary_appender", "--input", "bb")
        assert result.returncode == 0
        assert result.stdout == "status: halted\nsteps: 3\ntape: bbb\n"

    def test_tm_run_running_exit_code(self):
        result = run("tm-run", "--preset", "loop_right", "--max-steps", "50")
        assert result.returncode == 2

    def test_tm_encode_pipes_into_equiv(self, tmp_path):
        encoded = run("tm-encode", "--preset", "unary_appender", "--input", "bb")
        assert encoded.returncode == 0
        halt = start = None
        for line in encoded.stdout.splitlines():
            if line.startswith("# halt-word:"):
                halt = line.split()[-1]
            if line.startswith("# start-word:"):
                start = line.split()[-1]
        path = tmp_path / "machine.txt"
        path.write_text(encoded.stdout)
        result = run(
            "equiv", "--sys", str(path), "--from", start, "--to", halt, "--budget", "10000"
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "status: proven"

    def test_tree_equiv(self, tmp_path):
        rules = tmp_path / "assoc.txt"
        rules.write_text("rule: ((?x ?y) ?z) => (?x (?y ?z))\n")
        result = run(
            "tree-equiv", "--rules", str(rules), "--from", "((A B) C)", "--to", "(A (B C))",
            "--budget", "10",
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "status: proven"
        assert lines[1] == "step 0 fwd @- => (A (B C))"


class TestErrors:
    def test_unknown_subcommand(self):
        result = run("frobnicate")
        assert result.returncode == 1

    def test_bad_word(self):
        result = run("reduce", "a_b")
        assert result.returncode == 1
        assert "error" in result.stderr

    def test_missing_file(self):
        result = run("equiv", "--sys", "/nonexistent.txt", "--from", "a", "--to", "b")
        assert result.returncode == 1

    def test_unknown_catalog_name(self):
        result = run("catalog", "nonsense")
        assert result.returncode == 1

    @staticmethod
    def assert_one_error_line(result):
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("wordproblem: error: "), result.stderr

    def test_zero_denominator_bound(self):
        result = run("small-cancel", "--preset", "surface", "--genus", "2", "--bound", "1/0")
        self.assert_one_error_line(result)

    def test_two_letter_machine_symbol(self, tmp_path):
        path = tmp_path / "machine.txt"
        path.write_text("states: 1\nsymbols: a b\ntrans: q0 ab -> q0 b R\n")
        self.assert_one_error_line(run("tm-run", "--machine", str(path)))

    def test_deeply_nested_term(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("rule: ((?x ?y) ?z) => (?x (?y ?z))\n")
        deep = "(A " * 3000 + "B" + ")" * 3000
        result = run("tree-equiv", "--rules", str(path), "--from", deep, "--to", "(A B)")
        self.assert_one_error_line(result)

    def test_catalog_parameter_the_entry_does_not_take(self):
        self.assert_one_error_line(run("catalog", "surface", "--rank", "3"))
        self.assert_one_error_line(run("catalog", "torus", "--genus", "3"))

    def test_preset_parameter_the_entry_does_not_take(self):
        result = run("dehn-solve", "--preset", "free_abelian", "--genus", "3", "ab")
        self.assert_one_error_line(result)

    def test_27th_generator(self, tmp_path):
        path = tmp_path / "pres.txt"
        path.write_text("gens: " + " ".join("abcdefghijklmnopqrstuvwxyz{") + "\nrel: ab\n")
        self.assert_one_error_line(run("dehn-solve", "--presentation", str(path), "ab"))

    def test_27th_machine_symbol(self, tmp_path):
        path = tmp_path / "machine.txt"
        path.write_text("states: 1\nsymbols: " + " ".join("abcdefghijklmnopqrstuvwxyz{") + "\n")
        self.assert_one_error_line(run("tm-run", "--machine", str(path), "--input", "{{"))

    @pytest.mark.parametrize("argv", [
        ("cayley", "--preset", "dihedral5", "--word", "z"),
        ("cayley", "--preset", "dihedral5", "--max-cosets", "3", "--word", "z"),
        ("seq", "--kind", "sf3", "--n", "10", "--check", "0"),
        ("tm-encode", "--preset", "loop_right", "--input", "c"),
    ])
    def test_argument_checked_before_any_output(self, argv):
        self.assert_one_error_line(run(*argv))

    def test_negative_step_limit(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text("alpha: a b\nkind: semithue\nrule: ab -> b\n")
        result = run("rewrite", "--sys", str(path), "ab", "--max-steps", "-1")
        self.assert_one_error_line(result)
        assert result.stderr == "wordproblem: error: max_steps must be >= 0\n"

    def test_relator_error_names_its_line(self, tmp_path):
        path = tmp_path / "pres.txt"
        path.write_text("gens: a b\nrel: abc\n")
        result = run("dehn-solve", "--presentation", str(path), "ab")
        self.assert_one_error_line(result)
        assert result.stderr == (
            "wordproblem: error: line 2: letter 'c' out of range for 2 generators\n"
        )

    @pytest.mark.parametrize("argv, text, message", [
        (("dehn-solve", "--presentation", "{}", "ab"), "gens: a b c\nrel: abc\ngens: a\n",
         "line 3: repeated 'gens:'"),
        (("tm-run", "--machine", "{}", "--input", "a"),
         "states: 3\nsymbols: a b\ntrans: q2 a -> q0 b R\nstates: 1\n",
         "line 4: repeated 'states:'"),
        (("small-cancel", "--presentation", "{}"), "gens: a b\n",
         "presentation has no relators"),
        (("tm-run", "--machine", "{}", "--input", "a"),
         "states: 1\nsymbols: a b\ntrans: q0 a -> q0 b R\ntrans: q0 a -> q0 a L\n",
         "line 4: duplicate transition for q0,a"),
        (("small-cancel", "--presentation", "{}"), "gens: a b\neq: ab\n",
         "line 2: expected 'eq: g = h'"),
    ])
    def test_repeated_declaration_names_its_line(self, tmp_path, capsys, argv, text, message):
        path = tmp_path / "input.txt"
        path.write_text(text)
        assert main([arg.format(path) for arg in argv]) == 1
        assert capsys.readouterr() == ("", f"wordproblem: error: {message}\n")

    def test_tree_rule_error_names_its_line(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("# broken\nrule: (A B C) => A\n")
        result = run("tree-equiv", "--rules", str(path), "--from", "A", "--to", "B")
        self.assert_one_error_line(result)
        assert result.stderr == (
            "wordproblem: error: line 2: a node must have exactly two children\n"
        )

    def test_string_rule_error_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "sys.txt"
        path.write_text("alpha: a b\nkind: semithue\nrule: ax -> b\n")
        assert main(["equiv", "--sys", str(path), "--from", "ab", "--to", "b"]) == 1
        assert capsys.readouterr() == (
            "", "wordproblem: error: line 3: letter 'x' outside alphabet of size 2\n")

    def test_exponents_not_a_comma_list_of_ints(self, capsys):
        assert main(["catalog", "higman_truncated", "--exponents", "1,x"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: wordproblem catalog ")
        assert err.splitlines()[-1] == ("wordproblem catalog: error: argument --exponents: "
                                        "invalid comma list of ints: '1,x'")

    def test_out_of_memory(self, monkeypatch, capsys):
        def exhausted(n):
            raise MemoryError

        monkeypatch.setattr(sequences, "thue_morse_prefix", exhausted)
        assert main(["seq", "--kind", "tm", "--n", "10"]) == 1
        assert capsys.readouterr() == ("", "wordproblem: error: out of memory\n")

    @pytest.mark.parametrize("kind, builder", [
        ("tm", "thue_morse_prefix"), ("sf3", "square_free_ternary_prefix"),
    ])
    def test_seq_refuses_more_than_2_to_the_24_letters(self, monkeypatch, capsys, kind, builder):
        def unreachable(n):
            raise AssertionError(f"built a word of {n} letters")

        monkeypatch.setattr(sequences, builder, unreachable)
        assert main(["seq", "--kind", kind, "--n", str(10 ** 12)]) == 1
        assert capsys.readouterr() == ("", "wordproblem: error: --n takes at most 16777216 "
                                           "letters, got 1000000000000\n")
        monkeypatch.setattr(sequences, builder, lambda n: "01")
        assert main(["seq", "--kind", kind, "--n", str(2 ** 24)]) == 0
        assert capsys.readouterr() == ("word: 01\n", "")

    @staticmethod
    def dihedral(tmp_path, n):
        path = tmp_path / f"d{n}.txt"
        path.write_text(f"gens: a b\nrel: {'a' * n}\nrel: bb\nrel: abab\n")
        return str(path)

    def test_delta_refuses_more_than_256_cosets(self, tmp_path, capsys):
        argv = ["cayley", "--presentation", self.dihedral(tmp_path, 129), "--delta"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "wordproblem: error: --delta takes at most 256 "
                                           "cosets, the table has 258\n")
        assert main(argv[:-1]) == 0
        assert capsys.readouterr().out == "status: complete\ncosets: 258\n"

    def test_delta_allows_256_cosets(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.cayley, "estimate_delta", lambda graph: len(graph.neighbors))
        argv = ["cayley", "--presentation", self.dihedral(tmp_path, 128), "--delta"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("status: complete\ncosets: 256\ndelta: ")


class TestParser:
    def test_preset_choices_are_the_catalog_tables(self):
        subs = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        found = {}
        for command, sub in subs.choices.items():
            for action in sub._actions:
                if "--preset" in action.option_strings:
                    found[command] = list(action.choices)
        presentation = list(CATALOG)
        machine = list(TM_CATALOG)
        assert found == {"dehn-solve": presentation, "small-cancel": presentation,
                         "cayley": presentation, "tm-run": machine, "tm-encode": machine}

    def test_two_calls_build_the_parser_once(self, monkeypatch, capsys):
        builds = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
        cli._parser.cache_clear()
        try:
            assert main(["reduce", "abA"]) == main(["reduce", "aB"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1
        assert capsys.readouterr().out == "reduced: abA\nreduced: aB\n"


class TestReduceOnCodes:
    """reduce runs on code strings; its output must be byte for byte that
    of the route through letter tuples, error lines included."""

    @staticmethod
    def tuple_route(text, fmt, cyclic):
        try:
            w = parse_word(text)
        except ValueError as exc:
            return 1, "", f"wordproblem: error: {exc}\n"
        rows = [("reduced", format_word(free_reduce(w)))]
        if cyclic:
            core, conj = cyclic_reduce(w)
            rows += [("core", format_word(core)), ("conjugator", format_word(conj))]
        sep = ": " if fmt == "human" else " "
        return 0, "".join(f"{key}{sep}{value}\n" for key, value in rows), ""

    def test_byte_identical_to_the_tuple_route(self):
        rng = random.Random(20)
        letters = "".join(c + c.upper() for c in LETTERS)
        for i in range(600):
            n = rng.choice((0, 1, 2, 7, 40, 300))
            # one or three generators, so that much of the word cancels
            alphabet = letters[: rng.choice((2, 6, 52))]
            text = "".join(rng.choice(alphabet) for _ in range(n))
            if i % 5 == 0:
                at = rng.randint(0, len(text))
                text = text[:at] + rng.choice(("0", "3", "_", "\x00", "\x33", "\u00e9", " ")) + text[at:]
            if i % 7 == 0:
                text = rng.choice(("1", "", " 1 ", " ")) if i % 2 else f" {text}\t"
            fmt = rng.choice(("human", "lines"))
            cyclic = ["--cyclic"] if i % 3 == 0 else []
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["reduce", text, "--format", fmt] + cyclic)
            expected = self.tuple_route(text, fmt, bool(cyclic))
            assert (code, out.getvalue(), err.getvalue()) == expected, repr(text)


class TestGoldenDeterminism:
    INVOCATIONS = [
        ("seq", "--kind", "tm", "--n", "64", "--check", "3"),
        ("seq", "--kind", "sf3", "--n", "64", "--check", "2", "--format", "lines"),
        ("catalog", "dihedral5"),
        ("catalog", "ceijtin", "--rewrite"),
        ("catalog", "higman_truncated", "--exponents", "1,2"),
        ("dehn-solve", "--preset", "surface", "--genus", "2", "cabABcdCDC"),
        ("small-cancel", "--preset", "surface", "--genus", "3", "--format", "lines"),
        ("cayley", "--preset", "dihedral5", "--max-cosets", "64", "--tgf"),
        ("tm-run", "--preset", "unary_appender", "--input", "bbb", "--format", "lines"),
        ("tm-encode", "--preset", "unary_appender", "--input", "bb"),
        ("reduce", "abcCBA"),
    ]

    def test_byte_identical_across_runs(self):
        for argv in self.INVOCATIONS:
            first = run(*argv)
            second = run(*argv)
            assert first.stdout == second.stdout, argv
            assert first.returncode == second.returncode, argv

    def test_equiv_byte_identical(self, ceijtin_file):
        argv = ("equiv", "--sys", ceijtin_file, "--from", "cdca", "--to", "cdcae",
                "--budget", "500", "--format", "lines")
        assert run(*argv).stdout == run(*argv).stdout


# Golden table: exact stdout and exit code of the CLI for every
# subcommand, in both output formats.  Any changed byte fails.
SAME = None  # the lines format prints the same text as the human one

CEIJTIN_SYSTEM = ("alpha: a b c d e\n"
                  "kind: thue\n"
                  "rule: ac -> ca\n"
                  "rule: ad -> da\n"
                  "rule: bc -> cb\n"
                  "rule: bd -> db\n"
                  "rule: ce -> eca\n"
                  "rule: de -> edb\n"
                  "rule: cdca -> cdcae\n"
                  "rule: caaa -> aaa\n"
                  "rule: daaa -> aaa\n"
                  "rule: ca -> ac\n"
                  "rule: da -> ad\n"
                  "rule: cb -> bc\n"
                  "rule: db -> bd\n"
                  "rule: eca -> ce\n"
                  "rule: edb -> de\n"
                  "rule: cdcae -> cdca\n"
                  "rule: aaa -> caaa\n"
                  "rule: aaa -> daaa\n")

GOLDEN_FILES = {
    "sys": CEIJTIN_SYSTEM,
    "erase": "alpha: a b\nkind: semithue\nrule: ab -> 1\n",
    "assoc": "rule: ((?x ?y) ?z) => (?x (?y ?z))\n",
    "pres": "# genus-2 surface\ngens: a b c d\nrel: abABcdCD\n",
    "semi": "gens: a b\neq: ab = ba\n",
    "machine": ("states: 2\nsymbols: a b\nstart: q0\n"
                "trans: q0 b -> q0 b R\ntrans: q0 a -> q1 b R\n"),
}

GOLDEN = [
    (("reduce", "abcCBA"), 0,
     "reduced: 1\n",
     "reduced 1\n"),
    (("reduce", "abA", "--cyclic"), 0,
     ("reduced: abA\n"
      "core: b\n"
      "conjugator: a\n"),
     ("reduced abA\n"
      "core b\n"
      "conjugator a\n")),
    (("dehn-solve", "--preset", "surface", "--genus", "2", "cabABcdCDC"), 0,
     ("verdict: trivial\n"
      "step: relator 0 at 1 replacing 8\n"
      "final: 1\n"),
     ("verdict trivial\n"
      "step 0 1 8\n"
      "final 1\n")),
    (("dehn-solve", "--presentation", "{pres}", "abAc"), 0,
     ("verdict: nontrivial-certified\n"
      "final: abAc\n"),
     ("verdict nontrivial-certified\n"
      "final abAc\n")),
    (("dehn-solve", "--preset", "torus", "aabbAABB"), 2,
     ("verdict: inconclusive\n"
      "final: aabbAABB\n"),
     ("verdict inconclusive\n"
      "final aabbAABB\n")),
    (("small-cancel", "--preset", "surface", "--genus", "3"), 0,
     ("max piece ratio: 1/12\n"
      "C'(1/6): holds\n"),
     ("ratio 1/12\n"
      "smallcancel 1/6 holds\n")),
    (("small-cancel", "--preset", "torus", "--bound", "1/4"), 0,
     ("max piece ratio: 1/4\n"
      "C'(1/4): fails\n"),
     ("ratio 1/4\n"
      "smallcancel 1/4 fails\n")),
    (("rewrite", "--sys", "{sys}", "cdcaaa", "--max-steps", "3"), 0,
     ("step 6 @0 => cdcaeaa\n"
      "step 6 @0 => cdcaeeaa\n"
      "step 6 @0 => cdcaeeeaa\n"
      "final: cdcaeeeaa\n"),
     ("step 6 @0 => cdcaeaa\n"
      "step 6 @0 => cdcaeeaa\n"
      "step 6 @0 => cdcaeeeaa\n"
      "final cdcaeeeaa\n")),
    (("rewrite", "--sys", "{erase}", "aabb"), 0,
     ("step 0 @1 => ab\n"
      "step 0 @0 => 1\n"
      "final: 1\n"),
     ("step 0 @1 => ab\n"
      "step 0 @0 => 1\n"
      "final 1\n")),
    (("equiv", "--sys", "{sys}", "--from", "caaa", "--to", "aaa", "--budget", "10"), 0,
     ("status: proven\n"
      "step 7 @0 => aaa\n"
      "stats: expanded=1 frontier-peak=2 depth=0\n"),
     ("status proven\n"
      "step 7 @0 => aaa\n"
      "stats 1 2 0\n")),
    (("equiv", "--sys", "{sys}", "--from", "aaa", "--to", "b", "--budget", "1000"), 0,
     ("status: refuted-exhausted\n"
      "stats: expanded=1 frontier-peak=2 depth=0\n"),
     ("status refuted-exhausted\n"
      "stats 1 2 0\n")),
    (("equiv", "--sys", "{sys}", "--from", "aaa", "--to", "aaaa", "--budget", "50"), 2,
     ("status: budget-exhausted\n"
      "stats: expanded=50 frontier-peak=86 depth=4\n"),
     ("status budget-exhausted\n"
      "stats 50 86 4\n")),
    (("equiv", "--sys", "{erase}", "--from", "aabb", "--to", "1"), 0,
     ("status: proven\n"
      "step 0 @1 => ab\n"
      "step 0 @0 => 1\n"
      "stats: expanded=2 frontier-peak=1 depth=1\n"),
     ("status proven\n"
      "step 0 @1 => ab\n"
      "step 0 @0 => 1\n"
      "stats 2 1 1\n")),
    (("tree-equiv", "--rules", "{assoc}", "--from", "((A B) (C D))", "--to", "(A (B (C D)))"), 0,
     ("status: proven\n"
      "step 0 fwd @- => (A (B (C D)))\n"
      "stats: expanded=1 frontier-peak=2 depth=0\n"),
     ("status proven\n"
      "step 0 fwd @- => (A (B (C D)))\n"
      "stats 1 2 0\n")),
    (("tree-equiv", "--rules", "{assoc}", "--from", "((A B) C)", "--to", "(A (C B))"), 0,
     ("status: refuted-exhausted\n"
      "stats: expanded=2 frontier-peak=2 depth=1\n"),
     ("status refuted-exhausted\n"
      "stats 2 2 1\n")),
    (("tree-equiv", "--rules", "{assoc}", "--from", "(((A B) C) D)", "--to", "(A (B (C E)))", "--budget", "2"), 2,
     ("status: budget-exhausted\n"
      "stats: expanded=2 frontier-peak=4 depth=0\n"),
     ("status budget-exhausted\n"
      "stats 2 4 0\n")),
    (("seq", "--kind", "tm", "--n", "16", "--check", "3"), 0,
     ("word: 0110100110010110\n"
      "power-free k=3: true\n"),
     ("word 0110100110010110\n"
      "powerfree 3 true\n")),
    (("seq", "--kind", "tm", "--n", "16", "--check", "2"), 0,
     ("word: 0110100110010110\n"
      "power-free k=2: false (block of length 1 at 1)\n"),
     ("word 0110100110010110\n"
      "powerfree 2 false 1 1\n")),
    (("seq", "--kind", "sf3", "--n", "24", "--check", "2"), 0,
     ("word: 012021012102012021020121\n"
      "power-free k=2: true\n"),
     ("word 012021012102012021020121\n"
      "powerfree 2 true\n")),
    (("cayley", "--preset", "dihedral5", "--max-cosets", "64", "--word", "aaaaa", "--delta", "--tgf"), 0,
     ("status: complete\n"
      "cosets: 10\n"
      "word aaaaa: trivial\n"
      "delta: 1\n"
      "0 0\n"
      "1 1\n"
      "2 2\n"
      "3 3\n"
      "4 4\n"
      "5 5\n"
      "6 6\n"
      "7 7\n"
      "8 8\n"
      "9 9\n"
      "#\n"
      "0 1 a\n"
      "0 5 b\n"
      "1 2 a\n"
      "1 7 b\n"
      "2 3 a\n"
      "2 8 b\n"
      "3 4 a\n"
      "3 9 b\n"
      "4 0 a\n"
      "4 6 b\n"
      "5 6 a\n"
      "5 0 b\n"
      "6 9 a\n"
      "6 4 b\n"
      "7 5 a\n"
      "7 1 b\n"
      "8 7 a\n"
      "8 2 b\n"
      "9 8 a\n"
      "9 3 b\n"),
     ("status complete\n"
      "cosets 10\n"
      "word aaaaa trivial\n"
      "delta 1\n"
      "0 0\n"
      "1 1\n"
      "2 2\n"
      "3 3\n"
      "4 4\n"
      "5 5\n"
      "6 6\n"
      "7 7\n"
      "8 8\n"
      "9 9\n"
      "#\n"
      "0 1 a\n"
      "0 5 b\n"
      "1 2 a\n"
      "1 7 b\n"
      "2 3 a\n"
      "2 8 b\n"
      "3 4 a\n"
      "3 9 b\n"
      "4 0 a\n"
      "4 6 b\n"
      "5 6 a\n"
      "5 0 b\n"
      "6 9 a\n"
      "6 4 b\n"
      "7 5 a\n"
      "7 1 b\n"
      "8 7 a\n"
      "8 2 b\n"
      "9 8 a\n"
      "9 3 b\n")),
    (("cayley", "--presentation", "{pres}", "--max-cosets", "20"), 2,
     ("status: budget-exceeded\n"
      "cosets: 20\n"),
     ("status budget-exceeded\n"
      "cosets 20\n")),
    (("cayley", "--preset", "dihedral5", "--word", "ab"), 0,
     ("status: complete\n"
      "cosets: 10\n"
      "word ab: nontrivial\n"),
     ("status complete\n"
      "cosets 10\n"
      "word ab nontrivial\n")),
    (("tm-run", "--preset", "unary_appender", "--input", "bb"), 0,
     ("status: halted\n"
      "steps: 3\n"
      "tape: bbb\n"),
     ("status halted\n"
      "steps 3\n"
      "tape bbb\n")),
    (("tm-run", "--preset", "loop_right", "--max-steps", "5"), 2,
     ("status: running\n"
      "steps: 5\n"
      "tape: 1\n"),
     ("status running\n"
      "steps 5\n"
      "tape 1\n")),
    (("tm-run", "--machine", "{machine}", "--input", "bba"), 0,
     ("status: halted\n"
      "steps: 3\n"
      "tape: bbb\n"),
     ("status halted\n"
      "steps 3\n"
      "tape bbb\n")),
    (("tm-encode", "--preset", "unary_appender", "--input", "bb"), 0,
     ("# halt-word: egf\n"
      "# start-word: ecbbf\n"
      "alpha: a b c d e f g\n"
      "kind: semithue\n"
      "rule: caa -> bda\n"
      "rule: cab -> bdb\n"
      "rule: caf -> bdaf\n"
      "rule: cba -> bca\n"
      "rule: cbb -> bcb\n"
      "rule: cbf -> bcaf\n"
      "rule: da -> g\n"
      "rule: db -> g\n"
      "rule: ag -> g\n"
      "rule: bg -> g\n"
      "rule: ga -> g\n"
      "rule: gb -> g\n"),
     SAME),
    (("tm-encode", "--machine", "{machine}"), 0,
     ("# halt-word: egf\n"
      "alpha: a b c d e f g\n"
      "kind: semithue\n"
      "rule: caa -> bda\n"
      "rule: cab -> bdb\n"
      "rule: caf -> bdaf\n"
      "rule: cba -> bca\n"
      "rule: cbb -> bcb\n"
      "rule: cbf -> bcaf\n"
      "rule: da -> g\n"
      "rule: db -> g\n"
      "rule: ag -> g\n"
      "rule: bg -> g\n"
      "rule: ga -> g\n"
      "rule: gb -> g\n"),
     SAME),
    (("catalog", "dihedral5"), 0,
     ("gens: a b\n"
      "rel: aaaaa\n"
      "rel: bb\n"
      "rel: baba\n"),
     SAME),
    (("catalog", "surface", "--genus", "3"), 0,
     ("gens: a b c d e f\n"
      "rel: abABcdCDefEF\n"),
     SAME),
    (("catalog", "free_abelian", "--rank", "3"), 0,
     ("gens: a b c\n"
      "rel: abAB\n"
      "rel: acAC\n"
      "rel: bcBC\n"),
     SAME),
    (("catalog", "higman_truncated", "--exponents", "1,2"), 0,
     ("gens: a b c d\n"
      "rel: AbaCDc\n"
      "rel: AAbaaCCDcc\n"),
     SAME),
    (("catalog", "ceijtin", "--rewrite"), 0, CEIJTIN_SYSTEM, SAME),
    (("catalog", "trefoil"), 0,
     ("gens: a b\n"
      "rel: aaBBB\n"),
     SAME),
    (("reduce", "a_b"), 1,
     "",
     SAME),
    (("dehn-solve", "--presentation", "{semi}", "ab"), 1,
     "",
     SAME),
    (("catalog", "torus", "--rewrite"), 1,
     "",
     SAME),
]


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, text in GOLDEN_FILES.items():
        path = root / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("fmt", ["human", "lines"])
@pytest.mark.parametrize(
    "argv,code,human,lines", GOLDEN, ids=[" ".join(row[0]) for row in GOLDEN]
)
def test_golden_output(golden_files, argv, code, human, lines, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main([a.format(**golden_files) for a in argv] + ["--format", fmt])
    expected = human if fmt == "human" or lines is SAME else lines
    assert (got, out.getvalue()) == (code, expected)
