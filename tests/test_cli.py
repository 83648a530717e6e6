import subprocess
import sys

import pytest

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
