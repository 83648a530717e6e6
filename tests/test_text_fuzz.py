"""The four text readers on one valid file each.  Declarations may come
in any order, and a once-only key declared again names its line.

Fuzzing: a valid file with random character insertions, deletions and
substitutions either parses or raises ValueError, never another
exception type.  Hypothesis draws the seeds; each seed drives 25
mutated files, spread uniformly over the text."""

import random

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from wordproblem.presentations import parse_presentation
from wordproblem.reductions import parse_machine
from wordproblem.rewriting import parse_system
from wordproblem.terms import parse_tree_rules

VALID = {
    parse_presentation: "# torus\ngens: a b\nrel: abAB\nrel: aab  # comment\n",
    parse_system: "alpha: a b c\nkind: semithue\nrule: ab -> ba\nrule: cc -> 1\n",
    parse_machine: (
        "states: 2\nsymbols: a b\nstart: q0\n"
        "trans: q0 b -> q0 b R\ntrans: q0 a -> q1 b L\n"
    ),
    parse_tree_rules: "rule: ((?x ?y) ?z) => (?x (?y ?z))\nrule: (A:p ?x) => (?x A:p)\n",
}

ONCE = ("gens:", "alpha:", "kind:", "states:", "symbols:", "start:")

PIECES = list("abcyz{AB019q?:#=->()1 \n\t") + ["ab", "q12", "->", "=>", ": ", "(A"]


def mutate(rng, text):
    """One to six insertions, deletions and substitutions at uniformly
    random places."""
    for _ in range(rng.randint(1, 6)):
        i = rng.randint(0, len(text))
        op = rng.choice("ids")
        if op == "d":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(PIECES) + text[i + (op == "s"):]
    return text


@pytest.mark.parametrize("reader", list(VALID), ids=lambda f: f.__name__)
def test_valid_files_parse(reader):
    reader(VALID[reader])


@pytest.mark.parametrize("reader", list(VALID), ids=lambda f: f.__name__)
def test_once_only_lines_may_come_last(reader):
    lines = VALID[reader].splitlines(keepends=True)
    moved = sorted(lines, key=lambda line: line.startswith(ONCE))
    assert reader("".join(moved)) == reader(VALID[reader])


REPEATS = [(reader, line) for reader, text in VALID.items()
           for line in text.splitlines() if line.startswith(ONCE)]


@pytest.mark.parametrize("reader, line", REPEATS, ids=lambda x: getattr(x, "__name__", x))
def test_once_only_line_repeated(reader, line):
    text = VALID[reader] + line + "\n"
    key = line.split(":")[0]
    with pytest.raises(ValueError, match=f"^line {len(text.splitlines())}: repeated '{key}:'$"):
        reader(text)


@pytest.mark.parametrize("reader, text, message", [
    # the first three were accepted, or reported without their line,
    # while the last declaration of a key won
    (parse_machine, "states: 3\nsymbols: a b\ntrans: q2 a -> q0 b R\nstates: 1\n",
     "line 4: repeated 'states:'"),
    (parse_presentation, "gens: a b c\nrel: abc\ngens: a\n", "line 3: repeated 'gens:'"),
    (parse_system, "alpha: a b\nkind: thue\nrule: ab -> ba\nrule: ba -> ab\nkind: semithue\n",
     "line 5: repeated 'kind:'"),
    (parse_tree_rules, "rule: A => B\nrel: ab\n", "line 2: unknown key 'rel'"),
], ids=["states", "gens", "kind", "tree-key"])
def test_declaration_errors_name_their_line(reader, text, message):
    with pytest.raises(ValueError) as info:
        reader(text)
    assert str(info.value) == message


@pytest.mark.parametrize("reader", list(VALID), ids=lambda f: f.__name__)
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mutated_files_parse_or_raise_value_error(reader, seed):
    rng = random.Random(seed)
    for _ in range(25):
        text = mutate(rng, VALID[reader])
        note(repr(text))
        try:
            reader(text)
        except ValueError:
            pass
