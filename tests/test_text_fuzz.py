"""Fuzzing of the four text readers: a valid file with random character
insertions, deletions and substitutions either parses or raises
ValueError, never another exception type.  Hypothesis draws the seeds;
each seed drives 25 mutated files, spread uniformly over the text."""

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
