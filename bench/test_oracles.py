"""The benchmark's reference computations, on cases known by hand or by
theory.  Run with ``python -m pytest bench``."""

from fractions import Fraction

import pytest

from bench import oracles
from bench.core import dihedral_relators, surface_relator

A5_RELATORS = (((0, 1),) * 2, ((1, 1),) * 3, ((0, 1), (1, 1)) * 5)
PSL_RELATORS = A5_RELATORS[:2] + (((0, 1), (1, 1)) * 7,
                                  ((0, 1), (1, 1), (0, -1), (1, -1)) * 4)


@pytest.mark.parametrize("group, relators, order", [
    (oracles.Dihedral(7), dihedral_relators(7), 14),
    (oracles.A5, A5_RELATORS, 60),
    (oracles.PSL27, PSL_RELATORS, 168),
])
def test_group_models_satisfy_their_presentations(group, relators, order):
    for r in relators:
        assert oracles.evaluate(group, r) == group.identity
    words = oracles.element_words(group)
    assert len(words) == order
    for x, w in words.items():
        assert oracles.evaluate(group, w) == x


def test_exponent_sum_and_free_reduction():
    w = oracles.parse_text("abAAcab")
    assert oracles.exponent_sum(w, 0) == 0
    assert oracles.exponent_sum(w, 1) == 2
    assert oracles.word_text(oracles.free_reduce(oracles.parse_text("abBAc"))) == "c"
    assert oracles.join(oracles.parse_text("abc"), oracles.parse_text("CBd")) == \
        oracles.parse_text("ad")


def test_piece_check():
    assert oracles.max_piece_ratio(oracles.symmetrize([surface_relator(2)])) == Fraction(1, 8)
    assert oracles.is_c6([surface_relator(2)])
    assert not oracles.is_c6([surface_relator(1)])  # torus: ratio 1/4


def test_dehn_reduced_and_replay():
    sym = oracles.symmetrize([surface_relator(2)])
    assert not oracles.is_dehn_reduced(oracles.parse_text("abABc"), sym)
    assert oracles.is_dehn_reduced(oracles.parse_text("abABCa"), sym)
    assert oracles.replay_dehn(oracles.parse_text("abABcdCD"), sym, [(0, 0, 8)]) == ()
    # abABc is replaced by the inverse of the rest of the relator, dCD
    assert oracles.replay_dehn(oracles.parse_text("abABc"), sym, [(0, 0, 5)]) == \
        oracles.parse_text("dcD")
    with pytest.raises(ValueError):
        oracles.replay_dehn(oracles.parse_text("abAB"), sym, [(0, 0, 4)])


def test_letter_counts_and_string_replay():
    rules = [("ab", "ba"), ("ba", "ab")]
    assert oracles.replay_string(rules, "aab", [(0, 1), (0, 0)]) == "baa"
    assert oracles.letter_counts("aab") == oracles.letter_counts("baa")
    with pytest.raises(ValueError):
        oracles.replay_string(rules, "aab", [(1, 0)])


def test_trees():
    t = oracles.parse_tree("((A B) (C D))")
    assert oracles.tree_text(t) == "((A B) (C D))"
    assert oracles.leaves(t) == ["A", "B", "C", "D"]
    left = oracles.left_comb(["A", "B", "C"])
    right = oracles.right_comb(["A", "B", "C"])
    assert oracles.replay_assoc(left, [(True, "")]) == right
    assert oracles.replay_assoc(right, [(False, "")]) == left
    with pytest.raises(ValueError):
        oracles.replay_assoc(right, [(True, "")])


def test_delta_by_definition_on_cycles():
    def cycle(n):  # Cayley graph of Z_n: columns a, A
        return [[(v + 1) % n, (v - 1) % n] for v in range(n)]
    assert oracles.delta_by_definition(cycle(3)) == 0
    # on the 4-cycle the side from 0 to 2 runs through 1, which is at
    # distance 1 from the sides 2-3 and 3-0 of the triangle (0, 2, 3)
    assert oracles.delta_by_definition(cycle(4)) == 1


def test_delta_by_definition_matches_program_on_small_dihedral_groups():
    from wordproblem import cayley, presentations
    from wordproblem.words import GenLetter

    for n in (3, 4, 5, 6):
        p = presentations.GroupPresentation(2, tuple(
            tuple(GenLetter(*x) for x in r) for r in dihedral_relators(n)))
        graph = cayley.to_cayley_graph(cayley.todd_coxeter(p, 1000))
        assert oracles.relators_close(graph.neighbors, dihedral_relators(n))
        assert oracles.delta_by_definition(graph.neighbors) == cayley.estimate_delta(graph)


def test_sequences_and_powers():
    assert oracles.thue_morse(0, 8) == "01101001"
    assert oracles.thue_morse(3, 4) == "0100"
    assert oracles.first_power(oracles.thue_morse(0, 300), 3) is None
    sf = oracles.ternary_fixed_point(300)
    assert sf.startswith("012021") and oracles.first_power(sf, 2) is None
    assert oracles.first_power("0101", 2) == (0, 2)
    assert oracles.first_power("1abcabcabc", 3) == (1, 3)
    assert oracles.is_power("xabababy", 1, 2, 3)
    assert not oracles.is_power("xabababy", 1, 2, 4)
