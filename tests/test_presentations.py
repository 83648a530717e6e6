import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordproblem.presentations import (
    GroupPresentation,
    SemigroupPresentation,
    SymmetrizedRelators,
    catalog,
    format_presentation,
    free_abelian_presentation,
    higman_truncated_presentation,
    max_piece_ratio,
    parse_presentation,
    symmetrize,
)
from wordproblem.words import (
    GenLetter,
    check_word,
    cyclic_reduce,
    format_word,
    free_reduce,
    invert,
    is_cyclically_reduced,
    make_word,
    parse_word,
)


def w(text):
    return parse_word(text)


def oracle_max_piece_ratio(sym_words):
    """Independent brute force: longest common prefix over all pairs of
    distinct symmetrized relators, as plain strings."""
    texts = [format_word(u) for u in sym_words]
    best = Fraction(0)
    for i, u in enumerate(texts):
        for j, v in enumerate(texts):
            if i == j:
                continue
            k = 0
            while k < min(len(u), len(v)) and u[k] == v[k]:
                k += 1
            if k:
                best = max(best, Fraction(k, min(len(u), len(v))))
    return best


class TestSymmetrize:
    def test_shift_invariant_relator(self):
        p = GroupPresentation(1, (w("aaa"),))
        assert set(symmetrize(p).words) == {w("aaa"), w("AAA")}

    def test_torus_has_eight(self):
        sym = symmetrize(catalog("torus"))
        assert len(sym.words) == 8
        assert len(set(sym.words)) == 8

    def test_genus_two_has_sixteen(self):
        sym = symmetrize(catalog("surface", genus=2))
        assert len(sym.words) == 16

    def test_closure_and_size_bound(self):
        for name, kwargs in (("surface", {"genus": 2}), ("dihedral5", {}), ("trefoil", {})):
            p = catalog(name, **kwargs)
            sym = symmetrize(p)
            assert len(sym.words) <= 2 * sum(len(r) for r in p.relators)
            words = set(sym.words)
            for u in words:
                assert is_cyclically_reduced(u)
                assert invert(u) in words
                assert u[1:] + u[:1] in words


class TestMaxPieceRatio:
    def test_surface_values(self):
        for g in (2, 3, 4):
            sym = symmetrize(catalog("surface", genus=g))
            ratio = max_piece_ratio(sym)
            assert ratio == Fraction(1, 4 * g)
            assert ratio == oracle_max_piece_ratio(sym.words)
            assert ratio < Fraction(1, 6)

    def test_torus_fails_small_cancellation(self):
        sym = symmetrize(catalog("torus"))
        ratio = max_piece_ratio(sym)
        assert ratio == Fraction(1, 4)
        assert ratio == oracle_max_piece_ratio(sym.words)
        assert not ratio < Fraction(1, 6)

    def test_proper_power_relator_against_oracle(self):
        # (ab)^7: all four symmetrized words differ in their first letter,
        # so the prefix formulation finds no piece at all
        p = GroupPresentation(2, (w("ab" * 7),))
        sym = symmetrize(p)
        assert len(sym.words) == 4
        ratio = max_piece_ratio(sym)
        assert ratio == oracle_max_piece_ratio(sym.words) == Fraction(0)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            max_piece_ratio(SymmetrizedRelators(()))

    def test_random_mixed_length_presentations_against_oracle(self):
        rng = random.Random(41)
        checked = 0
        while checked < 300:
            n_gens = rng.randint(1, 3)
            relators = tuple(
                free_reduce(
                    make_word(
                        [(rng.randrange(n_gens), rng.choice((1, -1)))
                         for _ in range(rng.randint(1, 12))]
                    )
                )
                for _ in range(rng.randint(1, 4))
            )
            sym = symmetrize(GroupPresentation(n_gens, relators))
            if sym.words:
                assert max_piece_ratio(sym) == oracle_max_piece_ratio(sym.words)
                checked += 1

    def test_higman_mixed_lengths_against_oracle(self):
        sym = symmetrize(catalog("higman_truncated", exponents=(0, 1, 2, 3)))
        assert max_piece_ratio(sym) == oracle_max_piece_ratio(sym.words)

    def test_duplicate_word_is_a_whole_piece(self):
        sym = SymmetrizedRelators((w("abc"), w("ab"), w("abc")))
        assert max_piece_ratio(sym) == oracle_max_piece_ratio(sym.words) == Fraction(1)

    def test_prefix_of_another_word(self):
        sym = SymmetrizedRelators((w("abcd"), w("ab")))
        assert max_piece_ratio(sym) == oracle_max_piece_ratio(sym.words) == Fraction(1)

    def test_shorter_word_sorting_last_sets_the_ratio(self):
        # abAc sorts before abC (A < C); their piece ab is 2/3 of abC
        sym = SymmetrizedRelators((w("abC"), w("abAc")))
        assert max_piece_ratio(sym) == oracle_max_piece_ratio(sym.words) == Fraction(2, 3)


class TestSymmetrizedRelators:
    def test_rejects_first_word_not_cyclically_reduced(self):
        with pytest.raises(ValueError, match="^abA is not cyclically reduced$"):
            SymmetrizedRelators((w("ab"), w("abA"), w("aBbc")))
        with pytest.raises(ValueError, match="^aBbc is not cyclically reduced$"):
            SymmetrizedRelators((w("ab"), w("aBbc"), w("abA")))

    def test_rejects_cancellation_across_the_ends_only(self):
        with pytest.raises(ValueError, match="^abA is not cyclically reduced$"):
            SymmetrizedRelators((w("ab"), w("abA")))

    def test_rejects_a_two_letter_cancellation(self):
        with pytest.raises(ValueError, match="^aA is not cyclically reduced$"):
            SymmetrizedRelators((w("aA"),))

    def test_accepts_cyclically_reduced_words(self):
        words = (w("a"), w("aa"), w("abAB"), w("ba"))
        assert SymmetrizedRelators(words).words == words


def two_stage_check(words):
    """The check SymmetrizedRelators made before it walked each word once,
    kept as the oracle: every letter, then the set of all words' cyclic
    pairs, then, if some pair cancels, each word again in order."""
    check_word(tuple(chain.from_iterable(words)))
    pairs = set()
    for u in words:
        pairs.update(zip(u, u[1:] + u[:1]))
    if any(x.index == y.index and x.sign == -y.sign for x, y in pairs):
        for u in words:
            if not is_cyclically_reduced(u):
                raise ValueError(f"{format_word(u)} is not cyclically reduced")


SET_LETTER = st.builds(GenLetter, st.integers(0, 3), st.sampled_from((1, -1)))
MALFORMED = st.sampled_from([GenLetter(0, 0), GenLetter(-1, 1), GenLetter(1, 2), (0, 1), (2, -1)])


@st.composite
def relator_sets(draw):
    """Cyclically reduced words, some with a planted defect: a cancelling
    pair inside, a letter at each end that cancel across the ends, or a
    malformed letter."""
    words = []
    for _ in range(draw(st.integers(0, 6))):
        word = list(cyclic_reduce(tuple(draw(st.lists(SET_LETTER, max_size=8))))[0])
        at = draw(st.integers(0, len(word)))
        x = draw(SET_LETTER)
        plant = draw(st.sampled_from(("none", "none", "none", "inside", "ends", "malformed")))
        if plant == "inside":
            word[at:at] = [x, x.inverse()]
        elif plant == "ends":
            word = [x, *word, x.inverse()]
        elif plant == "malformed":
            word.insert(at, draw(MALFORMED))
        words.append(tuple(word))
    return tuple(words)


def check_outcome(check, words):
    try:
        check(words)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(relator_sets())
def test_one_pass_check_matches_the_two_stage_oracle(words):
    assert check_outcome(SymmetrizedRelators, words) == check_outcome(two_stage_check, words)


class TestCatalog:
    def test_surface_two(self):
        p = catalog("surface", genus=2)
        assert p.n_gens == 4
        assert len(p.relators) == 1
        assert len(p.relators[0]) == 8
        assert format_word(p.relators[0]) == "abABcdCD"

    def test_dihedral5(self):
        p = catalog("dihedral5")
        assert [format_word(r) for r in p.relators] == ["aaaaa", "bb", "baba"]

    def test_ceijtin(self):
        p = catalog("ceijtin")
        assert isinstance(p, SemigroupPresentation)
        assert p.alphabet_size == 5
        assert p.equations == (
            ("ac", "ca"),
            ("ad", "da"),
            ("bc", "cb"),
            ("bd", "db"),
            ("ce", "eca"),
            ("de", "edb"),
            ("cdca", "cdcae"),
            ("caaa", "aaa"),
            ("daaa", "aaa"),
        )

    def test_higman_truncated_single_exponent(self):
        p = catalog("higman_truncated", exponents=(1,))
        assert [format_word(r) for r in p.relators] == ["AbaCDc"]
        assert len(p.relators[0]) == 6

    def test_trefoil(self):
        p = catalog("trefoil")
        assert [format_word(r) for r in p.relators] == ["aaBBB"]

    def test_free_abelian(self):
        p = catalog("free_abelian", rank=3)
        assert p.n_gens == 3
        assert len(p.relators) == 3

    def test_unknown_and_invalid(self):
        with pytest.raises(ValueError):
            catalog("nonsense")
        with pytest.raises(ValueError):
            catalog("surface", genus=0)
        with pytest.raises(ValueError):
            catalog("dihedral5", genus=3)

    def test_parameter_the_entry_does_not_take(self):
        with pytest.raises(ValueError, match="takes only genus, not rank"):
            catalog("surface", rank=3)
        with pytest.raises(ValueError, match="takes only rank, not exponents, genus"):
            catalog("free_abelian", genus=2, exponents=(1,))
        with pytest.raises(ValueError, match="takes only exponents"):
            catalog("higman_truncated", exponents=(1,), rank=2)


class TestNormalization:
    def test_relators_are_normalized(self):
        p = GroupPresentation(2, (w("abABA" + "a"),))  # not cyclically reduced
        for r in p.relators:
            assert is_cyclically_reduced(r)

    def test_empty_relators_are_dropped(self):
        p = GroupPresentation(2, (w("aA"), w("ab")))
        assert [format_word(r) for r in p.relators] == ["ab"]

    def test_out_of_range_relator_letter(self):
        with pytest.raises(ValueError):
            GroupPresentation(1, (w("ab"),))

    def test_relator_letters_are_checked_as_words(self):
        with pytest.raises(ValueError, match="^letter index 1 out of range for 1 generators$"):
            GroupPresentation(1, (w("ab"),))
        # index -1 read b's column, so todd_coxeter called this a
        # complete table of one coset
        relators = ((GenLetter(-1, 1), GenLetter(0, 1)),) + catalog("dihedral5").relators
        with pytest.raises(ValueError, match=r"^malformed letter GenLetter\(index=-1, sign=1\)$"):
            GroupPresentation(2, relators)

    def test_plain_tuple_relator_letters_rejected(self):
        # once an AttributeError from cyclic_reduce
        with pytest.raises(ValueError, match=r"^malformed letter \(0, 1\)$"):
            GroupPresentation(2, (((0, 1), (1, 1)),))

    def test_useless_equation_flagged(self):
        p = SemigroupPresentation(2, (("ab", "ab"), ("a", "b")))
        assert p.trivial_equations() == [0]


class TestTextFormat:
    def test_group_round_trip(self):
        for name, kwargs in (
            ("surface", {"genus": 2}),
            ("torus", {}),
            ("dihedral5", {}),
            ("free_abelian", {"rank": 3}),
            ("trefoil", {}),
            ("higman_truncated", {"exponents": (1, 2)}),
        ):
            p = catalog(name, **kwargs)
            assert parse_presentation(format_presentation(p)) == p

    def test_semigroup_round_trip(self):
        p = catalog("ceijtin")
        assert parse_presentation(format_presentation(p)) == p

    def test_rejects_unknown_letters(self):
        with pytest.raises(ValueError):
            parse_presentation("gens: a b\nrel: abc\n")
        with pytest.raises(ValueError):
            parse_presentation("gens: a b\neq: ax = a\n")

    def test_rejects_non_consecutive_generators(self):
        with pytest.raises(ValueError):
            parse_presentation("gens: x y\nrel: xy\n")

    def test_rejects_mixed_kinds(self):
        with pytest.raises(ValueError):
            parse_presentation("gens: a b\nrel: ab\neq: a = b\n")

    def test_comments_and_blank_lines(self):
        p = parse_presentation("# a comment\n\ngens: a\nrel: aaa  # inline\n")
        assert p == GroupPresentation(1, (w("aaa"),))

    def test_at_most_26_generators(self):
        gens = " ".join("abcdefghijklmnopqrstuvwxyz")
        assert parse_presentation(f"gens: {gens}\nrel: az\n").n_gens == 26
        with pytest.raises(ValueError, match="^line 1: expected consecutive letters"):
            parse_presentation(f"gens: {gens} {{\nrel: a\n")
        with pytest.raises(ValueError, match="^line 1: expected consecutive letters"):
            parse_presentation(f"gens: {gens} {{\neq: a = a\n")

    def test_equation_letter_outside_alphabet(self):
        with pytest.raises(ValueError, match="^line 2: letter 'c' outside alphabet of size 2$"):
            parse_presentation("gens: a b\neq: ab = c\n")

    @pytest.mark.parametrize("line", ["eq: ab = 1", "eq: ab =", "eq: 1 = ab"])
    def test_equation_sides_are_nonempty(self, line):
        with pytest.raises(ValueError, match=r"^line 2: empty equation side"):
            parse_presentation(f"gens: a b\n{line}\n")

    def test_semigroup_presentation_rejects_an_empty_side(self):
        with pytest.raises(ValueError, match="empty equation side"):
            SemigroupPresentation(2, (("ab", ""),))


def test_format_refuses_more_than_26_generators():
    assert format_presentation(GroupPresentation(26, ())).startswith("gens: a b")
    with pytest.raises(ValueError, match="outside the 26 text letters"):
        format_presentation(GroupPresentation(30, ()))
    with pytest.raises(ValueError, match="outside the 26 text letters"):
        format_presentation(SemigroupPresentation(27, ()))


@pytest.mark.parametrize(
    "text,message",
    [
        ("gens: a b\nrel: abc\n", "line 2: letter 'c' out of range for 2 generators"),
        ("gens: a\n\nrel: aa\nrel: a1\n", "line 4: invalid character '1' in word 'a1'"),
    ],
)
def test_relator_errors_name_their_line(text, message):
    with pytest.raises(ValueError) as info:
        parse_presentation(text)
    assert str(info.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: GroupPresentation(0, ()), "a presentation needs at least one generator"),
    (lambda: SemigroupPresentation(0, ()), "alphabet must be nonempty"),
    (lambda: free_abelian_presentation(0), "rank must be >= 1"),
    (lambda: higman_truncated_presentation((-1,)), "exponents must be >= 0"),
])
def test_constructor_guards(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
