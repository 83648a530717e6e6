import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordproblem.words import (
    EPSILON,
    LETTERS,
    GenLetter,
    alphabet_size,
    at_line,
    check_letters,
    check_word,
    code_text,
    commutator,
    concat,
    cyclic_reduce,
    declarations,
    distinct_letters,
    exponent_vector,
    format_plain,
    format_word,
    free_reduce,
    free_reduce_code,
    invert,
    is_freely_reduced,
    make_word,
    parse_plain,
    parse_word,
    read_declarations,
    spell,
    text_code,
)


def w(text):
    return parse_word(text)


def random_word(rng, n_gens, max_len):
    n = rng.randint(0, max_len)
    return make_word(
        [(rng.randrange(n_gens), rng.choice((1, -1))) for _ in range(n)]
    )


def loop_parse_word(text, n_gens=None):
    """parse_word as first written: one letter built per character."""
    text = text.strip()
    if text in ("", "1"):
        return EPSILON
    letters = []
    for c in text:
        if "a" <= c <= "z":
            letters.append(GenLetter(ord(c) - ord("a"), 1))
        elif "A" <= c <= "Z":
            letters.append(GenLetter(ord(c) - ord("A"), -1))
        else:
            raise ValueError(f"invalid character {c!r} in word {text!r}")
    if n_gens is not None:
        for letter in letters:
            if letter.index >= n_gens:
                raise ValueError(
                    f"letter {format_word((letter,))!r} out of range "
                    f"for {n_gens} generators"
                )
    return tuple(letters)


_PARSED = {
    c: GenLetter(i, sign)
    for sign, names in ((1, LETTERS), (-1, LETTERS.upper()))
    for i, c in enumerate(names)
}


def table_parse_word(text, n_gens=None):
    """parse_word as it was before the code alphabet: one dict lookup per
    character, the bound checked on the letters."""
    text = text.strip()
    if text in ("", "1"):
        return EPSILON
    try:
        letters = tuple(map(_PARSED.__getitem__, text))
    except KeyError:
        c = next(c for c in text if c not in _PARSED)
        raise ValueError(f"invalid character {c!r} in word {text!r}") from None
    if n_gens is not None and max(letters).index >= n_gens:
        letter = next(x for x in letters if x.index >= n_gens)
        raise ValueError(
            f"letter {spelled_word((letter,))!r} out of range for {n_gens} generators"
        )
    return letters


def spelled_word(w):
    """format_word as it was before the code alphabet: spell the indices,
    then upper-case the inverses."""
    if not w:
        return "1"
    names = spell([letter.index for letter in w])
    return "".join([c if letter.sign > 0 else c.upper() for c, letter in zip(names, w)])


def outcome(f, *args):
    """f's result, or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


class TestFreeReduce:
    def test_cancellation_pair(self):
        assert free_reduce(w("aA")) == EPSILON

    def test_nested_cancellation(self):
        assert free_reduce(w("abBA")) == EPSILON

    def test_already_reduced(self):
        assert free_reduce(w("abA")) == w("abA")

    def test_idempotent_and_nonincreasing(self):
        rng = random.Random(7)
        for _ in range(300):
            word = random_word(rng, 3, 64)
            reduced = free_reduce(word)
            assert len(reduced) <= len(word)
            assert free_reduce(reduced) == reduced
            assert is_freely_reduced(reduced)

    def test_word_times_inverse_is_trivial(self):
        rng = random.Random(8)
        for _ in range(300):
            word = random_word(rng, 4, 32)
            assert free_reduce(concat(word, invert(word))) == EPSILON

    def test_plain_pairs_cancel_by_position(self):
        # on a plain tuple .index is the tuple method, so comparing the
        # fields by name left a plain pair uncancelled
        assert free_reduce(((0, 1), (0, -1))) == EPSILON
        assert not is_freely_reduced(((0, 1), (0, -1)))
        for pair in (((0, 1), GenLetter(0, -1)), (GenLetter(0, 1), (0, -1))):
            assert free_reduce(pair) == EPSILON
            assert not is_freely_reduced(pair)
        assert free_reduce(((0, 1), (1, -1), (1, 1))) == ((0, 1),)
        assert is_freely_reduced(((0, 1), (0, 1), (1, -1)))


class TestInvert:
    def test_product_rule(self):
        # (g1 g2)^-1 = g2^-1 g1^-1
        assert invert(w("ab")) == w("BA")

    def test_empty(self):
        assert invert(EPSILON) == EPSILON

    def test_involution(self):
        rng = random.Random(9)
        for _ in range(100):
            word = random_word(rng, 4, 20)
            assert invert(invert(word)) == word


class TestCyclicReduce:
    def test_single_conjugation_layer(self):
        assert cyclic_reduce(w("abA")) == (w("b"), w("a"))

    def test_already_cyclically_reduced(self):
        assert cyclic_reduce(w("ab")) == (w("ab"), EPSILON)

    def test_collapsing_word_keeps_half_tower(self):
        assert cyclic_reduce(w("aA")) == (EPSILON, w("a"))
        assert cyclic_reduce(w("abBA")) == (EPSILON, w("ab"))

    def test_conjugation_identity(self):
        rng = random.Random(10)
        for _ in range(200):
            word = random_word(rng, 3, 24)
            core, u = cyclic_reduce(word)
            rebuilt = free_reduce(concat(u, core, invert(u)))
            assert rebuilt == free_reduce(word)
            first, last = (core[0], core[-1]) if core else (None, None)
            if len(core) >= 2:
                assert first != last.inverse()

    def test_matches_the_letter_peeling_oracle(self):
        rng = random.Random(11)
        for _ in range(3000):
            word = random_word(rng, 1 + rng.randrange(3), 30)
            assert cyclic_reduce(word) == oracle_cyclic_reduce(word), format_word(word)

    def test_long_conjugate_in_linear_time(self):
        u = w("ab" * 25_000)
        start = time.perf_counter()
        core, conjugator = cyclic_reduce(concat(u, w("a"), invert(u)))
        elapsed = time.perf_counter() - start
        assert (core, conjugator) == (w("a"), u)
        assert elapsed < 1.0, f"{elapsed:.2f} s for 100,001 letters"


def oracle_cyclic_reduce(word):
    """The earlier body of cyclic_reduce, which peels one letter pair at a
    time by slicing; quadratic, kept as the reference."""
    core = word
    conjugator = []
    while True:
        while len(core) >= 2 and core[0] == core[-1].inverse():
            conjugator.append(core[0])
            core = core[1:-1]
        reduced = free_reduce(core)
        if reduced == core:
            return core, tuple(conjugator)
        core = reduced


class TestConcat:
    def test_joins_in_order(self):
        assert concat() == EPSILON
        assert concat(w("ab"), EPSILON, (GenLetter(0, -1),), w("c")) == w("abAc")


class TestExponentVector:
    def test_commutator_vanishes(self):
        assert exponent_vector(w("abAB"), 2) == (0, 0)

    def test_direct_count(self):
        assert exponent_vector(w("aaB"), 2) == (2, -1)

    def test_surface_relator_vanishes(self):
        # product of two commutators over four generators
        relator = concat(
            commutator(w("a"), w("b")), commutator(w("c"), w("d"))
        )
        assert exponent_vector(relator, 4) == (0, 0, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            exponent_vector(w("c"), 2)

    def test_malformed_letter(self):
        # index -1 once counted into the last generator: (0, 1)
        with pytest.raises(ValueError, match=r"^malformed letter GenLetter\(index=-1, sign=1\)$"):
            exponent_vector((GenLetter(-1, 1),), 2)

    def test_invariant_under_reduction_and_relator_insertion(self):
        rng = random.Random(11)
        relator = concat(commutator(w("a"), w("b")), commutator(w("c"), w("d")))
        for _ in range(200):
            word = random_word(rng, 4, 16)
            assert exponent_vector(word, 4) == exponent_vector(free_reduce(word), 4)
            u = random_word(rng, 4, 4)
            cut = rng.randint(0, len(word))
            spliced = concat(word[:cut], u, relator, invert(u), word[cut:])
            assert exponent_vector(spliced, 4) == exponent_vector(word, 4)


class TestCheckWord:
    def test_returns_the_word(self):
        word = w("abAB")
        assert check_word(word) is word
        assert check_word(word, 2) is word
        assert check_word(EPSILON, 1) == EPSILON
        assert check_word((GenLetter(10**6, -1),)) == (GenLetter(10**6, -1),)

    @pytest.mark.parametrize("letter", [GenLetter(0, 0), GenLetter(0, 2), GenLetter(-1, 1),
                                        GenLetter(-1, -1)])
    def test_malformed_letter(self, letter):
        for n_gens in (None, 2):
            with pytest.raises(ValueError, match=r"^malformed letter GenLetter\("):
                check_word(w("ab") + (letter,), n_gens)

    def test_names_the_first_letter_out_of_range(self):
        with pytest.raises(ValueError, match="^letter index 2 out of range for 2 generators$"):
            check_word(w("acCd"), 2)
        with pytest.raises(ValueError, match="^letter index 3 out of range for 2 generators$"):
            check_word(w("adc"), 2)

    def test_distinct_letters_in_first_occurrence_order(self):
        assert list(distinct_letters(w("bAbaAB"), 2)) == list(w("bAaB"))
        assert list(distinct_letters(EPSILON)) == []

    def test_exponent_vector_rejects_plain_tuples(self):
        # once a TypeError; the tuple after an equal GenLetter must not
        # hide behind it
        for word in (((0, 1),), (GenLetter(0, 1), (0, 1))):
            with pytest.raises(ValueError, match=r"^malformed letter \(0, 1\)$"):
                exponent_vector(word, 2)

    def test_make_word_checks(self):
        assert make_word([(0, 1), (1, -1)]) == w("aB")
        for pair in ((0, 2), (-1, 1)):
            with pytest.raises(ValueError, match="^malformed letter"):
                make_word([pair])


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(12)
        for _ in range(200):
            word = random_word(rng, 5, 20)
            assert parse_word(format_word(word)) == word

    def test_empty_renders_as_one(self):
        assert format_word(EPSILON) == "1"
        assert parse_word("1") == EPSILON

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_word("a1b")
        with pytest.raises(ValueError):
            parse_word("a b")

    def test_rejects_out_of_range_letter(self):
        with pytest.raises(ValueError):
            parse_word("abc", n_gens=2)

    def test_letters(self):
        assert parse_word("aB") == (GenLetter(0, 1), GenLetter(1, -1))

    def test_table_parse_matches_the_letter_loop(self):
        rng = random.Random(13)
        alphabet = LETTERS + LETTERS.upper() + "1 \t#"
        for _ in range(3000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            if rng.random() < 0.2:
                text = rng.choice(("1", " 1 ", "", "  ", " abC\n"))
            n_gens = rng.choice((None, 1, 3, 26))
            assert outcome(parse_word, text, n_gens) == outcome(loop_parse_word, text, n_gens)

    def test_plain_words_spell_the_empty_word_as_one(self):
        assert (parse_plain("1"), format_plain("")) == ("", "1")
        assert (parse_plain("ab"), format_plain("ab")) == ("ab", "ab")


class TestDeclarations:
    def test_skips_comments_and_blank_lines(self):
        text = "# header\n\n  gens: a b  # trailing\n   \nrel: abAB\n"
        assert list(declarations(text)) == [(3, "gens", "a b"), (5, "rel", "abAB")]

    def test_missing_colon_names_its_line(self):
        with pytest.raises(ValueError, match="^line 2: expected 'key: value', got 'rel abAB'$"):
            list(declarations("gens: a b\nrel abAB\n"))

    def test_value_may_contain_colons(self):
        text = "rule: (A:p B) => (B A:p)\n"
        assert list(declarations(text)) == [(1, "rule", "(A:p B) => (B A:p)")]


class TestReadDeclarations:
    def test_values_by_key_in_file_order(self):
        text = "rel: ab\n# c\ngens: a b\nrel: ba\n"
        found = read_declarations(text, once=("gens",), many=("rel", "eq"))
        assert found == {"gens": [(3, "a b")], "rel": [(1, "ab"), (4, "ba")], "eq": []}

    def test_unknown_key_names_its_line(self):
        with pytest.raises(ValueError, match="^line 2: unknown key 'rule'$"):
            read_declarations("gens: a\nrule: a -> b\n", once=("gens",), many=("rel",))

    def test_once_only_key_repeated(self):
        text = "gens: a\nrel: a\nrel: aa\ngens: a b\n"
        with pytest.raises(ValueError, match="^line 4: repeated 'gens:'$"):
            read_declarations(text, once=("gens",), many=("rel",))


class TestAtLine:
    def test_passes_the_value_and_arguments(self):
        assert at_line(7, "ab", parse_word, 2) == w("ab")

    def test_names_the_line_of_an_error(self):
        with pytest.raises(ValueError, match="^line 7: letter 'c' out of range for 2 generators$"):
            at_line(7, "abc", parse_word, 2)


class TestAlphabetSize:
    def test_all_26_letters(self):
        assert alphabet_size(" ".join(LETTERS)) == 26
        assert alphabet_size("a") == 1

    def test_rejects_bad_lines(self):
        for value in (" ".join(LETTERS) + " {", "a c", "a bc", "ab", "b", ""):
            with pytest.raises(ValueError, match="^expected consecutive letters"):
                alphabet_size(value)


class TestCheckLetters:
    def test_accepts_and_returns_text(self):
        assert check_letters("abcab", 3) == "abcab"
        assert check_letters("", 1) == ""

    def test_reports_the_first_bad_letter(self):
        with pytest.raises(ValueError, match="^letter 'd' outside alphabet of size 3$"):
            check_letters("abdxA", 3)
        with pytest.raises(ValueError, match="^letter '{' outside alphabet of size 26$"):
            check_letters("z{", 26)


class TestSpell:
    def test_names_letters_by_index(self):
        assert spell((0, 2, 25)) == "acz"
        assert spell(range(26)) == LETTERS
        assert spell(()) == ""

    def test_index_without_a_letter(self):
        for indices, bad in (((26,), 26), ((0, 30, 1), 30), ((-1,), -1), ((2, 300), 300)):
            with pytest.raises(ValueError, match=f"^letter index {bad} outside the 26 text"):
                spell(indices)

    def test_format_word_uses_it(self):
        assert format_word((GenLetter(25, -1), GenLetter(0, 1))) == "Za"
        with pytest.raises(ValueError, match="^letter index 26 outside the 26 text letters$"):
            format_word((GenLetter(26, 1),))
        # a negative index is a malformed letter, named as check_word names it
        with pytest.raises(ValueError, match=r"^malformed letter GenLetter\(index=-1, sign=1\)$"):
            format_word((GenLetter(-1, 1),))


# Text words for the code alphabet's tests: the 52 letters, some whitespace
# around them, and the two spellings of the empty word.
LETTER_TEXT = st.text(st.sampled_from(LETTERS + LETTERS.upper()), max_size=30)
# two generators, so that cancellations nest
CANCELLING_TEXT = st.text(st.sampled_from("aAbB"), max_size=30)
PADDING = st.sampled_from(("", " ", "\t", "\n ", "  "))
# characters that are no letter, among them the codes of letters ('\x00',
# '\x33', and '0' to '3', which are the codes of y, Y, z and Z)
INVALID = st.sampled_from(["0", "1", "2", "3", "_", "\u00e9", " ", "\t"]
                          + [chr(k) for k in range(0x34)])
N_GENS = st.sampled_from((None, -1, 0, 1, 2, 3, 13, 25, 26, 27, 10**9))


@st.composite
def texts(draw):
    """A text word, padded, possibly with an invalid character inside."""
    text = draw(st.one_of(LETTER_TEXT, CANCELLING_TEXT, st.sampled_from(("1", ""))))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(INVALID) + text[at:]
    return draw(PADDING) + text + draw(PADDING)


class TestCodeAlphabet:
    def test_codes(self):
        assert text_code("aAbBzZ") == "\x00\x01\x02\x03\x32\x33"
        assert code_text("\x00\x01\x02\x03\x32\x33") == "aAbBzZ"
        assert text_code(" 1 ") == text_code("") == ""
        assert code_text("") == "1"

    def test_characters_that_look_like_codes_are_refused(self):
        # '0' is chr(48), the code of 'y', and would pass a bound check alone
        for text in ("a0", "\x00", "a\x33", "Z3"):
            with pytest.raises(ValueError, match="^invalid character"):
                text_code(text, 26)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(texts(), N_GENS)
    def test_parse_word_matches_the_letter_table(self, text, n_gens):
        assert outcome(parse_word, text, n_gens) == outcome(table_parse_word, text, n_gens)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(texts(), N_GENS)
    def test_code_route_matches_the_tuple_route(self, text, n_gens):
        def codes(text, n_gens):
            return code_text(free_reduce_code(text_code(text, n_gens)))

        def letters(text, n_gens):
            return spelled_word(free_reduce(table_parse_word(text, n_gens)))

        assert outcome(codes, text, n_gens) == outcome(letters, text, n_gens)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(LETTER_TEXT)
    def test_format_word_matches_spelling(self, text):
        word = parse_word(text)
        assert format_word(word) == spelled_word(word)
        assert code_text(text_code(text)) == format_word(word)

    def test_format_word_refuses_malformed_letters(self):
        for word in (((0, 1),), (GenLetter(0, 1), (1, -1)), (GenLetter(0, 0),),
                     (GenLetter(1, 2),), (GenLetter(-1, -1),), ("a",)):
            with pytest.raises(ValueError, match="^malformed letter"):
                format_word(word)
        for word, bad in (((GenLetter(26, 1),), 26), ((GenLetter(0, -1), GenLetter(300, -1)), 300)):
            with pytest.raises(ValueError, match=f"^letter index {bad} outside the 26 text letters$"):
                format_word(word)
