import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordproblem.sequences import (
    SQUARE_FREE_MORPHISM,
    THUE_MORSE_MORPHISM,
    Morphism,
    fixed_point_prefix,
    is_power_free,
    square_free_ternary_prefix,
    thue_morse_prefix,
)

TM32 = "01101001100101101001011001101001"


def bit_parity_prefix(n):
    """Thue-Morse oracle: letter k is the parity of the 1 bits of k."""
    return "".join("01"[k.bit_count() & 1] for k in range(n))


class TestThueMorse:
    def test_32_letter_prefix(self):
        assert thue_morse_prefix(32) == TM32

    def test_first_letter(self):
        assert thue_morse_prefix(1) == "0"
        assert thue_morse_prefix(0) == ""

    def test_agrees_with_morphism_fixed_point(self):
        n = 2 ** 14
        assert thue_morse_prefix(n) == fixed_point_prefix(THUE_MORSE_MORPHISM, n)

    def test_agrees_with_bit_parity(self):
        for n in [*range(301), 2 ** 14]:
            assert thue_morse_prefix(n) == bit_parity_prefix(n), n

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="^length must be >= 0$"):
            thue_morse_prefix(-1)

    def test_cube_free_prefix(self):
        ok, witness = is_power_free(thue_morse_prefix(2 ** 12), 3)
        assert ok and witness is None

    def test_contains_squares(self):
        # cube-free but not square-free: "00" already occurs
        ok, witness = is_power_free(thue_morse_prefix(64), 2)
        assert not ok
        pos, length = witness
        block = thue_morse_prefix(64)[pos : pos + length]
        assert thue_morse_prefix(64)[pos : pos + 2 * length] == block * 2


class TestSquareFreeTernary:
    def test_first_twelve_letters(self):
        # three iterations of the substitution from "0"
        assert square_free_ternary_prefix(12) == "012021012102"

    def test_empty(self):
        assert square_free_ternary_prefix(0) == ""

    def test_square_free_prefix(self):
        ok, witness = is_power_free(square_free_ternary_prefix(4096), 2)
        assert ok and witness is None


class TestIsPowerFree:
    def test_immediate_square(self):
        assert is_power_free("00", 2) == (False, (0, 1))

    def test_longest_square_free_binary_word(self):
        assert is_power_free("010", 2) == (True, None)

    def test_witness_is_a_real_repetition(self):
        word = "abcabcabc"
        ok, (pos, length) = is_power_free(word, 3)
        assert not ok
        block = word[pos : pos + length]
        assert word[pos : pos + 3 * length] == block * 3

    def test_no_binary_word_of_length_four_is_square_free(self):
        for bits in itertools.product("01", repeat=4):
            ok, _ = is_power_free("".join(bits), 2)
            assert not ok

    def test_power_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            is_power_free("0101", 1)

    def test_only_power_has_the_longest_block(self):
        # block length n // k is the last one tried
        assert is_power_free("010101", 3) == (False, (0, 2))
        assert is_power_free("1010102", 3) == (False, (0, 2))
        assert is_power_free("2010101", 3) == (False, (1, 2))

    def test_tie_goes_to_the_shorter_block(self):
        # "0000" at 1 is both a square of "0" and of "00"
        assert is_power_free("10000", 2) == (False, (1, 1))
        assert is_power_free("1000000", 3) == (False, (1, 1))


def oracle_is_power_free(w, k):
    """The position-by-position scan the checker replaced."""
    if k < 2:
        raise ValueError("power must be >= 2")
    data = w.encode("ascii")
    n = len(data)
    span = k - 1
    for i in range(n):
        max_block = (n - i) // k
        for length in range(1, max_block + 1):
            if data[i] != data[i + length]:
                continue
            lo = i
            hi = i + length
            if data[lo : lo + span * length] == data[hi : hi + span * length]:
                return False, (i, length)
    return True, None


@st.composite
def words_with_powers(draw):
    """A word over 2-4 letters of length 0-80 and a power k in 2-4; half
    the words get a k-th power of a random block planted in them."""
    k = draw(st.integers(2, 4))
    letters = st.sampled_from("0123"[: draw(st.integers(2, 4))])
    word = draw(st.text(letters, max_size=80))
    if draw(st.booleans()):
        block = draw(st.text(letters, min_size=1, max_size=max(1, (80 - len(word)) // k)))
        at = draw(st.integers(0, len(word)))
        word = (word[:at] + block * k + word[at:])[:80]
    return word, k


@given(words_with_powers())
@settings(max_examples=800, deadline=None, derandomize=True, database=None)
def test_is_power_free_matches_the_scan(case):
    word, k = case
    assert is_power_free(word, k) == oracle_is_power_free(word, k)


def test_is_power_free_matches_the_scan_on_long_words():
    for n, k in ((500, 3), (501, 2), (333, 4)):
        for word in (thue_morse_prefix(n), square_free_ternary_prefix(n),
                     thue_morse_prefix(n)[:n // 2] + "011" * k + thue_morse_prefix(n)):
            assert is_power_free(word, k) == oracle_is_power_free(word, k)


class TestFixedPointPrefix:
    def test_three_iterations_of_doubling(self):
        assert fixed_point_prefix(THUE_MORSE_MORPHISM, 6) == "011010"

    def test_zero_length(self):
        assert fixed_point_prefix(SQUARE_FREE_MORPHISM, 0) == ""

    def test_first_image(self):
        assert fixed_point_prefix(SQUARE_FREE_MORPHISM, 3) == "012"

    def test_prefix_stability(self):
        for m in (THUE_MORSE_MORPHISM, SQUARE_FREE_MORPHISM):
            for n in range(0, 200):
                assert fixed_point_prefix(m, n) == fixed_point_prefix(m, n + 1)[:n]

    def test_non_prolongable_rejected(self):
        with pytest.raises(ValueError):
            fixed_point_prefix(Morphism(("1", "0")), 4)
        with pytest.raises(ValueError):
            fixed_point_prefix(Morphism(("0", "01")), 4)

    def test_morphism_validation(self):
        with pytest.raises(ValueError):
            Morphism(("01", ""))
        with pytest.raises(ValueError):
            Morphism(("02", "1"))

    def test_morphism_letters_are_ascii_digits(self):
        # '\u0661' is ARABIC-INDIC DIGIT ONE: str.isdigit() and int() accept it
        for images in (("0\u0661", "10"), ("0\uff11", "10"), ("0a", "10"), ("0 ", "10")):
            with pytest.raises(ValueError, match="outside alphabet"):
                Morphism(images)

    def test_apply_rejects_letters_outside_the_alphabet(self):
        assert SQUARE_FREE_MORPHISM.apply("0122") == "0120211"
        for word in ("3", "01x", "0\u0661"):
            with pytest.raises(ValueError, match="outside alphabet"):
                SQUARE_FREE_MORPHISM.apply(word)


@pytest.mark.parametrize("call, message", [
    (lambda: Morphism(()), "a morphism needs at least one image"),
    (lambda: fixed_point_prefix(THUE_MORSE_MORPHISM, -1), "length must be >= 0"),
])
def test_argument_guards(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
