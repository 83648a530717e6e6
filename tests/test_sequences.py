import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordproblem import sequences
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


def all_lengths_is_power_free(w, k):
    """The XOR scan over every block length, without the sampled blocks
    that pick the lengths worth scanning."""
    data = w.encode("ascii")
    n = len(data)
    word = int.from_bytes(data, "big")
    best = None
    for p in range(1, n // k + 1):
        run = (k - 1) * p
        end = n - p if best is None else best[0] + run - 1
        diff = (word ^ (word >> (8 * p))).to_bytes(n, "big")[p:]
        i = diff.find(b"\0" * run, 0, end)
        if i >= 0:
            best = (i, p)
            if i == 0:
                break
    return (True, None) if best is None else (False, best)


def fibonacci_prefix(n):
    a, b = "0", "01"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


FACTOR_SOURCES = {
    "tm": thue_morse_prefix(4096),
    "sf": square_free_ternary_prefix(4096),
    "fib": fibonacci_prefix(4096),
}


@st.composite
def long_words_with_powers(draw):
    """A word of up to 1500 letters and a power k in 2-5: a factor of the
    Thue-Morse, square-free ternary or Fibonacci word, or a random word
    over 1-4 letters.  Half the words get a run of at least k copies of
    a block of up to 150 letters planted at the start, middle or end, so
    blocks pass 16 letters and runs pass one level's window."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(0, 1500))
    source = draw(st.sampled_from(("tm", "sf", "fib", "random")))
    if source == "random":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        letters = "0123"[: draw(st.integers(1, 4))]
        word = "".join(rng.choice(letters) for _ in range(n))
    else:
        text = FACTOR_SOURCES[source]
        at = draw(st.integers(0, len(text) - n))
        word = text[at : at + n]
    if draw(st.booleans()):
        size = draw(st.integers(1, 150))
        start = draw(st.integers(0, max(0, len(word) - size)))
        block = word[start : start + size] or "0"
        run = block * (k + draw(st.integers(0, 3))) + block[: draw(st.integers(0, size))]
        cut = draw(st.sampled_from((0, len(word) // 2, len(word))))
        word = word[:cut] + run + word[cut:]
    return word, k


@given(long_words_with_powers())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_sampled_levels_match_the_scan_over_every_length(case):
    word, k = case
    assert is_power_free(word, k) == all_lengths_is_power_free(word, k)


@pytest.mark.parametrize("word", [
    "0" * 32768,
    "01" * 16384,
    "".join(random.Random(7).choice("01") for _ in range(4096)),
    "1000" + thue_morse_prefix(4096),
    thue_morse_prefix(4096)[:100] + "0110" * 3 + thue_morse_prefix(4096),
    thue_morse_prefix(4096) + "0110" * 5,
], ids=["unary", "period-2", "random-binary", "early-witness", "planted-cube", "late-power"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sampled_levels_match_the_scan_on_fixed_words(word, k):
    assert is_power_free(word, k) == all_lengths_is_power_free(word, k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_exact_powers_at_the_level_edges(k):
    # a block of p letters repeated exactly k times at position i, between
    # square-free words over other letters; p at both ends of a level and
    # i at every edge of the sampled blocks, with the run ending the word
    # or not, and with a power of block length 1 inside the block, which
    # the scan finds first and which bounds the blocks a level samples
    background = square_free_ternary_prefix(1000)
    blocks = square_free_ternary_prefix(3000)[1000:].translate(str.maketrans("012", "345"))
    for lo in (16, 32, 64):
        b = ((k - 1) * lo + 1) // 2
        for p in (lo, lo + 1, 2 * lo - 1):
            for block in (blocks[:p], ("6" + "7" * k + blocks)[:p]):
                for i in sorted({0, 1, b - 1, b, b + 1, 2 * b - 1, 2 * b}):
                    for tail in (0, 200):
                        word = background[:i] + block * k + background[i : i + tail]
                        expected = (False, (i, p))
                        assert is_power_free(word, k) == expected, (lo, p, i, tail)
                        assert all_lengths_is_power_free(word, k) == expected


def lengths_scanned(monkeypatch, word, k):
    """The block lengths is_power_free hands to its per-length scan."""
    seen = []
    scan = sequences._power_at

    def counting(word, n, p, run, end):
        seen.append(p)
        return scan(word, n, p, run, end)

    monkeypatch.setattr(sequences, "_power_at", counting)
    result = is_power_free(word, k)
    monkeypatch.setattr(sequences, "_power_at", scan)
    return result, seen


@pytest.mark.parametrize("prefix, k", [(thue_morse_prefix, 3), (square_free_ternary_prefix, 2)])
def test_lengths_scanned_grow_by_a_constant_per_doubling(monkeypatch, prefix, k):
    # all n // k lengths would be 341 (TM) and 512 (ternary) at 1k letters
    counts = []
    for n in (1024, 2048, 4096, 8192, 16384):
        result, seen = lengths_scanned(monkeypatch, prefix(n), k)
        assert result == (True, None)
        assert seen == sorted(set(seen))
        counts.append(len(seen))
    assert counts[0] <= 40, counts
    assert all(b - a <= 4 for a, b in zip(counts, counts[1:])), counts


def test_a_power_at_the_start_ends_the_scan(monkeypatch):
    assert lengths_scanned(monkeypatch, "0" * 4096, 3) == ((False, (0, 1)), [1])


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
