"""Repetition-free sequences and their power-freeness checker.

Words are digit strings ('0', '1', ...).  The cube-free binary sequence
is built by doubling, each prefix of length 2^k followed by its
complement; the test suite checks it against the fixed point of the
substitution 0->01, 1->10 and against the bit parity of the position
index.  The square-free ternary sequence comes from the
substitution 0->012, 1->02, 2->1 and is validated by the checker rather
than taken on faith.  The checker's inner loops run at C level
(big-integer XOR and ``bytes.find``).  On a word of length n it costs
O(n log n) for the block finds that pick the candidate block lengths,
plus one O(n) scan per candidate; a word where most lengths are
candidates still costs O(n^2/k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

_DIGITS = "0123456789"


@dataclass(frozen=True)
class Morphism:
    """Per-letter images over the digits '0', '1', ... (one per image);
    prolongable at 0 means images[0] starts with '0' and has length >= 2,
    which makes the fixed point well defined."""

    images: Tuple[str, ...]

    def __post_init__(self):
        if not self.images:
            raise ValueError("a morphism needs at least one image")
        letters = _DIGITS[: len(self.images)]
        for img in self.images:
            if not img:
                raise ValueError("images must be nonempty (positive words)")
            for c in img:
                if c not in letters:
                    raise ValueError(f"image letter {c!r} outside alphabet")

    def apply(self, word: str) -> str:
        letters = _DIGITS[: len(self.images)]
        stray = word.lstrip(letters)
        if stray:
            raise ValueError(f"letter {stray[0]!r} outside alphabet")
        return word.translate(self._table())

    def _table(self) -> dict:
        return str.maketrans(dict(zip(_DIGITS, self.images)))

    def is_prolongable(self) -> bool:
        return self.images[0][0] == "0" and len(self.images[0]) >= 2


THUE_MORSE_MORPHISM = Morphism(("01", "10"))
SQUARE_FREE_MORPHISM = Morphism(("012", "02", "1"))


def fixed_point_prefix(m: Morphism, n: int) -> str:
    """First n letters of the unique fixed point starting with 0.

    Iterating the morphism once more only extends the emitted prefix.
    The word stays in the alphabet by construction, so the iteration
    translates it without ``apply``'s letter check.
    """
    if n < 0:
        raise ValueError("length must be >= 0")
    if not m.is_prolongable():
        raise ValueError("morphism is not prolongable at 0")
    table = m._table()
    word = "0"
    while len(word) < n:
        word = word.translate(table)
    return word[:n]


_FLIP = str.maketrans("01", "10")


def thue_morse_prefix(n: int) -> str:
    """Cube-free binary sequence, built by doubling: the first 2^(k+1)
    letters are the first 2^k followed by their complement."""
    if n < 0:
        raise ValueError("length must be >= 0")
    word = "0"
    while len(word) < n:
        word += word.translate(_FLIP)
    return word[:n]


def square_free_ternary_prefix(n: int) -> str:
    return fixed_point_prefix(SQUARE_FREE_MORPHISM, n)


def _power_at(word: int, n: int, p: int, run: int, end: int) -> int:
    """First position i with i + run <= end from which `run` letters in a
    row each equal the letter p on, or -1.

    The word is XORed with itself shifted by p, as one big integer: byte
    j of the result is zero iff letters j and j+p agree.
    """
    diff = (word ^ (word >> (8 * p))).to_bytes(n, "big")[p:]
    return diff.find(b"\0" * run, 0, end)


def _candidates(data: bytes, k: int, lo: int, hi: int, last: int) -> list:
    """The block lengths p in [lo, hi] that may have a k-th power at a
    position up to `last`, in increasing order.

    A k-th power of block length p >= lo at position i is a run of
    (k-1)*p >= 2b-1 letters each equal to the letter p on, where
    b = ((k-1)*lo + 1) // 2.  So the run covers the aligned block
    data[j:j+b] with j the first multiple of b at or after i, and that
    block occurs again at j + p.  Each aligned block up to last + b - 1
    is looked for in the window where such a copy can start.
    """
    b = ((k - 1) * lo + 1) // 2
    found = set()
    for j in range(0, last + b, b):
        block = data[j : j + b]
        stop = j + hi + b
        s = data.find(block, j + lo, stop)
        while s >= 0:
            found.add(s - j)
            s = data.find(block, s + 1, stop)
        if len(found) > hi - lo:
            break
    return sorted(found)


def is_power_free(w: str, k: int) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Scan for a block repeated k times in a row.

    Returns (True, None) if no such repetition exists, otherwise
    (False, (position, block length)) for the first repetition in
    lexicographic (position, block length) order.  k=2 checks
    square-freeness, k=3 cube-freeness.

    For each block length p the word is XORed with itself shifted by p,
    as one big integer: byte j of the result is zero iff letters j and
    j+p agree, so a k-th power of block length p at position i is a run
    of (k-1)*p zero bytes at i, found by ``bytes.find``.  Block lengths
    below 16 are all scanned.  Longer ones go by levels [L, 2L) with
    L = 16, 32, ..., each after the shorter lengths: only the lengths
    that one of the level's sampled blocks finds again (``_candidates``)
    can hold a power, and only those are scanned.  The lengths still go
    in increasing order under the same bound, so the witness is the one
    a scan of every length finds.  That costs O(n log n) for the finds,
    plus one O(n) scan per candidate length; a word with many
    candidates still costs O(n^2/k).
    """
    if k < 2:
        raise ValueError("power must be >= 2")
    data = w.encode("ascii")
    n = len(data)
    word = int.from_bytes(data, "big")
    best = None
    lengths = range(1, min(n // k, 15) + 1)
    lo = 16
    while True:
        for p in lengths:
            run = (k - 1) * p
            # a repetition at a position past the best one cannot win, and
            # one at the best position has a longer block, so only a
            # strictly smaller position may replace it
            end = n - p if best is None else best[0] + run - 1
            i = _power_at(word, n, p, run, end)
            if i >= 0:
                best = (i, p)
                if i == 0:
                    return False, best
        if lo > n // k:
            break
        last = n - k * lo if best is None else min(n - k * lo, best[0] - 1)
        lengths = _candidates(data, k, lo, min(2 * lo - 1, n // k), last)
        lo *= 2
    return (True, None) if best is None else (False, best)
