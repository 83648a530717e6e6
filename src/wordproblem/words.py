"""Free-group word algebra and the shared text conventions.

A group word is a flat tuple of letters, each letter a GenLetter, the
pair (generator index, sign).  Generator indices are 0-based; sign +1 is
the generator itself, -1 its inverse.  :func:`distinct_letters` is the
one definition of a well-formed word, and of a word over a given number
of generators; :func:`check_word` returns the word it accepts.  The
textual form writes generator i as the lowercase letter LETTERS[i] and
its inverse as the uppercase letter, so "abA" is a*b*a^-1.  The empty
word prints as "1".

Text letters also have one code alphabet: generator i is chr(2i) and its
inverse chr(2i + 1), so two neighbours cancel exactly when their codes
differ only in the lowest bit, as in the Dehn solver's codes.
:func:`text_code` checks a text word and turns it into its code string,
one ``str.translate`` each, :func:`code_text` turns codes back, and
:func:`free_reduce_code` is the free-reduction kernel on code strings.
:func:`parse_word` decodes the checked codes into letters, and
:func:`format_word` maps letters to text in one pass.

The four text formats of the package (presentations, rewriting systems,
machines, tree rules) are read in three steps: :func:`read_declarations`
collects the 'key: value' lines of the known keys, each parser checks
that its required keys are there, and each value is parsed under
:func:`at_line`, which names the line in any error.  Alphabets are
checked by :func:`alphabet_size` and :func:`check_letters`.
Plain-letter words (rewriting, tapes, equations) are strings, and
:func:`parse_plain`/:func:`format_plain` state that "1" is their empty
word too.  Formatters name letters through :func:`spell`, which refuses
an index that has no letter.

All functions here are pure and operate on immutable tuples and strings.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

LETTERS = "abcdefghijklmnopqrstuvwxyz"


class GenLetter(NamedTuple):
    index: int
    sign: int  # +1 or -1

    def inverse(self) -> "GenLetter":
        return GenLetter(self.index, -self.sign)


Word = Tuple[GenLetter, ...]

EPSILON: Word = ()


def distinct_letters(w: Word, n_gens: Optional[int] = None) -> Dict[GenLetter, None]:
    """The distinct letters of w in first-occurrence order, once every
    letter is a GenLetter with sign +1 or -1 and index >= 0, and index <
    n_gens when n_gens is given; else name the first letter that is not."""
    # A plain tuple equals the GenLetter with the same fields and would
    # hide behind it in the dedup, so w is walked whole unless every
    # letter is a GenLetter; that walk raises at the first that is not.
    letters = dict.fromkeys(w) if {GenLetter}.issuperset(map(type, w)) else w
    for letter in letters:
        if not isinstance(letter, GenLetter):
            raise ValueError(f"malformed letter {letter!r}")
        index, sign = letter
        if sign not in (1, -1) or index < 0:
            raise ValueError(f"malformed letter {letter!r}")
        if n_gens is not None and index >= n_gens:
            raise ValueError(f"letter index {index} out of range for {n_gens} generators")
    return letters


def check_word(w: Word, n_gens: Optional[int] = None) -> Word:
    """Return w if :func:`distinct_letters` accepts it."""
    distinct_letters(w, n_gens)
    return w


def make_word(letters: Iterable[Tuple[int, int]]) -> Word:
    """Build a checked word from (index, sign) pairs."""
    return check_word(tuple(GenLetter(index, sign) for index, sign in letters))


def concat(*words: Word) -> Word:
    """Plain concatenation; no reduction is performed."""
    return tuple(chain.from_iterable(words))


def free_reduce(w: Word) -> Word:
    """Remove adjacent letter/inverse pairs until none remain.

    Idempotent and length-nonincreasing; the result represents the same
    free-group element.  Letters are compared by position, (index, sign),
    so a plain pair cancels as the GenLetter it equals would.
    """
    stack: list[GenLetter] = []
    for letter in w:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def is_freely_reduced(w: Word) -> bool:
    return not any(x[0] == y[0] and x[1] == -y[1] for x, y in zip(w, w[1:]))


def invert(w: Word) -> Word:
    """Reverse the word and flip every sign."""
    return tuple(letter.inverse() for letter in reversed(w))


def cyclic_reduce(w: Word) -> Tuple[Word, Word]:
    """Split w into (core, u) with w freely equal to u * core * u^-1.

    The core is cyclically reduced: freely reduced and with its first
    letter not the inverse of its last.  Conjugating letters are peeled
    from the ends before free reduction, so a word that collapses to the
    empty word reports the first half of its cancellation tower as the
    conjugator (e.g. a*b*b^-1*a^-1 gives core=1, u=ab).  A round peels
    with two indices and slices once; the second round starts freely
    reduced and is the last, so the cost is linear in |w|.
    """
    core = w
    conjugator: list[GenLetter] = []
    while True:
        i, j = 0, len(core)
        while j - i >= 2 and core[i] == core[j - 1].inverse():
            i += 1
            j -= 1
        conjugator += core[:i]
        core = core[i:j]
        reduced = free_reduce(core)
        if reduced == core:
            return core, tuple(conjugator)
        core = reduced


def is_cyclically_reduced(w: Word) -> bool:
    if not is_freely_reduced(w):
        return False
    return len(w) < 2 or w[0] != w[-1].inverse()


def cyclic_shifts(w: Word) -> list[Word]:
    """All rotations of w, starting with w itself."""
    return [w[k:] + w[:k] for k in range(max(len(w), 1))]


def exponent_vector(w: Word, n_gens: int) -> Tuple[int, ...]:
    """Signed count of each generator: the image of w in Z^n_gens."""
    counts = [0] * n_gens
    for letter in check_word(w, n_gens):
        counts[letter.index] += letter.sign
    return tuple(counts)


def format_word(w: Word) -> str:
    """Textual form; the empty word renders as "1".

    A letter that check_word refuses is refused with its message, and an
    index without a text letter with spell's.
    """
    if not w:
        return "1"
    # a plain tuple equals the GenLetter with the same fields, so the types
    # are checked before the table is used
    try:
        if {GenLetter}.issuperset(map(type, w)):
            return "".join(map(_TEXT_OF.__getitem__, w))
    except KeyError:
        pass
    # every letter check_word accepts whose index has a text letter is in
    # the table, so spell refuses some index here
    spell([letter.index for letter in check_word(w)])
    raise AssertionError(f"no text for {w!r}")


# The code alphabet: text letter i is chr(2i), its inverse chr(2i + 1).
_TEXT = "".join(c + c.upper() for c in LETTERS)
_CODES = "".join(map(chr, range(len(_TEXT))))
_TO_CODE = str.maketrans(_TEXT, _CODES)
_TO_TEXT = str.maketrans(_CODES, _TEXT)
_NOT_TEXT = str.maketrans("", "", _TEXT)  # deletes the text letters
_DECODED = {code: GenLetter(k >> 1, -1 if k & 1 else 1) for k, code in enumerate(_CODES)}
_TEXT_OF = dict(zip(_DECODED.values(), _TEXT))


def text_code(text: str, n_gens: Optional[int] = None) -> str:
    """The code string of a text word; "1" (or "") is the empty word.

    Surrounding whitespace is ignored.  If n_gens is given, letters
    beyond it are rejected.
    """
    text = text.strip()
    if text in ("", "1"):
        return ""
    # translate keeps what is no text letter, and some of that would pass
    # for codes ('0' is chr(48), the code of 'y'), so anything left once
    # the letters are deleted is an error
    bad = text.translate(_NOT_TEXT)
    if bad:
        raise ValueError(f"invalid character {bad[0]!r} in word {text!r}")
    code = text.translate(_TO_CODE)
    if n_gens is not None:
        # the codes of generators 0..n_gens-1 are the bytes below 2 * n_gens
        kept = bytes(range(min(2 * n_gens, len(_TEXT))))
        outside = code.encode("ascii").translate(None, kept)
        if outside:
            c = _TEXT[outside[0]]
            raise ValueError(f"letter {c!r} out of range for {n_gens} generators")
    return code


def code_text(code: str) -> str:
    """Textual form of a code string; the empty word renders as "1"."""
    return code.translate(_TO_TEXT) or "1"


def parse_word(text: str, n_gens: Optional[int] = None) -> Word:
    """Parse the textual form; "1" (or "") is the empty word.

    If n_gens is given, letters beyond it are rejected.
    """
    return tuple(map(_DECODED.__getitem__, text_code(text, n_gens)))


def free_reduce_code(w: str) -> str:
    """free_reduce on a code string, in which a letter cancels the next
    one exactly when their codes differ only in the lowest bit."""
    # most words arrive reduced, and a pass in C finds that they are: XORed
    # with itself one letter on as one big integer, as in
    # sequences.is_power_free, each 4-byte unit after the first holds two
    # neighbours' codes XORed, which is 1 exactly where they cancel.
    # Decoding the units back keeps them aligned; "replace" turns those
    # that are no character into U+FFFD.  The stack compares ords: a
    # translated inverse string would need a per-code flip table.
    data = w.encode("utf-32-be", "surrogatepass")
    word = int.from_bytes(data, "big")
    diff = (word ^ (word >> 32)).to_bytes(len(data), "big")
    if "\1" not in diff[4:].decode("utf-32-be", "replace"):
        return w
    out = []
    top = -2  # the code on top of the stack; -2 cancels no code
    for c in w:
        code = ord(c)
        if code ^ 1 == top:
            out.pop()
            top = ord(out[-1]) if out else -2
        else:
            out.append(c)
            top = code
    return "".join(out)


def commutator(a: Word, b: Word) -> Word:
    """a * b * a^-1 * b^-1, freely reduced."""
    return free_reduce(concat(a, b, invert(a), invert(b)))


# spell goes through bytes.translate because TmEncoding.config_word spells
# a whole tape on every simulated machine step.
_SPELLING = bytes.maketrans(bytes(range(len(LETTERS))), LETTERS.encode("ascii"))


def spell(indices: Iterable[int]) -> str:
    """The letters with these 0-based indices.  The text formats name only
    the 26 letters of LETTERS, so any other index is an error."""
    indices = tuple(indices)
    try:
        codes = bytes(indices)  # one byte per index; refuses one outside 0..255
    except ValueError:
        codes = bytes([255])
    if max(codes, default=0) >= len(LETTERS):
        bad = next(i for i in indices if not 0 <= i < len(LETTERS))
        raise ValueError(f"letter index {bad} outside the {len(LETTERS)} text letters")
    return codes.translate(_SPELLING).decode("ascii")


def declarations(text: str) -> Iterator[Tuple[int, str, str]]:
    """(line number, key, value) for each 'key: value' line of text.

    '#' starts a comment; blank and comment-only lines are skipped.  The
    key ends at the first ':', so the value may contain more of them.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key: value', got {line!r}")
        yield lineno, key.strip(), value.strip()


def read_declarations(
    text: str, once: Tuple[str, ...], many: Tuple[str, ...]
) -> Dict[str, List[Tuple[int, str]]]:
    """(line number, value) of each declaration of each key, in file order.

    Keys in once may be declared at most once and keys in many any
    number of times; any other key is an error.  Declarations may come
    in any order, so a value is parsed only after the whole file is read.
    """
    found: Dict[str, List[Tuple[int, str]]] = {key: [] for key in (*once, *many)}
    for lineno, key, value in declarations(text):
        if key not in found:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in once and found[key]:
            raise ValueError(f"line {lineno}: repeated '{key}:'")
        found[key].append((lineno, value))
    return found


def at_line(lineno: int, value: object, parse: Callable, *args):
    """parse(value, *args), with the line number put before any error."""
    try:
        return parse(value, *args)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def alphabet_size(value: str) -> int:
    """Size of an alphabet declared as consecutive letters from 'a'."""
    names = value.split()
    if not names or names != list(LETTERS[: len(names)]):
        raise ValueError(
            f"expected consecutive letters from 'a' (at most {len(LETTERS)}), got {value!r}"
        )
    return len(names)


def parse_plain(text: str) -> str:
    """A plain-letter word (rewriting, tapes, equations); "1" is the empty word."""
    return "" if text == "1" else text


def format_plain(w: str) -> str:
    """Textual form of a plain-letter word; the empty word renders as "1"."""
    return w or "1"


def check_letters(text: str, size: int) -> str:
    """Return text if it uses only the first size letters; else name the
    first letter that falls outside."""
    allowed = LETTERS[:size]
    for c in text:
        if c not in allowed:
            raise ValueError(f"letter {c!r} outside alphabet of size {size}")
    return text
