"""Group and semigroup presentations.

Group presentations store freely and cyclically reduced relators.
Symmetrization (closure under cyclic shifts and inversion) feeds both
the small-cancellation check and the length-reducing solver in
:mod:`wordproblem.dehn`.

Pieces are measured as common prefixes of two distinct elements of the
symmetrized set; because that set is closed under cyclic shift, this is
equivalent to the common-subword formulation and easy to brute-force.

Text format, read by :func:`wordproblem.words.read_declarations`:

    gens: a b c          the generators, declared once
    rel: abAB            one relator per line (group presentations)
    eq: ac = ca          one equation per line (semigroup presentations);
                         both sides are nonempty words

The lines may come in any order.  A file may contain 'rel:' lines or
'eq:' lines, not both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Tuple, Union

from .words import (
    Word,
    alphabet_size,
    at_line,
    check_letters,
    check_word,
    cyclic_reduce,
    cyclic_shifts,
    format_word,
    invert,
    make_word,
    parse_plain,
    parse_word,
    read_declarations,
    spell,
)


@dataclass(frozen=True)
class GroupPresentation:
    """Generators and relators; relators are normalized at construction.

    Each relator is replaced by the core of its cyclic reduction;
    relators that collapse to the empty word are dropped.
    """

    n_gens: int
    relators: Tuple[Word, ...]

    def __post_init__(self):
        if self.n_gens < 1:
            raise ValueError("a presentation needs at least one generator")
        check_word(tuple(chain.from_iterable(self.relators)), self.n_gens)
        normalized = []
        for r in self.relators:
            core, _ = cyclic_reduce(r)
            if core:
                normalized.append(core)
        object.__setattr__(self, "relators", tuple(normalized))


@dataclass(frozen=True)
class SymmetrizedRelators:
    """Relator set closed under cyclic permutation and inversion."""

    words: Tuple[Word, ...]

    def __post_init__(self):
        # a word is cyclically reduced when no cyclically adjacent pair of
        # its letters cancels: same index, and (the letters being checked)
        # the other sign
        check_word(tuple(chain.from_iterable(self.words)))
        for w in self.words:
            for x, y in zip(w, w[1:] + w[:1]):
                if x[0] == y[0] and x[1] != y[1]:
                    raise ValueError(f"{format_word(w)} is not cyclically reduced")

    @cached_property
    def _hash(self) -> int:
        # the tuple hash walks every letter, and Dehn's solver looks a set
        # up by it on every call; it is taken on first use, so that
        # symmetrize does not pay it
        return hash(self.words)

    def __hash__(self):
        return self._hash


def _semigroup_word(text: str, size: int) -> str:
    if not text:
        raise ValueError("empty equation side (a semigroup word is nonempty)")
    return check_letters(text, size)


@dataclass(frozen=True)
class SemigroupPresentation:
    """Positive-word equations over a finite alphabet.

    Equations with equal sides are legal but useless; they are reported
    by :meth:`trivial_equations` rather than rejected.
    """

    alphabet_size: int
    equations: Tuple[Tuple[str, str], ...]

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ValueError("alphabet must be nonempty")
        for lhs, rhs in self.equations:
            _semigroup_word(lhs, self.alphabet_size)
            _semigroup_word(rhs, self.alphabet_size)

    def trivial_equations(self) -> list[int]:
        return [i for i, (g, h) in enumerate(self.equations) if g == h]


Presentation = Union[GroupPresentation, SemigroupPresentation]


def symmetrize(p: GroupPresentation) -> SymmetrizedRelators:
    """All cyclic shifts of all relators and of their inverses, deduplicated.

    Order is deterministic: relators in presentation order, shifts of
    the relator before shifts of its inverse, first occurrence kept.
    Dehn's solver indexes this set, so its relator indices are
    positions in it.
    """
    return SymmetrizedRelators(tuple(dict.fromkeys(
        shift
        for r in p.relators
        for variant in (r, invert(r))
        for shift in cyclic_shifts(variant)
    )))


def _common_prefix_len(u, v) -> int:
    n = min(len(u), len(v))
    for i in range(n):
        if u[i] != v[i]:
            return i
    return n


def max_piece_ratio(s: SymmetrizedRelators) -> Fraction:
    """Largest |piece| / |shorter host relator| over the symmetrized set.

    A piece is a common prefix of two distinct elements.  A presentation
    satisfies the metric small-cancellation condition C'(lambda) exactly
    when this ratio is < lambda; Dehn's solver certifies with it.

    For a pair u, v with common prefix length k <= min(|u|, |v|),
    k / min(|u|, |v|) is the larger of k/|u| and k/|v|; so the maximum
    over pairs is the maximum over words u of (longest common prefix of
    u with any other word) / |u|, and in sorted order that longest
    prefix is shared with a neighbour.  O(N log N) comparisons.
    """
    if not s.words:
        raise ValueError("empty symmetrized relator set")
    num, den = 0, 1
    ws = sorted(s.words)
    for u, v in zip(ws, ws[1:]):
        piece = _common_prefix_len(u, v)
        if piece:
            for host in (len(u), len(v)):
                if piece * den > num * host:
                    num, den = piece, host
    return Fraction(num, den)


def surface_presentation(genus: int = 2) -> GroupPresentation:
    """Orientable surface group: 2g generators, one relator of length 4g
    (the product of the g commutators [a_i, b_i])."""
    if genus < 1:
        raise ValueError("genus must be >= 1")
    relator = []
    for i in range(genus):
        a, b = 2 * i, 2 * i + 1
        relator += [(a, 1), (b, 1), (a, -1), (b, -1)]
    return GroupPresentation(2 * genus, (make_word(relator),))


def free_abelian_presentation(rank: int = 2) -> GroupPresentation:
    """Z^rank: all pairwise commutators as relators."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    relators = []
    for i in range(rank):
        for j in range(i + 1, rank):
            relators.append(make_word([(i, 1), (j, 1), (i, -1), (j, -1)]))
    return GroupPresentation(rank, tuple(relators))


def higman_truncated_presentation(exponents=(1,)) -> GroupPresentation:
    """Four generators a,b,c,d with a^-e b a^e = c^-e d c^e for each given e.

    The defining exponent set is an explicit finite truncation supplied
    by the caller; each relator is a^-e b a^e (c^-e d c^e)^-1.
    """
    exps = sorted(set(exponents))
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be >= 0")
    relators = []
    for e in exps:
        letters = []
        letters += [(0, -1)] * e + [(1, 1)] + [(0, 1)] * e  # a^-e b a^e
        letters += [(2, -1)] * e + [(3, -1)] + [(2, 1)] * e  # (c^-e d c^e)^-1
        relators.append(make_word(letters))
    return GroupPresentation(4, tuple(relators))


def ceijtin_presentation() -> SemigroupPresentation:
    """The five-letter semigroup whose word problem is undecidable on the
    fixed word aaa; here it serves as a stress case for bounded search."""
    equations = (
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
    return SemigroupPresentation(5, equations)


CATALOG = {
    # name -> (builder, the one parameter it takes or None); defaults are
    # the builders' own
    "surface": (surface_presentation, "genus"),
    "torus": (lambda: GroupPresentation(2, (parse_word("abAB"),)), None),
    # dihedral group of order 10: sigma^5, tau^2, and tau*sigma*tau*sigma
    # (the relator form of tau*sigma = sigma^-1*tau)
    "dihedral5": (
        lambda: GroupPresentation(2, tuple(map(parse_word, ("aaaaa", "bb", "baba")))), None
    ),
    "free_abelian": (free_abelian_presentation, "rank"),
    # catalog convention: trefoil knot group as <x,y | x^2 y^-3>
    "trefoil": (lambda: GroupPresentation(2, (parse_word("aaBBB"),)), None),
    "higman_truncated": (higman_truncated_presentation, "exponents"),
    "ceijtin": (ceijtin_presentation, None),
}


def catalog(name: str, **params) -> Presentation:
    """The presentation of that name in :data:`CATALOG`, built with the
    given parameter if any; a parameter the entry does not take is an
    error."""
    if name not in CATALOG:
        raise ValueError(f"unknown catalog entry {name!r}; known: {', '.join(CATALOG)}")
    build, param = CATALOG[name]
    extra = sorted(set(params) - {param})
    if extra and param is None:
        raise ValueError(f"catalog entry {name!r} takes no parameters")
    if extra:
        raise ValueError(f"catalog entry {name!r} takes only {param}, not {', '.join(extra)}")
    return build(**params)


def _gens_line(n: int) -> str:
    return "gens: " + " ".join(spell(range(n)))


def format_presentation(p: Presentation) -> str:
    lines = []
    if isinstance(p, GroupPresentation):
        lines.append(_gens_line(p.n_gens))
        for r in p.relators:
            lines.append(f"rel: {format_word(r)}")
    else:
        lines.append(_gens_line(p.alphabet_size))
        for g, h in p.equations:
            lines.append(f"eq: {g} = {h}")
    return "\n".join(lines) + "\n"


def _equation(value: str, size: int) -> Tuple[str, str]:
    """The two checked sides of the value of an 'eq:' line."""
    sides = [parse_plain(side.strip()) for side in value.split("=")]
    if len(sides) != 2:
        raise ValueError("expected 'eq: g = h'")
    return _semigroup_word(sides[0], size), _semigroup_word(sides[1], size)


def parse_presentation(text: str) -> Presentation:
    """Parse the text format; rejects letters not declared on the gens line."""
    found = read_declarations(text, once=("gens",), many=("rel", "eq"))
    if not found["gens"]:
        raise ValueError("missing 'gens:' line")
    n_gens = at_line(*found["gens"][0], alphabet_size)
    relators = tuple(at_line(*line, parse_word, n_gens) for line in found["rel"])
    equations = tuple(at_line(*line, _equation, n_gens) for line in found["eq"])
    if relators and equations:
        raise ValueError("file mixes group relators and semigroup equations")
    if equations:
        return SemigroupPresentation(n_gens, equations)
    return GroupPresentation(n_gens, relators)
