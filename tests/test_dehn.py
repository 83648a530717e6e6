import functools
import random
from itertools import chain, combinations
from os.path import commonprefix
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from wordproblem import dehn
from wordproblem.cayley import to_cayley_graph, todd_coxeter
from wordproblem.dehn import (
    DehnOutcome,
    DehnStep,
    Verdict,
    dehn_solve,
    dehn_step,
    replay_dehn_trace,
)
from wordproblem.presentations import (
    CATALOG,
    GroupPresentation,
    SymmetrizedRelators,
    catalog,
    max_piece_ratio,
    symmetrize,
)
from wordproblem.words import (
    EPSILON,
    GenLetter,
    concat,
    cyclic_reduce,
    exponent_vector,
    format_word,
    free_reduce,
    free_reduce_code,
    invert,
    letter_codes,
    make_word,
    parse_word,
)


def w(text):
    return parse_word(text)


SURFACE2 = catalog("surface", genus=2)
SYM2 = symmetrize(SURFACE2)


def has_majority_subword(word, sym):
    """Independent oracle: enumerate every subword of the word against
    every symmetrized relator prefix."""
    for start in range(len(word)):
        for end in range(start + 1, len(word) + 1):
            sub = word[start:end]
            for r in sym.words:
                if len(sub) <= len(r) and r[: len(sub)] == sub and 2 * len(sub) > len(r):
                    return True
    return False


def oracle_dehn_solve(word, p):
    """The solver as first written: after every replacement it freely
    reduces the whole word and rescans from position 0, trying every
    relator that starts with the letter at each position."""
    s = symmetrize(p)
    current = free_reduce(word)
    trace = []
    while current and s.words:
        found = None
        for pos in range(len(current)):
            best_len, best_idx = 0, -1
            for idx, r in enumerate(s.words):
                m = 0
                while m < min(len(current) - pos, len(r)) and current[pos + m] == r[m]:
                    m += 1
                if 2 * m > len(r) and m > best_len:
                    best_len, best_idx = m, idx
            if best_idx >= 0:
                found = DehnStep(best_idx, pos, best_len)
                break
        if found is None:
            break
        b = s.words[found.relator][found.replaced :]
        current = free_reduce(
            current[: found.pos] + invert(b) + current[found.pos + found.replaced :]
        )
        trace.append(found)
    if not current:
        verdict = Verdict.TRIVIAL
    elif not s.words or max_piece_ratio(s) < Fraction(1, 6):
        verdict = Verdict.NONTRIVIAL_CERTIFIED
    else:
        verdict = Verdict.INCONCLUSIVE
    return DehnOutcome(verdict, tuple(trace), current)


# The solver on letter tuples, as it was before it ran on code strings:
# the same index, scan and seam reduction, each step rebuilding the tuple.


def tuple_majority_index(s):
    """[(h, {r[:h]: [(idx, r), ...]})] with h = |r|//2 + 1, by increasing h."""
    groups = {}
    for idx, r in enumerate(s.words):
        h = len(r) // 2 + 1
        groups.setdefault(h, {}).setdefault(r[:h], []).append((idx, r))
    return sorted(groups.items())


def tuple_scan(word, start, index):
    n = len(word)
    for pos in range(start, n):
        best = 0
        best_idx = -1
        for h, table in index:
            if pos + h > n:
                break
            hits = table.get(word[pos : pos + h])
            if hits is None:
                continue
            for idx, r in hits:
                m = h
                end = min(n - pos, len(r))
                while m < end and word[pos + m] == r[m]:
                    m += 1
                if m > best or (m == best and idx < best_idx):
                    best, best_idx = m, idx
        if best_idx >= 0:
            return DehnStep(best_idx, pos, best)
    return None


def tuple_cancels(x, y):
    return x.index == y.index and x.sign == -y.sign


def tuple_replace(word, s, step):
    mid = invert(s.words[step.relator][step.replaced :])
    left = step.pos
    right = step.pos + step.replaced
    j = 0
    while left and j < len(mid) and tuple_cancels(word[left - 1], mid[j]):
        left -= 1
        j += 1
    t = len(mid)
    while t > j and right < len(word) and tuple_cancels(mid[t - 1], word[right]):
        t -= 1
        right += 1
    if t == j:
        while left and right < len(word) and tuple_cancels(word[left - 1], word[right]):
            left -= 1
            right += 1
    return word[:left] + mid[j:t] + word[right:], left


def tuple_dehn_step(word, s):
    step = tuple_scan(word, 0, tuple_majority_index(s))
    if step is None:
        return None
    return tuple_replace(word, s, step)[0], step


def tuple_dehn_solve(word, p):
    s = symmetrize(p)
    current = free_reduce(word)
    trace = []
    if s.words:
        index = tuple_majority_index(s)
        reach = index[-1][0] - 1
        start = 0
        while current:
            step = tuple_scan(current, start, index)
            if step is None:
                break
            current, cut = tuple_replace(current, s, step)
            trace.append(step)
            start = max(0, cut - reach)
    if not current:
        verdict = Verdict.TRIVIAL
    elif not s.words or max_piece_ratio(s) < Fraction(1, 6):
        verdict = Verdict.NONTRIVIAL_CERTIFIED
    else:
        verdict = Verdict.INCONCLUSIVE
    return DehnOutcome(verdict, tuple(trace), current)


def random_reduced_word(rng, n_gens, max_len):
    word = make_word(
        [(rng.randrange(n_gens), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))]
    )
    return free_reduce(word)


class TestDehnStep:
    def test_whole_relator_cancels_in_one_step(self):
        result = dehn_step(SURFACE2.relators[0], SYM2)
        assert result is not None
        new_word, step = result
        assert new_word == EPSILON
        assert step.replaced == 8

    def test_no_step_on_short_commutator(self):
        # needs a match of length >= 5 against length-8 relators
        word = w("abAB")
        assert not has_majority_subword(word, SYM2)
        assert dehn_step(word, SYM2) is None

    def test_majority_oracle_agreement(self):
        rng = random.Random(21)
        for _ in range(300):
            word = random_reduced_word(rng, 4, 12)
            applies = dehn_step(word, SYM2) is not None if word else False
            assert applies == (has_majority_subword(word, SYM2) if word else False)

    def test_single_rule_group(self):
        p = GroupPresentation(1, (w("aaa"),))
        sym = symmetrize(p)
        result = dehn_step(w("aa"), sym)
        assert result is not None
        new_word, step = result
        assert new_word == w("A")
        assert step.replaced == 2

    def test_result_strictly_shorter(self):
        rng = random.Random(22)
        for _ in range(200):
            word = random_reduced_word(rng, 4, 20)
            result = dehn_step(word, SYM2)
            if result is not None:
                assert len(result[0]) < len(word)


class TestReplacementSeams:
    """Where b^-1 meets the letters around the replaced prefix a."""

    OPEN = SymmetrizedRelators((w("abcd"),))  # not closed under cyclic shifts

    def test_left_cancel_on_a_set_not_closed_under_shifts(self):
        # the letter before abc is b's last letter d, so D cancels it
        assert dehn_step(w("dabc"), self.OPEN) == ((), DehnStep(0, 1, 3))
        assert dehn_step(w("cdabc"), self.OPEN) == (w("c"), DehnStep(0, 2, 3))


@st.composite
def presentation_and_word(draw):
    """A random presentation, C'(1/6) or not, and a word of conjugated
    relators, relator prefixes and single letters over its generators."""
    if draw(st.booleans()):
        p = draw(st.sampled_from([SURFACE2, catalog("surface", genus=3)]))
    else:
        n_gens = draw(st.integers(1, 3))
        letters = st.builds(GenLetter, st.integers(0, n_gens - 1), st.sampled_from((1, -1)))
        relators = st.lists(st.lists(letters, max_size=10).map(tuple), max_size=3)
        p = GroupPresentation(n_gens, tuple(draw(relators)))
    letter = st.builds(GenLetter, st.integers(0, p.n_gens - 1), st.sampled_from((1, -1)))
    word = ()
    for _ in range(draw(st.integers(0, 8))):
        if p.relators and draw(st.integers(0, 3)):
            r = draw(st.sampled_from(p.relators))
            k = draw(st.integers(0, len(r) - 1))
            r = r[k:] + r[:k]
            r = invert(r) if draw(st.booleans()) else r
            u = tuple(draw(st.lists(letter, max_size=2)))
            word += u + r[: draw(st.integers(len(r) // 2, len(r)))] + invert(u)
        else:
            word += (draw(letter),)
    return p, word


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(presentation_and_word())
def test_inserted_inverse_never_cancels_on_a_closed_set(case):
    """Replayed on tuples, every step with b nonempty turns x*a*y into
    exactly x*b^-1*y, already freely reduced."""
    p, word = case
    s = symmetrize(p)
    outcome = dehn_solve(word, p)
    current = free_reduce(word)
    for step in outcome.trace:
        r = s.words[step.relator]
        end = step.pos + step.replaced
        assert current[step.pos : end] == r[: step.replaced]
        spliced = current[: step.pos] + invert(r[step.replaced :]) + current[end:]
        if step.replaced < len(r):
            assert free_reduce(spliced) == spliced, format_word(current)
        current = free_reduce(spliced)
    assert current == outcome.final_word


class TestDehnSolve:
    def test_product_of_conjugates_is_trivial(self):
        relator = SURFACE2.relators[0]
        u = w("cA")
        word = concat(u, relator, invert(u), relator)
        outcome = dehn_solve(word, SURFACE2)
        assert outcome.verdict is Verdict.TRIVIAL
        assert outcome.final_word == EPSILON

    def test_commutator_certified_nontrivial(self):
        outcome = dehn_solve(w("abAB"), SURFACE2)
        assert outcome.verdict is Verdict.NONTRIVIAL_CERTIFIED
        assert outcome.trace == ()

    def test_torus_is_inconclusive(self):
        # trivial in the group (zero exponent vector) but carries no
        # majority subword; the 1/4 piece ratio blocks certification
        outcome = dehn_solve(w("aabbAABB"), catalog("torus"))
        assert outcome.verdict is Verdict.INCONCLUSIVE
        assert exponent_vector(w("aabbAABB"), 2) == (0, 0)

    def test_torus_whole_relator_still_cancels(self):
        # the relator itself is its own majority subword, so it does
        # reduce even where the small-cancellation certificate fails
        outcome = dehn_solve(w("abAB"), catalog("torus"))
        assert outcome.verdict is Verdict.TRIVIAL

    def test_free_group_certifies_by_reduction(self):
        free = GroupPresentation(2, ())
        assert dehn_solve(w("abBA"), free).verdict is Verdict.TRIVIAL
        assert dehn_solve(w("ab"), free).verdict is Verdict.NONTRIVIAL_CERTIFIED

    def test_step_count_bounded_by_length(self):
        rng = random.Random(23)
        for _ in range(200):
            word = random_reduced_word(rng, 4, 24)
            outcome = dehn_solve(word, SURFACE2)
            assert len(outcome.trace) <= len(word)

    def test_trivial_implies_zero_exponent_vector(self):
        rng = random.Random(24)
        for _ in range(300):
            word = random_reduced_word(rng, 4, 16)
            outcome = dehn_solve(word, SURFACE2)
            if outcome.verdict is Verdict.TRIVIAL:
                assert exponent_vector(word, 4) == (0, 0, 0, 0)

    def test_letter_outside_the_presentation(self):
        # also a letter that cancels, and also without relators
        for word in ("z", "abz", "zZ"):
            with pytest.raises(ValueError,
                               match="^letter index 25 out of range for 4 generators$"):
                dehn_solve(w(word), SURFACE2)
        with pytest.raises(ValueError, match="^letter index 2 out of range for 2 generators$"):
            dehn_solve(w("ac"), GroupPresentation(2, ()))
        assert dehn_solve(w("dD"), SURFACE2).verdict is Verdict.TRIVIAL
        assert dehn_solve(EPSILON, SURFACE2).verdict is Verdict.TRIVIAL

    def test_malformed_letters(self):
        # each was certified nontrivial when letters were read as pairs
        for letter in (GenLetter(0, 2), GenLetter(-1, 1), GenLetter(0, 0)):
            message = f"^malformed letter {re.escape(repr(letter))}$"
            for p in (SURFACE2, GroupPresentation(2, ())):
                with pytest.raises(ValueError, match=message):
                    dehn_solve(w("ab") + (letter,), p)
                with pytest.raises(ValueError, match=message):
                    dehn_solve((letter,), p)

    def test_plain_pairs_follow_the_table(self):
        # a letter equal to one the prepared table codes takes its code; of
        # the letters the table lacks, the first that check_word refuses is
        # named, as it is when all letters are GenLetters
        assert dehn_solve(((0, 1), (1, 1)), SURFACE2) == dehn_solve(w("ab"), SURFACE2)
        with pytest.raises(ValueError, match=r"^malformed letter \(9, 1\)$"):
            dehn_solve(((0, 1), (9, 1)), SURFACE2)
        with pytest.raises(ValueError, match="^letter index 9 out of range for 4 generators$"):
            dehn_solve(((0, 1), GenLetter(9, 1)), SURFACE2)
        nine = GroupPresentation(9, SURFACE2.relators)
        with pytest.raises(ValueError, match=r"^malformed letter \(6, -1\)$"):
            dehn_solve(((0, 1), (2, -1), GenLetter(5, 1), (6, -1), (7, 1)), nine)
        # a presentation without relators codes no letter in advance
        with pytest.raises(ValueError, match=r"^malformed letter \(0, 1\)$"):
            dehn_solve(((0, 1), (9, 1)), GroupPresentation(2, ()))
        open_set = SymmetrizedRelators((w("abcd"),))
        assert dehn_step(((0, 1), (1, 1), (2, 1)), open_set) == dehn_step(w("abc"), open_set)
        with pytest.raises(ValueError, match=r"^malformed letter \(4, 1\)$"):
            dehn_step(((0, 1), (4, 1)), open_set)

    def test_codes_do_not_depend_on_the_number_of_generators(self):
        # generator 557,055 is the last whose codes fit one character
        p = GroupPresentation(10**6, ())
        word = w("abc") + (GenLetter(557_055, -1),)
        began = time.perf_counter()
        outcome = dehn_solve(word, p)
        assert time.perf_counter() - began < 0.1
        assert outcome == DehnOutcome(Verdict.NONTRIVIAL_CERTIFIED, (), word)
        assert dehn_solve(w("abcCBA"), p).verdict is Verdict.TRIVIAL
        for index in (557_056, 999_999):
            with pytest.raises(ValueError, match="^generator index past 557055, "
                                                 "the last a code character holds$"):
                dehn_solve(w("abc") + (GenLetter(index, -1),), p)

    def test_determinism(self):
        rng = random.Random(25)
        for _ in range(100):
            word = random_reduced_word(rng, 4, 16)
            first = dehn_solve(word, SURFACE2)
            second = dehn_solve(word, SURFACE2)
            assert first == second


class TestTraceReplay:
    def test_replay_reproduces_final_word(self):
        rng = random.Random(26)
        relator = SURFACE2.relators[0]
        for _ in range(200):
            u = random_reduced_word(rng, 4, 4)
            word = concat(u, relator, invert(u))
            outcome = dehn_solve(word, SURFACE2)
            assert replay_dehn_trace(word, SYM2, outcome.trace) == outcome.final_word

    def test_replay_reduces_plain_pairs(self):
        # the replay starts from free_reduce(w), which once left a plain
        # pair and its inverse in place
        word = ((0, 1), (0, -1))
        assert dehn_solve(word, SURFACE2) == DehnOutcome(Verdict.TRIVIAL, (), EPSILON)
        assert replay_dehn_trace(word, SYM2, ()) == EPSILON
        relator = SURFACE2.relators[0]
        plain = tuple(map(tuple, relator)) + ((1, 1), (1, -1))
        outcome = dehn_solve(plain, SURFACE2)
        assert outcome.verdict is Verdict.TRIVIAL
        assert replay_dehn_trace(plain, SYM2, outcome.trace) == EPSILON

    def test_replay_rejects_corrupted_step(self):
        relator = SURFACE2.relators[0]
        outcome = dehn_solve(relator, SURFACE2)
        assert outcome.trace
        bad = DehnStep(outcome.trace[0].relator, 3, 8)
        with pytest.raises(ValueError):
            replay_dehn_trace(relator, SYM2, (bad,))

    def test_replay_rejects_bad_relator_index_and_minority_prefix(self):
        word = SURFACE2.relators[0]
        with pytest.raises(ValueError, match="relator index out of range$"):
            replay_dehn_trace(word, SYM2, (DehnStep(len(SYM2.words), 0, 8),))
        with pytest.raises(ValueError, match="not a majority prefix of relator$"):
            replay_dehn_trace(word, SYM2, (DehnStep(0, 0, 4),))

    def test_replay_rejects_a_negative_position(self):
        # a slice at -7 of this 9-letter word starts where the solver's
        # step does, at 2, so the forged step once replayed to its result
        word = parse_word("ccabABcdd")
        outcome = dehn_solve(word, SURFACE2)
        assert outcome.trace == (DehnStep(0, 2, 6),)
        assert replay_dehn_trace(word, SYM2, outcome.trace) == parse_word("ccdcd")
        with pytest.raises(ValueError, match="word does not contain the prefix$"):
            replay_dehn_trace(word, SYM2, (DehnStep(0, -7, 6),))


def relator_laden_word(rng, p, chunks):
    """Relator material with noise: conjugated relators and their
    inverses, majority prefixes of relators and random letters, not
    freely reduced."""
    out = []
    for _ in range(chunks):
        kind = rng.random()
        if p.relators and kind < 0.5:
            r = rng.choice(p.relators)
            k = rng.randrange(len(r))
            r = r[k:] + r[:k]
            if rng.random() < 0.5:
                r = invert(r)
            u = tuple(random_reduced_word(rng, p.n_gens, 2))
            out += u + r + invert(u)
        elif p.relators and kind < 0.75:
            r = rng.choice(p.relators)
            out += r[: rng.randint(len(r) // 2, len(r))]
        else:
            out += make_word([(rng.randrange(p.n_gens), rng.choice((1, -1)))])
    return tuple(out)


def random_presentation(rng):
    """1-3 random relators; often the first extends the second, so that
    relators of different lengths share a majority prefix."""
    n_gens = rng.randint(1, 3)
    relators = [
        random_reduced_word(rng, n_gens, 9) for _ in range(rng.randint(1, 3))
    ]
    if len(relators) > 1 and rng.random() < 0.5:
        relators[0] = relators[1] + random_reduced_word(rng, n_gens, 3)
    return GroupPresentation(n_gens, tuple(relators))


DIFFERENTIAL_PRESENTATIONS = [
    ("surface1", catalog("surface", genus=1)),
    ("surface2", SURFACE2),
    ("surface3", catalog("surface", genus=3)),
    ("torus", catalog("torus")),
    ("dihedral5", catalog("dihedral5")),
    ("trefoil", catalog("trefoil")),
    ("free_abelian3", catalog("free_abelian", rank=3)),
    # relators of lengths 2, 6, 10, 14: four prefix-length groups
    ("higman0123", catalog("higman_truncated", exponents=(0, 1, 2, 3))),
]


class TestAgainstOracle:
    """The indexed, resumed scan against the full-rescan solver."""

    @pytest.mark.parametrize(
        "name,p", DIFFERENTIAL_PRESENTATIONS, ids=[n for n, _ in DIFFERENTIAL_PRESENTATIONS]
    )
    def test_catalog_presentations(self, name, p):
        rng = random.Random(f"dehn-oracle-{name}")
        for _ in range(60):
            word = relator_laden_word(rng, p, rng.randint(0, 8))
            assert dehn_solve(word, p) == oracle_dehn_solve(word, p), format_word(word)

    def test_random_presentations(self):
        rng = random.Random(31)
        for _ in range(150):
            p = random_presentation(rng)
            for _ in range(4):
                word = relator_laden_word(rng, p, rng.randint(0, 8))
                assert dehn_solve(word, p) == oracle_dehn_solve(word, p)

    def test_tie_across_prefix_lengths(self):
        # abcdef (index 0, majority prefix 4) and abcd (prefix 3) both
        # match abcd for 4 letters; the lower index wins
        sym = SymmetrizedRelators((w("abcdef"), w("abcd")))
        assert dehn_step(w("abcd"), sym) == (w("FE"), DehnStep(0, 0, 4))
        p = GroupPresentation(6, (w("abcdef"), w("abcd")))
        word = w("babcd")
        assert dehn_solve(word, p) == oracle_dehn_solve(word, p)
        assert dehn_solve(word, p).trace[0] == DehnStep(0, 1, 4)

    def test_random_unreduced_words(self):
        rng = random.Random(32)
        p = catalog("dihedral5")
        for _ in range(200):
            word = make_word(
                [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(0, 30))]
            )
            assert dehn_solve(word, p) == oracle_dehn_solve(word, p)

    def test_single_step_matches_first_oracle_step(self):
        rng = random.Random(33)
        for name, p in DIFFERENTIAL_PRESENTATIONS:
            sym = symmetrize(p)
            for _ in range(30):
                word = free_reduce(relator_laden_word(rng, p, rng.randint(1, 4)))
                expected = oracle_dehn_solve(word, p).trace[:1]
                found = dehn_step(word, sym)
                assert ((found[1],) if found else ()) == expected, name
                if found:
                    assert found[0] == replay_dehn_trace(word, sym, expected)


def random_c6_presentation(rng):
    """1-3 random cyclically reduced relators of 30-42 letters over 3-4
    generators, drawn until the set satisfies C'(1/6)."""
    while True:
        n_gens = rng.randint(3, 4)
        relators = []
        for _ in range(rng.randint(1, 3)):
            r = ()
            while not r or tuple_cancels(r[0], r[-1]):
                r = random_reduced_word(rng, n_gens, 42)
                r = r if len(r) >= 30 else ()
            relators.append(r)
        p = GroupPresentation(n_gens, tuple(relators))
        if max_piece_ratio(symmetrize(p)) < Fraction(1, 6):
            return p


def long_trivial_word(rng, p, n):
    """A product of conjugated relators, freely reduced, at least n long."""
    word = ()
    while len(word) < n:
        r = rng.choice(p.relators)
        k = rng.randrange(len(r))
        r = r[k:] + r[:k]
        if rng.random() < 0.5:
            r = invert(r)
        u = random_reduced_word(rng, p.n_gens, 4)
        word = free_reduce(word + u + r + invert(u))
    return word


class TestAgainstTupleSolver:
    """The solver on code strings against the same solver on letter tuples."""

    def check(self, word, p, sym=None):
        assert dehn_solve(word, p) == tuple_dehn_solve(word, p)
        sym = sym or symmetrize(p)
        reduced = free_reduce(word)
        assert dehn_step(reduced, sym) == tuple_dehn_step(reduced, sym)

    def test_long_trivial_words(self):
        rng = random.Random(41)
        for p in (SURFACE2, catalog("surface", genus=16), random_c6_presentation(rng)):
            word = long_trivial_word(rng, p, 10_000)
            outcome = dehn_solve(word, p)
            assert outcome.verdict is Verdict.TRIVIAL and len(outcome.trace) > 100
            self.check(word, p)

    @pytest.mark.parametrize("genus", [16, 40])
    def test_surfaces_beyond_the_text_letters(self, genus):
        rng = random.Random(f"dehn-codes-{genus}")
        p = catalog("surface", genus=genus)
        sym = symmetrize(p)
        for _ in range(40):
            self.check(relator_laden_word(rng, p, rng.randint(0, 8)), p, sym)
        for _ in range(3):
            self.check(long_trivial_word(rng, p, 2000), p, sym)

    def test_random_c6_presentations(self):
        rng = random.Random(42)
        for _ in range(25):
            p = random_c6_presentation(rng)
            sym = symmetrize(p)
            for _ in range(6):
                self.check(relator_laden_word(rng, p, rng.randint(0, 10)), p, sym)

    def test_ties_across_prefix_lengths(self):
        rng = random.Random(43)
        for _ in range(150):
            p = random_presentation(rng)
            sym = symmetrize(p)
            for _ in range(4):
                self.check(relator_laden_word(rng, p, rng.randint(0, 8)), p, sym)

    def test_unreduced_words(self):
        rng = random.Random(44)
        for name, p in DIFFERENTIAL_PRESENTATIONS:
            sym = symmetrize(p)
            for _ in range(40):
                word = make_word([(rng.randrange(p.n_gens), rng.choice((1, -1)))
                                  for _ in range(rng.randint(0, 40))])
                self.check(word, p, sym)


def cyclically_reduced(letters):
    return cyclic_reduce(free_reduce(tuple(letters)))[0]


@st.composite
def sampled_scan_case(draw):
    """Relators where the scan's sampling can go wrong, and a word over
    them: relators of 1-3 letters (q = 1) next to longer ones (m below
    the largest majority prefix), words shorter than m, and relator
    prefixes placed anywhere, the last letter included."""
    n_gens = draw(st.integers(1, 3))
    letter = st.builds(GenLetter, st.integers(0, n_gens - 1), st.sampled_from((1, -1)))
    relators = []
    for size in draw(st.lists(st.sampled_from((3, 3, 8, 14)), min_size=1, max_size=3)):
        relators.append(cyclically_reduced(draw(st.lists(letter, min_size=1, max_size=size))))
    relators = [r for r in relators if r] or [(GenLetter(0, 1),)]
    word = ()
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            r = draw(st.sampled_from(relators))
            k = draw(st.integers(0, len(r) - 1))
            r = r[k:] + r[:k]
            r = invert(r) if draw(st.booleans()) else r
            word += r[: draw(st.integers(len(r) // 2, len(r)))]
        else:
            word += tuple(draw(st.lists(letter, max_size=3)))
    return n_gens, tuple(relators), word


class TestSampledScan:
    """The sampled scan of code strings against tuple_scan, which tries
    every position."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(sampled_scan_case())
    def test_every_start_on_open_and_closed_sets(self, case):
        n_gens, relators, word = case
        closed = symmetrize(GroupPresentation(n_gens, relators))
        for sym in (SymmetrizedRelators(relators), closed):
            prep = dehn._Prepared(SymmetrizedRelators(sym.words))
            code, _ = dehn._coded(word, prep)
            index = tuple_majority_index(sym)
            # every resume start, aligned to k or not
            for start in range(len(word) + 1):
                assert dehn._scan(code, start, prep) == tuple_scan(word, start, index), start
            reduced = free_reduce(word)
            assert dehn_step(reduced, sym) == tuple_dehn_step(reduced, sym)
        p = GroupPresentation(n_gens, relators)
        assert dehn_solve(word, p) == tuple_dehn_solve(word, p)

    def test_stride_and_gram_length(self):
        # q = max(1, m // 2) and k = m - q + 1, m the shortest majority prefix
        for relators, q, k in (("a", 1, 1), ("ab", 1, 2), ("abc", 1, 2),
                               ("abcd", 1, 3), ("abcde abcdefghijkl", 1, 3),
                               ("abcdefghijkl", 3, 5)):
            prep = dehn._Prepared(SymmetrizedRelators(tuple(map(w, relators.split()))))
            assert (prep.q, prep.k) == (q, k), relators
        prep = dehn._prepare(catalog("surface", genus=16))
        assert (prep.index[0][0], prep.q, prep.k) == (33, 16, 18)

    def test_words_shorter_than_the_shortest_prefix(self):
        sym = SymmetrizedRelators((w("abcdefghij"),))  # m = 6
        prep = dehn._Prepared(SymmetrizedRelators(sym.words))
        for n in range(6):
            code, _ = dehn._coded(w("abcdefghij")[:n], prep)
            assert dehn._scan(code, 0, prep) is None
        code, _ = dehn._coded(w("abcdef"), prep)
        assert dehn._scan(code, 0, prep) == DehnStep(0, 0, 6)

    def test_matches_at_the_start_and_at_the_last_letter(self):
        p = catalog("surface", genus=16)
        prep = dehn._prepare(p)
        sym = symmetrize(p)
        index = tuple_majority_index(sym)
        rng = random.Random(46)
        r = sym.words[5]
        for _ in range(20):
            left = random_reduced_word(rng, p.n_gens, 60)
            right = random_reduced_word(rng, p.n_gens, 60)
            for word in (left + r[:33] + right, left + r[:40]):
                code, _ = dehn._coded(word, prep)
                for start in range(len(word) + 1):
                    assert dehn._scan(code, start, prep) == tuple_scan(word, start, index)


def stack_reduce(codes):
    out = []
    for c in codes:
        if out and ord(out[-1]) ^ 1 == ord(c):
            out.pop()
        else:
            out.append(c)
    return "".join(out)


# code ranges: past 128 generators, the surrogates (past 27,648 generators)
# and the last characters, whose XORs are no character at all
WIDE_CODES = [(0x100, 0x400), (0xD7F0, 0xE010), (0xFFF00, 0x110000)]


class TestFreeReduceOnWideCodes:
    """free_reduce_code's check, one XOR over the utf-32 bytes, against
    the per-letter stack."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from(WIDE_CODES), st.integers(0, 0x3FF)), max_size=40),
           st.lists(st.integers(0, 40), max_size=3))
    def test_against_the_stack(self, picks, cancels):
        codes = [chr(lo + i % (hi - lo)) for (lo, hi), i in picks]
        for at in sorted(cancels, reverse=True):
            if at <= len(codes):
                c = codes[at] if at < len(codes) else "Ā"
                codes[at:at] = [c, chr(ord(c) ^ 1)]
        word = "".join(codes)
        assert free_reduce_code(word) == stack_reduce(word)

    def test_pairs_at_the_ends_and_misaligned_look_alikes(self):
        # 0x400 0x300 0x200 XOR to the units 00000700 00000100, which
        # hold the bytes 00 00 00 01 three bytes off; 0x10000 0x30000
        # 0x20005 give 00020000 00010005, which hold them two bytes off
        for look_alike in ("Ѐ̀Ȁ", "\U00010000\U00030000\U00020005"):
            data = look_alike.encode("utf-32-be")
            x = int.from_bytes(data, "big")
            assert b"\0\0\0\1" in (x ^ (x >> 32)).to_bytes(len(data), "big")[4:]
            assert free_reduce_code(look_alike) == look_alike
        pair = "\ud800\ud801"
        for word in (pair + "Ѐ̀Ȁ", "Ѐ̀Ȁ" + pair,
                     "\U00010000\U00030000" + pair + "\U00020005",
                     "\U0010ffff\U000f0000\U0010fffe\U0010ffff"):
            assert free_reduce_code(word) == stack_reduce(word), ascii(word)
            assert len(free_reduce_code(word)) == len(word) - 2

    def test_many_generators_through_the_solver(self):
        # 30,000 generators, each first met in this word, code past 0xD800
        n = 30_000
        word = tuple(GenLetter(i, 1) for i in range(n))
        word += (GenLetter(n - 1, -1), GenLetter(n - 2, -1), GenLetter(7, 1))
        outcome = dehn_solve(word, GroupPresentation(n, ()))
        assert outcome.final_word == free_reduce(word)
        assert len(outcome.final_word) == n - 1


class TestPreparation:
    def test_equal_presentations_share_one_preparation(self, monkeypatch):
        calls = []
        closure = dehn.symmetrize
        monkeypatch.setattr(dehn, "symmetrize", lambda *a: calls.append(a) or closure(*a))
        dehn._prepare.cache_clear()
        first, second = (GroupPresentation(3, (w("abcABC"), w("aabbcc"))) for _ in range(2))
        assert first is not second
        assert dehn_solve(w("ab"), first) == dehn_solve(w("ab"), second)
        assert len(calls) == 1
        info = dehn._prepare.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_the_cache_is_bounded(self):
        bound = dehn._prepare.cache_info().maxsize
        assert isinstance(bound, int) and bound > 0
        for n in range(1, bound + 11):
            dehn_solve(w("a"), GroupPresentation(n, (w("aa"),)))
        assert dehn._prepare.cache_info().currsize == bound

    def test_dehn_step_prepares_each_set_once(self):
        # interleaved calls on an open and a closed set, with words that
        # bring generators the sets lack, answer as a fresh preparation does
        sets = (TestReplacementSeams.OPEN, SYM2)
        rng = random.Random(46)
        words = [random_reduced_word(rng, 6, 14) for _ in range(80)]
        words += [w("dabc"), w("cdabc"), SURFACE2.relators[0]]

        def fresh(word, s):
            dehn._prepare_set.cache_clear()
            return dehn_step(word, s)

        expected = [fresh(word, s) for word in words for s in sets]
        dehn._prepare_set.cache_clear()
        assert [dehn_step(word, s) for word in words for s in sets] == expected
        info = dehn._prepare_set.cache_info()
        assert (info.misses, info.hits) == (2, 2 * len(words) - 2)
        assert any(result is not None for result in expected)

    def test_the_set_cache_is_bounded(self):
        bound = dehn._prepare_set.cache_info().maxsize
        assert isinstance(bound, int) and bound > 0
        for n in range(2, bound + 12):
            dehn_step(w("a"), SymmetrizedRelators((w("a" * n),)))
        assert dehn._prepare_set.cache_info().currsize == bound

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_certificate_on_the_catalog(self, name):
        p = catalog(name)
        if isinstance(p, GroupPresentation):
            expected = max_piece_ratio(symmetrize(p)) < Fraction(1, 6)
            assert dehn._prepare(p).certified is expected


def coded_closure(p):
    """Dehn's tables built the other way round: the relators are coded
    first, then closed under cyclic shifts and the code inverse (relators
    in order, shifts of r before shifts of r^-1, first occurrence kept),
    and certified by the piece ratio of the coded words, pair by pair."""
    encode = letter_codes(chain(*p.relators, *map(invert, p.relators)))
    flip = {ord(code): ord(code) ^ 1 for code in encode.values()}

    def inverse(r):
        return r[::-1].translate(flip)

    coded = ["".join(map(encode.__getitem__, r)) for r in p.relators]
    words = list(dict.fromkeys(
        v[i:] + v[:i] for r in coded for v in (r, inverse(r)) for i in range(len(v))
    ))
    groups = {}
    for idx, r in enumerate(words):
        h = len(r) // 2 + 1
        groups.setdefault(h, {}).setdefault(r[:h], []).append((idx, r))
    index = sorted(groups.items())
    m = index[0][0] if index else 1
    q = max(1, m // 2)
    k = m - q + 1
    ratio = max((Fraction(len(commonprefix((u, v))), min(len(u), len(v)))
                 for u, v in combinations(words, 2)), default=Fraction(0))
    return {
        "words": words,
        "inverses": [inverse(r) for r in words],
        "index": index,
        "q": q,
        "k": k,
        "grams": frozenset(a[j : j + q] for _, table in index for a in table for j in range(k)),
        "certified": ratio < Fraction(1, 6),
    }


@st.composite
def closure_presentation(draw):
    """1-4 generators and 1-4 relators: reduced words, proper powers u^k,
    whose shifts repeat within the relator, and shifts of an earlier
    relator or of its inverse, which repeat across relators.  (No
    relator is a shift of its own inverse: in a free group no element
    other than 1 is conjugate to its inverse.)"""
    n_gens = draw(st.integers(1, 4))
    letter = st.builds(GenLetter, st.integers(0, n_gens - 1), st.sampled_from((1, -1)))
    relators = []
    for kind in draw(st.lists(st.sampled_from(("word", "power", "shift")),
                              min_size=1, max_size=4)):
        if kind == "shift" and relators:
            r = draw(st.sampled_from(relators))
            r = invert(r) if draw(st.booleans()) else r
            k = draw(st.integers(0, len(r) - 1))
            relators.append(r[k:] + r[:k])
            continue
        r = cyclically_reduced(draw(st.lists(letter, min_size=1, max_size=8)))
        if r:
            relators.append(r * (draw(st.integers(2, 4)) if kind == "power" else 1))
    return GroupPresentation(n_gens, tuple(relators))


def prepared_fields(prep):
    return {name: getattr(prep, name)
            for name in ("words", "inverses", "index", "q", "k", "grams", "certified")}


class TestPreparedSetAgainstCodedClosure:
    """_prepare codes symmetrize(p) and certifies with max_piece_ratio;
    its tables must be those of the closure taken on code strings."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(closure_presentation())
    def test_random_presentations(self, p):
        assert prepared_fields(dehn._prepare(p)) == coded_closure(p)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog(self, name):
        p = catalog(name)
        if isinstance(p, GroupPresentation):
            assert prepared_fields(dehn._prepare(p)) == coded_closure(p)

    def test_empty_wide_and_c6_presentations(self):
        for p in (GroupPresentation(3, ()), catalog("surface", genus=16),
                  catalog("higman_truncated", exponents=(0, 1, 2, 3)),
                  random_c6_presentation(random.Random(47))):
            assert prepared_fields(dehn._prepare(p)) == coded_closure(p)


# Finite groups whose Cayley graphs the Dehn solver's answers are checked
# against: the solver is exact only under C'(1/6), but its rewriting must
# keep the group element on any presentation.
FINITE_QUOTIENTS = {
    "dihedral5": catalog("dihedral5"),
    "A5": GroupPresentation(2, (w("aa"), w("bbb"), w("ab" * 5))),
    "PSL27": GroupPresentation(2, (w("aa"), w("bbb"), w("ab" * 7), w("abAB" * 4))),
}
FINITE_ORDERS = {"dihedral5": 10, "A5": 60, "PSL27": 168}


@functools.cache
def finite_cayley_graph(name):
    graph = to_cayley_graph(todd_coxeter(FINITE_QUOTIENTS[name], 2000))
    assert graph.n_vertices == FINITE_ORDERS[name]
    return graph


LETTER = st.builds(GenLetter, st.integers(0, 1), st.sampled_from((1, -1)))
# a chunk is a conjugated relator (relator, rotation, inverted?, conjugator)
# or a run of random letters
CHUNK = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 27), st.booleans(),
              st.lists(LETTER, max_size=3)),
    st.lists(LETTER, max_size=5),
)


class TestAgainstFiniteQuotients:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(FINITE_QUOTIENTS)), chunks=st.lists(CHUNK, max_size=6))
    def test_verdicts_keep_the_group_element(self, name, chunks):
        p = FINITE_QUOTIENTS[name]
        word = ()
        for chunk in chunks:
            if isinstance(chunk, tuple):
                i, k, inverted, conjugator = chunk
                r = p.relators[i % len(p.relators)]
                r = r[k % len(r):] + r[: k % len(r)]
                u = tuple(conjugator)
                word += u + (invert(r) if inverted else r) + invert(u)
            else:
                word += tuple(chunk)
        graph = finite_cayley_graph(name)
        outcome = dehn_solve(word, p)
        note(f"{format_word(word)} -> {outcome.verdict.value} {format_word(outcome.final_word)}")
        assert graph.trace(outcome.final_word) == graph.trace(word)
        if outcome.verdict is Verdict.TRIVIAL:
            assert graph.trace(word) == 0
