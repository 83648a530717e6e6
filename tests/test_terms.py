import functools
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordproblem.rewriting import RewriteSystem, search_equivalence, thue_closure
from wordproblem import terms
from wordproblem.search import DerivationTrace, SearchStats, SearchStatus, class_search
from wordproblem.terms import (
    ASSOCIATIVITY,
    FORWARD,
    REVERSE,
    Leaf,
    Node,
    TreeRule,
    TreeStep,
    apply_tree_rule,
    _tokenize,
    apply_tree_step,
    format_term,
    match_subst,
    parse_term,
    parse_tree_rule,
    parse_tree_rules,
    replay_tree_trace,
    search_tree_equivalence,
    term_size,
    tree_successors,
    variables,
)

A, B, C, D = Leaf("A"), Leaf("B"), Leaf("C"), Leaf("D")


def random_term(rng, depth, leaves="ABC"):
    if depth == 0 or rng.random() < 0.35:
        return Leaf(rng.choice(leaves))
    return Node(random_term(rng, depth - 1, leaves), random_term(rng, depth - 1, leaves))


def leaf_counter(t):
    if isinstance(t, Leaf):
        return Counter([t.name])
    return leaf_counter(t.left) + leaf_counter(t.right)


class TestMatchSubst:
    def test_bare_variable_matches_anything(self):
        rng = random.Random(41)
        for _ in range(50):
            t = random_term(rng, 4)
            assert match_subst(Leaf("?x"), t) == {"?x": t}

    def test_repeated_variable_consistency(self):
        pattern = Node(Leaf("?x"), Leaf("?x"))
        assert match_subst(pattern, Node(A, B)) is None
        assert match_subst(pattern, Node(A, A)) == {"?x": A}

    def test_destructuring(self):
        pattern = parse_term("((?x ?y) ?z)")
        subject = Node(Node(A, B), C)
        assert match_subst(pattern, subject) == {"?x": A, "?y": B, "?z": C}

    def test_round_trip_on_random_trees(self):
        rng = random.Random(42)
        pattern = parse_term("((?x ?y) (?z ?x))")
        for _ in range(200):
            subject = random_term(rng, 6)
            binding = match_subst(pattern, subject)
            if binding is not None:
                assert substitute(pattern, binding) == subject

    def test_any_successful_match_substitutes_back(self):
        rng = random.Random(43)
        for _ in range(200):
            pattern = random_term(rng, 3, leaves=["A", "B", "?x", "?y"])
            subject = random_term(rng, 4, leaves="AB")
            binding = match_subst(pattern, subject)
            if binding is not None:
                assert substitute(pattern, binding) == subject

    def test_typed_leaves(self):
        assert match_subst(Leaf("A", "p"), Leaf("A", "p")) == {}
        assert match_subst(Leaf("A", "p"), Leaf("A", "q")) is None
        # a tagged variable only accepts a leaf with the same tag
        assert match_subst(Leaf("?x", "p"), Leaf("E", "p")) == {"?x": Leaf("E", "p")}
        assert match_subst(Leaf("?x", "p"), Node(A, B)) is None
        assert match_subst(Leaf("?x"), Leaf("E", "p")) == {"?x": Leaf("E", "p")}


class TestApplyTreeRule:
    def test_associativity_at_root(self):
        t = Node(Node(A, B), C)
        assert apply_tree_rule(t, ASSOCIATIVITY, "") == Node(A, Node(B, C))

    def test_identity_rule(self):
        rule = TreeRule(Leaf("?x"), Leaf("?x"))
        t = Node(Node(A, B), C)
        for path, _ in preorder_paths(t):
            assert apply_tree_rule(t, rule, path) == t

    def test_inner_redex_only(self):
        t = Node(Node(Node(A, B), C), D)  # ((A B) C) D
        rewritten = apply_tree_rule(t, ASSOCIATIVITY, "L")
        assert rewritten == Node(Node(A, Node(B, C)), D)
        assert rewritten != apply_tree_rule(t, ASSOCIATIVITY, "")

    def test_reverse_direction(self):
        t = Node(A, Node(B, C))
        assert apply_tree_rule(t, ASSOCIATIVITY, "", REVERSE) == Node(Node(A, B), C)

    def test_errors(self):
        with pytest.raises(ValueError):
            apply_tree_rule(A, ASSOCIATIVITY, "L")
        with pytest.raises(ValueError):
            apply_tree_rule(Node(A, B), ASSOCIATIVITY, "")


class TestTreeRule:
    def test_unbound_rhs_variable_rejected(self):
        with pytest.raises(ValueError):
            TreeRule(Leaf("?x"), Node(Leaf("?x"), Leaf("?y")))

    def test_reversibility(self):
        assert ASSOCIATIVITY.is_reversible()
        collapse = TreeRule(Node(Leaf("?x"), Leaf("?y")), Leaf("?x"))
        assert not collapse.is_reversible()

    def test_sides_deeper_than_the_recursion_limit(self):
        # a left comb of 2000 variable leaves once raised RecursionError
        names = [f"?v{i}" for i in range(2000)]
        comb = left_comb(names)
        assert variables(comb) == frozenset(names)
        assert TreeRule(comb, comb).is_reversible()
        message = r"^right side introduces unbound variables: \['\?w'\]$"
        with pytest.raises(ValueError, match=message):
            TreeRule(comb, left_comb(names + ["?w"]))


class TestSearch:
    def test_associativity_one_step(self):
        a = parse_term("((A B) C)")
        b = parse_term("(A (B C))")
        outcome = search_tree_equivalence(a, b, [ASSOCIATIVITY], 10)
        assert outcome.status is SearchStatus.PROVEN
        assert len(outcome.trace.steps) == 1
        assert replay_tree_trace([ASSOCIATIVITY], outcome.trace) == b

    def test_reflexivity(self):
        t = parse_term("(A (B C))")
        outcome = search_tree_equivalence(t, t, [ASSOCIATIVITY], 1)
        assert outcome.status is SearchStatus.PROVEN
        assert outcome.trace.steps == ()

    def test_leaf_classes_are_singletons(self):
        outcome = search_tree_equivalence(A, B, [ASSOCIATIVITY], 10)
        assert outcome.status is SearchStatus.REFUTED_EXHAUSTED

    def test_non_reversible_rule_rejected(self):
        collapse = TreeRule(Node(Leaf("?x"), Leaf("?y")), Leaf("?x"))
        with pytest.raises(ValueError):
            search_tree_equivalence(A, B, [collapse], 10)

    def test_leaf_multiset_preserved_along_proven_traces(self):
        rng = random.Random(44)
        proven = 0
        for _ in range(100):
            a = random_term(rng, 3)
            b = random_term(rng, 3)
            outcome = search_tree_equivalence(a, b, [ASSOCIATIVITY], 4000)
            if outcome.status is not SearchStatus.PROVEN:
                continue
            proven += 1
            t = a
            for step in outcome.trace.steps:
                t = apply_tree_rule(t, ASSOCIATIVITY, step.path, step.direction)
                assert leaf_counter(t) == leaf_counter(a)
            assert t == b
        assert proven > 0

    def test_association_classes_fully_enumerable(self):
        # all bracketings of A..D are equivalent; mixed leaf orders are not
        a = parse_term("((A B) (C D))")
        b = parse_term("(A (B (C D)))")
        c = parse_term("(B (A (C D)))")
        assert (
            search_tree_equivalence(a, b, [ASSOCIATIVITY], 1000).status
            is SearchStatus.PROVEN
        )
        assert (
            search_tree_equivalence(a, c, [ASSOCIATIVITY], 1000).status
            is SearchStatus.REFUTED_EXHAUSTED
        )


def left_comb(names):
    return functools.reduce(Node, map(Leaf, names))


def right_comb(names):
    return functools.reduce(lambda t, leaf: Node(leaf, t), map(Leaf, reversed(names)))


class TestEightLeaves:
    """Figures of the 8-leaf associativity searches, pinned so that the
    term representation cannot change the search."""

    NAMES = "ABCDEFGH"

    def test_comb_rotation_refuted(self):
        a, b = left_comb(self.NAMES), left_comb(self.NAMES[1:] + self.NAMES[0])
        outcome = search_tree_equivalence(a, b, [ASSOCIATIVITY], 10**6)
        assert (outcome.status, outcome.trace, outcome.stats) == (
            SearchStatus.REFUTED_EXHAUSTED, None, SearchStats(590, 264, 6))

    def test_rebracketing_proven_and_replayed(self):
        a, b = left_comb(self.NAMES), right_comb(self.NAMES)
        assert format_term(b) == "(A (B (C (D (E (F (G H)))))))"
        outcome = search_tree_equivalence(a, b, [ASSOCIATIVITY], 10**6)
        assert outcome.status is SearchStatus.PROVEN
        assert outcome.stats == SearchStats(16, 43, 2)
        assert (outcome.trace.start, len(outcome.trace.steps)) == (a, 6)
        assert replay_tree_trace([ASSOCIATIVITY], outcome.trace) == b


class TestCombEmbedding:
    """Strings embed as right combs: a word maps to Node(letter, rest) chains
    ending in a marker leaf, a string rule to a comb rule with a tail
    variable.  Search results must agree with the string engine."""

    END = Leaf("$")

    def comb(self, word):
        t = self.END
        for c in reversed(word):
            t = Node(Leaf(c), t)
        return t

    def comb_rule(self, lhs, rhs):
        def enc(side):
            t = Leaf("?t")
            for c in reversed(side):
                t = Node(Leaf(c), t)
            return t

        return TreeRule(enc(lhs), enc(rhs))

    def test_agreement_on_seeded_instances(self):
        rng = random.Random(45)
        checked = 0
        proven = 0
        while checked < 200:
            n_rules = rng.randint(1, 3)
            rules = []
            while len(rules) < n_rules:
                llen = rng.randint(1, 3)
                lhs = "".join(rng.choice("ab") for _ in range(llen))
                rhs = "".join(rng.choice("ab") for _ in range(llen))
                if (lhs, rhs) not in rules:
                    rules.append((lhs, rhs))
            sys = thue_closure(RewriteSystem(2, tuple(rules)))
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            string_outcome = search_equivalence(u, v, sys, 4000)
            tree_rules = [self.comb_rule(lhs, rhs) for lhs, rhs in rules]
            tree_outcome = search_tree_equivalence(
                self.comb(u), self.comb(v), tree_rules, 4000
            )
            assert string_outcome.status == tree_outcome.status, (rules, u, v)
            if string_outcome.status is SearchStatus.PROVEN:
                proven += 1
                assert (
                    replay_tree_trace(tree_rules, tree_outcome.trace)
                    == self.comb(v)
                )
            checked += 1
        assert proven > 10


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(46)
        for _ in range(200):
            t = random_term(rng, 5)
            assert parse_term(format_term(t)) == t

    def test_tagged_leaves(self):
        t = parse_term("(A:p (B:q ?x:p))")
        assert t == Node(Leaf("A", "p"), Node(Leaf("B", "q"), Leaf("?x", "p")))
        assert parse_term(format_term(t)) == t

    def test_rule_parsing(self):
        rule = parse_tree_rule("((?x ?y) ?z) => (?x (?y ?z))")
        assert rule == ASSOCIATIVITY

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_term("(A B C)")
        with pytest.raises(ValueError):
            parse_term("(A")
        with pytest.raises(ValueError):
            parse_term("A B")


class TestSuccessorsDeterminism:
    def test_preorder_enumeration(self):
        t = Node(Node(Node(A, B), C), Node(Node(A, B), C))
        succ = tree_successors(t, [ASSOCIATIVITY])
        paths = [step.path for _, step in succ]
        assert paths == sorted(paths, key=lambda p: (preorder_rank(t, p)))

    def test_non_reversible_rule_rejected(self):
        collapse = TreeRule(Node(Leaf("?x"), Leaf("?y")), Leaf("?x"))
        with pytest.raises(ValueError, match="^rule 1 cannot be applied in reverse"):
            tree_successors(Node(A, B), [ASSOCIATIVITY, collapse])

    def test_variables_helper(self):
        assert variables(parse_term("((?x A) ?y)")) == frozenset({"?x", "?y"})

    def test_term_size(self):
        assert term_size(A) == 1
        assert term_size(Node(A, B)) == 3


def preorder_paths(t):
    """Every (path, subterm) pair of t in preorder: the order oracle."""
    out = []

    def walk(sub, path):
        out.append((path, sub))
        if isinstance(sub, Node):
            walk(sub.left, path + "L")
            walk(sub.right, path + "R")

    walk(t, "")
    return out


def preorder_rank(t, path):
    order = [p for p, _ in preorder_paths(t)]
    return order.index(path)


COLLAPSE = TreeRule(Node(Leaf("?x"), Leaf("?y")), Leaf("?x"))


class TestDerivationTraces:
    def test_swapped_pair_keeps_its_orientation(self):
        # the right comb sorts after the left one, so the search runs from b
        a, b = parse_term("(A (B (C D)))"), parse_term("(((A B) C) D)")
        assert (term_size(b), format_term(b)) < (term_size(a), format_term(a))
        outcome = search_tree_equivalence(a, b, [ASSOCIATIVITY], 100)
        assert outcome.status is SearchStatus.PROVEN
        assert (outcome.trace.start, outcome.trace.end) == (a, b)
        assert replay_tree_trace([ASSOCIATIVITY], outcome.trace) == b

    def test_non_reversible_rule_rejected_between_equal_terms(self):
        with pytest.raises(ValueError, match="^rule 0 cannot be applied in reverse"):
            search_tree_equivalence(A, A, [COLLAPSE], 10)

    def test_search_and_successors_share_the_message(self):
        with pytest.raises(ValueError, match="^rule 1 cannot be applied in reverse"):
            search_tree_equivalence(A, B, [ASSOCIATIVITY, COLLAPSE], 10)

    def test_apply_tree_step(self):
        t = parse_term("((A B) C)")
        assert apply_tree_step(t, [ASSOCIATIVITY], TreeStep(0, FORWARD, "")) == Node(
            A, Node(B, C)
        )
        with pytest.raises(ValueError, match="rule index out of range"):
            apply_tree_step(t, [ASSOCIATIVITY], TreeStep(1, FORWARD, ""))

    def test_replay_checks_end(self):
        t = parse_term("((A B) C)")
        trace = DerivationTrace(t, (TreeStep(0, FORWARD, ""),), t)
        with pytest.raises(ValueError, match="^trace ends at "):
            replay_tree_trace([ASSOCIATIVITY], trace)
        with pytest.raises(ValueError, match="^trace ends at "):
            replay_tree_trace([ASSOCIATIVITY], DerivationTrace(t, (), A))

    def test_replay_checks_matches(self):
        trace = DerivationTrace(Node(A, B), (TreeStep(0, FORWARD, ""),), A)
        with pytest.raises(ValueError, match="does not match"):
            replay_tree_trace([ASSOCIATIVITY], trace)


def tokenize_by_characters(text):
    """The tokenizer as a loop over characters, before it became one regex."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c in "()":
            tokens.append(c)
            i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


TOKEN_TEXT = st.text(st.sampled_from("()A?x:p \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000\u200b")
                     | st.characters(), max_size=30)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=TOKEN_TEXT)
def test_tokenize_matches_the_character_loop(text):
    assert _tokenize(text) == tokenize_by_characters(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("rule: (A B C) => A\n", "line 1: a node must have exactly two children"),
        ("# assoc\n\nrule: (A ?x) => (A ?y)\n", "line 3: right side introduces"),
        ("rule: A => B\nrule: A B\n", "line 2: expected 'lhs => rhs'"),
    ],
)
def test_rule_errors_name_their_line(text, message):
    with pytest.raises(ValueError) as info:
        parse_tree_rules(text)
    assert str(info.value).startswith(message)


# Reference rewriting: one walk per question (list the redex positions,
# fetch the subterm, rebuild from the root), kept as the oracle for the
# single-walk successor generator and the spine walk of apply_tree_rule.


def oracle_match_subst(pattern, subject):
    binding = {}

    def walk(p, s):
        if isinstance(p, Leaf):
            if p.is_var():
                if p.tag is not None and not (isinstance(s, Leaf) and s.tag == p.tag):
                    return False
                if p.name in binding:
                    return binding[p.name] == s
                binding[p.name] = s
                return True
            return isinstance(s, Leaf) and s == p
        return isinstance(s, Node) and walk(p.left, s.left) and walk(p.right, s.right)

    return binding if walk(pattern, subject) else None


def oracle_subterm_at(t, path):
    for d in path:
        if not isinstance(t, Node):
            raise ValueError(f"path {path!r} leaves the tree")
        if d == "L":
            t = t.left
        elif d == "R":
            t = t.right
        else:
            raise ValueError(f"path direction must be L or R, got {d!r}")
    return t


def oracle_replace_at(t, path, replacement):
    if not path:
        return replacement
    if not isinstance(t, Node):
        raise ValueError(f"path {path!r} leaves the tree")
    if path[0] == "L":
        return Node(oracle_replace_at(t.left, path[1:], replacement), t.right)
    if path[0] == "R":
        return Node(t.left, oracle_replace_at(t.right, path[1:], replacement))
    raise ValueError(f"path direction must be L or R, got {path[0]!r}")


def substitute(t, binding):
    """t with every variable replaced by its value in binding; a variable
    outside binding raises."""
    if isinstance(t, Node):
        return Node(substitute(t.left, binding), substitute(t.right, binding))
    if not t.is_var():
        return t
    if t.name not in binding:
        raise ValueError(f"unbound variable {t.name}")
    return binding[t.name]


def oracle_sides(rule, direction):
    if direction == FORWARD:
        return rule.lhs, rule.rhs
    if direction == REVERSE:
        return rule.rhs, rule.lhs
    raise ValueError(f"direction must be {FORWARD!r} or {REVERSE!r}")


def oracle_apply_tree_rule(t, rule, path, direction=FORWARD):
    src, dst = oracle_sides(rule, direction)
    subject = oracle_subterm_at(t, path)
    binding = oracle_match_subst(src, subject)
    if binding is None:
        raise ValueError(f"rule does not match at path {path!r}")
    return oracle_replace_at(t, path, substitute(dst, binding))


def oracle_tree_successors(t, rules):
    for idx, rule in enumerate(rules):
        if not rule.is_reversible():
            raise ValueError(
                f"rule {idx} cannot be applied in reverse: "
                "its sides carry different variables"
            )
    oriented = [(idx, direction, *oracle_sides(rule, direction))
                for idx, rule in enumerate(rules) for direction in (FORWARD, REVERSE)]
    out = []
    seen = set()
    for path, subject in preorder_paths(t):
        for idx, direction, src, dst in oriented:
            binding = oracle_match_subst(src, subject)
            if binding is None:
                continue
            result = oracle_replace_at(t, path, substitute(dst, binding))
            if result not in seen:
                seen.add(result)
                out.append((result, TreeStep(idx, direction, path)))
    return out


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return ("error", str(exc))


GROUND = [A, B, Leaf("A", "p"), Leaf("B", "q"), Leaf("?x")]
PATTERN_VARS = [Leaf("?x"), Leaf("?y"), Leaf("?x", "p"), Leaf("?z", "q")]


def term_trees(leaves, max_leaves):
    return st.recursive(st.sampled_from(leaves), lambda kids: st.builds(Node, kids, kids),
                        max_leaves=max_leaves)


PATTERNS = term_trees(GROUND[:4] + PATTERN_VARS, 6)


def bind_or_drop(t, bound):
    """t with every variable outside bound replaced by the leaf A."""
    if isinstance(t, Node):
        return Node(bind_or_drop(t.left, bound), bind_or_drop(t.right, bound))
    return A if t.is_var() and t.name not in bound else t


@st.composite
def tree_rules(draw):
    """A rule whose right side uses only variables of the left side, so
    that it builds; some drop one and are not reversible."""
    lhs = draw(PATTERNS)
    return TreeRule(lhs, bind_or_drop(draw(PATTERNS), variables(lhs)))


@given(term_trees(GROUND, 14), st.lists(tree_rules(), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_successors_match_the_preorder_oracle(t, rules):
    # the same list in the same order with the same first witnesses, or
    # the same error for a rule that cannot be reversed
    assert outcome(tree_successors, t, rules) == outcome(oracle_tree_successors, t, rules)
    rules = [rule for rule in rules if rule.is_reversible()]
    assert outcome(tree_successors, t, rules) == outcome(oracle_tree_successors, t, rules)


PATHS = ["".join(p) for n in range(4) for p in itertools.product("LRX", repeat=n)]


@given(term_trees(GROUND, 14), tree_rules())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_apply_tree_rule_matches_the_oracle(t, rule):
    for path in PATHS:
        for direction in (FORWARD, REVERSE, "sideways"):
            got = outcome(apply_tree_rule, t, rule, path, direction)
            assert got == outcome(oracle_apply_tree_rule, t, rule, path, direction)


@given(term_trees(GROUND + PATTERN_VARS, 8), term_trees(GROUND, 14))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_match_subst_matches_the_oracle(pattern, subject):
    assert match_subst(pattern, subject) == oracle_match_subst(pattern, subject)


@pytest.mark.parametrize("t,rules", [
    # every position rewrites to t itself: only the root's forward step stays
    (parse_term("((A B) (A B))"), [TreeRule(Leaf("?x"), Leaf("?x"))]),
    # forward and reverse agree at each position, forward is kept
    (parse_term("((A B) C)"), [parse_tree_rule("(?x ?y) => (?y ?x)")]),
    # the left child is rewritten before the right one
    (parse_term("((A B) (B A))"), [parse_tree_rule("(A B) => (B A)")]),
])
def test_successor_order_and_first_witness(t, rules):
    assert tree_successors(t, rules) == oracle_tree_successors(t, rules)


def test_apply_tree_rule_at_depth_3000():
    depth = 3000
    t = parse_term("((A B) C)")
    for _ in range(depth):
        t = Node(t, D)
    rewritten = apply_tree_rule(t, ASSOCIATIVITY, "L" * depth)
    # == would recurse through the whole spine, so walk it instead
    for _ in range(depth):
        assert isinstance(rewritten, Node) and rewritten.right is D
        rewritten = rewritten.left
    assert rewritten == Node(A, Node(B, C))
    with pytest.raises(ValueError, match="^rule does not match at path 'LLL"):
        apply_tree_rule(t, ASSOCIATIVITY, "L" * depth + "R")


@st.composite
def reversible_rules(draw):
    """A rule whose sides carry the same variables: the right side's other
    variables become A, and the left side's missing ones are hung on it."""
    lhs = draw(PATTERNS)
    rhs = bind_or_drop(draw(PATTERNS), variables(lhs))
    for name in sorted(variables(lhs) - variables(rhs)):
        rhs = Node(rhs, Leaf(name))
    return TreeRule(lhs, rhs)


# repeated and tagged variables, constant leaves, and sides rooted at a variable
NAMED_RULES = [parse_tree_rule(text) for text in (
    "?x => (?x ?x)",
    "(?x ?x) => (?x (?x A))",
    "(?x:p ?y) => (?y ?x:p)",
    "(A ?x) => (?x B:q)",
    "(?x ?y) => (?y ?x)",
)] + [ASSOCIATIVITY]


@st.composite
def tree_searches(draw):
    """A term, a reversible rule list, and a second term: a random one or
    one a few oracle steps away."""
    a = draw(st.builds(Node, term_trees(GROUND, 3), term_trees(GROUND, 3)))
    rules = draw(st.lists(st.one_of(reversible_rules(), st.sampled_from(NAMED_RULES)),
                          min_size=1, max_size=3))
    b = a
    for pick in draw(st.lists(st.integers(0, 99), min_size=1, max_size=4)):
        moves = oracle_tree_successors(b, rules)
        b = moves[pick % len(moves)][0] if moves else b
    return a, draw(st.one_of(st.just(b), term_trees(GROUND, 6))), rules


@given(tree_searches(), st.integers(1, 30))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_search_matches_the_oracle_successors(search, budget):
    # the search takes every rewrite as it comes; its visited map must
    # keep the same first witnesses as the deduplicated oracle list
    a, b, rules = search
    oracle = class_search(a, b, lambda t: oracle_tree_successors(t, rules),
                          TreeStep.reversed, lambda t: (term_size(t), format_term(t)), budget)
    assert search_tree_equivalence(a, b, rules, budget) == oracle


def recursive_term_size(t):
    """term_size as it was written before its explicit stack: the oracle."""
    if isinstance(t, Leaf):
        return 1
    return 1 + recursive_term_size(t.left) + recursive_term_size(t.right)


def recursive_format_term(t):
    """format_term as it was written before its explicit stack: the oracle."""
    if isinstance(t, Leaf):
        return t.name if t.tag is None else f"{t.name}:{t.tag}"
    return f"({recursive_format_term(t.left)} {recursive_format_term(t.right)})"


@given(term_trees(GROUND + PATTERN_VARS, 16))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_walkers_match_the_recursive_oracles(t):
    assert term_size(t) == recursive_term_size(t)
    assert format_term(t) == recursive_format_term(t)
    assert parse_term(format_term(t)) == t


def test_search_between_right_combs_of_1200_leaves():
    # the sort key walks both ends before any expansion; it once recursed
    t = right_comb([f"X{k}" for k in range(1, 1201)])
    assert term_size(t) == 2399
    assert format_term(t) == "".join(f"(X{k} " for k in range(1, 1200)) + "X1200" + ")" * 1199
    outcome = search_tree_equivalence(t, Node(t, Leaf("Y")), [ASSOCIATIVITY], 5)
    assert outcome.status is SearchStatus.BUDGET_EXHAUSTED
    assert outcome.stats == SearchStats(5, 5986, 1)


def test_successors_of_a_right_comb_of_1200_leaves():
    t = Leaf("X1200")
    for k in range(1199, 0, -1):
        t = Node(Leaf(f"X{k}"), t)
    found = tree_successors(t, [ASSOCIATIVITY])
    # the reverse side matches at every node but the last, top down
    assert [step for _, step in found] == [TreeStep(0, REVERSE, "R" * k) for k in range(1198)]
    rebuilt, _ = found[-1]
    for k in range(1, 1198):
        assert rebuilt.left == Leaf(f"X{k}")
        rebuilt = rebuilt.right
    assert rebuilt == Node(Node(Leaf("X1198"), Leaf("X1199")), Leaf("X1200"))


@pytest.fixture
def compiled_sources(monkeypatch):
    """The source of every rule side compiled while the test runs, read by
    standing in for compile in the terms module; the compiled-rule cache
    starts empty."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    terms._compile.cache_clear()
    monkeypatch.setattr(terms, "compile", spy, raising=False)
    yield sources
    terms._compile.cache_clear()


# leaf names and tags that would break or change generated source if
# they were written into it
AWKWARD = ["'", '"', "\\", ";x", "#", "__import__", "lambda", "K0"]


@pytest.mark.parametrize("text", AWKWARD)
def test_leaf_text_stays_out_of_the_compiled_source(compiled_sources, text):
    const, tagged = Leaf(text), Leaf(text, text)
    var, tagged_var = Leaf("?" + text * 2), Leaf("?" + text, text)
    pattern = Node(Node(const, tagged_var), Node(tagged_var, Node(var, tagged)))
    subjects = [
        Node(Node(const, tagged), Node(tagged, Node(B, tagged))),
        Node(Node(const, tagged), Node(tagged, Node(Node(A, const), tagged))),
        Node(Node(const, Leaf("B", text)), Node(tagged, Node(B, tagged))),
        Node(Node(const, tagged), Node(Leaf("B", text), Node(B, tagged))),
        Node(Node(Leaf("K1"), tagged), Node(tagged, Node(B, tagged))),
        Node(Node(const, tagged), Node(tagged, Node(B, Leaf(text, "K0")))),
        Node(const, tagged),
        const,
    ]
    rule = TreeRule(pattern, Node(Node(var, Leaf("K1", text)), Node(tagged_var, var)))
    for subject in subjects:
        assert match_subst(pattern, subject) == oracle_match_subst(pattern, subject)
        for direction in (FORWARD, REVERSE):
            assert (outcome(apply_tree_rule, subject, rule, "", direction)
                    == outcome(oracle_apply_tree_rule, subject, rule, "", direction))
    assert match_subst(pattern, subjects[0]) == {var.name: B, tagged_var.name: tagged}
    assert len(compiled_sources) == 3
    for source in compiled_sources:
        for other in AWKWARD:
            if other != "K0":  # K0 names the first namespace value
                assert other not in source


def deep_comb(leaves):
    """The left comb over leaves, built without recursion."""
    t = leaves[0]
    for leaf in leaves[1:]:
        t = Node(t, leaf)
    return t


def test_a_300_deep_rule_side_compiles_flat(compiled_sources):
    names = [Leaf(f"?x{k}") for k in range(300)] + [Leaf("?t", "p")]
    lhs = deep_comb(names)
    rhs = names[0]
    for leaf in names[1:]:
        rhs = Node(leaf, rhs)
    rule = TreeRule(lhs, rhs)
    subject = deep_comb([Node(A, Leaf(f"C{k}")) for k in range(300)] + [Leaf("E", "p")])
    t = Node(D, subject)
    rewritten = apply_tree_rule(t, rule, "R")
    assert rewritten == oracle_apply_tree_rule(t, rule, "R")
    assert apply_tree_rule(rewritten, rule, "R", REVERSE) == t
    assert match_subst(lhs, subject) == oracle_match_subst(lhs, subject)
    mismatch = deep_comb([Node(A, Leaf(f"C{k}")) for k in range(300)] + [Leaf("E", "q")])
    assert match_subst(lhs, mismatch) is None
    with pytest.raises(ValueError, match="^rule does not match at path ''$"):
        apply_tree_rule(mismatch, rule, "")
    assert tree_successors(t, [rule]) == oracle_tree_successors(t, [rule])
    for source in compiled_sources:
        # one statement a line, no block inside the function, and brackets
        # that do not nest with the depth of a side
        lines = source.splitlines()
        assert all(line.startswith(" ") and not line.startswith("  ") for line in lines[1:])
        depth = deepest = 0
        for char in source:
            depth += (char in "([{") - (char in ")]}")
            deepest = max(deepest, depth)
        assert deepest <= 2


def test_each_oriented_rule_compiles_once(compiled_sources):
    a = left_comb("ABCDE")
    b = right_comb("ABCDE")
    outcome = search_tree_equivalence(a, b, [ASSOCIATIVITY], 1000)
    assert outcome.status is SearchStatus.PROVEN
    replay_tree_trace([ASSOCIATIVITY], outcome.trace)
    tree_successors(b, [ASSOCIATIVITY])
    apply_tree_rule(a, ASSOCIATIVITY, "L")
    assert len(compiled_sources) == 2  # forward and reverse
