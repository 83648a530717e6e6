"""Binary-tree term rewriting with pattern variables.

Terms are finite binary trees: every internal node has exactly two
children and carries no symbol of its own (a single binary constructor);
leaves carry an identifier plus an optional type tag.  Leaf and Node are
named tuples, so hashing and equality run in CPython's tuple code.  Leaf names
beginning with '?' are pattern variables; a tagged variable only matches
a leaf with the same tag, an untagged variable matches any subterm.

Positions are direction strings over 'L'/'R' ('' is the root).  A rule
lhs => rhs rewrites a matched subterm by the substituted right side;
used symmetrically (both orientations) this gives the tree analogue of
word equivalence, searched with the same bounded engine as strings.

Each rule side is compiled once into closures: the matched side into a
matcher (a node test per pattern node, an equality test per constant
leaf, a bind or compare per variable) and the replacing side into a
builder over the matcher's bindings.  A rule list's plan, the
(index, direction, matcher, builder) of every rule, forward before
reverse, is built anew per call.  The successors of a term come from
one iterative walk over it in preorder with an explicit stack: at each
subterm the plan is tried in order, then the walk enters the left child
and then the right one.  Each stack entry keeps its ancestors as a
linked chain, along which a rewrite is rebuilt around the untouched
siblings, so depth costs no Python recursion.  The search takes these
moves as they come; its visited map keeps the first witness of a term.

Text format: leaves are bare names ('A', '?x', 'A:p'), nodes are
parenthesized pairs: ((A B) C).  Rules are written 'lhs => rhs'.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from .search import DerivationTrace, SearchOutcome, class_search, replay
from .words import at_line, read_declarations


class Leaf(NamedTuple):
    name: str
    tag: Optional[str] = None

    def is_var(self) -> bool:
        return self.name.startswith("?")


class Node(NamedTuple):
    left: "Term"
    right: "Term"


Term = Union[Leaf, Node]

FORWARD = "fwd"
REVERSE = "rev"


class TreeStep(NamedTuple):
    rule: int
    direction: str  # FORWARD applies lhs->rhs, REVERSE applies rhs->lhs
    path: str

    def reversed(self) -> "TreeStep":
        other = REVERSE if self.direction == FORWARD else FORWARD
        return TreeStep(self.rule, other, self.path)


def term_size(t: Term) -> int:
    """The number of leaves and nodes of t, counted without recursion: the
    loop runs over a list that gets each node's children as it goes."""
    subterms = [t]
    for s in subterms:
        if type(s) is Node:
            subterms += s
    return len(subterms)


def variables(t: Term) -> frozenset:
    if isinstance(t, Leaf):
        return frozenset([t.name]) if t.is_var() else frozenset()
    return variables(t.left) | variables(t.right)


@dataclass(frozen=True)
class TreeRule:
    lhs: Term
    rhs: Term

    def __post_init__(self):
        extra = variables(self.rhs) - variables(self.lhs)
        if extra:
            raise ValueError(f"right side introduces unbound variables: {sorted(extra)}")

    def is_reversible(self) -> bool:
        """Both orientations applicable: same variables on both sides."""
        return variables(self.lhs) == variables(self.rhs)


def _matcher(p: Term, slots: Dict[str, int]) -> Callable[[Term, list], bool]:
    """A function (subject, env) -> bool that tests whether p instantiates to
    the subject, appending each variable's value to env at its first
    occurrence in preorder; slots records that order (name -> index)."""
    if type(p) is Node:
        left, right = _matcher(p.left, slots), _matcher(p.right, slots)
        return lambda s, env: type(s) is Node and left(s[0], env) and right(s[1], env)
    if not p.is_var():
        return lambda s, env: s == p  # a Node, a pair of terms, never equals a Leaf
    tag = p.tag
    if p.name in slots:
        i = slots[p.name]
        if tag is None:
            return lambda s, env: env[i] == s
        return lambda s, env: type(s) is Leaf and s[1] == tag and env[i] == s
    slots[p.name] = len(slots)
    if tag is None:
        return lambda s, env: env.append(s) or True
    return lambda s, env: type(s) is Leaf and s[1] == tag and (env.append(s) or True)


def _builder(t: Term, slots: Dict[str, int]) -> Callable[[list], Term]:
    """A function env -> t with every variable replaced by its value in env,
    at its index in slots; a variable outside slots raises when built."""
    if type(t) is Node:
        left, right = _builder(t.left, slots), _builder(t.right, slots)
        return lambda env: Node(left(env), right(env))
    if not t.is_var():
        return lambda env: t
    if t.name in slots:
        return operator.itemgetter(slots[t.name])

    def unbound(env):
        raise ValueError(f"unbound variable {t.name}")
    return unbound


def match_subst(pattern: Term, subject: Term) -> Optional[Dict[str, Term]]:
    """The unique substitution taking pattern to subject, if any.

    Repeated variables must bind to equal subterms; a tagged variable
    matches only a leaf carrying the same tag.
    """
    slots: Dict[str, int] = {}
    env = []
    return dict(zip(slots, env)) if _matcher(pattern, slots)(subject, env) else None


def substitute(t: Term, binding: Dict[str, Term]) -> Term:
    slots = {name: i for i, name in enumerate(binding)}
    return _builder(t, slots)(list(binding.values()))


def _sides(rule: TreeRule, direction: str) -> Tuple[Term, Term]:
    """(matched side, replacing side) of rule applied in direction."""
    if direction == FORWARD:
        return rule.lhs, rule.rhs
    if direction == REVERSE:
        return rule.rhs, rule.lhs
    raise ValueError(f"direction must be {FORWARD!r} or {REVERSE!r}")


def _compile(src: Term, dst: Term) -> Tuple[Callable, Callable]:
    """The matcher of src and the builder of dst over the matcher's env."""
    slots: Dict[str, int] = {}
    return _matcher(src, slots), _builder(dst, slots)


def _plan(rules: List[TreeRule]) -> Tuple[tuple, ...]:
    """(index, direction, matcher, builder) of every rule, forward before
    reverse; every rule must carry the same variables on both sides."""
    plan = []
    for idx, rule in enumerate(rules):
        if not rule.is_reversible():
            raise ValueError(
                f"rule {idx} cannot be applied in reverse: "
                "its sides carry different variables"
            )
        plan += [(idx, d, *_compile(*_sides(rule, d))) for d in (FORWARD, REVERSE)]
    return tuple(plan)


def apply_tree_rule(t: Term, rule: TreeRule, path: str, direction: str = FORWARD) -> Term:
    """Rewrite the subterm addressed by path; it must match the rule side.
    The nodes above it are collected on the way down and rebuilt upwards."""
    match, build = _compile(*_sides(rule, direction))
    spine = []
    for d in path:
        if not isinstance(t, Node):
            raise ValueError(f"path {path!r} leaves the tree")
        if d not in ("L", "R"):
            raise ValueError(f"path direction must be L or R, got {d!r}")
        spine.append(t)
        t = t.left if d == "L" else t.right
    env = []
    if not match(t, env):
        raise ValueError(f"rule does not match at path {path!r}")
    t = build(env)
    for node, d in zip(reversed(spine), reversed(path)):
        t = Node(t, node.right) if d == "L" else Node(node.left, t)
    return t


def _moves(t: Term, plan: Tuple[tuple, ...]) -> List[Tuple[Term, TreeStep]]:
    """Every one-step rewrite of t under the plan, duplicates included: the
    subterms in preorder, at each one the plan in order.  A stack entry is
    a subterm and its chain of ancestors, (node, 'L' or 'R', the node's
    own chain), along which a rewrite is rebuilt and its path read."""
    out = []
    stack = [(t, None)]
    while stack:
        s, chain = stack.pop()
        for idx, direction, match, build in plan:
            env = []
            if match(s, env):
                r = build(env)
                dirs = []
                up = chain
                while up is not None:
                    node, d, up = up
                    r = Node(r, node[1]) if d == "L" else Node(node[0], r)
                    dirs.append(d)
                out.append((r, TreeStep(idx, direction, "".join(reversed(dirs)))))
        if type(s) is Node:
            stack.append((s[1], (s, "R", chain)))
            stack.append((s[0], (s, "L", chain)))
    return out


def tree_successors(t: Term, rules: List[TreeRule]) -> List[Tuple[Term, TreeStep]]:
    """One-step rewrites in both orientations, redexes enumerated in preorder.

    At each position rules are tried in order, forward before reverse;
    results are deduplicated by term, keeping the first witness.  Every
    rule must carry the same variables on both sides.
    """
    out = []
    seen = set()
    for result, step in _moves(t, _plan(rules)):
        if result not in seen:
            seen.add(result)
            out.append((result, step))
    return out


def apply_tree_step(t: Term, rules: List[TreeRule], step: TreeStep) -> Term:
    """Apply one trace step; its rule index must name one of rules."""
    if not 0 <= step.rule < len(rules):
        raise ValueError(f"step {step}: rule index out of range")
    return apply_tree_rule(t, rules[step.rule], step.path, step.direction)


def replay_tree_trace(rules: List[TreeRule], trace: DerivationTrace) -> Term:
    """Re-apply every step, checking matches; raises on any mismatch."""
    for _ in replay(trace, lambda t, step: apply_tree_step(t, rules, step)):
        pass
    return trace.end


def search_tree_equivalence(
    a: Term, b: Term, rules: List[TreeRule], budget: int
) -> SearchOutcome:
    """Bounded bidirectional search for a rewrite chain linking a and b.

    Rules are used in both orientations, so every rule must carry the
    same variables on both sides (otherwise the reversed orientation
    would have unbound variables and infinitely many instances).
    """
    plan = _plan(rules)  # also when a == b, which expands nothing
    # no deduplication here: the search keeps the first witness of each term
    return class_search(
        a,
        b,
        lambda t: _moves(t, plan),
        TreeStep.reversed,
        lambda t: (term_size(t), format_term(t)),
        budget,
    )


def format_term(t: Term) -> str:
    """The text of t, written without recursion: the walk goes down each
    left spine and stacks the right children.  Each subterm carries what
    follows its text: k ')', then ' ', or '' at the end of the text."""
    out = []
    stack = [(t, 0, "")]
    while stack:
        s, k, tail = stack.pop()
        while type(s) is Node:
            out.append("(")
            stack.append((s[1], k + 1, tail))
            s, k, tail = s[0], 0, " "
        out.append(s[0] if s[1] is None else f"{s[0]}:{s[1]}")
        out.append(")" * k + tail)
    return "".join(out)


def _tokenize(text: str) -> List[str]:
    return re.findall(r"[()]|[^\s()]+", text)


def _parse_leaf(token: str) -> Leaf:
    name, sep, tag = token.partition(":")
    if not name or (sep and not tag):
        raise ValueError(f"bad leaf token {token!r}")
    return Leaf(name, tag if sep else None)


def parse_term(text: str) -> Term:
    tokens = _tokenize(text)
    pos = 0

    def parse() -> Term:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of term")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            left = parse()
            right = parse()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("a node must have exactly two children")
            pos += 1
            return Node(left, right)
        if tok == ")":
            raise ValueError("unexpected ')'")
        return _parse_leaf(tok)

    term = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing input after term: {' '.join(tokens[pos:])!r}")
    return term


def parse_tree_rule(text: str) -> TreeRule:
    sides = text.split("=>")
    if len(sides) != 2:
        raise ValueError("expected 'lhs => rhs'")
    return TreeRule(parse_term(sides[0]), parse_term(sides[1]))


def parse_tree_rules(text: str) -> List[TreeRule]:
    """One 'rule: lhs => rhs' declaration per line."""
    found = read_declarations(text, once=(), many=("rule",))
    return [at_line(*line, parse_tree_rule) for line in found["rule"]]


ASSOCIATIVITY = TreeRule(
    Node(Node(Leaf("?x"), Leaf("?y")), Leaf("?z")),
    Node(Leaf("?x"), Node(Leaf("?y"), Leaf("?z"))),
)
