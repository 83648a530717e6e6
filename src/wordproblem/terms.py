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

Each oriented rule is compiled once, on first use, into one flat
function generated as Python source: a guard line per node of the
matched side, a temporary per subterm read or built, the replacing side
built with tuple.__new__, None when the side does not match.
match_subst comes from the same compiler, returning the binding instead.
The compiled functions are cached on the rule's two sides, so searches,
successors and trace replay share them.  The successors of a term come
from one iterative walk over it in preorder with an explicit stack: at
each subterm the plan, the compiled rules in order, forward before
reverse, is tried, then the walk enters the left child and then the
right one.  Each stack entry keeps its path and its ancestors as a
linked chain, along which a rewrite is rebuilt around the untouched
siblings, so depth costs no Python recursion.  The search takes these
moves as they come; its visited map keeps the first witness of a term.

Text format: leaves are bare names ('A', '?x', 'A:p'), nodes are
parenthesized pairs: ((A B) C).  Rules are written 'lhs => rhs'.
"""

from __future__ import annotations

import functools
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

_new = tuple.__new__  # builds a Node or TreeStep without its Python-level __new__

FORWARD = "fwd"
REVERSE = "rev"


class TreeStep(NamedTuple):
    rule: int
    direction: str  # FORWARD applies lhs->rhs, REVERSE applies rhs->lhs
    path: str

    def reversed(self) -> "TreeStep":
        other = REVERSE if self.direction == FORWARD else FORWARD
        return TreeStep(self.rule, other, self.path)


def _subterms(t: Term) -> List[Term]:
    """The leaves and nodes of t, listed without recursion: the loop runs
    over a list that gets each node's children as it goes."""
    subterms = [t]
    for s in subterms:
        if type(s) is Node:
            subterms += s
    return subterms


def term_size(t: Term) -> int:
    return len(_subterms(t))


def variables(t: Term) -> frozenset:
    return frozenset(s.name for s in _subterms(t) if type(s) is Leaf and s.is_var())


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


@functools.lru_cache(maxsize=64)
def _compile(src: Term, dst: Optional[Term]) -> Callable[[Term], object]:
    """The function s -> dst instantiated by the match of src on s, or None
    when src does not match s; with dst None, s -> the match's binding
    (variable name -> subterm), or None.  Cached on the two sides, so
    each oriented rule compiles once.

    The function is straight-line source built with compile: one guard
    line per node of src (a node test, a constant comparison, or a tag
    test and a comparison with a repeated variable's first occurrence,
    in preorder, as a recursive matcher would test them), one temporary
    per subterm read or built, and nodes built with tuple.__new__.
    Nothing nests with the depth of a side.  The temporaries are v0 (the
    subject), v1, v2, ...; constant leaves, tags, variable names and
    messages are namespace values K0, K1, ..., so no text of the rule
    enters the source.  A variable of dst that src does not bind raises
    ValueError once src has matched.
    """
    consts: List[object] = []

    def const(value) -> str:
        consts.append(value)
        return f"K{len(consts) - 1}"

    lines = ["def rewrite(v0):"]
    slots: Dict[str, str] = {}  # variable name -> temporary of its first occurrence
    n = 1
    stack = [(src, "v0")]
    while stack:
        p, v = stack.pop()
        if type(p) is Node:
            lines += [f" if type({v}) is not Node: return None",
                      f" v{n}, v{n + 1} = {v}[0], {v}[1]"]
            stack += ((p[1], f"v{n + 1}"), (p[0], f"v{n}"))
            n += 2
        elif not p.is_var():
            lines.append(f" if {v} != {const(p)}: return None")
        else:
            tests = []
            if p[1] is not None:
                tests += [f"type({v}) is not Leaf", f"{v}[1] != {const(p[1])}"]
            if p[0] in slots:
                tests.append(f"{slots[p[0]]} != {v}")
            else:
                slots[p[0]] = v
            if tests:
                lines.append(f" if {' or '.join(tests)}: return None")
    if dst is None:
        pairs = "".join(f"{const(name)}: {v}, " for name, v in slots.items())
        lines.append(f" return {{{pairs}}}")
    else:
        built: List[str] = []  # temporaries of the subterms of dst built so far
        stack = [dst]  # None marks a node whose two children are built
        while stack:
            t = stack.pop()
            if t is None:
                right = built.pop()
                lines.append(f" v{n} = new(Node, ({built.pop()}, {right}))")
                built.append(f"v{n}")
                n += 1
            elif type(t) is Node:
                stack += (None, t[1], t[0])
            elif not t.is_var():
                built.append(const(t))
            elif t[0] in slots:
                built.append(slots[t[0]])
            else:
                lines.append(f" raise ValueError({const(f'unbound variable {t[0]}')})")
                break
        else:
            lines.append(f" return {built[0]}")
    namespace = {f"K{i}": value for i, value in enumerate(consts)}
    namespace.update(Node=Node, Leaf=Leaf, new=_new)
    exec(compile("\n".join(lines), "<rewrite>", "exec"), namespace)
    return namespace["rewrite"]


def match_subst(pattern: Term, subject: Term) -> Optional[Dict[str, Term]]:
    """The unique substitution taking pattern to subject, if any.

    Repeated variables must bind to equal subterms; a tagged variable
    matches only a leaf carrying the same tag.
    """
    return _compile(pattern, None)(subject)


def _sides(rule: TreeRule, direction: str) -> Tuple[Term, Term]:
    """(matched side, replacing side) of rule applied in direction."""
    if direction == FORWARD:
        return rule.lhs, rule.rhs
    if direction == REVERSE:
        return rule.rhs, rule.lhs
    raise ValueError(f"direction must be {FORWARD!r} or {REVERSE!r}")


def _plan(rules: List[TreeRule]) -> Tuple[tuple, tuple]:
    """The (index, direction, rewrite) of every rule, forward before
    reverse, and apart the entries whose matched side is not a node, the
    only ones that can match a leaf.  Every rule must carry the same
    variables on both sides."""
    plan, at_leaves = [], []
    for idx, rule in enumerate(rules):
        if not rule.is_reversible():
            raise ValueError(
                f"rule {idx} cannot be applied in reverse: "
                "its sides carry different variables"
            )
        for d in (FORWARD, REVERSE):
            src, dst = _sides(rule, d)
            plan.append((idx, d, _compile(src, dst)))
            if type(src) is not Node:
                at_leaves.append(plan[-1])
    return tuple(plan), tuple(at_leaves)


def apply_tree_rule(t: Term, rule: TreeRule, path: str, direction: str = FORWARD) -> Term:
    """Rewrite the subterm addressed by path; it must match the rule side.
    The nodes above it are collected on the way down and rebuilt upwards."""
    rewrite = _compile(*_sides(rule, direction))
    spine = []
    for d in path:
        if not isinstance(t, Node):
            raise ValueError(f"path {path!r} leaves the tree")
        if d not in ("L", "R"):
            raise ValueError(f"path direction must be L or R, got {d!r}")
        spine.append(t)
        t = t.left if d == "L" else t.right
    t = rewrite(t)
    if t is None:
        raise ValueError(f"rule does not match at path {path!r}")
    for node, d in zip(reversed(spine), reversed(path)):
        t = _new(Node, (t, node[1]) if d == "L" else (node[0], t))
    return t


def _moves(t: Term, plan: Tuple[tuple, tuple]) -> List[Tuple[Term, TreeStep]]:
    """Every one-step rewrite of t under the plan, duplicates included: the
    subterms in preorder, at each one the plan's entries in order (at a
    leaf, those that can match a leaf; no leaf is visited when none can).
    A stack entry is a subterm, its path and its chain of ancestors (node,
    the node's own chain), along which a rewrite is rebuilt."""
    plan, at_leaves = plan
    out = []
    stack = [(t, "", None)]
    while stack:
        s, path, chain = stack.pop()
        if type(s) is Node:
            tries = plan
            up = (s, chain)
            if at_leaves or type(s[1]) is Node:
                stack.append((s[1], path + "R", up))
            if at_leaves or type(s[0]) is Node:
                stack.append((s[0], path + "L", up))
        else:
            tries = at_leaves
        for idx, direction, rewrite in tries:
            r = rewrite(s)
            if r is not None:
                up = chain
                for d in reversed(path):
                    node, up = up
                    r = _new(Node, (r, node[1]) if d == "L" else (node[0], r))
                out.append((r, _new(TreeStep, (idx, direction, path))))
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
