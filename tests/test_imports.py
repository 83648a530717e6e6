"""Every name a package module imports is used in that module, and every
private module-level name it defines is read in that module.

No linter ships with the package, so these standard-library checks keep
stale imports and dead private helpers out after code moves between
modules.  ``__init__.py`` is skipped by the import check: its imports
are the public re-exports.

Two input rules are decided only in ``words.py``: how an error names the
line of a text file, and what a group letter is.  One check keeps other
modules from deciding them again.  The letter code (generator i is
chr(2i), its inverse chr(2i + 1)) is likewise written only there, in
``letter_codes``; another check keeps other modules from writing it again.

A class is a dataclass only when its constructor checks its input in
``__post_init__``; a plain record is a ``NamedTuple``.  One check keeps
that rule.

A plain tuple equals the GenLetter with the same fields, and only
``words.only_gen_letters`` tells the two apart (``distinct_letters`` and
the Cayley walk call it); one check keeps that test there.  Deep input
must not cost Python recursion, so the last check finds every function
that calls itself by name.
"""

import ast
import re
from pathlib import Path

import pytest

import wordproblem

PACKAGE = Path(wordproblem.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def imported_names(tree):
    """(bound name, line) for each import; __future__ imports bind nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_flags_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Tuple\nx: Tuple = os.sep\n")
    names = used_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in names] == ["List"]


def unread_private_names(tree):
    """Module-level _names (functions, classes, constants) never loaded."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.append(node.target.id)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in loaded]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    unread = unread_private_names(ast.parse(path.read_text(encoding="utf-8")))
    assert not unread, f"{path.name} defines private names it never reads: {unread}"


def test_flags_an_unread_private_name():
    tree = ast.parse("_A = 1\n_B: int = 2\n__all__ = []\n"
                     "def _used(): return _A\ndef _old(): pass\nclass _Gone: pass\n"
                     "def run(): return _used()\n")
    assert unread_private_names(tree) == ["_B", "_old", "_Gone"]


# a 'line N:' prefix built by hand, or one of check_word's two messages
DECIDED_IN_WORDS = re.compile(r"\bline \{|\bline %|malformed letter|letter index")


def decided_again(text):
    return [f"line {n}: {line.strip()}" for n, line in enumerate(text.splitlines(), start=1)
            if DECIDED_IN_WORDS.search(line)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "words.py"],
                         ids=lambda p: p.name)
def test_input_rules_are_decided_in_words(path):
    found = decided_again(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name} decides what words.py decides: {found}"


def test_flags_a_rule_decided_again():
    text = ('raise ValueError(f"line {lineno}: {exc}")\n'
            'raise ValueError(f"letter index {i} out of range")\n'
            'x = "one relator per line"\n')
    assert decided_again(text) == [
        'line 1: raise ValueError(f"line {lineno}: {exc}")',
        'line 2: raise ValueError(f"letter index {i} out of range")',
    ]


# the letter code: a chr( call, or twice a letter's index
CODED_IN_WORDS = re.compile(r"\bchr\(|\b2\s*\*\s*\w+(?:\.index\b|\[0\])")


def coded_again(text):
    return [f"line {n}: {line.strip()}" for n, line in enumerate(text.splitlines(), start=1)
            if CODED_IN_WORDS.search(line)]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "words.py"],
                         ids=lambda p: p.name)
def test_letters_are_coded_in_words(path):
    found = coded_again(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name} codes letters, which words.letter_codes does: {found}"


def test_flags_a_letter_coded_again():
    text = ("return 2 * letter.index + (0 if letter.sign > 0 else 1)\n"
            "code = chr(k + 1)\n"
            "codes = {x: chr(2*x[0] + (x[1] < 0)) for x in letters}\n"
            "cols = 2 * n_gens\n"
            "row[2 * i]\n"
            "column = ord(codes[letter])\n")
    assert coded_again(text) == [
        "line 1: return 2 * letter.index + (0 if letter.sign > 0 else 1)",
        "line 2: code = chr(k + 1)",
        "line 3: codes = {x: chr(2*x[0] + (x[1] < 0)) for x in letters}",
    ]


def is_dataclass_decorator(node):
    """@dataclass, @dataclass(...), @dataclasses.dataclass or a call of it."""
    if isinstance(node, ast.Call):
        node = node.func
    return ((isinstance(node, ast.Name) and node.id == "dataclass")
            or (isinstance(node, ast.Attribute) and node.attr == "dataclass"))


def unchecked_dataclasses(tree):
    """Classes decorated as dataclasses that define no __post_init__."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(map(is_dataclass_decorator, node.decorator_list))
            and not any(isinstance(s, ast.FunctionDef) and s.name == "__post_init__"
                        for s in node.body)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_dataclass_checks_its_input(path):
    plain = unchecked_dataclasses(ast.parse(path.read_text(encoding="utf-8")))
    assert not plain, f"{path.name} writes plain records as dataclasses, not NamedTuples: {plain}"


def test_flags_a_dataclass_without_checks():
    tree = ast.parse("@dataclass(frozen=True)\nclass Checked:\n    x: int\n"
                     "    def __post_init__(self): pass\n"
                     "@dataclass\nclass Plain:\n    x: int\n"
                     "@dataclasses.dataclass(frozen=True)\nclass Dotted:\n    x: int\n"
                     "class Record(NamedTuple):\n    x: int\n")
    assert unchecked_dataclasses(tree) == ["Plain", "Dotted"]


# the plain-tuple guard: are all the letters' types GenLetter
PLAIN_TUPLE_GUARD = re.compile(r"\{GenLetter\}\s*\.issuperset\(\s*map\(\s*type\b")


def plain_tuple_guards(source):
    """The innermost function around each line of source that holds the
    plain-tuple guard, or '' at module level."""
    functions = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]

    def around(n):
        inner = [f for f in functions if f.lineno <= n <= f.end_lineno]
        return max(inner, key=lambda f: f.lineno).name if inner else ""

    return [around(n) for n, line in enumerate(source.splitlines(), start=1)
            if PLAIN_TUPLE_GUARD.search(line)]


def test_plain_tuples_are_told_apart_in_one_predicate():
    found = {p.name: plain_tuple_guards(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {name: f for name, f in found.items() if f} == {"words.py": ["only_gen_letters"]}


def test_flags_a_plain_tuple_guard_written_again():
    source = ("def distinct_letters(w):\n"
              "    return {GenLetter}.issuperset(map(type, w))\n"
              "def format_word(w):\n"
              "    def inner():\n"
              "        return {GenLetter}.issuperset( map(type, w))\n"
              "    return {GenLetter}.issubset(map(type, w))\n"
              "ok = {GenLetter}.issuperset(map(type, ()))\n")
    assert plain_tuple_guards(source) == ["distinct_letters", "inner", ""]


def self_calls(tree):
    """The functions whose body calls a name equal to their own."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == node.name for call in ast.walk(node))]


# the inner parse of terms.parse_term is the one recursive function left;
# making parse_term keep its own stack (ROADMAP, item 13) deletes this entry
STILL_RECURSIVE = {"terms.py": ["parse"]}


def test_no_function_calls_itself():
    found = {p.name: self_calls(ast.parse(p.read_text(encoding="utf-8"))) for p in SOURCES}
    assert {name: f for name, f in found.items() if f} == STILL_RECURSIVE


def test_flags_a_function_calling_itself():
    tree = ast.parse("def walk(t):\n    return [walk(c) for c in t]\n"
                     "def outer(t):\n    def inner(u):\n        return inner(u[1:])\n"
                     "    return inner(t)\n"
                     "def loop(t):\n    return t.loop()\n")
    assert self_calls(tree) == ["walk", "inner"]
