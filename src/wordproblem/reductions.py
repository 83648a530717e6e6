"""Deterministic single-tape machines and their rewriting encodings.

A machine configuration is written as a word

    <L> left-tape (state)(head symbol) right-tape <R>

over an alphabet holding the tape symbols, one letter per state, the two
end markers and a halt marker.  Each defined transition becomes one
directed rule per possible neighbour: a right move consumes the letter
after the head (or the right end marker, materializing a blank), a left
move consumes the letter before it (or the left end marker).  This keeps
one machine step equal to exactly one rewrite step, which the lockstep
checker verifies.

A state/symbol pair with no transition rewrites to the halt marker;
cleanup rules erase tape letters adjacent to the marker, so a machine
halting after k steps reaches the halt word <L><H><R> in exactly
k + 1 + (remaining tape letters) rewrite steps.

Machine text format, read by :func:`wordproblem.words.read_declarations`:

    states: 2
    symbols: a b        first symbol is the blank
    start: q0           q0 if no 'start:' line
    trans: q0 b -> q0 b R

'states:', 'symbols:' and 'start:' are declared at most once; the lines
may come in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple

from .rewriting import RewriteSystem, SystemKind, successors
from .words import (LETTERS, alphabet_size, at_line, check_letters, format_plain, parse_plain,
                    read_declarations, spell)

Move = str  # "L" or "R"
Transition = Tuple[int, int, Move]  # new state, written symbol, move

BLANK = 0


@dataclass(frozen=True)
class TuringMachine:
    n_states: int
    n_symbols: int  # tape alphabet size, symbol 0 is the blank
    transitions: Dict[Tuple[int, int], Transition] = field(default_factory=dict)
    start_state: int = 0

    def __post_init__(self):
        if self.n_states < 1 or self.n_symbols < 1:
            raise ValueError("need at least one state and one symbol")
        if not 0 <= self.start_state < self.n_states:
            raise ValueError("start state out of range")
        for (q, s), (q2, w, move) in self.transitions.items():
            ok = (
                0 <= q < self.n_states
                and 0 <= q2 < self.n_states
                and 0 <= s < self.n_symbols
                and 0 <= w < self.n_symbols
                and move in ("L", "R")
            )
            if not ok:
                raise ValueError(f"bad transition ({q},{s}) -> ({q2},{w},{move})")


class Configuration(NamedTuple):
    """Materialized tape window; cells beyond it are blank.  The window
    grows when the head steps past an end and never shrinks, mirroring
    the rewriting encoding exactly."""

    left: Tuple[int, ...]
    state: int
    head: int
    right: Tuple[int, ...]

    def tape(self) -> Tuple[int, ...]:
        return self.left + (self.head,) + self.right


def initial_config(m: TuringMachine, tape: Tuple[int, ...]) -> Configuration:
    for s in tape:
        if not 0 <= s < m.n_symbols:
            raise ValueError(f"tape symbol {s} out of range")
    if tape:
        return Configuration((), m.start_state, tape[0], tuple(tape[1:]))
    return Configuration((), m.start_state, BLANK, ())


def tm_step(m: TuringMachine, c: Configuration) -> Optional[Configuration]:
    """One move, or None if no transition is defined (the machine halts)."""
    trans = m.transitions.get((c.state, c.head))
    if trans is None:
        return None
    q2, written, move = trans
    if move == "R":
        right = c.right or (BLANK,)
        return Configuration(c.left + (written,), q2, right[0], right[1:])
    left = c.left or (BLANK,)
    return Configuration(left[:-1], q2, left[-1], (written,) + c.right)


class TmResult(NamedTuple):
    halted: bool
    steps: int
    config: Configuration


def tm_run(m: TuringMachine, tape: Tuple[int, ...], max_steps: int) -> TmResult:
    """Simulate up to max_steps moves; halted means an undefined
    transition was reached within that many."""
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    c = initial_config(m, tape)
    steps = 0
    while True:
        nxt = tm_step(m, c)
        if nxt is None:
            return TmResult(True, steps, c)
        if steps == max_steps:
            return TmResult(False, steps, c)
        c = nxt
        steps += 1


class TmEncoding(NamedTuple):
    """Directed rewriting system simulating a machine on configuration
    words, plus the injective configuration-to-word map and the word all
    halting runs drain to."""

    machine: TuringMachine
    system: RewriteSystem
    halt_word: str

    @property
    def left_marker(self) -> str:
        return self.halt_word[0]

    @property
    def halt_marker(self) -> str:
        return self.halt_word[1]

    @property
    def right_marker(self) -> str:
        return self.halt_word[2]

    def config_word(self, c: Configuration) -> str:
        cells = c.left + (self.machine.n_symbols + c.state, c.head) + c.right
        return self.left_marker + spell(cells) + self.right_marker

    def start_word(self, tape: Tuple[int, ...]) -> str:
        return self.config_word(initial_config(self.machine, tape))

    def cleanup_length(self, final: Configuration) -> int:
        """Rewrite steps from a halting configuration word to the halt
        word: one marker step plus one erasure per remaining tape letter."""
        return 1 + len(final.left) + len(final.right)


def encode(m: TuringMachine) -> TmEncoding:
    """Build the configuration-word rewriting system for m.

    Letters 0..n_symbols-1 are the tape symbols, the next n_states
    letters the states, then the left end marker, right end marker and
    halt marker.
    """
    n_letters = m.n_symbols + m.n_states + 3
    if n_letters > len(LETTERS):
        raise ValueError("machine too large for the letter alphabet")
    sym = LETTERS[: m.n_symbols]
    state = LETTERS[m.n_symbols : m.n_symbols + m.n_states]
    lend, rend, halt = LETTERS[m.n_symbols + m.n_states : n_letters]
    blank = sym[BLANK]

    rules = []
    for (q, s) in sorted(m.transitions):
        q2, written, move = m.transitions[(q, s)]
        here = state[q] + sym[s]
        if move == "R":
            for t in sym:
                rules.append((here + t, sym[written] + state[q2] + t))
            rules.append((here + rend, sym[written] + state[q2] + blank + rend))
        else:
            for t in sym:
                rules.append((t + here, state[q2] + t + sym[written]))
            rules.append((lend + here, lend + state[q2] + blank + sym[written]))
    for q in range(m.n_states):
        for s in range(m.n_symbols):
            if (q, s) not in m.transitions:
                rules.append((state[q] + sym[s], halt))
    for t in sym:
        rules.append((t + halt, halt))
    for t in sym:
        rules.append((halt + t, halt))

    system = RewriteSystem(n_letters, tuple(rules), SystemKind.SEMI_THUE)
    return TmEncoding(m, system, lend + halt + rend)


def verify_simulation(m: TuringMachine, tape: Tuple[int, ...], k: int) -> bool:
    """Lockstep oracle: run the machine and rewrite the start word side
    by side for min(k, halting time) steps; every intermediate word must
    be the image of the corresponding configuration, and each pre-halt
    word must have exactly one successor."""
    if k < 0:
        raise ValueError("k must be >= 0")
    enc = encode(m)
    c = initial_config(m, tape)
    w = enc.config_word(c)
    for _ in range(k):
        nxt = tm_step(m, c)
        if nxt is None:
            return True
        succ = successors(w, enc.system)
        if len(succ) != 1:
            return False
        w = succ[0][0]
        c = nxt
        if w != enc.config_word(c):
            return False
    return True


TM_CATALOG = {
    # name -> builder; small reference machines used in tests and from the CLI
    "no_transition": lambda: TuringMachine(1, 2, {}),
    # skip right over marks, write one more mark on the first blank, halt
    "unary_appender": lambda: TuringMachine(2, 2, {(0, 1): (0, 1, "R"), (0, 0): (1, 1, "R")}),
    "loop_right": lambda: TuringMachine(1, 2, {(0, 0): (0, 0, "R"), (0, 1): (0, 1, "R")}),
}


def tm_catalog(name: str) -> TuringMachine:
    """The machine of that name in :data:`TM_CATALOG`."""
    if name not in TM_CATALOG:
        raise ValueError(f"unknown machine {name!r}; known: {', '.join(TM_CATALOG)}")
    return TM_CATALOG[name]()


def format_machine(m: TuringMachine) -> str:
    lines = [f"states: {m.n_states}"]
    names = spell(range(m.n_symbols))
    lines.append("symbols: " + " ".join(names))
    lines.append(f"start: q{m.start_state}")
    for (q, s) in sorted(m.transitions):
        q2, w, move = m.transitions[(q, s)]
        lines.append(f"trans: q{q} {names[s]} -> q{q2} {names[w]} {move}")
    return "\n".join(lines) + "\n"


def _parse_state(token: str, n_states: int) -> int:
    if not token.startswith("q") or not token[1:].isdigit():
        raise ValueError(f"bad state name {token!r}")
    q = int(token[1:])
    if q >= n_states:
        raise ValueError(f"state {token!r} out of range")
    return q


def _state_count(value: str) -> int:
    try:
        n_states = int(value)
    except ValueError:
        raise ValueError(f"expected a number of states, got {value!r}") from None
    if n_states < 1:
        raise ValueError(f"need at least one state, got {n_states}")
    return n_states


def _transition(value: str, n_states: int, n_symbols: int, defined: dict) -> tuple:
    """((state, symbol), (new state, written symbol, move)) of the value of
    a 'trans:' line; the pair must not be in defined yet."""
    parts = value.split()
    if len(parts) != 6 or parts[2] != "->":
        raise ValueError("expected 'trans: qI x -> qJ y L|R'")
    q = _parse_state(parts[0], n_states)
    q2 = _parse_state(parts[3], n_states)
    for sym in (parts[1], parts[4]):
        if len(sym) != 1 or sym not in LETTERS[:n_symbols]:
            raise ValueError(f"unknown symbol {sym!r}")
    s = LETTERS.index(parts[1])
    w = LETTERS.index(parts[4])
    move = parts[5]
    if move not in ("L", "R"):
        raise ValueError("move must be L or R")
    if (q, s) in defined:
        raise ValueError(f"duplicate transition for q{q},{parts[1]}")
    return (q, s), (q2, w, move)


def parse_machine(text: str) -> TuringMachine:
    found = read_declarations(text, once=("states", "symbols", "start"), many=("trans",))
    if not found["states"] or not found["symbols"]:
        raise ValueError("missing 'states:' or 'symbols:' line")
    n_states = at_line(*found["states"][0], _state_count)
    n_symbols = at_line(*found["symbols"][0], alphabet_size)
    start = at_line(*found["start"][0], _parse_state, n_states) if found["start"] else 0
    transitions = {}
    for line in found["trans"]:
        pair, target = at_line(*line, _transition, n_states, n_symbols, transitions)
        transitions[pair] = target
    return TuringMachine(n_states, n_symbols, transitions, start)


def parse_tape(text: str, m: TuringMachine) -> Tuple[int, ...]:
    """Tape words use the same letters as the 'symbols:' line."""
    text = check_letters(parse_plain(text.strip()), m.n_symbols)
    return tuple(LETTERS.index(c) for c in text)


def format_tape(tape: Tuple[int, ...]) -> str:
    return format_plain(spell(tape))
