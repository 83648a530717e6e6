import random

import pytest

from wordproblem import reductions
from wordproblem.reductions import (
    Configuration,
    TuringMachine,
    encode,
    format_machine,
    format_tape,
    initial_config,
    parse_machine,
    parse_tape,
    tm_catalog,
    tm_run,
    tm_step,
    verify_simulation,
)
from wordproblem.rewriting import RewriteSystem, search_equivalence, successors
from wordproblem.search import SearchStatus


def random_machine(rng, n_states=3, n_symbols=2, density=0.8):
    transitions = {}
    for q in range(n_states):
        for s in range(n_symbols):
            if rng.random() < density:
                transitions[(q, s)] = (
                    rng.randrange(n_states),
                    rng.randrange(n_symbols),
                    rng.choice("LR"),
                )
    return TuringMachine(n_states, n_symbols, transitions)


class TestTmRun:
    def test_no_transitions_halts_immediately(self):
        result = tm_run(tm_catalog("no_transition"), (1, 0, 1), 100)
        assert result.halted and result.steps == 0

    def test_right_loop_never_halts(self):
        result = tm_run(tm_catalog("loop_right"), (), 100)
        assert not result.halted
        assert result.steps == 100

    def test_unary_appender_adds_one_mark(self):
        result = tm_run(tm_catalog("unary_appender"), (1, 1), 100)
        assert result.halted
        tape = result.config.tape()
        marks = tuple(s for s in tape if s != 0)
        assert marks == (1, 1, 1)

    def test_zero_step_budget(self):
        assert not tm_run(tm_catalog("loop_right"), (), 0).halted
        assert tm_run(tm_catalog("no_transition"), (), 0).halted

    def test_left_edge_materializes_blank(self):
        machine = TuringMachine(1, 2, {(0, 1): (0, 1, "L")})
        config = tm_step(machine, initial_config(machine, (1,)))
        assert config == Configuration((), 0, 0, (1,))


class TestEncoding:
    def test_alphabet_layout(self):
        enc = encode(tm_catalog("unary_appender"))
        assert enc.system.alphabet_size == 2 + 2 + 3
        assert enc.halt_word == enc.left_marker + enc.halt_marker + enc.right_marker

    def test_config_word_is_injective_on_a_run(self):
        machine = tm_catalog("unary_appender")
        enc = encode(machine)
        seen = set()
        config = initial_config(machine, (1, 1, 1))
        while config is not None:
            word = enc.config_word(config)
            assert word not in seen
            seen.add(word)
            config = tm_step(machine, config)

    def test_exactly_one_successor_before_halting(self):
        rng = random.Random(61)
        for _ in range(30):
            machine = random_machine(rng)
            enc = encode(machine)
            config = initial_config(machine, (1, 0))
            word = enc.config_word(config)
            for _ in range(30):
                nxt = tm_step(machine, config)
                if nxt is None:
                    break
                succ = successors(word, enc.system)
                assert len(succ) == 1
                word = succ[0][0]
                config = nxt

    def test_immediate_halt_runs_cleanup_only(self):
        machine = tm_catalog("no_transition")
        enc = encode(machine)
        start = enc.start_word(())
        outcome = search_equivalence(start, enc.halt_word, enc.system, 100)
        assert outcome.status is SearchStatus.PROVEN
        # one marker step erases the head blank; nothing else is on the tape
        assert len(outcome.trace.steps) == 1

    def test_appender_derivation_length(self):
        machine = tm_catalog("unary_appender")
        enc = encode(machine)
        result = tm_run(machine, (1, 1), 100)
        expected = result.steps + enc.cleanup_length(result.config)
        outcome = search_equivalence(
            enc.start_word((1, 1)), enc.halt_word, enc.system, 10000
        )
        assert outcome.status is SearchStatus.PROVEN
        assert len(outcome.trace.steps) == expected

    def test_loop_never_reaches_halt_word(self):
        machine = tm_catalog("loop_right")
        enc = encode(machine)
        outcome = search_equivalence(enc.start_word(()), enc.halt_word, enc.system, 10000)
        assert outcome.status is SearchStatus.BUDGET_EXHAUSTED


class TestVerifySimulation:
    def test_zero_steps(self):
        assert verify_simulation(tm_catalog("loop_right"), (), 0)

    def test_appender_full_run(self):
        assert verify_simulation(tm_catalog("unary_appender"), (1, 1), 10)

    def test_seeded_random_machines(self):
        rng = random.Random(62)
        for _ in range(100):
            machine = random_machine(rng)
            tape = tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))
            assert verify_simulation(machine, tape, 50)

    @staticmethod
    def broken_first_rule(monkeypatch, machine, tape, mend):
        """Make encode return the system with the rule of the first move
        replaced by mend(lhs, rhs), or dropped where mend gives None."""
        real = reductions.encode(machine)
        ((_, first, _),) = successors(real.start_word(tape), real.system)
        rules = [rule if i != first else mend(*rule) for i, rule in enumerate(real.system.rules)]
        system = RewriteSystem(real.system.alphabet_size, tuple(filter(None, rules)),
                               real.system.kind)
        monkeypatch.setattr(reductions, "encode",
                            lambda m: reductions.TmEncoding(m, system, real.halt_word))

    def test_fails_when_a_pre_halt_word_has_no_successor(self, monkeypatch):
        machine = tm_catalog("unary_appender")
        assert verify_simulation(machine, (1, 1), 10)
        self.broken_first_rule(monkeypatch, machine, (1, 1), lambda lhs, rhs: None)
        assert not verify_simulation(machine, (1, 1), 10)

    def test_fails_when_the_successor_is_not_the_next_configuration(self, monkeypatch):
        machine = tm_catalog("unary_appender")
        self.broken_first_rule(monkeypatch, machine, (1, 1), lambda lhs, rhs: (lhs, rhs + rhs))
        assert not verify_simulation(machine, (1, 1), 10)


@pytest.mark.parametrize("call, message", [
    (lambda: TuringMachine(0, 2), "need at least one state and one symbol"),
    (lambda: TuringMachine(2, 2, start_state=2), "start state out of range"),
    (lambda: TuringMachine(1, 2, {(0, 0): (0, 5, "R")}), "bad transition (0,0) -> (0,5,R)"),
    (lambda: tm_run(tm_catalog("loop_right"), (7,), 10), "tape symbol 7 out of range"),
    (lambda: tm_run(tm_catalog("loop_right"), (), -1), "max_steps must be >= 0"),
    (lambda: encode(TuringMachine(20, 5)), "machine too large for the letter alphabet"),
    (lambda: verify_simulation(tm_catalog("loop_right"), (), -1), "k must be >= 0"),
    (lambda: tm_catalog("nope"),
     "unknown machine 'nope'; known: " + ", ".join(reductions.TM_CATALOG)),
])
def test_argument_guards(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestTextFormat:
    def test_round_trip(self):
        for name in ("no_transition", "unary_appender", "loop_right"):
            machine = tm_catalog(name)
            assert parse_machine(format_machine(machine)) == machine

    def test_parse_example(self):
        machine = parse_machine(
            "states: 2\nsymbols: a b\nstart: q0\ntrans: q0 a -> q1 b R\n"
        )
        assert machine.transitions == {(0, 0): (1, 1, "R")}

    def test_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            parse_machine("states: 1\nsymbols: a\ntrans: q0 a -> q5 a R\n")
        with pytest.raises(ValueError):
            parse_machine("states: 1\nsymbols: a\ntrans: q0 z -> q0 a R\n")
        with pytest.raises(ValueError):
            parse_machine("states: 1\nsymbols: a\ntrans: q0 a -> q0 a X\n")
        with pytest.raises(ValueError):
            parse_machine("symbols: a\ntrans: q0 a -> q0 a R\n")

    def test_tape_round_trip(self):
        machine = tm_catalog("unary_appender")
        assert parse_tape("bb", machine) == (1, 1)
        assert parse_tape("1", machine) == ()
        assert format_tape((1, 1)) == "bb"
        assert format_tape(()) == "1"
        with pytest.raises(ValueError):
            parse_tape("z", machine)


def test_two_letter_symbol_rejected():
    for line in ("trans: q0 ab -> q0 b R", "trans: q0 a -> q0 ba R"):
        with pytest.raises(ValueError, match="unknown symbol"):
            parse_machine(f"states: 1\nsymbols: a b\n{line}\n")


def test_at_most_26_symbols():
    symbols = " ".join("abcdefghijklmnopqrstuvwxyz")
    assert parse_machine(f"states: 1\nsymbols: {symbols}\n").n_symbols == 26
    with pytest.raises(ValueError, match="^line 2: expected consecutive letters"):
        parse_machine(f"states: 1\nsymbols: {symbols} {{\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("states: x\nsymbols: a\n", "line 1: expected a number of states, got 'x'"),
        ("symbols: a\nstates: 0\n", "line 2: need at least one state, got 0"),
        ("states: 2\nsymbols: a\nstart: q3\n", "line 3: state 'q3' out of range"),
        ("states: 2\nsymbols: a\nstart: 3\n", "line 3: bad state name '3'"),
        ("states: 1\nsymbols: a\n\ntrans: q0 a -> q5 a R\n", "line 4: state 'q5' out of range"),
    ],
)
def test_machine_errors_name_their_line(text, message):
    with pytest.raises(ValueError) as info:
        parse_machine(text)
    assert str(info.value) == message


def test_formatters_refuse_indices_without_a_letter():
    assert format_machine(TuringMachine(1, 26)).splitlines()[1].endswith(" y z")
    with pytest.raises(ValueError, match="outside the 26 text letters"):
        format_machine(TuringMachine(1, 27))
    with pytest.raises(ValueError, match="outside the 26 text letters"):
        format_tape((30,))
    with pytest.raises(ValueError, match="outside the 26 text letters"):
        format_tape((0, -1))
    enc = encode(tm_catalog("unary_appender"))
    assert enc.config_word(Configuration((1,), 0, 0, (1,))) == "ebcabf"
    with pytest.raises(ValueError, match="outside the 26 text letters"):
        enc.config_word(Configuration((), 0, 30, ()))
