"""Nondeterministic Turing machines over a one-way-infinite tape.

Cell 0 always holds the left-end marker '>', which is never overwritten
and never moved left of; inputs are binary strings written on cells
1..n.  Machine descriptions are validated on construction.  simulate
performs breadth-first search over configurations and returns the first
accepting run found (configurations plus the transition choice taken at
each step), which is deterministic for a fixed transition order.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Optional

BLANK = "_"
MARKER = ">"
MOVES = ("L", "R", "S")


class MachineError(ValueError):
    pass


@dataclass(frozen=True)
class Transition:
    state: str
    read: str
    next_state: str
    write: str
    move: str


@dataclass(frozen=True)
class MachineSpec:
    states: tuple[str, ...]
    tape_alphabet: tuple[str, ...]
    start_state: str
    accept_states: frozenset[str]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "tape_alphabet", tuple(self.tape_alphabet))
        object.__setattr__(self, "accept_states", frozenset(self.accept_states))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        self._validate()

    def _validate(self) -> None:
        states = set(self.states)
        alphabet = set(self.tape_alphabet)
        if len(states) != len(self.states):
            raise MachineError("duplicate state names")
        if len(alphabet) != len(self.tape_alphabet):
            raise MachineError("duplicate tape symbols")
        for required in (BLANK, MARKER):
            if required not in alphabet:
                raise MachineError(f"tape alphabet must contain {required!r}")
        if self.start_state not in states:
            raise MachineError(f"unknown start state {self.start_state!r}")
        for q in self.accept_states:
            if q not in states:
                raise MachineError(f"unknown accept state {q!r}")
        for t in self.transitions:
            if t.state not in states or t.next_state not in states:
                raise MachineError(f"transition uses unknown state: {t}")
            if t.read not in alphabet or t.write not in alphabet:
                raise MachineError(f"transition uses unknown symbol: {t}")
            if t.move not in MOVES:
                raise MachineError(f"bad move {t.move!r}")
            if t.read == MARKER and (t.write != MARKER or t.move == "L"):
                raise MachineError("the left-end marker must be kept and never moved left of")
            if t.read != MARKER and t.write == MARKER:
                raise MachineError("the left-end marker cannot be written elsewhere")

    def delta(self, state: str, symbol: str) -> tuple[Transition, ...]:
        return tuple(
            t for t in self.transitions if t.state == state and t.read == symbol
        )

    @property
    def branching(self) -> int:
        """Largest number of choices for any (state, symbol) pair."""
        counts: dict[tuple[str, str], int] = {}
        for t in self.transitions:
            key = (t.state, t.read)
            counts[key] = counts.get(key, 0) + 1
        return max(counts.values(), default=1)

    @classmethod
    def from_json(cls, data: dict) -> "MachineSpec":
        try:
            transitions = tuple(
                Transition(
                    *[_json_string(t[key], f"transition field {key!r}") for key in _TRANSITION_KEYS]
                )
                for t in _json_list(data["transitions"], "transitions", dict)
            )
            return cls(
                _json_list(data["states"], "states", str),
                _json_list(data["tape_alphabet"], "tape_alphabet", str),
                _json_string(data["start"], "start"),
                _json_list(data["accept"], "accept", str),
                transitions,
            )
        except (KeyError, TypeError) as exc:
            raise MachineError(f"malformed machine description: {exc}")


# JSON keys of a transition, in Transition's field order
_TRANSITION_KEYS = ("from", "read", "to", "write", "move")


def _json_string(value, field: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{field} must be a string")
    return value


def _json_list(value, field: str, kind: type) -> list:
    """A JSON list of strings (kind str) or objects (kind dict); a bare
    string or an object is rejected, not iterated."""
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        raise TypeError(f"{field} must be a list of {'strings' if kind is str else 'objects'}")
    return value


def load_machine(text: str) -> MachineSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MachineError(f"not valid JSON: {exc}")
    return MachineSpec.from_json(data)


SWEEP_STATE = "q_sweep"
FINAL_STATE = "q_final"


def is_normalized(m: MachineSpec) -> bool:
    """A single accept state that only loops in place on the marker."""
    if len(m.accept_states) != 1:
        return False
    (final,) = m.accept_states
    outgoing = [t for t in m.transitions if t.state == final]
    return outgoing == [Transition(final, MARKER, final, MARKER, "S")]


def normalize_machine(m: MachineSpec) -> MachineSpec:
    """Route every accepting configuration to a left sweep that parks the
    head on the marker in a fresh final state and loops there forever.

    Adds exactly two states.  Acceptance of the normalized machine within
    any step budget that also covers the sweep (at most the tape length
    in extra steps) coincides with acceptance of the original machine.
    """
    if is_normalized(m):
        return m
    taken = set(m.states)

    def fresh(base: str) -> str:
        name = base
        suffix = 0
        while name in taken:
            suffix += 1
            name = f"{base}{suffix}"
        taken.add(name)
        return name

    sweep = fresh(SWEEP_STATE)
    final = fresh(FINAL_STATE)
    new_transitions = list(m.transitions)
    for q in (*sorted(m.accept_states), sweep):
        for sym in m.tape_alphabet:
            if sym == MARKER:
                new_transitions.append(Transition(q, MARKER, final, MARKER, "S"))
            else:
                new_transitions.append(Transition(q, sym, sweep, sym, "L"))
    new_transitions.append(Transition(final, MARKER, final, MARKER, "S"))
    return MachineSpec(
        m.states + (sweep, final),
        m.tape_alphabet,
        m.start_state,
        frozenset({final}),
        tuple(new_transitions),
    )


@dataclass(frozen=True)
class Config:
    state: str
    head: int
    tape: tuple[str, ...]

    def symbol_at(self, cell: int) -> str:
        if cell < len(self.tape):
            return self.tape[cell]
        return BLANK


@dataclass(frozen=True)
class Run:
    configs: tuple[Config, ...]
    choices: tuple[int, ...]


def initial_config(m: MachineSpec, x: str) -> Config:
    if any(ch not in "01" for ch in x):
        raise MachineError(f"input must be binary, got {x!r}")
    return Config(m.start_state, 0, (MARKER,) + tuple(x))


def step_options(m: MachineSpec, config: Config) -> list[tuple[int, Config]]:
    """Successor configurations with the transition indices taken."""
    symbol = config.symbol_at(config.head)
    out = []
    for choice, t in enumerate(m.delta(config.state, symbol)):
        tape = list(config.tape)
        while config.head >= len(tape):
            tape.append(BLANK)
        tape[config.head] = t.write
        head = config.head + {"L": -1, "R": 1, "S": 0}[t.move]
        if head < 0:
            raise MachineError("head moved left of the marker")
        while head >= len(tape):
            tape.append(BLANK)
        out.append((choice, Config(t.next_state, head, tuple(tape))))
    return out


def simulate(m: MachineSpec, x: str, max_steps: int) -> Optional[Run]:
    """Breadth-first nondeterministic search for an accepting run of at
    most max_steps steps; None if there is none."""
    start = initial_config(m, x)
    if max_steps < 0:
        raise MachineError(f"step bound must be non-negative, got {max_steps}")
    if start.state in m.accept_states:
        return Run((start,), ())
    queue = deque([(start, (start,), ())])
    seen = {start}
    while queue:
        config, path, choices = queue.popleft()
        if len(choices) >= max_steps:
            continue
        for choice, nxt in step_options(m, config):
            if nxt in seen:
                continue
            seen.add(nxt)
            new_path = path + (nxt,)
            new_choices = choices + (choice,)
            if nxt.state in m.accept_states:
                return Run(new_path, new_choices)
            queue.append((nxt, new_path, new_choices))
    return None


def check_run(m: MachineSpec, x: str, run: Run) -> None:
    """Raise MachineError naming the first illegal step, if any."""
    if not run.configs:
        raise MachineError("empty run")
    if run.configs[0] != initial_config(m, x):
        raise MachineError("step 0: run does not start in the initial configuration")
    if len(run.choices) != len(run.configs) - 1:
        raise MachineError("choice list does not match configuration count")
    for i, (config, choice) in enumerate(zip(run.configs, run.choices)):
        options = step_options(m, config)
        matched = [nxt for c, nxt in options if c == choice]
        if not matched or matched[0] != run.configs[i + 1]:
            raise MachineError(f"step {i + 1}: configuration does not follow by choice {choice}")
