"""Compiling machine acceptance into universally quantified formulas.

A run of 2^t steps is laid out as a two-dimensional bit tableau: oracle
membership of the string cell-index ++ offset ++ time (each field
low-order bit first) is bit `offset` of the cell's content at that time.
Cell contents pack (symbol, head?, state, choice, padding) into w = 2^w_bits
bits; the `choice` field records which nondeterministic branch the head
takes when leaving the configuration, which makes the next content of
every cell a function of its neighborhood and keeps the local step
constraints sound for nondeterministic machines.

The start formula pins time 0: cell 0 explicitly, input cells through a
one-hot decoder (so the formula stays linear in the input length), and
all higher cells to blanks.  The step formula relates each cell at time
q+1 to the three neighboring cells at time q through increment and
decrement circuits on the indices.  The end formula asserts the final state parked
on the marker at the last time.  The conjunction, universally closed, is
satisfiable exactly when the machine reaches its accepting loop within
the time budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import machines
from .circuits import (
    circuit_to_formula,
    decoder_circuit,
    decrement_circuit,
    increment_circuit,
    index_bits,
)
from .formulas import (
    And,
    Atom,
    Const,
    Formula,
    Not,
    RApp,
    and_all,
    foralls,
    iff,
    implies,
    or_all,
)
from .machines import BLANK, MARKER, MachineSpec, Run, check_run, is_normalized
from .semantics import Structure


class EncodingError(ValueError):
    pass


@dataclass(frozen=True)
class EncodingParams:
    """Sizes of the tableau encoding.

    n: input length; t: time exponent (the run covers times 0..2^t - 1);
    w_bits: offset bits (cells are w = 2^w_bits bits wide).
    """

    n: int
    t: int
    w_bits: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.t < 1:
            raise EncodingError("need n >= 0 and t >= 1")

    @property
    def m(self) -> int:
        """Cell-index bits: 2^m cells cover 2^t steps and hold the
        marker, the input and a blank."""
        return max(self.t + 1, (self.n + 1).bit_length())

    @property
    def w(self) -> int:
        return 1 << self.w_bits

    @property
    def arity(self) -> int:
        return self.m + self.w_bits + self.t

    @property
    def horizon(self) -> int:
        return 1 << self.t


def default_params(machine: MachineSpec, n: int, t: int) -> EncodingParams:
    """Smallest parameters fitting the machine's content layout."""
    layout = _Layout(machine)
    needed = layout.used_bits
    w_bits = max(1, (needed - 1).bit_length())
    return EncodingParams(n=n, t=t, w_bits=w_bits)


_CANONICAL_SYMBOLS = (BLANK, MARKER, "0", "1")


class _Layout:
    """Bit layout of one cell: symbol code, head flag, state index and
    branch choice, low offsets first; '0' and '1' get adjacent codes so
    input cells differ from each other in exactly one offset."""

    def __init__(self, machine: MachineSpec):
        ordered = [s for s in _CANONICAL_SYMBOLS if s in machine.tape_alphabet]
        ordered += [s for s in machine.tape_alphabet if s not in ordered]
        self.sym_code = {s: i for i, s in enumerate(ordered)}
        self.state_index = {q: i for i, q in enumerate(machine.states)}
        self.s_bits = max(1, (len(ordered) - 1).bit_length())
        self.st_bits = max(1, (len(machine.states) - 1).bit_length())
        self.branching = max(1, machine.branching)
        self.ch_bits = (self.branching - 1).bit_length()
        self.has_offset = self.s_bits
        self.idx_offsets = tuple(range(self.s_bits + 1, self.s_bits + 1 + self.st_bits))
        self.ch_offsets = tuple(
            range(self.s_bits + 1 + self.st_bits, self.s_bits + 1 + self.st_bits + self.ch_bits)
        )
        self.used_bits = self.s_bits + 1 + self.st_bits + self.ch_bits

    def content_bits(self, w: int, symbol: str, state: Optional[str], choice: int = 0) -> tuple[int, ...]:
        bits = [0] * w
        for i, b in enumerate(index_bits(self.sym_code[symbol], self.s_bits)):
            bits[i] = b
        if state is not None:
            bits[self.has_offset] = 1
            for off, b in zip(self.idx_offsets, index_bits(self.state_index[state], self.st_bits)):
                bits[off] = b
            for off, b in zip(self.ch_offsets, index_bits(choice, self.ch_bits)):
                bits[off] = b
        return tuple(bits)


@dataclass(frozen=True)
class CompileInfo:
    params: EncodingParams
    machine: MachineSpec
    universal_vars: tuple[str, ...]  # the formula's prefix, in order


def _const_bits(value: int, width: int) -> list[Formula]:
    return [Const(b) for b in index_bits(value, width)]


def _guarded(guards: list[Formula], body: Formula) -> Formula:
    return implies(and_all(guards), body) if guards else body


class _Builder:
    def __init__(self, machine: MachineSpec, params: EncodingParams):
        self.machine = machine
        self.params = params
        self.layout = _Layout(machine)
        if self.layout.used_bits > params.w:
            raise EncodingError(
                f"cell width {params.w} cannot hold {self.layout.used_bits} content bits"
            )

    def ratom(self, cell_refs: list[Formula], offset: int, time_refs: list[Formula]) -> RApp:
        args = tuple(cell_refs) + tuple(_const_bits(offset, self.params.w_bits)) + tuple(time_refs)
        return RApp(args)

    def _literal(self, atom: Formula, bit: int) -> Formula:
        return atom if bit else Not(atom)

    def assert_content(
        self,
        atom_of,
        symbol: str,
        state: Optional[str],
        choice: Optional[int],
    ) -> list[Formula]:
        """Literals pinning a cell's bits; choice=None leaves the branch
        choice free (only meaningful when a head is present)."""
        bits = self.layout.content_bits(self.params.w, symbol, state, choice or 0)
        skip = set(self.layout.ch_offsets) if (state is not None and choice is None) else set()
        return [
            self._literal(atom_of(v), bits[v]) for v in range(self.params.w) if v not in skip
        ]

    def match_content(self, atom_of, symbol: str, state: str, choice: int) -> Formula:
        """Conjunction matching symbol, head flag, state and choice
        (padding offsets are not inspected)."""
        bits = self.layout.content_bits(self.params.w, symbol, state, choice)
        offsets = list(range(self.layout.used_bits))
        return and_all(self._literal(atom_of(v), bits[v]) for v in offsets)

    def head_triples(self):
        """(state, symbol, choice, transition) with the choice reduced
        modulo the number of applicable transitions."""
        out = []
        for state in self.machine.states:
            for symbol in self.machine.tape_alphabet:
                options = self.machine.delta(state, symbol)
                if not options:
                    continue
                for choice in range(self.layout.branching if self.layout.ch_bits else 1):
                    out.append((state, symbol, choice, options[choice % len(options)]))
        return out

    # -- start ---------------------------------------------------------

    def start_parts(self, x: str) -> tuple[list[str], Formula]:
        p = self.params
        cell_vars = [f"sc{i}" for i in range(p.m)]
        cell_refs: list[Formula] = [Atom(v) for v in cell_vars]
        zero_time = _const_bits(0, p.t)
        zero_cell = _const_bits(0, p.m)

        def cell0_atom(v: int) -> Formula:
            return self.ratom(zero_cell, v, zero_time)

        cell0 = self.assert_content(cell0_atom, MARKER, self.machine.start_state, None)

        def var_atom(v: int) -> Formula:
            return self.ratom(cell_refs, v, zero_time)

        nonzero = or_all(Atom(v) for v in cell_vars)
        blank = and_all(self.assert_content(var_atom, BLANK, None, 0))

        if p.n == 0:
            return cell_vars, And(and_all(cell0), implies(nonzero, blank))

        if "0" not in self.layout.sym_code or "1" not in self.layout.sym_code:
            raise EncodingError("machine alphabet must contain '0' and '1' for nonempty inputs")
        decoder = decoder_circuit(p.n)
        gate_vars = [f"sg{i}" for i in range(decoder.gate_count)]
        out_vars = [f"sr{i}" for i in range(1, p.n + 1)]
        k = decoder.n_inputs
        beta = circuit_to_formula(decoder, cell_vars[:k], gate_vars, out_vars)
        zero_guard = [Not(Atom(v)) for v in cell_vars[k:]]
        selected = or_all(Atom(v) for v in out_vars)
        in_range = and_all(zero_guard + [selected])

        zero_code = self.layout.content_bits(p.w, "0", None)
        one_code = self.layout.content_bits(p.w, "1", None)
        input_parts: list[Formula] = []
        for v in range(p.w):
            if zero_code[v] != one_code[v]:
                chain = or_all(
                    And(Atom(out_vars[i]), Const(int(x[i]))) for i in range(p.n)
                )
                input_parts.append(iff(var_atom(v), chain))
            else:
                input_parts.append(self._literal(var_atom(v), zero_code[v]))
        guarded = implies(
            beta,
            And(
                implies(in_range, and_all(input_parts)),
                implies(And(nonzero, Not(in_range)), blank),
            ),
        )
        return cell_vars + gate_vars + out_vars, And(and_all(cell0), guarded)

    # -- step ----------------------------------------------------------

    def step_parts(self) -> tuple[list[str], Formula]:
        p = self.params
        lay = self.layout
        time_vars = [f"tq{i}" for i in range(p.t)]
        cell_vars = [f"ic{i}" for i in range(p.m)]
        time_refs: list[Formula] = [Atom(v) for v in time_vars]
        cell_refs: list[Formula] = [Atom(v) for v in cell_vars]

        dec = decrement_circuit(p.m)
        inc = increment_circuit(p.m)
        tinc = increment_circuit(p.t)
        dec_gates = [f"dg{i}" for i in range(dec.gate_count)]
        dec_out = [f"dc{i}" for i in range(p.m)]
        inc_gates = [f"ig{i}" for i in range(inc.gate_count)]
        inc_out = [f"jc{i}" for i in range(p.m)]
        inc_carry = "jcy"
        t_gates = [f"ng{i}" for i in range(tinc.gate_count)]
        t_out = [f"nt{i}" for i in range(p.t)]
        t_carry = "ncy"

        beta_dec = circuit_to_formula(dec, cell_vars, dec_gates, dec_out)
        beta_inc = circuit_to_formula(inc, cell_vars, inc_gates, inc_out + [inc_carry])
        beta_t = circuit_to_formula(tinc, time_vars, t_gates, t_out + [t_carry])

        left_refs: list[Formula] = [Atom(v) for v in dec_out]
        right_refs: list[Formula] = [Atom(v) for v in inc_out]
        next_refs: list[Formula] = [Atom(v) for v in t_out]

        def c_at(v: int) -> Formula:
            return self.ratom(cell_refs, v, time_refs)

        def l_at(v: int) -> Formula:
            return self.ratom(left_refs, v, time_refs)

        def r_at(v: int) -> Formula:
            return self.ratom(right_refs, v, time_refs)

        def n_at(v: int) -> Formula:
            return self.ratom(cell_refs, v, next_refs)

        time_ok = Not(and_all(Atom(v) for v in time_vars))
        nonzero = or_all(Atom(v) for v in cell_vars)
        no_overflow = Not(Atom(inc_carry))
        has_c = c_at(lay.has_offset)
        has_l = l_at(lay.has_offset)
        has_r = r_at(lay.has_offset)

        def sym_copy_with_head(next_state: str) -> Formula:
            parts = [iff(n_at(v), c_at(v)) for v in range(lay.s_bits)]
            # the head arrives: its fields as assert_content pins them,
            # after the symbol bits, which the cell keeps
            parts += self.assert_content(n_at, BLANK, next_state, None)[lay.s_bits:]
            return and_all(parts)

        n_eq_c = and_all(iff(n_at(v), c_at(v)) for v in range(p.w))

        here_cases = []
        left_cases = []
        right_cases = []
        for state, symbol, choice, tr in self.head_triples():
            match_c = self.match_content(c_at, symbol, state, choice)
            if tr.move == "S":
                outcome = and_all(self.assert_content(n_at, tr.write, tr.next_state, None))
            else:
                outcome = and_all(self.assert_content(n_at, tr.write, None, 0))
            here_cases.append(And(match_c, outcome))
            # a head in the left neighbor arrives by moving R, one in
            # the right neighbor by moving L
            for at, arrives, cases in ((l_at, "R", left_cases), (r_at, "L", right_cases)):
                nxt = sym_copy_with_head(tr.next_state) if tr.move == arrives else n_eq_c
                cases.append(And(self.match_content(at, symbol, state, choice), nxt))

        conjuncts = [
            _guarded([time_ok, beta_t, has_c], or_all(here_cases)),
            _guarded([time_ok, beta_t, beta_dec, nonzero, has_l], or_all(left_cases)),
            _guarded([time_ok, beta_t, beta_inc, no_overflow, has_r], or_all(right_cases)),
            _guarded(
                [
                    time_ok,
                    beta_t,
                    beta_dec,
                    beta_inc,
                    Not(has_c),
                    Not(And(nonzero, has_l)),
                    Not(And(no_overflow, has_r)),
                ],
                n_eq_c,
            ),
        ]
        matrix = and_all(conjuncts)
        all_vars = (
            time_vars
            + cell_vars
            + dec_gates
            + dec_out
            + inc_gates
            + inc_out
            + [inc_carry]
            + t_gates
            + t_out
            + [t_carry]
        )
        return all_vars, matrix

    # -- end -----------------------------------------------------------

    def end_matrix(self) -> Formula:
        if not is_normalized(self.machine):
            raise EncodingError("end formula requires an accept-normalized machine")
        (final,) = self.machine.accept_states
        p = self.params
        last_time = _const_bits(p.horizon - 1, p.t)
        zero_cell = _const_bits(0, p.m)

        def atom(v: int) -> Formula:
            return self.ratom(zero_cell, v, last_time)

        return and_all(self.assert_content(atom, MARKER, final, 0))


def _check_input_length(x: str, enc: EncodingParams) -> None:
    if len(x) != enc.n:
        raise EncodingError(f"input {x!r} has length {len(x)}, but the tableau has n = {enc.n}")


def build_S(machine: MachineSpec, x: str, enc: EncodingParams) -> Formula:
    """Universally closed start constraint for input x at time 0."""
    _check_input_length(x, enc)
    builder = _Builder(machine, enc)
    vars_, matrix = builder.start_parts(x)
    return foralls(vars_, matrix)


def build_I(machine: MachineSpec, enc: EncodingParams) -> Formula:
    """Universally closed step constraint between consecutive times."""
    builder = _Builder(machine, enc)
    vars_, matrix = builder.step_parts()
    return foralls(vars_, matrix)


def build_E(machine: MachineSpec, enc: EncodingParams) -> Formula:
    """Quantifier-free end constraint (constant oracle arguments only)."""
    return _Builder(machine, enc).end_matrix()


def compile_with_info(
    machine: MachineSpec, x: str, t: Optional[int] = None
) -> tuple[Formula, CompileInfo]:
    if any(ch not in "01" for ch in x):
        raise EncodingError(f"input must be binary, got {x!r}")
    n = len(x)
    if t is None:
        t = max(1, n)
    if t < 1:
        raise EncodingError("time exponent must be at least 1")
    normalized = machines.normalize_machine(machine)
    enc = default_params(normalized, n, t)
    builder = _Builder(normalized, enc)
    s_vars, s_matrix = builder.start_parts(x)
    i_vars, i_matrix = builder.step_parts()
    e_matrix = builder.end_matrix()
    formula = foralls(s_vars + i_vars, And(And(s_matrix, i_matrix), e_matrix))
    info = CompileInfo(params=enc, machine=normalized, universal_vars=tuple(s_vars + i_vars))
    return formula, info


def compile_machine(machine: MachineSpec, x: str, t: Optional[int] = None) -> Formula:
    """Formula satisfiable iff the machine accepts x within 2^t steps."""
    return compile_with_info(machine, x, t)[0]


def index_string(enc: EncodingParams, cell: int, offset: int, time: int) -> str:
    bits = (
        index_bits(cell, enc.m) + index_bits(offset, enc.w_bits) + index_bits(time, enc.t)
    )
    return "".join(str(b) for b in bits)


def witness_structure(
    machine: MachineSpec,
    x: str,
    run: Run,
    enc: EncodingParams,
) -> Structure:
    """Oracle encoding of a legal run, padded by repeating the final
    configuration out to the time horizon; contains exactly the strings
    whose tableau bit is 1."""
    if not is_normalized(machine):
        raise EncodingError("witness structures are built for normalized machines")
    _check_input_length(x, enc)
    layout = _Layout(machine)
    check_run(machine, x, run)
    horizon = enc.horizon
    if len(run.configs) > horizon:
        raise EncodingError(f"run of {len(run.configs)} configurations exceeds horizon {horizon}")
    configs = list(run.configs)
    choices = list(run.choices)
    while len(configs) < horizon:
        configs.append(configs[-1])
        choices.append(0)
    strings: set[str] = set()
    cells = 1 << enc.m
    for time, config in enumerate(configs):
        if config.head >= cells:
            raise EncodingError("head left the addressable tape")
        choice = choices[time] if time < len(choices) else 0
        for cell in range(cells):
            state = config.state if cell == config.head else None
            bits = layout.content_bits(enc.w, config.symbol_at(cell), state, choice)
            for offset, bit in enumerate(bits):
                if bit:
                    strings.add(index_string(enc, cell, offset, time))
    return Structure({}, frozenset(strings))

