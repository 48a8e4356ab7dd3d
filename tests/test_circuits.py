import itertools
import random

import pytest

from rpcalc.circuits import (
    Circuit,
    Gate,
    circuit_to_formula,
    decoder_circuit,
    decoder_width,
    decrement_circuit,
    evaluate,
    increment_circuit,
    index_bits,
)
from rpcalc.constants import C_ALPHA
from rpcalc.semantics import Structure, eval_formula
from rpcalc.syntax import format_formula, length, parse_formula

# Increment circuits use at most INC_GATE_FACTOR * m gates.
INC_GATE_FACTOR = 5


def test_decoder_base_case_is_the_input():
    c = decoder_circuit(1)
    assert c.gate_count == 0
    assert evaluate(c, [1])[1] == (1,)
    assert evaluate(c, [0])[1] == (0,)


def test_decoder_example():
    c = decoder_circuit(3)
    assert evaluate(c, [0, 1])[1] == (0, 1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64])
def test_decoder_matches_direct_comparison(n):
    c = decoder_circuit(n)
    k = decoder_width(n)
    for value in range(1 << k):
        bits = index_bits(value, k)
        expected = tuple(1 if value == i else 0 for i in range(1, n + 1))
        assert evaluate(c, bits)[1] == expected


def test_decoder_gate_bound():
    for n in list(range(1, 130)) + [255, 256, 257, 511, 512, 513, 1023, 1024]:
        assert decoder_circuit(n).gate_count <= C_ALPHA * n, n


@pytest.mark.parametrize("m", range(1, 11))
def test_increment_matches_integer_addition(m):
    c = increment_circuit(m)
    assert c.gate_count <= INC_GATE_FACTOR * m
    for value in range(1 << m):
        gates, outs = evaluate(c, index_bits(value, m))
        total = (value + 1) % (1 << m)
        carry = 1 if value + 1 == (1 << m) else 0
        assert outs[:-1] == index_bits(total, m)
        assert outs[-1] == carry


def test_increment_examples():
    assert evaluate(increment_circuit(1), [0])[1] == (1, 0)
    assert evaluate(increment_circuit(3), index_bits(3, 3))[1] == index_bits(4, 3) + (0,)
    assert evaluate(increment_circuit(3), index_bits(7, 3))[1] == (0, 0, 0, 1)


@pytest.mark.parametrize("m", range(1, 11))
def test_decrement_matches_integer_subtraction(m):
    c = decrement_circuit(m)
    for value in range(1 << m):
        _, outs = evaluate(c, index_bits(value, m))
        assert outs == index_bits((value - 1) % (1 << m), m)


def test_circuit_validation():
    with pytest.raises(ValueError):
        Gate("XOR", (0, 1))
    with pytest.raises(ValueError):
        Circuit(1, (Gate("NOT", (5,)),), (0,))
    with pytest.raises(ValueError):
        Circuit(1, (), (3,))


def test_single_not_gate_formula():
    c = Circuit(1, (Gate("NOT", (0,)),), (0,))
    f = circuit_to_formula(c, ["p1"], ["g1"], ["r1"])
    g_part = parse_formula("(~g1 | ~p1) & (~~p1 | g1)")
    assert format_formula(f).startswith(format_formula(g_part))


def test_decoder1_formula():
    c = decoder_circuit(1)
    f = circuit_to_formula(c, ["p1"], [], ["r1"])
    assert f == parse_formula("(~r1 | p1) & (~p1 | r1)")


def test_formula_accepts_exactly_the_trace():
    rng = random.Random(61)
    for _ in range(20):
        n_inputs = rng.randint(1, 3)
        gates = []
        for j in range(8):
            op = rng.choice(["NOT", "AND", "OR"])
            limit = n_inputs + j
            ops = (rng.randrange(limit),) if op == "NOT" else (
                rng.randrange(limit),
                rng.randrange(limit),
            )
            gates.append(Gate(op, ops))
        outputs = tuple(rng.randrange(n_inputs + 8) for _ in range(2))
        c = Circuit(n_inputs, tuple(gates), outputs)
        in_vars = [f"p{i}" for i in range(n_inputs)]
        gate_vars = [f"g{i}" for i in range(8)]
        out_vars = ["o0", "o1"]
        f = circuit_to_formula(c, in_vars, gate_vars, out_vars)
        for bits in itertools.product((0, 1), repeat=n_inputs):
            gate_vals, out_vals = evaluate(c, bits)
            correct = dict(zip(in_vars, bits))
            correct.update(zip(gate_vars, gate_vals))
            correct.update(zip(out_vars, out_vals))
            assert eval_formula(f, Structure(correct, frozenset())) == 1
            # flip one recorded value: the trace is no longer consistent
            name = rng.choice(gate_vars + out_vars)
            wrong = dict(correct)
            wrong[name] = 1 - wrong[name]
            assert eval_formula(f, Structure(wrong, frozenset())) == 0


def test_formula_arity_mismatch():
    c = decoder_circuit(2)
    with pytest.raises(ValueError):
        circuit_to_formula(c, ["p1"], ["g"] * c.gate_count, ["r1", "r2"])


def test_formula_length_linear_in_gates():
    sizes = [length(circuit_to_formula(
        decoder_circuit(n),
        [f"p{i}" for i in range(decoder_width(n))],
        [f"g{i}" for i in range(decoder_circuit(n).gate_count)],
        [f"r{i}" for i in range(n)],
    )) for n in (8, 16, 32, 64)]
    for a, b in zip(sizes, sizes[1:]):
        assert b <= 2.5 * a
