import hashlib
import itertools

import pytest

from genlib import (
    classify,
    decode_run,
    first_symbol_one_machine,
    guess_branch_machine,
    immediate_accept_machine,
    naive_holds_universally,
    rapp_arities,
    reject_all_machine,
)
from rpcalc.formulas import Forall, RApp, walk
from rpcalc.machines import Run, initial_config, normalize_machine, simulate, step_options
from rpcalc.semantics import (
    SAT,
    UNSAT,
    SolverLimits,
    Structure,
    holds_universally,
    pull_universals,
    sat_pi1,
)
from rpcalc.syntax import format_formula, length
from rpcalc.tableau import (
    EncodingError,
    EncodingParams,
    build_E,
    build_I,
    build_S,
    compile_machine,
    compile_with_info,
    default_params,
    index_string,
    witness_structure,
)

LIMITS = SolverLimits(max_universal_vars=64, max_oracle_strings=1 << 16, max_structures=1 << 22)


@pytest.fixture(scope="module")
def first1():
    return first_symbol_one_machine()


@pytest.fixture(scope="module")
def norm_first1(first1):
    return normalize_machine(first1)


@pytest.fixture(scope="module")
def compiled_10(first1):
    return compile_with_info(first1, "10", 2)


def test_compiled_text_is_byte_identical():
    # every genlib machine on every input of length 0-4 at t = 1, 2, 3,
    # pinned character for character, so a refactor of the builder
    # cannot change a single compiled formula
    digest = hashlib.sha256()
    machines = (
        first_symbol_one_machine,
        guess_branch_machine,
        reject_all_machine,
        immediate_accept_machine,
    )
    for machine in machines:
        for n in range(5):
            for bits in itertools.product("01", repeat=n):
                for t in (1, 2, 3):
                    formula, _ = compile_with_info(machine(), "".join(bits), t)
                    digest.update(format_formula(formula).encode() + b"\n")
    assert digest.hexdigest() == "6d798a95c270e7e8b9717bffc02690f83364c1446df5045d68ad2a98ebe55a2a"


def test_params_invariants(norm_first1):
    enc = default_params(norm_first1, 2, 2)
    assert enc.m >= enc.t + 1
    assert (1 << enc.m) >= enc.n + 2
    assert enc.w >= 6
    with pytest.raises(EncodingError):
        EncodingParams(n=2, t=0, w_bits=3)
    # a cell of 2 bits is too narrow for the machine's state and symbol
    with pytest.raises(EncodingError, match="cell width 2 cannot hold 6 content bits"):
        build_S(norm_first1, "10", EncodingParams(n=2, t=2, w_bits=1))


def test_classification_and_arity(compiled_10):
    formula, info = compiled_10
    assert classify(formula) == "pi1"
    assert rapp_arities(formula) == {info.params.arity}


def test_no_stray_universal_variables(compiled_10):
    formula, info = compiled_10
    uvars, _ = pull_universals(formula)
    assert len(uvars) == len(info.universal_vars)
    prefix = []
    while isinstance(formula, Forall):
        prefix.append(formula.var)
        formula = formula.body
    assert tuple(prefix) == info.universal_vars
    assert len(set(prefix)) == len(prefix)


def test_witness_satisfies_start_exhaustively(norm_first1):
    enc = default_params(norm_first1, 2, 2)
    run = simulate(norm_first1, "10", 16)
    witness = witness_structure(norm_first1, "10", run, enc)
    s = build_S(norm_first1, "10", enc)
    assert holds_universally(s, witness, max_structures=LIMITS.max_structures)


def test_start_length_linear(norm_first1):
    sizes = []
    for n in (4, 8, 16, 32):
        enc = default_params(norm_first1, n, n)
        sizes.append(length(build_S(norm_first1, "1" + "0" * (n - 1), enc)))
    for a, b in zip(sizes, sizes[1:]):
        assert b <= 2.2 * a, sizes


def test_marker_bit_at_origin(norm_first1):
    # cell 0, offset 0, time 0 carries the low bit of the marker's
    # symbol code, which is 1 in the canonical symbol ordering
    enc = default_params(norm_first1, 2, 2)
    run = simulate(norm_first1, "10", 16)
    witness = witness_structure(norm_first1, "10", run, enc)
    assert index_string(enc, 0, 0, 0) in witness.oracle


def test_start_rejects_flipped_input_bit(norm_first1):
    enc = default_params(norm_first1, 2, 2)
    run = simulate(norm_first1, "10", 16)
    witness = witness_structure(norm_first1, "10", run, enc)
    # cell 1 holds input symbol '1'; its low symbol bit lives at offset 0
    key = index_string(enc, 1, 0, 0)
    assert key in witness.oracle
    mutated = Structure({}, witness.oracle - {key})
    assert not holds_universally(build_S(norm_first1, "10", enc), mutated, max_structures=LIMITS.max_structures)


def test_witness_satisfies_step_and_mutation_breaks_it(norm_first1):
    enc = default_params(norm_first1, 2, 2)
    run = simulate(norm_first1, "10", 16)
    witness = witness_structure(norm_first1, "10", run, enc)
    step = build_I(norm_first1, enc)
    assert holds_universally(step, witness, max_structures=LIMITS.max_structures)
    # the machine is in state q1 over cell 1 at time 1: drop that head flag
    layout_has_offset = 2  # s_bits = 2 for the four-symbol alphabet
    key = index_string(enc, 1, layout_has_offset, 1)
    assert key in witness.oracle
    mutated = Structure({}, witness.oracle - {key})
    assert not holds_universally(step, mutated, max_structures=LIMITS.max_structures)


def test_step_atoms_share_one_arity(norm_first1):
    enc = default_params(norm_first1, 2, 2)
    step = build_I(norm_first1, enc)
    assert rapp_arities(step) == {enc.arity}


def test_end_constant_size_and_requires_normalization(first1, norm_first1):
    from rpcalc.formulas import Const

    enc = default_params(norm_first1, 2, 2)
    end = build_E(norm_first1, enc)
    assert classify(end) == "quantifier_free"
    # all oracle arguments are constants: the formula names one fixed cell
    assert all(
        isinstance(a, Const) for g in walk(end) if isinstance(g, RApp) for a in g.args
    )
    with pytest.raises(EncodingError):
        build_E(first1, enc)
    with pytest.raises(EncodingError, match="built for normalized machines"):
        witness_structure(first1, "10", simulate(norm_first1, "10", 16), enc)
    # length scales only with the index width: bounded by C_E * (m + t)
    for n in (2, 8, 16):
        enc_n = default_params(norm_first1, n, n)
        assert length(build_E(norm_first1, enc_n)) <= 40 * (enc_n.m + enc_n.t)


def test_end_accept_vs_reject(norm_first1):
    enc = default_params(norm_first1, 2, 2)
    end = build_E(norm_first1, enc)
    accept_run = simulate(norm_first1, "10", 16)
    good = witness_structure(norm_first1, "10", accept_run, enc)
    assert holds_universally(end, good, max_structures=LIMITS.max_structures)
    # a rejecting computation never parks the final state at cell 0
    stuck = initial_config(norm_first1, "00")
    bad = witness_structure(norm_first1, "00", Run((stuck,), ()), enc)
    assert not holds_universally(end, bad, max_structures=LIMITS.max_structures)


def _start_end_cases(norm):
    """(formula, structure, holds) for the start and end constraints of
    first1 on "10", against the run's witness and the mutated witnesses
    of the tests above."""
    enc = default_params(norm, 2, 2)
    good = witness_structure(norm, "10", simulate(norm, "10", 16), enc)
    flipped = Structure({}, good.oracle - {index_string(enc, 1, 0, 0)})
    stuck = witness_structure(norm, "00", Run((initial_config(norm, "00"),), ()), enc)
    start, end = build_S(norm, "10", enc), build_E(norm, enc)
    return {
        "start_good": (start, good, True),
        "start_flipped_input_bit": (start, flipped, False),
        "end_good": (end, good, True),
        "end_stuck": (end, stuck, False),
    }


@pytest.mark.parametrize("case", ["start_good", "start_flipped_input_bit", "end_good", "end_stuck"])
def test_exact_check_matches_naive_reference(norm_first1, case):
    formula, structure, holds = _start_end_cases(norm_first1)[case]
    assert naive_holds_universally(formula, structure) is holds
    assert holds_universally(formula, structure, max_structures=LIMITS.max_structures) is holds


def test_witness_satisfies_full_matrix(compiled_10, norm_first1):
    formula, info = compiled_10
    run = simulate(norm_first1, "10", 16)
    witness = witness_structure(norm_first1, "10", run, info.params)
    assert holds_universally(formula, witness, max_structures=LIMITS.max_structures)


def assert_model_is_accepting_run(formula, info, x):
    """sat_pi1 finds a model of the compiled formula, and the model
    decodes to a run that replays from the initial configuration
    through step_options and ends in an accepting state."""
    result = sat_pi1(formula, LIMITS)
    assert result.status == SAT
    machine = info.machine
    run = decode_run(machine, result.witness, info.params)
    cells = range(1 << info.params.m)
    config = initial_config(machine, x)
    for time, decoded in enumerate(run.configs):
        assert (decoded.state, decoded.head) == (config.state, config.head), time
        # a Config tape leaves out the trailing blanks the tableau holds
        assert [decoded.symbol_at(c) for c in cells] == [config.symbol_at(c) for c in cells], time
        if time < len(run.choices):
            config = dict(step_options(machine, config))[run.choices[time]]
    assert config.state in machine.accept_states


def test_sat_pi1_cross_validation(first1):
    assert sat_pi1(compile_machine(first1, "00", 1), LIMITS).status == UNSAT
    formula, info = compile_with_info(first1, "10", 2)
    assert_model_is_accepting_run(formula, info, "10")


def test_reject_machine_unsat():
    assert sat_pi1(compile_machine(reject_all_machine(), "1", 1), LIMITS).status == UNSAT


def test_immediate_accept_empty_input():
    machine = immediate_accept_machine()
    norm = normalize_machine(machine)
    formula, info = compile_with_info(machine, "", 1)
    run = simulate(norm, "", 4)
    witness = witness_structure(norm, "", run, info.params)
    assert holds_universally(formula, witness, max_structures=LIMITS.max_structures)
    assert_model_is_accepting_run(formula, info, "")


def test_nondeterministic_machine_end_to_end():
    machine = guess_branch_machine()
    norm = normalize_machine(machine)
    assert norm.branching == 2
    formula, info = compile_with_info(machine, "1", 2)
    run = simulate(norm, "1", 8)
    witness = witness_structure(norm, "1", run, info.params)
    assert holds_universally(formula, witness, max_structures=LIMITS.max_structures)
    assert_model_is_accepting_run(formula, info, "1")
    # input '0' forces the solver to abandon the first guess and take
    # the second branch
    assert_model_is_accepting_run(*compile_with_info(machine, "0", 2), "0")


def test_three_way_branching():
    # two choice bits can encode a fourth, out-of-range value; such cells
    # match no transition and never appear in satisfying tableaus
    from rpcalc.machines import MachineSpec, Transition

    m3 = MachineSpec(
        states=("q0", "qa", "qb", "qc", "qacc"),
        tape_alphabet=("_", ">", "0", "1"),
        start_state="q0",
        accept_states=frozenset({"qacc"}),
        transitions=(
            Transition("q0", ">", "qa", ">", "R"),
            Transition("q0", ">", "qb", ">", "R"),
            Transition("q0", ">", "qc", ">", "R"),
            Transition("qb", "1", "qacc", "1", "L"),
        ),
    )
    norm = normalize_machine(m3)
    assert norm.branching == 3
    run = simulate(norm, "1", 8)
    assert run.choices[0] == 1  # only the middle branch accepts
    formula, info = compile_with_info(m3, "1", 2)
    witness = witness_structure(norm, "1", run, info.params)
    assert holds_universally(formula, witness, max_structures=LIMITS.max_structures)
    assert_model_is_accepting_run(formula, info, "1")
    assert sat_pi1(compile_machine(m3, "0", 2), LIMITS).status == UNSAT


def test_linearity(first1):
    sizes = []
    for n in (4, 8, 16, 32):
        x = "1" + "0" * (n - 1)
        sizes.append(length(compile_machine(first1, x, n)))
    for a, b in zip(sizes, sizes[1:]):
        assert b <= 2.2 * a


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_input_length_must_match_params(norm_first1, n):
    # "10" has length 2: a shorter tableau would drop input bits, a
    # longer one would read past the input or size the wrong oracle
    enc = default_params(norm_first1, n, 2)
    run = simulate(norm_first1, "10", 16)
    with pytest.raises(EncodingError, match="has length 2"):
        build_S(norm_first1, "10", enc)
    with pytest.raises(EncodingError, match="has length 2"):
        witness_structure(norm_first1, "10", run, enc)


def test_witness_run_too_long(norm_first1):
    enc = default_params(norm_first1, 2, 1)
    run = simulate(norm_first1, "10", 16)
    with pytest.raises(EncodingError):
        witness_structure(norm_first1, "10", run, enc)
