import pytest

from genlib import (
    first_symbol_one_machine,
    guess_branch_machine,
    immediate_accept_machine,
    reject_all_machine,
)
from rpcalc.machines import (
    MachineError,
    MachineSpec,
    Run,
    Transition,
    check_run,
    initial_config,
    is_normalized,
    normalize_machine,
    simulate,
)


def test_validation_rules():
    with pytest.raises(MachineError):
        MachineSpec(("q",), ("_",), "q", frozenset(), ())  # no marker
    with pytest.raises(MachineError):
        MachineSpec(
            ("q",),
            ("_", ">"),
            "q",
            frozenset(),
            (Transition("q", ">", "q", "_", "S"),),  # overwrites the marker
        )
    with pytest.raises(MachineError):
        MachineSpec(
            ("q",),
            ("_", ">"),
            "q",
            frozenset(),
            (Transition("q", ">", "q", ">", "L"),),  # moves left of the marker
        )
    with pytest.raises(MachineError):
        MachineSpec(
            ("q",),
            ("_", ">"),
            "q",
            frozenset(),
            (Transition("q", "_", "q", ">", "S"),),  # writes a fresh marker
        )


def test_simulation_finds_shortest_accepting_run():
    m = normalize_machine(first_symbol_one_machine())
    run = simulate(m, "10", 16)
    assert run is not None
    assert [c.state for c in run.configs] == ["q0", "q1", "qacc", "q_final"]
    assert run.configs[-1].head == 0
    check_run(m, "10", run)


def test_simulation_negative():
    assert simulate(first_symbol_one_machine(), "0", 8) is None
    assert simulate(reject_all_machine(), "1", 32) is None


def test_simulation_respects_step_budget():
    m = normalize_machine(first_symbol_one_machine())
    assert simulate(m, "10", 2) is None
    assert simulate(m, "10", 3) is not None
    assert simulate(m, "1", 0) is None
    with pytest.raises(MachineError, match="non-negative"):
        simulate(m, "1", -1)


def test_nondeterministic_branches():
    m = guess_branch_machine()
    for x in ("0", "1"):
        run = simulate(m, x, 8)
        assert run is not None
        # the first step commits to the matching branch
        assert run.choices[0] == (0 if x == "1" else 1)


def test_normalize_adds_exactly_two_states():
    m = first_symbol_one_machine()
    norm = normalize_machine(m)
    assert len(norm.states) == len(m.states) + 2
    assert is_normalized(norm)
    assert normalize_machine(norm) is norm


def test_normalize_preserves_acceptance():
    m = first_symbol_one_machine()
    norm = normalize_machine(m)
    for x in ("1", "0", "10", "01", ""):
        assert (simulate(m, x, 32) is not None) == (simulate(norm, x, 32) is not None), x


def test_normalize_handles_empty_accept_set():
    norm = normalize_machine(reject_all_machine())
    assert simulate(norm, "1", 32) is None


def test_immediate_accept_machine():
    norm = normalize_machine(immediate_accept_machine())
    run = simulate(norm, "", 8)
    assert run is not None
    assert [c.state for c in run.configs] == ["q0", "q_final"]


def test_check_run_reports_bad_step():
    m = normalize_machine(first_symbol_one_machine())
    run = simulate(m, "10", 16)
    tampered = Run(run.configs[:-1] + (run.configs[0],), run.choices)
    with pytest.raises(MachineError) as err:
        check_run(m, "10", tampered)
    assert "step" in str(err.value)


def test_check_run_reports_bad_shape():
    m = normalize_machine(first_symbol_one_machine())
    run = simulate(m, "10", 16)
    with pytest.raises(MachineError, match="^empty run$"):
        check_run(m, "10", Run((), ()))
    with pytest.raises(MachineError, match="^step 0: run does not start in the initial configuration$"):
        check_run(m, "11", run)
    with pytest.raises(MachineError, match="^choice list does not match configuration count$"):
        check_run(m, "10", Run(run.configs, run.choices[:-1]))


def test_initial_config():
    m = first_symbol_one_machine()
    c = initial_config(m, "10")
    assert c.tape == (">", "1", "0")
    assert c.head == 0
    with pytest.raises(MachineError):
        initial_config(m, "2")
