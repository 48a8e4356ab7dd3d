"""Each benchmark check accepts a correct output and rejects a
deliberately wrong one.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE.parent)]

import checks  # noqa: E402
from genlib import first_symbol_one_machine  # noqa: E402
from rpcalc.machines import normalize_machine, simulate  # noqa: E402
from rpcalc.proofs import dump_proof, load_proof  # noqa: E402
from rpcalc.prover import prove  # noqa: E402
from rpcalc.semantics import SAT, UNSAT, Structure, all_strings, sat_pc  # noqa: E402
from rpcalc.syntax import parse_formula, parse_sequent  # noqa: E402
from rpcalc.tableau import compile_with_info, witness_structure  # noqa: E402
from workloads import pigeonhole  # noqa: E402


def accepted_item():
    machine = first_symbol_one_machine()
    normalized = normalize_machine(machine)
    _, info = compile_with_info(machine, "10", 2)
    run = simulate(normalized, "10", 3)
    return normalized, info.params, witness_structure(normalized, "10", run, info.params)


def test_flipped_machine_verdict_is_rejected():
    normalized, params, witness = accepted_item()
    assert checks.check_machine_verdict(normalized, "10", 2, params, SAT, witness) == []
    assert checks.check_machine_verdict(normalized, "10", 2, params, UNSAT, None)
    assert checks.check_machine_verdict(normalized, "00", 2, params, UNSAT, None) == []
    assert checks.check_machine_verdict(normalized, "00", 2, params, SAT, witness)


def test_witness_with_one_tableau_bit_flipped_is_rejected():
    normalized, params, witness = accepted_item()
    some = min(witness.oracle)
    removed = Structure({}, witness.oracle - {some})
    assert checks.check_machine_verdict(normalized, "10", 2, params, SAT, removed)
    absent = max(set(all_strings(len(some))) - witness.oracle)
    added = Structure({}, witness.oracle | {absent})
    assert checks.check_machine_verdict(normalized, "10", 2, params, SAT, added)


def test_proof_with_one_premise_removed_is_rejected():
    sequent = parse_sequent("R(p & q) |- R(q & p)")
    result = prove(sequent)
    assert checks.check_prop_proof(sequent, result.proof, result.stats.max_line) == []
    node = result.proof
    assert node.premises
    broken = dataclasses.replace(node, premises=node.premises[:-1])
    assert checks.check_prop_proof(sequent, broken, result.stats.max_line)


def test_truncated_proof_json_is_rejected():
    proof = prove(parse_sequent("R(p), R(q) |- R(q) & R(p)")).proof
    text = dump_proof(proof)
    assert checks.check_proof_text(proof, text, load_proof(text)) == []
    assert checks.check_proof_text(proof, text[: len(text) // 2], proof)


def test_php_witness_with_one_string_missing_is_rejected():
    formula = pigeonhole(4, 4, random.Random(0))
    witness = sat_pc(formula)
    assert checks.check_pigeonhole(4, 4, formula, SAT, witness) == []
    short = Structure(witness.atoms, witness.oracle - {min(witness.oracle)})
    assert checks.check_pigeonhole(4, 4, formula, SAT, short)


def test_flipped_decide_verdicts_are_rejected():
    formula = pigeonhole(4, 3, random.Random(0))
    assert checks.check_pigeonhole(4, 3, formula, UNSAT, None) == []
    assert checks.check_pigeonhole(4, 3, formula, SAT, Structure({}, frozenset()))
    assert checks.check_refuted(UNSAT) == [] and checks.check_refuted(SAT)
    sequent = parse_sequent("R(p & q) |- R(q & p)")
    assert checks.check_sequent_verdict(sequent, True) == []
    assert checks.check_sequent_verdict(sequent, False)
    contradiction = parse_formula("R(p) & ~R(p)")
    assert checks.check_flat_sat(contradiction, None) == []
    assert checks.check_flat_sat(contradiction, Structure({"p": 0}, frozenset()))


def test_superlinear_growth_is_rejected():
    assert checks.check_linear_growth([100, 210, 440]) == []
    assert checks.check_linear_growth([100, 230])
