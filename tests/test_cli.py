import json
import os
import pathlib
import subprocess
import sys

import pytest

from genlib import first_symbol_one_machine, guess_branch_machine
from rpcalc.cli import main
from rpcalc.machines import load_machine
from rpcalc.prover import prove
from rpcalc.syntax import parse_sequent

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, **env_vars) -> subprocess.CompletedProcess:
    """`python -m rpcalc` in a fresh interpreter, for failures that a
    test process could not survive or that depend on its state."""
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""), **env_vars}
    return subprocess.run(
        [sys.executable, "-m", "rpcalc", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


# a valid machine whose alphabet cannot hold a nonempty binary input
NO_BITS = {
    "accept": ["qacc"], "start": "q0", "states": ["q0", "qacc"], "tape_alphabet": ["_", ">"],
    "transitions": [{"from": "q0", "move": "R", "read": ">", "to": "qacc", "write": ">"}],
}
NO_BITS_MACHINE = json.dumps(NO_BITS)


def no_bits_with(**fields) -> str:
    """NO_BITS_MACHINE with some fields replaced."""
    return json.dumps({**NO_BITS, **fields})


def no_bits_step(**fields) -> list[dict]:
    """NO_BITS's one transition with some fields replaced."""
    return [{**NO_BITS["transitions"][0], **fields}]


def test_parse_echoes_canonical(tmp_path, capsys):
    f = tmp_path / "in.pc"
    f.write_text("# comment\np=>q\np , q|-r\n")
    code, out, _ = run_cli(capsys, "parse", str(f))
    assert code == 0
    assert out.splitlines() == ["~p | q", "p, q |- r"]


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "in.pc"
    f.write_text("p &\n")
    code, _, err = run_cli(capsys, "parse", str(f))
    assert code == 2
    assert "error" in err


def test_non_ascii_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "in.pc"
    f.write_text("p & \u00e9\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "parse", str(f))
    assert code == 2
    assert out == ""
    assert err == f"error: {f}:1: 1:5: unexpected character '\u00e9'\n"


def test_eval(tmp_path, capsys, data_dir):
    code, out, _ = run_cli(
        capsys,
        "eval",
        str(data_dir / "formulas" / "validity.pc"),
        "--structure",
        str(data_dir / "structures" / "example.json"),
    )
    assert code == 0
    assert out.strip() == "1"


def test_sat_and_valid(tmp_path, capsys):
    f = tmp_path / "f.pc"
    f.write_text("R(p) & ~R(1)\n")
    code, out, _ = run_cli(capsys, "sat", str(f))
    assert code == 0
    assert out.splitlines()[0] == "SAT"
    witness = json.loads(out.splitlines()[1])
    assert witness == {"atoms": {"p": 0}, "oracle": ["0"]}

    g = tmp_path / "g.pc"
    g.write_text("0\n")
    code, out, _ = run_cli(capsys, "sat", str(g))
    assert code == 1
    assert out.strip() == "UNSAT"


def test_valid_on_shipped_example(capsys, data_dir):
    code, out, _ = run_cli(capsys, "valid", str(data_dir / "formulas" / "validity.pc"))
    assert code == 0
    assert out.strip() == "VALID"


def test_valid_negative(tmp_path, capsys):
    f = tmp_path / "f.pc"
    f.write_text("R(p)\n")
    code, out, _ = run_cli(capsys, "valid", str(f))
    assert code == 1
    assert out.splitlines()[0] == "INVALID"


def test_sat_pi1_exit_codes(tmp_path, capsys):
    f = tmp_path / "f.qpc"
    f.write_text("all s. ~R(s)\n")
    code, out, _ = run_cli(capsys, "sat-pi1", str(f))
    assert code == 0 and out.splitlines()[0] == "SAT"

    f.write_text("(all s. ~R(s)) & R(1)\n")
    code, out, _ = run_cli(capsys, "sat-pi1", str(f))
    assert code == 1 and out.strip() == "UNSAT"

    f.write_text("all a. all b. all c. (R(a, b) | ~R(b, c))\n")
    code, out, _ = run_cli(capsys, "sat-pi1", str(f), "--max-universal", "2")
    assert code == 3
    assert out.startswith("BUDGET_EXCEEDED")

    code, out, _ = run_cli(capsys, "sat-pi1", str(f), "--max-strings", "1")
    assert (code, out) == (3, "BUDGET_EXCEEDED expansion exceeded max_oracle_strings\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["sat-pi1", "F", "--max-universal", "0"],
        ["sat-pi1", "F", "--max-strings", "-1"],
        ["sat-pi1", "F", "--max-structures", "0"],
        ["bench-size", "MACHINE", "--inputs", "-1"],
        ["bench-size", "MACHINE", "--inputs", "2,-3"],
        ["bench-size", "NO_BITS", "--inputs", "1"],
        ["bench-size", "NO_BITS", "--inputs", "0,1"],
    ],
)
def test_bad_limits_and_lengths_are_usage_errors(tmp_path, data_dir, argv):
    f = tmp_path / "f.qpc"
    f.write_text("all s. ~R(s)\n")
    no_bits = tmp_path / "no_bits.json"
    no_bits.write_text(NO_BITS_MACHINE)
    machine = str(data_dir / "machines" / "first1.json")
    argv = [{"F": str(f), "MACHINE": machine, "NO_BITS": str(no_bits)}.get(a, a) for a in argv]
    proc = run_module(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    # all or nothing: no partial table before the error
    assert proc.stdout == ""


# Files for ERROR_TABLE, written under {d}.
ERROR_FILES = {
    "empty.pc": "",
    "bad2.pc": "p\np &\n",
    "p.pc": "p | q\n",
    "two.pc": "p\nq\n",
    "q.pc": "all x. R(x)\n",
    "ex.qpc": "ex x. R(x)\n",
    "s.sq": "p |- p\n",
    "q.sq": "|- all x. R(x) | ~R(x)\n",
    "unknown.sq": "|- R(all x. x)\n",
    "bad.json": "{",
    "list.json": "[1,2]",
    "shape.json": '{"atoms": [], "oracle": 5}',
    "oracle_ints.json": '{"oracle": [1]}',
    "oracle_text.json": '{"oracle": "01"}',
    "bool_bit.json": '{"atoms": {"p": true}}',
    "bit2.json": '{"atoms": {"p": 2}}',
    "no_p.json": '{"atoms": {"q": 1}}',
    "proof.json": '{"rule": "X"}',
    "bad_param.json": '{"conclusion": "p |- p", "rule": "AxId", "params": {"formula": "p &"}, "premises": []}',
    "list_pos.json": (
        '{"conclusion": "q, p |- p", "rule": "WeakL", "params": {"pos": [0]}, '
        '"premises": [{"conclusion": "p |- p", "rule": "AxId"}]}'
    ),
    # the tag of an in-memory weakening and exchange chain, which no file holds
    "chain.json": (
        '{"conclusion": "q, p |- p", "rule": "Chain", "params": {"WeakL": 0}, '
        '"premises": [{"conclusion": "p |- p", "rule": "AxId"}]}'
    ),
    # the tag of an in-memory substitution scheme, which no file holds either
    "scheme.json": '{"conclusion": "p, R(p) |- R(1)", "rule": "Scheme", "params": {}, "premises": []}',
    "machine.json": "{}",
    "no_bits.json": NO_BITS_MACHINE,
    # a string where a list of strings belongs, not split into characters
    "alphabet_text.json": NO_BITS_MACHINE.replace('["_", ">"]', '"_>01"'),
    "accept_text.json": NO_BITS_MACHINE.replace('["qacc"]', '"qacc"'),
    "transitions_object.json": no_bits_with(transitions={}),
    "start_number.json": no_bits_with(start=0),
    "duplicate_state.json": no_bits_with(states=["q0", "qacc", "q0"]),
    "duplicate_symbol.json": no_bits_with(tape_alphabet=["_", ">", "_"]),
    "unknown_start.json": no_bits_with(start="q9"),
    "unknown_accept.json": no_bits_with(accept=["q9"]),
    "unknown_to.json": no_bits_with(transitions=no_bits_step(to="q9")),
    "unknown_read.json": no_bits_with(transitions=no_bits_step(read="1")),
    "bad_move.json": no_bits_with(transitions=no_bits_step(move="X")),
}

_MISSING = "[Errno 2] No such file or directory"

# id: (argv, exit code, stdout, stderr); {d} is the files' directory and
# {m} the shipped first1 machine.  Every line is pinned exactly.
ERROR_TABLE = {
    "parse-unreadable": (
        ["parse", "{d}/none.pc"], 2, "",
        "error: cannot read {d}/none.pc: " + _MISSING + ": '{d}/none.pc'\n",
    ),
    "parse-empty": (["parse", "{d}/empty.pc"], 2, "", "error: {d}/empty.pc: no formula or sequent found\n"),
    "parse-line": (
        ["parse", "{d}/bad2.pc"], 2, "", "error: {d}/bad2.pc:2: 1:4: expected a formula, found 'end of input'\n",
    ),
    "eval-kind": (
        ["eval", "{d}/s.sq", "--structure", "{d}/no_p.json"], 2, "", "error: {d}/s.sq: expected exactly one formula\n",
    ),
    "eval-unassigned": (
        ["eval", "{d}/p.pc", "--structure", "{d}/no_p.json"], 2, "", "error: atom 'p' has no assigned value\n",
    ),
    "eval-json": (
        ["eval", "{d}/p.pc", "--structure", "{d}/bad.json"], 2, "",
        "error: {d}/bad.json: bad structure file: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)\n",
    ),
    "eval-bit": (
        ["eval", "{d}/p.pc", "--structure", "{d}/bit2.json"], 2, "",
        "error: {d}/bit2.json: bad structure file: atom 'p' must be 0 or 1, got 2\n",
    ),
    "eval-list": (
        ["eval", "{d}/p.pc", "--structure", "{d}/list.json"], 2, "",
        "error: {d}/list.json: bad structure file: a structure must be a JSON object\n",
    ),
    "eval-atoms-list": (
        ["eval", "{d}/p.pc", "--structure", "{d}/shape.json"], 2, "",
        "error: {d}/shape.json: bad structure file: atoms must be an object of names to 0 or 1\n",
    ),
    "eval-bool-bit": (
        ["eval", "{d}/p.pc", "--structure", "{d}/bool_bit.json"], 2, "",
        "error: {d}/bool_bit.json: bad structure file: atoms must be an object of names to 0 or 1\n",
    ),
    "eval-oracle-ints": (
        ["eval", "{d}/p.pc", "--structure", "{d}/oracle_ints.json"], 2, "",
        "error: {d}/oracle_ints.json: bad structure file: oracle must be a list of strings\n",
    ),
    "eval-oracle-text": (
        ["eval", "{d}/p.pc", "--structure", "{d}/oracle_text.json"], 2, "",
        "error: {d}/oracle_text.json: bad structure file: oracle must be a list of strings\n",
    ),
    "sat-quantified": (
        ["sat", "{d}/q.pc"], 2, "", "error: sat expects a quantifier-free formula (use sat-pi1)\n",
    ),
    "sat-two": (["sat", "{d}/two.pc"], 2, "", "error: {d}/two.pc: expected exactly one formula\n"),
    "valid-quantified": (["valid", "{d}/q.sq"], 2, "", "error: valid expects quantifier-free input\n"),
    "valid-two": (["valid", "{d}/two.pc"], 2, "", "error: {d}/two.pc: expected exactly one formula or sequent\n"),
    "sat-pi1-kind": (["sat-pi1", "{d}/s.sq"], 2, "", "error: {d}/s.sq: expected exactly one formula\n"),
    "sat-pi1-limits": (
        ["sat-pi1", "{d}/q.pc", "--max-universal", "0"], 2, "", "error: solver limits must be positive\n",
    ),
    "sat-pi1-shape": (
        ["sat-pi1", "{d}/ex.qpc"], 2, "",
        "error: matrix is not quantifier-free; only pi1-shaped inputs are supported\n",
    ),
    "prove-kind": (["prove", "{d}/p.pc"], 2, "", "error: {d}/p.pc: expected exactly one sequent\n"),
    "prove-quantified": (["prove", "{d}/q.sq"], 2, "", "error: prove expects a quantifier-free sequent\n"),
    "prove-unwritable": (
        ["prove", "{d}/s.sq", "--out", "{d}/no/out"], 2, "",
        "error: cannot write {d}/no/out: " + _MISSING + ": '{d}/no/out'\n",
    ),
    "prove-unwritable-stats": (
        ["prove", "{d}/s.sq", "--stats", "{d}/no/out"], 2, "",
        "error: cannot write {d}/no/out: " + _MISSING + ": '{d}/no/out'\n",
    ),
    "gprove-unknown": (
        ["gprove", "{d}/unknown.sq"], 2, "",
        "error: quantifiers inside R arguments cannot be reduced by the quantifier rules\n",
    ),
    "check-json": (
        ["check", "{d}/bad.json"], 2, "",
        "error: {d}/bad.json: not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)\n",
    ),
    "check-malformed": (["check", "{d}/proof.json"], 2, "", "error: {d}/proof.json: missing field 'conclusion'\n"),
    "check-formula-param": (
        ["check", "{d}/bad_param.json"], 2, "",
        "error: {d}/bad_param.json: bad formula parameter formula: 1:4: expected a formula, found 'end of input'\n",
    ),
    "check-list": (["check", "{d}/list.json"], 2, "", "error: {d}/list.json: proof node must be an object\n"),
    "check-chain": (["check", "{d}/chain.json"], 2, "", "error: {d}/chain.json: unknown rule tag 'Chain'\n"),
    "check-quantified-chain": (
        ["check", "{d}/chain.json", "--quantified"], 2, "", "error: {d}/chain.json: unknown rule tag 'Chain'\n",
    ),
    "check-scheme": (["check", "{d}/scheme.json"], 2, "", "error: {d}/scheme.json: unknown rule tag 'Scheme'\n"),
    "check-quantified-scheme": (
        ["check", "{d}/scheme.json", "--quantified"], 2, "", "error: {d}/scheme.json: unknown rule tag 'Scheme'\n",
    ),
    # an unhashable position from JSON is reported, not hashed
    "check-list-pos": (["check", "{d}/list_pos.json"], 1, "[root] WeakL: bad position [0]\n", ""),
    "compile-tm-malformed": (
        ["compile-tm", "{d}/machine.json", "--input", "1"], 2, "",
        "error: {d}/machine.json: malformed machine description: 'transitions'\n",
    ),
    "compile-tm-input": (["compile-tm", "{m}", "--input", "2"], 2, "", "error: input must be binary, got '2'\n"),
    "compile-tm-time-exp": (
        ["compile-tm", "{m}", "--input", "10", "--time-exp", "0"], 2, "",
        "error: time exponent must be at least 1\n",
    ),
    "compile-tm-unwritable": (
        ["compile-tm", "{m}", "--input", "1", "--time-exp", "1", "--out", "{d}/no/out"], 2, "",
        "error: cannot write {d}/no/out: " + _MISSING + ": '{d}/no/out'\n",
    ),
    "simulate-input": (
        ["simulate", "{m}", "--input", "2", "--max-steps", "3"], 2, "", "error: input must be binary, got '2'\n",
    ),
    "simulate-steps": (
        ["simulate", "{m}", "--input", "1", "--max-steps", "-1"], 2, "",
        "error: step bound must be non-negative, got -1\n",
    ),
    "simulate-json": (
        ["simulate", "{d}/bad.json", "--input", "1", "--max-steps", "3"], 2, "",
        "error: {d}/bad.json: not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)\n",
    ),
    "simulate-alphabet-text": (
        ["simulate", "{d}/alphabet_text.json", "--input", "1", "--max-steps", "3"], 2, "",
        "error: {d}/alphabet_text.json: malformed machine description: tape_alphabet must be a list of strings\n",
    ),
    "simulate-accept-text": (
        ["simulate", "{d}/accept_text.json", "--input", "1", "--max-steps", "3"], 2, "",
        "error: {d}/accept_text.json: malformed machine description: accept must be a list of strings\n",
    ),
    "simulate-transitions-object": (
        ["simulate", "{d}/transitions_object.json", "--input", "", "--max-steps", "3"], 2, "",
        "error: {d}/transitions_object.json: malformed machine description: transitions must be a list of objects\n",
    ),
    "simulate-start-number": (
        ["simulate", "{d}/start_number.json", "--input", "", "--max-steps", "3"], 2, "",
        "error: {d}/start_number.json: malformed machine description: start must be a string\n",
    ),
    "simulate-duplicate-state": (
        ["simulate", "{d}/duplicate_state.json", "--input", "", "--max-steps", "3"], 2, "",
        "error: {d}/duplicate_state.json: duplicate state names\n",
    ),
    "simulate-duplicate-symbol": (
        ["simulate", "{d}/duplicate_symbol.json", "--input", "", "--max-steps", "3"], 2, "",
        "error: {d}/duplicate_symbol.json: duplicate tape symbols\n",
    ),
    "simulate-unknown-start": (
        ["simulate", "{d}/unknown_start.json", "--input", "", "--max-steps", "3"], 2, "",
        "error: {d}/unknown_start.json: unknown start state 'q9'\n",
    ),
    "simulate-unknown-accept": (
        ["simulate", "{d}/unknown_accept.json", "--input", "", "--max-steps", "3"], 2, "",
        "error: {d}/unknown_accept.json: unknown accept state 'q9'\n",
    ),
    "simulate-unknown-state": (
        ["simulate", "{d}/unknown_to.json", "--input", "", "--max-steps", "3"], 2, "",
        "error: {d}/unknown_to.json: transition uses unknown state: "
        "Transition(state='q0', read='>', next_state='q9', write='>', move='R')\n",
    ),
    "simulate-unknown-symbol": (
        ["simulate", "{d}/unknown_read.json", "--input", "", "--max-steps", "3"], 2, "",
        "error: {d}/unknown_read.json: transition uses unknown symbol: "
        "Transition(state='q0', read='1', next_state='qacc', write='>', move='R')\n",
    ),
    "simulate-bad-move": (
        ["simulate", "{d}/bad_move.json", "--input", "", "--max-steps", "3"], 2, "",
        "error: {d}/bad_move.json: bad move 'X'\n",
    ),
    "family-unknown": (["family", "iter", "--n", "2"], 2, "", "error: unknown family 'iter' (available: wphp)\n"),
    "family-n": (["family", "wphp", "--n", "0"], 2, "", "error: need n >= 1\n"),
    "family-unwritable": (
        ["family", "wphp", "--n", "1", "--out", "{d}/no/out"], 2, "",
        "error: cannot write {d}/no/out: " + _MISSING + ": '{d}/no/out'\n",
    ),
    "bench-size-inputs": (["bench-size", "{m}", "--inputs", "abc"], 2, "", "error: bad --inputs list 'abc'\n"),
    "bench-size-no-bits": (
        ["bench-size", "{d}/no_bits.json", "--inputs", "0,1"], 2, "",
        "error: machine alphabet must contain '0' and '1' for nonempty inputs\n",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_TABLE))
def test_error_table(tmp_path, capsys, data_dir, case):
    for name, text in ERROR_FILES.items():
        (tmp_path / name).write_text(text)
    argv, code, stdout, stderr = ERROR_TABLE[case]
    machine = str(data_dir / "machines" / "first1.json")

    def fill(text):
        return text.replace("{d}", str(tmp_path)).replace("{m}", machine)

    assert run_cli(capsys, *map(fill, argv)) == (code, stdout, fill(stderr))


def test_internal_fault_is_not_a_usage_error(tmp_path, monkeypatch):
    from rpcalc import prover

    def broken(sequent):
        raise prover.ProverInvariantError("broken")

    monkeypatch.setattr(prover, "prove", broken)
    f = tmp_path / "s.sq"
    f.write_text("p |- p\n")
    with pytest.raises(prover.ProverInvariantError):
        main(["prove", str(f)])


def test_structure_error_is_the_same_under_any_hash_seed(tmp_path):
    # the first bad oracle string is reported in sorted order, not in
    # the frozenset's hash order
    structure = tmp_path / "s.json"
    structure.write_text('{"oracle": ["2", "a", "b", "c", "x", "y", "z"]}')
    f = tmp_path / "p.pc"
    f.write_text("p\n")
    for seed in ("0", "1"):
        proc = run_module("eval", str(f), "--structure", str(structure), PYTHONHASHSEED=seed)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {structure}: bad structure file: oracle strings must be over {{0,1}}, got '2'\n"


def test_sat_pi1_output_is_the_same_under_any_hash_seed(tmp_path, data_dir):
    # the expansion's instance dict and the engine's watch lists are
    # keyed by formula nodes, whose hashes are object ids
    machine = str(data_dir / "machines" / "first1.json")
    formula = tmp_path / "first1.pc"
    outputs = []
    for seed in ("0", "1"):
        compiled = run_module("compile-tm", machine, "--input", "10", "--time-exp", "2", PYTHONHASHSEED=seed)
        assert compiled.returncode == 0
        formula.write_text(compiled.stdout)
        solved = run_module("sat-pi1", str(formula), "--max-universal", "64", PYTHONHASHSEED=seed)
        assert (solved.returncode, solved.stdout.splitlines()[0]) == (0, "SAT")
        outputs.append((compiled.stdout, solved.stdout))
    assert outputs[0] == outputs[1]


def test_prove_check_roundtrip(tmp_path, capsys):
    seq = tmp_path / "s.sq"
    seq.write_text("|- (R(p) & R(~p)) => (R(q) | R(~q))\n")
    proof = tmp_path / "proof.json"
    stats = tmp_path / "stats.json"
    code, out, _ = run_cli(capsys, "prove", str(seq), "--out", str(proof), "--stats", str(stats))
    assert code == 0
    stats_data = json.loads(stats.read_text())
    assert set(stats_data) == {"counted_sequents", "cost", "bound", "max_line"}
    assert stats_data["counted_sequents"] <= stats_data["bound"]

    code, out, _ = run_cli(capsys, "check", str(proof))
    assert code == 0 and out.strip() == "OK"


def test_unwritable_stats_leaves_no_proof_in_out(tmp_path, capsys):
    seq = tmp_path / "s.sq"
    seq.write_text("p |- p\n")
    proof = tmp_path / "proof.json"
    stats = tmp_path / "no" / "out"
    code, out, err = run_cli(capsys, "prove", str(seq), "--out", str(proof), "--stats", str(stats))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {stats}: ")
    assert proof.read_text() == ""


@pytest.mark.parametrize("command", ["parse", "prove"])
def test_closed_stdout_is_a_usage_error(tmp_path, command):
    # stdout is a pipe whose read end is closed, so the first write fails
    seq = tmp_path / "s.sq"
    seq.write_text("|- (R(p) & R(~p)) => (R(q) | R(~q))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rpcalc", command, str(seq)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_prove_invalid(tmp_path, capsys):
    seq = tmp_path / "s.sq"
    seq.write_text("R(p) |-\n")
    code, out, _ = run_cli(capsys, "prove", str(seq))
    assert code == 1
    assert out.splitlines()[0] == "INVALID"
    # gprove reports the countermodel of the quantifier-free core
    seq.write_text("|- all x. x\n")
    assert run_cli(capsys, "gprove", str(seq)) == (1, 'INVALID\n{"atoms": {"y0": 0}, "oracle": []}\n', "")


def test_prove_assigns_atoms_the_search_never_reached(tmp_path, capsys):
    # the search stops before it reaches p; the countermodel still
    # assigns p, so the check against the input can evaluate it
    text = "R(q, ~(1 & r), ~r), q |- (p | q) & ~r"
    assert "p" in prove(parse_sequent(text)).counterexample.atoms
    seq = tmp_path / "s.sq"
    seq.write_text(text + "\n")
    expected = 'INVALID\n{"atoms": {"p": 0, "q": 1, "r": 1}, "oracle": ["100"]}\n'
    for command in ("prove", "gprove"):
        assert run_cli(capsys, command, str(seq)) == (1, expected, ""), command


def test_gprove_and_quantified_check(tmp_path, capsys):
    seq = tmp_path / "s.sq"
    seq.write_text("all x. R(x) |- R(0)\n")
    proof = tmp_path / "proof.json"
    code, _, _ = run_cli(capsys, "gprove", str(seq), "--out", str(proof), "--stats", "/dev/null")
    assert code == 0
    code, out, _ = run_cli(capsys, "check", str(proof), "--quantified")
    assert code == 0 and out.strip() == "OK"
    # without --quantified the checker rejects the quantifier rules
    code, out, _ = run_cli(capsys, "check", str(proof))
    assert code == 1


def test_check_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(capsys, "check", str(bad))
    assert code == 2


def test_check_shipped_axiom(capsys, data_dir):
    code, out, _ = run_cli(capsys, "check", str(data_dir / "proofs" / "axid.json"))
    assert code == 0 and out.strip() == "OK"


def test_compile_simulate_family_bench(tmp_path, capsys, data_dir):
    machine = str(data_dir / "machines" / "first1.json")
    out_f = tmp_path / "f.qpc"
    code, _, err = run_cli(
        capsys, "compile-tm", machine, "--input", "10", "--time-exp", "2", "--out", str(out_f)
    )
    assert code == 0
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["length"] > 0
    # the emitted file re-parses to a pi1 formula
    code, out, _ = run_cli(capsys, "parse", str(out_f))
    assert code == 0

    code, out, _ = run_cli(capsys, "simulate", machine, "--input", "10", "--max-steps", "8")
    assert code == 0
    assert "qacc" in out

    code, out, _ = run_cli(capsys, "simulate", machine, "--input", "0", "--max-steps", "8")
    assert code == 1 and out.strip() == "none"

    wf = tmp_path / "wphp.qpc"
    code, _, _ = run_cli(capsys, "family", "wphp", "--n", "2", "--out", str(wf))
    assert code == 0
    code, out, _ = run_cli(capsys, "parse", str(wf))
    assert code == 0

    code, out, _ = run_cli(capsys, "bench-size", machine, "--inputs", "4,8")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "n\tlength\tratio"
    assert len(rows) == 3


def test_shipped_samples_match_their_generators(capsys, data_dir):
    code, out, _ = run_cli(capsys, "family", "wphp", "--n", "1")
    assert code == 0
    assert (data_dir / "formulas" / "wphp1.qpc").read_text() == out
    for name, machine in (("first1", first_symbol_one_machine), ("guess", guess_branch_machine)):
        assert load_machine((data_dir / "machines" / f"{name}.json").read_text()) == machine()


def test_family_unknown(capsys):
    code, _, err = run_cli(capsys, "family", "iter", "--n", "2")
    assert code == 2


def test_outputs_are_deterministic(tmp_path, capsys, data_dir):
    seq = tmp_path / "s.sq"
    seq.write_text("R(p & q) |- R(q & p)\n")
    outputs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "prove", str(seq))
        assert code == 0
        outputs.append((out, err))
    assert outputs[0] == outputs[1]


def test_version_lists_constants(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "d = 20" in out
    assert "E4" in out
    assert "c_alpha" in out


# command: (input, exit code, stdout, stderr).  The parser keeps its own
# stacks, so deep parentheses parse; a long negation chain still
# overflows the recursive walks after parsing.
DEEP_INPUTS = {
    "valid": ("~" * 300_000 + "p | ~p\n", 2, "", "error: input nested too deeply\n"),
    "parse": ("(" * 20_000 + "p" + ")" * 20_000 + "\n", 0, "p\n", ""),
}


@pytest.mark.parametrize("command", sorted(DEEP_INPUTS))
def test_deep_nesting_is_a_usage_error(tmp_path, command):
    # run in a fresh interpreter: an overflow must be caught by the CLI
    # itself, whatever state the test process is in
    text, code, stdout, stderr = DEEP_INPUTS[command]
    f = tmp_path / "deep.pc"
    f.write_text(text)
    proc = run_module(command, str(f))
    assert proc.returncode == code
    assert proc.stderr == stderr
    assert proc.stdout == stdout


# command: (exit code, stdout) on R(R(...R(p)...)).
DEEP_ORACLE_ANSWERS = {
    "sat": (0, 'SAT\n{"atoms": {"p": 0}, "oracle": ["0", "1"]}\n'),
    "valid": (1, 'INVALID\n{"atoms": {"p": 0}, "oracle": []}\n'),
    "sat-pi1": (0, 'SAT\n{"atoms": {"p": 0}, "oracle": ["0", "1"]}\n'),
    "eval": (0, "0\n"),
}


@pytest.mark.parametrize("depth", [15_000, 30_000])
@pytest.mark.parametrize("command", sorted(DEEP_ORACLE_ANSWERS))
def test_deep_oracle_nesting_ends_cleanly(tmp_path, command, depth):
    # a walk that recurses through a builtin (a generator consumed by
    # str.join, say) nests C frames below the recursion limit's reach,
    # so deep input ended the interpreter with SIGSEGV
    f = tmp_path / "deep.pc"
    f.write_text("R(" * depth + "p" + ")" * depth + "\n")
    argv = [command, str(f)]
    if command == "eval":
        structure = tmp_path / "s.json"
        structure.write_text('{"atoms": {"p": 1}, "oracle": []}')
        argv += ["--structure", str(structure)]
    proc = run_module(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (*DEEP_ORACLE_ANSWERS[command], "")


def test_deep_proof_is_checked(tmp_path):
    # 30,000 exchanges over "p, q |- p".  Loading recurses once per
    # level; building the premises through a generator consumed by
    # tuple() nested C frames too, and crashed the interpreter here
    leaf = (
        '{"conclusion":"p, q |- p","params":{"pos":1},"premises":'
        '[{"conclusion":"p |- p","params":{},"premises":[],"rule":"AxId"}],"rule":"WeakL"}'
    )
    depth = 30_000
    opens = [
        '{"conclusion":"%s","params":{"pos":0},"premises":[' % ("p, q |- p" if k % 2 else "q, p |- p")
        for k in range(depth)
    ]
    f = tmp_path / "deep.json"
    f.write_text("".join(reversed(opens)) + leaf + '],"rule":"ExchL"}' * depth)
    proc = run_module("check", str(f))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "OK\n", "")


def test_import_leaves_numpy_unloaded():
    # the package has no runtime dependencies; a fresh interpreter shows
    # whether anything it imports pulls numpy in
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rpcalc, rpcalc.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_and_main_leave_the_recursion_limit_alone(tmp_path):
    # main raises the limit only while its command runs, and restores it
    # on the error path too
    script = (
        "import sys; limit = sys.getrecursionlimit(); import rpcalc, rpcalc.cli\n"
        "print(sys.getrecursionlimit() == limit)\n"
        "print(rpcalc.cli.main(['parse', sys.argv[1]]), sys.getrecursionlimit() == limit)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "missing.pc")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.stdout == "True\n2 True\n", proc.stderr
