"""Mutated shipped inputs through every command, in process: each run
ends with an exit code from 0 to 3 and prints no traceback."""

import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpcalc.cli import main

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
FORMULAS = [(DATA / "formulas" / name).read_text() for name in ("validity.pc", "wphp1.qpc")]
PROOFS = sorted((DATA / "proofs").glob("*.json"))
# prove and gprove get the proofs' conclusions: a shipped formula as a
# sequent can be too large for a quick run (gprove has no budget, and
# on |- wphp1 it runs for minutes)
SEQUENTS = [json.loads(path.read_text())["conclusion"] + "\n" for path in PROOFS]
MACHINES = [path.read_text() for path in sorted((DATA / "machines").glob("*.json"))]
STRUCTURE = (DATA / "structures" / "example.json").read_text()

# Per command: its arguments, with {f} for the mutated file and {s} for
# the shipped structure, and the seed texts that are mutated.  The other
# arguments are fixed and small, so that every run is quick.  `family`
# takes no file: its family name is the mutated text.
COMMANDS = [
    (["parse", "{f}"], FORMULAS + SEQUENTS),
    (["eval", "{f}", "--structure", "{s}"], FORMULAS),
    (["eval", str(DATA / "formulas" / "validity.pc"), "--structure", "{f}"], [STRUCTURE]),
    (["sat", "{f}"], FORMULAS),
    (["valid", "{f}"], FORMULAS + SEQUENTS),
    (["sat-pi1", "{f}"], FORMULAS),
    (["prove", "{f}"], SEQUENTS),
    (["gprove", "{f}"], SEQUENTS),
    (["check", "{f}"], [path.read_text() for path in PROOFS]),
    (["check", "{f}", "--quantified"], [path.read_text() for path in PROOFS]),
    (["compile-tm", "{f}", "--input", "10", "--time-exp", "1"], MACHINES),
    (["simulate", "{f}", "--input", "10", "--max-steps", "8"], MACHINES),
    (["bench-size", "{f}", "--inputs", "1,2"], MACHINES),
    (["family", "{text}", "--n", "1"], ["wphp"]),
]

TOKENS = ["~", "&", "|", "=>", "<=>", "|-", ",", "(", ")", "R(", "all x.", "ex y.", "x", "p", "0", "1", "#", "\n"]
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**20),
    st.sampled_from(["", "p |- p", "WeakL", "Chain", "Scheme", "q0", "R"]),
    st.lists(st.integers(0, 3), max_size=2), st.just({}),
)


def mutate_text(data, text: str) -> str:
    """Up to three edits, each deleting, duplicating or replacing a short
    slice or inserting a token of the formula syntax; with none, the
    shipped input goes through unchanged."""
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(text)))
        j = min(len(text), i + data.draw(st.integers(0, 8)))
        edit = data.draw(st.sampled_from(["delete", "duplicate", "replace", "insert"]))
        if edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "duplicate":
            text = text[:j] + text[i:j] + text[j:]
        else:
            token = data.draw(st.sampled_from(TOKENS))
            text = text[:i] + token + (text[j:] if edit == "replace" else text[i:])
    return text


def mutate_json(data, value):
    """One value somewhere in the document replaced, or one key dropped
    or added; lists and objects may be entered on the way down."""
    if isinstance(value, (dict, list)) and value and data.draw(st.booleans()):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = data.draw(st.sampled_from(list(keys)))
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = mutate_json(data, value[key])
        return copy
    if isinstance(value, dict) and value and data.draw(st.booleans()):
        dropped = data.draw(st.sampled_from(sorted(value)))
        return {k: v for k, v in value.items() if k != dropped}
    if isinstance(value, dict) and data.draw(st.booleans()):
        return {**value, data.draw(st.sampled_from(["params", "premises", "pos", "extra"])): data.draw(JSON_VALUES)}
    return data.draw(JSON_VALUES)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, derandomize=True, database=None)
@given(st.data())
def test_mutated_inputs_end_with_an_exit_code(work_dir, data):
    argv, seeds = COMMANDS[data.draw(st.integers(0, len(COMMANDS) - 1))]
    text = data.draw(st.sampled_from(seeds))
    try:
        document = json.loads(text)
    except ValueError:
        document = None
    if document is not None and data.draw(st.booleans()):
        text = json.dumps(mutate_json(data, document))
    else:
        text = mutate_text(data, text)
    path = work_dir / "input"
    path.write_text(text, encoding="utf-8")
    filled = [
        arg.replace("{f}", str(path)).replace("{s}", str(DATA / "structures" / "example.json")).replace("{text}", text)
        for arg in argv
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(filled)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (filled, text, code)
    assert "Traceback" not in out.getvalue() + err.getvalue(), (filled, text)
