"""Command-line interface.

Exit codes are uniform across subcommands: 0 success or positive result,
1 negative result (unsatisfiable, invalid, failed check), 2 usage or
parse error, 3 budget exceeded.  `main` is the one place where an error
becomes an exit code.  Every error the library raises for bad input
(ParseError, MachineError, EncodingError, UnsupportedShapeError,
ProofFormatError, UnassignedAtomError, CaptureError, the limit checks)
subclasses ValueError, and the commands raise their own usage errors as
ValueError too, so `main` reports any ValueError as one `error:` line
and exit 2.  An internal fault such as ProverInvariantError is not a
ValueError: it propagates with its traceback and is never reported as a
usage error.  The helpers below only add context (a path, a line
number) to a message.  Parsing accepts nesting of any depth, but some
walks over the parsed formula still recurse, so `main` raises the
interpreter's recursion limit to 100,000 while the command runs and
restores it afterwards; where a walk still exceeds it the command
reports "input nested too deeply" and exits 2.  Outputs carry no
timestamps; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__, families, gprover, machines, proofs, prover, semantics, syntax, tableau
from .constants import C_ALPHA, D_LINES, E_LINE_FACTOR, K_E
from .formulas import Not, Sequent, is_quantifier_free

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}")


def _emit(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout when there is none."""
    if not path:
        print(text, end="")
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}")


def _load(path: str, parse, what: str = ""):
    """parse(text of the file at path), its errors prefixed with the path."""
    text = _read(path)
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {what}{exc}")


def _parse_entries(path: str):
    entries = syntax.iter_entries(_read(path))
    if not entries:
        raise ValueError(f"{path}: no formula or sequent found")
    out = []
    for lineno, line in entries:
        try:
            out.append(syntax.parse_entry(line))
        except syntax.ParseError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}")
    return out


def _single(path: str, kind: str):
    """The file's one entry; kind is "formula", "sequent" or "formula or sequent"."""
    entries = _parse_entries(path)
    if len(entries) != 1 or ("sequent" if isinstance(entries[0], Sequent) else "formula") not in kind:
        raise ValueError(f"{path}: expected exactly one {kind}")
    return entries[0]


def _structure(text: str) -> semantics.Structure:
    return semantics.Structure.from_json(json.loads(text))


def cmd_parse(args) -> int:
    for entry in _parse_entries(args.file):
        print(syntax.format_entry(entry))
    return EXIT_OK


def cmd_eval(args) -> int:
    formula = _single(args.file, "formula")
    structure = _load(args.structure, _structure, "bad structure file: ")
    print(semantics.eval_formula(formula, structure))
    return EXIT_OK


def cmd_sat(args) -> int:
    formula = _single(args.file, "formula")
    if not is_quantifier_free(formula):
        raise ValueError("sat expects a quantifier-free formula (use sat-pi1)")
    witness = semantics.sat_pc(formula)
    if witness is None:
        print("UNSAT")
        return EXIT_NEGATIVE
    print("SAT")
    print(witness.dumps())
    return EXIT_OK


def cmd_valid(args) -> int:
    entry = _single(args.file, "formula or sequent")
    formula = semantics.validity_formula(entry) if isinstance(entry, Sequent) else entry
    if not is_quantifier_free(formula):
        raise ValueError("valid expects quantifier-free input")
    witness = semantics.sat_pc(Not(formula))
    if witness is None:
        print("VALID")
        return EXIT_OK
    print("INVALID")
    print(witness.dumps())
    return EXIT_NEGATIVE


def cmd_sat_pi1(args) -> int:
    formula = _single(args.file, "formula")
    limits = semantics.SolverLimits(
        max_universal_vars=args.max_universal,
        max_oracle_strings=args.max_strings,
        max_structures=args.max_structures,
    )
    result = semantics.sat_pi1(formula, limits)
    if result.status == semantics.BUDGET_EXCEEDED:
        print(f"BUDGET_EXCEEDED {result.reason}")
        return EXIT_BUDGET
    if result.status == semantics.UNSAT:
        print("UNSAT")
        return EXIT_NEGATIVE
    print("SAT")
    print(result.witness.dumps())
    return EXIT_OK


def _emit_proof(proof, stats, args) -> None:
    """Write the proof and its statistics.  Both files are created before
    either is written, so one that cannot be written leaves no proof
    behind (the empty text writes nothing to stdout)."""
    for path in (args.out, args.stats):
        _emit(path, "")
    _emit(args.out, proofs.dump_proof(proof) + "\n")
    _emit(args.stats, json.dumps(stats.to_json(), indent=2, sort_keys=True) + "\n")


def cmd_prove(args) -> int:
    result = args.search(_single(args.file, "sequent"))
    if result.status == prover.UNKNOWN:
        raise ValueError(result.reason)
    if result.status == prover.NOT_VALID:
        print("INVALID")
        print(result.counterexample.dumps())
        return EXIT_NEGATIVE
    _emit_proof(result.proof, result.stats, args)
    return EXIT_OK


def cmd_check(args) -> int:
    proof = _load(args.file, proofs.load_proof)
    errors = proofs.check_g(proof) if args.quantified else proofs.check_pk(proof)
    if errors:
        for err in errors:
            print(str(err))
        return EXIT_NEGATIVE
    print("OK")
    return EXIT_OK


def cmd_compile_tm(args) -> int:
    machine = _load(args.machine, machines.load_machine)
    formula, info = tableau.compile_with_info(machine, args.input, args.time_exp)
    _emit(args.out, syntax.format_formula(formula) + "\n")
    summary = {
        "input": args.input,
        "time_exp": info.params.t,
        "cell_bits": info.params.m,
        "offset_bits": info.params.w_bits,
        "oracle_arity": info.params.arity,
        "universal_vars": len(info.universal_vars),
        "length": syntax.length(formula),
    }
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args) -> int:
    machine = _load(args.machine, machines.load_machine)
    run = machines.simulate(machine, args.input, args.max_steps)
    if run is None:
        print("none")
        return EXIT_NEGATIVE
    for i, config in enumerate(run.configs):
        choice = run.choices[i] if i < len(run.choices) else "-"
        print(f"{i}\t{config.state}\t{config.head}\t{''.join(config.tape)}\t{choice}")
    return EXIT_OK


def cmd_family(args) -> int:
    if args.name not in families.FAMILIES:
        raise ValueError(f"unknown family {args.name!r} (available: {', '.join(sorted(families.FAMILIES))})")
    _emit(args.out, syntax.format_formula(families.FAMILIES[args.name](args.n)) + "\n")
    return EXIT_OK


def cmd_bench_size(args) -> int:
    machine = _load(args.machine, machines.load_machine)
    try:
        lengths = [int(s) for s in args.inputs.split(",") if s]
    except ValueError:
        raise ValueError(f"bad --inputs list {args.inputs!r}")
    if not lengths:
        raise ValueError("--inputs must list at least one length")
    if min(lengths) < 0:
        raise ValueError(f"--inputs lengths must be non-negative, got {min(lengths)}")
    # every length is compiled before the table starts, so an error
    # leaves stdout empty
    sizes = [
        syntax.length(tableau.compile_machine(machine, "1" + "0" * (n - 1) if n else "", n or 1))
        for n in lengths
    ]
    print("n\tlength\tratio")
    previous = None
    for n, size in zip(lengths, sizes):
        ratio = f"{size / previous:.3f}" if previous else "-"
        print(f"{n}\t{size}\t{ratio}")
        previous = size
    return EXIT_OK


def _version_text() -> str:
    lines = [f"rpcalc {__version__}"]
    lines.append(f"prover line bound d = {D_LINES} (counted lines <= d * 2^cost)")
    lines.append(f"prover line length factor e = {E_LINE_FACTOR}")
    for name in sorted(K_E):
        lines.append(f"scheme {name} counted size = {K_E[name]}")
    lines.append(f"decoder gate factor c_alpha = {C_ALPHA}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpcalc",
        description="Oracle-relativized propositional calculus toolkit",
    )
    parser.add_argument("--version", action="version", version=_version_text())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo the canonical form of formulas/sequents")
    p.add_argument("file")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula in a structure")
    p.add_argument("file")
    p.add_argument("--structure", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sat", help="satisfiability of a quantifier-free formula")
    p.add_argument("file")
    p.set_defaults(fn=cmd_sat)

    p = sub.add_parser("valid", help="validity of a quantifier-free formula or sequent")
    p.add_argument("file")
    p.set_defaults(fn=cmd_valid)

    p = sub.add_parser("sat-pi1", help="expansion solver for universally quantified formulas")
    p.add_argument("file")
    limits = semantics.DEFAULT_LIMITS
    p.add_argument("--max-universal", type=int, default=limits.max_universal_vars)
    p.add_argument("--max-strings", type=int, default=limits.max_oracle_strings)
    p.add_argument("--max-structures", type=int, default=limits.max_structures)
    p.set_defaults(fn=cmd_sat_pi1)

    p = sub.add_parser("prove", help="prove a valid quantifier-free sequent")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--stats")
    p.set_defaults(fn=cmd_prove, search=prover.prove)

    p = sub.add_parser("gprove", help="prove a valid quantified sequent")
    p.add_argument("file")
    p.add_argument("--out")
    p.add_argument("--stats")
    p.set_defaults(fn=cmd_prove, search=gprover.gprove)

    p = sub.add_parser("check", help="check a proof file")
    p.add_argument("file")
    p.add_argument("--quantified", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compile-tm", help="compile machine acceptance to a formula")
    p.add_argument("machine")
    p.add_argument("--input", required=True)
    p.add_argument("--time-exp", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compile_tm)

    p = sub.add_parser("simulate", help="breadth-first search for an accepting run")
    p.add_argument("machine")
    p.add_argument("--input", required=True)
    p.add_argument("--max-steps", type=int, required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("family", help="emit a benchmark formula family member")
    p.add_argument("name")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("bench-size", help="table of compiled formula length vs input length")
    p.add_argument("machine")
    p.add_argument("--inputs", required=True)
    p.set_defaults(fn=cmd_bench_size)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = sys.getrecursionlimit()
    # compiled formulas carry quantifier prefixes and conjunction chains
    # far deeper than the default limit
    sys.setrecursionlimit(max(limit, 100_000))
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # _read and _emit turn file errors into ValueError, so this is a
        # write to stdout.  What is left in its buffer goes to the null
        # device, so that the flush at interpreter exit cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
