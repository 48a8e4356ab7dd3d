"""The benchmark's four workloads.

A workload makes a fixed item list from a seed (`setup`), runs one item
through the library's public functions (`run`), and afterwards checks the
outputs, sizes them and counts per-layer work.  Every call into the
library goes through `call(span_name, fn, *args)`, so a traced pass can
time each layer from here without touching the program.

`run` returns `(output, detail)`: `output` is what a user of the CLI would
get back and must be identical in every pass; `detail` holds the objects
the full check of the first pass needs.
"""

from __future__ import annotations

import random
import string

from genlib import (
    ATOMS,
    QUANTIFIED_SUITE,
    first_symbol_one_machine,
    generate_valid_sequents,
    guess_branch_machine,
    random_flat_formula,
)
from rpcalc.families import weak_pigeonhole
from rpcalc.formulas import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Not,
    Or,
    RApp,
    Sequent,
    and_all,
    cost_sequent,
    or_all,
    substitute,
)
from rpcalc.gprover import PROVED, gprove
from rpcalc.machines import normalize_machine
from rpcalc.proofs import check_g, check_pk, dump_proof, load_proof, nodes
from rpcalc.prover import prove
from rpcalc.semantics import SAT, UNSAT, SolverLimits, sat_pc, sat_pi1, sequent_valid
from rpcalc.syntax import format_formula, length, parse_formula, parse_sequent
from rpcalc.tableau import compile_with_info

import checks

# Wide enough that no item stops on a budget.
LIMITS = SolverLimits(max_universal_vars=64, max_oracle_strings=1 << 20, max_structures=1 << 24)

MACHINES = {"first1": first_symbol_one_machine, "guess": guess_branch_machine}


# The tests' seeds: criterion 4's 200 sequents and criterion 3's 500
# formulas.  The run's own seed relabels these sets (atom names, pigeon
# and hole codes, machine input bits) but never resizes or reorders
# them, so every run does the same work in the same order.
SEQUENT_SEED = 1004
FORMULA_SEED = 1003


def relabel(f, names: dict[str, str]):
    """Rename the atoms of a quantifier-free formula."""
    if isinstance(f, Atom):
        return Atom(names.get(f.name, f.name))
    if isinstance(f, Not):
        return Not(relabel(f.child, names))
    if isinstance(f, (And, Or)):
        return type(f)(relabel(f.left, names), relabel(f.right, names))
    if isinstance(f, RApp):
        return RApp(tuple(relabel(a, names) for a in f.args))
    return f


def seeded_sequents(rng: random.Random) -> list[Sequent]:
    """Criterion 4's valid sequents, their atoms renamed to distinct
    letters drawn from `rng`.  Proof size and JSON length do not depend
    on atom names."""
    names = dict(zip(ATOMS, rng.sample(string.ascii_lowercase, len(ATOMS))))
    return [
        Sequent(
            tuple(relabel(f, names) for f in s.antecedent),
            tuple(relabel(f, names) for f in s.succedent),
        )
        for s in generate_valid_sequents(SEQUENT_SEED, count=200, max_cost=10)
    ]


def proof_size(proof) -> int:
    return sum(1 for _ in nodes(proof))


def random_bits(rng: random.Random, k: int) -> str:
    return "".join(rng.choice("01") for _ in range(k))


class TmSolve:
    """`rpcalc compile-tm` followed by `rpcalc sat-pi1`, in process."""

    name = "tm_solve"

    def setup(self, seed: int):
        rng = random.Random(seed)
        specs = [
            ("first1", "10", 2),  # accepted in two steps, criterion 8's item
            ("first1", random_bits(rng, 2), 1),  # one step is too few: rejected
            ("guess", random_bits(rng, 2), 1),
        ]
        return [(name, MACHINES[name](), x, t) for name, x, t in specs]

    def run(self, item, call):
        _, machine, x, t = item
        formula, info = call("tableau.compile", compile_with_info, machine, x, t)
        text = call("syntax.format", format_formula, formula)
        parsed = call("syntax.parse", parse_formula, text)
        result = call("semantics.sat_pi1", sat_pi1, parsed, LIMITS)
        witness_json = call("semantics.dumps", result.witness.dumps) if result.witness else ""
        return (text, result.status, witness_json), (formula, info, parsed, result)

    def check(self, items, outputs, details):
        problems = {}
        for i, (item, (formula, info, parsed, result)) in enumerate(zip(items, details)):
            _, machine, x, t = item
            found = checks.check_machine_verdict(
                normalize_machine(machine), x, t, info.params, result.status, result.witness
            )
            found += checks.check_roundtrip(formula, parsed)
            if found:
                problems[i] = found
        return problems

    def output_size(self, outputs) -> int:
        return sum(len(text) + len(witness_json) for text, _, witness_json in outputs)

    def counts(self, items, outputs, details) -> dict:
        return {
            "tableau.universals": sum(len(info.universal_vars) for _, info, _, _ in details),
            "semantics.witness_strings": sum(
                len(result.witness.oracle) for *_, result in details if result.witness
            ),
            "syntax.formula_chars": sum(len(text) for text, _, _ in outputs),
        }


class PkProofs:
    """`rpcalc prove` and `rpcalc gprove` with their strict checkers."""

    name = "pk_proofs"

    def setup(self, seed: int):
        rng = random.Random(seed)
        items = [("prop", s) for s in seeded_sequents(rng)]
        return items + [("quant", parse_sequent(text)) for text in QUANTIFIED_SUITE]

    def run(self, item, call):
        kind, sequent = item
        if kind == "prop":
            result = call("prover.prove", prove, sequent)
            errors = call("proofs.check_pk", check_pk, result.proof)
            status = "proved" if result.valid else "not_valid"
        else:
            result = call("gprover.gprove", gprove, sequent)
            errors = call("proofs.check_g", check_g, result.proof)
            status = result.status
        return (status, result.stats, tuple(map(str, errors)), result.proof), None

    def check(self, items, outputs, details):
        problems = {}
        for i, ((kind, sequent), (status, stats, errors, proof)) in enumerate(zip(items, outputs)):
            found = [f"pipeline checker: {errors[0]}"] if errors else []
            if kind == "prop":
                found += checks.check_prop_proof(sequent, proof, stats.max_line)
            else:
                if status != PROVED:
                    found.append(f"gprove status {status}")
                found += checks.check_quantified_proof(sequent, proof)
            if found:
                problems[i] = found
        return problems

    def output_size(self, outputs) -> int:
        return sum(stats.counted_sequents for _, stats, _, _ in outputs)

    def counts(self, items, outputs, details) -> dict:
        return {
            "prover.counted_lines": self.output_size(outputs),
            "proofs.nodes": sum(proof_size(proof) for *_, proof in outputs),
            "prover.recursion_depth": max(stats.recursion_depth for _, stats, _, _ in outputs),
        }


class TextIO:
    """Proof JSON out and back in, and compiled formulas printed and
    parsed back."""

    name = "text_io"
    # Proof JSON grows as 2^cost and parsing dominates the formula part;
    # costs up to 5 and inputs up to 8 symbols keep a pass near 4 s.
    max_proof_cost = 5
    lengths = (2, 4, 8)

    def setup(self, seed: int):
        rng = random.Random(seed)
        sequents = [s for s in seeded_sequents(rng) if cost_sequent(s) <= self.max_proof_cost]
        items = [("proof", prove(s).proof) for s in sequents]
        for name, make in MACHINES.items():
            for n in self.lengths:
                items.append(("machine", name, make(), "1" + random_bits(rng, n - 1)))
        return items

    def run(self, item, call):
        if item[0] == "proof":
            text = call("proofs.dump", dump_proof, item[1])
            loaded = call("proofs.load", load_proof, text)
            return text, loaded
        _, _, machine, x = item
        formula, info = call("tableau.compile", compile_with_info, machine, x, len(x))
        text = call("syntax.format", format_formula, formula)
        parsed = call("syntax.parse", parse_formula, text)
        return text, (formula, info, parsed)

    def check(self, items, outputs, details):
        problems = {}
        lengths: dict[str, list[tuple[int, int]]] = {}  # machine: (item, length), n ascending
        for i, (item, text, detail) in enumerate(zip(items, outputs, details)):
            if item[0] == "proof":
                found = checks.check_proof_text(item[1], text, detail)
            else:
                formula, _, parsed = detail
                found = checks.check_roundtrip(formula, parsed)
                lengths.setdefault(item[1], []).append((i, length(formula)))
            if found:
                problems[i] = found
        for series in lengths.values():
            for problem in checks.check_linear_growth([size for _, size in series]):
                for i, _ in series:
                    problems.setdefault(i, []).append(problem)
        return problems

    def output_size(self, outputs) -> int:
        return sum(len(text) for text in outputs)

    def counts(self, items, outputs, details) -> dict:
        proof_bytes = sum(len(t) for item, t in zip(items, outputs) if item[0] == "proof")
        return {
            "proofs.json_bytes": proof_bytes,
            "proofs.nodes": sum(proof_size(item[1]) for item in items if item[0] == "proof"),
            "syntax.formula_chars": self.output_size(outputs) - proof_bytes,
            "tableau.universals": sum(
                len(d[1].universal_vars) for item, d in zip(items, details) if item[0] == "machine"
            ),
        }


def pigeonhole(pigeons: int, holes: int, rng: random.Random):
    """Ground PHP(P, H): every pigeon sits in a hole and no hole holds two.
    R(pigeon code, hole code) says where a pigeon sits; the codes are
    drawn from the seed, which relabels the instance without changing it."""
    pw, hw = max(1, (pigeons - 1).bit_length()), max(1, (holes - 1).bit_length())
    pcodes = rng.sample(range(1 << pw), pigeons)
    hcodes = rng.sample(range(1 << hw), holes)

    def sits(i: int, j: int) -> RApp:
        bits = [(pcodes[i] >> k) & 1 for k in range(pw)] + [(hcodes[j] >> k) & 1 for k in range(hw)]
        return RApp(tuple(Const(b) for b in bits))

    parts = [or_all(sits(i, j) for j in range(holes)) for i in range(pigeons)]
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                parts.append(Not(And(sits(i, j), sits(k, j))))
    return and_all(parts)


def negate_to_pi1(f, negate: bool = True):
    """An equivalent of ~f (or of f) with negations pushed inward, whose
    only quantifiers are universals: each existential that appears is
    expanded into a disjunction of its two instances."""
    if isinstance(f, Not):
        return negate_to_pi1(f.child, not negate)
    if isinstance(f, (And, Or)):
        left, right = negate_to_pi1(f.left, negate), negate_to_pi1(f.right, negate)
        return And(left, right) if isinstance(f, And) != negate else Or(left, right)
    if isinstance(f, (Forall, Exists)):
        body = negate_to_pi1(f.body, negate)
        if isinstance(f, Forall) != negate:
            return Forall(f.var, body)
        return Or(substitute(body, f.var, Const(0)), substitute(body, f.var, Const(1)))
    return Not(f) if negate else f


class Decide:
    """Ground deciders: `sat_pi1` and `sat_pc` on pigeonhole instances,
    `sat_pc` on random flat formulas and `sequent_valid` on sequents."""

    name = "decide"
    pi1_php = ((6, 5), (6, 6), (5, 4), (4, 4))
    pc_php = ((5, 4), (5, 5), (4, 3), (4, 4))
    wphp = (1, 2)
    random_formulas = 500

    def setup(self, seed: int):
        items = []
        rng = random.Random(FORMULA_SEED)
        for i in range(self.random_formulas):  # criterion 3's formulas
            f = random_flat_formula(rng, atoms=("p", "q", "r", "s"), max_r=2, max_arity=3, depth=4)
            if i % 3 == 1:
                f = And(f, random_flat_formula(rng, max_r=1, max_arity=3, depth=3))
            elif i % 3 == 2:
                f = And(f, Not(random_flat_formula(rng, max_r=1, max_arity=3, depth=3)))
            items.append(("pc_flat", f))
        rng = random.Random(seed)
        items += [("pi1_php", (p, h), pigeonhole(p, h, rng)) for p, h in self.pi1_php]
        items += [("pc_php", (p, h), pigeonhole(p, h, rng)) for p, h in self.pc_php]
        items += [("pi1_wphp", n, negate_to_pi1(weak_pigeonhole(n))) for n in self.wphp]
        return items + [("sequent", s) for s in seeded_sequents(rng)]

    def run(self, item, call):
        kind, subject = item[0], item[-1]
        if kind == "sequent":
            valid = call("semantics.sequent_valid", sequent_valid, subject)
            return ("VALID" if valid else "INVALID"), valid
        if kind.startswith("pi1"):
            result = call("semantics.sat_pi1", sat_pi1, subject, LIMITS)
            status, witness = result.status, result.witness
        else:
            witness = call("semantics.sat_pc", sat_pc, subject)
            status = SAT if witness is not None else UNSAT
        line = status.upper()
        if witness is not None:
            line += " " + call("semantics.dumps", witness.dumps)
        return line, (status, witness)

    def check(self, items, outputs, details):
        problems = {}
        for i, (item, detail) in enumerate(zip(items, details)):
            kind = item[0]
            if kind == "sequent":
                found = checks.check_sequent_verdict(item[1], detail)
            elif kind == "pc_flat":
                found = checks.check_flat_sat(item[1], detail[1])
            elif kind == "pi1_wphp":
                found = checks.check_refuted(detail[0])
            else:
                (p, h), formula = item[1], item[2]
                found = checks.check_pigeonhole(p, h, formula, *detail)
            if found:
                problems[i] = found
        return problems

    def output_size(self, outputs) -> int:
        return sum(len(line) + 1 for line in outputs)

    def counts(self, items, outputs, details) -> dict:
        return {
            "semantics.witness_strings": sum(
                len(d[1].oracle) for item, d in zip(items, details)
                if item[0] != "sequent" and d[1] is not None
            ),
        }


WORKLOADS = {w.name: w for w in (TmSolve(), PkProofs(), TextIO(), Decide())}
