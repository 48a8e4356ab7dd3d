#!/usr/bin/env python3
"""Measure the calibrated constants over randomized suites.

Prints the observed maxima behind the published values in
rpcalc.constants: the proof-line factor d, the line-length factor e,
the per-scheme counted sizes, and the decoder gate factor.  Exits 1,
with a message, when a proof fails to check, an observed value
exceeds its published constant, or a one-node scheme's counted size or
longest line differs from its derivation's.

Usage: python scripts/calibrate_constants.py [--seed N] [--sequents N]
"""

import argparse
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from genlib import generate_valid_sequents, random_flat_formula  # noqa: E402

from rpcalc.circuits import decoder_circuit  # noqa: E402
from rpcalc.constants import C_ALPHA, D_LINES, E_LINE_FACTOR, K_E  # noqa: E402
from rpcalc.formulas import cost_sequent  # noqa: E402
from rpcalc.proofs import check_pk, counted_size, derive_scheme, max_line_length, scheme  # noqa: E402
from rpcalc.prover import prove  # noqa: E402
from rpcalc.syntax import sequent_length  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sequents", type=int, default=150)
    args = parser.parse_args()
    failures = []

    suite = generate_valid_sequents(seed=args.seed, count=args.sequents, max_cost=10)
    worst_d = 0.0
    worst_e = 0.0
    for s in suite:
        r = prove(s)
        if not r.valid or check_pk(r.proof):
            print(f"error: no checked proof of the valid sequent {s}", file=sys.stderr)
            return 1
        c = cost_sequent(s)
        worst_d = max(worst_d, r.stats.counted_sequents / (1 << c))
        worst_e = max(worst_e, r.stats.max_line / sequent_length(s))
    print(f"proof lines / 2^cost : observed max {worst_d:.3f}  published d = {D_LINES}")
    print(f"line length / |S|    : observed max {worst_e:.3f}  published e = {E_LINE_FACTOR}")
    if worst_d > D_LINES:
        failures.append(f"proof lines / 2^cost reach {worst_d:.3f}, above d = {D_LINES}")
    if worst_e > E_LINE_FACTOR:
        failures.append(f"line length / |S| reaches {worst_e:.3f}, above e = {E_LINE_FACTOR}")

    rng = random.Random(args.seed)
    for which in ("E1", "E2", "E3", "E4"):
        sizes = set()
        for d in (0, 1, 2, 3, 4):
            a = random_flat_formula(rng, depth=d)
            # the prover's one-node scheme must measure as its derivation
            derived, node = derive_scheme(which, a), scheme(which, a)
            sizes.add(counted_size(derived))
            measures = [(counted_size(p), max_line_length(p)) for p in (node, derived)]
            if measures[0] != measures[1]:
                failures.append(f"scheme {which} node measures {measures[0]}, its derivation {measures[1]}")
        shown = ", ".join(map(str, sorted(sizes)))
        print(f"scheme {which} counted size : {shown}  published {K_E[which]}")
        if sizes != {K_E[which]}:
            failures.append(f"scheme {which} counted sizes {shown}, published {K_E[which]}")

    worst_alpha = max(decoder_circuit(n).gate_count / n for n in range(1, 1025))
    print(f"decoder gates / n    : observed max {worst_alpha:.3f}  published c_alpha = {C_ALPHA}")
    if worst_alpha > C_ALPHA:
        failures.append(f"decoder gates / n reach {worst_alpha:.3f}, above c_alpha = {C_ALPHA}")

    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
