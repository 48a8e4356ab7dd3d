"""Fixed-work benchmark of rpcalc's user pipelines.

    python3 perfbench/run.py --workload tm_solve --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in fresh single-threaded Python processes with a fixed
PYTHONHASHSEED, from a plain checkout (`src` and `tests` are put on the
path; nothing is installed).  Set-up is timed in SETUP_SAMPLES extra
processes that stop after input preparation, and the median is reported.
The last line of stdout is one JSON object: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("tm_solve", "pk_proofs", "text_io", "decide")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

# Per-layer metrics: span names timed from workloads.py (self time, s)
# and counts taken from the checked pass.
LAYER_TIMES = (
    "semantics.sat_pi1", "semantics.sat_pc", "semantics.sequent_valid", "semantics.dumps",
    "prover.prove", "proofs.check_pk", "gprover.gprove", "proofs.check_g",
    "proofs.dump", "proofs.load", "syntax.parse", "syntax.format", "tableau.compile",
)
LAYER_COUNTS = (
    "tableau.universals", "semantics.witness_strings", "prover.counted_lines",
    "proofs.nodes", "prover.recursion_depth", "proofs.json_bytes", "syntax.formula_chars",
)


def child(workload: str, seed: int, *extra: str) -> tuple[float, dict]:
    """Run harness.py in a fresh process; return its start time and its
    final JSON line."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: harness exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES):
        start, out = child(workload, seed, "--setup-only")
        setups.append(out["setup_end"] - start)
    start, out = child(workload, seed, "--seconds", str(seconds), "--trace", str(trace))
    setups.append(out["setup_end"] - start)
    out["setups"] = setups

    if trace:
        metrics = {f"{name}_s": {"value": out["self_s"].get(name, 0.0), "unit": "s"}
                   for name in LAYER_TIMES}
        metrics["harness.self_s"] = {"value": out["self_s"]["harness"], "unit": "s"}
        metrics["harness.trace_overhead_s"] = {"value": out["trace_overhead_s"], "unit": "s"}
        for name in LAYER_COUNTS:
            metrics[name] = {"value": out["counts"].get(name, 0), "unit": "count"}
    else:
        metrics = {
            "wall_s": {"value": out["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "output_size": {"value": out["output_size"], "unit": "count"},
        }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({**out, "metrics": metrics}, indent=1), encoding="utf-8")
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rpcalc").is_dir():
        print(f"no rpcalc sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, args.trace)
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}), flush=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
