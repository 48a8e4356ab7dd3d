"""One workload in one process: set up, warm up, timed passes, checks.

Run by run.py, one fresh process per workload:

    python3 perfbench/harness.py --workload pk_proofs --seed 1 --seconds 18 --trace 0

It prints one JSON object as its last line.  `--setup-only` stops after
input preparation, so that run.py can time set-up several times.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

# Every pass is timed whole; a run makes at least this many timed passes,
# and more while its time lasts.
MIN_PASSES = 2
# A traced run makes at least this many untraced and as many traced passes.
MIN_TRACE_PASSES = 2


class Tracer:
    """Spans around the benchmark's calls into the library.

    A span is (name, start, end, parent, item, pass); the root span of
    each item is named "harness".  Spans stay in memory until the run
    ends.  When disabled, `call` is a plain call.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1
        self.pass_no = -1

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.item, self.pass_no])

    def close(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        self.open(name)
        try:
            return fn(*args)
        finally:
            self.close()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per traced pass, each layer's self time: its span time minus the
        time its child spans cover."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[int, dict[str, float]] = {}
        for (name, *_, pass_no), value in zip(self.spans, own):
            layer = out.setdefault(pass_no, {})
            layer[name] = layer.get(name, 0.0) + value
        return out

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "item", "pass")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]), encoding="utf-8")


def run_pass(workload, items, tracer: Tracer):
    """One pass over the item list.  An item that raises yields an
    ("error", message) output and no detail."""
    outputs, details = [], []
    for i, item in enumerate(items):
        tracer.item = i
        if tracer.enabled:
            tracer.open("harness")
        try:
            output, detail = workload.run(item, tracer.call)
        except Exception as exc:  # an item failure is reported, not fatal
            output, detail = ("error", f"{type(exc).__name__}: {exc}"), None
        finally:
            if tracer.enabled:
                tracer.close()
        outputs.append(output)
        details.append(detail)
    return outputs, details


def timed_pass(workload, items, tracer: Tracer):
    gc.collect()
    start = time.perf_counter()
    outputs, _ = run_pass(workload, items, tracer)
    return time.perf_counter() - start, outputs


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    items = workload.setup(args.seed)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    tracer = Tracer()
    reference, details = run_pass(workload, items, tracer)  # warm-up, untimed
    problems = {i: [out[1]] for i, out in enumerate(reference) if out[:1] == ("error",)}
    good = [i for i in range(len(items)) if i not in problems]
    found = workload.check(
        [items[i] for i in good], [reference[i] for i in good], [details[i] for i in good]
    )
    for j, messages in found.items():
        problems[good[j]] = messages
    output_size = workload.output_size([reference[i] for i in good])
    counts = workload.counts([items[i] for i in good], [reference[i] for i in good],
                             [details[i] for i in good])
    del details
    # The inputs and the checked pass's outputs stay alive for the whole
    # run.  Frozen, they are not re-scanned by every full collection in the
    # timed passes, which would add the benchmark's bookkeeping to the
    # program's time (about 10% of a pk_proofs pass).
    gc.collect()
    gc.freeze()

    failed, mismatches, passes = len(problems), 0, 1
    walls: list[float] = []
    traced_walls: list[float] = []
    # A traced run alternates an untraced and a traced pass.
    modes = (False, True) if args.trace else (False,)
    min_rounds = MIN_TRACE_PASSES if args.trace else MIN_PASSES
    begin = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() - begin < args.seconds:
        for traced in modes:
            tracer.enabled, tracer.pass_no = traced, passes
            wall, outputs = timed_pass(workload, items, tracer)
            (traced_walls if traced else walls).append(wall)
            passes += 1
            # Every pass must hand back exactly what the checked pass did.
            differ = sum(1 for i, out in enumerate(outputs) if i not in problems and out != reference[i])
            mismatches += differ
            failed += len(problems) + differ
            del outputs  # so that the next pass does not run beside this one's outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for i, messages in sorted(problems.items()):
        print(f"item {i} failed: {'; '.join(messages)}", file=sys.stderr)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_end": setup_end,
        "items": len(items),
        "passes": passes,
        "attempted": len(items) * passes,
        "failed": failed,
        "correct": not problems and not mismatches,
        "walls": walls,
        # The mean, not the median: the host's speed switches between modes
        # that last tens of seconds, and a median snaps to whichever mode
        # holds most of a run's passes (see README.md, Steadiness).
        "wall_s": statistics.fmean(walls),
        "peak_rss_mb": peak_rss_mb,
        "output_size": output_size,
        "counts": counts,
    }
    if args.trace:
        per_pass = tracer.self_times()
        layers = sorted({name for times in per_pass.values() for name in times})
        result["traced_walls"] = traced_walls
        result["self_s"] = {
            name: statistics.median(times.get(name, 0.0) for times in per_pass.values())
            for name in layers
        }
        result["trace_overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(walls)
        tracer.dump(HERE / "results" / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
