"""cshom benchmark: closed-loop workloads over the public ``cshom`` functions.

    python3 perfbench/run.py --workload homology --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one table

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics with no wrappers installed:
passes over the workload's inputs repeat until ``--seconds`` is used up,
each pass on its own seeded relabeling.  ``wall_s`` is one pass at each
op's median time over the run's passes.  The Kuratowski search and the lift
chain cost up to twice as much on one labeling of a graph as on another, so
a run spreads its passes over several labelings rather than repeating one.
``setup_s`` is the median of several cold set-ups, each in a fresh process.

``--trace 1`` gives the per-layer split: two untraced passes alternate with
two passes that have every traced function wrapped (see ``tracer.py``).
The run fails loudly if a function known to be called on the workload reads
zero calls, or if any exact count differs between the two traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_SAMPLES = 5
TRACED_PASSES = 2

UNITS = {"peak_rss_mb": "MB"}


def fail(message: str) -> NoReturn:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(1)


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    return "count"


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time from process start to ``ready`` over fresh set-ups;
    one untimed set-up first writes the bytecode caches."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            fail(f"set-up probe exited with {code}")
        if i:
            samples.append(elapsed)
    return statistics.median(samples)


def untraced_run(workloads, inputs, seed: int, seconds: float) -> list:
    """Passes until the next one would overrun ``seconds``; pass p > 0 runs
    on its own seeded inputs."""
    runner = workloads.Runner()
    passes = []
    start = time.perf_counter()
    while True:
        if passes:
            inputs = workloads.make_inputs(inputs.workload, seed, len(passes))
        passes.append(runner.run_pass(inputs))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            return passes


def op_medians(passes) -> list[float]:
    """Each op's median time over the passes (ops are listed in the same
    order in every pass)."""
    return [
        statistics.median(p.ops[i][2] for p in passes)
        for i in range(len(passes[0].ops))
    ]


def traced_run(workloads, tracer_mod, inputs) -> tuple[list, dict]:
    """TRACED_PASSES untraced and traced passes in turn, on the same inputs;
    per-layer metrics from the traced ones."""
    tracer = tracer_mod.Tracer()
    plain, traced_runner = workloads.Runner(), workloads.Runner(tracer)
    untraced, traced, layers = [], [], []
    for _ in range(TRACED_PASSES):
        untraced.append(plain.run_pass(inputs))
        tracer.reset()
        with tracer:
            traced.append(traced_runner.run_pass(inputs))
        missed = tracer_mod.missed_bindings(tracer.spans, inputs.workload)
        if missed:
            fail("zero calls to " + ", ".join(missed)
                 + f" on {inputs.workload}: a binding was not wrapped")
        layers.append(tracer_mod.layer_metrics(tracer.spans))
    write_span_summary(tracer.spans, inputs)

    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if tracer_mod.is_count(name):
            if len(set(values)) != 1:
                fail(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["slowest_op_s"] = max(op_medians(untraced))
    metrics["certify_s"] = statistics.median(p.seconds("certify") for p in untraced)
    metrics["check_s"] = statistics.median(p.seconds("check") for p in untraced)
    metrics["trace_overhead_s"] = (
        statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in untraced)
    )
    return untraced + traced, metrics


def write_span_summary(spans, inputs) -> None:
    """Calls, total and self seconds per (span, parent) of the last traced
    pass, next to the census scratch area."""
    table: dict = {}
    for s in spans:
        key = f"{s.parent.name if s.parent else '-'} > {s.name}"
        row = table.setdefault(key, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.duration
        row[2] += s.self_time
    out = HERE / ".work" / f"spans-{inputs.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in sorted(table.items())},
        indent=1,
    ) + "\n")


def run_one(args) -> dict:
    if not (SRC / "cshom" / "__init__.py").is_file():
        fail(f"no cshom package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}")
    if args.trace:
        inputs = workloads.setup(args.workload, args.seed)
        passes, metrics = traced_run(workloads, tracer_mod, inputs)
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        inputs = workloads.setup(args.workload, args.seed)
        passes = untraced_run(workloads, inputs, args.seed, args.seconds)
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(op_medians(passes)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, printed as one table."""
    results = {}
    for workload in ("homology", "certify", "census"):
        cmd = [sys.executable, __file__, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"workload {workload} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[workload] = result
        print(f"{workload}: correct={result['correct']} "
              f"ops={result['attempted']} failed_ops={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="homology, certify or census (default: all three)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload is None else run_one(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
