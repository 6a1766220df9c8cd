"""Benchmark of the roundsurgery package: search, homology and cli workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One process runs one workload in one thread: set-up (import, generate, write
and parse the inputs), then whole passes over the workload's fixed op set
until ``--seconds`` of operation time has been measured, each operation
starting when the previous one ends.  Every output is checked after its
pass.  Set-up is also timed in fresh processes, one after another, from
their start to the end of their set-up.  ``--trace 0`` reports the
end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead instead.  ``--workload all`` runs
the three workloads one after another, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

SETUP_RUNS = 9
OUT_DIR = Path(".perfbench_out")


def run_pass(ops, tracer=None):
    """Run every op once, in order; return [(latency_s, output or exception)]."""
    results = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(index)
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a crash is a failed operation, not a failed run
            out = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        results.append((t1 - t0, out))
    return results


def failures(ops, results) -> list[tuple[str, str]]:
    """(op name, reason) for every output that fails its check."""
    bad = []
    for op, (_latency, out) in zip(ops, results):
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {str(out)[:120]}"
        else:
            reason = op.check(out)
        if reason is not None:
            bad.append((op.name, reason))
    return bad


def timed_pass(ops, tracer=None):
    gc.collect()
    t0 = time.perf_counter()
    results = run_pass(ops, tracer)
    return time.perf_counter() - t0, results


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def setup(args, root: Path, workdir: Path):
    """Import the package, then generate, write, read and parse the inputs;
    return (pkg, ops, probes)."""
    pkg = workloads.load_package(root / "src")
    ops, probes = workloads.build(args.workload, args.seed, pkg, workdir)
    return pkg, ops, probes


def setup_only(args, root: Path) -> int:
    """Set up, print one line to say so, then clean up and exit."""
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        setup(args, root, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def time_setups(args) -> list[float]:
    """SETUP_RUNS times, one after another: the wall time from starting a
    fresh interpreter on this file to its report that set-up is done."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
        if ready != "ready\n" or child.returncode != 0:
            raise RuntimeError(f"set-up in a fresh process failed with exit {child.returncode}")
    return times


def measure(args, ops):
    """Untraced passes until args.seconds of operation time.  Returns each
    op's fastest latency over the passes, all failures, the timed seconds
    and the number of passes.  The fastest repetition is what stays steady
    on a shared machine, whose speed drifts by tens of percent for seconds
    at a time."""
    best, bad, timed, passes = [math.inf] * len(ops), [], 0.0, 0
    while passes == 0 or timed < args.seconds:
        wall, results = timed_pass(ops)
        best = [min(b, latency) for b, (latency, _) in zip(best, results)]
        bad += failures(ops, results)
        timed += wall
        passes += 1
    return best, bad, timed, passes


def measure_traced(args, ops, pkg):
    """Pairs of one untraced and one traced pass until args.seconds."""
    tracer = tracing.Tracer()
    bad, plain, traced, passes = [], 0.0, 0.0, 0
    while passes == 0 or plain + traced < args.seconds:
        wall, results = timed_pass(ops)
        plain += wall
        bad += failures(ops, results)
        with tracer.installed(pkg):
            wall, results = timed_pass(ops, tracer)
        traced += wall
        bad += failures(ops, results)
        passes += 1
    return tracer, bad, plain, traced, passes


def line(label: str, value, unit: str, note: str) -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {label:32s} {shown:>14s} {unit:6s} {note}"


def run_one(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "roundsurgery" / "__init__.py").is_file():
        print(f"error: no src/roundsurgery under {root}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args, root)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        pkg, ops, probes = setup(args, root, workdir)
        if args.trace:
            tracer, bad, plain, traced, passes = measure_traced(args, ops, pkg)
            attempted = 2 * passes * len(ops)
        else:
            setup_times = time_setups(args)
            best, bad, timed, passes = measure(args, ops)
            attempted = passes * len(ops)
        probe_results = run_pass(probes)
        probe_bad = dict(failures(probes, probe_results))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(bad)
    failing_ops = len({name for name, _reason in bad})
    mode = "traced" if args.trace else "untraced"
    report = [f"workload {args.workload}  seed {args.seed}  {mode}  passes {passes}  ops per pass {len(ops)}"]
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}")
        per_layer = tracer.layer_metrics(passes, traced / plain)
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
        for name, unit in tracing.LAYER_METRICS:
            report.append(line(name, float(per_layer[name]), unit, f"(per pass, {passes} traced pass(es))"))
        report.append(line("trace.untraced_s", plain, "s", f"(overhead ratio = {traced:.4g} s / {plain:.4g} s)"))
        report.append(f"  spans: {len(tracer.name)} in {OUT_DIR / ('trace-' + args.workload)}.spans")
        if tracer.missing:
            report.append(f"  trace targets not found: {', '.join(tracer.missing)}")
    else:
        per = f"{len(ops)} ops, each its fastest of {passes} passes; n={attempted}"
        metrics = {
            "setup_s": (statistics.median(setup_times), "s", f"(median of {len(setup_times)} fresh processes, "
                        f"from start to the end of set-up; n={len(setup_times)})"),
            "ops_per_s": ((attempted - failed) / attempted * len(ops) / sum(best), "1/s",
                          f"(best case: {per}, {attempted - failed} correct; "
                          f"over the {timed:.4g} s of all passes {(attempted - failed) / timed:.4g}/s)"),
            "op_p50_s": (statistics.median(best), "s", f"({per})"),
            "op_p90_s": (percentile(best, 90), "s", f"({per}; {len(ops) // 10} beyond)"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "(n=1, ru_maxrss)"),
        }
        for name, (value, unit, note) in metrics.items():
            report.append(line(name, value, unit, note))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _note) in metrics.items()}
    report.append(line("fail_ratio", (failing_ops + len(probe_bad)) / (len(ops) + len(probes)), "ratio",
                       f"({failing_ops + len(probe_bad)} of {len(ops) + len(probes)} operations fail: "
                       f"timed set {failing_ops} of {len(ops)}, {failed} of {attempted} runs; "
                       f"known-defect probes {len(probe_bad)} of {len(probes)})"))
    report.append("  wait_s                           not applicable: one thread, no queues")
    for op in probes:
        status = f"FAIL ({probe_bad[op.name]})" if op.name in probe_bad else "pass"
        report.append(f"  known-defect probe {op.name}: {status}")
    for name, reason in sorted(set(bad))[:20]:
        report.append(f"  FAILED {name}: {reason}")
    print("\n".join(report))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
