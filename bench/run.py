#!/usr/bin/env python3
"""The end-to-end benchmark of the signing service, authenticated links
and refresh.  Run from the repository root:

    python3 bench/run.py                      # every workload, 5 runs each
    python3 bench/run.py --trace              # one traced run per workload
    python3 bench/run.py --workload sign-n7 --seed 0 --seconds 30 --trace 0

Without ``--workload`` each run of each workload is a fresh subprocess of
this script; the end-to-end metrics (or, with ``--trace``, the per-layer
metrics) are printed by name with their unit and written as JSON to
``--out``.  With ``--workload`` one run happens in this process and the
last line printed is its result as one JSON object.  Metric names, units
and bounds are those of ``BENCHMARK.json``; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
#: settings that would make the benchmark measure a non-default program
REFUSED_ENV = ("REPRO_PERF", "REPRO_MSG_VOLUME")
CONTEXT_PREFIX = "context "


def calibrate(loops: int = 3) -> float:
    """Seconds of a fixed pure-Python loop (best of ``loops``), recorded
    with every run so drift of the machine between sets can be told apart
    from a change in the program."""
    best = math.inf
    for _ in range(loops):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def peak_rss_mb() -> float:
    """The largest resident set of any episode process so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def machine_context() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count()}


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    """One run of one workload in this process; prints its result last."""
    import workloads

    context = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
               **machine_context(), "calibration_s": calibrate()}
    workload = workloads.WORKLOADS[name]
    run = workloads.measure(workload, seed, seconds)
    episodes = list(run.episodes)
    context.update(run.context())
    if trace:
        import tracer as layer_trace

        traced, trace_data = workloads.traced_episode(workload, seed)
        episodes.append(traced)
        metrics = layer_trace.layer_metrics(
            trace_data, traced,
            untraced_round_s=[s for e in run.episodes for s in e.round_s],
            untraced_wall_s=statistics.median(sum(e.round_s) for e in run.episodes),
        )
        context["trace"] = {"coverage": trace_data["coverage"], "spans": trace_data["tree"]}
        problems = [f"wrapper {w} never fired" for w in trace_data["silent"]]
        if abs(trace_data["coverage"] - 1.0) > 0.05:
            problems.append(f"spans cover {trace_data['coverage']:.3f} "
                            "of the traced wall time")
        if problems:
            for problem in problems:
                print(f"trace of {name}: {problem}", file=sys.stderr)
            return 1
        declared = spec["per_layer"]
    else:
        metrics = run.end_to_end(peak_rss_mb())
        declared = spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")

    violations = [v for e in episodes for v in e.violations]
    for violation in violations:
        print(f"{name}: correctness violation: {violation}", file=sys.stderr)
    samples = context["samples"]["latency_ms"]
    for metric in declared:
        metric_name = metric["name"]
        note = f"  (n={samples})" if metric_name.startswith("latency_ms") else ""
        print(f"{name:12s} {metric_name:36s} {metrics[metric_name]:>14.6g} "
              f"{metric['unit']}{note}")
    tail = context["latency_tail"]
    if tail["percentile"] is not None:
        label = f"latency p{tail['percentile']:g} (pooled)"
        print(f"{name:12s} {label:36s} {tail['ms']:>14.6g} ms  (n={samples}, context)")
    result = {
        "correct": not violations,
        "attempted": sum(e.attempted for e in episodes),
        "failed": sum(e.failed for e in episodes),
        "metrics": {metric_name: {"value": metrics[metric_name], "unit": unit}
                    for metric_name, unit in units.items()},
    }
    print(CONTEXT_PREFIX + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Run-to-run spread: the distance between the quartiles over the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    summary = {}
    for metric in declared:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        summary[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1,
                                   "q3": q3, "spread": spread(values), "runs": len(values)}
    return summary


def run_suite(spec: dict, args: argparse.Namespace) -> int:
    """Every workload, each run a fresh subprocess, runs interleaved."""
    names = [workload["name"] for workload in spec["workloads"]]
    # five: the quartiles of a set then leave out half of each extreme run
    repeat = 1 if args.trace else 5
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    failures = 0
    for index in range(repeat):
        for name in names:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
            start = time.perf_counter()
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT, timeout=900)
            lines = proc.stdout.splitlines()
            print(f"{name} run {index + 1}/{repeat}: exit {proc.returncode}, "
                  f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
            if proc.returncode != 0 or not lines:
                failures += 1
                continue
            result = json.loads(lines[-1])
            context = next(json.loads(line[len(CONTEXT_PREFIX):]) for line in lines
                           if line.startswith(CONTEXT_PREFIX))
            runs[name].append({**result, "context": context})

    report = {
        "trace": int(args.trace), "seed": args.seed, "seconds": args.seconds,
        "repeat": repeat, "started": datetime.now(timezone.utc).isoformat(),
        "context": machine_context(),
        "workloads": {name: {"summary": summarize(runs[name], declared),
                             "runs": runs[name]} for name in names},
    }
    for name in names:
        for metric_name, row in report["workloads"][name]["summary"].items():
            print(f"{name:12s} {metric_name:36s} {row['median']:>14.6g} "
                  f"{row['unit']:8s} spread {row['spread']:.3f} over {row['runs']} runs")
    out = Path(args.out) if args.out else BENCH / "results" / (
        "last-trace.json" if args.trace else "last.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report the per-layer metrics")
    parser.add_argument("--out", help="JSON report without --workload "
                        "(default bench/results/last.json)")
    args = parser.parse_args(argv)

    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: the benchmark "
              "measures the default program", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"no package source under {SRC} or no {SPEC_PATH.name}: run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_suite(spec, args)
    if args.workload not in {workload["name"] for workload in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(SRC))
    return run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
