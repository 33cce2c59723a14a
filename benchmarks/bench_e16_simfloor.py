"""E16 — the simulation floor: rounds/sec and transcript digests.

E14 measured the *crypto* hot paths; the remaining ceiling is the
crypto-free simulation floor itself — envelope routing, per-round
transcript materialization, and ``disperse.on_round`` bookkeeping.  E16
measures that floor directly:

* **crypto-free floods** at n ∈ {5, 13, 25, 49}: every node runs a
  full-flood DISPERSE chatter (ring probes, one retransmission) under a
  passive adversary, so the run is pure routing + accounting with zero
  signature work.  The n = 49 point is the E8-style run: it uses the §6
  sparse relay (``relay_fanout = 2t+1``), the exact configuration E8
  prescribes for large n — a full ULS refresh at n = 49 is still
  crypto-bound for tens of minutes even sparse, which is why the floor
  benchmark isolates E8's n = 49 *message pattern* instead;
* **the E13 chaos workloads** (DISPERSE chatter and full ULS under
  seeded fault plans), run without E13's verdict and each point
  aggregating several seeds so the timing is not dominated by per-run
  noise;
* **a real E8 sparse-relay refresh at n = 13**, showing the floor in a
  crypto-bearing experiment.

Each point records wall-clock (best of ``REPEATS``), rounds/sec and a
transcript digest.  The digests are computed *outside* the timed region
and must not change across repeats; ``tests/test_golden_digests.py``
pins them to the committed per-point values of ``BENCH_E16.json``.  The
floor's speed is gated end to end by ``bench/`` (``rounds_per_s``).

Compact-record mode is covered separately: ``Runner(compact_records=True)``
keeps no per-round envelopes, but its observers still see every full
record, so a :class:`~repro.analysis.digest.RoundsDigest` observer
attached to each run carries the parity claim — the compact run's
digest must equal the full run's.

Sweep points fan out across worker processes (``--jobs N``); stripping
the ``timing`` section must yield byte-identical reports for any
``--jobs`` value, which ``test_e16_jobs_do_not_change_results`` checks.

Regenerate the committed report with::

    PYTHONPATH=src python benchmarks/bench_e16_simfloor.py --jobs 4

``BENCH_SMOKE=1`` shrinks the sweep to two of its points and the
compact check to n = 5 (report goes to ``BENCH_E16_smoke.json``; the
committed full-sweep ``BENCH_E16.json`` is left alone).
"""

import argparse
import hashlib
import os
import pathlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

if __name__ == "__main__":  # script mode: make src/ importable without PYTHONPATH
    _src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.analysis.digest import RoundsDigest
from repro.core.disperse import DisperseService
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Schedule
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ULRunner

from common import build_uls_network, emit_json, format_table, transcript_digest
from bench_e13_chaos import UNITS as CHAOS_UNITS, disperse_chaos, uls_chaos

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

FLOOD_T = 2
FLOOD_SCHED = Schedule(setup_rounds=2, refresh_rounds=2, normal_rounds=20)
FLOOD_UNITS = 3
SPARSE_N = 49  # full flood is Θ(n²) per probe; at n=49 use the §6 sparse relay

E8_T = 2
E8_N = 13  # a real refresh at n=49 runs for tens of minutes even sparse
E8_UNITS = 2  # refresh runs at unit boundaries: units=2 is one real refresh

CHAOS_SEEDS = {"disperse": range(0, 8), "uls": range(100, 104)}

FULL_POINTS = (
    [("flood", n) for n in (5, 13, 25, 49)]
    + [("chaos", "disperse"), ("chaos", "uls"), ("e8", E8_N)]
)
SMOKE_POINTS = [("flood", 5), ("chaos", "disperse")]

COMPACT_N = 5 if SMOKE else 13

REPEATS = 2  # best-of-2: a scheduler hiccup cannot fake a slow floor


def sweep_points():
    return SMOKE_POINTS if SMOKE else FULL_POINTS


def point_id(point) -> str:
    kind, param = point
    return f"{kind}-n{param}" if isinstance(param, int) else f"{kind}-{param}"


# ------------------------------------------------------------ workloads

class FloodChatter(NodeProgram):
    """Ring-probe DISPERSE chatter — the crypto-free floor workload.

    Identical in shape to E13's ``ChaosChatter`` but parameterized by
    relay fanout so the n = 49 point can run the §6 sparse relay."""

    def __init__(self, relay_fanout: int | None = None) -> None:
        super().__init__()
        self.disperse = DisperseService(relay_fanout=relay_fanout, retransmit=1)
        self.delivered: list = []

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self.disperse.on_round(ctx, inbox)
        self.delivered.extend(self.disperse.receipts(""))
        if ctx.info.phase.value == "normal":
            target = (self.node_id + 1) % ctx.n
            self.disperse.send(ctx, target, ("probe", self.node_id, ctx.info.round))


def _flood_runner(n: int, *, observers=None, compact_records: bool = False):
    relay_fanout = 2 * FLOOD_T + 1 if n >= SPARSE_N else None
    programs = [FloodChatter(relay_fanout) for _ in range(n)]
    return ULRunner(programs, PassiveAdversary(), FLOOD_SCHED, s=FLOOD_T, seed=n,
                    observers=observers, compact_records=compact_records)


def run_flood(n: int, *, observers=None, compact_records: bool = False):
    runner = _flood_runner(n, observers=observers, compact_records=compact_records)
    return runner.run(units=FLOOD_UNITS)


def point_runs(point):
    """One sweep point → list of ``(runner, units)`` (chaos points
    aggregate several seeds so per-run noise does not dominate the
    timing)."""
    kind, param = point
    if kind == "flood":
        return [(_flood_runner(param), FLOOD_UNITS)]
    if kind == "chaos":
        chaos = {"disperse": disperse_chaos, "uls": uls_chaos}[param]
        return [(chaos(seed), CHAOS_UNITS) for seed in CHAOS_SEEDS[param]]
    if kind == "e8":
        runner = build_uls_network(param, E8_T, seed=0, relay_fanout=2 * E8_T + 1)[2]
        return [(runner, E8_UNITS)]
    raise ValueError(f"unknown sweep point kind {kind!r}")


def run_point(point):
    """One sweep point → list of executions."""
    return [runner.run(units=units) for runner, units in point_runs(point)]


def combined_digest(executions) -> str:
    digests = "|".join(transcript_digest(execution) for execution in executions)
    return hashlib.sha256(digests.encode("ascii")).hexdigest()


# ----------------------------------------------------------- measurement

def measure_point(point):
    """Run one sweep point ``REPEATS`` times; return the best wall-clock,
    rounds/sec and the transcript digest (which must not change between
    repeats).  Only the simulation is inside the timed region."""
    best = None
    digest = None
    rounds = 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        executions = run_point(point)
        elapsed = time.perf_counter() - start
        rounds = sum(len(execution.records) for execution in executions)
        this_digest = combined_digest(executions)
        if digest is not None and digest != this_digest:
            raise AssertionError(f"{point_id(point)}: repeat changed the transcript")
        digest = this_digest
        best = elapsed if best is None else min(best, elapsed)
    return {"point": point_id(point), "seconds": best, "rounds": rounds,
            "rounds_per_s": rounds / best if best else 0.0, "digest": digest}


def measure_compact(n: int = COMPACT_N):
    """Compact-record mode vs full records, each with a live
    :class:`RoundsDigest`: the digests must match (docs/PROTOCOLS.md §12)
    and the compact run records its own timing."""
    out = {"n": n}
    for mode, compact in (("full", False), ("compact", True)):
        digest = RoundsDigest()
        start = time.perf_counter()
        run_flood(n, observers=[digest], compact_records=compact)
        out[mode] = {
            "seconds": time.perf_counter() - start,
            "rounds_digest": digest.hexdigest(),
        }
    out["digest_match"] = out["full"]["rounds_digest"] == out["compact"]["rounds_digest"]
    return out


def run_sweep(points, jobs: int):
    if jobs <= 1:
        return [measure_point(point) for point in points]
    with ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("fork")) as pool:
        return list(pool.map(measure_point, points, chunksize=1))


def build_report(measurements, compact, jobs: int) -> dict:
    return {
        "experiment": "e16_simfloor",
        "description": "simulation floor: rounds/sec and transcript digests on "
                       "crypto-free floods (n in {5,13,25,49}), the E13 chaos "
                       "points, and a sparse-relay E8 refresh; the n=49 flood "
                       "runs E8's large-n sparse-relay config; compact records "
                       "must keep rounds-digest parity",
        "config": {
            "group": "toy64",
            "smoke": SMOKE,
            "repeats": REPEATS,
            "flood": {"schedule": [FLOOD_SCHED.setup_rounds,
                                   FLOOD_SCHED.refresh_rounds,
                                   FLOOD_SCHED.normal_rounds],
                      "units": FLOOD_UNITS, "t": FLOOD_T,
                      "sparse_relay_from_n": SPARSE_N,
                      "relay_fanout_sparse": 2 * FLOOD_T + 1,
                      "e8_style_point": f"flood-n{SPARSE_N}"},
            "chaos_seeds": {kind: list(seeds) for kind, seeds in CHAOS_SEEDS.items()},
            "e8": {"n": E8_N, "t": E8_T, "units": E8_UNITS,
                   "relay_fanout": 2 * E8_T + 1},
            "points": [point_id(p) for p in sweep_points()],
        },
        "results": {m["point"]: {"digest": m["digest"], "rounds": m["rounds"]}
                    for m in measurements},
        "compact_records": {
            "n": compact["n"],
            "digest_match": compact["digest_match"],
            "rounds_digest": compact["full"]["rounds_digest"],
        },
        "timing": {
            "jobs": jobs,
            "points": {m["point"]: {"seconds": round(m["seconds"], 4),
                                    "rounds_per_s": round(m["rounds_per_s"], 1)}
                       for m in measurements},
            "compact": {
                "full_s": round(compact["full"]["seconds"], 4),
                "compact_s": round(compact["compact"]["seconds"], 4),
            },
            "total_s": round(sum(m["seconds"] for m in measurements), 4),
        },
    }


def canonical_payload(report: dict) -> dict:
    """The deterministic part of a report (identical for any --jobs)."""
    return {key: value for key, value in report.items() if key != "timing"}


def report_table(report: dict) -> str:
    timing = report["timing"]
    rows = [
        (pid, report["results"][pid]["rounds"], point["seconds"],
         point["rounds_per_s"], report["results"][pid]["digest"][:16])
        for pid, point in sorted(timing["points"].items())
    ]
    rows.append(("TOTAL", "", timing["total_s"], "", ""))
    return format_table(
        "E16  simulation floor: wall-clock, rounds/sec and transcript digests",
        ["point", "rounds", "s", "rds/s", "digest"],
        rows,
    )


# ---------------------------------------------------------------- pytest

def test_e16_simfloor_and_compact_parity(benchmark):
    """Every point's transcript is stable across repeats, and compact
    records keep rounds-digest parity with full records."""
    measurements = run_sweep(sweep_points(), jobs=1)
    compact = measure_compact()
    report = build_report(measurements, compact, jobs=1)
    assert report["compact_records"]["digest_match"], report
    stem = "BENCH_E16_smoke" if SMOKE else "BENCH_E16"
    emit_json(stem, report)
    print("\n" + report_table(report) + "\n")
    benchmark(lambda: run_flood(5))


def test_e16_jobs_do_not_change_results():
    """The parallel harness is a pure fan-out: stripping the timing
    section, --jobs 1 and --jobs 2 reports are identical."""
    points = SMOKE_POINTS
    compact = measure_compact()
    serial = build_report(run_sweep(points, jobs=1), compact, jobs=1)
    parallel = build_report(run_sweep(points, jobs=2), compact, jobs=2)
    assert canonical_payload(serial) == canonical_payload(parallel)


# ---------------------------------------------------------------- script

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes for the sweep (default: all cores)")
    args = parser.parse_args(argv)
    measurements = run_sweep(sweep_points(), jobs=args.jobs)
    compact = measure_compact()
    report = build_report(measurements, compact, jobs=args.jobs)
    stem = "BENCH_E16_smoke" if SMOKE else "BENCH_E16"
    path = emit_json(stem, report)
    print(report_table(report))
    print(f"\nwrote {path}")
    if not report["compact_records"]["digest_match"]:
        print("COMPACT-RECORDS DIGEST MISMATCH", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
