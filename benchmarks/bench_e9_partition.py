"""E9 — §6 scalability: the two-level √n-partition trade-off.

The paper: partitioning an n-node network into √n neighborhoods of √n
nodes each drops tolerance from ~n/2 to ~n/4 break-ins per unit, in
exchange for refresh traffic that is k independent small instances
instead of one giant one.

The tolerance columns are computed exactly from the partition
combinatorics; the message columns are *measured* by running a real ULS
instance of one neighborhood (and, where feasible, of the flat network).
With the message-volume layer in place, the flat network *is* feasible
at the first two table points — n = 16 and n = 25 are now real runs
(t = (n-1)/2 full-flood ULS instances), and only n ≥ 36 still comes
from the power-law fit; a source column says which is which.  Results
land in ``benchmarks/results/BENCH_E9.json`` and ``e9_partition.txt``;
``BENCH_SMOKE=1`` keeps only the n = 16 flat run real, prints the table
and writes only ``BENCH_E9_smoke.json``.
"""

import os

import pytest

from repro.scale.partition import PartitionPlan, flat_tolerance, simulate_cluster

from common import GROUP, SCHEME, build_uls_network, emit, emit_json, format_table, \
    table_data
from repro.analysis.metrics import message_stats

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

#: small flat networks measured directly (fit anchor points)
MEASURABLE_FLAT = (4, 5, 6, 7, 8, 9)
#: table-point flat networks measured for real rather than fitted
#: (n = 25 runs ~2 minutes at t = 12; smoke keeps just n = 16)
MEASURED_TABLE_FLAT = (16,) if SMOKE else (16, 25)


def measure_flat(n: int) -> float:
    t = (n - 1) // 2
    public, programs, runner, schedule = build_uls_network(n, t, seed=1)
    execution = runner.run(units=2)
    return message_stats(execution).per_refresh_phase


def fit_power_law(points: list[tuple[int, float]]):
    """Least-squares fit of cost = a * n^b in log space."""
    import math

    xs = [math.log(n) for n, _ in points]
    ys = [math.log(c) for _, c in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    intercept = mean_y - slope * mean_x
    return lambda n: math.exp(intercept) * n ** slope, slope


E9_HEADERS = ["n", "clusters", "sizes", "flat tolerance (~n/2)",
              "partitioned tolerance (~n/4)",
              "partitioned msgs/refresh (measured)", "flat msgs/refresh",
              "flat source", "traffic saving"]


@pytest.fixture(scope="module")
def table():
    anchor_points = [(n, measure_flat(n)) for n in MEASURABLE_FLAT]
    measured_flat = {n: measure_flat(n) for n in MEASURED_TABLE_FLAT}
    # the real table-point runs double as extra fit anchors, so the
    # extrapolation to n >= 36 rests on measurements up to n = 25
    flat_estimate, exponent = fit_power_law(anchor_points + sorted(measured_flat.items()))
    rows = []
    cluster_cost_cache: dict[int, float] = {}
    for n in (16, 25, 36, 64, 100):
        plan = PartitionPlan.sqrt_partition(n)
        sizes = sorted(set(len(c) for c in plan.clusters))
        for size in sizes:
            if size not in cluster_cost_cache:
                _, stats = simulate_cluster(GROUP, SCHEME, size=size, units=2, seed=1)
                cluster_cost_cache[size] = stats.per_refresh_phase
        partitioned_total = sum(
            cluster_cost_cache[len(c)] for c in plan.clusters
        )
        flat_cost = measured_flat.get(n, flat_estimate(n))
        rows.append((
            n,
            plan.cluster_count,
            "/".join(str(len(c)) for c in plan.clusters[:4]) + ("..." if plan.cluster_count > 4 else ""),
            flat_tolerance(n),
            plan.tolerance(),
            int(partitioned_total),
            int(flat_cost),
            "measured" if n in measured_flat else "fit",
            f"{flat_cost / partitioned_total:.1f}x",
        ))
        # the paper's headline: tolerance drops to roughly a quarter...
        assert plan.tolerance() < flat_tolerance(n)
        assert plan.tolerance() + 1 >= n / 8
        # ...and the traffic saving is real and grows with n
        assert flat_cost > partitioned_total
    anchors = f"n=4..9 + {','.join(str(n) for n in sorted(measured_flat))}"
    rows.append((f"(flat cost fit: ~n^{exponent:.1f}, anchors {anchors})",
                 "", "", "", "", "", "", "", ""))
    return rows


def test_e9_partition_tradeoff(table, benchmark):
    emit("e9_partition", format_table(
        "E9  Two-level partition (§6): tolerance ~n/2 -> ~n/4, refresh "
        "traffic = sum of small neighborhoods (measured)",
        E9_HEADERS,
        table,
    ), persist=not SMOKE)
    emit_json("BENCH_E9_smoke" if SMOKE else "BENCH_E9", {
        "experiment": "e9_partition",
        "config": {"group": "toy64", "units": 2, "smoke": SMOKE,
                   "measured_flat": list(MEASURED_TABLE_FLAT)},
        "partition_tradeoff": table_data(E9_HEADERS, table[:-1]),
        "fit_note": table[-1][0],
    })
    benchmark(lambda: simulate_cluster(GROUP, SCHEME, size=4, units=2, seed=2))
