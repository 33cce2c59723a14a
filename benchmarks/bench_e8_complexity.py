"""E8 — §6 "Relaxations for small t": O(n²) vs O(nt) message complexity.

DISPERSE (and with it PARTIAL-AGREEMENT and everything above) floods each
send to all ``n - 1`` nodes; the paper observes that flooding to a fixed
set of ``2t + 1`` relays preserves the agreement properties while cutting
per-node complexity from O(n²) to O(nt).

Every count here is exact: a benign refreshment phase sends
:func:`~repro.analysis.metrics.expected_msgs_per_refresh` envelopes, a
closed form of ``n``, the relay fanout ``f`` and the wire format, and
the message-complexity and volume sweeps assert it with no tolerance.

Three sweeps:

* **Message complexity** — the full ULS refresh at fixed ``t`` across
  growing ``n``: full flood and ``2t+1`` relays on the paper wire, and
  ``2t+1`` relays on the aggregated wire, per refreshment phase and per
  normal round.  The sparse/full ratio falls as ``n`` grows; a whole
  paper-wire refresh still costs Θ(n²t) envelopes per node, while the
  aggregated wire's ``(n − 1)(12f − 2)`` per node is asserted to grow
  linearly in ``n`` — §6's O(nt) for a whole refresh.

* **Refresh timing** — the same workload at n ∈ {13, 25, 37}: wall-clock
  and transcript digest of one run each.  n = 13 runs the full flood
  (the point ``BENCH_E14.json`` pins); n ≥ 25 uses the 2t+1 sparse relay
  — the paper's own prescription for that regime.

* **Message volume** — the same workload on the paper-literal refresh
  wire and on the aggregated one (``wire="aggregated"``: AUTH-SEND
  certifies one pack per node, destination and round, docs/PROTOCOLS.md
  §12).  The two formats send different envelopes, so the parity claim
  is outcome-level: the :func:`~repro.analysis.digest.outcome_digest`
  (node outputs, system log, adversary output) and the blame records
  (``RefreshService.rejected_dealers``) must be bit-identical, each
  wire's count must meet its closed form, and wall-clock must improve.

All three sweeps land in ``benchmarks/results/BENCH_E8.json`` and the
three text tables ``e8_*.txt``.  With ``BENCH_SMOKE=1`` the sweeps
shrink to CI size (timing and volume only at n = 25): the tables are
printed and the report goes to ``BENCH_E8_smoke.json``, leaving the
committed full-sweep results alone.
"""

import os
import time

import pytest

from repro.analysis.digest import outcome_digest
from repro.analysis.metrics import expected_msgs_per_refresh, message_stats

from common import build_uls_network, emit, emit_json, format_table, table_data, \
    transcript_digest

T = 2
UNITS = 2
SMOKE = bool(os.environ.get("BENCH_SMOKE"))

MESSAGE_NS = (6, 7) if SMOKE else (6, 7, 9, 11)
#: (n, relay_fanout) timing points; None = full flood
TIMING_POINTS = [(25, 2 * T + 1)] if SMOKE else \
    [(13, None), (25, 2 * T + 1), (37, 2 * T + 1)]
#: (n, relay_fanout) message-volume points; the sparse n = 25 point is
#: the regime §6 prescribes, the full-flood n = 13 point shows the
#: aggregated wire also wins when DISPERSE itself is dense
VOLUME_POINTS = [(25, 2 * T + 1)] if SMOKE else \
    [(13, None), (25, 2 * T + 1)]


def fanout_of(n: int, relay_fanout) -> int:
    """The relay fanout ``f`` of a point (``None`` = full flood)."""
    return n - 1 if relay_fanout is None else min(relay_fanout, n - 1)


def run_variant(n: int, relay_fanout, seed: int = 0, wire: str = "paper"):
    public, programs, runner, schedule = build_uls_network(
        n, T, seed, relay_fanout=relay_fanout, wire=wire
    )
    execution = runner.run(units=UNITS)
    for program in programs:
        assert program.keystore.history == [(1, "ok")], "refresh must succeed"
        assert program.state.share_is_valid()
    stats = message_stats(execution)
    return stats.per_refresh_phase, stats.per_normal_round


def run_timed(n: int, relay_fanout, seed: int = 0):
    """One full E8 execution (network build + run); returns
    ``(seconds, transcript digest)``."""
    start = time.perf_counter()
    public, programs, runner, schedule = build_uls_network(
        n, T, seed, relay_fanout=relay_fanout
    )
    execution = runner.run(units=UNITS)
    elapsed = time.perf_counter() - start
    for program in programs:
        assert program.keystore.history == [(1, "ok")], "refresh must succeed"
        assert program.state.share_is_valid()
    return elapsed, transcript_digest(execution)


def run_volume(n: int, relay_fanout, wire: str, seed: int = 0):
    """One full E8 execution on the given refresh wire format; returns
    ``(msgs/refresh, seconds, outcome digest, rejected dealers)``.

    Compact records are used so the per-channel traffic counters come from
    ``CompactRoundRecord.sent_by_channel``.
    """
    start = time.perf_counter()
    public, programs, runner, schedule = build_uls_network(
        n, T, seed, relay_fanout=relay_fanout, wire=wire, compact_records=True
    )
    execution = runner.run(units=UNITS)
    elapsed = time.perf_counter() - start
    for program in programs:
        assert program.keystore.history == [(1, "ok")], "refresh must succeed"
        assert program.state.share_is_valid()
    rejected = frozenset(
        (i, entry)
        for i, program in enumerate(programs)
        for entry in program.core.refresher.rejected_dealers
    )
    stats = message_stats(execution)
    return stats.per_refresh_phase, elapsed, outcome_digest(execution), rejected


@pytest.fixture(scope="module")
def table():
    rows = []
    fanout_2t1 = 2 * T + 1
    for n in MESSAGE_NS:
        full_refresh, full_normal = run_variant(n, None)
        sparse_refresh, sparse_normal = run_variant(n, fanout_2t1)
        agg_refresh, _ = run_variant(n, fanout_2t1, wire="aggregated")
        for msgs, relay_fanout, wire in ((full_refresh, None, "paper"),
                                         (sparse_refresh, fanout_2t1, "paper"),
                                         (agg_refresh, fanout_2t1, "aggregated")):
            expected = expected_msgs_per_refresh(n, fanout_of(n, relay_fanout), wire)
            assert msgs == expected, (n, relay_fanout, wire, msgs, expected)
        ratio = sparse_refresh / full_refresh
        rows.append((n, T, int(full_refresh), int(sparse_refresh),
                     f"{ratio:.2f}", int(agg_refresh), int(agg_refresh) // n,
                     int(full_normal), int(sparse_normal)))
        if n > fanout_2t1 + 1:
            assert sparse_refresh < full_refresh
    # the ratio must shrink with n (the whole point of the relaxation)
    ratios = [float(row[4]) for row in rows]
    assert ratios[-1] < ratios[0]
    # the aggregated wire's per-node count grows linearly in n at f = 2t+1
    slopes = {(b[6] - a[6]) / (b[0] - a[0]) for a, b in zip(rows, rows[1:])}
    assert slopes == {12 * fanout_2t1 - 2}, slopes
    return rows


@pytest.fixture(scope="module")
def timing_table():
    rows = []
    for n, fanout in TIMING_POINTS:
        seconds, digest = run_timed(n, fanout)
        rows.append((n, "full" if fanout is None else f"sparse-{fanout}",
                     round(seconds, 4), digest[:16]))
    return rows


@pytest.fixture(scope="module")
def volume_table():
    rows = []
    for n, relay_fanout in VOLUME_POINTS:
        paper_msgs, paper_s, paper_digest, paper_rejected = run_volume(
            n, relay_fanout, "paper")
        agg_msgs, agg_s, agg_digest, agg_rejected = run_volume(n, relay_fanout, "aggregated")
        assert agg_digest == paper_digest, f"outcome drift at n={n}"
        assert agg_rejected == paper_rejected, f"blame drift at n={n}"
        f = fanout_of(n, relay_fanout)
        assert paper_msgs == expected_msgs_per_refresh(n, f, "paper"), (n, paper_msgs)
        assert agg_msgs == expected_msgs_per_refresh(n, f, "aggregated"), (n, agg_msgs)
        assert agg_s < paper_s, (n, agg_s, paper_s)
        rows.append((n, "full" if relay_fanout is None else f"sparse-{relay_fanout}",
                     int(paper_msgs), int(agg_msgs), round(paper_msgs / agg_msgs, 2),
                     round(paper_s, 4), round(agg_s, 4), "yes"))
    return rows


MESSAGE_HEADERS = ["n", "t", "full msgs/refresh", "sparse msgs/refresh",
                   "sparse/full", "aggregated sparse msgs/refresh",
                   "aggregated sparse msgs/refresh/node", "full msgs/normal-round",
                   "sparse msgs/normal-round"]
TIMING_HEADERS = ["n", "flood", "s", "transcript digest"]
VOLUME_HEADERS = ["n", "flood", "paper msgs/refresh",
                  "aggregated msgs/refresh", "reduction", "paper s",
                  "aggregated s", "same outcomes"]


def test_e8_message_complexity(table, benchmark):
    emit("e8_complexity", format_table(
        "E8  Refresh message complexity: full flood vs 2t+1-relay DISPERSE, "
        f"and 2t+1 relays on the aggregated wire (O(nt) per node), t={T}",
        MESSAGE_HEADERS,
        table,
    ), persist=not SMOKE)
    benchmark(lambda: run_variant(6, 2 * T + 1, seed=1))


def test_e8_msg_volume(volume_table, benchmark):
    emit("e8_msg_volume", format_table(
        f"E8  Refresh message volume, paper vs aggregated wire (t={T}, "
        f"units={UNITS}; outcome digests and rejected_dealers bit-identical)",
        VOLUME_HEADERS,
        volume_table,
    ), persist=not SMOKE)
    benchmark(lambda: run_volume(6, 2 * T + 1, "aggregated", seed=1)[0])


def test_e8_refresh_timing(table, timing_table, volume_table, benchmark):
    emit("e8_refresh_timing", format_table(
        f"E8  Refresh wall-clock (t={T}, units={UNITS})",
        TIMING_HEADERS,
        timing_table,
    ), persist=not SMOKE)
    stem = "BENCH_E8_smoke" if SMOKE else "BENCH_E8"
    emit_json(stem, {
        "experiment": "e8_complexity",
        "config": {"group": "toy64", "t": T, "units": UNITS, "smoke": SMOKE},
        "message_complexity": table_data(MESSAGE_HEADERS, table),
        "refresh_timing": table_data(TIMING_HEADERS, timing_table),
        "msg_volume": table_data(VOLUME_HEADERS, volume_table),
    })
    benchmark(lambda: run_timed(6, 2 * T + 1, seed=1)[0])
