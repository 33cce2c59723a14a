"""Tests of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import tracer as layer_trace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_tail_percentile_needs_ten_samples_beyond():
    assert workloads.tail_percentile(19) is None
    assert workloads.tail_percentile(20) == 50.0
    assert workloads.tail_percentile(99) == 50.0
    assert workloads.tail_percentile(100) == 90.0
    assert workloads.tail_percentile(200) == 95.0
    assert workloads.tail_percentile(1000) == 99.0
    assert workloads.tail_percentile(10_000) == 99.9


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert workloads.percentile(values, 0) == 1.0
    assert workloads.percentile(values, 50) == 2.5
    assert workloads.percentile(values, 100) == 4.0
    with pytest.raises(ValueError):
        workloads.percentile([], 50)


def test_round_clock_times_requests_from_the_start_of_their_round():
    # a round ends and, after a probe that takes no time, the next one
    # starts; the host runs at the reference speed
    ticks = iter([10.0, 11.0, 11.0, 13.0, 13.0, 16.0, 16.0])
    clock = workloads.RoundClock(now=lambda: next(ticks),
                                 probe=lambda: workloads.PROBE_REFERENCE_S)
    clock.start()
    for _ in range(3):
        clock.on_round(None, None)
    assert clock.durations() == [1.0, 2.0, 3.0]
    # due in round 0, answered in round 2: the whole of rounds 0..2;
    # due and answered in round 1: round 1 only
    assert workloads.latencies_ms([1.0, 2.0, 3.0], [(0, 2), (1, 1)]) == [6000.0, 2000.0]


def test_rounds_are_rescaled_by_the_probes_around_them():
    reference = workloads.PROBE_REFERENCE_S
    # the host runs at half speed for the last rounds: probes take twice
    # as long, and so does every round's work
    probes = iter([reference] * 6 + [2 * reference] * 10)
    now = FakeClock()

    def probe():
        duration = next(probes)
        now.now += duration
        return duration

    clock = workloads.RoundClock(now=now, probe=probe)
    clock.start()
    for speed in [1.0] * 5 + [2.0] * 10:
        now.now += 0.5 * speed
        clock.on_round(None, None)
    assert len(clock.probes) == 16
    assert clock.measured == pytest.approx([0.5] * 5 + [1.0] * 10)
    durations = clock.durations()
    # each round sees PROBE_WINDOW probes on each side of it: far from the
    # switch every round reads its time on the reference host
    assert durations[:2] == pytest.approx([0.5, 0.5])
    assert durations[-5:] == pytest.approx([0.5] * 5)
    assert workloads.rescaled(0.003, [reference, 3 * reference]) == pytest.approx(0.0015)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_time_minus_enclosed_spans():
    clock = FakeClock()
    tracer = layer_trace.Tracer("w", setup=lambda t: None, clock=clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tracer.span("leaf", leaf)

    def middle():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    traced_middle = tracer.span("middle", middle)

    def root():
        clock.now += 3.0
        traced_middle()

    tracer.span("root", root)()
    assert tracer.spans["leaf"] == [2, 4.0, 4.0]
    assert tracer.spans["middle"] == [1, 5.5, 1.5]
    assert tracer.spans["root"] == [1, 8.5, 3.0]
    assert layer_trace.coverage(tracer.spans, 8.5) == 1.0
    assert tracer.tree()["leaf"]["parents"] == {"middle": 4.0}


def test_tracer_patches_every_module_alias_and_restores_them():
    core = sys.modules["repro.core"]
    certify_module = sys.modules["repro.core.certify"]
    auth_send = sys.modules["repro.core.auth_send"]
    original = certify_module.certify
    # the package re-exports the function under the submodule's name
    assert core.certify is original and auth_send.certify is original

    def setup(tracer):
        tracer.patch_function("repro.core.certify", "certify",
                              lambda fn: tracer.counter("certify", fn))

    tracer = layer_trace.Tracer("w", setup=setup)
    tracer.install()
    try:
        for module in (core, certify_module, auth_send):
            assert module.certify is not original
    finally:
        tracer.uninstall()
    for module in (core, certify_module, auth_send):
        assert module.certify is original


def test_method_patch_is_restored():
    from repro.core.disperse import DisperseService

    original = DisperseService.__dict__["on_round"]
    tracer = layer_trace.Tracer("w", setup=layer_trace.install_layers)
    tracer.install()
    assert DisperseService.__dict__["on_round"] is not original
    tracer.uninstall()
    assert DisperseService.__dict__["on_round"] is original


def test_benchmark_names_are_valid():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def tiny_runs():
    return {
        name: workloads.measure(workload, seed=3, seconds=0.0, tiny=True)
        for name, workload in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_passes_the_gate(tiny_runs, name):
    run_ = tiny_runs[name]
    assert [v for e in run_.episodes for v in e.violations] == []
    assert len(run_.setups_s) == workloads.MIN_SETUPS
    episode = run_.episodes[0]
    assert episode.attempted > 0 and episode.failed == 0
    metrics = run_.end_to_end(peak_rss_mb=1.0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in metrics.values()), metrics
    # same seed, same inputs, same outcomes, in this process as in a fresh one
    seed = workloads.episode_seed(name, 3, 0)
    again = workloads.run_episode(workloads.WORKLOADS[name].tiny, seed)
    assert again.digest == episode.digest


def test_refresh_workload_takes_the_sparse_relay():
    sparse = workloads.WORKLOADS["refresh-n13-sparse"].tiny
    assert sparse.relay_fanout < sparse.n - 1
    flood = dataclasses.replace(sparse, relay_fanout=None)
    sent = [workloads.run_episode(params, seed=2).refresh_msgs for params in (sparse, flood)]
    assert sent[0][0] < sent[1][0]


def test_gate_catches_a_corrupted_share():
    params = workloads.WORKLOADS["sign-n7"].tiny
    episode = workloads.build_episode(params, seed=5)
    execution = episode.runner.run(params.units)
    assert workloads.check_outputs(episode, execution) == []
    state = episode.programs[1].core.state
    state.share = type(state.share)(x=state.share.x, value=state.share.value + 1)
    assert workloads.check_outputs(episode, execution) == ["node 1: invalid share"]


def test_traced_tiny_episode_reports_every_layer_metric():
    workload = workloads.WORKLOADS["chaos-n7"]
    untraced = workloads.run_episode(workload.tiny, seed=1)
    traced, trace = workloads.traced_episode(workload, 1, tiny=True)
    assert traced.violations == [] and trace["silent"] == []
    metrics = layer_trace.layer_metrics(trace, traced, untraced.round_s,
                                        sum(untraced.round_s))
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert abs(trace["coverage"] - 1.0) < 0.05
    assert metrics["faults.injected"] > 0 and metrics["auth_send.sends.rf"] > 0


def test_compare_marks_rows_by_bound_and_spread():
    bounds = {"lat": {"better": "lower", "bound": 0.1},
              "rate": {"better": "higher", "bound": 0.1}}
    assert compare.verdict([100, 101, 102], [100, 100, 101], bounds["lat"]) == "same"
    assert compare.verdict([100, 101, 102], [120, 121, 122], bounds["lat"]) == "worse"
    assert compare.verdict([100, 101, 102], [80, 81, 82], bounds["lat"]) == "better"
    assert compare.verdict([100, 101, 102], [80, 81, 82], bounds["rate"]) == "worse"
    assert compare.verdict([100, 150, 60], [100, 101, 102], bounds["lat"]) == "unresolved"
    # wide spread, but every run of B beats every run of A
    assert compare.verdict([100, 130, 160], [50, 55, 60], bounds["lat"]) == "better"


def test_run_refuses_a_non_default_program(monkeypatch):
    monkeypatch.setenv("REPRO_MSG_VOLUME", "1")
    assert run.main(["--workload", "sign-n7"]) == 2


def test_run_fails_without_the_package(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sign-n7"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
