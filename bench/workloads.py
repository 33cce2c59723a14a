"""The workloads of the end-to-end benchmark: set-up, measurement, gate.

A workload is a network configuration plus an open-loop request stream.
One *episode* of a workload

1. builds the network from a seed — PDS states, node programs, fault plan,
   runner, and every request of the episode scheduled per round with
   ``Runner.add_external_input`` (the timed set-up);
2. runs a fixed number of time units (the measured region);
3. checks every output (the correctness gate, outside the timed region);
4. reduces the execution to samples: per-round times, refresh-phase
   rounds and message counts, and per-request due and answer rounds.

A run repeats episodes, each from its own seed derived from the run's
``--seed``, until its time budget is spent, and reports medians.

Every time is *rescaled to a reference host*.  A shared host's cores
change speed by more than half within seconds, so between rounds, and
around each set-up, the episode times :func:`probe`, a fixed piece of
work of the program's own kinds; a round's measured time is multiplied
by :data:`PROBE_REFERENCE_S` over the median probe around it.  The
reference host is one on which the probe takes exactly that long.

Requests are an open loop in *simulated* time: they are due at fixed
rounds and never wait for earlier ones to complete.  A request's latency
runs from the start of the round it was due in to the end of the round
its outcome appeared in: the sum of those rounds' times.  The simulator
starts every round only after the previous one ends, so the generator
can never run late: a slow round delays every request due after it, and
that delay is in the latencies.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.adversary.limits import audit_st_limited
from repro.analysis import RecoverySloObserver, check_emulation_invariants
from repro.analysis.digest import outcome_digest
from repro.core.authenticator import compile_protocol
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule, verify_user_signature
from repro.core.views import impersonated_nodes
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import FaultInjectionAdversary, FaultPlan
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Phase
from repro.sim.node import ALERT, NodeContext, NodeProgram
from repro.sim.runner import RunObserver, ULRunner

#: percentiles a latency tail may be reported at, lowest first
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: samples a percentile needs beyond it before it is reported
TAIL_MIN_BEYOND = 10
#: set-ups timed per run, at least (``setup_s`` is their median)
MIN_SETUPS = 5
#: how long :func:`probe` takes on the reference host; about its time on
#: an idle core of the 2-vCPU Xeon machine the committed results are from
PROBE_REFERENCE_S = 0.001
#: probes on each side of a round whose median gives the host's speed
PROBE_WINDOW = 4
_PROBE_MODULUS = (1 << 255) - 19
SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass(frozen=True)
class Params:
    """One network configuration and its request stream."""

    n: int
    t: int
    group: str
    #: time units per episode (unit 0 plus ``units - 1`` refresh phases)
    units: int
    normal_rounds: int
    #: ``"sign"``: one USign request per early normal round, sent to every
    #: node; ``"app"``: every node sends one Λ app message to every peer
    #: every round
    traffic: str
    faults: bool = False
    cert_retransmit: int = 0
    #: DISPERSE relay set size (§6 sparse relay); None floods every node
    relay_fanout: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    params: Params
    #: the same code path at test size (``bench/test_bench.py``)
    tiny: Params


#: why each workload was chosen is in BENCHMARK.json and bench/README.md
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "refresh-n13-sparse",
            Params(n=13, t=2, group="toy64", units=2, normal_rounds=14,
                   traffic="sign", relay_fanout=5),
            # n=7: the smallest n at which a fanout of 2t+1 is sparse
            Params(n=7, t=2, group="toy64", units=2, normal_rounds=12,
                   traffic="sign", relay_fanout=5),
        ),
        Workload(
            "sign-n7",
            Params(n=7, t=2, group="toy256", units=2, normal_rounds=20,
                   traffic="sign"),
            Params(n=5, t=2, group="toy256", units=2, normal_rounds=12,
                   traffic="sign"),
        ),
        Workload(
            "authlink-n7",
            Params(n=7, t=2, group="toy64", units=2, normal_rounds=100,
                   traffic="app"),
            Params(n=5, t=2, group="toy64", units=2, normal_rounds=12,
                   traffic="app"),
        ),
        Workload(
            "chaos-n7",
            Params(n=7, t=2, group="toy64", units=3, normal_rounds=24,
                   traffic="sign", faults=True, cert_retransmit=1),
            Params(n=5, t=2, group="toy64", units=3, normal_rounds=12,
                   traffic="sign", faults=True, cert_retransmit=1),
        ),
    )
}


def episode_seed(workload: str, seed: int, index: int) -> int:
    """The seed of episode ``index`` of a run: each episode has its own
    keys, messages and fault plan, all fixed by the run's seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# -- statistics ------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float | None:
    """The highest reportable percentile of ``count`` samples: the highest
    of :data:`TAIL_PERCENTILES` with at least ten samples beyond it."""
    # in tenths of a percent, so that 99.9 is exact
    supported = [
        pct for pct in TAIL_PERCENTILES
        if count * round(1000 - 10 * pct) >= 1000 * TAIL_MIN_BEYOND
    ]
    return supported[-1] if supported else None


def latencies_ms(round_s: list[float], answered: list[tuple[int, int]]) -> list[float]:
    """Per ``(due round, done round)`` pair: the time from the start of the
    round the request was due in to the end of the round it was answered
    in, given every round's time."""
    ends = list(itertools.accumulate(round_s))
    return [1000.0 * (ends[done] - (ends[due - 1] if due else 0.0))
            for due, done in answered]


# -- the host's speed ----------------------------------------------------------


def probe() -> float:
    """Seconds of a fixed piece of work of the kinds the program does:
    big-integer modular exponentiation, hashing, tuple and dict traffic.
    Nothing in the package runs in it, so a change to the program does not
    move it; a change in the speed of the host's core does."""
    start = time.perf_counter()
    acc = 0
    table: dict = {}
    for i in range(12):
        acc ^= pow(3 + i, (1 << 200) + i, _PROBE_MODULUS)
        table[i, acc & 0xFFFF] = hashlib.sha256(acc.to_bytes(32, "big")).digest()
        hash(tuple(range(i, i + 20)))
        for k in range(40):
            table[k] = table.get(k, 0) + k
    return time.perf_counter() - start


def rescaled(seconds: float, probes: list[float]) -> float:
    """A measured time on the reference host, given probes around it."""
    return seconds * PROBE_REFERENCE_S / statistics.median(probes)


# -- the round clock ---------------------------------------------------------


class RoundClock(RunObserver):
    """Times every round and probes the host between rounds.

    A round starts when the probe after the previous round ends (the
    first when :meth:`start` is called, just before ``Runner.run``) and
    ends when the runner records it; probes fall outside every round.
    """

    def __init__(self, now: Callable[[], float] = time.perf_counter,
                 probe: Callable[[], float] = probe) -> None:
        self.now = now
        self.probe = probe
        self.measured: list[float] = []
        self.probes: list[float] = []
        self._start = 0.0

    def start(self) -> None:
        self.measured, self.probes = [], [self.probe()]
        self._start = self.now()

    def on_round(self, execution, record) -> None:
        self.measured.append(self.now() - self._start)
        self.probes.append(self.probe())
        self._start = self.now()

    def durations(self) -> list[float]:
        """Every round's time on the reference host, by the median of the
        :data:`PROBE_WINDOW` probes on each side of it."""
        k = PROBE_WINDOW
        return [rescaled(seconds, self.probes[max(0, r + 1 - k):r + 1 + k])
                for r, seconds in enumerate(self.measured)]


# -- building an episode -------------------------------------------------------


class AppSender(NodeProgram):
    """π of the authlink workload: every ``("app", payload)`` input is sent
    to every peer (through Λ, so over AUTH-SEND)."""

    def step(self, ctx: NodeContext, inbox) -> None:
        for value in ctx.external_inputs:
            if isinstance(value, tuple) and len(value) == 2 and value[0] == "app":
                ctx.broadcast("app", value[1])


@dataclass
class Episode:
    params: Params
    public: Any
    programs: list
    runner: ULRunner
    clock: RoundClock
    #: sign: ``(due round, message)``; app: ``(due round, sender, payload)``
    requests: list[tuple]
    slo: RecoverySloObserver | None = None


def build_episode(params: Params, seed: int) -> Episode:
    """The set-up: everything an episode needs before its first round."""
    group = named_group(params.group)
    scheme = SchnorrScheme(group)
    schedule = uls_schedule(normal_rounds=params.normal_rounds)
    public, states, keys = build_uls_states(group, scheme, params.n, params.t, seed=seed)
    if params.traffic == "app":
        programs = compile_protocol(
            [AppSender() for _ in range(params.n)], states, scheme, keys
        )
    else:
        programs = [
            UlsProgram(
                states[i], scheme, keys[i], relay_fanout=params.relay_fanout,
                cert_retransmit=params.cert_retransmit,
            )
            for i in range(params.n)
        ]
    slo = None
    observers: list[RunObserver] = []
    if params.faults:
        plan = FaultPlan.generate(
            seed=seed, n=params.n, t=params.t, schedule=schedule, units=params.units
        )
        adversary = FaultInjectionAdversary(plan)
        slo = RecoverySloObserver()
        observers.append(slo)
    else:
        adversary = PassiveAdversary()
    clock = RoundClock()
    observers.append(clock)  # last: a round's time includes its observers
    runner = ULRunner(programs, adversary, schedule, s=params.t, seed=seed,
                      observers=observers)

    rng = random.Random(seed)
    requests: list[tuple] = []
    if params.traffic == "app":
        # every round but the set-up and the last two, whose messages could
        # not arrive before the episode ends
        last = schedule.total_rounds(params.units) - 2
        for round_number in range(schedule.setup_rounds, last):
            for sender in range(params.n):
                payload = rng.getrandbits(48)
                runner.add_external_input(sender, round_number, ("app", payload))
                requests.append((round_number, sender, payload))
    else:
        # early normal rounds only: a signing session takes 8 rounds, and
        # each must finish before its unit's refresh phase
        for unit in range(params.units):
            first = schedule.first_normal_round(unit)
            for offset in range(params.normal_rounds - 9):
                message = f"{rng.getrandbits(64):016x}"
                for node in range(params.n):
                    runner.add_external_input(node, first + offset, ("sign", message))
                requests.append((first + offset, message))
    return Episode(params, public, programs, runner, clock, requests, slo)


# -- one episode ---------------------------------------------------------------


@dataclass
class EpisodeResult:
    #: on the reference host
    setup_s: float
    #: the measured region as measured, probes included
    wall_s: float
    #: on the reference host
    round_s: list[float]
    #: the median probe between the rounds
    probe_s: float
    #: per refresh phase, the indices of its rounds
    refresh_rounds: list[list[int]]
    refresh_msgs: list[int]
    #: per answered request: (round it was due in, round it was answered in)
    answered: list[tuple[int, int]]
    attempted: int
    served: int
    #: unserved requests the protocol was obliged to serve
    failed: int
    msgs_sent: int
    alerts: int
    ttr_units_max: int
    faults_injected: int
    digest: str
    violations: list[str] = field(default_factory=list)


def timed_setup(params: Params, seed: int) -> tuple[Episode, float]:
    """An episode's set-up and its time on the reference host."""
    named_group(params.group)  # validated once per process: not per episode
    probes = [probe()]
    start = time.perf_counter()
    episode = build_episode(params, seed)
    measured = time.perf_counter() - start
    probes.append(probe())
    return episode, rescaled(measured, probes)


def run_episode(params: Params, seed: int, tracer=None) -> EpisodeResult:
    """Set up, run and check one episode.  With a ``tracer`` its layer
    wrappers are installed for the measured region only, and the probes
    are a span of their own, so that they do not count as the runner's."""
    episode, setup_s = timed_setup(params, seed)
    clock = episode.clock
    if tracer is not None:
        clock.probe = tracer.span("bench.probe", clock.probe)
        tracer.install()
    try:
        start = time.perf_counter()
        clock.start()
        execution = episode.runner.run(params.units)
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    violations = check_outputs(episode, execution)
    return reduce_episode(episode, execution, setup_s, wall_s, violations)


def check_outputs(episode: Episode, execution) -> list[str]:
    """The correctness gate; returns one line per violation."""
    params = episode.params
    violations: list[str] = []
    emulation = check_emulation_invariants(execution, params.t)
    violations += [f"emulation invariant {v[0]}: {v[1]!r}" for v in emulation.violations]
    audit = audit_st_limited(execution, params.t)
    violations += [f"unit {u} exceeds the (s,t) limit: {sorted(nodes)}"
                   for u, nodes in audit.violations.items()]
    for node, program in enumerate(episode.programs):
        for (message, unit), signature in getattr(program, "signatures", {}).items():
            if not verify_user_signature(episode.public, message, unit, signature):
                violations.append(f"node {node}: bad signature on {message!r}/{unit}")
        if params.faults:
            continue
        expected = [(unit, "ok") for unit in range(1, params.units)]
        if program.core.keystore.history != expected:
            violations.append(f"node {node}: key history {program.core.keystore.history}")
        if not program.core.state.share_is_valid():
            violations.append(f"node {node}: invalid share")
        alerts = sum(1 for _, entry in execution.node_outputs[node] if entry == ALERT)
        if alerts:
            violations.append(f"node {node}: {alerts} alerts in a passive run")
    if params.traffic == "app":
        for unit in range(params.units):
            for node, forged in impersonated_nodes(execution, unit).items():
                violations.append(f"unit {unit}: node {node} impersonated "
                                  f"({len(forged)} forged messages)")
    return violations


def _obliged(records, node: int, first: int, last: int) -> bool:
    """Whether ``node`` stayed unbroken and operational over rounds
    ``first..last`` — the paper's condition for being served."""
    return all(
        node in record.operational and node not in record.broken
        for record in records[first:last + 1]
    )


def reduce_episode(episode: Episode, execution, setup_s: float, wall_s: float,
                   violations: list[str]) -> EpisodeResult:
    params = episode.params
    records = execution.records
    refresh_rounds: dict[int, list[int]] = {}
    refresh_msgs: dict[int, int] = {}
    for round_number, record in enumerate(records):
        if record.info.phase is Phase.REFRESH:
            unit = record.info.time_unit
            refresh_rounds.setdefault(unit, []).append(round_number)
            refresh_msgs[unit] = refresh_msgs.get(unit, 0) + record.sent_count

    answered: list[tuple[int, int]] = []
    attempted = served = failed = 0
    last_round = len(records) - 1
    if params.traffic == "app":
        received: dict[tuple, int] = {}
        for node, outputs in enumerate(execution.node_outputs):
            for round_number, entry in outputs:
                if isinstance(entry, tuple) and len(entry) == 4 and entry[0] == "app-recv":
                    received.setdefault((entry[1], node, entry[3]), round_number)
        for due, sender, payload in episode.requests:
            for receiver in range(params.n):
                if receiver == sender:
                    continue
                attempted += 1
                done = received.get((sender, receiver, payload))
                if done is not None:
                    served += 1
                    answered.append((due, done))
                elif (_obliged(records, sender, due, last_round)
                      and _obliged(records, receiver, due, last_round)):
                    failed += 1
    else:
        signed: dict[tuple, int] = {}
        for node, outputs in enumerate(execution.node_outputs):
            for round_number, entry in outputs:
                if isinstance(entry, tuple) and len(entry) == 3 and entry[0] == "signed":
                    signed.setdefault((node, entry[1]), round_number)
        core = episode.programs[0].core
        deadline = core.signer.deadline_steps * core.transport.delay
        for due, message in episode.requests:
            for node in range(params.n):
                attempted += 1
                done = signed.get((node, message))
                if done is not None:
                    served += 1
                    answered.append((due, done))
                elif _obliged(records, node, due, min(due + deadline, last_round)):
                    failed += 1

    alerts = sum(
        1 for outputs in execution.node_outputs for _, entry in outputs if entry == ALERT
    )
    faults_injected = 0
    for entry in execution.adversary_output:
        if isinstance(entry, tuple) and len(entry) == 2 and entry[0] == "fault-stats":
            faults_injected += sum(entry[1].values())
    ttr = episode.slo.report()["ttr_units_max"] if episode.slo is not None else 0
    clock = episode.clock
    return EpisodeResult(
        setup_s=setup_s,
        wall_s=wall_s,
        round_s=clock.durations(),
        probe_s=statistics.median(clock.probes),
        refresh_rounds=[refresh_rounds[u] for u in sorted(refresh_rounds)],
        refresh_msgs=[refresh_msgs[u] for u in sorted(refresh_msgs)],
        answered=answered,
        attempted=attempted,
        served=served,
        failed=failed,
        msgs_sent=sum(record.sent_count for record in records),
        alerts=alerts,
        ttr_units_max=ttr,
        faults_injected=faults_injected,
        digest=outcome_digest(execution),
        violations=violations,
    )


# -- a run -------------------------------------------------------------------


@dataclass
class Run:
    """The untraced episodes of one run plus the extra set-ups."""

    episodes: list[EpisodeResult]
    setups_s: list[float]

    def end_to_end(self, peak_rss_mb: float) -> dict[str, float]:
        episodes = self.episodes
        return {
            "setup_s": statistics.median(self.setups_s),
            "rounds_per_s": statistics.median(
                len(e.round_s) / sum(e.round_s) for e in episodes),
            "refresh_s": statistics.median(
                sum(e.round_s[r] for r in rounds)
                for e in episodes for rounds in e.refresh_rounds),
            "msgs_per_refresh": statistics.median(
                m for e in episodes for m in e.refresh_msgs),
            "peak_rss_mb": peak_rss_mb,
            "latency_ms_p50": statistics.median(
                percentile(latencies_ms(e.round_s, e.answered), 50.0) for e in episodes),
            "ops_per_s": statistics.median(e.served / sum(e.round_s) for e in episodes),
            "served_ratio": sum(e.served for e in episodes)
                            / sum(e.attempted for e in episodes),
        }

    def context(self) -> dict[str, Any]:
        """Sample counts and outcomes that are not metrics."""
        episodes = self.episodes
        latencies = [ms for e in episodes for ms in latencies_ms(e.round_s, e.answered)]
        tail = tail_percentile(len(latencies))
        return {
            "episodes": len(episodes),
            "measured_s": sum(e.wall_s for e in episodes),
            # the host's speed over the run: 1 ms on the reference host
            "probe_ms": [round(1000.0 * e.probe_s, 3) for e in episodes],
            "samples": {
                "setup_s": len(self.setups_s),
                "rounds_per_s": len(episodes),
                "refresh_s": sum(len(e.refresh_rounds) for e in episodes),
                "latency_ms": len(latencies),
                "ops": sum(e.attempted for e in episodes),
            },
            "latency_tail": {"percentile": tail, "samples": len(latencies),
                             "ms": percentile(latencies, tail) if tail else None},
            # the first episode's seed depends only on --seed: these repeat
            "outcome_digest": episodes[0].digest,
            "msgs_sent": episodes[0].msgs_sent,
            "alerts": sum(e.alerts for e in episodes),
            "ttr_units_max": max(e.ttr_units_max for e in episodes),
            "faults_injected": sum(e.faults_injected for e in episodes),
        }


def run_in_subprocess(workload: Workload, seed: int, *, tiny: bool = False,
                      trace: bool = False) -> tuple[EpisodeResult, dict | None]:
    """One episode in a fresh interpreter.

    Process-wide caches keep the entries of every key they have seen up
    to their bounds, and each episode brings fresh keys: a process that
    ran earlier episodes runs the next one about a third slower.  A fresh
    process per episode measures every episode from the same state.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(Path(__file__).resolve()), workload.name, str(seed)]
    command += ["--tiny"] * tiny + ["--trace"] * trace
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=170, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    return EpisodeResult(**report["episode"]), report["trace"]


def measure(workload: Workload, seed: int, seconds: float, *, tiny: bool = False) -> Run:
    """Run episodes until ``seconds`` have elapsed, process start-up and
    gate included — stopping where the run's length lands nearest the
    budget, after at least one — then time extra set-ups until there are
    :data:`MIN_SETUPS`."""
    episodes: list[EpisodeResult] = []
    start = time.perf_counter()
    index = 0
    while True:
        result, _ = run_in_subprocess(
            workload, episode_seed(workload.name, seed, index), tiny=tiny)
        index += 1
        episodes.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index / 2 >= seconds:
            break
    params = workload.tiny if tiny else workload.params
    setups = [e.setup_s for e in episodes]
    while len(setups) < MIN_SETUPS:
        setups.append(timed_setup(params, episode_seed(workload.name, seed, index))[1])
        index += 1
    return Run(episodes, setups)


def traced_episode(workload: Workload, seed: int, *,
                   tiny: bool = False) -> tuple[EpisodeResult, dict]:
    """One episode under the layer tracer, from its own seed."""
    return run_in_subprocess(workload, episode_seed(workload.name, seed, -1),
                             tiny=tiny, trace=True)


def main(argv: list[str]) -> None:
    """``workloads.py NAME SEED [--tiny] [--trace]``: one episode, printed
    as one JSON line (the body of :func:`run_in_subprocess`)."""
    name, seed = argv[0], int(argv[1])
    workload = WORKLOADS[name]
    params = workload.tiny if "--tiny" in argv else workload.params
    tracer = None
    if "--trace" in argv:
        import tracer as layer_trace

        tracer = layer_trace.Tracer(name, layer_trace.install_layers)
    result = run_episode(params, seed, tracer)
    trace = tracer.export(result.wall_s) if tracer is not None else None
    print(json.dumps({"episode": asdict(result), "trace": trace}))


if __name__ == "__main__":
    main(sys.argv[1:])
