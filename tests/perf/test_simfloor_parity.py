"""The simulation floor: the faithfulness fast path against its
fallback, compact records, bounded DISPERSE bookkeeping, and the
faithful-plan proofs.

A chaos run whose delivery plans carry no faithfulness provenance goes
through the plan sanitation and :meth:`Runner._plan_is_faithful`, and
must digest identically to the same run on the fast path.  Compact
records intentionally drop the envelopes, so their parity claim goes
through the streaming :class:`~repro.analysis.digest.RoundsDigest`.
The committed per-seed digests of ``tests/test_golden_digests.py`` pin
the rest of the floor.
"""

from repro.analysis.digest import rounds_digest, transcript_digest
from repro.core.disperse import DisperseService
from repro.faults import FaultInjectionAdversary, FaultPlan
from repro.sim.adversary_api import FaithfulPlan, faithful_delivery
from repro.sim.clock import Schedule
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import Runner, ULRunner
from repro.sim.transcript import CompactRoundRecord, RoundRecord

N, T = 5, 2
SCHED = Schedule(setup_rounds=2, refresh_rounds=4, normal_rounds=8)
UNITS = 2

class Chatter(NodeProgram):
    """Ring-probe DISPERSE chatter — the crypto-free floor workload."""

    def __init__(self) -> None:
        super().__init__()
        self.disperse = DisperseService(retransmit=1)
        self.delivered: list = []
        self.secret = "initial-secret"  # default corruption target

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self.disperse.on_round(ctx, inbox)
        self.delivered.extend(self.disperse.receipts(""))
        if ctx.info.phase.value == "normal":
            target = (self.node_id + 1) % ctx.n
            self.disperse.send(ctx, target, ("probe", self.node_id, ctx.info.round))


def _run(seed=3, *, units=UNITS, stream_digest=False, compact_records=False):
    plan = FaultPlan.generate(seed=seed, n=N, t=T, schedule=SCHED, units=units)
    programs = [Chatter() for _ in range(N)]
    runner = ULRunner(programs, FaultInjectionAdversary(plan), SCHED,
                      s=T, seed=seed, stream_digest=stream_digest,
                      compact_records=compact_records)
    execution = runner.run(units=units)
    return execution, programs


# ------------------------------------------ fast path against fallback

def test_floor_layer_neutral_across_seeds(perf, monkeypatch):
    optimized = {seed: transcript_digest(_run(seed)[0]) for seed in (0, 7, 11)}
    # plans without provenance: every round is sanitized and re-proved
    monkeypatch.setattr(FaithfulPlan, "build", classmethod(
        lambda cls, traffic, n: faithful_delivery(traffic, n)))
    for seed, digest in optimized.items():
        assert transcript_digest(_run(seed)[0]) == digest, f"seed {seed} diverged"


# ------------------------------------------------------ compact records

def test_compact_records_keep_rounds_digest_parity(perf):
    full, _ = _run(stream_digest=True)
    expected = rounds_digest(full)
    # streaming digest over full records equals the post-hoc one
    assert full.rounds_digest == expected
    assert all(isinstance(record, RoundRecord) for record in full.records)

    compact, _ = _run(stream_digest=True, compact_records=True)
    assert compact.rounds_digest == expected
    assert all(isinstance(record, CompactRoundRecord) for record in compact.records)
    # count-level views survive compaction
    assert compact.messages_sent() == full.messages_sent()
    assert [r.broken for r in compact.records] == [r.broken for r in full.records]
    assert [r.operational for r in compact.records] == [r.operational for r in full.records]
    assert ([r.delivered_count for r in compact.records]
            == [r.delivered_count for r in full.records])
    assert compact.system_log == full.system_log


# ------------------------------------- bounded DISPERSE state (bugfix)

def test_disperse_relay_dedup_stays_bounded_across_units(perf):
    execution, programs = _run(seed=5, units=4)
    for program in programs:
        service = program.disperse
        # both dedup sets live for one on_round call: none is left on
        # the service between rounds to grow with the run
        assert service.messages_relayed > 4 * N
        assert not [name for name, value in vars(service).items() if isinstance(value, set)]
        assert len(service._fanout_targets) <= N


# ----------------------------------------------- faithful-plan proving

def test_faithful_plan_build_marks_and_mutation_unmarks():
    traffic = (Envelope(0, 1, "c", "x", 4), Envelope(2, 1, "c", "y", 4))
    plan = FaithfulPlan.build(traffic, 3)
    assert plan.source is traffic
    assert sorted(plan) == [0, 1, 2]
    assert plan[1] == list(traffic)
    plan[0] = []  # key-level mutation drops the provenance
    assert plan.source is None


def test_faithful_plan_pickle_roundtrip_drops_marker():
    import pickle

    traffic = (Envelope(0, 1, "c", "x", 4),)
    plan = FaithfulPlan.build(traffic, 2)
    clone = pickle.loads(pickle.dumps(plan))
    assert type(clone) is dict
    assert clone == {0: [], 1: list(traffic)}


# ------------------------------------------- _plan_is_faithful edges

def _env(sender, receiver, payload="x", round_sent=1):
    return Envelope(sender, receiver, "c", payload, round_sent)


def test_plan_is_faithful_accepts_equal_copy_substitution():
    original = _env(0, 1)
    copy = _env(0, 1)  # distinct object, equal content
    assert copy is not original
    assert Runner._plan_is_faithful((original,), {0: [], 1: [copy], 2: []})


def test_plan_is_faithful_rejects_receiver_missing_from_plan():
    # traffic for node 1 but the plan has no inbox for it at all
    assert not Runner._plan_is_faithful((_env(0, 1),), {0: [], 2: []})


def test_plan_is_faithful_rejects_extra_traffic_in_plan():
    sent = _env(0, 1)
    injected = _env(0, 2)
    assert not Runner._plan_is_faithful((sent,), {1: [sent], 2: [injected]})


def test_plan_is_faithful_allows_empty_inbox_receivers():
    sent = _env(0, 1)
    assert Runner._plan_is_faithful((sent,), {0: [], 1: [sent], 2: [], 3: []})
    # a plan-only receiver with an empty inbox is fine; a non-empty one is not
    assert not Runner._plan_is_faithful((), {0: [_env(1, 0)]})
    assert Runner._plan_is_faithful((), {0: [], 1: []})


# --------------------------------------- Envelope hashing fallback

def test_envelope_hash_raises_for_unhashable_payload_and_stays_usable():
    import pytest

    hashable = _env(0, 1, payload=("t", 1))
    assert hash(hashable) == hash(hashable)  # memoized, stable

    unhashable = _env(0, 1, payload=["list", "payload"])
    with pytest.raises(TypeError):
        hash(unhashable)
    with pytest.raises(TypeError):
        hash(unhashable)  # the failed attempt must not cache garbage
    # equality is unaffected
    assert unhashable == _env(0, 1, payload=["list", "payload"])


def test_unreliable_links_fall_back_on_unhashable_payloads(perf):
    """A direction carrying unhashable payloads goes through the legacy
    multiset comparison and still classifies drops correctly."""

    class Dropper:
        pass

    runner = object.__new__(ULRunner)
    runner.n = 3

    sent_ok = _env(0, 1, payload=["unhashable"])
    sent_dropped = _env(1, 2, payload=["also-unhashable"], round_sent=1)
    traffic = (sent_ok, sent_dropped)
    # equal-content copy delivered on 0->1 (id-counts differ, content equal);
    # 1->2 dropped entirely
    plan = {0: [], 1: [_env(0, 1, payload=["unhashable"])], 2: []}
    unreliable = Runner._unreliable_links(runner, traffic, plan, frozenset())
    assert unreliable == frozenset({frozenset({1, 2})})
