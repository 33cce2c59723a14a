"""Bounded retransmission (DISPERSE) and graceful degradation (ULS URfr).

The resilience layer on top of the fault plane: retries buy delivery
through transiently-bad links, the certificate grace window turns a late
certificate into a structured ``degraded`` event instead of a lost unit,
and a genuinely failed unit still ends in the paper's ``φ`` + alert with
recovery at the next refreshment phase.
"""

from repro.core.disperse import DisperseService
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import DelayFault, DropFault, FaultInjectionAdversary, FaultPlan
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Schedule
from repro.sim.messages import Envelope
from repro.sim.node import ALERT, NodeContext, NodeProgram
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
SCHED = uls_schedule()


# ------------------------------------------------------- DISPERSE retransmission

DISP_SCHED = Schedule(setup_rounds=1, refresh_rounds=2, normal_rounds=12)
SEND_ROUND = 2


class RetryingSender(NodeProgram):
    def __init__(self, retransmit=0, send_round=SEND_ROUND):
        super().__init__()
        self.disperse = DisperseService(retransmit=retransmit)
        self.send_round = send_round
        self.delivered = []

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self.disperse.on_round(ctx, inbox)
        self.delivered.extend(self.disperse.receipts(""))
        if ctx.info.round == self.send_round and self.node_id == 0:
            self.disperse.send(ctx, 1, ("probe",), tag="")


def run_disperse(retransmit, drops, send_round=SEND_ROUND, units=1):
    programs = [RetryingSender(retransmit, send_round) for _ in range(N)]
    adversary = (FaultInjectionAdversary(FaultPlan(drops=drops)) if drops
                 else PassiveAdversary())
    runner = ULRunner(programs, adversary, DISP_SCHED, s=T, seed=7)
    runner.run(units=units)
    received = any(body == ("probe",) for _, body in programs[1].delivered)
    return received, programs[0].disperse


def total_blackout(first_round, last_round):
    """Every link of the sender dead over the window."""
    return tuple(DropFault(link=frozenset({0, j}), first_round=first_round,
                           last_round=last_round) for j in range(1, N))


def test_one_round_blackout_defeats_classic_disperse():
    received, disperse = run_disperse(0, total_blackout(SEND_ROUND, SEND_ROUND))
    assert not received
    assert disperse.retransmissions_sent == 0


def test_one_retransmission_survives_the_same_blackout():
    received, disperse = run_disperse(1, total_blackout(SEND_ROUND, SEND_ROUND))
    assert received
    assert disperse.retransmissions_sent == 1


def test_retransmissions_are_bounded():
    """A blackout outlasting the retry budget still loses the message —
    retransmission is bounded, not reliable-channel emulation."""
    received, disperse = run_disperse(
        2, total_blackout(SEND_ROUND, SEND_ROUND + 2 * DisperseService.RETX_INTERVAL))
    assert not received
    assert disperse.retransmissions_sent == 2


def test_retransmission_expires_at_the_unit_boundary():
    """The per-unit timeout: a retry whose turn comes in the next time
    unit is discarded, not sent."""
    last_normal = DISP_SCHED.first_normal_round(0) + DISP_SCHED.normal_rounds - 1
    received, disperse = run_disperse(
        3, total_blackout(last_normal - 1, last_normal + 2),
        send_round=last_normal - 1, units=2)
    assert not received
    assert disperse.retransmissions_expired >= 1
    assert disperse.retransmissions_sent <= 1  # at most the one still in-unit


def test_retransmit_zero_is_the_classic_protocol():
    received, disperse = run_disperse(0, ())
    assert received
    assert disperse.retransmissions_sent == 0
    assert disperse.retransmissions_expired == 0


# ----------------------------------------------------------- ULS degraded mode

def build_programs(cert_retransmit=0, cert_grace_rounds=1, seed=7, wire="paper"):
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [
        UlsProgram(states[i], SCHEME, keys[i],
                   cert_retransmit=cert_retransmit,
                   cert_grace_rounds=cert_grace_rounds, wire=wire)
        for i in range(N)
    ]
    return public, programs


def run_uls(programs, adversary=None, units=3, seed=3):
    runner = ULRunner(programs, adversary or PassiveAdversary(), SCHED, s=T, seed=seed)
    return runner.run(units=units), runner


def test_benign_run_emits_no_degraded_events(wire):
    _, programs = build_programs(wire=wire)
    execution, _ = run_uls(programs)
    for program in programs:
        assert program.core.degraded_log == []
        assert program.keystore.history == [(1, "ok"), (2, "ok")]


def test_no_certificate_degrades_alerts_and_recovers(wire):
    """Full blackout of one node across unit 1: structured "no-certificate"
    degraded event + the paper's φ + alert, then recovery in unit 2."""
    _, programs = build_programs(wire=wire)
    unit1 = SCHED.rounds_of_unit(1)
    drops = tuple(DropFault(link=frozenset({0, j}), first_round=unit1[0],
                            last_round=unit1[-1]) for j in range(1, N))
    adversary = FaultInjectionAdversary(FaultPlan(drops=drops))
    execution, _ = run_uls(programs, adversary=adversary)
    victim = programs[0].core
    reasons = [event["reason"] for event in victim.degraded_log]
    assert "no-certificate" in reasons
    event = next(e for e in victim.degraded_log if e["reason"] == "no-certificate")
    assert event["node"] == 0 and event["unit"] == 1
    # the structured event also lands in the global output as a 2-tuple
    assert ("degraded", event) in execution.outputs_of(0)
    # paper behavior preserved: φ keys, alert, recovery next refresh
    assert dict(programs[0].keystore.history)[1] == "failed"
    assert 1 in victim.alert_units
    assert dict(programs[0].keystore.history)[2] == "ok"
    # other nodes degraded nothing
    for program in programs[1:]:
        assert all(e["reason"] != "no-certificate" for e in program.core.degraded_log)


def late_certificate_attack():
    """Knock node 0 out of unit 1's signing window, then delay the
    dispersed certificate by one round.

    Every node normally completes the threshold signing *locally* at
    offset 13, so the DISPERSE of certificates only matters for a node
    that missed the signing session.  Blacking out the victim's links for
    offsets 5..12 (after PARTIAL-AGREEMENT has decided, before
    certificates complete) stalls its signer, so its certificate must
    come through DISPERSE: flood at 13, relay at 14, receipt at the
    switch round 15.  Delaying the victim's links at rounds 13..14 pushes
    the receipt to offset 16 — exactly one round late.
    """
    start = SCHED.refresh_start(1)
    blackout = tuple(DropFault(link=frozenset({0, j}), first_round=start + 5,
                               last_round=start + 12) for j in range(1, N))
    delays = tuple(
        DelayFault(link=frozenset({0, j}), first_round=start + 13,
                   last_round=start + 14, delay=1)
        for j in range(1, N)
    )
    return FaultInjectionAdversary(FaultPlan(seed=1, drops=blackout, delays=delays))


def test_late_certificate_installs_in_grace_window_without_alert(wire):
    _, programs = build_programs(wire=wire)
    execution, _ = run_uls(programs, adversary=late_certificate_attack())
    victim = programs[0].core
    reasons = [event["reason"] for event in victim.degraded_log]
    assert "certificate-late" in reasons
    event = next(e for e in victim.degraded_log if e["reason"] == "certificate-late")
    assert event["unit"] == 1 and event["deferred_rounds"] >= 1
    # no alert, no failed unit: the grace window absorbed the fault
    assert victim.alert_units == []
    assert programs[0].keystore.history == [(1, "ok"), (2, "ok")]
    assert ALERT not in execution.outputs_of(0)


def test_without_grace_the_same_delay_fails_the_unit(wire):
    """Control: cert_grace_rounds=0 reproduces the classic protocol, which
    loses the unit to the very same one-round delay."""
    _, programs = build_programs(cert_grace_rounds=0, wire=wire)
    run_uls(programs, adversary=late_certificate_attack())
    victim = programs[0].core
    assert 1 in victim.alert_units
    assert dict(programs[0].keystore.history)[1] == "failed"
    assert dict(programs[0].keystore.history)[2] == "ok"  # recovery unchanged


def test_partial_certification_is_reported_structurally(wire):
    """Suppressing three nodes' key announcements at unit 1's refresh
    start means PARTIAL-AGREEMENT decides φ for them and only 2 < n - t
    certificates are ever requested: every node reports
    "partial-certification" naming the missing owners — a structured
    event, not an exception — while the certificate-less victims degrade
    and alert per the paper.  (Losing more than t nodes' certificates is
    beyond the Theorem 14 budget, so no recovery is asserted.)"""
    from repro.core.uls import NEWKEY_CHANNEL
    from repro.sim.adversary_api import Adversary, faithful_delivery

    class AnnouncementSuppressor(Adversary):
        """Drops the unit-1 key announcements of nodes 0..2 (directional:
        the victims' other traffic and everyone else's announcements pass)."""

        def deliver(self, api, info, traffic):
            plan = faithful_delivery(traffic, api.n)
            if info.round != SCHED.refresh_start(1):
                return plan
            for receiver in plan:
                plan[receiver] = [
                    envelope for envelope in plan[receiver]
                    if not (envelope.channel == NEWKEY_CHANNEL
                            and envelope.sender in (0, 1, 2))
                ]
            return plan

    _, programs = build_programs(wire=wire)
    execution, _ = run_uls(programs, adversary=AnnouncementSuppressor(), units=2)
    for node, program in enumerate(programs):
        events = {e["reason"]: e for e in program.core.degraded_log
                  if e["unit"] == 1}
        assert "partial-certification" in events, node
        partial = events["partial-certification"]
        assert partial["certificates_completed"] == 2 < N - T
        assert partial["required"] == N - T
        assert partial["missing"] == [0, 1, 2]
    for victim in (0, 1, 2):
        assert 1 in programs[victim].core.alert_units
        assert dict(programs[victim].keystore.history)[1] == "failed"
    for healthy in (3, 4):
        # their certificates went through fine...
        assert dict(programs[healthy].keystore.history)[1] == "ok"
        # ...but Part II's share refresh cannot proceed with 3 > t peers
        # at φ keys — reported structurally, then alerted (awareness)
        reasons = {e["reason"] for e in programs[healthy].core.degraded_log}
        assert "share-refresh-failed" in reasons
        assert 1 in programs[healthy].core.alert_units


def test_cert_retransmit_flows_through_to_disperse(wire):
    _, programs = build_programs(cert_retransmit=2, wire=wire)
    run_uls(programs, units=2)
    # benign run: retransmissions fire (cert sends are retried blindly)
    # but change nothing — dedup at the receiver absorbs them
    assert any(p.core.disperse.retransmissions_sent > 0 for p in programs)
    for program in programs:
        assert program.keystore.history == [(1, "ok")]
        assert program.core.alert_units == []
