"""Tests for execution classification and emulation invariants, read
from the run's replayed verdict."""

import pytest

from repro.adversary.impersonation import UlsImpersonator
from repro.adversary.strategies import CutOffAdversary
from repro.analysis.verdict import verdict
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import FaultInjectionAdversary, breakins
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Phase
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
SCHED = uls_schedule()


def run(adversary=None, units=2, sign_plan=None, seed=4):
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [UlsProgram(states[i], SCHEME, keys[i]) for i in range(N)]
    runner = ULRunner(programs, adversary or PassiveAdversary(), SCHED, s=T, seed=seed)
    for node_id, round_number, message in sign_plan or []:
        runner.add_external_input(node_id, round_number, ("sign", message))
    execution = runner.run(units=units)
    return execution, programs


def classify(execution, programs):
    return verdict(execution, T, programs).goodness


def violations(execution, programs):
    return [v.as_tuple() for v in verdict(execution, T, programs).violations]


def test_benign_execution_is_good():
    execution, programs = run()
    report = classify(execution, programs)
    assert report.good
    assert report.classification == "GOOD"


def test_mobile_breakins_still_good():
    execution, programs = run(
        adversary=FaultInjectionAdversary(breakins(SCHED, {0: {0, 1}})), units=2
    )
    report = classify(execution, programs)
    assert report.good


def test_cutoff_with_impersonation_is_not_misclassified():
    """Impersonation attempts with stolen keys during the break unit are
    NOT forgeries (Def. 17(c): the node was broken); afterwards the stale
    certificates are not properly certified for the new unit — so the
    execution stays GOOD, exactly as Theorem 14 predicts."""
    impersonator = UlsImpersonator(victim=4)
    adversary = CutOffAdversary(victim=4, break_unit=1, impersonator=impersonator)
    execution, programs = run(adversary=adversary, units=3)
    report = classify(execution, programs)
    assert impersonator.attempts  # the attack really ran
    assert report.forged == []
    # BAD1 requires an *operational* node with phi keys; the cut-off victim
    # is disconnected, so its failed refresh does not make the run bad
    assert report.good


def test_emulation_invariants_benign_signing():
    r0 = SCHED.first_normal_round(0)
    sign_plan = [(i, r0, "alpha") for i in range(N)]
    execution, programs = run(units=1, sign_plan=sign_plan)
    assert verdict(execution, T, programs).clean
    assert ("signed", "alpha", 0) in execution.outputs_of(0)


def test_emulation_invariant_i1_catches_fabricated_signed_line():
    """Tampering with the global output (a signed line without requests)
    is flagged — the invariant really can distinguish."""
    execution, programs = run(units=1)
    execution.node_outputs[0].append((5, ("signed", "phantom", 0)))
    assert any(kind == "I1-threshold" for kind, _ in violations(execution, programs))


def test_emulation_invariant_i2_catches_missing_signature():
    execution, programs = run(units=1)
    # fabricate: everyone asked, nobody signed
    for i in range(N):
        execution.node_outputs[i].append((5, ("asked-to-sign", "ghost", 0)))
    assert any(kind == "I2-liveness" for kind, _ in violations(execution, programs))


def test_emulation_invariant_i3_catches_false_alert():
    from repro.sim.node import ALERT

    execution, programs = run(units=1)
    execution.node_outputs[2].append((5, ALERT))
    assert any(kind == "I3-false-alert" for kind, _ in violations(execution, programs))


def test_goodness_detects_planted_forgery():
    """Plant a genuinely certified message into the delivered transcript
    that its 'sender' never sent: classified as BAD3 (forgery under the
    genuine key)."""
    from dataclasses import replace

    from repro.core.certify import certify

    execution, programs = run(units=1)
    keys = programs[3].keystore.current
    target_record = execution.records[6]
    forged = certify(SCHEME, keys, ("never-sent",), 3, 0, target_record.info.round - 2)
    from repro.sim.messages import Envelope

    env = Envelope(sender=3, receiver=0, channel="disperse",
                   payload=("fwding", "auth", 3, 0, tuple(forged)),
                   round_sent=target_record.info.round)
    patched = replace(
        target_record,
        delivered={**target_record.delivered, 0: tuple(target_record.delivered[0]) + (env,)},
    )
    execution.records[6] = patched
    report = classify(execution, programs)
    assert not report.good
    assert report.classification == "BAD3"


def test_goodness_detects_rogue_key_as_bad2():
    """A certified message under a key the sender never used would imply a
    rogue certificate: BAD2.  We simulate it by re-certifying with a
    different node's identity baked in via a hand-built certificate."""
    from dataclasses import replace

    from repro.core.certify import certificate_assertion, certify
    from repro.core.keystore import LocalKeys
    from repro.crypto.schnorr import SchnorrSigningKey
    from repro.crypto.shamir import reconstruct_secret
    from repro.pds.threshold_schnorr import pds_message_bytes

    execution, programs = run(units=1)
    public = programs[0].state.public
    # forge a certificate using the reconstructed group secret — this is
    # exactly what "the PDS was broken" means, so the classifier must
    # report BAD2
    secret = reconstruct_secret(
        GROUP.scalar_field, [p.state.share for p in programs[:3]]
    )
    import random

    rogue_pair = SCHEME.generate(random.Random(123))
    assertion = certificate_assertion(3, 0, SCHEME.key_repr(rogue_pair.verify_key))
    from repro.crypto.schnorr import SchnorrScheme as CS

    rogue_cert = CS(GROUP).sign(
        SchnorrSigningKey(x=secret, y=public.public_key),
        pds_message_bytes(assertion, 0),
    )
    rogue_keys = LocalKeys(unit=0, keypair=rogue_pair, certificate=rogue_cert)
    target_record = execution.records[6]
    forged = certify(SCHEME, rogue_keys, ("rogue",), 3, 0, target_record.info.round - 2)
    from repro.sim.messages import Envelope

    env = Envelope(sender=3, receiver=0, channel="disperse",
                   payload=("fwding", "auth", 3, 0, tuple(forged)),
                   round_sent=target_record.info.round)
    from dataclasses import replace as _replace

    execution.records[6] = _replace(
        target_record,
        delivered={**target_record.delivered, 0: tuple(target_record.delivered[0]) + (env,)},
    )
    assert classify(execution, programs).classification == "BAD2"


class DisperseBodySender(FaultInjectionAdversary):
    """Breaks into node 4 during unit 1 and, while inside, sends ``body``
    to node 0 on the DISPERSE channel in every normal round (``None``
    withholds it)."""

    def __init__(self, body):
        super().__init__(breakins(SCHED, {1: {4}}))
        self.body = body

    def on_round(self, api, info, traffic):
        super().on_round(api, info, traffic)
        if self.body is not None and info.phase is Phase.NORMAL and api.is_broken(4):
            api.send_as(4, 0, "disperse", self.body)


def classification_under(body):
    execution, programs = run(adversary=DisperseBodySender(body))
    return classify(execution, programs).classification


@pytest.mark.parametrize("body", [
    5,
    (),
    ("fwd", "auth", 4, 0, ("m", 4, [0], 1, 2, "s", "v", "c")),
], ids=["int", "empty-tuple", "list-field"])
def test_malformed_disperse_body_from_a_broken_node_is_classified(body):
    """A broken node may put any body on the wire: the classifier must
    give the run the class it has with that body withheld."""
    withheld = classification_under(None)
    assert withheld == "GOOD"
    assert classification_under(body) == withheld
