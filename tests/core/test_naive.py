"""The §1.3 strawman: the attack succeeds against it, silently.

This is the negative control for the whole paper: the same cut-off
adversary that ULS/Λ detect and neutralize completely hijacks the naive
sign-the-new-key-with-the-old-key scheme.
"""

from repro.adversary.strategies import CutOffAdversary
from repro.core.naive import NaiveImpersonator, NaiveProgram
from repro.core.views import impersonations
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Schedule
from repro.sim.node import ALERT
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N = 5
SCHED = Schedule(setup_rounds=2, refresh_rounds=3, normal_rounds=8)


def run(adversary=None, units=4, sends=None, seed=6):
    programs = [NaiveProgram(SCHEME) for _ in range(N)]
    runner = ULRunner(programs, adversary or PassiveAdversary(), SCHED, s=2, seed=seed)
    for node_id, round_number, dst, message in sends or []:
        runner.add_external_input(node_id, round_number, ("send", dst, message))
    execution = runner.run(units=units)
    return execution, runner


def test_benign_naive_run_works():
    """Without an adversary the strawman is perfectly functional — that is
    what makes it tempting."""
    r = SCHED.first_normal_round(2)
    sends = [(0, r, 1, "hello"), (3, r + 1, 2, "world")]
    execution, _ = run(sends=sends, units=3)
    assert ("app-recv", 0, "naive-app", "hello") in execution.outputs_of(1)
    assert ("app-recv", 3, "naive-app", "world") in execution.outputs_of(2)
    for unit in range(3):
        for i in range(N):
            assert impersonations(execution, i, unit) == set()


def test_keys_rotate_each_unit():
    _, runner = run(units=3)
    program = runner.nodes[0].program
    assert program.unit == 2  # rekeyed at units 1 and 2


def test_cutoff_attack_hijacks_naive_scheme_silently():
    """The paper's §1.3 attack: steal one key, forge the next rekey, own
    the victim's identity forever after — and the victim never notices."""
    victim = 4
    impersonator = NaiveImpersonator(SCHEME, victim=victim, rng_seed=99)
    adversary = CutOffAdversary(victim=victim, break_unit=1, impersonator=impersonator)
    execution, runner = run(adversary=adversary, units=4)

    # forged application messages were accepted as coming from the victim
    # in units 2 and 3 (after the stolen key signed the fake rekey)
    forged_2 = impersonations(execution, victim, 2)
    forged_3 = impersonations(execution, victim, 3)
    assert forged_2, "unit-2 impersonation should succeed against the strawman"
    assert forged_3, "the hijack persists in later units"

    # the other nodes now hold the adversary's key for the victim
    for i in range(N - 1):
        stored = runner.nodes[i].program.peer_keys[victim]
        assert stored == impersonator.chain_key.verify_key

    # and the victim is completely unaware: it never outputs alert
    for unit in range(4):
        assert execution.alerts_in_unit(victim, unit) == 0
    assert ALERT not in execution.outputs_of(victim)


def test_rekey_with_wrong_old_key_rejected():
    """Sanity check on the strawman itself: a rekey signed with an
    unrelated key is rejected (the attack needs the genuinely stolen
    key, not nothing)."""
    import random

    from repro.core.naive import NAIVE_REKEY, _rekey_bytes
    from repro.sim.adversary_api import Adversary, faithful_delivery

    class BadRekey(Adversary):
        def deliver(self, api, info, traffic):
            plan = faithful_delivery(traffic, api.n)
            if info.round == SCHED.refresh_start(1):
                rng = random.Random(1)
                wrong = SCHEME.generate(rng)
                fake = SCHEME.generate(rng)
                sig = SCHEME.sign(wrong.signing_key,
                                  _rekey_bytes(SCHEME, 4, 1, fake.verify_key))
                for receiver in range(api.n - 1):
                    plan[receiver].append(api.forge_envelope(
                        4, receiver, NAIVE_REKEY, ("rekey", 1, fake.verify_key, sig)))
            return plan

    execution, runner = run(adversary=BadRekey(), units=2)
    # victims' peers still track the victim's true key: messages flow
    r = SCHED.first_normal_round(1)
    execution2, runner2 = run(adversary=BadRekey(), units=2,
                              sends=[(4, r + 1, 0, "still-me")])
    assert ("app-recv", 4, "naive-app", "still-me") in execution2.outputs_of(0)


def test_forged_key_announcement_is_dropped():
    """A key announcement that is not ``("key", k)``, injected in the
    first normal round, is dropped: the run ends as the passive run does
    (it used to raise on the first such envelope)."""
    from repro.analysis.digest import outcome_digest
    from repro.sim.adversary_api import Adversary, faithful_delivery

    class ForgeKey(Adversary):
        def deliver(self, api, info, traffic):
            plan = faithful_delivery(traffic, api.n)
            if info.round == SCHED.first_normal_round(0):
                plan[1].append(api.forge_envelope(0, 1, "naive-key", 5))
            return plan

    r = SCHED.first_normal_round(1)
    sends = [(0, r, 1, "hello")]
    forged, _ = run(adversary=ForgeKey(), units=2, sends=sends)
    passive, _ = run(units=2, sends=sends)
    assert ("app-recv", 0, "naive-app", "hello") in forged.outputs_of(1)
    assert outcome_digest(forged) == outcome_digest(passive)



def test_forged_rekeys_are_dropped_and_leave_no_state():
    """Forged rekeys, each round one whose unit cannot key the
    first-rekey-per-unit table and one naming a fresh unit, are dropped:
    the run ends as the passive run does, and the table records a unit
    only once a rekey in it verifies (the first kind used to raise, the
    second to leave an entry each)."""
    from repro.analysis.digest import outcome_digest
    from repro.sim.adversary_api import Adversary, faithful_delivery

    class ForgeRekeys(Adversary):
        rounds = 0

        def deliver(self, api, info, traffic):
            plan = faithful_delivery(traffic, api.n)
            self.rounds += 1
            for unit in ([1], 1000 + self.rounds):
                plan[1].append(api.forge_envelope(
                    0, 1, "naive-rekey", ("rekey", unit, None, None)))
            return plan

    r = SCHED.first_normal_round(1)
    sends = [(0, r, 1, "hello")]
    forger = ForgeRekeys()
    forged, forged_runner = run(adversary=forger, units=2, sends=sends)
    passive, passive_runner = run(units=2, sends=sends)
    assert forger.rounds > 0
    assert ("app-recv", 0, "naive-app", "hello") in forged.outputs_of(1)
    assert outcome_digest(forged) == outcome_digest(passive)
    assert forged_runner.nodes[1].program._rekeyed == passive_runner.nodes[1].program._rekeyed
