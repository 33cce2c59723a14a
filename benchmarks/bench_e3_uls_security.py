"""E3 — Theorem 14: ULS is (t,t)-secure, Monte-Carlo over adversaries.

For every adversary within the (t,t) limits, every execution must be
GOOD (no forged messages, no operational node without keys — Defs. 17/18)
and satisfy the emulation invariants derived from the ideal process.

Scientific control: rerunning the *identical* protocol with the
deliberately forgeable toy scheme as CS (violating Theorem 14's EUF-CMA
premise) must produce BAD3 executions — showing the experiment actually
measures the property, not merely the absence of attack code.
"""

import pytest

from repro.adversary.impersonation import UlsImpersonator
from repro.adversary.strategies import CutOffAdversary, ReplayAdversary
from repro.analysis.emulation import check_emulation_invariants
from repro.analysis.goodness import classify_execution
from repro.core.auth_send import AUTH_TAG
from repro.core.disperse import DISPERSE_CHANNEL, forwarding, unframe
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.toy import BrokenScheme, forge
from repro.faults import FaultInjectionAdversary, breakins
from repro.sim.adversary_api import Adversary, PassiveAdversary, faithful_delivery
from repro.sim.clock import Phase
from repro.sim.runner import ULRunner
from repro.wire import CERTIFIED, fits

from common import GROUP, SCHEME, build_uls_network, certified_key_reprs, emit, format_table, key_histories

N, T = 5, 2
UNITS = 3
SEEDS = 5


def make_adversary(kind: str, seed: int):
    if kind == "passive":
        return PassiveAdversary()
    if kind in ("mobile", "mobile-corrupt"):
        import random

        def corruptor(program, rng):
            from repro.crypto.shamir import Share

            state = program.state
            state.share = Share(x=state.share_index, value=rng.randrange(GROUP.q))

        rng = random.Random(seed)
        victims = {u: rng.sample(range(N), T) for u in range(1, UNITS)}
        mutator = corruptor if kind == "mobile-corrupt" else None
        return FaultInjectionAdversary(breakins(uls_schedule(), victims, mutator))
    if kind == "replay":
        return ReplayAdversary(delay=3, channels={DISPERSE_CHANNEL})
    if kind == "cutoff-impersonate":
        victim = seed % N
        return CutOffAdversary(victim=victim, break_unit=1,
                               impersonator=UlsImpersonator(victim=victim))
    raise ValueError(kind)


def run_case(kind: str, seed: int):
    adversary = make_adversary(kind, seed)
    public, programs, runner, schedule = build_uls_network(N, T, seed, adversary)
    execution = runner.run(units=UNITS)
    goodness = classify_execution(
        execution, public, SCHEME, key_histories(programs), T,
        certified_keys=certified_key_reprs(programs),
    )
    invariants = check_emulation_invariants(execution, T)
    return goodness, invariants


class BrokenCsForger(Adversary):
    """Against ULS-with-BrokenScheme: harvest any certified message of the
    victim from observed traffic, then forge fresh messages under the same
    (key, certificate) with the unkeyed-hash forgery — no break-ins at
    all."""

    def __init__(self, victim: int = 0) -> None:
        self.victim = victim
        self._template = None

    def on_round(self, api, info, traffic):
        if self._template is not None:
            return
        for envelope in traffic:
            if envelope.channel != DISPERSE_CHANNEL or envelope.sender != self.victim:
                continue
            frame = unframe(envelope.payload, relayed=False)
            if frame is not None and fits(frame[3], CERTIFIED):
                msg = frame[3]
                if msg[1] == self.victim:
                    self._template = msg
                    return

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        if self._template is None or info.phase is not Phase.NORMAL:
            return plan
        from repro.crypto.hashing import encode_for_hash

        _, _, _, unit, _, _, verify_key, cert = self._template
        receiver = (self.victim + 1) % api.n
        forged_message = ("app", ("forged-by-toy", info.round))
        body = encode_for_hash(
            ("auth-msg", forged_message, self.victim, receiver, unit, info.round - 1)
        )
        signature = forge(verify_key, body)
        raw = (forged_message, self.victim, receiver, unit, info.round - 1,
               signature, verify_key, cert)
        plan[receiver].append(api.forge_envelope(
            self.victim, receiver, DISPERSE_CHANNEL,
            forwarding(AUTH_TAG, self.victim, receiver, raw)))
        return plan


def run_broken_cs_control(seed: int):
    scheme = BrokenScheme()
    public, states, keys = build_uls_states(GROUP, scheme, N, T, seed=seed)
    programs = [UlsProgram(states[i], scheme, keys[i]) for i in range(N)]
    runner = ULRunner(programs, BrokenCsForger(victim=0), uls_schedule(), s=T, seed=seed)
    execution = runner.run(units=2)
    return classify_execution(
        execution, public, scheme, key_histories(programs), T,
        certified_keys=certified_key_reprs(programs),
    )


@pytest.fixture(scope="module")
def table():
    rows = []
    for kind in ("passive", "mobile", "mobile-corrupt", "replay", "cutoff-impersonate"):
        outcomes = {"GOOD": 0, "BAD1": 0, "BAD2": 0, "BAD3": 0}
        violations = 0
        for seed in range(SEEDS):
            goodness, invariants = run_case(kind, seed)
            outcomes[goodness.classification] += 1
            violations += len(invariants.violations)
        rows.append((kind, SEEDS, outcomes["GOOD"], outcomes["BAD1"],
                     outcomes["BAD2"], outcomes["BAD3"], violations))
        assert outcomes["GOOD"] == SEEDS, f"{kind}: non-good execution"
        assert violations == 0, f"{kind}: emulation invariant violated"
    # the negative control: EUF-CMA premise removed -> BAD3 appears
    control = run_broken_cs_control(seed=0)
    rows.append(("CONTROL broken-CS forger", 1,
                 1 if control.classification == "GOOD" else 0, 0,
                 1 if control.classification == "BAD2" else 0,
                 1 if control.classification == "BAD3" else 0, "-"))
    assert control.classification == "BAD3", "control must expose the forgeable CS"
    return rows


def test_e3_uls_security(table, benchmark):
    emit("e3_uls_security", format_table(
        "E3  ULS (t,t)-security: execution classification x adversary (Thm. 14)",
        ["adversary", "runs", "GOOD", "BAD1", "BAD2", "BAD3", "invariant violations"],
        table,
    ))
    benchmark(lambda: run_case("passive", 123))
