"""E3 — Theorem 14: ULS is (t,t)-secure, Monte-Carlo over adversaries.

For every adversary within the (t,t) limits, every execution must be
GOOD (no forged messages, no operational node without keys — Defs. 17/18)
and satisfy the emulation invariants derived from the ideal process, on
both refresh wire formats.

Scientific control: rerunning the *identical* protocol with the
deliberately forgeable toy scheme as CS (violating Theorem 14's EUF-CMA
premise) must produce BAD3 executions — showing the experiment actually
measures the property, not merely the absence of attack code.  The
forger runs on each wire, once in a point-to-point DISPERSE frame and
once in a frame to ``BROADCAST``.
"""

import pytest

from repro.adversary.impersonation import UlsImpersonator
from repro.adversary.strategies import CutOffAdversary, ReplayAdversary
from repro.analysis.emulation import check_emulation_invariants
from repro.analysis.goodness import classify_execution
from repro.core.auth_send import AUTH_TAG
from repro.core.disperse import DISPERSE_CHANNEL, forwarding, unframe
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.hashing import encode_for_hash
from repro.crypto.toy import BrokenScheme, forge
from repro.faults import FaultInjectionAdversary, breakins
from repro.sim.adversary_api import Adversary, PassiveAdversary, faithful_delivery
from repro.sim.clock import Phase
from repro.sim.runner import ULRunner
from repro.wire import BROADCAST, CERTIFIED, WIRES, fits

from common import GROUP, SCHEME, build_uls_network, certified_key_reprs, emit, format_table, key_histories

N, T = 5, 2
UNITS = 3
SEEDS = 5
KINDS = ("passive", "mobile", "mobile-corrupt", "replay", "cutoff-impersonate")
#: the control's frames: name -> the forged message's destination
FRAMES = {"point-to-point": 1, "broadcast": BROADCAST}


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


def run_case(kind: str, seed: int, wire: str = "paper"):
    adversary = make_adversary(kind, seed)
    public, programs, runner, schedule = build_uls_network(N, T, seed, adversary, wire=wire)
    execution = runner.run(units=UNITS)
    goodness = classify_execution(
        execution, public, SCHEME, key_histories(programs), T,
        certified_keys=certified_key_reprs(programs),
    )
    invariants = check_emulation_invariants(execution, T)
    return goodness, invariants


class BrokenCsForger(Adversary):
    """Against ULS-with-BrokenScheme: harvest a certified message of the
    victim's current unit from observed traffic, then forge fresh
    messages under the same (key, certificate) with the unkeyed-hash
    forgery — no break-ins at all.

    Each forgery is certified and framed (:meth:`frame`) from the victim
    to ``destination`` and put into that node's inbox; with
    ``destination`` ``BROADCAST``, into node ``victim + 1``'s.
    """

    def __init__(self, victim: int = 0, destination: int = 1) -> None:
        self.victim = victim
        self.destination = destination
        self.receiver = (victim + 1) % N if destination == BROADCAST else destination
        self._template = None

    def on_round(self, api, info, traffic):
        if self._template is not None and self._template[3] == info.time_unit:
            return
        for envelope in traffic:
            if envelope.channel != DISPERSE_CHANNEL or envelope.sender != self.victim:
                continue
            frame = unframe(envelope.payload, relayed=False)
            if frame is not None and fits(frame[3], CERTIFIED):
                msg = frame[3]
                if msg[1] == self.victim and msg[3] == info.time_unit:
                    self._template = msg
                    return

    def frame(self, raw):
        """The DISPERSE frame that carries the forged certified ``raw``."""
        return forwarding(AUTH_TAG, self.victim, self.destination, raw)

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        if self._template is None or info.phase is not Phase.NORMAL:
            return plan
        _, _, _, unit, _, _, verify_key, cert = self._template
        forged_message = ("app", ("forged-by-toy", info.round))
        body = encode_for_hash(
            ("auth-msg", forged_message, self.victim, self.destination, unit, info.round - 1)
        )
        signature = forge(verify_key, body)
        raw = (forged_message, self.victim, self.destination, unit, info.round - 1,
               signature, verify_key, cert)
        plan[self.receiver].append(api.forge_envelope(
            self.victim, self.receiver, DISPERSE_CHANNEL, self.frame(raw)))
        return plan


def run_broken_cs_control(forger: BrokenCsForger, wire: str = "paper", seed: int = 0):
    """The classification of a 2-unit run against ``forger``, and the
    number of forged messages its receiver accepted."""
    scheme = BrokenScheme()
    public, states, keys = build_uls_states(GROUP, scheme, N, T, seed=seed)
    programs = [UlsProgram(states[i], scheme, keys[i], wire=wire) for i in range(N)]
    runner = ULRunner(programs, forger, uls_schedule(), s=T, seed=seed)
    execution = runner.run(units=2)
    report = classify_execution(
        execution, public, scheme, key_histories(programs), T,
        certified_keys=certified_key_reprs(programs),
    )
    accepted = sum(
        body[:1] == ("app",) and body[1][:1] == ("forged-by-toy",)
        for _, source, body in programs[forger.receiver].core.transport.accepted_log
        if source == forger.victim
    )
    return report, accepted


@pytest.fixture(scope="module")
def table():
    rows = []
    for kind in KINDS:
        for wire in WIRES:
            outcomes = {"GOOD": 0, "BAD1": 0, "BAD2": 0, "BAD3": 0}
            violations = 0
            for seed in range(SEEDS):
                goodness, invariants = run_case(kind, seed, wire)
                outcomes[goodness.classification] += 1
                violations += len(invariants.violations)
            rows.append((kind, wire, SEEDS, outcomes["GOOD"], outcomes["BAD1"],
                         outcomes["BAD2"], outcomes["BAD3"], violations))
            assert outcomes["GOOD"] == SEEDS, f"{kind} on the {wire} wire: non-good execution"
            assert violations == 0, f"{kind} on the {wire} wire: emulation invariant violated"
    # the negative control: EUF-CMA premise removed -> BAD3 appears
    for frame, destination in FRAMES.items():
        for wire in WIRES:
            control, accepted = run_broken_cs_control(
                BrokenCsForger(destination=destination), wire)
            classification = control.classification
            rows.append((f"CONTROL broken-CS forger, {frame}", wire, 1,
                         int(classification == "GOOD"), 0, int(classification == "BAD2"),
                         int(classification == "BAD3"), "-"))
            assert accepted > 0, f"control ({frame}, {wire} wire): no forgery accepted"
            assert classification == "BAD3", (
                f"control ({frame}, {wire} wire) must expose the forgeable CS")
    return rows


def test_e3_uls_security(table, benchmark):
    emit("e3_uls_security", format_table(
        "E3  ULS (t,t)-security: execution classification x adversary (Thm. 14)",
        ["adversary", "wire", "runs", "GOOD", "BAD1", "BAD2", "BAD3", "invariant violations"],
        table,
    ))
    benchmark(lambda: run_case("passive", 123))
