"""E3 — Theorem 14: ULS is (t,t)-secure, Monte-Carlo over adversaries.

On both refresh wire formats, every execution must be GOOD (no forged
messages, no operational node without keys — Defs. 17/18) with no
violation of the emulation invariants I1–I3, and its verdict
(:mod:`repro.analysis.verdict`) must be clean if it is within
Definition 7.  The replay adversary is not: re-delivering every
DISPERSE envelope makes every link unreliable, which the table's
Definition 7 column reports.

Scientific control: rerunning the *identical* protocol with the
deliberately forgeable toy scheme as CS (violating Theorem 14's EUF-CMA
premise) must produce BAD3 executions — showing the experiment actually
measures the property, not merely the absence of attack code.  The
forger runs on each wire, once in a point-to-point DISPERSE frame, once
in a frame to ``BROADCAST``, and once with its body inside a certified
``("pack", bodies)``, which receivers on both wires open.
"""

import random

import pytest

from repro.adversary.impersonation import UlsImpersonator
from repro.adversary.strategies import CutOffAdversary, ReplayAdversary
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

from common import GROUP, build_uls_network, corrupt_share, emit, format_table, judged_run

N, T = 5, 2
UNITS = 3
SEEDS = 5
KINDS = ("passive", "mobile", "mobile-corrupt", "replay", "cutoff-impersonate")


def make_adversary(kind: str, seed: int):
    if kind == "passive":
        return PassiveAdversary()
    if kind in ("mobile", "mobile-corrupt"):
        rng = random.Random(seed)
        victims = {u: rng.sample(range(N), T) for u in range(1, UNITS)}
        mutator = corrupt_share if kind == "mobile-corrupt" else None
        return FaultInjectionAdversary(breakins(uls_schedule(), victims, mutator))
    if kind == "replay":
        return ReplayAdversary(delay=3, channels={DISPERSE_CHANNEL})
    if kind == "cutoff-impersonate":
        victim = seed % N
        return CutOffAdversary(victim=victim, break_unit=1,
                               impersonator=UlsImpersonator(victim=victim))
    raise ValueError(kind)


def run_case(kind: str, seed: int, wire: str = "paper"):
    """The verdict report of one run of the catalogue."""
    _, _, runner, _ = build_uls_network(N, T, seed, make_adversary(kind, seed), wire=wire)
    return judged_run(runner, T, UNITS)[1]


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

    def body(self, info):
        """The forged AUTH-SEND body."""
        return ("app", ("forged-by-toy", info.round))

    def frame(self, raw):
        """The DISPERSE frame that carries the forged certified ``raw``."""
        return forwarding(AUTH_TAG, self.victim, self.destination, raw)

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        if self._template is None or info.phase is not Phase.NORMAL:
            return plan
        _, _, _, unit, _, _, verify_key, cert = self._template
        forged_message = self.body(info)
        body = encode_for_hash(
            ("auth-msg", forged_message, self.victim, self.destination, unit, info.round - 1)
        )
        signature = forge(verify_key, body)
        raw = (forged_message, self.victim, self.destination, unit, info.round - 1,
               signature, verify_key, cert)
        plan[self.receiver].append(api.forge_envelope(
            self.victim, self.receiver, DISPERSE_CHANNEL, self.frame(raw)))
        return plan


class PackedCsForger(BrokenCsForger):
    """Forges its ``app`` body as the one member of a certified pack,
    which receivers on both wires open."""

    def body(self, info):
        return ("pack", (super().body(info),))


#: the control's frames: name -> (forger class, the forged message's destination)
FRAMES = {"point-to-point": (BrokenCsForger, 1), "broadcast": (BrokenCsForger, BROADCAST),
          "pack": (PackedCsForger, 1)}


def run_broken_cs_control(forger: BrokenCsForger, wire: str = "paper", seed: int = 0):
    """The verdict report of a 2-unit run against ``forger``, and the
    number of forged messages its receiver accepted."""
    scheme = BrokenScheme()
    _, states, keys = build_uls_states(GROUP, scheme, N, T, seed=seed)
    programs = [UlsProgram(states[i], scheme, keys[i], wire=wire) for i in range(N)]
    report = judged_run(ULRunner(programs, forger, uls_schedule(), s=T, seed=seed), T, 2)[1]
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
            violations = within = clean = 0
            for seed in range(SEEDS):
                report = run_case(kind, seed, wire)
                outcomes[report.classification] += 1
                violations += len(report.violations)
                within += report.within_model
                clean += report.clean
                assert report.clean or not report.within_model, (
                    kind, wire, seed, report.problems())
            rows.append((kind, wire, SEEDS, within, outcomes["GOOD"], outcomes["BAD1"],
                         outcomes["BAD2"], outcomes["BAD3"], violations, clean))
            assert outcomes["GOOD"] == SEEDS, f"{kind} on the {wire} wire: non-good execution"
            assert violations == 0, f"{kind} on the {wire} wire: emulation invariant violated"
    # the negative control: EUF-CMA premise removed -> BAD3 appears
    for frame, (forger, destination) in FRAMES.items():
        for wire in WIRES:
            control, accepted = run_broken_cs_control(forger(destination=destination), wire)
            classification = control.classification
            rows.append((f"CONTROL broken-CS forger, {frame}", wire, 1,
                         int(control.within_model), int(classification == "GOOD"), 0,
                         int(classification == "BAD2"), int(classification == "BAD3"), "-",
                         int(control.clean)))
            assert accepted > 0, f"control ({frame}, {wire} wire): no forgery accepted"
            assert classification == "BAD3", (
                f"control ({frame}, {wire} wire) must expose the forgeable CS")
    return rows


def test_e3_uls_security(table, benchmark):
    emit("e3_uls_security", format_table(
        "E3  ULS (t,t)-security: execution classification x adversary (Thm. 14)",
        ["adversary", "wire", "runs", "within Def. 7", "GOOD", "BAD1", "BAD2", "BAD3",
         "invariant violations", "clean verdicts"],
        table,
    ))
    benchmark(lambda: run_case("passive", 123))
