"""The wire tables of :mod:`repro.wire` against honest traffic.

Small honest runs (n = 5, toy64) of every protocol that reads a body:
ULS on both refresh wires, Λ, the session layer, the distributed UGen,
the AL-model harness and the §1.3 strawman.  The ULS runs hold node 4
with a corrupted share through unit 1's normal phase, while the others
sign, and crash node 3 as unit 2's share refresh starts, so signer
reveals, recovery needs, blinds and helps, and zero reveals are sent.

Every body these runs send, of a kind some handler reads, must fit the
table of its channel; and every kind of every table must be sent at
least once, so a missing or stale entry fails too.
"""

import random

import pytest

from repro import wire
from repro.core.auth_send import AUTH_TAG
from repro.core.authenticator import compile_protocol
from repro.core.disperse import DISPERSE_CHANNEL, DisperseService
from repro.core.naive import NAIVE_APP, NAIVE_REKEY
from repro.core.sessions import SESSION_CHANNEL
from repro.core.uls import (
    _O_PART2,
    CERT_TAG,
    NEWKEY_CHANNEL,
    UlsProgram,
    build_uls_states,
    uls_schedule,
)
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import FaultInjectionAdversary, FaultPlan, breakins
from repro.faults.plan import CrashFault, default_corruptor
from repro.pds.dkg import DkgUGenProgram
from repro.pds.harness import PdsNodeProgram
from repro.pds.keys import deal_initial_states
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Schedule
from repro.sim.runner import ALRunner, ULRunner
from tests.core.test_emulation_equivalence import TalkativeProtocol
from tests.core.test_naive import SCHED as NAIVE_SCHED, run as run_naive
from tests.core.test_sessions import build as build_sessions, run as run_sessions

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2

#: the tables an AUTH-SEND body's kind is read against
AUTH_TABLES = {"PA1": wire.PA1, "APP": wire.APP, "SIGNER": wire.SIGNER,
               "REFRESH": wire.REFRESH}
#: AUTH-SEND kinds no handler reads by kind: the session layer takes
#: the sender's key off any certified message
UNREAD = {"sess-hello"}
#: raw-link channel -> the tables its readers check
RAW_TABLES = {
    NEWKEY_CHANNEL: {"NEWKEY": wire.NEWKEY},
    SESSION_CHANNEL: {"SESSION": wire.SESSION},
    "dkg": {"DKG": wire.DKG},
    "pds": {"SIGNER": wire.SIGNER, "REFRESH": wire.REFRESH},
    "naive-key": {"NAIVE_KEY": wire.NAIVE_KEY},
    NAIVE_REKEY: {"NAIVE_REKEY": wire.NAIVE_REKEY},
    NAIVE_APP: {"NAIVE_APP": wire.NAIVE_APP},
}


def _uls_run(wire_format):
    sched = uls_schedule()
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=1)
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire_format) for i in range(N)]
    part2 = sched.refresh_start(2) + _O_PART2
    plan = breakins(sched, {1: [4]}, default_corruptor).extended(
        FaultPlan(crashes=(CrashFault(3, part2, part2 + 1),)))
    runner = ULRunner(programs, FaultInjectionAdversary(plan), sched, s=T, seed=1)
    for node in range(4):
        runner.add_external_input(node, sched.first_normal_round(1), ("sign", "doc"))
    return runner.run(units=3)


def _lambda_run():
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=2)
    programs = compile_protocol([TalkativeProtocol() for _ in range(N)], states, SCHEME, keys)
    return ULRunner(programs, PassiveAdversary(), uls_schedule(), s=T, seed=2).run(units=1)


def _session_run():
    _, programs = build_sessions()
    return run_sessions(programs, units=1)


def _dkg_run():
    programs = [DkgUGenProgram(GROUP, N, T, SCHEME) for _ in range(N)]
    sched = Schedule(setup_rounds=3, refresh_rounds=1, normal_rounds=8)
    return ALRunner(programs, PassiveAdversary(), sched, seed=4).run(units=1)


def _harness_run():
    _, states = deal_initial_states(GROUP, N, T, random.Random(5))
    sched = Schedule(setup_rounds=1, refresh_rounds=5, normal_rounds=8)
    runner = ALRunner([PdsNodeProgram(state) for state in states], PassiveAdversary(),
                      sched, seed=5)
    for node in range(N):
        runner.add_external_input(node, sched.first_normal_round(0), ("sign", "doc"))
    return runner.run(units=2)


def _naive_run():
    sends = [(0, NAIVE_SCHED.first_normal_round(1), 1, "hello")]
    return run_naive(units=2, sends=sends)[0]


@pytest.fixture(scope="module")
def traffic():
    """``(channel or DISPERSE tag, body)`` of every body the runs send;
    DISPERSE bodies are taken where a protocol hands them to DISPERSE."""
    sent = []
    send = DisperseService.send

    def record_send(self, ctx, receiver, body, tag="", retransmit=None):
        sent.append((tag, body))
        send(self, ctx, receiver, body, tag, retransmit)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DisperseService, "send", record_send)
        executions = [_uls_run(w) for w in wire.WIRES]
        executions += [_lambda_run(), _session_run(), _dkg_run(), _harness_run(),
                       _naive_run()]
    for execution in executions:
        for record in execution.records:
            sent.extend((envelope.channel, envelope.payload) for envelope in record.sent
                        if envelope.channel != DISPERSE_CHANNEL)
    return sent


def _read(tables, body):
    """``(table, kind)`` of ``body`` in the one of ``tables`` that knows
    its kind, which it must fit."""
    for name, table in tables.items():
        if body[0] in table:
            assert wire.well_formed(body, table), (name, body)
            return name, body[0]
    raise AssertionError(f"no table reads {body!r}")


def _certified(raw):
    assert wire.fits(raw, wire.CERTIFIED), raw
    return raw.message


def _members_read(message):
    """Check each member of a certified message (a pack's members, or
    the message); return the ``(table, kind)`` pairs read."""
    seen = set()
    if wire.well_formed(message, wire.PACK):
        seen.add(("PACK", "pack"))
    for member in wire.unpack(message, wire.PACK):
        if member[0] in UNREAD:
            continue
        seen.add(_read(AUTH_TABLES, member))
        if member[0] == "app":
            assert wire.fits(member[1], wire.LAMBDA), member
            seen.add(("LAMBDA", None))
    return seen


def _kinds_read(traffic):
    """Check every body against its tables; return the ``(table, kind)``
    pairs read (``(table, None)`` for the kind-less ones)."""
    seen = set()
    for channel, body in traffic:
        if channel == AUTH_TAG:
            seen.add(("CERTIFIED", None))
            seen |= _members_read(_certified(body))
        elif channel == "pa3":
            raws = (body,)
            if wire.well_formed(body, wire.PA3):
                seen.add(("PA3", "pa3b"))
                raws = body[1]
            for raw in raws:
                assert "pa1" in {member[0] for member in wire.unpack(_certified(raw), wire.PACK)}
                seen |= _members_read(raw.message)
        elif channel == CERT_TAG:
            seen.add(_read({"CERT": wire.CERT}, body))
        elif channel in RAW_TABLES:
            seen.add(_read(RAW_TABLES[channel], body))
        else:
            raise AssertionError(f"no table for channel {channel!r}")
    return seen


def test_honest_bodies_fit_and_every_kind_is_sent(traffic):
    tables = {**AUTH_TABLES, "PACK": wire.PACK, "PA3": wire.PA3, "CERT": wire.CERT}
    for channel_tables in RAW_TABLES.values():
        tables.update(channel_tables)
    expected = {(name, kind) for name, table in tables.items() for kind in table}
    expected |= {("CERTIFIED", None), ("LAMBDA", None)}
    assert _kinds_read(traffic) == expected


def test_fits_and_well_formed():
    assert wire.fits((1, b"x"), (int, bytes))
    assert wire.fits((True, b"x"), (int, bytes))  # a bool is an int
    assert not wire.fits([1, b"x"], (int, bytes))
    assert not wire.fits((1,), (int, bytes))
    assert wire.well_formed(("rf-need", 1), wire.REFRESH)
    for body in [(), ("rf-need",), ("rf-need", 1, "esc"), ("rf-nope", 1), ([1], 1),
                 "rf-need", None]:
        assert not wire.well_formed(body, wire.REFRESH)


def test_unpack_reads_one_level_of_pack():
    bodies = (("app", 1), ("rf-need", 2))
    assert wire.unpack(("pack", bodies), wire.PACK) == bodies
    assert wire.unpack(("pack", ()), wire.PACK) == ()
    inner = ("pack", bodies)
    assert wire.unpack(("pack", (inner,)), wire.PACK) == (inner,)
    for bare in [("app", 1), ("pack", list(bodies)), ("pack", bodies, 1), ("pack",), 5]:
        assert wire.unpack(bare, wire.PACK) == (bare,)
    raws = (("m",) * 8,)
    assert wire.unpack(("pa3b", raws), wire.PA3) == raws
    assert wire.unpack(("pa3b", raws), wire.PACK) == (("pa3b", raws),)
