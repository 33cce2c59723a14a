"""GOOD classification reads every DISPERSE frame, to a node or to
``BROADCAST``, and every certified message in a step-3 pack.

A broadcast is DISPERSE to ``BROADCAST`` on either wire, so the
classifier's sent and delivered scans read it through the same
:func:`~repro.core.disperse.unframe` as a point-to-point send.  E3's
control — a no-break-in forger against the forgeable ``BrokenScheme`` —
must therefore be BAD3 whichever frame carries its forgeries.
"""

import pathlib
import sys

from repro.analysis.goodness import classify_execution
from repro.core.disperse import DISPERSE_CHANNEL, forwarding, unframe
from repro.wire import BROADCAST

# the benchmark modules import their siblings as top-level modules
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "benchmarks"))

from bench_e3_uls_security import N, T, BrokenCsForger, run_broken_cs_control  # noqa: E402
from common import SCHEME, build_uls_network, key_histories  # noqa: E402


def test_broadcast_frame_control_is_bad3(wire):
    """Forgeries certified and dispersed to ``BROADCAST``, which node 1
    accepts, are forgeries."""
    report, accepted = run_broken_cs_control(
        BrokenCsForger(victim=0, destination=BROADCAST), wire)
    assert accepted == 11
    assert report.classification == "BAD3"
    assert {item.message.destination for item in report.forged} == {BROADCAST}


class _PackForger(BrokenCsForger):
    """Puts each forgery alone in a PARTIAL-AGREEMENT step-3 pack."""

    def frame(self, raw):
        return forwarding("pa3", self.victim, BROADCAST, ("pa3b", (raw,)))


def test_forgery_in_a_step3_pack_is_bad3():
    report, _ = run_broken_cs_control(_PackForger(victim=0, destination=BROADCAST))
    assert report.classification == "BAD3"


def test_every_disperse_envelope_is_read():
    """In a passive aggregated-wire run, every DISPERSE envelope sent is a
    frame :func:`unframe` reads, broadcasts included, and the run is
    GOOD."""
    public, programs, runner, _ = build_uls_network(N, T, seed=0, wire="aggregated")
    execution = runner.run(units=2)
    sent = [envelope.payload for record in execution.records for envelope in record.sent
            if envelope.channel == DISPERSE_CHANNEL]
    frames = [unframe(payload) for payload in sent]
    assert len(sent) == 1780
    assert None not in frames
    assert any(frame[2] == BROADCAST for frame in frames)
    assert classify_execution(execution, public, SCHEME, key_histories(programs)).good
