"""The oracles agree on compact and full records.

``Runner(compact_records=True)`` drops every envelope once its round's
observers have seen it and keeps only the status fields (broken,
operational, unreliable links) and the traffic counts.  A verdict on no
programs (I1-I3, Definition 7, Definition 10 impersonation, global
awareness) and both limit audits replay exactly those fields plus the
node outputs, so they must return the same results in either mode.
Readers of traffic — the adaptive adversary's lens, the rounds digest and
the verdict's GOOD classification — see each round's full record live,
so attached to a compact run they must give what they give on the same
run with full records.
"""

import pathlib
import sys

import pytest

from repro.adversary.limits import audit_st_limited, audit_t_limited
from repro.adversary.strategies import InjectionFloodAdversary
from repro.analysis.digest import RoundsDigest, rounds_digest
from repro.analysis.verdict import Verdict, verdict
from repro.core.uls import NEWKEY_CHANNEL, UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.crypto.toy import BrokenScheme
from repro.faults import (
    AdaptiveAdversary,
    FaultInjectionAdversary,
    FaultPlan,
    TrafficTargeterStrategy,
)
from repro.sim.runner import ULRunner

# the benchmark modules import their siblings as top-level modules
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "benchmarks"))

from bench_e3_uls_security import BrokenCsForger  # noqa: E402

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
UNITS = 3
SCHED = uls_schedule()


def fault_plan(seed):
    return FaultInjectionAdversary(
        FaultPlan.generate(seed=seed, n=N, t=T, schedule=SCHED, units=UNITS))


def injection_flood(seed):
    """The §5.1 almost-(t,t)-limited injector: every node loses its
    certificate, so more than t nodes alert in one unit."""
    return InjectionFloodAdversary(
        payload_factory=lambda c, r, rng: (
            "newkey", 1, SCHEME.key_repr(SCHEME.generate(rng).verify_key)),
        channel=NEWKEY_CHANNEL,
        flood_factor=1,
    )


ADVERSARIES = {"fault-plan": fault_plan, "injection-flood": injection_flood}


def uls_runner(adversary, seed, compact, scheme=SCHEME, units=UNITS):
    """A ULS runner with one signing request per node and unit, and its
    programs."""
    _, states, keys = build_uls_states(GROUP, scheme, N, T, seed=seed)
    programs = [UlsProgram(states[i], scheme, keys[i]) for i in range(N)]
    runner = ULRunner(programs, adversary, SCHED, s=T, seed=seed, compact_records=compact)
    for unit in range(units):  # so that I1 and I2 have requests to judge
        for node in range(N):
            runner.add_external_input(node, SCHED.first_normal_round(unit), ("sign", f"m{unit}"))
    return runner, programs


def oracles(adversary, seed, compact):
    runner, _ = uls_runner(ADVERSARIES[adversary](seed), seed, compact)
    execution = runner.run(units=UNITS)
    return (
        verdict(execution, T, ()),
        audit_st_limited(execution, T),
        audit_t_limited(execution, T),
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_post_hoc_oracles_agree_on_compact_and_full_records(adversary, seed):
    full = oracles(adversary, seed, compact=False)
    assert oracles(adversary, seed, compact=True) == full
    if adversary == "injection-flood":
        assert full[0].model_exceeded_units == (1, 2)


def test_adaptive_lens_reads_a_compact_run():
    """The traffic targeter ranks links by the traffic its lens counted,
    so it plans a compact run exactly as it plans the full one."""
    runs = []
    for compact in (False, True):
        adversary = AdaptiveAdversary(TrafficTargeterStrategy(), T, seed=1)
        runner, _ = uls_runner(adversary, 1, compact)
        runner.observers.append(adversary.lens)
        runs.append(runner.run(units=UNITS))
    full, compact = runs
    assert any(entry[0] == "adaptive-plan" for entry in full.adversary_output)
    assert compact.adversary_output == full.adversary_output
    assert compact.system_log == full.system_log


def test_live_digest_and_classification_of_a_compact_run_match_their_replay():
    """E3's broken-CS control, recorded compactly, with a live
    ``RoundsDigest`` and ``Verdict``: the digest and the verdict, BAD3
    included, are what replaying them over the same run with full records
    gives."""
    scheme = BrokenScheme()
    runner, programs = uls_runner(BrokenCsForger(victim=0, destination=1), 0, True,
                                  scheme=scheme, units=2)
    digest, judge = RoundsDigest(), Verdict(T, programs, fail_fast=False)
    runner.observers += [digest, judge]
    compact = runner.run(units=2)
    runner, full_programs = uls_runner(BrokenCsForger(victim=0, destination=1), 0, False,
                                       scheme=scheme, units=2)
    full = runner.run(units=2)

    assert digest.hexdigest() == rounds_digest(full)
    report = judge.report(compact)
    assert report == verdict(full, T, full_programs)
    assert report.classification == "BAD3"
