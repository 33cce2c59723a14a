"""The post-hoc oracles read only what compact records keep.

``Runner(compact_records=True)`` drops every envelope the moment its
round ends and keeps only the status fields (broken, operational,
unreliable links) and the traffic counts.  The I1-I3 check, both limit
audits and global awareness replay exactly those fields plus the node
outputs, so they must return the same results in either mode.
"""

import pytest

from repro.adversary.limits import audit_st_limited, audit_t_limited
from repro.adversary.strategies import InjectionFloodAdversary
from repro.analysis import check_emulation_invariants, global_awareness
from repro.core.uls import NEWKEY_CHANNEL, UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import FaultInjectionAdversary, FaultPlan
from repro.sim.runner import ULRunner

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


def oracles(adversary, seed, compact):
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [UlsProgram(states[i], SCHEME, keys[i]) for i in range(N)]
    runner = ULRunner(programs, ADVERSARIES[adversary](seed), SCHED, s=T, seed=seed,
                      compact_records=compact)
    for unit in range(UNITS):  # so that I1 and I2 have requests to judge
        for node in range(N):
            runner.add_external_input(node, SCHED.first_normal_round(unit), ("sign", f"m{unit}"))
    execution = runner.run(units=UNITS)
    return (
        check_emulation_invariants(execution, T),
        audit_st_limited(execution, T),
        audit_t_limited(execution, T),
        global_awareness(execution, T),
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_post_hoc_oracles_agree_on_compact_and_full_records(adversary, seed):
    full = oracles(adversary, seed, compact=False)
    assert oracles(adversary, seed, compact=True) == full
    if adversary == "injection-flood":
        assert full[3].model_exceeded_units == (1, 2)
