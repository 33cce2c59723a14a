"""Blame-attribution parity: batched verifiers vs. their per-item fallbacks.

The batched verifiers (`verify_shares_batch`, the partial-signature RLC
check, batched VER-CERT) fall back to per-item verification whenever a
batch fails, so the *blame records* — ``RefreshService.rejected_dealers``
and ``ThresholdSigner.rejected_partials`` — must be identical to those of
a run that checks every item alone (the ``per_item`` reference), under
faults as well as in the all-honest case.  Three angles:

* seeded E13-style chaos runs of the full ULS (property test),
* a deterministic `_on_zero_deals` drive with a forged share and a
  non-zero-constant dealing (guaranteed-nonempty blame), and
* an AL PDS run where one signer's share is corrupted mid-unit
  (guaranteed-nonempty ``rejected_partials`` on the honest nodes).
"""

import random

import pytest

from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.feldman import FeldmanDealer
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.crypto.shamir import Share
from repro.faults import FaultInjectionAdversary, FaultPlan
from repro.pds.harness import PdsNodeProgram, required_refresh_rounds
from repro.pds.keys import deal_initial_states
from repro.pds.refresh import RefreshService
from repro.pds.transport import DirectTransport
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Schedule
from repro.sim.runner import ALRunner, ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
ULS_SCHED = uls_schedule()


# ------------------------------------------------ chaos property test

def _run_uls_chaos(seed: int):
    plan = FaultPlan.generate(seed=seed, n=N, t=T, schedule=ULS_SCHED, units=2)
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [
        UlsProgram(states[i], SCHEME, keys[i], cert_retransmit=1, cert_grace_rounds=1)
        for i in range(N)
    ]
    runner = ULRunner(programs, FaultInjectionAdversary(plan), ULS_SCHED,
                      s=T, seed=seed)
    execution = runner.run(units=2)
    return (
        execution.global_output(),
        [frozenset(p.core.refresher.rejected_dealers) for p in programs],
        [frozenset(p.core.signer.rejected_partials) for p in programs],
    )


@pytest.mark.parametrize("seed", [101, 107, 113])
def test_uls_chaos_blame_parity(perf, per_item, seed):
    output_batched, dealers_batched, partials_batched = _run_uls_chaos(seed)
    per_item()
    output_single, dealers_single, partials_single = _run_uls_chaos(seed)
    assert output_batched == output_single
    assert dealers_batched == dealers_single
    assert partials_batched == partials_single


# --------------------------------------- deterministic refresh blame

def _drive_zero_deals() -> tuple[set, dict]:
    rng = random.Random(31)
    public, states = deal_initial_states(GROUP, n=N, threshold=T, rng=rng)
    service = RefreshService(states[0], DirectTransport())
    phase = service._open(unit=1, start_round=0)
    dealer = FeldmanDealer(GROUP, n=N, threshold=T)
    my_x = states[0].share_index
    run = []
    for sender in (1, 2, 3):
        dealing = dealer.deal_zero(rng)
        value = dealing.shares[my_x - 1].value
        if sender == 3:
            value = (value + 1) % GROUP.q  # forged sub-share
        run.append((sender, ("rf-zdeal", 1, dealing.commitment.elements, value)))
    nonzero = dealer.deal(5, rng)  # constant term != 0: not a zero sharing
    run.append((4, ("rf-zdeal", 1, nonzero.commitment.elements,
                    nonzero.shares[my_x - 1].value)))
    service._on_zero_deals(run, phase)
    return service.rejected_dealers, phase.zeros.dealings


def test_zero_deal_blame_deterministic(perf, per_item):
    rejected_batched, dealings_batched = _drive_zero_deals()
    per_item()
    rejected_single, dealings_single = _drive_zero_deals()

    # exact blame either way: dealer 3 forged its sub-share, dealer 4
    # dealt a non-zero sharing
    assert rejected_batched == rejected_single == {(1, 3), (1, 4)}
    for dealings in (dealings_batched, dealings_single):
        # the forged dealing is recorded with an unusable share ...
        assert dealings[3][1] is None
        # ... the non-zero dealing is rejected outright (never acked)
        assert 4 not in dealings
        # honest dealers' sub-shares survive
        assert dealings[1][1] is not None
        assert dealings[2][1] is not None
    assert {d: value for d, (_, value) in dealings_batched.items()} == \
        {d: value for d, (_, value) in dealings_single.items()}


# --------------------------------------- corrupted-signer AL parity

AL_SCHED = Schedule(setup_rounds=1, refresh_rounds=required_refresh_rounds(1),
                    normal_rounds=8)


class CorruptedSigner(PdsNodeProgram):
    """Flips its own share value at the first normal round of unit 0, so
    every partial signature it later emits fails verification."""

    def step(self, ctx, inbox):
        if ctx.info.round == AL_SCHED.first_normal_round(0) and self.state.share:
            share = self.state.share
            self.state.share = Share(x=share.x, value=(share.value + 1) % GROUP.q)
        super().step(ctx, inbox)


def _run_corrupted_signing(seed: int = 41):
    public, states = deal_initial_states(GROUP, n=N, threshold=T,
                                         rng=random.Random(seed))
    programs = [CorruptedSigner(states[0])] + [
        PdsNodeProgram(state) for state in states[1:]
    ]
    runner = ALRunner(programs, PassiveAdversary(), AL_SCHED, seed=seed)
    r = AL_SCHED.first_normal_round(0)
    for node_id in range(N):
        runner.add_external_input(node_id, r, ("sign", "parity"))
    execution = runner.run(units=1)
    return (
        execution.global_output(),
        [frozenset(p.signer.rejected_partials) for p in programs],
    )


def test_corrupted_partial_blame_parity(perf, per_item):
    output_batched, rejected_batched = _run_corrupted_signing()
    per_item()
    output_single, rejected_single = _run_corrupted_signing()

    assert output_batched == output_single
    assert rejected_batched == rejected_single
    # every honest node blames node 0's share index, both ways
    for node_id in range(1, N):
        assert rejected_batched[node_id], node_id
        assert all(index == 1 for _, index in rejected_batched[node_id])
