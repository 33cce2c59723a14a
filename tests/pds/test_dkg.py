"""Tests for the distributed UGen (joint-Feldman DKG + certificates)."""

import pytest

from repro.core.uls import UlsProgram, uls_schedule, verify_user_signature
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.crypto.shamir import reconstruct_secret
from repro.pds.dkg import run_distributed_ugen
from repro.pds.threshold_schnorr import verify_pds_signature
from repro.core.certify import certificate_assertion
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2


@pytest.fixture(scope="module")
def ugen():
    return run_distributed_ugen(GROUP, SCHEME, N, T, seed=9)


def test_all_nodes_share_the_public_data(ugen):
    public, states, keys = ugen
    for state in states:
        assert state.public.public_key == public.public_key
        assert state.key_commitment == states[0].key_commitment
        assert state.share_is_valid()


def test_shares_reconstruct_the_public_key(ugen):
    public, states, keys = ugen
    secret = reconstruct_secret(GROUP.scalar_field, [s.share for s in states[:T + 1]])
    assert GROUP.base_power(secret) == public.public_key


def test_no_single_dealer_knows_the_secret(ugen, wire):
    """Structural check: the dealing sub-shares were erased after the
    combine step (each program's dealing table is empty)."""
    # re-run to access program internals
    from repro.pds.dkg import DkgUGenProgram
    from repro.sim.adversary_api import PassiveAdversary
    from repro.sim.clock import Schedule
    from repro.sim.runner import ALRunner

    programs = [DkgUGenProgram(GROUP, N, T, SCHEME, wire=wire) for _ in range(N)]
    runner = ALRunner(programs, PassiveAdversary(),
                      Schedule(setup_rounds=3, refresh_rounds=1, normal_rounds=8),
                      seed=9)
    runner.run(units=1)
    for program in programs:
        assert program._dealings == {}


def test_unit0_certificates_verify(ugen):
    public, states, keys = ugen
    for node, local_keys in enumerate(keys):
        assert local_keys.usable
        assertion = certificate_assertion(
            node, 0, SCHEME.key_repr(local_keys.keypair.verify_key)
        )
        assert verify_pds_signature(public, assertion, 0, local_keys.certificate)


def test_dkg_output_drives_a_full_uls_run(ugen, wire):
    """Drop-in interchangeability with build_uls_states: a complete ULS
    run (refresh + signing) on DKG-produced material."""
    public, states, keys = ugen
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(N)]
    schedule = uls_schedule()
    runner = ULRunner(programs, PassiveAdversary(), schedule, s=T, seed=4)
    r1 = schedule.first_normal_round(1)
    for i in range(N):
        runner.add_external_input(i, r1, ("sign", "dkg-backed"))
    execution = runner.run(units=2)
    for program in programs:
        assert program.core.alert_units == []
        assert program.keystore.history == [(1, "ok")]
    signature = programs[0].signatures[("dkg-backed", 1)]
    assert verify_user_signature(public, "dkg-backed", 1, signature)
