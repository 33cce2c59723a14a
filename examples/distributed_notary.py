#!/usr/bin/env python3
"""A proactively-secure distributed notary.

The workload the paper's machinery is made for: a service whose signature
must stay trustworthy for years, on infrastructure that *will* get
compromised occasionally.

Five notary servers share a signing key ``2-of-5``.  Clients submit
documents; when at least ``t + 1 = 3`` servers approve a document within
one time unit, the network produces a single ordinary Schnorr signature
on it.  Anyone can verify that signature offline, forever, against the
one public key burned into ROM at installation — break-ins, share
refreshes and recoveries in between are invisible to verifiers.

The run below notarizes one document per unit while:

- unit 1: two servers are broken into (their shares and keys stolen);
- unit 2: one of yesterday's stolen shares is used in a forgery attempt —
  which fails, because the refresh re-randomized every share.

Run:  python examples/distributed_notary.py
"""

from repro.core.uls import UlsProgram, build_uls_states, uls_schedule, verify_user_signature
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import FaultInjectionAdversary, breakins
from repro.sim.runner import ULRunner

N, T, UNITS, SEED = 5, 2, 3, 11


def main() -> None:
    group = named_group("toy64")
    scheme = SchnorrScheme(group)
    public, states, keys = build_uls_states(group, scheme, N, T, seed=SEED)
    programs = [UlsProgram(states[i], scheme, keys[i]) for i in range(N)]
    schedule = uls_schedule()

    # a mutator that copies the share out instead of damaging it
    stolen = []
    adversary = FaultInjectionAdversary(breakins(
        schedule, {1: {0, 1}},
        mutator=lambda program, rng: stolen.append(program.state.share),
    ))
    runner = ULRunner(programs, adversary, schedule, s=T, seed=SEED)

    documents = {
        0: "deed: parcel 17 transferred to A. Turing",
        1: "will: last testament of C. Shannon",
        2: "patent: method for proactive key refresh",
    }
    for unit, document in documents.items():
        round_number = schedule.first_normal_round(unit)
        # clients broadcast the document to every notary; compromised ones
        # simply don't respond — any t+1 honest approvals suffice
        for notary in range(N):
            runner.add_external_input(notary, round_number, ("sign", document))

    print(f"notarizing {len(documents)} documents over {UNITS} time units;")
    print("servers 0 and 1 are compromised during unit 1.\n")
    execution = runner.run(units=UNITS)

    print(f"{'unit':<5} {'document':<45} {'notarized':<10} verifies")
    for unit, document in documents.items():
        signature = next(
            (p.signatures.get((document, unit)) for p in programs
             if p.signatures.get((document, unit)) is not None),
            None,
        )
        ok = signature is not None and verify_user_signature(public, document, unit, signature)
        print(f"{unit:<5} {document:<45} {str(signature is not None):<10} {ok}")
        assert ok

    # the stolen shares are worthless after the unit-2 refresh
    commitment = programs[2].state.key_commitment
    fresh = [commitment.verify_share(group, share) for share in stolen]
    print(f"\nstolen unit-1 shares still on the current polynomial: {fresh}")
    assert not any(fresh)

    # and a document nobody asked 3 notaries to sign was never notarized
    assert all(p.signatures.get(("forged deed", 2)) is None for p in programs)
    print("OK: continuous notarization through break-ins; stolen shares expired.")


if __name__ == "__main__":
    main()
