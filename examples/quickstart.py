#!/usr/bin/env python3
"""Quickstart: a proactively-secure 5-node signing network under attack.

Builds the UL-model proactive distributed signature scheme (ULS) from the
paper, runs it for three time units while a mobile adversary breaks into
two different nodes every unit, and shows that:

- threshold signing works in every unit;
- signatures verify against the single, never-changing public key
  (the one each node keeps in ROM);
- broken nodes recover automatically at the next refreshment phase;
- nobody ever raises a false alert.

Run:  python examples/quickstart.py
"""

import random

from repro.core.uls import UlsProgram, build_uls_states, uls_schedule, verify_user_signature
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import FaultInjectionAdversary, breakins
from repro.sim.runner import ULRunner

N, T, UNITS, SEED = 5, 2, 3, 2026


def main() -> None:
    group = named_group("toy64")  # swap for "toy512" / "modp1024" for real sizes
    scheme = SchnorrScheme(group)

    print(f"== set-up: dealing a {T}-of-{N} proactive signature scheme")
    public, states, keys = build_uls_states(group, scheme, N, T, seed=SEED)
    print(f"   global verification key (goes in every node's ROM): "
          f"{public.public_key % 10**12:012d}...")

    programs = [UlsProgram(states[i], scheme, keys[i]) for i in range(N)]
    schedule = uls_schedule()

    rng = random.Random(SEED)
    victims = {u: rng.sample(range(N), T) for u in range(1, UNITS)}
    print(f"== adversary: mobile break-ins, {T} fresh victims per unit: "
          f"{ {u: sorted(v) for u, v in victims.items()} }")
    adversary = FaultInjectionAdversary(breakins(schedule, victims))

    runner = ULRunner(programs, adversary, schedule, s=T, seed=SEED)
    for unit in range(UNITS):
        round_number = schedule.first_normal_round(unit)
        for node in range(N):
            runner.add_external_input(node, round_number, ("sign", f"ledger-entry-{unit}"))

    print(f"== running {UNITS} time units "
          f"({schedule.total_rounds(UNITS)} communication rounds)...")
    execution = runner.run(units=UNITS)

    print("== results")
    for unit in range(UNITS):
        message = f"ledger-entry-{unit}"
        # any non-broken node holds the signature; broken ones missed it
        signature = next(
            (p.signatures[(message, unit)] for p in programs
             if (message, unit) in p.signatures),
            None,
        )
        ok = signature is not None and verify_user_signature(public, message, unit, signature)
        broken = str(sorted(execution.broken_in_unit(unit)) or "none")
        print(f"   unit {unit}: broken nodes {broken:<12}  "
              f"'{message}' signed and verified: {ok}")
        assert ok

    for program in programs:
        assert program.state.share_is_valid(), "every share healthy after refreshes"
        assert program.core.alert_units == [], "no false alerts"
    refreshes = {tuple(p.keystore.history) for p in programs}
    print(f"   key refreshes per node: {refreshes.pop()}")
    print(f"   total messages on the wire: {execution.messages_sent()}")
    print("== OK: signing survived repeated break-ins; all nodes recovered.")


if __name__ == "__main__":
    main()
