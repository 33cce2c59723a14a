"""The §6 erasure discipline, checked the hard way.

"A basic assumption underlying the proactive approach is that the nodes
successfully and completely erase certain pieces of sensitive data in
each refreshment phase."  A break-in *after* a refresh must not find the
previous unit's share or signing key anywhere in the node's mutable
state.  These tests snapshot the sensitive values, run a refresh, then
walk the entire reachable object graph of the program (exactly what the
simulator hands an intruder) and assert the old values are gone.
"""

from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
SCHED = uls_schedule()


def reachable_values(root, max_items=200_000):
    """Every int/bytes value reachable from ``root``'s attributes —
    what a memory-scraping intruder would search."""
    seen = set()
    found = set()
    stack = [root]
    while stack and len(seen) < max_items:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (int, float, complex)) and not isinstance(obj, bool):
            found.add(obj)
            continue
        if isinstance(obj, (bytes, str)):
            found.add(obj)
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
        elif hasattr(obj, "__slots__"):
            for slot in obj.__slots__:
                try:
                    stack.append(getattr(obj, slot))
                except AttributeError:
                    pass
    return found


def run_network(units, wire="paper"):
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=21)
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(N)]
    runner = ULRunner(programs, PassiveAdversary(), SCHED, s=T, seed=21)
    return programs, runner


def test_old_share_not_reachable_after_refresh(wire):
    programs, runner = run_network(units=2, wire=wire)
    old_shares = [p.state.share.value for p in programs]
    runner.run(units=2)
    for program, old_value in zip(programs, old_shares):
        assert program.state.share.value != old_value
        values = reachable_values(program)
        assert old_value not in values, (
            "the pre-refresh share survives in the node's memory — a "
            "break-in now would retroactively compromise the old unit"
        )


def test_old_local_signing_key_not_reachable_after_refresh(wire):
    programs, runner = run_network(units=2, wire=wire)
    old_keys = [p.keystore.current.keypair.signing_key.x for p in programs]
    runner.run(units=2)
    for program, old_x in zip(programs, old_keys):
        values = reachable_values(program)
        assert old_x not in values, "the unit-0 signing key was not erased"


def test_current_secrets_are_present(wire):
    """Sanity check on the scanner itself: the *current* secrets must be
    found (otherwise the negative assertions above prove nothing)."""
    programs, runner = run_network(units=2, wire=wire)
    runner.run(units=2)
    for program in programs:
        values = reachable_values(program)
        assert program.state.share.value in values
        assert program.keystore.current.keypair.signing_key.x in values
