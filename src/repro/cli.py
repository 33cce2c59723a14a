"""Command-line interface: run the paper's scenarios from a shell.

::

    python -m repro.cli benign    --n 5 --t 2 --units 3
    python -m repro.cli breakins  --n 5 --t 2 --units 3 --seed 7
    python -m repro.cli cutoff    --victim 4 --units 4
    python -m repro.cli flood     --flood 2
    python -m repro.cli partition --n 64

Each scenario builds a ULS network, runs it under the corresponding
adversary with the run's :class:`~repro.analysis.verdict.Verdict`
attached and prints a short report from it (alerts, signature checks,
the Definition 7 audit).  Exit status is 1 if the verdict of a scenario
within the model is not clean or a scenario's own check failed — usable
as a smoke test in CI.  ``flood`` is beyond the model: it exits 0.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.adversary.impersonation import UlsImpersonator
from repro.adversary.strategies import CutOffAdversary, InjectionFloodAdversary
from repro.analysis.verdict import Verdict
from repro.core.uls import NEWKEY_CHANNEL, UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import NAMED_GROUP_NAMES, named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import FaultInjectionAdversary, breakins
from repro.scale.partition import PartitionPlan, flat_tolerance
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

__all__ = ["main"]


def _run(args, adversary, *, in_model: bool = True):
    """Run a scenario's network; returns its programs, its execution and
    the exit status of its verdict (1 if an in-model run is not clean)."""
    group = named_group(args.group)
    scheme = SchnorrScheme(group)
    _, states, keys = build_uls_states(group, scheme, args.n, args.t, seed=args.seed)
    programs = [UlsProgram(states[i], scheme, keys[i]) for i in range(args.n)]
    schedule = uls_schedule()
    judge = Verdict(args.t, programs, fail_fast=False)
    runner = ULRunner(programs, adversary, schedule, s=args.t, seed=args.seed,
                      observers=[judge])
    for unit in range(args.units):
        round_number = schedule.first_normal_round(unit)
        for node in range(args.n):
            runner.add_external_input(node, round_number, ("sign", f"doc-{unit}"))
    execution = runner.run(units=args.units)
    return programs, execution, _report(programs, execution, judge.report(execution),
                                        args, in_model)


def _report(programs, execution, report, args, in_model: bool) -> int:
    print(f"n={args.n} t={args.t} units={args.units} seed={args.seed} "
          f"group={args.group}")
    for unit in range(args.units):
        message = f"doc-{unit}"
        signers = [node for node, p in enumerate(programs) if (message, unit) in p.signatures]
        verified = bool(signers) and (signers[0], message, unit) not in report.bad_signatures
        broken = sorted(execution.broken_in_unit(unit))
        alerts = sorted(report.alerting_nodes.get(unit, ()))
        print(f"  unit {unit}: broken={broken or '-'} alerts={alerts or '-'} "
              f"'{message}' signed+verified={verified}")
    shares = [p.state.share_is_valid() for p in programs]
    print(f"  shares valid at end: {sum(shares)}/{args.n}")
    if report.model_exceeded_units:
        print(f"  GLOBAL AWARENESS: > t nodes alerted in units "
              f"{list(report.model_exceeded_units)} — adversary exceeded "
              f"the (t,t) model")
    print(f"  (t,t)-limit audit: {'within limits' if report.within_model else 'EXCEEDED'}")
    if not in_model:
        return 0
    for problem in report.problems():
        print(f"FAIL: {problem}")
    return 0 if report.clean else 1


def cmd_benign(args) -> int:
    return _run(args, PassiveAdversary())[2]


def cmd_breakins(args) -> int:
    rng = random.Random(args.seed)
    victims = {u: rng.sample(range(args.n), args.t) for u in range(1, args.units)}
    adversary = FaultInjectionAdversary(breakins(uls_schedule(), victims))
    programs, _, status = _run(args, adversary)
    if not all(p.state.share_is_valid() for p in programs):
        print("FAIL: a node did not recover its share")
        return 1
    return status


def cmd_cutoff(args) -> int:
    victim = args.victim % args.n
    adversary = CutOffAdversary(victim=victim, break_unit=1,
                                impersonator=UlsImpersonator(victim=victim))
    _, execution, status = _run(args, adversary)
    cut_units = range(2, args.units)
    if not all(execution.alerts_in_unit(victim, u) for u in cut_units):
        print("FAIL: the cut-off victim did not alert in every unit")
        return 1
    print(f"  victim {victim} alerted in every cut-off unit (awareness holds)")
    return status


def cmd_flood(args) -> int:
    scheme = SchnorrScheme(named_group(args.group))
    adversary = InjectionFloodAdversary(
        payload_factory=lambda c, r, rng: (
            "newkey", 1, scheme.key_repr(scheme.generate(rng).verify_key)
        ),
        channel=NEWKEY_CHANNEL,
        flood_factor=args.flood,
    )
    _run(args, adversary, in_model=False)
    print(f"  injected messages: {adversary.injected_count}")
    return 0


def cmd_partition(args) -> int:
    plan = PartitionPlan.sqrt_partition(args.n)
    info = plan.describe()
    print(f"n={info['n']}: {info['clusters']} neighborhoods of sizes "
          f"{info['cluster_sizes']}")
    print(f"  flat tolerance (~n/2):        {flat_tolerance(args.n)}")
    print(f"  partitioned tolerance (~n/4): {plan.tolerance()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=5, help="number of nodes")
    common.add_argument("--t", type=int, default=2, help="adversary bound (n >= 2t+1)")
    common.add_argument("--units", type=int, default=3, help="time units to simulate")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--group", choices=list(NAMED_GROUP_NAMES), default="toy64")
    parser = argparse.ArgumentParser(
        prog="proactive-auth",
        description="Run scenarios from 'Maintaining Authenticated "
                    "Communication in the Presence of Break-Ins'.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    sub.add_parser("benign", parents=[common],
                   help="no adversary; baseline sanity run")
    sub.add_parser("breakins", parents=[common],
                   help="rotating mobile break-ins (t per unit)")
    cut = sub.add_parser("cutoff", parents=[common],
                         help="the §1.1 cut-off + impersonation attack")
    cut.add_argument("--victim", type=int, default=4)
    flood = sub.add_parser("flood", parents=[common],
                           help="§5.1 injection flood on key announcements")
    flood.add_argument("--flood", type=int, default=1)
    sub.add_parser("partition", parents=[common],
                   help="§6 two-level partition trade-off (no simulation)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.scenario != "partition" and args.n < 2 * args.t + 1:
        print(f"error: need n >= 2t+1 (got n={args.n}, t={args.t})", file=sys.stderr)
        return 2
    handlers = {
        "benign": cmd_benign,
        "breakins": cmd_breakins,
        "cutoff": cmd_cutoff,
        "flood": cmd_flood,
        "partition": cmd_partition,
    }
    return handlers[args.scenario](args)


if __name__ == "__main__":
    raise SystemExit(main())
