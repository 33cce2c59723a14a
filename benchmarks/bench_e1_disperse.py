"""E1 — Lemma 15: DISPERSE delivery vs. adversarial link destruction.

The lemma: if sender and receiver are both s-operational with
``s <= (n-1)/2``, DISPERSE delivers.  We attack worst-case: the adversary
kills the direct link, the sender's links to the "top" k nodes, and the
receiver's links to the "bottom" k nodes — a split attack that leaves a
common reliable neighbour exactly while ``2k < n - 2``.  The measured
delivery curve must be a step function: 100% up to the combinatorial
crossover, 0% past it.
"""

import pytest

from repro.core.disperse import DisperseService
from repro.faults import DropFault, FaultInjectionAdversary, FaultPlan
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Schedule
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ULRunner

from common import emit, format_table, table_data

SCHED = Schedule(setup_rounds=1, refresh_rounds=1, normal_rounds=8)
SENDER, RECEIVER = 0, 1


class OneShotSender(NodeProgram):
    def __init__(self):
        super().__init__()
        self.disperse = DisperseService()
        self.delivered = []

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self.disperse.on_round(ctx, inbox)
        self.delivered.extend(self.disperse.receipts(""))
        if ctx.info.round == 2 and self.node_id == SENDER:
            self.disperse.send(ctx, RECEIVER, ("probe",), tag="")


def split_attack_plan(n: int, k: int) -> FaultPlan:
    """Kill the direct link, sender->top-k relays, receiver->bottom-k."""
    others = [i for i in range(n) if i not in (SENDER, RECEIVER)]
    drops = [DropFault(link=frozenset({SENDER, RECEIVER}), first_round=0, last_round=99)]
    for node in others[len(others) - k:]:
        drops.append(DropFault(link=frozenset({SENDER, node}), first_round=0, last_round=99))
    for node in others[:k]:
        drops.append(DropFault(link=frozenset({RECEIVER, node}), first_round=0, last_round=99))
    return FaultPlan(drops=tuple(drops))


def delivered(n: int, k: int, seed: int = 0) -> bool:
    programs = [OneShotSender() for _ in range(n)]
    adversary = (FaultInjectionAdversary(split_attack_plan(n, k)) if k >= 0
                 else PassiveAdversary())
    runner = ULRunner(programs, adversary, SCHED, s=max(1, (n - 1) // 2), seed=seed)
    runner.run(units=1)
    return any(body == ("probe",) for _, body in programs[RECEIVER].delivered)


@pytest.fixture(scope="module")
def table():
    rows = []
    for n in (5, 7, 9, 13):
        relays = n - 2
        for k in range(0, relays + 1):
            ok = delivered(n, k)
            # a common reliable neighbour survives iff the killed top-k and
            # bottom-k sets do not cover all relays
            expected = 2 * k < relays
            rows.append((n, k, "yes" if ok else "no", "yes" if expected else "no"))
            assert ok == expected, f"n={n} k={k}"
    return rows


def test_e1_disperse_delivery_crossover(table, benchmark):
    headers = ["n", "links killed per endpoint k", "delivered", "common-neighbour predicts"]
    emit("e1_disperse", format_table(
        "E1  DISPERSE delivery under split link attacks (Lemma 15)",
        headers,
        table,
    ), data=table_data(headers, table))
    benchmark(lambda: delivered(7, 2))
