"""Property-based test: DISPERSE delivery == 2-path reachability.

For arbitrary sets of dead links, a DISPERSE'd message arrives exactly
when the static network (minus dead links, minus broken nodes) contains a
path of length <= 2 from sender to receiver — the paper's stated
guarantee, quantified over random topologies instead of hand-picked ones.
A send to ``BROADCAST`` is the same guarantee for each receiver, and the
sender never receives it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.disperse import DisperseService
from repro.faults import DropFault, FaultInjectionAdversary, FaultPlan
from repro.sim.clock import Schedule
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ULRunner
from repro.wire import BROADCAST

SCHED = Schedule(setup_rounds=1, refresh_rounds=1, normal_rounds=6)
SENDER, RECEIVER = 0, 1


class Host(NodeProgram):
    def __init__(self, destination):
        super().__init__()
        self.disperse = DisperseService()
        self.destination = destination
        self.got = False

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self.disperse.on_round(ctx, inbox)
        if any(body == ("probe",) for _, body in self.disperse.receipts("")):
            self.got = True
        if ctx.info.round == 2 and self.node_id == SENDER:
            self.disperse.send(ctx, self.destination, ("probe",), tag="")


@st.composite
def topologies(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    all_links = [
        frozenset((a, b)) for a in range(n) for b in range(a + 1, n)
    ]
    dead = draw(st.sets(st.sampled_from(all_links), max_size=len(all_links)))
    return n, frozenset(dead)


def two_path_exists(n: int, dead: frozenset) -> bool:
    if frozenset((SENDER, RECEIVER)) not in dead:
        return True
    for relay in range(n):
        if relay in (SENDER, RECEIVER):
            continue
        if frozenset((SENDER, relay)) not in dead and frozenset((relay, RECEIVER)) not in dead:
            return True
    return False


@pytest.mark.parametrize("destination", [RECEIVER, BROADCAST], ids=["receiver", "broadcast"])
@given(case=topologies())
@settings(max_examples=60, deadline=None)
def test_delivery_iff_two_path(destination, case):
    n, dead = case
    drops = tuple(DropFault(link=link, first_round=0, last_round=99) for link in dead)
    programs = [Host(destination) for _ in range(n)]
    runner = ULRunner(programs, FaultInjectionAdversary(FaultPlan(drops=drops)), SCHED,
                      s=max(1, (n - 1) // 2), seed=1)
    runner.run(units=1)
    assert programs[RECEIVER].got == two_path_exists(n, dead)
    if destination == BROADCAST:
        assert not programs[SENDER].got
