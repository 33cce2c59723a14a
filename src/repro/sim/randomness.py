"""Deterministic per-node, per-round randomness.

The paper's model (§2.1) gives node ``N_i`` a random tape ``r_i`` split
into per-round pieces ``r_{i,w}``, with the crucial property that the
piece for round ``w`` is *chosen fresh at round w* — a break-in before
round ``w`` reveals nothing about it (this is why proactive refresh can
use "fresh randomness" after a compromise).

The simulator realizes this by deriving each piece from a master run seed
through a PRF: executions are exactly reproducible from the seed, yet a
simulated adversary that copies a node's memory at round ``w`` holds no
function of the pieces for rounds ``> w`` (programs never store the
derivation key; it lives in the runner, outside any node).
"""

from __future__ import annotations

import random

from repro.crypto.hashing import prf, tagged_hash

__all__ = ["RandomnessSource"]


class RandomnessSource:
    """Derives independent ``random.Random`` streams from one master seed."""

    def __init__(self, seed: int | str | bytes) -> None:
        if isinstance(seed, int):
            seed_bytes = seed.to_bytes((seed.bit_length() + 8) // 8 + 1, "big", signed=True)
        elif isinstance(seed, str):
            seed_bytes = seed.encode("utf-8")
        else:
            seed_bytes = seed
        self._key = tagged_hash("repro/randomness/master", seed_bytes)

    def stream(self, *labels: object) -> random.Random:
        """A fresh ``random.Random`` determined by the labels."""
        material = prf(self._key, labels)
        return random.Random(int.from_bytes(material, "big"))

    def node_round(self, node_id: int, round_number: int) -> random.Random:
        """The paper's ``r_{i,w}``: node ``i``'s randomness for round ``w``."""
        return self.stream("node-round", node_id, round_number)

    def adversary(self) -> random.Random:
        """The adversary's own random tape ``r_A``."""
        return self.stream("adversary")
