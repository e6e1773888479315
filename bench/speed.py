"""A probe of the host's current speed, to bring timed runs to one speed.

The host's speed drifts by a third over seconds to minutes while other work
shares it. A fixed pure-Python loop of the engine's kind (small objects held
in a dict, attribute reads, list and dict updates) follows that drift
closely: across 10-run windows, the engine's loop time over the probe's
spreads a fifth as much as the engine's loop time alone. The probe runs no
engine code, so a change to the engine does not move it.
"""
from __future__ import annotations

import gc
import statistics
import time

REPEATS = 3
ROUNDS = 2
NODES = 1000
# The probe's time at the reference speed: a round figure between the 1.2
# and 1.8 ms it reads on a 2-vCPU VM running Python 3.11.
REFERENCE_S = 0.0015


class _Node:
    __slots__ = ("kind", "kids", "val")

    def __init__(self, kind: int, kids: list[int], val: dict) -> None:
        self.kind = kind
        self.kids = kids
        self.val = val


def _loop() -> int:
    total = 0
    for _ in range(ROUNDS):
        nodes = {}
        for i in range(NODES):
            nodes[i] = _Node(i % 5, [i - 1, i - 2], {"a": i})
        for i in range(2, NODES):
            node = nodes[i]
            for kid in node.kids:
                total += nodes[kid].kind
            node.val["b"] = total
    return total


def probe_s() -> float:
    """Median wall time of the probe loop. The collector is off so that the
    size of the caller's heap does not move it."""
    times = []
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)
