"""Host-speed calibration for end-to-end times.

On a shared host the CPU speed drifts by a quarter within a minute, and the
program's times follow it (CPU time tracks wall time, so this is not
scheduling). A fixed pure-Python loop, timed between every two contracts,
measures the host's speed around each contract. A contract's latency is
multiplied by ``REFERENCE_S`` over the mean of the loop times just before
and just after it: it reads as it would on a host where the loop takes
``REFERENCE_S``. The loop uses no sleepscan code, so no change to the
program moves it, and it allocates no objects the garbage collector tracks,
so the program's heap does not slow it either.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.005  # the loop's typical time on the 2-core host the bounds were set on
MASK = (1 << 256) - 1


class _Node:
    __slots__ = ("index", "value")

    def __init__(self, index: int, value: int):
        self.index = index
        self.value = value

    def weight(self) -> int:
        return (self.value >> (self.index & 31)) & 0xFF


_NODES = [_Node(i, i) for i in range(64)]


def _work(rounds: int = 3000) -> int:
    """Attribute access, method calls, dict and list indexing, big-int and
    string work: the mix of a pure-Python analyzer."""
    table = dict.fromkeys(range(64), 0)
    acc = 0x9E3779B97F4A7C15
    for i in range(rounds):
        node = _NODES[i & 63]
        node.value = acc
        key = (i & 56) | (node.weight() & 7)
        table[key] += node.weight()
        acc = ((acc * 0x100000001B3) ^ i) & MASK
        if f"{acc & 0xFFFF:04x}".startswith("f"):
            acc += table[key]
    return acc


def loop_seconds() -> float:
    started = perf_counter()
    _work()
    return perf_counter() - started
