"""Deterministic discrete-event kernel.

All simulated time is kept in integer ticks of one picosecond so that
nanosecond-valued latency parameters stay exactly representable and long
latency sums never drift.  Events that share a tick fire in insertion
order, which is what makes two runs with the same configuration and seed
fire the same events in the same order.

One engine instance is strictly single-threaded; independent instances
share no state and may run in parallel processes.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

TICKS_PER_NS = 1000


def ns_to_ticks(value: float) -> int:
    """Convert a nanosecond quantity to integer ticks (1 tick = 1 ps)."""
    return int(round(value * TICKS_PER_NS))


class Engine:
    """Global clock plus a heap of (when, seq, action, arg) events; an
    event runs as action(arg), so a handler and the packet it acts on ride
    the heap without a closure built to carry them.  `queue` is that heap,
    empty when nothing is scheduled; only the engine changes it."""

    def __init__(self):
        self.now: int = 0
        self._seq: int = 0
        self.queue: list = []

    def schedule(self, delay: int, action: Callable[[Any], None],
                 arg: Any = None) -> None:
        """Schedule `action(arg)` to run `delay` ticks from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(self.queue, (self.now + delay, self._seq, action, arg))
        self._seq += 1

    def run(self) -> int:
        """Execute events until the queue drains; returns the final time."""
        queue = self.queue
        pop = heapq.heappop
        while queue:
            self.now, _seq, action, arg = pop(queue)
            action(arg)
        return self.now
