"""Backend memory-medium timing models.

Two DRAM models are provided.  CoarseDram charges a fixed access latency
with a configurable parallelism cap and favors simulation speed.
QueuedDdr models the shared bi-directional DDR data bus: requests drain
in FIFO order, each occupies the bus for a per-64B service time, a
turnaround penalty is charged whenever the bus switches between reads
and writes, and the fixed array-access latency is charged in parallel
with (not on) the bus.  Under single-direction saturation QueuedDdr
therefore streams one request per service time while an idle request
still sees service + access latency end to end.

Both are FIFO servers, so neither keeps a queue or fires an event of its
own: a request's start is max(its arrival, when a server frees), known
the moment it is submitted (Lindley's recursion).  `submit(kind, delay)`
takes a request arriving `delay` ticks from now and returns the ticks
from now until it completes; the caller schedules its own completion.
The one precondition is that arrivals at one medium never go backwards
in time.  Local memory submits each request on arrival, with no delay.
A device submits each request when the bridge admits it, to arrive at
its TX link grant plus the device's constant parse latency; the TX link
is FIFO and grants in admission order, so those arrivals never go
backwards either.

Media are direction-aware but size-agnostic: callers split traffic into
64-byte transfers before submitting.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .engine import Engine

READ = "read"
WRITE = "write"


class CoarseDram:
    """Fixed-latency medium with a parallelism cap.

    Every access takes the same latency, so servers free in the order
    they started: request k starts at max(arrival, finish of request
    k - width).  The deque holds the `width` servers' free ticks, the
    earliest first.  `access_lat` is in ticks per request.
    """

    def __init__(self, engine: Engine, access_lat: int, width: int):
        self.engine = engine
        self.access_lat = access_lat
        self._free_at = deque([0] * width)

    def submit(self, kind: str, delay: int = 0) -> int:
        start = self._free_at.popleft()
        if start < self.engine.now + delay:
            start = self.engine.now + delay
        finish = start + self.access_lat
        self._free_at.append(finish)
        return finish - self.engine.now


class QueuedDdr:
    """Single-queue DDR bus model with direction turnaround penalties.

    All times are in ticks: `read_service` and `write_service` occupy the
    bus per 64B, `turnaround_penalty` is added on a read<->write switch
    and `access_lat` is overlapped with the bus.  The per-request queue
    wait and total latency (wait + bus service + array access) are summed
    at submission; the report divides them by the requests as
    <prefix>.avgQLat and <prefix>.avgMemAccLat.
    """

    def __init__(self, engine: Engine, read_service: int, write_service: int,
                 turnaround_penalty: int, access_lat: int, stats, prefix: str):
        self.engine = engine
        self.read_service = read_service
        self.write_service = write_service
        self.turnaround_penalty = turnaround_penalty
        self.access_lat = access_lat
        self._free_at = 0               # tick the bus finishes its backlog
        self._last_dir: Optional[str] = None
        self.reads = 0
        self.writes = 0
        self.turnarounds = 0
        self.wait_total = 0.0
        self.latency_total = 0.0
        stats.add(f"{prefix}.avgQLat", lambda: self._per_request(self.wait_total))
        stats.add(f"{prefix}.avgMemAccLat",
                  lambda: self._per_request(self.latency_total))

    def _per_request(self, total: float) -> float:
        count = self.reads + self.writes
        return total / count if count else 0.0

    def submit(self, kind: str, delay: int = 0) -> int:
        if kind == READ:
            self.reads += 1
            service = self.read_service
        else:
            self.writes += 1
            service = self.write_service
        if self._last_dir is not None and self._last_dir != kind:
            service += self.turnaround_penalty
            self.turnarounds += 1
        self._last_dir = kind
        arrival = self.engine.now + delay
        start = arrival
        if start < self._free_at:
            start = self._free_at
        self._free_at = start + service
        wait = start - arrival
        self.wait_total += wait
        self.latency_total += wait + service + self.access_lat
        return start + service + self.access_lat - self.engine.now
