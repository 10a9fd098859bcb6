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

Media are direction-aware but size-agnostic: callers split traffic into
64-byte transfers before submitting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .engine import Engine

READ = "read"
WRITE = "write"


@dataclass
class CoarseDramConfig:
    access_lat: int          # ticks per request
    width: int               # requests in flight concurrently


@dataclass
class QueuedDdrConfig:
    read_service: int        # bus ticks per 64B read
    write_service: int       # bus ticks per 64B write
    turnaround_penalty: int  # extra bus ticks on a read<->write switch
    access_lat: int          # array access ticks, overlapped with the bus
    queue_capacity: int = 64

    def validate(self) -> None:
        if not (self.write_service >= self.read_service >= 0):
            raise ValueError("require write_service >= read_service >= 0")
        if self.turnaround_penalty < 0:
            raise ValueError("turnaround_penalty must be >= 0")


class CoarseDram:
    """Fixed-latency medium with a parallelism cap."""

    def __init__(self, engine: Engine, config: CoarseDramConfig):
        self.engine = engine
        self.config = config
        self._in_service = 0
        self._backlog: deque = deque()

    def submit(self, kind: str, on_done: Callable[[], None]) -> None:
        if self._in_service < self.config.width:
            self._start(on_done)
        else:
            self._backlog.append(on_done)

    def _start(self, on_done: Callable[[], None]) -> None:
        self._in_service += 1
        self.engine.schedule(self.config.access_lat,
                             lambda: self._finish(on_done))

    def _finish(self, on_done: Callable[[], None]) -> None:
        self._in_service -= 1
        if self._backlog:
            self._start(self._backlog.popleft())
        on_done()


class QueuedDdr:
    """Single-queue DDR bus model with direction turnaround penalties.

    Per-request queue wait accumulates into <prefix>.avgQLat and total
    per-request latency (wait + bus service + array access) into
    <prefix>.avgMemAccLat, both in ticks.
    """

    def __init__(self, engine: Engine, config: QueuedDdrConfig, stats,
                 prefix: str = "dram"):
        config.validate()
        self.engine = engine
        self.config = config
        self._queue: deque = deque()    # (kind, arrival_tick, on_done)
        self._overflow: deque = deque() # held when the queue is at capacity
        self._busy = False
        self._last_dir: Optional[str] = None
        self.reads = 0
        self.writes = 0
        self.turnarounds = 0
        self._avg_q = stats.mean(f"{prefix}.avgQLat")
        self._avg_acc = stats.mean(f"{prefix}.avgMemAccLat")

    def submit(self, kind: str, on_done: Callable[[], None]) -> None:
        if kind == READ:
            self.reads += 1
        else:
            self.writes += 1
        entry = (kind, self.engine.now, on_done)
        if len(self._queue) >= self.config.queue_capacity:
            # Back-pressure: hold at the controller boundary, never drop.
            self._overflow.append(entry)
        else:
            self._queue.append(entry)
            self._kick()

    def _kick(self) -> None:
        if self._busy or not self._queue:
            return
        kind, arrival, on_done = self._queue.popleft()
        if self._overflow:
            self._queue.append(self._overflow.popleft())
        self._busy = True
        wait = self.engine.now - arrival
        service = (self.config.read_service if kind == READ
                   else self.config.write_service)
        if self._last_dir is not None and self._last_dir != kind:
            service += self.config.turnaround_penalty
            self.turnarounds += 1
        self._last_dir = kind
        self._avg_q.record(wait)
        self._avg_acc.record(wait + service + self.config.access_lat)

        def bus_released():
            self._busy = False
            self._kick()

        self.engine.schedule(service, bus_released)
        self.engine.schedule(service + self.config.access_lat, on_done)
