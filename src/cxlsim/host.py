"""Host side of the datapath: injectors, cache hierarchy, memory bus.

Synthetic cores ("injectors") issue 64B loads and stores through a shared
three-level set-associative write-back hierarchy (LRU within set,
write-allocate, MSHR-style miss coalescing).  Below the last level a
memory bus routes packets by physical address range either to local DRAM
or to the CXL bridge.

Latency budget: host_path_lat is the single calibration constant for the
host side.  A full miss, cacheable or not, reaches the memory bus
host_path_lat after issue, so the dependent-load plateau on local memory
is host_path_lat + the local medium's idle service time; a write-back
pays host_path_lat minus the summed hit latencies.  Lookups take one step
at issue: L1 -> L3 are probed (a write hit marked dirty) and a full miss
takes its MSHR and leaves for the bus at once, while a hit at level k
costs one event, after the hit latencies of levels 0..k, which promotes
the line and completes the request.  With one request in flight this
matches, tick for tick, a lookup of each level in its own event; under
contention a lookup sees the cache state at issue, not a few ns later.

The model is timing-only: a request is one 64B line that carries no
bytes, and its completion is a callback with no response packet.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence

from .engine import Engine
from .hdm import PAGE_BYTES
from .media import READ, WRITE

LINE_BYTES = 64


class MemCmd(Enum):
    READ_REQ = "ReadReq"
    WRITE_REQ = "WriteReq"


class Target(Enum):
    LOCAL_DRAM = "LocalDRAM"
    BRIDGE = "Bridge"


class SimFault(RuntimeError):
    """Protocol or device fault that aborts the simulation."""


class AddressFault(SimFault):
    """Issued address falls outside every configured range."""


class MemPacket:
    """A request for one whole 64B line."""

    __slots__ = ("id", "cmd", "addr", "issue_tick", "cacheable")

    def __init__(self, id: int, cmd: MemCmd, addr: int, issue_tick: int = 0,
                 cacheable: bool = True):
        if addr % LINE_BYTES:
            raise ValueError(f"addr {addr:#x} not aligned to {LINE_BYTES}B line")
        self.id = id
        self.cmd = cmd
        self.addr = addr
        self.issue_tick = issue_tick
        self.cacheable = cacheable


@dataclass(frozen=True)
class AddressRange:
    base: int
    limit: int          # exclusive
    target: Target
    device: Optional[object] = None


class AddressMap:
    """Non-overlapping physical ranges routed to LocalDRAM or the bridge."""

    def __init__(self):
        self.ranges: List[AddressRange] = []

    def add_range(self, base: int, limit: int, target: Target,
                  device: Optional[object] = None) -> AddressRange:
        if limit <= base:
            raise ValueError("empty address range")
        for r in self.ranges:
            if base < r.limit and r.base < limit:
                raise ValueError(
                    f"range [{base:#x}, {limit:#x}) overlaps [{r.base:#x}, {r.limit:#x})")
        rng = AddressRange(base, limit, target, device)
        self.ranges.append(rng)
        self.ranges.sort(key=lambda r: r.base)
        return rng

    def lookup(self, addr: int) -> AddressRange:
        for r in self.ranges:
            if r.base <= addr < r.limit:
                return r
        raise AddressFault(f"address {addr:#x} is unmapped")

    def top(self) -> int:
        return max((r.limit for r in self.ranges), default=0)

    def allocate_above(self, size: int) -> int:
        """Next size-aligned base above all existing ranges."""
        top = self.top()
        base = (top + size - 1) // size * size
        if base + size > 1 << 64:
            raise AddressFault("insufficient host physical address space")
        return base


class Cache:
    """One set-associative level; LRU replacement within each set.
    `capacity` is in bytes and `hit_latency` in ticks."""

    def __init__(self, name: str, capacity: int, ways: int, hit_latency: int,
                 stats):
        self.name = name
        self.capacity = capacity
        self.ways = ways
        self.hit_latency = hit_latency
        self.num_sets = capacity // (ways * LINE_BYTES)
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        stats.counters(self, {f"{name}.hits": "hits",
                              f"{name}.misses": "misses"})
        stats.formula(f"{name}.lookups", {f"{name}.hits": 1, f"{name}.misses": 1})

    def touch(self, line: int) -> bool:
        """Lookup; refreshes LRU order on a hit."""
        cset = self._sets[line % self.num_sets]
        tag = line // self.num_sets
        if tag in cset:
            cset.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, line: int) -> bool:
        return line // self.num_sets in self._sets[line % self.num_sets]

    def mark_dirty(self, line: int) -> None:
        cset = self._sets[line % self.num_sets]
        tag = line // self.num_sets
        cset[tag] = True
        cset.move_to_end(tag)

    def install(self, line: int, dirty: bool = False):
        """Insert a line; returns (victim_line, victim_dirty) when one is
        evicted, else None.  Installing a present line refreshes LRU."""
        num_sets = self.num_sets
        cset = self._sets[line % num_sets]
        tag = line // num_sets
        if tag in cset:
            if dirty:
                cset[tag] = True
            cset.move_to_end(tag)
            return None
        victim = None
        if len(cset) >= self.ways:
            vtag, vdirty = cset.popitem(last=False)
            victim = (vtag * num_sets + line % num_sets, vdirty)
        cset[tag] = dirty
        return victim

    def install_pages(self, page_addrs: Sequence[int], lines: int,
                      period: int, dirty_per_period: int) -> None:
        """Install the first `lines` lines of the pages at `page_addrs`, in
        order and without traffic, exactly as `install` would one line at a
        time; victims are dropped.  Line i is dirty when
        i % period < dirty_per_period.

        Within one page, consecutive lines fall into consecutive sets under
        one tag until the set index wraps, so each page is a few passes over
        a slice of the sets.  A set may hold more than `ways` entries during
        the passes; trimming it afterwards to its newest `ways` leaves what
        per-line LRU would.  The exception is a tag already present, which
        per-line LRU may have evicted by then, so the set is trimmed before
        such a tag is refreshed."""
        sets, num_sets, ways = self._sets, self.num_sets, self.ways
        per_page = PAGE_BYTES // LINE_BYTES
        flags = [i % period < dirty_per_period for i in range(per_page + period)]
        for page, addr in enumerate(page_addrs):
            count = min(per_page, lines - page * per_page)
            if count <= 0:
                break
            first = addr // LINE_BYTES
            phase = page * per_page % period
            done = 0
            while done < count:
                line = first + done
                s, tag = line % num_sets, line // num_sets
                k = min(count - done, num_sets - s)
                start = phase + done
                for cset, dirty in zip(sets[s:s + k], flags[start:start + k]):
                    if tag in cset:
                        while len(cset) > ways:
                            cset.popitem(last=False)
                        if tag in cset:
                            if dirty:
                                cset[tag] = True
                            cset.move_to_end(tag)
                            continue
                    cset[tag] = dirty
                done += k
        for cset in sets:
            while len(cset) > ways:
                cset.popitem(last=False)


class MemBus:
    """Routes packets by address range; charges the caller-chosen latency."""

    def __init__(self, engine: Engine, addr_map: AddressMap, stats):
        self.engine = engine
        self.addr_map = addr_map
        self.targets: Dict[Target, object] = {}
        self._ports = (None, None)
        # What goes to the bridge is counted there, as bridge.m2sSent.
        stats.counters(self, {"membus.toLocal": "to_local"})

    def attach(self, target: Target, port) -> None:
        self.targets[target] = port
        # Indexed by "is the bridge", so send hashes no Enum per packet.
        self._ports = (self.targets.get(Target.LOCAL_DRAM),
                       self.targets.get(Target.BRIDGE))

    def send(self, pkt: MemPacket, lat: int,
             on_response: Callable[[], None]) -> None:
        to_bridge = self.addr_map.lookup(pkt.addr).target is Target.BRIDGE
        if not to_bridge:
            self.to_local += 1
        port = self._ports[to_bridge]
        self.engine.schedule(lat, lambda: port.receive(pkt, on_response))


class LocalMemory:
    """Local DRAM controller: one medium instance behind the bus."""

    def __init__(self, engine: Engine, medium):
        self.engine = engine
        self.medium = medium

    def receive(self, pkt: MemPacket, on_response) -> None:
        kind = READ if pkt.cmd is MemCmd.READ_REQ else WRITE
        self.engine.schedule(self.medium.submit(kind), on_response)


class CacheHierarchy:
    """Shared L1/L2/L3 with a single MSHR table below the last level; the
    one place that splits host_path_lat into lookups and bus."""

    def __init__(self, engine: Engine, levels: List[Cache], membus: MemBus,
                 host_path_lat: int, stats):
        # _hit_lats[k]: issue to a hit at level k; [-1]: all lookups.
        self._hit_lats = list(itertools.accumulate(
            c.hit_latency for c in levels))
        self.engine = engine
        self.levels = levels
        self.membus = membus
        self.host_path_lat = host_path_lat
        self.membus_lat = host_path_lat - self._hit_lats[-1]
        self._mshrs: Dict[int, list] = {}
        self._pkt_ids = itertools.count(1 << 48)  # fill/writeback id space
        stats.counters(self, {"membus.writebacksInFlight": "wb_in_flight",
                              "membus.writebacksInFlight::max": "wb_peak",
                              "l3.mshrMerges": "mshr_merges"})
        self._miss_lat = stats.histogram("l3.overallAvgMissLat")

    def access(self, pkt: MemPacket, on_complete: Callable[[], None]) -> None:
        """Look up L1 -> L3 at issue (see the module docstring)."""
        line = pkt.addr // LINE_BYTES
        for k, level in enumerate(self.levels):
            if level.touch(line):
                if pkt.cmd is MemCmd.WRITE_REQ:
                    level.mark_dirty(line)
                self.engine.schedule(self._hit_lats[k],
                                     lambda: self._hit(k, line, on_complete))
                return
        self._miss(pkt, line, on_complete)

    def _hit(self, k: int, line: int, on_complete) -> None:
        self._promote(k - 1, line)
        on_complete()

    def _promote(self, upto: int, line: int) -> None:
        for k in range(upto, -1, -1):
            victim = self.levels[k].install(line)
            if victim is not None and victim[1]:
                self._demote(k + 1, victim[0])

    def _demote(self, idx: int, line: int) -> None:
        """Push a dirty victim down; past the last level it becomes a
        write-back packet to memory."""
        while idx < len(self.levels):
            level = self.levels[idx]
            if level.contains(line):
                level.mark_dirty(line)
                return
            victim = level.install(line, dirty=True)
            if victim is None or not victim[1]:
                return
            line = victim[0]
            idx += 1
        self._issue_writeback(line)

    def _issue_writeback(self, line: int) -> None:
        wb = MemPacket(id=next(self._pkt_ids), cmd=MemCmd.WRITE_REQ,
                       addr=line * LINE_BYTES)
        self.wb_in_flight += 1
        if self.wb_in_flight > self.wb_peak:
            self.wb_peak = self.wb_in_flight
        self.membus.send(wb, self.membus_lat, self._writeback_done)

    def _writeback_done(self) -> None:
        self.wb_in_flight -= 1

    def _miss(self, pkt, line: int, on_complete) -> None:
        if line in self._mshrs:
            self.mshr_merges += 1
            self._mshrs[line].append((pkt, on_complete))
            return
        miss_tick = self.engine.now + self._hit_lats[-1]
        fetch = MemPacket(id=next(self._pkt_ids), cmd=MemCmd.READ_REQ,
                          addr=line * LINE_BYTES)
        # Sent before the MSHR is taken, so an unmapped line faults here
        # and leaves no entry behind.
        self.membus.send(fetch, self.host_path_lat,
                         lambda: self._fill(line, miss_tick))
        self._mshrs[line] = [(pkt, on_complete)]

    def _fill(self, line: int, miss_tick: int) -> None:
        self._miss_lat.record(self.engine.now - miss_tick)
        self._promote(len(self.levels) - 1, line)
        waiters = self._mshrs.pop(line)
        for pkt, on_complete in waiters:
            if pkt.cmd is MemCmd.WRITE_REQ:
                self.levels[0].mark_dirty(line)
            on_complete()


class Injector:
    """Synthetic core with a bounded load/store queue.

    Issues beyond the LSQ depth queue up and count as lsqFullEvents; a
    slot is released when the matching response returns (cached stores
    complete on fill, uncacheable stores on the target's acknowledgment).
    `think_time` is the ticks between dispatches from the pending queue.
    The counts all injectors share live on `host`.
    """

    def __init__(self, engine: Engine, inj_id: int, lsq_depth: int,
                 think_time: int, host: "HostPath", ticks_per_cycle: float):
        self.engine = engine
        self.lsq_depth = lsq_depth
        self.think_time = think_time
        self._host = host
        self._dispatch = host.dispatch
        self._in_flight = 0
        self._pending: deque = deque()
        self._load_to_use = host.load_to_use
        self._ticks_per_cycle = ticks_per_cycle
        self._ids = itertools.count(inj_id << 32)

    def issue(self, cmd: MemCmd, addr: int, cacheable: bool = True,
              on_complete=None) -> int:
        """Issue one 64B line; `on_complete(pkt)` gets the request packet."""
        pkt = MemPacket(id=next(self._ids), cmd=cmd, addr=addr,
                        cacheable=cacheable)
        if self._in_flight < self.lsq_depth and not self._pending:
            self._start(pkt, on_complete)
        else:
            self._host.lsq_full += 1
            self._pending.append((pkt, on_complete))
        return pkt.id

    def _start(self, pkt: MemPacket, on_complete) -> None:
        self._in_flight += 1
        host = self._host
        host.outstanding += 1
        if host.outstanding > host.outstanding_peak:
            host.outstanding_peak = host.outstanding
        pkt.issue_tick = self.engine.now
        self._dispatch(pkt, lambda: self._finish(pkt, on_complete))

    def _finish(self, pkt: MemPacket, on_complete) -> None:
        self._in_flight -= 1
        self._host.outstanding -= 1
        if pkt.cmd is MemCmd.READ_REQ:
            self._load_to_use.record(
                (self.engine.now - pkt.issue_tick) / self._ticks_per_cycle)
        if self._pending and self._in_flight < self.lsq_depth:
            nxt, cb = self._pending.popleft()
            if self.think_time:
                self.engine.schedule(self.think_time,
                                     lambda: self._start(nxt, cb))
            else:
                self._start(nxt, cb)
        if on_complete is not None:
            on_complete(pkt)


class HostPath:
    """Assembled host: injectors feeding caches (or the uncacheable fast
    path) into the memory bus."""

    def __init__(self, engine: Engine, caches: List[Cache], membus: MemBus,
                 injectors: int, lsq_depth: int, think_time: int,
                 host_path_lat: int, stats, ticks_per_cycle: float):
        self.membus = membus
        self.hierarchy = CacheHierarchy(engine, caches, membus, host_path_lat,
                                        stats)
        self.load_to_use = stats.histogram(
            "core.loadToUse", edges=(0, 10, 100, 1000, 10000, 100000))
        stats.counters(self, {
            "core.lsqFullEvents": "lsq_full",
            "core.outstandingRequests": "outstanding",
            "core.outstandingRequests::max": "outstanding_peak"})
        self.injectors = [
            Injector(engine, i, lsq_depth, think_time, self, ticks_per_cycle)
            for i in range(injectors)
        ]

    def dispatch(self, pkt: MemPacket, on_complete) -> None:
        if pkt.cacheable:
            self.hierarchy.access(pkt, on_complete)
        else:
            self.membus.send(pkt, self.hierarchy.host_path_lat, on_complete)
