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

A lone request is served in closed form.  When a demand request (a
fill's fetch, or an uncacheable request) leaves a host whose only
injector has one LSQ slot, and the engine has nothing scheduled, nothing
else is in flight below the host, and nothing can start before the
request completes: the one slot is taken, and only its completion would
free it.  So every credit, FIFO slot and link the request meets is free
but for the timing it left behind, and MemBus.send has its port serve it
at once (`alone`): the bridge, the link channels, the device and the
medium take their grants and count it as the event path would, and one
event, at the tick the event path would complete it, runs its fill or
its finish.  The reports are byte-identical to the event path's, which
serves every other request: a write-back (the next demand request
overlaps it), every request on a busy engine, and one to an SSD device,
whose medium answers by callback.  This rests on one assumption, which
tests/test_lone.py guards by running every workload both ways: no
workload schedules an event from a completion callback, which runs
after the next request may have gone alone.

A set is a plain dict {tag: dirty} whose insertion order is its LRU
order, oldest first: a hit re-inserts its tag and an eviction takes the
first.  The hierarchy probes and promotes on the sets in place, with no
call per level.

The model is timing-only: a request is one 64B line that carries no
bytes, and no response packet is built.  Every handoff is a bound method
called with the request packet: whoever hands a packet on stores the
handler that completes it on the packet (`reply`), and an event carries
the next handler and the packet, so no closure is built per hop.
Packets are built with positional arguments: a keyword call to a class
makes CPython gather the keywords into a dict for `__init__`, which
roughly doubles the cost of each request, fill and write-back packet.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from .engine import Engine
from .hdm import PAGE_BYTES
from .media import READ, WRITE

LINE_BYTES = 64


# Plain constants compared by identity: an Enum member is slow to load.
class MemCmd:
    READ_REQ = "ReadReq"
    WRITE_REQ = "WriteReq"


class Target:
    LOCAL_DRAM = "LocalDRAM"
    BRIDGE = "Bridge"


class SimFault(RuntimeError):
    """Protocol or device fault that aborts the simulation."""


class AddressFault(SimFault):
    """Issued address falls outside every configured range."""


class MemPacket:
    """A request for one whole 64B line.  `reply(pkt)` completes it, set by
    the layer that hands it on; `on_complete` is the workload's, `level` a
    hit's cache level, a fill's `issue_tick` is its miss tick, and `device`,
    set by the memory bus on a packet to the bridge only, the CXL device
    that the range holding `addr` names."""

    __slots__ = ("id", "cmd", "addr", "issue_tick", "cacheable", "reply",
                 "on_complete", "level", "device")

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
    device: Optional[object] = None     # behind the bridge; None: local


class AddressMap:
    """Physical ranges routed to local memory or, when they name a device,
    the bridge, carved one after another: each is the next window aligned
    to its size above the last, so the ranges ascend and cannot overlap."""

    def __init__(self):
        self.ranges: List[AddressRange] = []
        self.bases: List[int] = []      # ranges[i].base, ascending

    def carve(self, size: int,
              device: Optional[object] = None) -> AddressRange:
        """Map the next `size`-aligned window of `size` bytes above the
        last range, backed by `device` or local memory; AddressFault past
        2**64."""
        top = self.ranges[-1].limit if self.ranges else 0
        base = (top + size - 1) // size * size
        if base + size > 1 << 64:
            raise AddressFault("insufficient host physical address space")
        rng = AddressRange(base, base + size, device)
        self.bases.append(base)
        self.ranges.append(rng)
        return rng

    def lookup(self, addr: int) -> AddressRange:
        at = bisect_right(self.bases, addr) - 1
        if at >= 0 and addr < self.ranges[at].limit:
            return self.ranges[at]
        raise AddressFault(f"address {addr:#x} is unmapped")


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
        # One C-level call; each set its own dict, none aliased.
        self._sets: List[dict] = list(map(dict.copy,
                                          itertools.repeat({}, self.num_sets)))
        stats.counters(self, {f"{name}.hits": "hits",
                              f"{name}.misses": "misses"})
        stats.add(f"{name}.lookups", lambda: self.hits + self.misses)

    def install(self, line: int, dirty: bool = False):
        """Insert a line; returns (victim_line, victim_dirty) when one is
        evicted, else None.  Installing a present line refreshes LRU."""
        num_sets = self.num_sets
        cset = self._sets[line % num_sets]
        tag = line // num_sets
        if tag in cset:
            cset[tag] = cset.pop(tag) or dirty
            return None
        victim = None
        if len(cset) >= self.ways:
            vtag = next(iter(cset))
            victim = (vtag * num_sets + line % num_sets, cset.pop(vtag))
        cset[tag] = dirty
        return victim

    def install_pages(self, page_addrs: Sequence[int], period: int,
                      dirty_per_period: int,
                      touched_pages: Iterable[int]) -> None:
        """Install the first num_sets * ways lines (a cache's worth) of the
        pages at `page_addrs` as `install` would, one line at a time and in
        order, but only into the sets that the lines of the pages at
        `touched_pages` map to; no other set is read or written.  Line i
        is dirty when i % period < dirty_per_period.  Every such set must
        be empty.

        LRU sets are independent, so each such set ends as installing
        every line would leave it.  With g = gcd(lines per page, num_sets)
        the sets fall in blocks of g: a run of g lines, the first a
        multiple of g, fills the g sets of one block under one tag, and a
        page's lines are whole runs.  The ghost pages whose runs reach a
        touched block are picked out in C; their runs give each touched
        block's (tag, first line) pairs in order, and its last `ways` give
        the block's sets.  These differ only in their dirty bits, by
        offset % period, so the block is assigned in one slice of copies."""
        sets, num_sets, ways = self._sets, self.num_sets, self.ways
        per_page = PAGE_BYTES // LINE_BYTES
        g = math.gcd(per_page, num_sets)
        m, nb, unit = per_page // g, num_sets // g, g * LINE_BYTES
        # Run u (its first line // g) fills block u % nb under tag u // nb.
        blocks = {(addr // unit + k) % nb: [] for addr in touched_pages
                  for k in range(m)}
        if any([any(sets[b * g:b * g + g]) for b in blocks]):
            raise ValueError(f"{self.name}: install_pages needs every set "
                             "that a touched page maps to empty")
        firsts = list(map(unit.__rfloordiv__, page_addrs))
        # A page whose first run is in block f fills blocks f .. f + m - 1.
        reach = {(b - k) % nb for b in blocks for k in range(m)}
        runs = num_sets * ways // g         # a cache's worth of lines
        for p in itertools.compress(range(len(firsts)), map(
                reach.__contains__, map(nb.__rmod__, firsts))):
            for k in range(m):
                u, q = firsts[p] + k, p * m + k
                if u % nb in blocks and q < runs:
                    blocks[u % nb].append((u // nb, q * g))
        for b, pairs in blocks.items():
            templates = [{tag: (i + j) % period < dirty_per_period
                          for tag, i in pairs[-ways:]}
                         for j in range(min(period, g))]
            sets[b * g:b * g + g] = map(
                dict.copy, itertools.islice(itertools.cycle(templates), g))


class MemBus:
    """Routes packets by address range; charges the caller-chosen latency."""

    def __init__(self, engine: Engine, addr_map: AddressMap, local, bridge,
                 stats):
        self.engine = engine
        self.addr_map = addr_map
        # The map's lists, which carve extends in place.
        self._bases, self._ranges = addr_map.bases, addr_map.ranges
        self.targets = {Target.LOCAL_DRAM: local, Target.BRIDGE: bridge}
        # Indexed by "is the bridge", so send needs no dict lookup.
        self._ports = (local, bridge)
        stats.counters(self, {"membus.toLocal": "to_local"})
        # What goes to the bridge is counted there: at drain, every packet
        # the bus routed to the bridge reached a device.
        stats.add("membus.toBridge", bridge.requests if bridge else lambda: 0)

    def send(self, pkt: MemPacket, lat: int,
             reply: Callable[[MemPacket], None], alone: bool = False) -> None:
        """Deliver `pkt` to its port `lat` from now, or have the port serve
        it at once when it goes `alone` (see the module docstring);
        `reply(pkt)` ends it.  The one address decode: a packet to the
        bridge also gets `device`, the device that its range names."""
        addr, ranges = pkt.addr, self._ranges
        at = bisect_right(self._bases, addr) - 1
        if at < 0 or addr >= ranges[at].limit:
            self.addr_map.lookup(addr)      # raises the AddressFault
        device = ranges[at].device
        to_bridge = device is not None
        if to_bridge:
            pkt.device = device
        else:
            self.to_local += 1
        pkt.reply = reply
        if alone:
            self._ports[to_bridge].serve(pkt, lat)
        else:
            self.engine.schedule(lat, self._ports[to_bridge].receive, pkt)


class LocalMemory:
    """Local DRAM controller: one medium instance behind the bus."""

    def __init__(self, engine: Engine, medium):
        self.engine = engine
        self.medium = medium

    def receive(self, pkt: MemPacket, delay: int = 0) -> None:
        """Submit `pkt`, which arrives `delay` ticks from now, and schedule
        its reply for when the medium completes it."""
        kind = READ if pkt.cmd is MemCmd.READ_REQ else WRITE
        self.engine.schedule(self.medium.submit(kind, delay), pkt.reply, pkt)

    # A lone request is submitted when it leaves the host, to arrive later.
    serve = receive


class CacheHierarchy:
    """Shared L1/L2/L3 with a single MSHR table below the last level; the
    one place that splits host_path_lat into lookups and bus."""

    def __init__(self, engine: Engine, levels: List[Cache], membus: MemBus,
                 host_path_lat: int, stats, alone: bool = False):
        # _hit_lats[k]: issue to a hit at level k; [-1]: all lookups.
        self._hit_lats = list(itertools.accumulate(
            c.hit_latency for c in levels))
        self.engine = engine
        self.levels = levels
        self.membus = membus
        self.host_path_lat = host_path_lat
        self.membus_lat = host_path_lat - self._hit_lats[-1]
        # The host's only injector has one LSQ slot: its fetches, and its
        # uncacheable requests, go alone on an idle engine (see the module
        # docstring).
        self.alone = alone
        self._mshrs: Dict[int, list] = {}
        self._pkt_ids = itertools.count(1 << 48)  # fill/writeback id space
        stats.counters(self, {"membus.writebacksInFlight": "wb_in_flight",
                              "membus.writebacksInFlight::max": "wb_peak",
                              "l3.mshrMerges": "mshr_merges"})
        self._miss_lat = stats.histogram("l3.overallAvgMissLat")

    def access(self, pkt: MemPacket,
               reply: Callable[[MemPacket], None]) -> None:
        """Look up L1 -> L3 at issue (see the module docstring)."""
        pkt.reply = reply
        line = pkt.addr // LINE_BYTES
        write = pkt.cmd is MemCmd.WRITE_REQ
        for k, level in enumerate(self.levels):
            num_sets = level.num_sets
            cset = level._sets[line % num_sets]
            tag = line // num_sets
            if tag in cset:
                level.hits += 1
                cset[tag] = cset.pop(tag) or write
                pkt.level = k
                self.engine.schedule(self._hit_lats[k], self._hit, pkt)
                return
            level.misses += 1
        self._miss(pkt, line)

    def _hit(self, pkt: MemPacket) -> None:
        if pkt.level:
            self._promote(pkt.level - 1, pkt.addr // LINE_BYTES)
        pkt.reply(pkt)

    def _promote(self, upto: int, line: int) -> None:
        """Install `line` clean into levels upto..0 as Cache.install
        would; a dirty victim goes down through _demote."""
        levels = self.levels
        for k in range(upto, -1, -1):
            level = levels[k]
            num_sets = level.num_sets
            cset = level._sets[line % num_sets]
            tag = line // num_sets
            if tag in cset:
                cset[tag] = cset.pop(tag)
                continue
            if len(cset) >= level.ways:
                vtag = next(iter(cset))
                if cset.pop(vtag):
                    self._demote(k + 1, vtag * num_sets + line % num_sets)
            cset[tag] = False

    def _demote(self, idx: int, line: int) -> None:
        """Push a dirty victim down; past the last level it becomes a
        write-back packet to memory."""
        while idx < len(self.levels):
            victim = self.levels[idx].install(line, dirty=True)
            if victim is None or not victim[1]:
                return
            line = victim[0]
            idx += 1
        self._issue_writeback(line)

    def _issue_writeback(self, line: int) -> None:
        wb = MemPacket(next(self._pkt_ids), MemCmd.WRITE_REQ,
                       line * LINE_BYTES)
        self.wb_in_flight += 1
        if self.wb_in_flight > self.wb_peak:
            self.wb_peak = self.wb_in_flight
        self.membus.send(wb, self.membus_lat, self._writeback_done)

    def _writeback_done(self, _wb: MemPacket) -> None:
        self.wb_in_flight -= 1

    def _miss(self, pkt: MemPacket, line: int) -> None:
        if line in self._mshrs:
            self.mshr_merges += 1
            self._mshrs[line].append(pkt)
            return
        fetch = MemPacket(next(self._pkt_ids), MemCmd.READ_REQ,
                          line * LINE_BYTES,
                          self.engine.now + self._hit_lats[-1])
        # Sent before the MSHR is taken, so an unmapped line faults here
        # and leaves no entry behind; _fill runs in an event either way.
        self.membus.send(fetch, self.host_path_lat, self._fill,
                         self.alone and not self.engine.queue)
        self._mshrs[line] = [pkt]

    def _fill(self, fetch: MemPacket) -> None:
        self._miss_lat.record(self.engine.now - fetch.issue_tick)
        line = fetch.addr // LINE_BYTES
        self._promote(len(self.levels) - 1, line)
        # A reply cannot evict the line from L1: a hit it causes promotes in
        # a later event, and a miss goes to the bus.
        for pkt in self._mshrs.pop(line):
            if pkt.cmd is MemCmd.WRITE_REQ:
                self.levels[0].install(line, dirty=True)
            pkt.reply(pkt)


class Injector:
    """Synthetic core with a bounded load/store queue.

    Issues beyond the LSQ depth queue up and count as lsqFullEvents; a
    slot is released when the matching response returns (cached stores
    complete on fill, uncacheable stores on the target's acknowledgment).
    A batch issued all at once can come as a stream (`issue_stream`),
    whose requests are built only as the queue reaches them, so the queue
    holds at most one of them.  The counts all injectors share live on
    `host`.
    """

    def __init__(self, engine: Engine, inj_id: int, lsq_depth: int,
                 host: "HostPath", ticks_per_cycle: float):
        self.engine = engine
        self.lsq_depth = lsq_depth
        self._host = host
        self._hierarchy = host.hierarchy
        self._membus = host.membus
        self._in_flight = 0
        self._pending: deque = deque()
        self._stream: Optional[Iterator] = None     # see issue_stream
        self._load_to_use = host.load_to_use
        self._ticks_per_cycle = ticks_per_cycle
        self._ids = itertools.count(inj_id << 32)

    def issue(self, cmd: MemCmd, addr: int, cacheable: bool = True,
              on_complete=None) -> int:
        """Issue one 64B line, behind what is left of a stream (see
        issue_stream); `on_complete(pkt)` gets the request packet."""
        if self._stream is not None:
            stream, self._stream = self._stream, None
            for _ in stream:
                pass
        pkt = MemPacket(next(self._ids), cmd, addr, 0, cacheable)
        pkt.on_complete = on_complete
        if self._in_flight < self.lsq_depth and not self._pending:
            self._start(pkt)
        else:
            self._host.lsq_full += 1
            self._pending.append(pkt)
        return pkt.id

    def issue_stream(self, requests: Iterator) -> None:
        """Issue a batch exactly as one `issue` call after another would,
        but each request when the queue reaches it: each step of the
        iterator `requests` makes one `issue` call.  Steps are taken until
        a request waits in the queue; then each completion takes one more
        before the queue's head leaves, so the queue is never empty while
        the stream has requests left."""
        for _ in requests:
            if self._pending:
                self._stream = requests
                return

    def _start(self, pkt: MemPacket) -> None:
        """Dispatch through the caches, or to the bus when uncacheable,
        then take the LSQ slot: a dispatch that faults takes none, and
        none completes inside the dispatch (a hit or a reply is an
        event)."""
        pkt.issue_tick = self.engine.now
        if pkt.cacheable:
            self._hierarchy.access(pkt, self._finish)
        else:
            hierarchy = self._hierarchy
            self._membus.send(pkt, hierarchy.host_path_lat, self._finish,
                              hierarchy.alone and not self.engine.queue)
        self._in_flight += 1
        host = self._host
        host.outstanding += 1
        if host.outstanding > host.outstanding_peak:
            host.outstanding_peak = host.outstanding

    def _finish(self, pkt: MemPacket) -> None:
        self._in_flight -= 1
        host = self._host
        host.outstanding -= 1
        done = host.completed = host.completed + 1
        if done in host.window:
            host.window[done] = self.engine.now
        if pkt.cmd is MemCmd.READ_REQ:
            self._load_to_use.record(
                (self.engine.now - pkt.issue_tick) / self._ticks_per_cycle)
        if self._pending and self._in_flight < self.lsq_depth:
            stream = self._stream
            if stream is not None:
                # The step issues into a queue that is not empty, so its
                # request waits and counts as if issued with the batch.
                self._stream = None
                for _ in stream:
                    self._stream = stream
                    break
            self._start(self._pending.popleft())
        on_complete = pkt.on_complete
        if on_complete is not None:
            on_complete(pkt)


class HostPath:
    """Assembled host: injectors feeding caches (or the uncacheable fast
    path) into the memory bus."""

    def __init__(self, engine: Engine, caches: List[Cache], membus: MemBus,
                 injectors: int, lsq_depth: int, host_path_lat: int, stats,
                 ticks_per_cycle: float):
        self.membus = membus
        self.hierarchy = CacheHierarchy(
            engine, caches, membus, host_path_lat, stats,
            alone=injectors == 1 and lsq_depth == 1)
        self.load_to_use = stats.histogram(
            "core.loadToUse", edges=(0, 10, 100, 1000, 10000, 100000))
        stats.counters(self, {
            "core.lsqFullEvents": "lsq_full",
            "core.outstandingRequests": "outstanding",
            "core.outstandingRequests::max": "outstanding_peak"})
        # The measure window: requests completed, and {count: tick} for
        # the completions whose tick workloads.run reads, stamped by _finish.
        self.completed = 0
        self.window: Dict[int, int] = {}
        self.injectors = [
            Injector(engine, i, lsq_depth, self, ticks_per_cycle)
            for i in range(injectors)
        ]
