"""Flash-backed medium with an interposed device cache and prefetcher.

The SSD speaks page-granular I/O (microsecond latencies, a handful of
parallel channels) while CXL.mem arrives in 64-byte transfers, so a
DRAM-class cache sits between the controller and the flash: demand hits
are served at cache latency, misses fetch whole pages, dirty evictions
write pages back, and a Best-Offset prefetcher watches the miss stream
to fetch ahead when a stable page stride emerges.

Best-Offset learning: candidate offsets are the positive integers up to
64 whose prime factors are in {2, 3, 5}.  Each eligible access (demand
miss or first hit on a prefetched page) tests one candidate d in
round-robin order and scores it when page-d is in the recent-request
table.  A phase ends when a score reaches 31 or after 100 rounds; the
best-scoring offset becomes the active prefetch offset unless its score
is <= 1, which disables prefetching until a later phase finds a winner.

The model is timing-only: no bytes are stored.  A write marks its cached
page dirty, and a dirty eviction charges the page program time on a
channel; a refetch of that page is an ordinary miss.  An access takes
the request's CXL packet and ends with `pkt.reply(pkt)`.  Its page is
`pkt.addr // page_size`: the HDM window is aligned to its power-of-two
size, so a host page is the device page plus a constant, and the cache
and the prefetcher use only page differences, order and membership.  A
page I/O returns the ticks until it completes and schedules nothing:
whoever waits on it schedules its own handler, and a write-back, which
nothing waits on, fires no event.  No closure is built.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from .bridge import CxlKind, CxlMemPacket
from .engine import Engine
from .media import READ, WRITE


# Best-Offset tuning, as the module docstring describes it.
SCORE_MAX = 31
ROUND_MAX = 100
BAD_SCORE = 1
RR_SIZE = 128        # pages in the recent-request table
MAX_OFFSET = 64


def _smooth_offsets(limit: int) -> List[int]:
    out = []
    for d in range(1, limit + 1):
        n = d
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        if n == 1:
            out.append(d)
    return out


class BestOffsetPrefetcher:
    """Offset prefetcher scored against a recent-request table."""

    def __init__(self):
        self.offsets = _smooth_offsets(MAX_OFFSET)
        self.scores: Dict[int, int] = {d: 0 for d in self.offsets}
        self.best_offset: Optional[int] = None
        self.round = 0
        self._test_idx = 0
        self._rr: Dict[int, None] = {}     # insertion order is LRU order
        self.phases_completed = 0

    def _rr_insert(self, page: int) -> None:
        rr = self._rr
        if page in rr:
            rr.pop(page)
        elif len(rr) >= RR_SIZE:
            rr.pop(next(iter(rr)))
        rr[page] = None

    def _end_phase(self, selected: Optional[int]) -> None:
        self.best_offset = selected
        self.scores = {d: 0 for d in self.offsets}
        self.round = 0
        self._test_idx = 0
        self.phases_completed += 1

    def update(self, page: int) -> Optional[int]:
        """One learning step for an eligible access; returns the page to
        prefetch when an offset is active, else None."""
        d = self.offsets[self._test_idx]
        if page - d in self._rr:
            self.scores[d] += 1
            if self.scores[d] >= SCORE_MAX:
                self._end_phase(d)
                self._rr_insert(page)
                return self._candidate(page)
        self._test_idx += 1
        if self._test_idx == len(self.offsets):
            self._test_idx = 0
            self.round += 1
            if self.round >= ROUND_MAX:
                best = max(self.offsets, key=lambda o: self.scores[o])
                if self.scores[best] > BAD_SCORE:
                    self._end_phase(best)
                else:
                    self._end_phase(None)
        self._rr_insert(page)
        return self._candidate(page)

    def _candidate(self, page: int) -> Optional[int]:
        if self.best_offset is None:
            return None
        return page + self.best_offset


class SsdMedium:
    """Flash channels with FIFO arbitration.

    Each I/O takes the channel that frees first, at max(now, that tick);
    a heap of the channels' free ticks gives the start when the I/O is
    submitted, which is exact FIFO dispatch even when reads and writes
    take different times.  `read_latency` and `write_latency` are in ticks
    per page of `page_size` bytes.
    """

    def __init__(self, engine: Engine, page_size: int, read_latency: int,
                 write_latency: int, channels: int, stats):
        self.engine = engine
        self.page_size = page_size
        self.read_latency = read_latency
        self.write_latency = write_latency
        self._free_at = [0] * channels   # a heap
        stats.counters(self, {"ssd.pageReads": "page_reads",
                              "ssd.pageWrites": "page_writes"})

    def io(self, kind: str) -> int:
        """One page I/O on the channel that frees first; returns the ticks
        until it completes and schedules nothing, so a caller that waits
        on it schedules its own handler."""
        if kind == READ:
            self.page_reads += 1
            lat = self.read_latency
        else:
            self.page_writes += 1
            lat = self.write_latency
        now = self.engine.now
        start = self._free_at[0]
        if start < now:
            start = now
        heapq.heapreplace(self._free_at, start + lat)
        return start - now + lat


class SsdCachedMedium:
    """Device cache in front of the flash; write-allocate, write-back.
    `capacity` is in bytes, `policy` is "lru" or "fifo" and `hit_latency`
    is in ticks.

    `_pages` maps each cached page to its dirty bit in eviction order, the
    front first; under "lru" a hit re-inserts its page.  `_unused` holds
    the prefetched pages that no access has used yet.  `_inflight` maps
    each page being read to the page its install may not evict (the
    prefetch's trigger, or the page itself for a demand fetch) and the
    packets waiting for it."""

    answers_by_callback = True

    def __init__(self, engine: Engine, ssd: SsdMedium, capacity: int,
                 policy: str, hit_latency: int, stats,
                 prefetcher: Optional[BestOffsetPrefetcher] = None):
        self.engine = engine
        self.ssd = ssd
        self.hit_latency = hit_latency
        self.prefetcher = prefetcher
        self.page_size = ssd.page_size
        self.capacity_pages = capacity // self.page_size
        self._pages: Dict[int, bool] = {}
        # A hit takes its page's dirty bit out under LRU, leaves it under FIFO.
        self._take = self._pages.pop if policy == "lru" else self._pages.get
        self._unused: Set[int] = set()
        self._inflight: Dict[int, Tuple[int, list]] = {}
        stats.counters(self, {
            "ssdcache.hits": "hits", "ssdcache.misses": "misses",
            "ssdcache.lateHits": "late_hits",
            "ssdcache.prefetchIssued": "prefetch_issued",
            "ssdcache.prefetchUseful": "prefetch_useful",
            "ssdcache.writebacks": "writebacks"})

    def access(self, pkt: CxlMemPacket) -> None:
        """One 64B access at `pkt.addr`, then `pkt.reply(pkt)`.  The
        prefetcher learns from a demand miss, a demand that joins a
        prefetch in flight and the first hit on a prefetched page."""
        page = pkt.addr // self.page_size
        dirty = self._take(page, None)
        if dirty is not None:
            self.hits += 1
            self._pages[page] = dirty or pkt.kind is CxlKind.M2S_RWD
            self.engine.schedule(self.hit_latency, pkt.reply, pkt)
            if page not in self._unused:
                return
            self._unused.remove(page)
            self.prefetch_useful += 1
        else:
            fetch = self._inflight.get(page)
            if fetch is None:
                self.misses += 1
                self._inflight[page] = (page, [pkt])
                self.engine.schedule(self.ssd.io(READ), self._install, page)
            else:
                fetch[1].append(pkt)
                if fetch[0] == page:        # joins a demand fetch
                    return
                self.late_hits += 1
        if self.prefetcher is None:
            return
        ahead = self.prefetcher.update(page)
        if (ahead is not None and ahead not in self._pages
                and ahead not in self._inflight):
            self.prefetch_issued += 1
            self._inflight[ahead] = (page, [])
            self.engine.schedule(self.ssd.io(READ), self._install, ahead)

    def _install(self, page: int) -> None:
        """A page read is done: make room, cache the page and answer its
        waiters.  A prefetched page whose only victim would be its trigger
        is not cached."""
        keep, waiting = self._inflight.pop(page)
        pages = self._pages
        cached = True
        if len(pages) >= self.capacity_pages:
            # The front page, or the next when the front is `keep`; `keep`
            # itself when there is no other page.
            order = iter(pages)
            victim = next(order, keep)
            if victim == keep:
                victim = next(order, keep)
            cached = victim != keep
            if cached:
                self._unused.discard(victim)
                if pages.pop(victim):
                    self.writebacks += 1
                    self.ssd.io(WRITE)
        dirty = False
        for pkt in waiting:
            dirty = dirty or pkt.kind is CxlKind.M2S_RWD
            self.engine.schedule(self.hit_latency, pkt.reply, pkt)
        if cached:
            pages[page] = dirty
            if not waiting:
                self._unused.add(page)
        elif dirty:         # an uncacheable install absorbed a write
            self.ssd.io(WRITE)


class SsdDirectMedium:
    """Uncached SSD path: every 64B read costs a page read and every 64B
    write a page read-modify-write (a page read, then a page program)."""

    answers_by_callback = True

    def __init__(self, ssd: SsdMedium):
        self.engine = ssd.engine
        self.ssd = ssd

    def access(self, pkt: CxlMemPacket) -> None:
        if pkt.kind is CxlKind.M2S_RWD:
            self.engine.schedule(self.ssd.io(READ), self._program, pkt)
        else:
            self.engine.schedule(self.ssd.io(READ), pkt.reply, pkt)

    def _program(self, pkt: CxlMemPacket) -> None:
        self.engine.schedule(self.ssd.io(WRITE), pkt.reply, pkt)
