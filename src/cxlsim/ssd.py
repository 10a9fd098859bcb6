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
channel; a refetch of that page is an ordinary miss.  An access or a
page I/O takes a handler and its argument, `on_done(arg)`, rather than a
closure; the device passes a bound method and the request packet.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional

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


def _programmed(_arg) -> None:
    """A page program that nothing waits on has finished."""


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

    def io(self, kind: str, on_done: Callable[[Any], None],
           arg: Any = None) -> None:
        """One page I/O on the channel that frees first, then on_done(arg)."""
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
        self.engine.schedule(start - now + lat, on_done, arg)


class _CachedPage:
    __slots__ = ("dirty", "prefetched", "referenced")

    def __init__(self, prefetched: bool = False):
        self.dirty = False
        self.prefetched = prefetched
        self.referenced = False


class SsdCachedMedium:
    """Device cache in front of the flash; write-allocate, write-back.
    `capacity` is in bytes, `policy` is "lru" or "fifo" and `hit_latency`
    is in ticks."""

    answers_by_callback = True

    def __init__(self, engine: Engine, ssd: SsdMedium, capacity: int,
                 policy: str, hit_latency: int, stats,
                 prefetcher: Optional[BestOffsetPrefetcher] = None):
        self.engine = engine
        self.ssd = ssd
        self.capacity = capacity
        self.policy = policy
        self.hit_latency = hit_latency
        self.prefetcher = prefetcher
        self.page_size = ssd.page_size
        self.capacity_pages = capacity // self.page_size
        self._pages: Dict[int, _CachedPage] = {}      # in LRU or FIFO order
        self._inflight: Dict[int, dict] = {}          # page -> fetch record
        stats.counters(self, {
            "ssdcache.hits": "hits", "ssdcache.misses": "misses",
            "ssdcache.lateHits": "late_hits",
            "ssdcache.prefetchIssued": "prefetch_issued",
            "ssdcache.prefetchUseful": "prefetch_useful",
            "ssdcache.writebacks": "writebacks"})

    # -- medium interface ---------------------------------------------------

    def access(self, offset: int, kind: str, on_done: Callable[[Any], None],
               arg: Any) -> None:
        """One 64B access at device `offset`, then `on_done(arg)`."""
        page = offset // self.page_size
        entry = self._pages.get(page)
        if entry is not None:
            self.hits += 1
            if self.policy == "lru":
                self._pages[page] = self._pages.pop(page)
            candidate = None
            if entry.prefetched and not entry.referenced:
                self.prefetch_useful += 1
                entry.referenced = True
                if self.prefetcher is not None:
                    candidate = self.prefetcher.update(page)
            if kind == WRITE:
                entry.dirty = True
            self.engine.schedule(self.hit_latency, on_done, arg)
            if candidate is not None:
                self._maybe_prefetch(candidate, trigger=page)
            return

        if page in self._inflight:
            record = self._inflight[page]
            record["waiters"].append((kind, on_done, arg))
            if record["prefetch"]:
                self.late_hits += 1
                if self.prefetcher is not None:
                    candidate = self.prefetcher.update(page)
                    if candidate is not None:
                        self._maybe_prefetch(candidate, trigger=page)
            return

        self.misses += 1
        candidate = self.prefetcher.update(page) if self.prefetcher else None
        self._fetch(page, prefetch=False, trigger=page,
                    waiters=[(kind, on_done, arg)])
        if candidate is not None:
            self._maybe_prefetch(candidate, trigger=page)

    # -- fills and evictions --------------------------------------------------

    def _maybe_prefetch(self, page: int, trigger: int) -> None:
        if page in self._pages or page in self._inflight:
            return
        self.prefetch_issued += 1
        self._fetch(page, prefetch=True, trigger=trigger, waiters=[])

    def _fetch(self, page: int, prefetch: bool, trigger: int, waiters: list) -> None:
        self._inflight[page] = {"prefetch": prefetch, "trigger": trigger,
                                "waiters": waiters}
        self.ssd.io(READ, self._install, page)

    def _install(self, page: int) -> None:
        record = self._inflight.pop(page)
        entry = _CachedPage(prefetched=record["prefetch"])
        installed = self._evict_for(record)
        if installed:
            self._pages[page] = entry
        for kind, on_done, arg in record["waiters"]:
            entry.referenced = True
            if kind == WRITE:
                entry.dirty = True
            self.engine.schedule(self.hit_latency, on_done, arg)
        if not installed and entry.dirty:
            # Uncacheable install absorbed a write; program it.
            self.ssd.io(WRITE, _programmed)

    def _evict_for(self, record: dict) -> bool:
        """Make room for one install; returns False when a prefetched page
        may not be cached because the only victim is its trigger line."""
        if len(self._pages) < self.capacity_pages:
            return True
        protected = record["trigger"] if record["prefetch"] else None
        victim_page = None
        for page in self._pages:          # front = LRU or FIFO order
            if page != protected:
                victim_page = page
                break
        if victim_page is None:
            return False
        victim = self._pages.pop(victim_page)
        if victim.dirty:
            self.writebacks += 1
            self.ssd.io(WRITE, _programmed)
        return True


class SsdDirectMedium:
    """Uncached SSD path: every 64B read costs a page read and every 64B
    write a page read-modify-write (a page read, then a page program)."""

    answers_by_callback = True

    def __init__(self, ssd: SsdMedium):
        self.ssd = ssd

    def access(self, offset: int, kind: str, on_done: Callable[[Any], None],
               arg: Any) -> None:
        if kind == READ:
            self.ssd.io(READ, on_done, arg)
        else:
            self.ssd.io(READ, self._program, (on_done, arg))

    def _program(self, waiter: tuple) -> None:
        self.ssd.io(WRITE, *waiter)
