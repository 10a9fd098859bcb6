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
channel; a refetch of that page is an ordinary miss.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .engine import Engine


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


@dataclass
class SsdConfig:
    page_size: int
    read_latency: int                  # ticks per page
    write_latency: int                 # ticks per page
    parallel_channels: int

    def validate(self) -> None:
        if self.page_size < 64 or self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a power of two >= 64")
        if self.parallel_channels < 1:
            raise ValueError("need at least one channel")


@dataclass
class DeviceCacheConfig:
    capacity: int
    policy: str               # lru | fifo

    def validate(self, page_size: int) -> None:
        if self.capacity % page_size:
            raise ValueError("cache capacity must divide into whole pages")
        if self.policy not in ("lru", "fifo"):
            raise ValueError(f"unknown replacement policy {self.policy!r}")


class BestOffsetPrefetcher:
    """Offset prefetcher scored against a recent-request table."""

    def __init__(self):
        self.offsets = _smooth_offsets(MAX_OFFSET)
        self.scores: Dict[int, int] = {d: 0 for d in self.offsets}
        self.best_offset: Optional[int] = None
        self.round = 0
        self._test_idx = 0
        self._rr: OrderedDict = OrderedDict()
        self.phases_completed = 0

    def _rr_insert(self, page: int) -> None:
        if page in self._rr:
            self._rr.move_to_end(page)
        else:
            self._rr[page] = None
            if len(self._rr) > RR_SIZE:
                self._rr.popitem(last=False)

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
    take different times.
    """

    def __init__(self, engine: Engine, config: SsdConfig, stats):
        config.validate()
        self.engine = engine
        self.config = config
        self._free_at = [0] * config.parallel_channels   # a heap
        self.page_reads = stats.counter("ssd.pageReads")
        self.page_writes = stats.counter("ssd.pageWrites")

    def io(self, kind: str, on_done: Callable[[], None]) -> None:
        """One page read or program on the channel that frees first."""
        if kind == "read":
            self.page_reads.inc()
            lat = self.config.read_latency
        else:
            self.page_writes.inc()
            lat = self.config.write_latency
        now = self.engine.now
        start = max(now, self._free_at[0])
        heapq.heapreplace(self._free_at, start + lat)
        self.engine.schedule(start - now + lat, on_done)


class _CachedPage:
    __slots__ = ("dirty", "prefetched", "referenced")

    def __init__(self, prefetched: bool = False):
        self.dirty = False
        self.prefetched = prefetched
        self.referenced = False


class SsdCachedMedium:
    """Device cache in front of the flash; write-allocate, write-back."""

    answers_by_callback = True

    def __init__(self, engine: Engine, ssd: SsdMedium, cache: DeviceCacheConfig,
                 hit_latency: int, stats,
                 prefetcher: Optional[BestOffsetPrefetcher] = None):
        cache.validate(ssd.config.page_size)
        self.engine = engine
        self.ssd = ssd
        self.cache_config = cache
        self.hit_latency = hit_latency
        self.prefetcher = prefetcher
        self.page_size = ssd.config.page_size
        self.capacity_pages = cache.capacity // self.page_size
        self._pages: OrderedDict = OrderedDict()      # page -> _CachedPage
        self._inflight: Dict[int, dict] = {}          # page -> fetch record
        self.hits = stats.counter("ssdcache.hits")
        self.misses = stats.counter("ssdcache.misses")
        self.late_hits = stats.counter("ssdcache.lateHits")
        self.prefetch_issued = stats.counter("ssdcache.prefetchIssued")
        self.prefetch_useful = stats.counter("ssdcache.prefetchUseful")
        self.writebacks = stats.counter("ssdcache.writebacks")

    # -- medium interface ---------------------------------------------------

    def access(self, offset: int, kind: str, on_done: Callable[[], None]) -> None:
        page = offset // self.page_size
        entry = self._pages.get(page)
        if entry is not None:
            self.hits.inc()
            if self.cache_config.policy == "lru":
                self._pages.move_to_end(page)
            candidate = None
            if entry.prefetched and not entry.referenced:
                self.prefetch_useful.inc()
                entry.referenced = True
                if self.prefetcher is not None:
                    candidate = self.prefetcher.update(page)
            if kind == "write":
                entry.dirty = True
            self.engine.schedule(self.hit_latency, on_done)
            if candidate is not None:
                self._maybe_prefetch(candidate, trigger=page)
            return

        if page in self._inflight:
            record = self._inflight[page]
            record["waiters"].append((kind, on_done))
            if record["prefetch"]:
                self.late_hits.inc()
                if self.prefetcher is not None:
                    candidate = self.prefetcher.update(page)
                    if candidate is not None:
                        self._maybe_prefetch(candidate, trigger=page)
            return

        self.misses.inc()
        candidate = self.prefetcher.update(page) if self.prefetcher else None
        self._fetch(page, prefetch=False, trigger=page,
                    waiters=[(kind, on_done)])
        if candidate is not None:
            self._maybe_prefetch(candidate, trigger=page)

    # -- fills and evictions --------------------------------------------------

    def _maybe_prefetch(self, page: int, trigger: int) -> None:
        if page in self._pages or page in self._inflight:
            return
        self.prefetch_issued.inc()
        self._fetch(page, prefetch=True, trigger=trigger, waiters=[])

    def _fetch(self, page: int, prefetch: bool, trigger: int, waiters: list) -> None:
        self._inflight[page] = {"prefetch": prefetch, "trigger": trigger,
                                "waiters": waiters}
        self.ssd.io("read", lambda: self._install(page))

    def _install(self, page: int) -> None:
        record = self._inflight.pop(page)
        entry = _CachedPage(prefetched=record["prefetch"])
        installed = self._evict_for(record)
        if installed:
            self._pages[page] = entry
        for kind, on_done in record["waiters"]:
            entry.referenced = True
            if kind == "write":
                entry.dirty = True
            self.engine.schedule(self.hit_latency, on_done)
        if not installed and entry.dirty:
            # Uncacheable install absorbed a write; program it.
            self.ssd.io("write", lambda: None)

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
            self.writebacks.inc()
            self.ssd.io("write", lambda: None)
        return True


class SsdDirectMedium:
    """Uncached SSD path: every 64B read costs a page read and every 64B
    write a page read-modify-write (a page read, then a page program)."""

    answers_by_callback = True

    def __init__(self, ssd: SsdMedium):
        self.ssd = ssd

    def access(self, offset: int, kind: str, on_done: Callable[[], None]) -> None:
        if kind == "read":
            self.ssd.io("read", on_done)
        else:
            self.ssd.io("read", lambda: self.ssd.io("write", on_done))
