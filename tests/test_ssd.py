import pytest
from hypothesis import given, settings, strategies as st

from conftest import ssd_device
from test_acceptance import _reference_best_offset
from test_golden_reports import _small_cache_ssd

from cxlsim.bridge import CxlKind, CxlMemPacket
from cxlsim.config import check_config, merge_config, preset, run_workload
from cxlsim.engine import Engine, ns_to_ticks
from cxlsim.media import READ, WRITE
from cxlsim.stats import StatsRegistry
from cxlsim.ssd import (MAX_OFFSET, ROUND_MAX, RR_SIZE, BestOffsetPrefetcher,
                        SsdCachedMedium, SsdDirectMedium, SsdMedium,
                        _smooth_offsets)

PAGE = 4096


def request(offset, kind, reply, id=0):
    """The packet a device hands its SSD medium: `reply(pkt)` answers it;
    no bridge waits on the device's answer."""
    if kind == "write":
        return CxlMemPacket(CxlKind.M2S_RWD, id, offset, None, None,
                            reply=reply)
    return CxlMemPacket(CxlKind.M2S_REQ, id, offset, None, None,
                        reply=reply)


def make_cached(engine, capacity_pages=2, policy="lru", read_ns=2000,
                write_ns=5000, channels=1, prefetcher=None, stats=None):
    stats = stats or StatsRegistry()
    ssd = SsdMedium(engine, PAGE, ns_to_ticks(read_ns), ns_to_ticks(write_ns),
                    channels, stats)
    cache = SsdCachedMedium(engine, ssd, capacity_pages * PAGE, policy,
                            ns_to_ticks(50), stats, prefetcher)
    return ssd, cache


def access_all(engine, cache, pages, kind="read"):
    """Dependent accesses: each starts when the previous one finishes."""
    done = []

    def step(i=0):
        if i == len(pages):
            return
        cache.access(request(pages[i] * PAGE, kind, lambda pkt: (
            done.append(engine.now), step(pkt.id + 1)), i))

    step()
    engine.run()
    return done


def test_offset_list_is_smooth_numbers_up_to_64():
    offsets = _smooth_offsets(64)
    assert offsets[:8] == [1, 2, 3, 4, 5, 6, 8, 9]
    assert 7 not in offsets and 14 not in offsets and 63 not in offsets
    assert offsets[-1] == 64 and len(offsets) == 27


class TestReplacementPolicies:
    def test_repeated_access_one_miss_then_hits(self):
        engine = Engine()
        stats = StatsRegistry()
        _, cache = make_cached(engine, stats=stats)
        access_all(engine, cache, [7, 7, 7, 7])
        assert stats.flatten()["ssdcache.misses"] == 1
        assert stats.flatten()["ssdcache.hits"] == 3

    def test_fifo_ignores_recency(self):
        engine = Engine()
        stats = StatsRegistry()
        _, cache = make_cached(engine, capacity_pages=2, policy="fifo",
                               stats=stats)
        access_all(engine, cache, [1, 2, 3, 1])   # C evicts A; final A misses
        assert stats.flatten()["ssdcache.misses"] == 4

    def test_lru_evicts_least_recent(self):
        engine = Engine()
        stats = StatsRegistry()
        _, cache = make_cached(engine, capacity_pages=2, policy="lru",
                               stats=stats)
        access_all(engine, cache, [1, 2, 3, 1])
        assert stats.flatten()["ssdcache.misses"] == 4

        engine2 = Engine()
        stats2 = StatsRegistry()
        _, cache2 = make_cached(engine2, capacity_pages=2, policy="lru",
                                stats=stats2)
        access_all(engine2, cache2, [1, 2, 1, 3, 1])  # refresh keeps A resident
        assert stats2.flatten()["ssdcache.misses"] == 3


class TestBestOffsetLearning:
    def run_stream(self, pages):
        bo = BestOffsetPrefetcher()
        phase_zero = bo.phases_completed
        for page in pages:
            bo.update(page)
            if bo.phases_completed > phase_zero:
                break
        return bo

    def test_sequential_stream_selects_offset_one(self):
        bo = self.run_stream(range(10000))
        assert bo.best_offset == 1

    def test_stride_three_selects_offset_three(self):
        bo = self.run_stream(range(0, 30000, 3))
        assert bo.best_offset == 3

    def test_random_stream_disables_prefetching(self):
        import random
        rng = random.Random(3)
        bo = self.run_stream([rng.randrange(1 << 40) for _ in range(3000)])
        assert bo.best_offset is None

    def test_phase_out_of_rounds_selects_its_best_scorer(self):
        # Pages lie 1000 apart, so no offset scores, but for a few that
        # lie one offset past the page before, at an update that tests
        # that offset: 5 scores 12 and 3, tested first, scores 4.  Neither
        # reaches SCORE_MAX, so the phase ends after ROUND_MAX rounds.
        offsets = _smooth_offsets(MAX_OFFSET)
        n = len(offsets)
        placed = {r * n + offsets.index(5): 5 for r in range(0, 96, 8)}
        placed.update({r * n + offsets.index(3): 3 for r in range(2, 96, 24)})
        pages = []
        for i in range(ROUND_MAX * n):
            pages.append(pages[-1] + placed[i] if i in placed else i * 1000)
        bo = BestOffsetPrefetcher()
        for page in pages[:-1]:
            bo.update(page)
        assert bo.phases_completed == 0
        assert (bo.scores[5], bo.scores[3]) == (12, 4)
        assert bo.update(pages[-1]) == pages[-1] + 5
        assert (bo.best_offset, bo.phases_completed) == (5, 1)
        assert bo.scores == dict.fromkeys(offsets, 0)
        assert _reference_best_offset(pages) == 5

    def test_candidate_applies_best_offset(self):
        bo = BestOffsetPrefetcher()
        bo.best_offset = 4
        assert bo._candidate(100) == 104

    def test_recent_request_table_keeps_the_newest_pages(self):
        bo = BestOffsetPrefetcher()
        for page in range(RR_SIZE):
            bo._rr_insert(page)
        bo._rr_insert(0)                     # refreshed: now the newest
        bo._rr_insert(RR_SIZE)               # evicts page 1, the oldest
        assert list(bo._rr) == [*range(2, RR_SIZE), 0, RR_SIZE]


class TestSsdIo:
    def test_one_channel_serializes(self):
        engine = Engine()
        ssd = SsdMedium(engine, PAGE, ns_to_ticks(1000),
                        ns_to_ticks(1000), 1, StatsRegistry())
        done = []
        for _ in range(2):
            engine.schedule(ssd.io("read"), lambda _: done.append(engine.now))
        engine.run()
        assert done == [ns_to_ticks(1000), ns_to_ticks(2000)]

    def test_two_channels_parallel(self):
        engine = Engine()
        ssd = SsdMedium(engine, PAGE, ns_to_ticks(1000),
                        ns_to_ticks(1000), 2, StatsRegistry())
        done = []
        for _ in range(2):
            engine.schedule(ssd.io("read"), lambda _: done.append(engine.now))
        engine.run()
        assert done == [ns_to_ticks(1000)] * 2

    def test_mixed_queue_makespan_is_sum(self):
        engine = Engine()
        ssd = SsdMedium(engine, PAGE, ns_to_ticks(1000),
                        ns_to_ticks(3000), 1, StatsRegistry())
        kinds = ["read", "write", "read", "write", "read"]
        for k in kinds:
            engine.schedule(ssd.io(k), lambda _: None)
        end = engine.run()
        assert end == ns_to_ticks(3 * 1000 + 2 * 3000)


def test_prefetch_never_evicts_its_trigger():
    engine = Engine()
    stats = StatsRegistry()
    bo = BestOffsetPrefetcher()
    bo.best_offset = 1        # pre-trained
    _, cache = make_cached(engine, capacity_pages=1, prefetcher=bo, stats=stats)
    access_all(engine, cache, [10])
    # the single slot holds the trigger; the prefetched page was not allowed
    # to displace it
    assert 10 in cache._pages
    assert stats.flatten()["ssdcache.prefetchIssued"] == 1


def test_sequential_scan_demand_misses_vanish_after_learning():
    engine = Engine()
    stats = StatsRegistry()
    bo = BestOffsetPrefetcher()
    _, cache = make_cached(engine, capacity_pages=64, read_ns=2000,
                           channels=4, prefetcher=bo, stats=stats)
    accesses_per_page = 16
    stride = PAGE // accesses_per_page
    pages = 1200
    offsets = [p * PAGE + i * stride for p in range(pages)
               for i in range(accesses_per_page)]

    before_misses = {"v": 0}
    warm_accesses = 1000 * accesses_per_page

    done = []

    def step(i=0):
        if i == len(offsets):
            return
        if i == warm_accesses:
            before_misses["v"] = stats.flatten()["ssdcache.misses"]
        cache.access(request(offsets[i], "read", lambda pkt: (
            done.append(pkt.id), step(pkt.id + 1)), i))

    step()
    engine.run()
    measured = len(offsets) - warm_accesses
    late_misses = stats.flatten()["ssdcache.misses"] - before_misses["v"]
    assert late_misses / measured <= 0.05
    assert stats.flatten()["ssdcache.prefetchUseful"] > 0


def test_read_after_write_through_writeback_and_refetch():
    engine = Engine()
    stats = StatsRegistry()
    _, cache = make_cached(engine, capacity_pages=2, stats=stats)

    # write page 0, force eviction by touching pages 1 and 2, then re-read
    access_all(engine, cache, [0], kind="write")
    access_all(engine, cache, [1, 2])
    assert 0 not in cache._pages          # evicted, written back
    assert stats.flatten()["ssdcache.writebacks"] >= 1
    reads = stats.flatten()["ssd.pageReads"]
    misses = stats.flatten()["ssdcache.misses"]
    access_all(engine, cache, [0])
    assert stats.flatten()["ssdcache.misses"] == misses + 1
    assert stats.flatten()["ssd.pageReads"] == reads + 1


def test_uncached_rmw_write_then_read():
    engine = Engine()
    stats = StatsRegistry()
    ssd = SsdMedium(engine, PAGE, ns_to_ticks(1000), ns_to_ticks(3000),
                    1, stats)
    direct = SsdDirectMedium(ssd)
    done = []
    direct.access(request(256, "write", lambda _: done.append(engine.now)))
    engine.run()
    direct.access(request(256, "read", lambda _: done.append(engine.now)))
    engine.run()
    # the write pays a page read then a page program; the read one page read
    assert done == [ns_to_ticks(1000 + 3000), ns_to_ticks(1000 + 3000 + 1000)]
    # one page read per 64B read, read-modify-write per 64B write
    assert stats.flatten()["ssd.pageReads"] == 2
    assert stats.flatten()["ssd.pageWrites"] == 1


def test_late_demand_joins_inflight_prefetch():
    engine = Engine()
    stats = StatsRegistry()
    bo = BestOffsetPrefetcher()
    bo.best_offset = 1
    _, cache = make_cached(engine, capacity_pages=8, read_ns=5000,
                           prefetcher=bo, stats=stats)
    got = []
    cache.access(request(0, "read", lambda _: got.append(engine.now)))
    # while page 1's prefetch is in flight, demand it
    engine.schedule(ns_to_ticks(5500), lambda _: cache.access(request(
        PAGE, "read", lambda _: got.append(engine.now))))
    engine.run()
    assert len(got) == 2
    assert stats.flatten()["ssdcache.lateHits"] == 1
    assert stats.flatten()["ssdcache.misses"] == 1


# -- the device cache against its page-object reference --------------------


class _CachedPage:
    __slots__ = ("dirty", "prefetched", "referenced")

    def __init__(self, prefetched: bool = False):
        self.dirty = False
        self.prefetched = prefetched
        self.referenced = False


def _programmed(_arg) -> None:
    """A page program that nothing waits on has finished."""


class ReferenceCachedMedium:
    """SsdCachedMedium as it was written before it kept a page as its
    dirty bit: page objects, string-keyed fetch records and
    (kind, on_done, arg) waiters.  Its page programs still fire an event
    that does nothing."""

    def __init__(self, engine, ssd, capacity, policy, hit_latency, stats,
                 prefetcher=None):
        self.engine = engine
        self.ssd = ssd
        self.capacity = capacity
        self.policy = policy
        self.hit_latency = hit_latency
        self.prefetcher = prefetcher
        self.page_size = ssd.page_size
        self.capacity_pages = capacity // self.page_size
        self._pages = {}          # in LRU or FIFO order
        self._inflight = {}       # page -> fetch record
        stats.counters(self, {
            "ssdcache.hits": "hits", "ssdcache.misses": "misses",
            "ssdcache.lateHits": "late_hits",
            "ssdcache.prefetchIssued": "prefetch_issued",
            "ssdcache.prefetchUseful": "prefetch_useful",
            "ssdcache.writebacks": "writebacks"})

    def access(self, offset, kind, on_done, arg):
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

    def _maybe_prefetch(self, page, trigger):
        if page in self._pages or page in self._inflight:
            return
        self.prefetch_issued += 1
        self._fetch(page, prefetch=True, trigger=trigger, waiters=[])

    def _fetch(self, page, prefetch, trigger, waiters):
        self._inflight[page] = {"prefetch": prefetch, "trigger": trigger,
                                "waiters": waiters}
        self.engine.schedule(self.ssd.io(READ), self._install, page)

    def _install(self, page):
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
            self.engine.schedule(self.ssd.io(WRITE), _programmed)

    def _evict_for(self, record):
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
            self.engine.schedule(self.ssd.io(WRITE), _programmed)
        return True


# A strided page stream with noise: each request names the stream's next
# page (None) or a noise page, and arrives some gap after the previous one.
# The stream wraps within its span, so evicted pages come back.
streams = st.tuples(
    st.integers(1, 3),                                  # page stride
    st.integers(2, 40),                                 # pages in its span
    st.lists(st.tuples(st.one_of(st.integers(0, 500),   # gap in ns: often
                                 st.integers(0, 6000)),  # under a page read
                       st.one_of(st.none(), st.integers(0, 48)),
                       st.integers(0, PAGE // 64 - 1),  # line in the page
                       st.booleans()),                  # a write
             min_size=1, max_size=120))


def run_device_cache(make, kind_of, stream, capacity_pages, policy,
                     best_offset, channels):
    """Feeds `stream` to the cache `make` builds; returns the completions
    as (tick, id), the flattened stats, the cache and the prefetcher's
    state."""
    engine = Engine()
    stats = StatsRegistry()
    ssd = SsdMedium(engine, PAGE, ns_to_ticks(2000), ns_to_ticks(5000),
                    channels, stats)
    bo = None
    if best_offset is not None:
        bo = BestOffsetPrefetcher()
        bo.best_offset = best_offset     # pre-trained
    cache = make(engine, ssd, capacity_pages * PAGE, policy, ns_to_ticks(50),
                 stats, bo)
    done = []
    stride, span, requests = stream
    tick, page = 0, 0
    for i, (gap, noise, line, write) in enumerate(requests):
        tick += ns_to_ticks(gap)
        if noise is None:
            page = (page + stride) % span
        offset = (page if noise is None else noise) * PAGE + line * 64
        engine.schedule(tick, kind_of(cache, done, engine),
                        (i, offset, "write" if write else "read"))
    engine.run()
    state = None if bo is None else (bo.best_offset, bo.scores, list(bo._rr))
    return done, stats.flatten(), cache, state


def _issue_packet(cache, done, engine):
    def issue(req):
        i, offset, kind = req
        cache.access(request(offset, kind,
                             lambda pkt: done.append((engine.now, pkt.id)), i))
    return issue


def _issue_waiter(cache, done, engine):
    def issue(req):
        i, offset, kind = req
        cache.access(offset, kind,
                     lambda i: done.append((engine.now, i)), i)
    return issue


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(stream=streams, capacity_pages=st.integers(1, 8),
       policy=st.sampled_from(["lru", "fifo"]),
       best_offset=st.one_of(st.none(), st.integers(1, 3)),
       channels=st.integers(1, 3))
def test_device_cache_matches_page_object_reference(
        stream, capacity_pages, policy, best_offset, channels):
    got = run_device_cache(SsdCachedMedium, _issue_packet, stream,
                           capacity_pages, policy, best_offset, channels)
    want = run_device_cache(ReferenceCachedMedium, _issue_waiter, stream,
                            capacity_pages, policy, best_offset, channels)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert list(got[2]._pages.items()) == [
        (page, entry.dirty) for page, entry in want[2]._pages.items()]
    assert got[2]._unused == {
        page for page, entry in want[2]._pages.items()
        if entry.prefetched and not entry.referenced}
    assert got[3] == want[3]


MB = 1 << 20
# A 2 MB page on a 1 MB window: every address of the window is in one
# host page, whatever the window's base.
BIG_PAGE = merge_config(preset("cxl-ssd"), {
    "devices": [dict(ssd_device(ssd={"page_bytes": 2 * MB},
                                cache={"capacity_kb": 4096}), hdm_size_mb=1)],
    "workload": {"kind": "kv_proxy", "ops": 400, "warm_ops": 40,
                 "footprint_mb": 1}})


@pytest.mark.parametrize("cfg, bases", [
    (_small_cache_ssd("lru"), (1 << 30, 4 << 30)),
    (_small_cache_ssd("fifo"), (1 << 30, 4 << 30)),
    (BIG_PAGE, (MB, 4 << 30))], ids=["lru", "fifo", "big-page"])
def test_the_ssd_model_does_not_depend_on_where_its_window_sits(cfg, bases):
    # The device cache keys a page by its host address, so the window is
    # moved by the local memory below it; the SSD counts and the rows
    # must not move with it.  The small-cache cases evict, write back,
    # prefetch and see late hits.
    runs = []
    for local_mb, base in zip((1, 4096), bases):
        result = run_workload(check_config(merge_config(
            cfg, {"host": {"local_dram_mb": local_mb}})))
        assert result.system.devices[0].bar.base == base
        runs.append((result.system.stats.flatten(), result.rows))
    assert runs[0] == runs[1]
