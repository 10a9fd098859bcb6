from cxlsim.engine import Engine, ns_to_ticks
from cxlsim.stats import StatsRegistry
from cxlsim.ssd import (BestOffsetPrefetcher, SsdCachedMedium,
                        SsdDirectMedium, SsdMedium, _smooth_offsets)

PAGE = 4096


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
        cache.access(pages[i] * PAGE, kind,
                     lambda: (done.append(engine.now), step(i + 1)))

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

    def test_candidate_applies_best_offset(self):
        bo = BestOffsetPrefetcher()
        bo.best_offset = 4
        assert bo._candidate(100) == 104


class TestSsdIo:
    def test_one_channel_serializes(self):
        engine = Engine()
        ssd = SsdMedium(engine, PAGE, ns_to_ticks(1000),
                        ns_to_ticks(1000), 1, StatsRegistry())
        done = []
        ssd.io("read", lambda: done.append(engine.now))
        ssd.io("read", lambda: done.append(engine.now))
        engine.run()
        assert done == [ns_to_ticks(1000), ns_to_ticks(2000)]

    def test_two_channels_parallel(self):
        engine = Engine()
        ssd = SsdMedium(engine, PAGE, ns_to_ticks(1000),
                        ns_to_ticks(1000), 2, StatsRegistry())
        done = []
        ssd.io("read", lambda: done.append(engine.now))
        ssd.io("read", lambda: done.append(engine.now))
        engine.run()
        assert done == [ns_to_ticks(1000)] * 2

    def test_mixed_queue_makespan_is_sum(self):
        engine = Engine()
        ssd = SsdMedium(engine, PAGE, ns_to_ticks(1000),
                        ns_to_ticks(3000), 1, StatsRegistry())
        kinds = ["read", "write", "read", "write", "read"]
        for k in kinds:
            ssd.io(k, lambda: None)
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
        cache.access(offsets[i], "read",
                     lambda: (done.append(i), step(i + 1)))

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
    direct.access(256, "write", lambda: done.append(engine.now))
    engine.run()
    direct.access(256, "read", lambda: done.append(engine.now))
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
    cache.access(0, "read", lambda: got.append(engine.now))
    # while page 1's prefetch is in flight, demand it
    engine.run_until(ns_to_ticks(5500))
    cache.access(PAGE, "read", lambda: got.append(engine.now))
    engine.run()
    assert len(got) == 2
    assert stats.flatten()["ssdcache.lateHits"] == 1
    assert stats.flatten()["ssdcache.misses"] == 1
