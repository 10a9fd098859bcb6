import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build, patched_preset, tiny_cache_patch

from cxlsim.host import (AddressFault, AddressMap, Cache, CacheHierarchy,
                         LINE_BYTES, MemCmd, MemPacket, Target)
from cxlsim.config import preset, run_workload
from cxlsim.engine import ns_to_ticks
from cxlsim.hdm import PAGE_BYTES, Policy
from cxlsim.stats import StatsRegistry
from cxlsim.workloads import STREAM_KERNELS


def test_mem_packet_validation():
    with pytest.raises(ValueError):
        MemPacket(id=1, cmd=MemCmd.READ_REQ, addr=32)  # misaligned


class TestAddressMap:
    def test_overlap_rejected(self):
        amap = AddressMap()
        amap.add_range(0, 1024, Target.LOCAL_DRAM)
        with pytest.raises(ValueError):
            amap.add_range(512, 2048, Target.BRIDGE)

    def test_boundary_routing(self):
        amap = AddressMap()
        amap.add_range(0, 1 << 32, Target.LOCAL_DRAM)
        amap.add_range(1 << 32, 1 << 33, Target.BRIDGE)
        hdm_base = 1 << 32
        assert amap.lookup(hdm_base).target is Target.BRIDGE
        assert amap.lookup(hdm_base - 64).target is Target.LOCAL_DRAM

    def test_unmapped_faults(self):
        amap = AddressMap()
        amap.add_range(0, 1024, Target.LOCAL_DRAM)
        with pytest.raises(AddressFault):
            amap.lookup(4096)

    def test_allocate_above_aligns(self):
        amap = AddressMap()
        amap.add_range(0, 3 * 4096, Target.LOCAL_DRAM)
        base = amap.allocate_above(1 << 20)
        assert base == 1 << 20
        assert base >= amap.top() - (1 << 20)


class TestCache:
    def make(self, capacity=4096, assoc=4):
        return Cache("l1", capacity, assoc, 1000, StatsRegistry())

    def test_lru_within_set(self):
        # one set: capacity = assoc * line
        cache = self.make(capacity=4 * 64, assoc=4)
        for line in range(4):
            cache.install(line)
        cache.touch(0)                       # refresh line 0
        victim = cache.install(100)          # evicts LRU (line 1)
        assert victim == (1, False)
        assert cache.contains(0)

    def test_victim_address_reconstruction(self):
        cache = self.make(capacity=2 * 64 * 8, assoc=2)  # 8 sets
        line = 3 + 8 * 5                      # set 3, tag 5
        cache.install(line)
        cache.install(3 + 8 * 7)
        victim = cache.install(3 + 8 * 9)
        assert victim == (line, False)

    def test_dirty_travels_with_victim(self):
        cache = self.make(capacity=1 * 64, assoc=1)
        cache.install(5, dirty=True)
        victim = cache.install(6)
        assert victim == (5, True)


# -- the bulk LLC pre-warm against the per-line install it replaced -----------


def reference_install_pages(cache, page_addrs, lines, period, dirty_per_period):
    """Install line i of the paged region, one line at a time."""
    lines_per_page = PAGE_BYTES // LINE_BYTES
    for i in range(lines):
        addr = page_addrs[i // lines_per_page] + i % lines_per_page * LINE_BYTES
        cache.install(addr // LINE_BYTES, dirty=i % period < dirty_per_period)


def cache_contents(cache):
    return [list(cset.items()) for cset in cache._sets]


ASIC_SYSTEM = build(preset("cxl-dmsim-a"))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(num_sets=st.one_of(st.integers(1, 70), st.sampled_from([64, 96, 128, 200])),
       assoc=st.integers(1, 6), kernel=st.sampled_from(sorted(STREAM_KERNELS)),
       interleave=st.booleans(), data=st.data())
def test_install_pages_matches_per_line_install(num_sets, assoc, kernel,
                                                interleave, data):
    capacity = num_sets * assoc * LINE_BYTES     # often not whole pages
    system = replace(ASIC_SYSTEM, _page_cursor={})
    policy = (Policy.interleave((0, 1), (0.5, 0.5)) if interleave
              else Policy.bind(data.draw(st.sampled_from([0, 1]))))
    system.place_pages(data.draw(st.integers(0, 3)), policy)
    pages = system.place_pages(-(-capacity // PAGE_BYTES), policy)
    lines = capacity // LINE_BYTES
    # Lines held before the pre-warm, some of them inside the region, so
    # the present-tag and the eviction paths both run.
    region = [a // LINE_BYTES + k for a in pages
              for k in range(PAGE_BYTES // LINE_BYTES)][:lines]
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    held = [(rnd.choice(region) if rnd.random() < 0.5
             else rnd.randrange(4 * lines), rnd.random() < 0.5)
            for _ in range(rnd.randrange(3 * lines))]
    reads, writes = STREAM_KERNELS[kernel]
    period = len(reads) + len(writes)

    caches = [Cache("l3", capacity, assoc, 1000, StatsRegistry())
              for _ in range(2)]
    for cache in caches:
        for line, dirty in held:
            cache.install(line, dirty=dirty)
    caches[0].install_pages(pages, lines, period, len(writes))
    reference_install_pages(caches[1], pages, lines, period, len(writes))
    assert cache_contents(caches[0]) == cache_contents(caches[1])


# -- the one-step lookup against the per-level events it replaced -------------


class StaggeredHierarchy(CacheHierarchy):
    """The lookup that CacheHierarchy.access replaced: each level's lookup
    is its own event, and a full miss takes its MSHR after the last one and
    pays the residual membus_lat to the bus."""

    def access(self, pkt, on_complete):
        self._lookup(0, pkt, on_complete)

    def _lookup(self, idx, pkt, on_complete):
        level = self.levels[idx]

        def after_lookup():
            line = pkt.addr // LINE_BYTES
            if level.touch(line):
                if pkt.cmd is MemCmd.WRITE_REQ:
                    level.mark_dirty(line)
                if idx > 0:
                    self._promote(idx - 1, line)
                on_complete()
            elif idx + 1 < len(self.levels):
                self._lookup(idx + 1, pkt, on_complete)
            else:
                self._staggered_miss(pkt, line, on_complete)

        self.engine.schedule(level.hit_latency, after_lookup)

    def _staggered_miss(self, pkt, line, on_complete):
        if line in self._mshrs:
            self.mshr_merges += 1
            self._mshrs[line].append((pkt, on_complete))
            return
        self._mshrs[line] = [(pkt, on_complete)]
        miss_tick = self.engine.now
        fetch = MemPacket(id=next(self._pkt_ids), cmd=MemCmd.READ_REQ,
                          addr=line * LINE_BYTES)
        self.membus.send(fetch, self.membus_lat,
                         lambda: self._fill(line, miss_tick))


def run_trace(preset_name, caches, injectors, lsq_depth, trace,
              staggered=False):
    """Issue `trace`, a list of (tick, injector, write, line), against a
    fresh system with `caches` as its host.caches block; returns each
    request's completion tick, the flattened stats and the cache
    contents."""
    system = build(patched_preset(preset_name, {
        "host": {"caches": caches},
        "workload": {"kind": "dlrm_proxy", "injectors": injectors,
                     "lsq_depth": lsq_depth}}))
    if staggered:   # same state and stats, the old access path
        system.host.hierarchy.__class__ = StaggeredHierarchy
    base = system.devices[0].bar.base if system.devices else 0
    done = {}

    def issue(inj, write, line):
        cmd = MemCmd.WRITE_REQ if write else MemCmd.READ_REQ
        system.injectors[inj].issue(
            cmd, base + line * LINE_BYTES,
            on_complete=lambda p: done.__setitem__(p.id, system.engine.now))

    for tick, inj, write, line in trace:
        system.engine.schedule(tick, lambda a=(inj, write, line): issue(*a))
    system.engine.run()
    return (sorted(done.items()), system.stats.flatten(),
            [cache_contents(c) for c in system.host.hierarchy.levels])


def tiny_caches(draw):
    """L1 1 KB, L2 1-2 KB, L3 2-4 KB, each with 1-16 ways."""
    def level(kb, hit_ns):
        return {"capacity_kb": kb, "hit_latency_ns": hit_ns,
                "assoc": draw(st.sampled_from([1, 2, 4, 16]))}
    return {"l1": level(1, 1.0),
            "l2": level(draw(st.integers(1, 2)), draw(st.sampled_from([1.0, 4.0]))),
            "l3": level(draw(st.integers(2, 4)), draw(st.sampled_from([2.0, 10.0])))}


def random_trace(rnd, injectors, requests, lines, write_share, spread_ns):
    """Reads and writes over `lines` lines, half of them drawn from a hot
    eighth so lines are reused, issued at random ticks within
    `spread_ns`."""
    hot = max(1, lines // 8)
    return sorted(
        (rnd.randrange(spread_ns * 1000), rnd.randrange(injectors),
         rnd.random() < write_share,
         rnd.randrange(hot) if rnd.random() < 0.5 else rnd.randrange(lines))
        for _ in range(requests))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(preset_name=st.sampled_from(["local-ddr", "cxl-dmsim-a"]),
       data=st.data())
def test_one_step_lookup_matches_staggered_lookups(preset_name, data):
    # One request in flight: every lookup sees the same cache state at
    # issue as the staggered model did a few ns later.
    caches = tiny_caches(data.draw)
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    trace = random_trace(rnd, 1, rnd.randrange(1, 150),
                         lines=rnd.choice([16, 64, 256]),
                         write_share=rnd.random(),
                         spread_ns=rnd.choice([1, 500, 20000]))
    assert (run_trace(preset_name, caches, 1, 1, trace)
            == run_trace(preset_name, caches, 1, 1, trace, staggered=True))


def test_lsq_capacity_one_blocks_second_issue():
    cfg = patched_preset("local-ddr", {"workload": {
        "kind": "latency_sweep", "array_kb": [16], "samples": 1,
        "placement": "local", "injectors": 1, "lsq_depth": 1}})
    system = build(cfg)
    inj = system.injectors[0]
    done = []
    inj.issue(MemCmd.READ_REQ, 0, cacheable=False,
              on_complete=lambda p: done.append(system.engine.now))
    inj.issue(MemCmd.READ_REQ, 64, cacheable=False,
              on_complete=lambda p: done.append(system.engine.now))
    system.engine.run()
    assert system.stats.flatten()["core.lsqFullEvents"] == 1
    assert done[1] == 2 * done[0]   # second fully serialized behind first


def test_local_read_never_reaches_bridge(asic_cfg):
    system = build(asic_cfg)
    inj = system.injectors[0]
    for i in range(8):
        inj.issue(MemCmd.READ_REQ, i * 64, cacheable=False)
    system.engine.run()
    assert system.stats.flatten()["membus.toBridge"] == 0
    assert system.stats.flatten()["bridge.m2sSent"] == 0


def test_mixed_stream_bridge_sees_exactly_hdm_half(asic_cfg):
    system = build(asic_cfg)
    inj = system.injectors[0]
    hdm_base = system.devices[0].bar.base
    for i in range(50):
        inj.issue(MemCmd.READ_REQ, i * 64, cacheable=False)
        inj.issue(MemCmd.READ_REQ, hdm_base + i * 64, cacheable=False)
    system.engine.run()
    assert system.stats.flatten()["membus.toBridge"] == 50
    assert system.stats.flatten()["membus.toLocal"] == 50
    assert system.stats.flatten()["bridge.m2sSent"] == 50


@pytest.mark.parametrize("cacheable", [False, True])
def test_unmapped_issue_faults(local_cfg, cacheable):
    system = build(local_cfg)
    with pytest.raises(AddressFault):
        system.injectors[0].issue(MemCmd.READ_REQ, 1 << 60,
                                  cacheable=cacheable)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_idle_miss_fires_three_events_and_a_hit_one(asic_cfg, level):
    system = build(asic_cfg)
    engine, inj = system.engine, system.injectors[0]
    levels = system.host.hierarchy.levels
    line = system.devices[0].bar.base // LINE_BYTES

    def read():
        """Events fired and load-to-use ticks of one read on an idle system."""
        start, seq, done = engine.now, engine._seq, []
        inj.issue(MemCmd.READ_REQ, line * LINE_BYTES,
                  on_complete=lambda p: done.append(engine.now - start))
        system.engine.run()
        return engine._seq - seq, done[0]

    # The bus arrival, the device response and the response conversion;
    # no event per cache level, link message or bridge traversal.
    assert read() == (3, ns_to_ticks(288))
    # Clean lines of the same set push the line out of the levels above
    # `level`, so the next read hits there.
    for k in range(level):
        for j in range(1, levels[k].ways + 1):
            levels[k].install(line + j * levels[k].num_sets)
    assert read() == (1, sum(c.hit_latency for c in levels[:level + 1]))


def test_chase_within_l1_steady_state_hits(local_cfg):
    cfg = dict(local_cfg)
    cfg["workload"] = {"kind": "latency_sweep", "array_kb": [16],
                       "samples": 2000, "placement": "local"}
    result = run_workload(cfg)
    system = result.system
    lines = 16 * 1024 // 64
    # Only the cold pass misses; every measured access hits L1.
    assert system.stats.flatten()["l1.misses"] == lines
    assert result.rows[0][1] == 1.0


def test_random_working_set_4x_llc_hit_rate_bound():
    patch = tiny_cache_patch()
    patch["workload"] = {"kind": "latency_sweep", "array_kb": [16],
                         "samples": 1, "placement": "local",
                         "injectors": 1, "lsq_depth": 4}
    system = build(patched_preset("local-ddr", patch))
    llc_capacity = 64 * 1024
    footprint_lines = 4 * llc_capacity // LINE_BYTES
    rng = random.Random(9)
    inj = system.injectors[0]
    for _ in range(20000):
        inj.issue(MemCmd.READ_REQ, rng.randrange(footprint_lines) * LINE_BYTES)
    system.engine.run()
    l3 = system.stats
    hits = l3.flatten()["l3.hits"]
    lookups = l3.flatten()["l3.lookups"]
    assert hits / lookups <= 0.25 + 0.03


def test_per_level_hits_plus_misses_equal_lookups(local_cfg):
    cfg = dict(local_cfg)
    cfg["workload"] = {"kind": "latency_sweep", "array_kb": [16, 96],
                       "samples": 500, "placement": "local"}
    system = run_workload(cfg).system
    for level in ("l1", "l2", "l3"):
        hits = system.stats.flatten()[f"{level}.hits"]
        misses = system.stats.flatten()[f"{level}.misses"]
        lookups = system.stats.flatten()[f"{level}.lookups"]
        assert hits + misses == lookups


def test_load_to_use_bounds(local_cfg):
    cfg = dict(local_cfg)
    cfg["workload"] = {"kind": "latency_sweep", "array_kb": [16],
                       "samples": 300, "placement": "local"}
    system = run_workload(cfg).system
    flat = system.stats.flatten()
    # 1 ns L1 hit at 2.5 GHz = 2.5 cycles
    assert flat["core.loadToUse::min_value"] >= 2.5
    assert flat["core.loadToUse::max_value"] < float("inf")


def test_request_conservation_at_quiesce(asic_cfg):
    cfg = dict(asic_cfg)
    cfg["workload"] = {"kind": "dlrm_proxy", "injectors": 4,
                       "queries_per_injector": 8, "lookups_per_query": 4,
                       "footprint_mb": 1, "placement": "hdm"}
    system = run_workload(cfg).system
    assert system.stats.flatten()["core.outstandingRequests"] == 0
    assert system.stats.flatten()["membus.writebacksInFlight"] == 0
    assert (system.stats.flatten()["bridge.m2sSent"]
            == system.stats.flatten()["bridge.s2mReceived"])


def test_mshr_coalesces_same_line_misses(local_cfg):
    cfg = dict(local_cfg)
    cfg["workload"] = {"kind": "latency_sweep", "array_kb": [16], "samples": 1,
                       "placement": "local", "injectors": 1, "lsq_depth": 4}
    system = build(cfg)
    inj = system.injectors[0]
    done = []
    for _ in range(3):
        inj.issue(MemCmd.READ_REQ, 0x1000,
                  on_complete=lambda p: done.append(system.engine.now))
    system.engine.run()
    assert len(done) == 3
    assert done[0] == done[1] == done[2]      # all served by one fill
    assert system.stats.flatten()["l3.mshrMerges"] == 2
    # exactly one memory fetch reached the local DRAM
    dram = system.membus.targets[Target.LOCAL_DRAM].medium
    assert dram.reads == 1
