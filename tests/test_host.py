import copy
import gc
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build, patched_preset, tiny_cache_patch

from cxlsim import cli
from cxlsim.host import (AddressFault, AddressMap, Cache, CacheHierarchy,
                         LINE_BYTES, MemCmd, MemPacket, Target)
from cxlsim.config import check_config, merge_config, preset, run_workload
from cxlsim.engine import Engine, ns_to_ticks
from cxlsim.hdm import PAGE_BYTES
from cxlsim.stats import StatsRegistry
from cxlsim.workloads import STREAM_KERNELS


def test_mem_packet_validation():
    with pytest.raises(ValueError):
        MemPacket(id=1, cmd=MemCmd.READ_REQ, addr=32)  # misaligned


class TestAddressMap:
    def test_boundary_routing(self):
        amap = AddressMap()
        amap.carve(1 << 32)
        hdm = amap.carve(1 << 32, "device")
        assert hdm.base == 1 << 32
        assert amap.lookup(hdm.base).device == "device"
        assert amap.lookup(hdm.base - 64).device is None

    def test_unmapped_faults(self):
        amap = AddressMap()
        amap.carve(1024)
        with pytest.raises(AddressFault):
            amap.lookup(4096)

    @settings(max_examples=100, derandomize=True, database=None,
              deadline=None)
    @given(sizes=st.lists(st.integers(1, 8), min_size=1, max_size=8))
    def test_lookup_matches_a_linear_scan(self, sizes):
        # Sizes in 4 KB units: aligning each window to its size leaves
        # gaps, as after 3 units a window of 4 starts at 4.
        unit, amap = 4096, AddressMap()
        ranges = [amap.carve(size * unit, i)
                  for i, size in enumerate(sizes)]
        assert amap.ranges == ranges
        assert amap.bases == [r.base for r in ranges]
        top = 0
        for r, size in zip(ranges, sizes):
            assert r.limit - r.base == size * unit
            assert r.base % (size * unit) == 0
            assert r.base >= top
            top = r.limit
        for addr in range(0, top + unit, unit // 4):
            owner = [r for r in ranges if r.base <= addr < r.limit]
            if owner:
                assert amap.lookup(addr) is owner[0]
            else:
                # In a gap or at the last limit.
                with pytest.raises(AddressFault):
                    amap.lookup(addr)


def probe(cache, line):
    """One level's lookup as CacheHierarchy.access makes it: counts a hit
    or a miss and refreshes LRU order on a hit."""
    cset = cache._sets[line % cache.num_sets]
    tag = line // cache.num_sets
    if tag in cset:
        cache.hits += 1
        cset[tag] = cset.pop(tag)
        return True
    cache.misses += 1
    return False


class TestCache:
    def make(self, capacity=4096, assoc=4):
        return Cache("l1", capacity, assoc, 1000, StatsRegistry())

    def test_lru_within_set(self):
        # one set: capacity = assoc * line
        cache = self.make(capacity=4 * 64, assoc=4)
        for line in range(4):
            cache.install(line)
        probe(cache, 0)                      # refresh line 0
        victim = cache.install(100)          # evicts LRU (line 1)
        assert victim == (1, False)
        assert probe(cache, 0)

    def test_victim_address_reconstruction(self):
        cache = self.make(capacity=2 * 64 * 8, assoc=2)  # 8 sets
        line = 3 + 8 * 5                      # set 3, tag 5
        cache.install(line)
        cache.install(3 + 8 * 7)
        victim = cache.install(3 + 8 * 9)
        assert victim == (line, False)

    def test_install_of_present_line_marks_it_dirty_and_most_recent(self):
        cache = self.make(capacity=2 * 64, assoc=2)   # one set
        cache.install(0)
        cache.install(1)
        assert cache.install(0, dirty=True) is None
        assert cache.install(2) == (1, False)        # 0 became most recent
        assert cache.install(3) == (0, True)

    def test_dirty_travels_with_victim(self):
        cache = self.make(capacity=1 * 64, assoc=1)
        cache.install(5, dirty=True)
        victim = cache.install(6)
        assert victim == (5, True)


# -- dict sets against a list-based LRU reference -----------------------------


class ListLru:
    """One level as lists: a set is a list of (tag, dirty), oldest first,
    and a hit or a re-install moves its entry to the back."""

    def __init__(self, num_sets, ways):
        self.num_sets, self.ways = num_sets, ways
        self.sets = [[] for _ in range(num_sets)]
        self.hits = self.misses = 0

    def _take(self, line):
        """The line's set, and its entry taken out of it (or None)."""
        cset = self.sets[line % self.num_sets]
        tag = line // self.num_sets
        for i, (t, _) in enumerate(cset):
            if t == tag:
                return cset, cset.pop(i)
        return cset, None

    def probe(self, line, write):
        cset, entry = self._take(line)
        if entry is None:
            self.misses += 1
            return False
        self.hits += 1
        cset.append((entry[0], entry[1] or write))
        return True

    def install(self, line, dirty=False):
        cset, entry = self._take(line)
        if entry is not None:
            cset.append((entry[0], entry[1] or dirty))
            return None
        victim = None
        if len(cset) == self.ways:
            vtag, vdirty = cset.pop(0)
            victim = (vtag * self.num_sets + line % self.num_sets, vdirty)
        cset.append((line // self.num_sets, dirty))
        return victim


class ListHierarchy:
    """A hit at level k (made dirty by a write) later installs the line
    clean into the levels above; a miss later installs it into every level
    from the last up and then, for a write, dirty into L1.  A dirty victim
    moves down a level; past the last it is a write-back."""

    def __init__(self, levels):
        self.levels = levels
        self.writebacks = []

    def access(self, line, write):
        """Probe at issue; returns what completing the access does."""
        for k, level in enumerate(self.levels):
            if level.probe(line, write):
                return lambda: self.promote(k - 1, line)

        def fill():
            self.promote(len(self.levels) - 1, line)
            if write:
                self.levels[0].install(line, dirty=True)
        return fill

    def promote(self, upto, line):
        for k in range(upto, -1, -1):
            victim = self.levels[k].install(line)
            if victim is not None and victim[1]:
                self.demote(k + 1, victim[0])

    def demote(self, k, line):
        while k < len(self.levels):
            victim = self.levels[k].install(line, dirty=True)
            if victim is None or not victim[1]:
                return
            line, k = victim[0], k + 1
        self.writebacks.append(line)


class ImmediateBus:
    """Answers every packet `lat` after it is sent and records the line of
    each write-back."""

    def __init__(self, engine):
        self.engine = engine
        self.writebacks = []

    def send(self, pkt, lat, reply, alone=False):
        if pkt.cmd is MemCmd.WRITE_REQ:
            self.writebacks.append(pkt.addr // LINE_BYTES)
        self.engine.schedule(lat, reply, pkt)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                       min_size=1, max_size=3),
       seed=st.integers(0, 2**32))
def test_dict_sets_match_list_lru_reference(shapes, seed):
    # Thousands of operations on sets of at most four ways: every dict is
    # emptied and refilled, and compacted, many times over.
    rnd = random.Random(seed)
    engine, stats = Engine(), StatsRegistry()
    caches = [Cache(f"l{k + 1}", sets * ways * LINE_BYTES, ways, 1000, stats)
              for k, (sets, ways) in enumerate(shapes)]
    bus = ImmediateBus(engine)
    hierarchy = CacheHierarchy(engine, caches, bus, 10_000, stats)
    ref = ListHierarchy([ListLru(sets, ways) for sets, ways in shapes])
    span = rnd.randint(1, 3 * sum(sets * ways for sets, ways in shapes))
    done = []

    def install(line):
        k, dirty = rnd.randrange(len(caches)), rnd.random() < 0.5
        assert (caches[k].install(line, dirty)
                == ref.levels[k].install(line, dirty))

    for i in range(3000):
        line = rnd.randrange(span)
        if rnd.random() < 0.2:
            install(line)
            continue
        write = rnd.random() < 0.4
        cmd = MemCmd.WRITE_REQ if write else MemCmd.READ_REQ
        hierarchy.access(MemPacket(i, cmd, line * LINE_BYTES), done.append)
        complete = ref.access(line, write)
        while rnd.random() < 0.3:
            # Installs land while the access is in flight: its promotion
            # may find the line present, and not the newest in its set.
            install(line if rnd.random() < 0.5 else rnd.randrange(span))
        engine.run()
        complete()
        assert done[-1].id == i
        assert bus.writebacks == ref.writebacks
        for cache, level in zip(caches, ref.levels):
            assert cache_contents(cache) == level.sets
    for cache, level in zip(caches, ref.levels):
        assert (cache.hits, cache.misses) == (level.hits, level.misses)


def test_cache_sets_stay_untracked_by_the_collector():
    # A dict of int -> bool holds nothing the collector could find a cycle
    # through, so it never tracks one, however many sets a level has.
    cfg = merge_config(preset("cxl-dmsim-a"), {"workload": {
        "kind": "stream", "kernel": "triad", "groups": 300,
        "warm_groups": 30, "placement": "hdm"}})
    levels = run_workload(check_config(cfg)).system.host.hierarchy.levels
    for level in levels:
        assert any(level._sets)
        assert not any(gc.is_tracked(cset) for cset in level._sets), level.name


# -- the scoped LLC pre-warm against a per-line install of every line ----------


def reference_install_pages(cache, page_addrs, period, dirty_per_period,
                            touched=()):
    """The full pre-warm: install every line i of the cache's worth of the
    paged region, one line at a time, into whichever set it maps to;
    `touched` is ignored."""
    lines_per_page = PAGE_BYTES // LINE_BYTES
    for i in range(cache.num_sets * cache.ways):
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
    system = replace(ASIC_SYSTEM, free_pages=list(ASIC_SYSTEM.free_pages))
    nodes = (0, 1) if interleave else (data.draw(st.sampled_from([0, 1])),)
    system.place_pages(data.draw(st.integers(0, 3)), nodes)
    pages = system.place_pages(-(-capacity // PAGE_BYTES), nodes)
    per_page = PAGE_BYTES // LINE_BYTES
    rnd = random.Random(data.draw(st.integers(0, 2**32)))

    def anywhere():
        """A page of the region or, as often, any page."""
        return (rnd.choice(pages) if rnd.random() < 0.5
                else rnd.randrange(4 * len(pages) + per_page) * PAGE_BYTES)

    # The kernel's pages: enough consecutive ones to cover every set, or a
    # random few.
    touched = ([k * PAGE_BYTES for k in range(-(-num_sets // per_page))]
               if data.draw(st.booleans())
               else [anywhere() for _ in range(rnd.randrange(6))])
    reads, writes = STREAM_KERNELS[kernel]
    period = len(reads) + len(writes)

    caches = [Cache("l3", capacity, assoc, 1000, StatsRegistry())
              for _ in range(2)]
    caches[0].install_pages(pages, period, len(writes), touched)
    reference_install_pages(caches[1], pages, period, len(writes))
    # The sets that a touched page's lines map to: the page's whole blocks.
    wanted = {(addr // LINE_BYTES + k) % num_sets
              for addr in touched for k in range(per_page)}
    got, full = cache_contents(caches[0]), cache_contents(caches[1])
    for s in range(num_sets):
        assert got[s] == (full[s] if s in wanted else []), s


def test_install_pages_rejects_a_wanted_set_that_holds_lines():
    # 128 sets fall in two blocks of 64, one per page's lines.
    cache = Cache("l3", 128 * 2 * LINE_BYTES, 2, 1000, StatsRegistry())
    ghost = [k * PAGE_BYTES for k in range(4)]
    cache.install(64 + 5)               # set 69, in the second block
    before = cache_contents(cache)
    with pytest.raises(ValueError, match="empty"):
        cache.install_pages(ghost, 1, 0, [3 * PAGE_BYTES])
    # Refused before any set is written.
    assert cache_contents(cache) == before
    # A page of the other block fills that block and leaves set 69 alone.
    cache.install_pages(ghost, 1, 0, [2 * PAGE_BYTES])
    after = cache_contents(cache)
    assert all(after[:64]) and after[64:] == before[64:]


def test_new_cache_sets_are_distinct_dicts():
    # `[{}] * n` would alias one dict as every set.
    cache = Cache("l3", 8 * 1024, 2, 1000, StatsRegistry())
    assert len({id(cset) for cset in cache._sets}) == cache.num_sets == 64
    cache.install(0)
    assert sum(map(len, cache._sets)) == 1


STREAM_PLACEMENTS = [("local-ddr", "local"), ("cxl-dmsim-a", "hdm"),
                     ("cxl-dmsim-a", "interleave"), ("cxl-dmsim-f", "hdm")]


@pytest.mark.parametrize("kernel", sorted(STREAM_KERNELS))
@pytest.mark.parametrize("name,placement", STREAM_PLACEMENTS)
def test_scoped_prewarm_report_matches_full_prewarm(name, placement, kernel,
                                                    tmp_path, monkeypatch):
    cfg = merge_config(preset(name), {"workload": {
        "kind": "stream", "kernel": kernel, "groups": 200, "warm_groups": 20,
        "placement": placement}})
    cli.run_one(copy.deepcopy(cfg), str(tmp_path / "scoped"))
    monkeypatch.setattr(Cache, "install_pages", reference_install_pages)
    cli.run_one(copy.deepcopy(cfg), str(tmp_path / "full"))
    assert ((tmp_path / "scoped" / "report.json").read_bytes()
            == (tmp_path / "full" / "report.json").read_bytes())


# -- the one-step lookup against the per-level events it replaced -------------


class StaggeredHierarchy(CacheHierarchy):
    """The lookup that CacheHierarchy.access replaced: each level's lookup
    is its own event, and a full miss takes its MSHR after the last one and
    pays the residual membus_lat to the bus."""

    def access(self, pkt, reply):
        pkt.reply = reply
        self._lookup(0, pkt)

    def _lookup(self, idx, pkt):
        level = self.levels[idx]

        def after_lookup(_):
            line = pkt.addr // LINE_BYTES
            if probe(level, line):
                if pkt.cmd is MemCmd.WRITE_REQ:
                    level.install(line, dirty=True)
                if idx > 0:
                    self._promote(idx - 1, line)
                pkt.reply(pkt)
            elif idx + 1 < len(self.levels):
                self._lookup(idx + 1, pkt)
            else:
                self._staggered_miss(pkt, line)

        self.engine.schedule(level.hit_latency, after_lookup)

    def _staggered_miss(self, pkt, line):
        if line in self._mshrs:
            self.mshr_merges += 1
            self._mshrs[line].append(pkt)
            return
        self._mshrs[line] = [pkt]
        # The fill records its miss latency from the fetch's issue tick.
        fetch = MemPacket(id=next(self._pkt_ids), cmd=MemCmd.READ_REQ,
                          addr=line * LINE_BYTES, issue_tick=self.engine.now)
        self.membus.send(fetch, self.membus_lat, self._fill)


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
        system.host.injectors[inj].issue(
            cmd, base + line * LINE_BYTES,
            on_complete=lambda p: done.__setitem__(p.id, system.engine.now))

    for tick, inj, write, line in trace:
        system.engine.schedule(tick, lambda a: issue(*a), (inj, write, line))
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
    inj = system.host.injectors[0]
    done = []
    inj.issue(MemCmd.READ_REQ, 0, cacheable=False,
              on_complete=lambda p: done.append(system.engine.now))
    inj.issue(MemCmd.READ_REQ, 64, cacheable=False,
              on_complete=lambda p: done.append(system.engine.now))
    system.engine.run()
    assert system.stats.flatten()["core.lsqFullEvents"] == 1
    assert done[1] == 2 * done[0]   # second fully serialized behind first


def run_batch(batch, lsq_depth, outside_at, streamed):
    """Issue `batch`, a list of (write, cacheable, line), to one injector
    at once, by one `issue` call each or as one stream, and issue one
    more request to that injector when the `outside_at`-th completion
    comes; returns each request's (id, completion tick) and the
    flattened stats."""
    system = build(patched_preset("cxl-dmsim-a", {
        "workload": {"kind": "kv_proxy", "lsq_depth": lsq_depth}}))
    injector = system.host.injectors[0]
    base = system.devices[0].bar.base
    done = {}

    def complete(pkt):
        done[pkt.id] = system.engine.now
        if len(done) == outside_at:
            injector.issue(MemCmd.READ_REQ, base, on_complete=complete)

    def requests():
        for write, cacheable, line in batch:
            yield injector.issue(MemCmd.WRITE_REQ if write else MemCmd.READ_REQ,
                                 base + line * LINE_BYTES, cacheable, complete)

    if streamed:
        injector.issue_stream(requests())
    else:
        for _ in requests():
            pass
    system.engine.run()
    return sorted(done.items()), system.stats.flatten()


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(batch=st.lists(st.tuples(st.booleans(), st.booleans(),
                                st.integers(0, 255)), max_size=300),
       lsq_depth=st.integers(1, 8),
       data=st.data())
def test_a_stream_issues_as_eager_issue_calls_do(batch, lsq_depth, data):
    # Same ids, ticks and counts, lsqFullEvents among them, also when a
    # request from outside the stream comes while some of it is unissued
    # (outside_at 0: none comes).
    outside_at = data.draw(st.integers(0, len(batch)), label="outside_at")
    args = (batch, lsq_depth, outside_at)
    assert run_batch(*args, streamed=True) == run_batch(*args, streamed=False)


def test_local_read_never_reaches_bridge(asic_cfg):
    system = build(asic_cfg)
    inj = system.host.injectors[0]
    for i in range(8):
        inj.issue(MemCmd.READ_REQ, i * 64, cacheable=False)
    system.engine.run()
    assert system.stats.flatten()["membus.toBridge"] == 0
    assert system.stats.flatten()["bridge.m2sSent"] == 0


def test_mixed_stream_bridge_sees_exactly_hdm_half(asic_cfg):
    system = build(asic_cfg)
    inj = system.host.injectors[0]
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
        system.host.injectors[0].issue(MemCmd.READ_REQ, 1 << 60,
                                       cacheable=cacheable)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_idle_miss_fires_three_events_and_a_hit_one(level):
    # With two LSQ slots: the bus arrival, the device response and the
    # response conversion; no event per cache level, link message or
    # bridge traversal.  With one (the preset's) the miss goes alone: its
    # fill is the one event, at the same tick.
    for lsq_depth, miss_events in ((2, 3), (1, 1)):
        system = build(patched_preset("cxl-dmsim-a", {
            "workload": {"lsq_depth": lsq_depth}}))
        engine, inj = system.engine, system.host.injectors[0]
        levels = system.host.hierarchy.levels
        line = system.devices[0].bar.base // LINE_BYTES

        def read():
            """Events fired and load-to-use ticks of one read on an idle
            system."""
            start, seq, done = engine.now, engine._seq, []
            inj.issue(MemCmd.READ_REQ, line * LINE_BYTES,
                      on_complete=lambda p: done.append(engine.now - start))
            engine.run()
            return engine._seq - seq, done[0]

        assert read() == (miss_events, ns_to_ticks(288))
        # Clean lines of the same set push the line out of the levels
        # above `level`, so the next read hits there.
        for k in range(level):
            for j in range(1, levels[k].ways + 1):
                levels[k].install(line + j * levels[k].num_sets)
        assert read() == (1, sum(c.hit_latency for c in levels[:level + 1]))


def test_chase_within_l1_steady_state_hits(local_cfg):
    cfg = dict(local_cfg)
    cfg["workload"] = {"kind": "latency_sweep", "array_kb": [16],
                       "samples": 2000, "placement": "local"}
    result = run_workload(check_config(cfg))
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
    inj = system.host.injectors[0]
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
    system = run_workload(check_config(cfg)).system
    for level in ("l1", "l2", "l3"):
        hits = system.stats.flatten()[f"{level}.hits"]
        misses = system.stats.flatten()[f"{level}.misses"]
        lookups = system.stats.flatten()[f"{level}.lookups"]
        assert hits + misses == lookups


def test_load_to_use_bounds(local_cfg):
    cfg = dict(local_cfg)
    cfg["workload"] = {"kind": "latency_sweep", "array_kb": [16],
                       "samples": 300, "placement": "local"}
    system = run_workload(check_config(cfg)).system
    flat = system.stats.flatten()
    # 1 ns L1 hit at 2.5 GHz = 2.5 cycles
    assert flat["core.loadToUse::min_value"] >= 2.5
    assert flat["core.loadToUse::max_value"] < float("inf")


def test_request_conservation_at_quiesce(asic_cfg):
    cfg = dict(asic_cfg)
    cfg["workload"] = {"kind": "dlrm_proxy", "injectors": 4,
                       "queries_per_injector": 8, "lookups_per_query": 4,
                       "footprint_mb": 1, "placement": "hdm"}
    system = run_workload(check_config(cfg)).system
    assert system.stats.flatten()["core.outstandingRequests"] == 0
    assert system.stats.flatten()["membus.writebacksInFlight"] == 0
    assert (system.stats.flatten()["bridge.m2sSent"]
            == system.stats.flatten()["bridge.s2mReceived"])


def test_mshr_coalesces_same_line_misses(local_cfg):
    cfg = dict(local_cfg)
    cfg["workload"] = {"kind": "latency_sweep", "array_kb": [16], "samples": 1,
                       "placement": "local", "injectors": 1, "lsq_depth": 4}
    system = build(cfg)
    inj = system.host.injectors[0]
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
