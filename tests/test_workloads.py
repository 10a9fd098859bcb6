import copy
import math
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tiny_cache_patch

from cxlsim import workloads
from cxlsim.config import (ConfigError, check_config, merge_config, preset,
                           run_workload)
from cxlsim.engine import Engine
from cxlsim.hdm import PAGE_BYTES
from cxlsim.host import LINE_BYTES, MemCmd
from cxlsim.workloads import (STREAM_KERNELS, build_chase_cycle,
                              stream_bytes_per_group)


def test_chase_cycle_covers_all_lines_once():
    rng = random.Random(1)
    for n in (1, 2, 7, 256):
        order = build_chase_cycle(n, rng)
        assert sorted(order) == list(range(n))


# Each end of each power-of-two band of line counts, where the bits a
# draw takes change.
BAND_EDGES = [2 ** m + d for m in range(1, 14) for d in (-1, 0, 1)]


def _assert_chase_cycle_is_the_stdlib_shuffle(n, seed):
    ours, stdlib = random.Random(seed), random.Random(seed)
    expected = list(range(n))
    stdlib.shuffle(expected)
    assert build_chase_cycle(n, ours) == expected
    assert ours.getstate() == stdlib.getstate()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(n=st.integers(0, 5000), seed=st.integers(0, 2 ** 32 - 1))
def test_chase_cycle_is_the_stdlib_shuffle(n, seed):
    _assert_chase_cycle_is_the_stdlib_shuffle(n, seed)


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_chase_cycle_is_the_stdlib_shuffle_at_band_edges(seed):
    for n in BAND_EDGES:
        _assert_chase_cycle_is_the_stdlib_shuffle(n, seed)


def _recording_system(seed, issued):
    """Just what a workload point reads of a System: its one injector
    appends (cmd, addr) of each request to `issued`, its engine keeps each
    scheduled action in `scheduled`, and nothing runs."""
    scheduled = []
    engine = SimpleNamespace(
        now=0, run=lambda: None, scheduled=scheduled,
        schedule=lambda delay, action, arg=None: scheduled.append(action))
    injector = SimpleNamespace(
        engine=engine,
        issue=lambda cmd, addr, cacheable=True, on_complete=None:
            issued.append((cmd, addr)))
    return SimpleNamespace(engine=engine, seed=seed,
                           am_alloc=lambda pid, size: 0,
                           host=SimpleNamespace(injectors=[injector]))


def _dlrm_queries(seed, lines, lookups, issued):
    """The one injector's queries of a dlrm_proxy run over a region of
    `lines` lines, each line its own address; none has started."""
    system = _recording_system(seed, issued)
    region = SimpleNamespace(lines=lines, line_addr=lambda line: line)
    params = SimpleNamespace(kind="dlrm_proxy", footprint_mb=1,
                             queries_per_injector=3, lookups_per_query=lookups,
                             placement=None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "_PagedRegion", lambda *args: region)
        workloads.run(lambda: system, params)
    (next_query,) = system.engine.scheduled
    return next_query.__self__


def _rdwr_traffic(seed, lines, read_fraction, ops, issued):
    """The requests of one rdwr_sweep point over a region of `lines`
    lines, each line its own address, into `issued`; returns its _OpenLoop."""
    system = _recording_system(seed, issued)
    region = SimpleNamespace(lines=lines, line_addr=lambda line: line)
    params = SimpleNamespace(kind="rdwr_sweep", footprint_mb=1,
                             read_fractions=[read_fraction],
                             rates_bytes_per_ns=[64.0], ops=ops, warm_ops=0,
                             placement=None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "_PagedRegion", lambda *args: region)
        workloads.run(lambda: system, params)
    issue = system.engine.scheduled[0]
    for k in range(ops):
        issue(k)
    return issue.__self__


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(lines=st.one_of(st.integers(1, 1 << 22), st.sampled_from(BAND_EDGES)),
       read_fraction=st.sampled_from([0.0, 0.3, 1.0]),
       ops=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
def test_rdwr_requests_are_the_stdlib_draws(lines, read_fraction, ops, seed):
    issued = []
    traffic = _rdwr_traffic(seed, lines, read_fraction, ops, issued)
    stdlib = random.Random(workloads._derive_seed(seed, "rdwr", 0, 64.0))
    expected = []
    for _ in range(ops):
        cmd = (MemCmd.READ_REQ if stdlib.random() < read_fraction
               else MemCmd.WRITE_REQ)
        expected.append((cmd, stdlib.randrange(lines)))
    assert issued == expected
    assert traffic.rng.getstate() == stdlib.getstate()


KV_PARAMS = dict(kind="kv_proxy", ops=400, warm_ops=0, footprint_mb=3,
                 put_fraction=0.5, hot_fraction=0.94, hot_window_pages=1)


def _run_kv(seed, issued, **params):
    """A kv_proxy run's requests into `issued`; returns its rng."""
    made = []

    class Recording(random.Random):
        def __init__(self, x):
            super().__init__(x)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "random", SimpleNamespace(Random=Recording))
        workloads.run(lambda: _recording_system(seed, issued),
                      SimpleNamespace(**{**KV_PARAMS, **params}))
    return made[0]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(lines=st.one_of(st.integers(1, 1 << 22), st.sampled_from(BAND_EDGES)),
       lookups=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_dlrm_lookups_are_the_stdlib_randrange(lines, lookups, seed):
    issued = []
    queries = _dlrm_queries(seed, lines, lookups, issued)
    for _ in range(3):
        queries.next_query()
    stdlib = random.Random(workloads._derive_seed(seed, "dlrm", 0))
    assert issued == [(MemCmd.READ_REQ, stdlib.randrange(lines))
                      for _ in range(3 * lookups)]
    assert queries.rng.getstate() == stdlib.getstate()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(footprint_mb=st.integers(1, 6), hot_window_pages=st.integers(1, 8),
       put_fraction=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
       hot_fraction=st.sampled_from([0.0, 0.5, 0.94, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kv_lines_are_the_stdlib_randrange(footprint_mb, hot_window_pages,
                                           put_fraction, hot_fraction, seed):
    # A hot window of up to 8 pages (512 lines) and 400 ops draw every span
    # from 1 up past a few band edges; 3, 5 and 6 MB are no power of two.
    params = dict(footprint_mb=footprint_mb, put_fraction=put_fraction,
                  hot_fraction=hot_fraction, hot_window_pages=hot_window_pages)
    issued = []
    rng = _run_kv(seed, issued, **params)
    stdlib = random.Random(workloads._derive_seed(seed, "kv"))
    total = footprint_mb * (1 << 20) // LINE_BYTES
    hot = hot_window_pages * (PAGE_BYTES // LINE_BYTES)
    expected, frontier = [], 0
    for _ in range(KV_PARAMS["ops"]):
        if stdlib.random() < put_fraction:
            expected.append((MemCmd.WRITE_REQ, frontier % total * LINE_BYTES))
            frontier += 1
        elif stdlib.random() < hot_fraction and frontier > 0:
            back = stdlib.randrange(min(frontier, hot))
            expected.append((MemCmd.READ_REQ,
                             (frontier - 1 - back) % total * LINE_BYTES))
        else:
            expected.append((MemCmd.READ_REQ,
                             stdlib.randrange(total) * LINE_BYTES))
    assert issued == expected
    assert rng.getstate() == stdlib.getstate()


@pytest.mark.parametrize("workload", ["dlrm", "rdwr", "kv"])
def test_random_draws_enter_no_random_py_function(workload):
    # Every draw is one getrandbits C call: past seeding (and subclassing)
    # the rng, no function of random.py (randrange, _randbelow) runs.
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == random.__file__:
            called.add(frame.f_code.co_name)

    issued = []
    sys.setprofile(profile)
    try:
        if workload == "dlrm":
            queries = _dlrm_queries(7, 1000, 16, issued)
            for _ in range(3):
                queries.next_query()
        elif workload == "rdwr":
            _rdwr_traffic(7, 1000, 0.5, 60, issued)
        else:
            _run_kv(7, issued)
    finally:
        sys.setprofile(None)
    assert len(issued) > 40
    assert called <= {"__init__", "seed", "__init_subclass__"}


def test_stream_kernel_traffic_shapes():
    assert STREAM_KERNELS["copy"] == (("a",), ("c",))
    assert STREAM_KERNELS["add"] == (("a", "b"), ("c",))
    assert stream_bytes_per_group("copy") == 128
    assert stream_bytes_per_group("triad") == 192


def test_add_kernel_read_byte_fraction_two_thirds():
    cfg = preset("local-ddr")
    cfg["workload"] = {"kind": "stream", "kernel": "add", "groups": 1200,
                       "warm_groups": 200, "placement": "local"}
    result = run_workload(check_config(cfg))
    assert result.summary["read_byte_fraction"] == pytest.approx(2 / 3)


def test_identical_config_and_seed_reproduce_rows_and_stats():
    def once():
        cfg = preset("cxl-dmsim-a")
        cfg["workload"] = {"kind": "rdwr_sweep", "read_fractions": [0.6],
                           "ops": 1200, "warm_ops": 200, "placement": "hdm"}
        result = run_workload(check_config(cfg))
        return result.rows, result.system.stats.flatten()

    rows1, stats1 = once()
    rows2, stats2 = once()
    assert rows1 == rows2
    assert stats1 == stats2


def test_different_seed_changes_chase_order_not_plateau():
    def plateau(seed, array_kb=(49152,)):
        cfg = preset("local-ddr")
        cfg["seed"] = seed
        cfg["workload"] = {"kind": "latency_sweep", "array_kb": list(array_kb),
                           "samples": 300, "placement": "local"}
        return run_workload(check_config(cfg)).rows[-1][1]

    assert plateau(1) == plateau(2) == 130.0
    # After a 16 KB array, the plateau's window starts at its own first
    # load, not at tick 0 of the run.
    assert plateau(1, (16, 49152)) == 130.0


@pytest.mark.parametrize("array_kb,stride,samples,walked", [
    (128, 4096, 40, 32),       # fewer lines than samples: each line once
    (256, 64, 40, 40),
])
def test_array_beyond_llc_walks_sampled_distinct_lines(
        monkeypatch, array_kb, stride, samples, walked):
    from cxlsim import host, workloads

    chased, issued = [], []
    real_chase, real_issue = workloads.build_chase_cycle, host.Injector.issue

    def counting_chase(num_lines, rng):
        chased.append(num_lines)
        return real_chase(num_lines, rng)

    def recording_issue(self, cmd, addr, *args, **kwargs):
        issued.append(addr)
        return real_issue(self, cmd, addr, *args, **kwargs)

    monkeypatch.setattr(workloads, "build_chase_cycle", counting_chase)
    monkeypatch.setattr(host.Injector, "issue", recording_issue)
    cfg = merge_config(preset("local-ddr"), tiny_cache_patch())   # 64 KB LLC
    cfg["workload"] = {"kind": "latency_sweep",
                       "array_kb": [16, 64, array_kb], "stride": stride,
                       "samples": samples, "placement": "local"}
    run_workload(check_config(cfg))
    # Only the arrays that fit the LLC build a full cycle, and each walks
    # it once to warm up before its samples.
    assert chased == [16 * 1024 // stride, 64 * 1024 // stride]
    beyond = issued[sum(n + min(samples, n) for n in chased):]
    assert len(beyond) == len(set(beyond)) == walked


def test_rdwr_rows_cover_requested_grid_in_order():
    cfg = preset("local-ddr")
    fracs = [0.5, 0.7, 0.9]
    cfg["workload"] = {"kind": "rdwr_sweep", "read_fractions": fracs,
                       "ops": 800, "warm_ops": 100, "placement": "local"}
    result = run_workload(check_config(cfg))
    assert [row[0] for row in result.rows] == fracs
    assert all(row[2] > 0 for row in result.rows)


def test_dlrm_summary_shape():
    cfg = preset("cxl-dmsim-a")
    cfg["workload"] = {"kind": "dlrm_proxy", "injectors": 2,
                       "queries_per_injector": 10, "lookups_per_query": 4,
                       "footprint_mb": 1, "placement": "hdm"}
    result = run_workload(check_config(cfg))
    s = result.summary
    assert s["aggregateQps"] == pytest.approx(2 * s["perInjectorQps"])
    assert s["aggregateQps"] > 0


def test_kv_proxy_allocates_from_hdm_allocator():
    cfg = preset("cxl-dmsim-a")
    cfg["workload"] = {"kind": "kv_proxy", "ops": 500, "warm_ops": 50,
                       "footprint_mb": 1}
    result = run_workload(check_config(cfg))
    system = result.system
    nodes = system.hdm_allocator.nodes
    assert any(n.state.value == "BUSY" and n.size == 1024 * 1024 for n in nodes)
    assert result.summary["throughput_ops_per_sec"] > 0


def test_stream_validates_against_small_arrays():
    cfg = preset("local-ddr")
    cfg["workload"] = {"kind": "stream", "kernel": "copy", "array_mb": 8,
                       "placement": "local"}
    with pytest.raises(ValueError):
        run_workload(check_config(cfg))


@pytest.mark.parametrize("kernel,reads_per_group", [("copy", 1), ("add", 2)])
def test_stream_issue_accounting_is_exact(kernel, reads_per_group):
    groups = 900
    cfg = preset("local-ddr")
    cfg["workload"] = {"kind": "stream", "kernel": kernel, "groups": groups,
                       "warm_groups": 100, "placement": "local"}
    system = run_workload(check_config(cfg)).system
    # every issued load completed and was sampled exactly once
    assert system.stats.flatten()["core.loadToUse::samples"] == groups * reads_per_group
    assert system.stats.flatten()["core.outstandingRequests"] == 0


@pytest.mark.parametrize("placement", ["hdm", "interleave"])
def test_stream_setup_does_no_work_per_line(monkeypatch, placement):
    # The pre-warm finds the kernel's sets from its pages; only the kernel's
    # requests, issued inside the run, map a line to its address.
    calls, at_run = [], []
    line_addr = workloads._PagedRegion.line_addr
    run = Engine.run

    def counting_line_addr(self, line):
        calls.append(line)
        return line_addr(self, line)

    def recording_run(self):
        at_run.append(len(calls))
        return run(self)

    monkeypatch.setattr(workloads._PagedRegion, "line_addr",
                        counting_line_addr)
    monkeypatch.setattr(Engine, "run", recording_run)
    cfg = merge_config(preset("cxl-dmsim-a"), {"workload": {
        "kind": "stream", "kernel": "add", "groups": 300, "warm_groups": 30,
        "placement": placement}})
    run_workload(check_config(cfg))
    assert at_run == [0]
    assert len(calls) == 300 * 3


def test_rdwr_sweep_builds_one_system_per_grid_point(monkeypatch):
    from cxlsim import config

    built, walks = [], []
    real_build, real_check = config.build_system, config.check_config

    def counting_build(c):
        built.append(c.workload.kind)
        return real_build(c)

    def counting_check(cfg):
        walks.append(cfg["workload"]["kind"])
        return real_check(cfg)

    monkeypatch.setattr(config, "build_system", counting_build)
    monkeypatch.setattr(config, "check_config", counting_check)
    cfg = preset("cxl-dmsim-a")
    cfg["workload"] = {"kind": "rdwr_sweep", "read_fractions": [0.5, 1.0],
                       "rates_bytes_per_ns": [32.0, 64.0], "ops": 300,
                       "warm_ops": 50, "placement": "hdm"}
    result = run_workload(config.check_config(cfg))
    assert len(result.rows) == 4
    assert len(built) == 4
    assert walks == ["rdwr_sweep"]      # checked once, not per grid point


def test_rdwr_point_holds_no_arrival_after_it_drains(monkeypatch):
    from cxlsim import workloads

    points = []

    class Recorded(workloads._OpenLoop):
        def __init__(self, *args):
            super().__init__(*args)
            points.append(self)

    monkeypatch.setattr(workloads, "_OpenLoop", Recorded)
    cfg = preset("cxl-dmsim-a")
    cfg["workload"] = {"kind": "rdwr_sweep", "read_fractions": [0.5],
                       "rates_bytes_per_ns": [64.0], "ops": 300,
                       "warm_ops": 50, "placement": "hdm"}
    run_workload(check_config(cfg))
    assert len(points) == 1 and points[0].host.completed == 300
    assert points[0].arrivals == {}


def test_idle_rdwr_point_measures_the_local_floor():
    # Requests 128 ns apart never queue, so each takes the 130 ns floor and
    # the window, from the warm-up's last completion to the last one,
    # spans exactly the measured requests' arrival intervals.
    cfg = preset("local-ddr")
    cfg["workload"] = {"kind": "rdwr_sweep", "read_fractions": [1.0, 0.0],
                       "rates_bytes_per_ns": [0.5], "ops": 300,
                       "warm_ops": 50, "placement": "local"}
    assert run_workload(check_config(cfg)).rows == [
        (1.0, 0.5, 0.5e9, 130.0), (0.0, 0.5, 0.5e9, 130.0)]


@pytest.mark.parametrize("placement", ["hdm", "interleave"])
def test_every_device_serves_reads(placement):
    cfg = merge_config(preset("cxl-dmsim-a"), {"workload": {
        "kind": "dlrm_proxy", "queries_per_injector": 4,
        "placement": placement}})
    cfg["devices"].append(copy.deepcopy(cfg["devices"][0]))
    stats = run_workload(check_config(cfg)).system.stats.flatten()
    assert stats["cxl.reads"] > 0 and stats["cxl1.reads"] > 0
    assert (stats["membus.toLocal"] > 0) == (placement == "interleave")


# -- every workload block either fails validation or runs to sane metrics ------

PLACEMENTS = st.sampled_from(["local", "hdm", "interleave"])
SMALL_BLOCKS = {
    "latency_sweep": {
        "array_kb": st.lists(st.sampled_from([1, 4, 16, 64, 256]),
                             min_size=1, max_size=3).map(sorted),
        "stride": st.sampled_from([64, 128, 4096]),
        "samples": st.integers(1, 40), "injectors": st.just(1),
        "lsq_depth": st.integers(1, 4), "placement": PLACEMENTS},
    "stream": {
        "kernel": st.sampled_from(sorted(STREAM_KERNELS)),
        "array_mb": st.integers(1, 2), "groups": st.integers(1, 200),
        "warm_groups": st.integers(0, 50), "injectors": st.integers(1, 3),
        "lsq_depth": st.integers(1, 8), "placement": PLACEMENTS},
    "rdwr_sweep": {
        "read_fractions": st.lists(st.floats(0, 1), min_size=1, max_size=2),
        "rates_bytes_per_ns": st.lists(st.sampled_from([0.5, 4.0, 64.0]),
                                       min_size=1, max_size=2),
        "footprint_mb": st.integers(1, 2), "ops": st.integers(1, 150),
        "warm_ops": st.integers(0, 40), "injectors": st.integers(1, 4),
        "lsq_depth": st.integers(1, 8), "placement": PLACEMENTS},
    "dlrm_proxy": {
        "queries_per_injector": st.integers(1, 4),
        "lookups_per_query": st.integers(1, 4),
        "footprint_mb": st.integers(1, 2), "injectors": st.integers(1, 4),
        "lsq_depth": st.integers(1, 8), "placement": PLACEMENTS},
    "kv_proxy": {
        "ops": st.integers(1, 200), "put_fraction": st.floats(0, 1),
        "hot_fraction": st.floats(0, 1), "hot_window_pages": st.integers(1, 8),
        "footprint_mb": st.integers(1, 2), "warm_ops": st.integers(0, 40),
        "injectors": st.just(1), "lsq_depth": st.integers(1, 8)},
}
BAD_VALUES = st.sampled_from([-1, 0, 1.5, 2.0, "x", None, [], [0], [-0.5]])
TINY_CACHE_ASIC = merge_config(preset("cxl-dmsim-a"), tiny_cache_patch())


@st.composite
def workload_configs(draw):
    """A small in-range block of any kind; half of them with one field
    set to an out-of-range or wrong-type value, a quarter on a config
    without a device (and so without a bridge)."""
    kind = draw(st.sampled_from(sorted(SMALL_BLOCKS)))
    block = draw(st.fixed_dictionaries(SMALL_BLOCKS[kind]))
    if draw(st.booleans()):
        block[draw(st.sampled_from(sorted(block)))] = draw(BAD_VALUES)
    cfg = copy.deepcopy(TINY_CACHE_ASIC)
    if draw(st.integers(0, 3)) == 0:
        cfg["devices"] = []
        del cfg["bridge"]
    cfg["workload"] = {"kind": kind, **block}
    return cfg


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(cfg=workload_configs())
def test_workload_block_is_rejected_or_runs_to_finite_metrics(cfg):
    try:
        result = run_workload(check_config(cfg))
    except ConfigError:
        return
    stats = result.system.stats.flatten()
    for value in [*stats.values(), *_numbers(result.summary)]:
        assert math.isfinite(value) and value >= 0, (cfg["workload"], value)


# -- every latency and link field at its validation bound ---------------------


def at_bounds(node):
    """`node` with every latency at its upper bound, every link rate at
    its lower bound and the message header at its upper bound."""
    if isinstance(node, list):
        return [at_bounds(item) for item in node]
    if not isinstance(node, dict):
        return node
    out = {}
    for key, value in node.items():
        if key.startswith("link_bytes_per_ns"):
            value = 1e-3
        elif key == "hit_latency_ns":      # three lookups fit host_path_lat
            value = 1e9 / 3
        elif key.endswith("_ns"):
            value = 1e9
        elif key.endswith("_us"):
            value = 1e6
        elif key == "msg_header_bytes":
            value = 4096
        out[key] = at_bounds(value)
    return out


@pytest.mark.parametrize("name, block", [
    ("cxl-dmsim-a", {"kind": "latency_sweep", "array_kb": [16, 256],
                     "samples": 40, "placement": "interleave"}),
    ("cxl-dmsim-a", {"kind": "stream", "kernel": "triad", "array_mb": 1,
                     "groups": 200, "warm_groups": 50,
                     "placement": "interleave"}),
    ("cxl-dmsim-a", {"kind": "dlrm_proxy", "queries_per_injector": 4,
                     "lookups_per_query": 4, "footprint_mb": 1,
                     "injectors": 4}),
    ("cxl-ssd", {"kind": "kv_proxy", "ops": 200, "warm_ops": 40,
                 "footprint_mb": 1}),
], ids=lambda v: v if isinstance(v, str) else v["kind"])
def test_every_field_at_its_bound_runs_to_finite_metrics(name, block):
    cfg = at_bounds(merge_config(preset(name), tiny_cache_patch()))
    cfg["workload"] = block
    assert cfg["host"]["host_path_lat_ns"] == 1e9
    assert cfg["bridge"]["link_bytes_per_ns_rx"] == 1e-3
    result = run_workload(check_config(cfg))
    stats = result.system.stats.flatten()
    assert stats["core.loadToUse::stdev"] > 0
    for value in [*stats.values(), *_numbers(result.summary)]:
        assert math.isfinite(value) and value >= 0, (block["kind"], value)
