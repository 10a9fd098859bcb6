import copy
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import tiny_cache_patch

from cxlsim.config import ConfigError, merge_config, preset, run_workload
from cxlsim.workloads import (STREAM_KERNELS, build_chase_cycle,
                              stream_bytes_per_group)


def test_chase_cycle_covers_all_lines_once():
    rng = random.Random(1)
    for n in (1, 2, 7, 256):
        order = build_chase_cycle(n, rng)
        assert sorted(order) == list(range(n))


def test_stream_kernel_traffic_shapes():
    assert STREAM_KERNELS["copy"] == (("a",), ("c",))
    assert STREAM_KERNELS["add"] == (("a", "b"), ("c",))
    assert stream_bytes_per_group("copy") == 128
    assert stream_bytes_per_group("triad") == 192


def test_add_kernel_read_byte_fraction_two_thirds():
    cfg = preset("local-ddr")
    cfg["workload"] = {"kind": "stream", "kernel": "add", "groups": 1200,
                       "warm_groups": 200, "placement": "local"}
    result = run_workload(cfg)
    assert result.summary["read_byte_fraction"] == pytest.approx(2 / 3)


def test_identical_config_and_seed_reproduce_rows_and_stats():
    def once():
        cfg = preset("cxl-dmsim-a")
        cfg["workload"] = {"kind": "rdwr_sweep", "read_fractions": [0.6],
                           "ops": 1200, "warm_ops": 200, "placement": "hdm"}
        result = run_workload(cfg)
        return result.rows, result.system.stats.flatten()

    rows1, stats1 = once()
    rows2, stats2 = once()
    assert rows1 == rows2
    assert stats1 == stats2


def test_different_seed_changes_chase_order_not_plateau():
    def plateau(seed):
        cfg = preset("local-ddr")
        cfg["seed"] = seed
        cfg["workload"] = {"kind": "latency_sweep", "array_kb": [49152],
                           "samples": 300, "placement": "local"}
        return run_workload(cfg).rows[0][1]

    assert plateau(1) == plateau(2) == 130.0


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
    run_workload(cfg)
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
    result = run_workload(cfg)
    assert [row[0] for row in result.rows] == fracs
    assert all(row[2] > 0 for row in result.rows)


def test_dlrm_summary_shape():
    cfg = preset("cxl-dmsim-a")
    cfg["workload"] = {"kind": "dlrm_proxy", "injectors": 2,
                       "queries_per_injector": 10, "lookups_per_query": 4,
                       "footprint_mb": 1, "placement": "hdm"}
    result = run_workload(cfg)
    s = result.summary
    assert s["aggregateQps"] == pytest.approx(2 * s["perInjectorQps"])
    assert s["aggregateQps"] > 0


def test_kv_proxy_allocates_from_hdm_allocator():
    cfg = preset("cxl-dmsim-a")
    cfg["workload"] = {"kind": "kv_proxy", "ops": 500, "warm_ops": 50,
                       "footprint_mb": 1}
    result = run_workload(cfg)
    system = result.system
    nodes = system.hdm_allocators[0].nodes()
    assert any(n.state.value == "BUSY" and n.size == 1024 * 1024 for n in nodes)
    assert result.summary["throughput_ops_per_sec"] > 0


def test_stream_validates_against_small_arrays():
    cfg = preset("local-ddr")
    cfg["workload"] = {"kind": "stream", "kernel": "copy", "array_mb": 8,
                       "placement": "local"}
    with pytest.raises(ValueError):
        run_workload(cfg)


@pytest.mark.parametrize("kernel,reads_per_group", [("copy", 1), ("add", 2)])
def test_stream_issue_accounting_is_exact(kernel, reads_per_group):
    groups = 900
    cfg = preset("local-ddr")
    cfg["workload"] = {"kind": "stream", "kernel": kernel, "groups": groups,
                       "warm_groups": 100, "placement": "local"}
    system = run_workload(cfg).system
    # every issued load completed and was sampled exactly once
    assert system.stats.flatten()["core.loadToUse::samples"] == groups * reads_per_group
    assert system.stats.flatten()["core.outstandingRequests"] == 0


def test_rdwr_sweep_builds_one_system_per_grid_point(monkeypatch):
    from cxlsim import config

    built, walks = [], []
    real_build, real_check = config.build_system, config.check_config

    def counting_build(cfg, checked):
        built.append(cfg["workload"]["kind"])
        return real_build(cfg, checked)

    def counting_check(cfg):
        walks.append(cfg["workload"]["kind"])
        return real_check(cfg)

    monkeypatch.setattr(config, "build_system", counting_build)
    monkeypatch.setattr(config, "check_config", counting_check)
    cfg = preset("cxl-dmsim-a")
    cfg["workload"] = {"kind": "rdwr_sweep", "read_fractions": [0.5, 1.0],
                       "rates_bytes_per_ns": [32.0, 64.0], "ops": 300,
                       "warm_ops": 50, "placement": "hdm"}
    result = run_workload(cfg)
    assert len(result.rows) == 4
    assert len(built) == 4
    assert walks == ["rdwr_sweep"]      # checked once, not per grid point


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
        result = run_workload(cfg)
    except ConfigError:
        return
    report = result.system.snapshot(result.summary)
    for value in [*report.stats.values(), *_numbers(report.workload)]:
        assert math.isfinite(value) and value >= 0, (cfg["workload"], value)
