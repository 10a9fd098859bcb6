import random

import pytest

from cxlsim.config import preset, run_workload
from cxlsim.workloads import (STREAM_KERNELS, build_chase_cycle,
                              stream_bytes_per_group)


def test_chase_cycle_covers_all_lines_once():
    rng = random.Random(1)
    for n in (1, 2, 7, 256):
        start, nxt = build_chase_cycle(n, rng)
        seen = set()
        line = start
        for _ in range(n):
            assert line not in seen
            seen.add(line)
            line = nxt[line]
        assert line == start
        assert seen == set(range(n))


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
    assert system.stats.get("core.loadToUse").n == groups * reads_per_group
    assert system.stats.get("core.outstandingRequests").value == 0


def test_rdwr_sweep_builds_one_system_per_grid_point(monkeypatch):
    from cxlsim import config

    built = []
    real_build = config.build_system

    def counting_build(cfg):
        built.append(cfg["workload"]["kind"])
        return real_build(cfg)

    monkeypatch.setattr(config, "build_system", counting_build)
    cfg = preset("cxl-dmsim-a")
    cfg["workload"] = {"kind": "rdwr_sweep", "read_fractions": [0.5, 1.0],
                       "rates_bytes_per_ns": [32.0, 64.0], "ops": 300,
                       "warm_ops": 50, "placement": "hdm"}
    result = run_workload(cfg)
    assert len(result.rows) == 4
    assert len(built) == 4
