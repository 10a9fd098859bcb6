import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build, patched_preset

from cxlsim.engine import Engine, ns_to_ticks
from cxlsim.host import MemCmd
from cxlsim.media import READ, QueuedDdr
from cxlsim.stats import (Histogram, RunReport, StatError, StatsRegistry,
                          config_digest)


def test_histogram_basic_moments():
    h = Histogram("x")
    for s in (2, 4):
        h.record(s)
    assert h.mean == 3
    assert h.min == 2
    assert h.max == 4


def test_identical_samples_zero_stdev():
    h = Histogram("x")
    for _ in range(1000):
        h.record(7.5)
    assert h.stdev == 0.0


def test_bucket_counts():
    h = Histogram("x", edges=(0, 10, 100))
    h.record(5)
    h.record(50)
    assert h.counts == [1, 1, 0]
    assert h.bucket_label(0) == "0-9"
    assert h.bucket_label(1) == "10-99"
    assert h.bucket_label(2) == "100+"


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=500))
def test_welford_matches_brute_force(samples):
    h = Histogram("x")
    for s in samples:
        h.record(s)
    n = len(samples)
    mean = sum(samples) / n
    var = sum((s - mean) ** 2 for s in samples) / n
    scale = max(1.0, abs(mean))
    assert abs(h.mean - mean) / scale < 1e-9
    assert abs(h.stdev - math.sqrt(var)) / max(1.0, math.sqrt(var)) < 1e-9


def reference_bucket(edges, sample):
    """The linear edge scan that Histogram.record used before bisect."""
    idx = 0
    for i, edge in enumerate(edges):
        if sample >= edge:
            idx = i
        else:
            break
    return idx


@settings(max_examples=300, derandomize=True, database=None)
@given(edges=st.lists(st.integers(0, 50), max_size=6).map(
           lambda rest: (0, *sorted(rest))),
       data=st.data())
def test_bucket_lookup_matches_edge_scan(edges, data):
    # Samples on the edges, between them, past the last and below 0;
    # duplicate edges are common with these sizes.
    sample = data.draw(st.one_of(
        st.sampled_from(edges), st.integers(-5, 60),
        st.floats(-5.0, 60.0, allow_nan=False)))
    h = Histogram("x", edges=edges)
    h.record(sample)
    expected = [0] * len(edges)
    expected[reference_bucket(edges, sample)] = 1
    assert h.counts == expected


def test_percentile_monotone():
    h = Histogram("x", edges=(0, 10, 100, 1000))
    for s in (1, 3, 12, 47, 200, 999, 5):
        h.record(s)
    qs = [h.percentile(p) for p in range(0, 101, 5)]
    assert qs == sorted(qs)


def test_percentile_bounds():
    h = Histogram("x", edges=(0, 10))
    h.record(4)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_flatten_reports_a_queue_peak():
    # Five requests in flight at once, then none: the level reads 0 at
    # drain and its peak 5.
    system = build(patched_preset("cxl-dmsim-a", {"workload": {
        "kind": "dlrm_proxy", "injectors": 1, "lsq_depth": 8}}))
    inj = system.injectors[0]
    for i in range(5):
        inj.issue(MemCmd.READ_REQ, i * 64, cacheable=False)
    system.engine.run()
    flat = system.stats.flatten()
    assert flat["core.outstandingRequests"] == 0
    assert flat["core.outstandingRequests::max"] == 5


def test_flatten_reports_queued_ddr_means():
    engine = Engine()
    stats = StatsRegistry()
    ddr = QueuedDdr(engine, ns_to_ticks(13), ns_to_ticks(13), ns_to_ticks(2),
                    ns_to_ticks(50), stats)
    assert stats.flatten() == {"dram.avgMemAccLat": 0.0, "dram.avgQLat": 0.0}
    # Two reads at once: the second waits one 13 ns service.
    ddr.submit(READ)
    ddr.submit(READ)
    flat = stats.flatten()
    assert flat["dram.avgQLat"] == ns_to_ticks(13) / 2
    assert flat["dram.avgMemAccLat"] == ns_to_ticks(63 + 76) / 2


def test_registry_rejects_unregistered_and_duplicates():
    reg = StatsRegistry()
    reg.add("a.b", lambda: 1)
    with pytest.raises(StatError):
        reg.formula("a.c", {"a.b": 1, "missing": 1})
    with pytest.raises(StatError):
        reg.add("a.b", lambda: 2)
    with pytest.raises(StatError):
        reg.histogram("a.b")
    reg.histogram("h")
    with pytest.raises(StatError):
        reg.add("h", lambda: 0)
    # The failed formula left nothing behind.
    reg.formula("a.c", {"a.b": 3})
    reg.formula("a.none", {})
    assert reg.flatten()["a.c"] == 3
    assert reg.flatten()["a.none"] == 0


def test_flatten_names_and_order():
    reg = StatsRegistry()
    reg.add("bridge.reqRetryCounts", lambda: 3)
    h = reg.histogram("core.loadToUse", edges=(0, 10, 100))
    h.record(5)
    h.record(55)
    flat = reg.flatten()
    assert flat["bridge.reqRetryCounts"] == 3
    assert flat["core.loadToUse::mean"] == 30
    assert flat["core.loadToUse::0-9"] == 50.0
    assert list(flat) == sorted(flat)


def test_report_snapshots_identical_and_round_trip():
    reg = StatsRegistry()
    reg.add("n", lambda: 2)
    r1 = RunReport(config_digest={"k": 1} and config_digest({"k": 1}),
                   seed=3, stats=reg.flatten(), workload={"kind": "x"})
    r2 = RunReport(config_digest=config_digest({"k": 1}),
                   seed=3, stats=reg.flatten(), workload={"kind": "x"})
    assert r1.to_json() == r2.to_json()
    back = RunReport.from_json(r1.to_json())
    assert back.stats == r1.stats
    assert back.seed == 3


def test_config_digest_stable_under_key_order():
    assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
    assert config_digest({"a": 1}) != config_digest({"a": 2})
