import json
import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build, patched_preset

from cxlsim import stats as stats_module
from cxlsim.engine import Engine, ns_to_ticks
from cxlsim.host import MemCmd
from cxlsim.media import READ, QueuedDdr
from cxlsim.stats import (FOLD_AT, Histogram, RunReport, StatError,
                          StatsRegistry, config_digest)


def _counts(h):
    """The raw bucket counts, once the buffered samples are folded in;
    labels of repeated edges collide, so entries cannot stand in."""
    h._fold()
    return h._counts


def _exact(value):
    """A value with its type, so that 5 and 5.0 compare unequal."""
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return type(value), value


def _typed(entries):
    """Report entries in order, each value with its type."""
    return [(key, _exact(value)) for key, value in entries.items()]


@pytest.mark.parametrize("edges", [(), (1, 2), (0, 5, 3)])
def test_histogram_rejects_edges_not_ascending_from_0(edges):
    with pytest.raises(ValueError):
        Histogram(edges)


def test_histogram_basic_moments():
    h = Histogram((0,))
    for s in (2, 4):
        h.record(s)
    entries = h.entries("h")
    assert entries["h::mean"] == 3
    assert entries["h::min_value"] == 2
    assert entries["h::max_value"] == 4


def test_identical_samples_zero_stdev():
    h = Histogram((0,))
    for _ in range(1000):
        h.record(7.5)
    assert h.entries("h")["h::stdev"] == 0.0


def test_bucket_counts():
    h = Histogram((0, 10, 100))
    h.record(5)
    h.record(50)
    assert _counts(h) == [1, 1, 0]
    assert list(h.entries("h"))[5:] == ["h::0-9", "h::10-99", "h::100+"]


@pytest.mark.parametrize("samples, expected", [
    ((), {"h::samples": 0, "h::mean": 0.0, "h::stdev": 0.0,
          "h::min_value": 0, "h::max_value": 0,
          "h::0-9": 0.0, "h::10-99": 0.0, "h::100+": 0.0}),
    ((7,), {"h::samples": 1, "h::mean": 7.0, "h::stdev": 0.0,
            "h::min_value": 7, "h::max_value": 7,
            "h::0-9": 100.0, "h::10-99": 0.0, "h::100+": 0.0}),
    ((12.5,), {"h::samples": 1, "h::mean": 12.5, "h::stdev": 0.0,
               "h::min_value": 12.5, "h::max_value": 12.5,
               "h::0-9": 0.0, "h::10-99": 100.0, "h::100+": 0.0}),
    ((5, 150), {"h::samples": 2, "h::mean": 77.5, "h::stdev": 72.5,
                "h::min_value": 5, "h::max_value": 150,
                "h::0-9": 50.0, "h::10-99": 0.0, "h::100+": 50.0}),
], ids=["empty", "one_int", "one_float", "two"])
def test_entries_format(samples, expected):
    # The keys, their order and each value's type, as reports hold them.
    h = Histogram((0, 10, 100))
    for sample in samples:
        h.record(sample)
    assert _typed(h.entries("h")) == _typed(expected)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=500))
def test_welford_matches_brute_force(samples):
    h = Histogram((0,))
    for s in samples:
        h.record(s)
    n = len(samples)
    mean = sum(samples) / n
    var = sum((s - mean) ** 2 for s in samples) / n
    scale = max(1.0, abs(mean))
    entries = h.entries("h")
    assert abs(entries["h::mean"] - mean) / scale < 1e-9
    assert (abs(entries["h::stdev"] - math.sqrt(var))
            / max(1.0, math.sqrt(var)) < 1e-9)


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
    h = Histogram(edges)
    h.record(sample)
    expected = [0] * len(edges)
    expected[reference_bucket(edges, sample)] = 1
    assert _counts(h) == expected


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(edges=st.lists(st.integers(1, 50), max_size=6).map(
           lambda rest: (0, *sorted(rest))),
       data=st.data())
def test_folded_bucket_counts_follow_the_per_sample_rule(edges, data):
    # Batches across folds of samples on the edges as ints and as floats
    # (5 and 5.0 tie), between them, past the last and below 0.
    samples = data.draw(st.lists(st.one_of(
        st.sampled_from(edges), st.sampled_from(edges).map(float),
        st.integers(-5, 60), st.floats(-5.0, 60.0, allow_nan=False)),
        max_size=2 * FOLD_AT + 1))
    h = Histogram(edges)
    expected = [0] * len(edges)
    for x in samples:
        h.record(x)
        expected[bisect_right(edges[1:], x)] += 1
    assert _counts(h) == expected


class ReferenceHistogram(Histogram):
    """The per-sample update that Histogram.record made before it folded
    samples in batches; it reads through the same entries and percentile,
    with nothing ever buffered."""

    def record(self, sample: float) -> None:
        self._n += 1
        delta = sample - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (sample - self._mean)
        if sample < self._min:
            self._min = sample
        if sample > self._max:
            self._max = sample
        self._counts[bisect_right(self._upper, sample)] += 1


def _reads(stats, h):
    return [_typed(h.entries("h")), _exact(_counts(h)),
            [_exact(h.percentile(p)) for p in (0, 1, 50, 90, 99, 100)],
            _typed(stats.flatten())]


@pytest.mark.parametrize("spread", [3, 2000, 10**6])
@pytest.mark.parametrize("kind", ["int", "float", "mixed"])
@settings(max_examples=10, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       reads=st.lists(st.integers(0, 1000), max_size=6))
def test_batched_histogram_reads_what_per_sample_updates_give(
        kind, spread, seed, reads):
    # Ticks, and ticks over a clock ratio as core.loadToUse records them.
    # "mixed" draws equal ints and floats, and a narrow spread ties the
    # extremes, so min and max must keep the first of equal samples, as
    # the per-sample update does.
    rnd = random.Random(seed)
    read_at = set(reads)
    for length in (0, 1, FOLD_AT - 1, FOLD_AT, FOLD_AT + 1, 1000):
        samples = []
        for _ in range(length):
            value = rnd.randrange(-3, spread)
            if kind == "float" or (kind == "mixed" and rnd.random() < 0.5):
                value = value / rnd.choice((1, 1, 2.5, 4))
            samples.append(value)
        for edges in ((0,), (0, 10, 100, 1000, 10000, 100000), (0, 5, 5, 50)):
            batched, reference = StatsRegistry(), StatsRegistry()
            h = batched.histogram("h", edges)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(stats_module, "Histogram", ReferenceHistogram)
                ref = reference.histogram("h", edges)
            for i, sample in enumerate(samples):
                if i in read_at:
                    assert _reads(batched, h) == _reads(reference, ref)
                h.record(sample)
                ref.record(sample)
            assert _reads(batched, h) == _reads(reference, ref)


def test_percentile_monotone():
    h = Histogram((0, 10, 100, 1000))
    for s in (1, 3, 12, 47, 200, 999, 5):
        h.record(s)
    qs = [h.percentile(p) for p in range(0, 101, 5)]
    assert qs == sorted(qs)


def test_percentile_bounds():
    h = Histogram((0, 10))
    h.record(4)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_flatten_reports_a_queue_peak():
    # Five requests in flight at once, then none: the level reads 0 at
    # drain and its peak 5.
    system = build(patched_preset("cxl-dmsim-a", {"workload": {
        "kind": "dlrm_proxy", "injectors": 1, "lsq_depth": 8}}))
    inj = system.host.injectors[0]
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
                    ns_to_ticks(50), stats, "dram")
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
        reg.add("a.b", lambda: 2)
    with pytest.raises(StatError):
        reg.histogram("a.b")
    reg.histogram("h")
    with pytest.raises(StatError):
        reg.add("h", lambda: 0)


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
