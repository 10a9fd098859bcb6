"""Time scales exactly: a run with every latency doubled and every rate
halved is the same run on a clock twice as slow.

The transform multiplies every `*_ns` and `*_us` field by k and divides
every rate (the link rates, `core_freq_ghz` and `rates_bytes_per_ns`) by
k.  Every hold then lasts k times as many ticks, so the scaled run fires
the same events in the same order: its event count is equal, each
tick-valued stat is exactly k times larger and every other stat (counts,
and the load-to-use histogram, which is in core cycles) is equal.  A
summary's times are k times larger and its rates k times smaller.  With
k = 2 every float operation scales exactly, so the checks are bit for
bit.  Links run at 4 B/ns: at the presets' 4.6 B/ns a hold is not a
whole number of ticks, and its rounding does not scale.

`rdwr_sweep` is left out: a point's seed hashes the rate's value, so
the scaled run draws a different read/write sequence.
"""

import fnmatch

import pytest

from conftest import tiny_cache_patch

from cxlsim.config import check_config, merge_config, preset, run_workload

K = 2

RATES = {"link_bytes_per_ns_tx", "link_bytes_per_ns_rx", "core_freq_ghz"}

# The flattened stats in ticks; every other stat is a count, a share or
# in core cycles.
_MOMENTS = ("mean", "stdev", "min_value", "max_value")
TICK_VALUED = ([f"*.rsp::{m}" for m in _MOMENTS]
               + [f"l3.overallAvgMissLat::{m}" for m in _MOMENTS]
               + ["*.avgQLat", "*.avgMemAccLat"])

SUMMARY_TIMES = {"plateau_ns", "duration_ns"}
SUMMARY_RATES = {"bytes_per_sec", "aggregateQps", "perInjectorQps",
                 "throughput_ops_per_sec"}

LINKS = {"bridge": {"link_bytes_per_ns_tx": 4.0, "link_bytes_per_ns_rx": 4.0}}

# name -> (preset, workload block)
CASES = {
    "latency_sweep": ("cxl-dmsim-a", {
        "kind": "latency_sweep", "array_kb": [16, 256, 2048],
        "samples": 100}),
    "stream-triad": ("cxl-dmsim-a", {
        "kind": "stream", "kernel": "triad", "array_mb": 1, "groups": 300,
        "warm_groups": 30}),
    "dlrm_proxy": ("cxl-dmsim-a", {
        "kind": "dlrm_proxy", "injectors": 12, "queries_per_injector": 3,
        "footprint_mb": 4}),
    "kv_proxy": ("cxl-ssd", {"kind": "kv_proxy", "ops": 1500,
                             "warm_ops": 100}),
    "stream-add-local": ("local-ddr", {
        "kind": "stream", "kernel": "add", "array_mb": 1, "groups": 300,
        "warm_groups": 30}),
}


def scaled(cfg, k):
    """`cfg` with every latency multiplied by `k` and every rate divided
    by it."""
    if isinstance(cfg, list):
        return [scaled(v, k) for v in cfg]
    if not isinstance(cfg, dict):
        return cfg
    out = {}
    for key, value in cfg.items():
        if key in RATES:
            out[key] = value / k
        elif key == "rates_bytes_per_ns":
            out[key] = [rate / k for rate in value]
        elif key.endswith(("_ns", "_us")):
            out[key] = value * k
        else:
            out[key] = scaled(value, k)
    return out


def tick_valued(name):
    return any(fnmatch.fnmatchcase(name, pat) for pat in TICK_VALUED)


def test_scaled_swaps_latencies_and_rates():
    cfg = scaled(preset("cxl-dmsim-a"), K)
    assert cfg["host"]["core_freq_ghz"] == 1.25
    assert cfg["host"]["caches"]["l1"]["hit_latency_ns"] == 2.0
    assert cfg["bridge"]["link_bytes_per_ns_tx"] == 2.3
    assert cfg["devices"][0]["ddr"]["turnaround_penalty_ns"] == 4.0
    assert cfg["devices"][0]["ddr"]["queue_capacity"] == 64
    ssd = scaled(preset("cxl-ssd"), K)["devices"][0]["ssd"]
    assert ssd["read_latency_us"] == 50.0 and ssd["page_bytes"] == 4096
    rdwr = {"workload": {"kind": "rdwr_sweep", "rates_bytes_per_ns": [8.0]}}
    assert scaled(rdwr, K)["workload"]["rates_bytes_per_ns"] == [4.0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_doubling_every_latency_doubles_every_time(name):
    base, workload = CASES[name]
    cfg = merge_config(preset(base), tiny_cache_patch())
    cfg = merge_config(cfg, {"workload": workload})
    if cfg["devices"]:
        cfg = merge_config(cfg, LINKS)
    plain, slow = (run_workload(check_config(c))
                   for c in (cfg, scaled(cfg, K)))

    assert slow.system.engine._seq == plain.system.engine._seq
    a, b = plain.system.stats.flatten(), slow.system.stats.flatten()
    assert b.keys() == a.keys()
    for key, value in a.items():
        assert b[key] == (K * value if tick_valued(key) else value), key
    assert any(value for key, value in a.items() if tick_valued(key))

    assert slow.summary.keys() == plain.summary.keys()
    for key, value in plain.summary.items():
        if key in SUMMARY_TIMES:
            want = K * value
        elif key in SUMMARY_RATES:
            want = value / K
        elif key == "curve":    # (array bytes, mean load-to-use ns) rows
            want = [[size, K * ns] for size, ns in value]
        else:
            want = value
        assert slow.summary[key] == want, key
    assert (SUMMARY_TIMES | SUMMARY_RATES) & plain.summary.keys()
