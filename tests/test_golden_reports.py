"""Byte-level regression pins for run reports.

Each case runs a small config through the ``cxlsim run`` path and
compares the sha256 of ``report.json``'s text and of ``curve.csv`` (the
only home of the rdwr rows' mean latency) with recorded digests, and the
events its engines fired (``Engine._seq``) with a recorded count.
Together the cases cover every workload kind and every medium (queued
DDR, coarse DRAM, cached SSD with LRU/FIFO and with or without the
prefetcher, and the uncached SSD path), so a refactor that changes any
simulated number, stat name or report key fails here, and one that fuses
or splits events has to update the count in the open.  The two
small-cache SSD cases evict pages, issue prefetches and see late hits,
which the preset's 1 MB cache never does under a small KV run.
"""

import copy
import hashlib

import pytest

from conftest import coarse_device, ssd_device

from cxlsim import cli
from cxlsim.config import merge_config, preset
from cxlsim.engine import Engine


def _cfg(name: str, patch: dict) -> dict:
    return merge_config(preset(name), patch)


DLRM = {"kind": "dlrm_proxy", "injectors": 12, "queries_per_injector": 4,
        "placement": "hdm"}
# Two windows of different sizes: the 256 MB one is carved at 4 352 MB,
# above a 192 MB alignment gap, so NUMA node 2 does not follow node 1.
TWO_DEVICES = [dict(preset("cxl-dmsim-a")["devices"][0], hdm_size_mb=64),
               dict(coarse_device({"width": 4}), hdm_size_mb=256)]
KV = {"kind": "kv_proxy", "ops": 3000, "warm_ops": 300}
# A 16-page device cache of 64 B pages under a put-heavy stream with one
# hot page: pages are evicted and written back, the prefetcher learns an
# offset and demands join its fetches in flight.
SMALL_CACHE_KV = {"kind": "kv_proxy", "ops": 4000, "warm_ops": 100,
                  "put_fraction": 0.7, "hot_fraction": 0.8,
                  "hot_window_pages": 1}


# One injector with one LSQ slot: a request that leaves the host on an
# idle engine is served alone (the module docstring of host.py).
LONE = {"injectors": 1, "lsq_depth": 1}


def _small_cache_ssd(policy: str) -> dict:
    return _cfg("cxl-ssd", {"devices": [ssd_device(
        ssd={"page_bytes": 64}, cache={"capacity_kb": 1, "policy": policy})],
        "workload": SMALL_CACHE_KV})


CASES = {
    "latency-local-ddr": (
        _cfg("local-ddr", {"workload": {"array_kb": [16, 768, 16384],
                                        "samples": 200}}),
        "b5b06d2401f2eaa2dd65b0929577534c8e7da1f034d6316c572ab2f1d1b1be2c",
        "52c9add9ebba0d7f124d68364bf9ee43ae2ea6c076ec1733aed79b864e8dc85e",
        13147),
    "stream-triad-fpga": (
        _cfg("cxl-dmsim-f", {"workload": {"kind": "stream", "kernel": "triad",
                                          "groups": 300, "warm_groups": 30,
                                          "placement": "hdm"}}),
        "273e3a526ba2b8a7dd6e06c1d2360cb9407f15ece09b22bb79b20cff27598e70",
        "5bbe1776b4a58e3dae5776b9ce6fbcbc23978c1b6c8b0dfe1e19ee5cf8a3a386",
        3602),
    # Interleave alternates the pages between nodes: the LLC pre-warm's
    # ghost region is not contiguous.
    "stream-add-asic-interleave": (
        _cfg("cxl-dmsim-a", {"workload": {"kind": "stream", "kernel": "add",
                                          "groups": 300, "warm_groups": 30,
                                          "placement": "interleave"}}),
        "8c6be2cbca240dad78164149a7be4c6c938ae6d3e153a85ed51c515e6f8c6f5d",
        "3deed198de33aa1d9ee48bb31e6f4ad695726da74cde94b9116d838f0ea4b0cb",
        2929),
    "rdwr-asic": (
        _cfg("cxl-dmsim-a", {"workload": {"kind": "rdwr_sweep",
                                          "read_fractions": [0.5, 1.0],
                                          "ops": 600, "warm_ops": 100,
                                          "placement": "hdm"}}),
        "56379f08016d5c065fbb7194ca77d5d3b07224952257595b378aade18c0eab2a",
        "b4c775e81797a32493bf80b78a5a5e12e7e118a45e7311dcefd975da77d7fd03",
        4800),
    "dlrm-asic": (
        _cfg("cxl-dmsim-a", {"workload": DLRM}),
        "20d58457c2628a54ad4cc60e3fa9c5adf46a0826cb19750228246e05c3c1afda",
        "eaef3bc8150a50f8a750eacce0e7531f6d118c20c50b00bfbcef1cd39b3826d0",
        2316),
    # Placement left out deals the pages over both device nodes.
    "dlrm-two-devices": (
        _cfg("cxl-dmsim-a", {"devices": TWO_DEVICES, "workload": {
            k: v for k, v in DLRM.items() if k != "placement"}}),
        "3daeaaddab5e650a45032e69c6a0f955640acdacfb5fb373a0c2d9ac47ed5aaa",
        "f15fade5fedb18f7d6565705697fee0cf540448a22daf612817b7c3102e40e25",
        2316),
    "dlrm-two-devices-interleave": (
        _cfg("cxl-dmsim-a", {"devices": TWO_DEVICES, "workload": {
            **DLRM, "placement": "interleave"}}),
        "898c36bd697bee4a94c99527a3d641a7d19181bb80a605fc2b2537a26d47187a",
        "5a2820d4eb7941c68746ea865aa74a7e4abfd5cfab7acd9001a9fe36ad33ef42",
        2039),
    # A response FIFO shallower than the request FIFO: device answers
    # stall in the bridge's egress queue (766 waits) and resume as slots
    # free.  No preset reaches that path.
    "dlrm-asic-short-resp-fifo": (
        _cfg("cxl-dmsim-a", {"bridge": {"resp_fifo_depth": 2},
                             "workload": DLRM}),
        "088b35cedac0b289c228e3a1599f71c4f63203c738ff791574e1fecc867122af",
        "217e6a2e585cfa6cff6e361478c4c529f5746d4d14a9dc98f6ce9c5bb8aa45b5",
        2316),
    "dlrm-coarse-dram": (
        _cfg("cxl-dmsim-a", {"devices": [coarse_device({"width": 4})],
                             "workload": DLRM}),
        "d600449c35ce9333a328455dd70e6630e6304e44741093d3f4fb29083608256f",
        "f15fade5fedb18f7d6565705697fee0cf540448a22daf612817b7c3102e40e25",
        2316),
    "kv-ssd-lru-prefetch": (
        _cfg("cxl-ssd", {"workload": KV}),
        "3ee1a47ce7a837c0e279b7eb456d96e7108ab3a621a06d1120a91cf8d57efa65",
        "4981e55ecafb52087bd0e9d4af57f5a389696a408a2a35e13db5bf66d2cf9da7",
        15105),
    "kv-ssd-fifo-no-prefetch": (
        _cfg("cxl-ssd", {"devices": [ssd_device(
            cache={"policy": "fifo", "prefetch": False})], "workload": KV}),
        "7ffcc7b3d3078e2cb874158c9706fdeeaa532c72b30f8723c15db9c3c4b15900",
        "4981e55ecafb52087bd0e9d4af57f5a389696a408a2a35e13db5bf66d2cf9da7",
        15105),
    "kv-ssd-uncached": (
        _cfg("cxl-ssd", {"devices": [ssd_device(cache={"enabled": False})],
                         "workload": KV}),
        "853d87842454def8b8deb515c351153100e3e9f6a65e935d3fc1b5bfb5e25974",
        "9ffe9a56326429437aa90495475f5827f0e01356bb34fe72c28e0545c786544c",
        16517),
    "kv-ssd-small-cache-lru": (
        _small_cache_ssd("lru"),
        "22fb6621013975a92ec459ae8be9e88e29761c5317671737cb68df300cad155a",
        "9bfad87fd651aaebe53859773471e31350a8a70d82a0e4f299af7b85f9bebf78",
        24888),     # 27 698 while each write-back fired a no-op event
    "kv-ssd-small-cache-fifo": (
        _small_cache_ssd("fifo"),
        "50a5aa7b60d0ce90a5544632b29ada6680eff51c96c4673a5319a6ecb7e95d52",
        "7544ca553a1596cc82605e7c734691b5f67dfb54390112d746a462ab0c374d4c",
        24305),     # 27 115 while each write-back fired a no-op event
    # Latency sweeps on a device, every miss alone: the bridge, the link
    # and the device served in closed form, on queued DDR under hdm and on
    # coarse DRAM with local pages between the device's under interleave.
    "latency-asic-hdm": (
        _cfg("cxl-dmsim-a", {"workload": {"array_kb": [16, 768, 16384],
                                          "samples": 200,
                                          "placement": "hdm"}}),
        "13da003a12f1d9892e4738a3b73761925d1a9451865311f791749b4cfc0624d7",
        "b419359fdba20e672910f21567b011cfe04522a03ca2e74d3d046f50967e90cc",
        13147),
    "latency-coarse-dram-interleave": (
        _cfg("cxl-dmsim-a", {"devices": [coarse_device({"width": 4})],
                             "workload": {"array_kb": [16, 768, 16384],
                                          "samples": 200,
                                          "placement": "interleave"}}),
        "6a6e95c0cc6e20af8629bb10c921a5a1596e0882f9f02acd710eccaa107a18b2",
        "1831df8a99b221e169bcdffcd991f7e3c61cfed2fc494ef379e1254b6045f7d2",
        13147),
    # Its fills evict dirty lines, so a write-back overlaps the next
    # demand fetch, which then takes the event path (FIFO peaks of 2).
    "stream-triad-asic-lone": (
        _cfg("cxl-dmsim-a", {"workload": {"kind": "stream", "kernel": "triad",
                                          "groups": 300, "warm_groups": 30,
                                          "placement": "hdm", **LONE}}),
        "3f665a81518a886c840e3e014029d0e880369f27308773632482aac2fc9ace08",
        "45784014316d6ae548495bf256d0af3b139e9344cb52cd320a8a709e8bb9dd0a",
        2399),
    # Uncacheable gets and puts, each alone.
    "kv-asic-lone": (
        _cfg("cxl-dmsim-a", {"workload": {**KV, "lsq_depth": 1}}),
        "35a69d21ab9159f6c6e5e47770a182455b88fef5fe4af771a4c95fe0abecf05b",
        "2322a01f40d051f768a0648dc0140f494ba55498679b75f6f56e12eab4a1927c",
        3000),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest_is_pinned(name, tmp_path, monkeypatch):
    cfg, expected, curve, events = CASES[name]
    fired = {}     # engine -> events it scheduled, read when its run ends
    run = Engine.run

    def counted_run(engine):
        try:
            return run(engine)
        finally:
            fired[engine] = engine._seq

    monkeypatch.setattr(Engine, "run", counted_run)
    report = cli.run_one(copy.deepcopy(cfg), str(tmp_path))
    text = report.to_json()
    assert (tmp_path / "report.json").read_text() == text + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == expected
    assert hashlib.sha256(
        (tmp_path / "curve.csv").read_bytes()).hexdigest() == curve
    assert sum(fired.values()) == events
