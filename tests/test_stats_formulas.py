"""The derived stats against counts taken outside the registry, and the
stats calls left on the request path.

The registry reports some totals as formulas over other stats instead of
counting them per request: lK.lookups, membus.toBridge,
bridge.s2mReceived, bridge.txBytes and bridge.rxBytes.  These tests count
the same events by wrapping the methods that carry them, for every preset
and every workload kind, so a formula cannot drift from what it replaced.
"""

import collections
import copy
import random
import sys

import pytest

from conftest import patched_preset

from cxlsim import config, stats as stats_module
from cxlsim.bridge import CxlBridge, LinkChannel
from cxlsim.config import preset, run_workload
from cxlsim.engine import Engine
from cxlsim.host import LINE_BYTES, Cache, MemBus, MemCmd, Target

# One small block per workload kind; placement is left to its default
# (the first device when there is one, else local memory).
WORKLOADS = {
    "latency_sweep": {"array_kb": [16, 64], "samples": 100,
                      "lsq_depth": 4},
    "stream": {"kernel": "triad", "groups": 300, "warm_groups": 50},
    "rdwr_sweep": {"read_fractions": [0.3, 1.0], "rates_bytes_per_ns": [4.0],
                   "footprint_mb": 2, "ops": 300, "warm_ops": 50},
    "dlrm_proxy": {"injectors": 8, "queries_per_injector": 4,
                   "lookups_per_query": 8, "footprint_mb": 2},
    "kv_proxy": {"ops": 400, "warm_ops": 50},
}

CASES = [pytest.param(name, kind, id=f"{name}-{kind}")
         for name in config.preset_names() for kind in WORKLOADS
         if not (kind == "kv_proxy" and not preset(name)["devices"])]


@pytest.fixture
def counted(monkeypatch):
    """Counts per object, from wrapped methods: packets the bus sends to
    the bridge, requests the bridge admits and responses it converts,
    bytes each link channel carries and lookups of each cache.  Also
    lists every system built while it is active."""
    counts = collections.Counter()
    systems = []

    def wrap(cls, name, count):
        original = getattr(cls, name)

        def wrapper(self, *args):
            count(self, *args)
            return original(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    def bus_send(bus, pkt, *_):
        if bus.addr_map.lookup(pkt.addr).target is Target.BRIDGE:
            counts[bus, "toBridge"] += 1

    def admit(bridge, pkt, *_):
        counts[bridge, "admitted"] += 1
        counts[bridge, "writes"] += pkt.cmd is MemCmd.WRITE_REQ

    wrap(MemBus, "send", bus_send)
    wrap(CxlBridge, "_admit", admit)
    wrap(CxlBridge, "_converted",
         lambda bridge, *_: counts.update([(bridge, "converted")]))
    wrap(LinkChannel, "transmit",
         lambda link, nbytes, *_: counts.update({(link, "bytes"): nbytes}))
    wrap(Cache, "touch", lambda cache, *_: counts.update([(cache, "lookups")]))
    build_system = config.build_system

    def build_and_list(*args):
        system = build_system(*args)
        systems.append(system)
        return system

    monkeypatch.setattr(config, "build_system", build_and_list)
    return counts, systems


def check_identities(system, counts):
    """Each derived stat of a drained `system` equals its outside count."""
    flat = system.stats.flatten()
    for cache in system.host.hierarchy.levels:
        assert flat[f"{cache.name}.lookups"] == counts[cache, "lookups"]
    assert flat["membus.toBridge"] == counts[system.membus, "toBridge"]
    bridge = system.bridge
    if bridge is None:
        assert flat["membus.toBridge"] == 0
        assert not any(name.startswith("bridge.") for name in flat)
        return
    assert flat["bridge.m2sSent"] == counts[bridge, "admitted"]
    assert flat["bridge.s2mReceived"] == counts[bridge, "converted"]
    assert flat["bridge.txBytes"] == counts[bridge.tx, "bytes"]
    assert flat["bridge.rxBytes"] == counts[bridge.rx, "bytes"]


@pytest.mark.parametrize("name, kind", CASES)
def test_derived_stats_match_outside_counts(counted, name, kind):
    cfg = config.merge_config(preset(name), {
        "workload": {"kind": kind, **WORKLOADS[kind]}})
    run_workload(cfg)
    counts, systems = counted
    assert systems
    for system in systems:
        check_identities(system, counts)
    bridges = [system.bridge for system in systems if system.bridge]
    if bridges:
        # Not vacuous: requests crossed, writes too where the kind has them.
        assert all(counts[bridge, "admitted"] > 0 for bridge in bridges)
        if kind in ("stream", "rdwr_sweep", "kv_proxy"):
            assert sum(counts[bridge, "writes"] for bridge in bridges) > 0


@pytest.mark.parametrize("second", ["dram", "ssd"])
def test_derived_stats_sum_over_two_devices(counted, second):
    first = preset("cxl-dmsim-a")["devices"][0]
    devices = [first, first if second == "dram"
               else preset("cxl-ssd")["devices"][0]]
    system = config.build_system(patched_preset("cxl-dmsim-a", {
        "devices": copy.deepcopy(devices),
        "workload": {"kind": "dlrm_proxy", "injectors": 4, "lsq_depth": 4}}))
    rnd = random.Random(5)
    for _ in range(400):
        dev = system.devices[rnd.randrange(2)]
        cmd = MemCmd.WRITE_REQ if rnd.random() < 0.4 else MemCmd.READ_REQ
        system.injectors[rnd.randrange(4)].issue(
            cmd, dev.bar.base + rnd.randrange(256) * LINE_BYTES,
            cacheable=rnd.random() < 0.5)
    system.engine.run()
    check_identities(system, counted[0])
    for dev in system.devices:
        assert dev.reads > 0 and dev.writes > 0


# -- the request path makes no stats call but Histogram.record ----------------


@pytest.mark.parametrize("name, workload", [
    ("cxl-dmsim-a", {"kind": "dlrm_proxy", "injectors": 8,
                     "queries_per_injector": 2, "lookups_per_query": 8,
                     "footprint_mb": 2}),
    ("cxl-ssd", {"kind": "kv_proxy", "ops": 300, "warm_ops": 50}),
], ids=["dlrm", "kv"])
def test_engine_run_enters_no_stats_function_but_histogram_record(
        monkeypatch, name, workload):
    entered = set()
    stats_file = stats_module.__file__

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename == stats_file:
            entered.add(frame.f_code.co_qualname)

    run = Engine.run

    def profiled_run(engine):
        sys.setprofile(profile)
        try:
            return run(engine)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(Engine, "run", profiled_run)
    result = run_workload(config.merge_config(preset(name),
                                              {"workload": workload}))
    assert entered == {"Histogram.record"}
    # The report still reads the counts the run made.
    assert result.system.stats.flatten()["bridge.m2sSent"] > 0
