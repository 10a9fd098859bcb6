"""The derived stats against counts taken outside the registry, and the
stats calls left on the request path.

The registry reports some totals as formulas over other stats instead of
counting them per request: lK.lookups, membus.toBridge, bridge.m2sSent,
bridge.s2mReceived, bridge.txBytes and bridge.rxBytes.  These tests count
the same events by wrapping the methods that carry them, for every preset
and every workload kind, on the event route and on the lone route, so a
formula cannot drift from what it replaced.
"""

import collections
import copy
import random
import sys

import pytest

from conftest import patched_preset

from cxlsim import config, stats as stats_module
from cxlsim.bridge import CxlBridge, CxlKind, LinkChannel
from cxlsim.config import preset, run_workload
from cxlsim.device import MemExpander
from cxlsim.engine import Engine
from cxlsim.host import LINE_BYTES, CacheHierarchy, MemBus, MemCmd

# One small block per workload kind; placement is left to its default
# (the first device when there is one, else local memory).  Four LSQ
# slots keep latency_sweep on the event route, one sends its misses alone.
WORKLOADS = {
    "latency_sweep": {"kind": "latency_sweep", "array_kb": [16, 64],
                      "samples": 100, "lsq_depth": 4},
    "latency_sweep-lone": {"kind": "latency_sweep", "array_kb": [16, 64],
                           "samples": 100, "lsq_depth": 1},
    "stream": {"kind": "stream", "kernel": "triad", "groups": 300,
               "warm_groups": 50},
    "rdwr_sweep": {"kind": "rdwr_sweep", "read_fractions": [0.3, 1.0],
                   "rates_bytes_per_ns": [4.0], "footprint_mb": 2,
                   "ops": 300, "warm_ops": 50},
    "dlrm_proxy": {"kind": "dlrm_proxy", "injectors": 8,
                   "queries_per_injector": 4, "lookups_per_query": 8,
                   "footprint_mb": 2},
    "kv_proxy": {"kind": "kv_proxy", "ops": 400, "warm_ops": 50},
}

CASES = [pytest.param(name, case, id=f"{name}-{case}")
         for name in config.PRESETS for case in WORKLOADS
         if not (case == "kv_proxy" and not preset(name)["devices"])]


@pytest.fixture
def counted(monkeypatch):
    """Counts per object, from wrapped methods: packets the bus sends to
    the bridge, requests that reach each device, on the event route
    (receive_m2s) or the lone one (the bridge's serve hands a DRAM
    device's request over; an SSD device's takes the event route), the
    messages and bytes each link channel carries and lookups of each
    cache.  Also lists every system built while it is active."""
    counts = collections.Counter()
    systems = []

    def wrap(cls, name, count):
        original = getattr(cls, name)

        def wrapper(self, *args):
            count(self, *args)
            return original(self, *args)

        monkeypatch.setattr(cls, name, wrapper)

    def bus_send(bus, pkt, *_):
        if bus.addr_map.lookup(pkt.addr).device is not None:
            counts[bus, "toBridge"] += 1

    def reached(device, write):
        counts[device, "requests"] += 1
        counts[device, "writes"] += write

    def lone(_bridge, pkt, *_):
        if not pkt.device.answers_by_callback:
            reached(pkt.device, pkt.cmd is MemCmd.WRITE_REQ)
            counts["lone"] += 1

    def transmit(link, nbytes, *_):
        counts[link, "messages"] += 1
        counts[link, "bytes"] += nbytes

    wrap(MemBus, "send", bus_send)
    wrap(MemExpander, "receive_m2s", lambda device, cxl, *_: reached(
        device, cxl.kind is CxlKind.M2S_RWD))
    wrap(CxlBridge, "serve", lone)
    wrap(LinkChannel, "transmit", transmit)
    access = CacheHierarchy.access

    def counted_access(hierarchy, pkt, reply):
        # A hit at pkt.level probed levels 0..level; a miss probed all.
        access(hierarchy, pkt, reply)
        levels = hierarchy.levels
        probed = (levels[:pkt.level + 1] if hasattr(pkt, "level")
                  else levels)
        counts.update((cache, "lookups") for cache in probed)

    monkeypatch.setattr(CacheHierarchy, "access", counted_access)
    build_system = config.build_system

    def build_and_list(*args):
        system = build_system(*args)
        systems.append(system)
        return system

    monkeypatch.setattr(config, "build_system", build_and_list)
    return counts, systems


def check_identities(system, counts):
    """Each derived stat of a drained `system` equals its outside count,
    and nothing is left in flight or waiting anywhere."""
    flat = system.stats.flatten()
    hierarchy = system.host
    assert not hierarchy._mshrs and hierarchy.wb_in_flight == 0
    assert flat["core.outstandingRequests"] == 0
    for injector in system.host.injectors:
        assert not injector._pending and injector._stream is None
        assert injector._in_flight == 0
    for cache in hierarchy.levels:
        assert flat[f"{cache.name}.lookups"] == counts[cache, "lookups"]
    assert flat["membus.toBridge"] == counts[system.membus, "toBridge"]
    bridge = system.bridge
    if bridge is None:
        assert flat["membus.toBridge"] == 0
        assert not any(name.startswith("bridge.") for name in flat)
        return
    assert flat["bridge.m2sSent"] == sum(counts[device, "requests"]
                                         for device in system.devices)
    assert flat["bridge.s2mReceived"] == counts[bridge.rx, "messages"]
    assert flat["bridge.txBytes"] == counts[bridge.tx, "bytes"]
    assert flat["bridge.rxBytes"] == counts[bridge.rx, "bytes"]
    assert (bridge.req_used, bridge.resp_used) == (0, 0)
    assert not bridge._waiters and not bridge._egress_waiters


@pytest.mark.parametrize("name, case", CASES)
def test_derived_stats_match_outside_counts(counted, name, case):
    workload = WORKLOADS[case]
    cfg = config.merge_config(preset(name), {"workload": workload})
    run_workload(config.check_config(cfg))
    counts, systems = counted
    assert systems
    for system in systems:
        check_identities(system, counts)
    devices = [device for system in systems for device in system.devices]
    if devices:
        # Not vacuous: requests crossed, writes too where the kind has them,
        # and alone where one LSQ slot lets them go alone (never to an
        # SSD device, whose medium answers by callback).
        assert all(counts[device, "requests"] > 0 for device in devices)
        if workload["kind"] in ("stream", "rdwr_sweep", "kv_proxy"):
            assert sum(counts[device, "writes"] for device in devices) > 0
        lone = case.endswith("-lone") and name != "cxl-ssd"
        assert (counts["lone"] > 0) == lone


@pytest.mark.parametrize("second", ["dram", "ssd"])
def test_derived_stats_sum_over_two_devices(counted, second):
    first = preset("cxl-dmsim-a")["devices"][0]
    devices = [first, first if second == "dram"
               else preset("cxl-ssd")["devices"][0]]
    system = config.build_system(config.check_config(patched_preset(
        "cxl-dmsim-a", {
            "devices": copy.deepcopy(devices),
            "workload": {"kind": "dlrm_proxy", "injectors": 4,
                         "lsq_depth": 4}})))
    rnd = random.Random(5)
    for _ in range(400):
        dev = system.devices[rnd.randrange(2)]
        cmd = MemCmd.WRITE_REQ if rnd.random() < 0.4 else MemCmd.READ_REQ
        system.host.injectors[rnd.randrange(4)].issue(
            cmd, dev.bar.base + rnd.randrange(256) * LINE_BYTES,
            cacheable=rnd.random() < 0.5)
    system.engine.run()
    check_identities(system, counted[0])
    for dev in system.devices:
        assert dev.reads > 0 and dev.writes > 0


# -- the request path makes no stats call but Histogram.record and _fold ----


@pytest.mark.parametrize("name, workload, folds", [
    ("cxl-dmsim-a", {"kind": "dlrm_proxy", "injectors": 8,
                     "queries_per_injector": 2, "lookups_per_query": 8,
                     "footprint_mb": 2}, False),
    # 512 loads: core.loadToUse crosses the fold threshold twice.
    ("cxl-dmsim-a", {"kind": "dlrm_proxy", "injectors": 8,
                     "queries_per_injector": 8, "lookups_per_query": 8,
                     "footprint_mb": 2}, True),
    ("cxl-ssd", {"kind": "kv_proxy", "ops": 300, "warm_ops": 50}, True),
], ids=["dlrm", "dlrm-folds", "kv"])
def test_engine_run_enters_no_stats_function_but_histogram_record_and_fold(
        monkeypatch, name, workload, folds):
    entered = collections.Counter()
    fold_callers = set()
    stats_file = stats_module.__file__
    # Names by code object: Python 3.10's code has no co_qualname, and no
    # other function's bare co_name equals a qualified name below.
    hist = stats_module.Histogram
    names = {hist.record.__code__: "Histogram.record",
             hist._fold.__code__: "Histogram._fold"}

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename == stats_file:
            entered[names.get(code, code.co_name)] += 1
            if code is hist._fold.__code__:
                caller = frame.f_back.f_code
                fold_callers.add(names.get(caller, caller.co_name))

    run = Engine.run

    def profiled_run(engine):
        sys.setprofile(profile)
        try:
            return run(engine)
        finally:
            sys.setprofile(None)

    monkeypatch.setattr(Engine, "run", profiled_run)
    result = run_workload(config.check_config(config.merge_config(
        preset(name), {"workload": workload})))
    expected = {"Histogram.record"} | ({"Histogram._fold"} if folds else set())
    assert set(entered) == expected
    if folds:
        # Folds run only when a buffer fills, never once per sample.
        assert fold_callers == {"Histogram.record"}
        most = -(-entered["Histogram.record"] // stats_module.FOLD_AT)
        assert entered["Histogram._fold"] <= most
    # The report still reads the counts the run made.
    assert result.system.stats.flatten()["bridge.m2sSent"] > 0
