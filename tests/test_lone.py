"""A lone request is served in closed form, byte for byte as the event path.

A demand request (a fill's fetch or an uncacheable request) that leaves
a host whose one injector has one LSQ slot, on an engine with nothing
scheduled, is served where it leaves: MemBus.send is told it goes
`alone` and its completion is the one event it schedules.  These tests
run each config twice through `cxlsim run`, as shipped and with the lone
route switched off (MemBus.send always told it does not go alone), and
require the same report.json and curve.csv bytes.  The configs are drawn
within the schema's ranges on local DDR, a queued-DDR device and a
coarse-DRAM device, for every workload kind, with one injector and one
LSQ slot and small sizes.  Write-backs overlap the next demand request on
STREAM and every rdwr issue is scheduled ahead, so both paths run in one
config.
"""

import copy
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build, coarse_device, patched_preset, tiny_cache_patch

from cxlsim import cli
from cxlsim.bridge import ProtocolError
from cxlsim.config import merge_config, preset
from cxlsim.device import DeviceFault
from cxlsim.engine import Engine
from cxlsim.host import AddressFault, LINE_BYTES, MemBus, MemCmd, Target


BASES = {
    "local-ddr": merge_config(preset("local-ddr"), tiny_cache_patch()),
    "cxl-dmsim-a": merge_config(preset("cxl-dmsim-a"), tiny_cache_patch()),
    "coarse-dram": merge_config(preset("cxl-dmsim-a"), {
        **tiny_cache_patch(), "devices": [coarse_device({"width": 1})]}),
}
KINDS = ["latency_sweep", "stream", "rdwr_sweep", "dlrm_proxy", "kv_proxy"]
# kv_proxy allocates on a device, which local-ddr has none of.
CASES = [(base, kind) for base in BASES for kind in KINDS
         if (base, kind) != ("local-ddr", "kv_proxy")]

# Latencies in ns: mostly small, now and then the schema's largest.
ns = st.one_of(st.floats(0, 100), st.just(0.0), st.just(1e9))
rate = st.one_of(st.floats(1e-3, 64), st.just(4.6))
depth = st.integers(1, 4)


@st.composite
def _ddr(draw) -> dict:
    read = draw(ns)
    return {"read_service_ns": read,
            "write_service_ns": min(read + draw(ns), 1e9),
            "turnaround_penalty_ns": draw(ns)}


@st.composite
def _workload(draw, kind: str, with_device: bool) -> dict:
    block = {"kind": kind, "injectors": 1, "lsq_depth": 1}
    if kind != "kv_proxy":
        block["placement"] = draw(st.sampled_from(
            ["local", "hdm", "interleave"] if with_device else ["local"]))
    if kind == "latency_sweep":
        block.update(array_kb=sorted(draw(st.lists(
            st.sampled_from([4, 16, 128]), min_size=1, max_size=2))),
            samples=draw(st.integers(1, 40)))
    elif kind == "stream":
        groups = draw(st.integers(1, 120))
        block.update(kernel=draw(st.sampled_from(
            ["copy", "scale", "add", "triad"])), array_mb=1, groups=groups,
            warm_groups=draw(st.integers(0, groups - 1)))
    elif kind == "rdwr_sweep":
        ops = draw(st.integers(2, 80))
        block.update(read_fractions=[draw(st.floats(0, 1))],
                     rates_bytes_per_ns=[draw(st.floats(0.01, 64))],
                     footprint_mb=1, ops=ops,
                     warm_ops=draw(st.integers(0, ops - 1)))
    elif kind == "dlrm_proxy":
        block.update(queries_per_injector=draw(st.integers(1, 4)),
                     lookups_per_query=draw(st.integers(1, 8)),
                     footprint_mb=1)
    else:
        ops = draw(st.integers(2, 120))
        block.update(ops=ops, warm_ops=draw(st.integers(0, ops - 1)),
                     put_fraction=draw(st.floats(0, 1)),
                     hot_fraction=draw(st.floats(0, 1)),
                     hot_window_pages=draw(st.integers(1, 4)), footprint_mb=1)
    return block


@st.composite
def configs(draw, base: str, kind: str) -> dict:
    cfg = BASES[base]
    hits = sum(lvl["hit_latency_ns"] for lvl in cfg["host"]["caches"].values())
    patch = {
        "seed": draw(st.integers(0, 2**32)),
        "host": {"host_path_lat_ns": min(hits + draw(ns), 1e9),
                 "injectors": {"think_time_ns": draw(ns)},
                 "local_medium": {**draw(_ddr()), "access_lat_ns": draw(ns)}},
        "workload": draw(_workload(kind, bool(cfg["devices"]))),
    }
    if cfg["devices"]:
        dev = {"device_proto_proc_lat_ns": draw(ns),
               "medium_access_lat_ns": draw(ns)}
        if cfg["devices"][0]["medium"] == "queued_ddr":
            dev["ddr"] = draw(_ddr())
        else:
            dev["coarse"] = {"width": draw(st.integers(1, 4))}
        patch["devices"] = [merge_config(cfg["devices"][0], dev)]
        patch["bridge"] = {
            "bridge_lat_ns": draw(ns), "host_proto_proc_lat_ns": draw(ns),
            "req_fifo_depth": draw(depth), "resp_fifo_depth": draw(depth),
            "link_bytes_per_ns_tx": draw(rate),
            "link_bytes_per_ns_rx": draw(rate),
            "msg_header_bytes": draw(st.integers(1, 64))}
    return merge_config(cfg, patch)


def _switch_off_lone_route(mp: pytest.MonkeyPatch) -> None:
    """Have MemBus.send tell every port that no request goes alone."""
    send = MemBus.send
    mp.setattr(MemBus, "send", lambda self, pkt, lat, reply, alone=False:
               send(self, pkt, lat, reply))


def _run(cfg: dict, out, event_path: bool):
    """report.json and curve.csv of one run, and the events it fired."""
    fired = []
    run = Engine.run

    def counted_run(engine):
        try:
            return run(engine)
        finally:
            fired.append(engine._seq)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "run", counted_run)
        if event_path:
            _switch_off_lone_route(mp)
        cli.run_one(copy.deepcopy(cfg), str(out))
    return ((out / "report.json").read_bytes(),
            (out / "curve.csv").read_bytes(), sum(fired))


def _same_bytes(cfg: dict, tmp_path, name: str):
    """Run `cfg` both ways; return the events (lone, event path)."""
    report, curve, events = _run(cfg, tmp_path / f"{name}-lone", False)
    ref_report, ref_curve, ref_events = _run(cfg, tmp_path / f"{name}-ref",
                                             True)
    assert report == ref_report
    assert curve == ref_curve
    return events, ref_events


@pytest.mark.parametrize("base, kind", CASES)
def test_lone_route_matches_event_path(tmp_path, base, kind):
    runs = iter(range(1 << 30))

    @settings(max_examples=10, derandomize=True, database=None, deadline=None)
    @given(cfg=configs(base, kind))
    def check(cfg):
        events, ref_events = _same_bytes(cfg, tmp_path, str(next(runs)))
        # Every kind's last request at least goes alone, and a lone request
        # fires fewer events than on the event path.
        assert events < ref_events

    check()


def _mixed_run(cfg: dict, seed: int, event_path: bool):
    """One injector issues cacheable and uncacheable reads and writes over
    8x the LLC: completion ticks, final stats and events."""
    system = build(cfg)
    rng = random.Random(seed)
    inj, base = system.host.injectors[0], system.devices[0].bar.base
    done = []
    with pytest.MonkeyPatch.context() as mp:
        if event_path:
            _switch_off_lone_route(mp)
        for _ in range(400):
            cmd = MemCmd.WRITE_REQ if rng.random() < 0.5 else MemCmd.READ_REQ
            inj.issue(cmd, base + rng.randrange(512) * LINE_BYTES,
                      cacheable=rng.random() < 0.7,
                      on_complete=lambda p: done.append(system.engine.now))
        system.engine.run()
    return done, system.stats.flatten(), system.engine._seq


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32), think_ns=st.sampled_from([0.0, 3.0]))
def test_mixed_issues_match_event_path(seed, think_ns):
    # No workload mixes uncacheable requests with cacheable ones, so only
    # here does an uncacheable request start beside a write-back.
    cfg = patched_preset("cxl-dmsim-a", {"host": {
        "injectors": {"think_time_ns": think_ns},
        "caches": {name: {"capacity_kb": kb, "assoc": 2} for name, kb in
                   (("l1", 1), ("l2", 2), ("l3", 4))}}})
    done, stats, events = _mixed_run(cfg, seed, False)
    ref_done, ref_stats, ref_events = _mixed_run(cfg, seed, True)
    assert (done, stats) == (ref_done, ref_stats)
    assert stats["membus.writebacksInFlight::max"] and events < ref_events


def test_ssd_device_takes_the_event_path(tmp_path):
    # Its medium answers by callback, so a lone request crosses the bridge
    # in events from its arrival: the same events, one for one.
    cfg = merge_config(preset("cxl-ssd"), {"workload": {
        "ops": 400, "warm_ops": 40, "lsq_depth": 1}})
    events, ref_events = _same_bytes(cfg, tmp_path, "ssd")
    assert events == ref_events


def _faulting_system(fault: str, lsq_depth: int):
    """cxl-dmsim-a and an address that faults at the bus, the bridge or
    the device."""
    system = build(patched_preset("cxl-dmsim-a", {
        "workload": {"lsq_depth": lsq_depth}}))
    addr_map, device = system.membus.addr_map, system.devices[0]
    if fault == "address":
        return system, 1 << 60
    if fault == "protocol":     # a bridge range that no device backs
        return system, addr_map.carve(1 << 30, Target.BRIDGE).base
    base = device.bar.base      # the device's BAR no longer set
    device.bar.write(0)
    return system, base


@pytest.mark.parametrize("cacheable", [False, True])
@pytest.mark.parametrize("fault, error, lsq_depth", [
    ("address", AddressFault, 1), ("address", AddressFault, 4),
    ("protocol", ProtocolError, 1), ("device", DeviceFault, 1)])
def test_faulting_issue_takes_no_lsq_slot(fault, error, lsq_depth,
                                          cacheable):
    # One injector with one slot (the lone route) or four.
    system, addr = _faulting_system(fault, lsq_depth)
    injector = system.host.injectors[0]

    def slot():
        flat = system.stats.flatten()
        return (injector._in_flight, flat["core.outstandingRequests"],
                flat["core.outstandingRequests::max"])

    assert slot() == (0, 0, 0)
    with pytest.raises(error):
        injector.issue(MemCmd.READ_REQ, addr, cacheable=cacheable)
    assert slot() == (0, 0, 0)
    done = []
    injector.issue(MemCmd.READ_REQ, LINE_BYTES, cacheable=cacheable,
                   on_complete=done.append)
    system.engine.run()
    assert len(done) == 1 and slot() == (0, 0, 1)


@pytest.mark.parametrize("cacheable", [False, True])
@pytest.mark.parametrize("fault, error", [
    ("address", AddressFault), ("protocol", ProtocolError),
    ("device", DeviceFault)])
def test_lone_fault_is_raised_before_any_state_changes(fault, error,
                                                       cacheable):
    system, addr = _faulting_system(fault, 2)
    with pytest.raises(error) as on_event_path:
        system.host.injectors[0].issue(MemCmd.READ_REQ, addr,
                                       cacheable=cacheable)
        system.engine.run()
    system, addr = _faulting_system(fault, 1)
    bridge = system.bridge

    def below_host():
        # The cache lookups and the core's counts are taken at issue.
        return {name: value for name, value in system.stats.flatten().items()
                if not name.startswith(("l1.", "l2.", "l3.", "core."))}

    before = below_host()
    with pytest.raises(error, match=re.escape(str(on_event_path.value))):
        system.host.injectors[0].issue(MemCmd.READ_REQ, addr,
                                       cacheable=cacheable)
    assert below_host() == before
    assert (bridge.tx._free_at, bridge.rx._free_at) == (0, 0)
    assert not system.engine.queue and not system.host.hierarchy._mshrs
