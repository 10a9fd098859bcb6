import pytest

from conftest import build, patched_preset

from cxlsim.engine import Engine, ns_to_ticks
from cxlsim.stats import StatsRegistry
from cxlsim.host import AddressMap, MemCmd
from cxlsim.bridge import CxlKind, CxlMemPacket
from cxlsim.media import CoarseDram
from cxlsim.device import (ALL_ONES, BaseAddressRegister, EnumerationError,
                           MemExpander, enumerate_expander, probe_bar_size)

GB = 1 << 30


def make_device(engine, hdm=GB, proto_ns=15, medium_ns=50):
    medium = CoarseDram(engine, ns_to_ticks(medium_ns), 8)
    return MemExpander(engine, hdm, ns_to_ticks(proto_ns), medium,
                       StatsRegistry(), "cxl")


class CollectingBridge:
    def __init__(self, engine):
        self.engine = engine
        self.responses = []

    def device_egress(self, pkt):
        self.responses.append((self.engine.now, pkt))


class TestBarSizing:
    def test_all_ones_probe_masks_low_bits(self):
        bar = BaseAddressRegister(16 * GB)       # 2^34
        bar.write(ALL_ONES)
        value = bar.read()
        assert value & ((1 << 34) - 1) == 0
        assert value == ALL_ONES & ~((16 * GB) - 1)

    def test_probe_recovers_size(self):
        for size in (1 << 20, 16 * GB, 64 * GB):
            assert probe_bar_size(BaseAddressRegister(size)) == size

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            BaseAddressRegister(3 * GB)


class TestEnumeration:
    def test_single_device_mapped_above_local(self):
        engine = Engine()
        amap = AddressMap()
        amap.carve(4 * GB)
        dev = make_device(engine, hdm=64 * GB)
        rng = enumerate_expander(amap, dev)
        assert rng.device is dev
        assert rng.limit - rng.base == 64 * GB
        assert dev.bar.base == rng.base
        assert rng.base % (64 * GB) == 0

    def test_two_devices_disjoint_and_routable(self):
        engine = Engine()
        amap = AddressMap()
        amap.carve(4 * GB)
        d1 = make_device(engine, hdm=16 * GB)
        d2 = make_device(engine, hdm=64 * GB)
        r1 = enumerate_expander(amap, d1)
        r2 = enumerate_expander(amap, d2)
        assert r1.limit <= r2.base or r2.limit <= r1.base
        assert amap.lookup(r1.base).device is d1
        assert amap.lookup(r2.base).device is d2

    def test_address_space_exhaustion(self):
        engine = Engine()
        amap = AddressMap()
        amap.carve(1 << 63)
        big = make_device(engine, hdm=1 << 63)
        enumerate_expander(amap, big)
        with pytest.raises(EnumerationError):
            enumerate_expander(amap, make_device(engine, hdm=1 << 63))


class SpyMedium(CoarseDram):
    def __init__(self, engine, access_lat, width):
        super().__init__(engine, access_lat, width)
        self.submits = []

    def submit(self, kind, delay=0):
        done = super().submit(kind, delay)
        self.submits.append((self.engine.now, kind, delay, done))
        return done


def test_service_charges_proto_then_medium_then_proto():
    engine = Engine()
    stats = StatsRegistry()
    amap = AddressMap()
    amap.carve(GB)
    medium = SpyMedium(engine, ns_to_ticks(50), 8)
    dev = MemExpander(engine, GB, ns_to_ticks(15), medium, stats, "cxl")
    enumerate_expander(amap, dev)
    sink = CollectingBridge(engine)

    request = CxlMemPacket(CxlKind.M2S_REQ, 1, dev.bar.base,
                           sink.device_egress, None)
    dev.receive_m2s(request, ns_to_ticks(7))
    engine.run()
    # handed over at once, to reach the device after the 7 ns link delay
    # and the medium after the 15 ns parse; medium done at 72 ns, response
    # ready at 87 ns, one event in all
    assert medium.submits == [(0, "read", ns_to_ticks(22), ns_to_ticks(72))]
    assert sink.responses[0][0] == ns_to_ticks(87)
    assert engine._seq == 1
    # the answer names its request; the bridge sizes the S2M message
    assert sink.responses[0][1] is request
    # the device's response time runs from the request's arrival
    assert stats.flatten()["cxl.rsp::mean"] == ns_to_ticks(80)


def test_fpga_vs_asic_end_to_end_gap_is_twice_proto_delta():
    def single_read_latency(preset_name):
        cfg = patched_preset(preset_name, {"workload": {
            "kind": "latency_sweep", "array_kb": [16], "samples": 1,
            "placement": "hdm"}})
        system = build(cfg)
        done = []
        addr = system.devices[0].bar.base
        system.host.injectors[0].issue(
            MemCmd.READ_REQ, addr, cacheable=False,
            on_complete=lambda p: done.append(system.engine.now))
        system.engine.run()
        return done[0]

    gap = single_read_latency("cxl-dmsim-f") - single_read_latency("cxl-dmsim-a")
    assert gap == ns_to_ticks(2 * (60 - 15))


def test_idle_uncached_read_fires_three_events():
    # With two LSQ slots: host path, device service, response conversion;
    # the request conversion, the link channels and the medium fire none
    # of their own.  With one (the preset's) the read goes alone and its
    # completion is the one event, at the same tick.
    for lsq_depth, events in ((2, 3), (1, 1)):
        system = build(patched_preset("cxl-dmsim-a", {
            "workload": {"lsq_depth": lsq_depth}}))
        done = []
        system.host.injectors[0].issue(
            MemCmd.READ_REQ, system.devices[0].bar.base, cacheable=False,
            on_complete=lambda p: done.append(system.engine.now))
        system.engine.run()
        assert system.engine._seq == events
        assert done == [ns_to_ticks(288)]
