import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build, coarse_device, patched_preset, ssd_device
from test_golden_reports import TWO_DEVICES

from cxlsim.config import PRESETS, preset
from cxlsim.engine import Engine, ns_to_ticks
from cxlsim.stats import StatsRegistry
from cxlsim.host import AddressFault, LINE_BYTES, MemCmd, MemPacket
from cxlsim.bridge import CxlBridge, CxlKind, CxlMemPacket


# Bytes of a message header, as in every preset.
HEADER = 16


def make_bridge(engine, devices, stats=None, req_depth=4, resp_depth=4,
                link=64.0, bridge_ns=50, proto_ns=14):
    return CxlBridge(engine, devices,
                     ns_to_ticks(bridge_ns) + ns_to_ticks(proto_ns),
                     req_depth, resp_depth, link, link, HEADER,
                     stats or StatsRegistry())


class EchoDevice:
    """Answers each M2S request a fixed service delay after it arrives by
    handing it to the answer handler it carries; M2S packets and arrival
    ticks recorded, and reads and writes counted as a device counts them."""

    def __init__(self, engine, delay=0):
        self.engine = engine
        self.delay = delay
        self.packets = []
        self.arrivals = []
        self.reads = 0
        self.writes = 0

    def receive_m2s(self, pkt, delay):
        self.packets.append(pkt)
        self.arrivals.append(self.engine.now + delay)
        if pkt.kind is CxlKind.M2S_REQ:
            self.reads += 1
        else:
            self.writes += 1
        self.engine.schedule(delay + self.delay, pkt.answer, pkt)


def wire(engine, stats=None, **kwargs):
    delay = kwargs.pop("device_delay", 0)
    device = EchoDevice(engine, delay=delay)
    return make_bridge(engine, [device], stats, **kwargs), device


def read_pkt(i, addr=0):
    return MemPacket(id=i, cmd=MemCmd.READ_REQ, addr=addr)


def offer(bridge, pkt, reply):
    """Deliver `pkt` as the memory bus does: with its reply on it and the
    device that backs its address, the one `wire` attached, which backs
    every address."""
    pkt.reply = reply
    (pkt.device,) = bridge._devices
    bridge.receive(pkt)


class TestConversions:
    """The M2S request that a device receives from the bridge's port."""

    @staticmethod
    def received(pkt):
        bridge, device = wire(Engine())
        offer(bridge, pkt, lambda _: None)
        (cxl,) = device.packets
        assert type(cxl) is CxlMemPacket and cxl.request is pkt
        return cxl

    def test_read_maps_to_header_only_request(self):
        cxl = self.received(read_pkt(7, 0x1C0))
        assert (cxl.kind, cxl.id, cxl.addr) == (CxlKind.M2S_REQ, 7, 0x1C0)

    def test_write_maps_to_request_with_data(self):
        cxl = self.received(MemPacket(id=9, cmd=MemCmd.WRITE_REQ, addr=0x2C0))
        assert (cxl.kind, cxl.id, cxl.addr) == (CxlKind.M2S_RWD, 9, 0x2C0)


def test_single_request_no_retries():
    engine = Engine()
    stats = StatsRegistry()
    bridge, _ = wire(engine, stats)
    done = []
    offer(bridge, read_pkt(1), lambda _: done.append(engine.now))
    engine.run()
    assert len(done) == 1
    assert stats.flatten()["bridge.reqRetryCounts"] == 0


def test_depth_one_two_simultaneous_one_retry():
    engine = Engine()
    stats = StatsRegistry()
    bridge, _ = wire(engine, stats, req_depth=1)
    done = []
    engine.schedule(0, lambda _: offer(bridge, read_pkt(1), lambda _: done.append(1)))
    engine.schedule(0, lambda _: offer(bridge, read_pkt(2), lambda _: done.append(2)))
    engine.run()
    assert len(done) == 2
    assert stats.flatten()["bridge.reqRetryCounts"] == 1
    assert done == [1, 2]  # oldest admitted first


def test_idle_latency_is_one_traversal_each_way():
    engine = Engine()
    bridge, device = wire(engine)
    traversal = bridge.traversal_lat
    done = []
    offer(bridge, read_pkt(1), lambda _: done.append(engine.now))
    engine.run()
    assert device.arrivals == [traversal]
    assert done == [2 * traversal]


def test_in_flight_never_exceeds_req_depth():
    engine = Engine()
    stats = StatsRegistry()
    bridge, _ = wire(engine, stats, req_depth=3, device_delay=ns_to_ticks(200))
    for i in range(32):
        engine.schedule(0, lambda i: offer(bridge, read_pkt(i), lambda _: None), i)
    engine.run()
    assert stats.flatten()["bridge.reqFifoOccupancy::max"] == 3
    assert stats.flatten()["bridge.reqRetryCounts"] > 0


def test_resp_fifo_backpressures_device_delivery():
    engine = Engine()
    stats = StatsRegistry()
    # All responses become ready at the same tick; only resp_depth slots exist.
    bridge, _ = wire(engine, stats, req_depth=16, resp_depth=2,
                     device_delay=ns_to_ticks(500))
    done = []
    for i in range(12):
        engine.schedule(0, lambda i: offer(bridge, read_pkt(i),
                                           lambda _: done.append(i)), i)
    engine.run()
    assert len(done) == 12
    assert stats.flatten()["bridge.respFifoOccupancy::max"] <= 2


def test_requests_with_one_id_complete_each_through_its_own_reply():
    # The bridge keeps no table by id: each CXL request carries the host
    # request that its answer completes.
    engine = Engine()
    bridge, device = wire(engine, device_delay=ns_to_ticks(100))
    done = []
    first, second = read_pkt(5), read_pkt(5, LINE_BYTES)
    offer(bridge, first, lambda pkt: done.append(("first", pkt)))
    offer(bridge, second, lambda pkt: done.append(("second", pkt)))
    assert bridge.req_used == 2
    assert [cxl.request for cxl in device.packets] == [first, second]
    engine.run()
    assert done == [("first", first), ("second", second)]
    assert (bridge.req_used, bridge.resp_used) == (0, 0)


def test_tx_rx_byte_balance_at_even_mix():
    engine = Engine()
    stats = StatsRegistry()
    bridge, _ = wire(engine, stats)
    for i in range(10):
        offer(bridge, read_pkt(2 * i), lambda _: None)
        offer(bridge, MemPacket(id=2 * i + 1, cmd=MemCmd.WRITE_REQ, addr=64),
              lambda _: None)
    engine.run()
    tx = stats.flatten()["bridge.txBytes"]
    rx = stats.flatten()["bridge.rxBytes"]
    assert tx == rx == 10 * (16 + 80)


def test_link_serialization_bounds_throughput():
    engine = Engine()
    stats = StatsRegistry()
    # Slow RX: 1 byte/ns, so each 80B read response holds the channel 80 ns.
    bridge, _ = wire(engine, stats, req_depth=64, link=1.0)
    n = 50
    done = []
    for i in range(n):
        offer(bridge, read_pkt(i), lambda _: done.append(engine.now))
    engine.run()
    spacing = (done[-1] - done[0]) / (n - 1)
    assert abs(spacing - ns_to_ticks(80)) <= ns_to_ticks(1)


def test_pure_read_stream_tx_headers_only():
    engine = Engine()
    stats = StatsRegistry()
    bridge, _ = wire(engine, stats)
    n = 25
    for i in range(n):
        offer(bridge, read_pkt(i), lambda _: None)
    engine.run()
    assert stats.flatten()["bridge.txBytes"] == n * 16      # headers only
    assert stats.flatten()["bridge.rxBytes"] == n * 80      # header + 64B data


# -- the closed-form crossing against the event-driven one it replaced --------


def deliver(engine, grant, action):
    """Cut-through delivery: at once when the channel grants now, else in
    an event at the grant."""
    if grant == 0:
        action(None)
    else:
        engine.schedule(grant, action)


class EventDrivenBridge(CxlBridge):
    """The crossing that CxlBridge replaced, admitted in its own port:
    the request conversion is an event, the TX channel delivers at its
    grant (an event when that is later), the device is handed the request
    when it arrives, the RX channel delivers at its grant and the response
    converts in an event traversal_lat after that.

    `tied_refusals` counts the requests refused at a tick at which a
    response conversion fires later in the same tick."""

    tied_refusals = 0
    _refused = (-1, 0)          # (tick, requests refused at that tick)

    def receive(self, pkt):
        if self.req_used >= self.req_fifo_depth:
            tick, count = self._refused
            now = self.engine.now
            self._refused = (now, count + 1 if tick == now else 1)
            super().receive(pkt)        # refused and held
            return
        self.req_used += 1
        self.req_peak = max(self.req_peak, self.req_used)
        kind = (CxlKind.M2S_RWD if pkt.cmd is MemCmd.WRITE_REQ
                else CxlKind.M2S_REQ)
        self.engine.schedule(self.traversal_lat, lambda _: self._send_m2s(
            CxlMemPacket(kind, pkt.id, pkt.addr, self.device_egress, pkt),
            pkt.device))

    def _converted(self, cxl):
        tick, count = self._refused
        if tick == self.engine.now:
            self.tied_refusals += count
            self._refused = (tick, 0)
        super()._converted(cxl)

    def _send_m2s(self, cxl, device):
        nbytes = HEADER
        if cxl.kind is CxlKind.M2S_RWD:
            nbytes += LINE_BYTES
        deliver(self.engine, self.tx.transmit(nbytes),
                lambda _: device.receive_m2s(cxl, 0))

    def device_egress(self, cxl):
        if self.resp_used < self.resp_fifo_depth:
            self.resp_used += 1
            self.resp_peak = max(self.resp_peak, self.resp_used)
            nbytes = HEADER
            if cxl.kind is CxlKind.M2S_REQ:
                nbytes += LINE_BYTES
            deliver(self.engine, self.rx.transmit(nbytes),
                    lambda _: self._arrived(cxl))
        else:
            self._egress_waiters.append(cxl)

    def _arrived(self, cxl):
        self.engine.schedule(self.traversal_lat, lambda _: self._converted(cxl))


# medium -> (preset, device block); the SSD cache holds two 4 KB pages.
MEDIA = {
    "queued_ddr": ("cxl-dmsim-a", None),
    "coarse_dram": ("cxl-dmsim-a", coarse_device({"width": 2})),
    "ssd_cached": ("cxl-ssd", ssd_device(
        ssd={"channels": 2}, cache={"enabled": True, "capacity_kb": 8,
                                    "policy": "lru", "prefetch": True})),
    "ssd_direct": ("cxl-ssd", ssd_device(ssd={"channels": 2},
                                         cache={"enabled": False})),
}


def run_crossing(medium, devices, bridge, injectors, lsq_depth, trace,
                 event_driven=False):
    """Issue `trace`, a list of (tick, injector, write, cacheable, device,
    line), against a fresh system; returns each request's completion
    tick, the flattened stats and the bridge."""
    name, device = MEDIA[medium]
    patch = {"bridge": bridge,
             "workload": {"kind": "dlrm_proxy", "injectors": injectors,
                          "lsq_depth": lsq_depth, "placement": "hdm"}}
    one = device or preset(name)["devices"][0]
    patch["devices"] = [copy.deepcopy(one) for _ in range(devices)]
    system = build(patched_preset(name, patch))
    if event_driven:    # same state and stats, the old crossing
        system.bridge.__class__ = EventDrivenBridge
    done = {}

    def issue(inj, write, cacheable, dev, line):
        cmd = MemCmd.WRITE_REQ if write else MemCmd.READ_REQ
        system.host.injectors[inj].issue(
            cmd, system.devices[dev].bar.base + line * LINE_BYTES,
            cacheable=cacheable,
            on_complete=lambda p: done.__setitem__(p.id, system.engine.now))

    for tick, *request in trace:
        system.engine.schedule(tick, lambda r: issue(*r), request)
    system.engine.run()
    return sorted(done.items()), system.stats.flatten(), system.bridge


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(medium=st.sampled_from(sorted(MEDIA)), data=st.data())
def test_closed_form_crossing_matches_event_driven_crossing(medium, data):
    draw = data.draw
    rnd = random.Random(draw(st.integers(0, 2**32)))
    # Slow links queue messages on both channels; whole-ns issue ticks
    # and bursts make same-tick arrivals common.
    bridge = {"req_fifo_depth": rnd.randint(1, 4),
              "resp_fifo_depth": rnd.randint(1, 4),
              "link_bytes_per_ns_tx": rnd.choice([0.5, 1.0, 4.6, 64.0]),
              "link_bytes_per_ns_rx": rnd.choice([0.5, 1.0, 4.6, 64.0])}
    # A config holds at most one SSD device.
    devices = 1 if medium.startswith("ssd") else rnd.randint(1, 2)
    injectors = rnd.randint(1, 4)
    lsq_depth = rnd.choice([1, 2, 8])
    lines = rnd.choice([4, 64, 512])
    spread_ns = rnd.choice([1, 50, 2000])
    write_share, cacheable_share = rnd.random(), rnd.choice([0.0, 0.5])
    trace = sorted(
        (rnd.randrange(spread_ns) * 1000, rnd.randrange(injectors),
         rnd.random() < write_share, rnd.random() < cacheable_share,
         rnd.randrange(devices), rnd.randrange(lines))
        for _ in range(rnd.randrange(1, 120)))
    args = (medium, devices, bridge, injectors, lsq_depth, trace)
    done, stats, _ = run_crossing(*args)
    ref_done, ref_stats, ref_bridge = run_crossing(*args, event_driven=True)
    assert done == ref_done
    # The one divergence: the closed form schedules a response conversion
    # when the device delivers the response, not at its RX grant, so it
    # can fire before a bus arrival of the same tick that the event-driven
    # order ran first.  The arrival then meets the freed credit, or the
    # queue behind it, instead of a full FIFO and counts one retry fewer;
    # the same request is admitted at the same tick.
    retries = "bridge.reqRetryCounts"
    assert 0 <= ref_stats[retries] - stats[retries] <= ref_bridge.tied_refusals
    assert ({k: v for k, v in stats.items() if k != retries}
            == {k: v for k, v in ref_stats.items() if k != retries})


@pytest.mark.parametrize("event_driven", [False, True])
def test_arrival_tied_with_conversion(event_driven):
    # A busy RX channel grants the response to request 1 at 200 ns, so it
    # converts at 264 ns; request 2 reaches the bridge at 264 ns too, sent
    # at 100 ns, after the device delivered the response but before its
    # RX grant.  The event-driven crossing refuses it first and admits it
    # when the conversion frees the credit; the closed form frees the
    # credit first.  Both complete it at the same tick.
    engine = Engine()
    stats = StatsRegistry()
    bridge, _ = wire(engine, stats, req_depth=1)
    if event_driven:
        bridge.__class__ = EventDrivenBridge
    bridge.rx.transmit(round(200 * bridge.rx.bytes_per_ns))
    done = {}
    offer(bridge, read_pkt(1), lambda _: done.__setitem__(1, engine.now))
    engine.schedule(ns_to_ticks(100), lambda _: engine.schedule(
        ns_to_ticks(164), lambda _: offer(
            bridge, read_pkt(2), lambda _: done.__setitem__(2, engine.now))))
    engine.run()
    assert done == {1: ns_to_ticks(264), 2: ns_to_ticks(264 + 128)}
    assert stats.flatten()["bridge.reqRetryCounts"] == int(event_driven)


# -- routing: the memory bus's one decode names the device ---------------------


@pytest.mark.parametrize("injectors, lsq_depth", [(1, 1), (4, 4)])
def test_each_request_reaches_the_device_whose_window_holds_it(injectors,
                                                               lsq_depth):
    # Three windows of different sizes, so enumeration leaves an alignment
    # gap; one lone injector takes the closed-form route, four the events.
    ddr = preset("cxl-dmsim-a")["devices"][0]
    devices = [dict(copy.deepcopy(ddr), hdm_size_mb=64),
               dict(coarse_device({"width": 2}), hdm_size_mb=256),
               dict(copy.deepcopy(ddr), hdm_size_mb=128)]
    system = build(patched_preset("cxl-dmsim-a", {
        "devices": devices,
        "workload": {"kind": "dlrm_proxy", "injectors": injectors,
                     "lsq_depth": lsq_depth, "placement": "hdm"}}))
    assert system.host.hierarchy.alone == (lsq_depth == 1)
    rnd = random.Random(5)
    requests = []           # (injector, write, cacheable, device, addr)
    for d, device in enumerate(system.devices):
        lines = device.bar.size // LINE_BYTES
        for line in [0, lines - 1] + rnd.sample(range(1, lines - 1), 6):
            for write in (False, True):
                for cacheable in (False, True):
                    requests.append((rnd.randrange(injectors), write,
                                     cacheable, d,
                                     device.bar.base + line * LINE_BYTES))
    rnd.shuffle(requests)
    for inj, write, cacheable, _, addr in requests:
        system.host.injectors[inj].issue(
            MemCmd.WRITE_REQ if write else MemCmd.READ_REQ, addr,
            cacheable=cacheable)
    system.engine.run()
    # An uncacheable request reaches the device as itself; the first
    # cacheable request to a line fetches it (a read), and the rest hit or
    # merge.  The lines are too few to evict one from the LLC.
    for d, device in enumerate(system.devices):
        mine = [r for r in requests if r[3] == d]
        reads = (sum(1 for _, w, c, _, _ in mine if not (w or c))
                 + len({a for _, _, c, _, a in mine if c}))
        writes = sum(1 for _, w, c, _, _ in mine if w and not c)
        assert (device.reads, device.writes) == (reads, writes)
    assert system.host.hierarchy.wb_peak == 0
    # The first line past a window, below the next window's base.
    (gap,) = [lo.bar.base + lo.bar.size for lo, hi in
              zip(system.devices, system.devices[1:])
              if lo.bar.base + lo.bar.size < hi.bar.base]
    with pytest.raises(AddressFault, match=f"address {gap:#x} is unmapped"):
        system.host.injectors[0].issue(MemCmd.READ_REQ, gap, cacheable=False)


@pytest.mark.parametrize("name, devices", [
    *[(name, None) for name in PRESETS], ("cxl-dmsim-a", TWO_DEVICES)],
    ids=[*PRESETS, "two-devices"])
def test_a_range_names_its_device_or_none(name, devices):
    # Range 0 is local memory and range i the i-th device's HDM window; a
    # packet to a range reaches the local port or the device it names.
    # The window is the device's BAR, so the device serves what the bus
    # routes to it without checking the address again.
    system = build(patched_preset(name, devices and {
        "devices": copy.deepcopy(devices)}))
    bus, ranges = system.membus, system.membus.addr_map.ranges
    assert len(ranges) == len(system.devices) + 1
    assert all(rng.device is owner for rng, owner in
               zip(ranges, [None, *system.devices]))
    assert [(rng.base, rng.limit) for rng in ranges[1:]] == [
        (d.bar.base, d.bar.base + d.bar.size) for d in system.devices]
    for rng in ranges:
        before = (bus.to_local, [d.reads for d in system.devices])
        done = []
        for i, addr in enumerate((rng.base, rng.limit - LINE_BYTES)):
            bus.send(MemPacket(i, MemCmd.READ_REQ, addr), 0, done.append)
        system.engine.run()
        assert len(done) == 2
        assert bus.to_local - before[0] == 2 * (rng.device is None)
        assert [d.reads - reads for d, reads in
                zip(system.devices, before[1])] == [
                    2 * (d is rng.device) for d in system.devices]
