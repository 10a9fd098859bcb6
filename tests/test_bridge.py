import pytest

from cxlsim.engine import Engine, ns_to_ticks
from cxlsim.stats import StatsRegistry
from cxlsim.host import MemCmd, MemPacket
from cxlsim.bridge import (BridgeConfig, CxlBridge, CxlKind, CxlMemPacket,
                           ProtocolError, convert_m2s, convert_s2m)


def make_bridge(engine, stats=None, req_depth=4, resp_depth=4,
                link=64.0, bridge_ns=50, proto_ns=14):
    cfg = BridgeConfig(bridge_lat=ns_to_ticks(bridge_ns),
                       host_proto_proc_lat=ns_to_ticks(proto_ns),
                       req_fifo_depth=req_depth, resp_fifo_depth=resp_depth,
                       link_bytes_per_ns_tx=link, link_bytes_per_ns_rx=link,
                       msg_header_bytes=16)
    return CxlBridge(engine, cfg, stats or StatsRegistry())


class EchoDevice:
    """Responds after a fixed service delay; M2S arrival ticks recorded."""

    def __init__(self, engine, delay=0):
        self.engine = engine
        self.delay = delay
        self.bridge = None
        self.arrivals = []

    def bind_bridge(self, bridge):
        self.bridge = bridge

    def receive_m2s(self, pkt):
        self.arrivals.append(self.engine.now)
        if pkt.kind is CxlKind.M2S_REQ:
            resp = CxlMemPacket(CxlKind.S2M_DRS, pkt.id, pkt.addr, 64)
        else:
            resp = CxlMemPacket(CxlKind.S2M_NDR, pkt.id, pkt.addr, 0)
        self.engine.schedule(self.delay,
                             lambda: self.bridge.device_egress(resp))


def wire(engine, stats=None, **kwargs):
    delay = kwargs.pop("device_delay", 0)
    bridge = make_bridge(engine, stats, **kwargs)
    device = EchoDevice(engine, delay=delay)
    bridge.attach_device(0, 1 << 40, device)
    return bridge, device


def read_pkt(i, addr=0):
    return MemPacket(id=i, cmd=MemCmd.READ_REQ, addr=addr)


class TestConversions:
    def test_read_maps_to_header_only_request(self):
        cxl = convert_m2s(read_pkt(7))
        assert cxl.kind is CxlKind.M2S_REQ
        assert cxl.id == 7 and cxl.payload_bytes == 0

    def test_write_maps_to_request_with_data(self):
        cxl = convert_m2s(MemPacket(id=9, cmd=MemCmd.WRITE_REQ, addr=0))
        assert cxl.kind is CxlKind.M2S_RWD
        assert cxl.id == 9 and cxl.payload_bytes == 64

    def test_round_trip_preserves_id_and_pairing(self):
        for cmd, resp_kind in ((MemCmd.READ_REQ, CxlKind.S2M_DRS),
                               (MemCmd.WRITE_REQ, CxlKind.S2M_NDR)):
            req = MemPacket(id=11, cmd=cmd, addr=64)
            m2s = convert_m2s(req)
            assert m2s.id == 11 and m2s.addr == 64
            payload = 64 if resp_kind is CxlKind.S2M_DRS else 0
            convert_s2m(CxlMemPacket(resp_kind, m2s.id, m2s.addr, payload), req)

    def test_mismatched_pairing_rejected(self):
        with pytest.raises(ProtocolError):
            convert_s2m(CxlMemPacket(CxlKind.S2M_NDR, 1, 0, 0), read_pkt(1))
        write = MemPacket(id=2, cmd=MemCmd.WRITE_REQ, addr=0)
        with pytest.raises(ProtocolError):
            convert_s2m(CxlMemPacket(CxlKind.S2M_DRS, 2, 0, 64), write)

    def test_payload_rules_enforced(self):
        with pytest.raises(ProtocolError):
            CxlMemPacket(CxlKind.M2S_REQ, 1, 0, 64)
        with pytest.raises(ProtocolError):
            CxlMemPacket(CxlKind.S2M_DRS, 1, 0, 0)


def test_single_request_no_retries():
    engine = Engine()
    stats = StatsRegistry()
    bridge, _ = wire(engine, stats)
    done = []
    bridge.receive(read_pkt(1), lambda: done.append(engine.now))
    engine.run()
    assert len(done) == 1
    assert stats.get("bridge.reqRetryCounts").value == 0


def test_depth_one_two_simultaneous_one_retry():
    engine = Engine()
    stats = StatsRegistry()
    bridge, _ = wire(engine, stats, req_depth=1)
    done = []
    engine.schedule(0, lambda: bridge.receive(read_pkt(1), lambda: done.append(1)))
    engine.schedule(0, lambda: bridge.receive(read_pkt(2), lambda: done.append(2)))
    engine.run()
    assert len(done) == 2
    assert stats.get("bridge.reqRetryCounts").value == 1
    assert done == [1, 2]  # oldest admitted first


def test_idle_latency_is_one_traversal_each_way():
    engine = Engine()
    bridge, device = wire(engine)
    traversal = bridge.config.traversal_lat
    done = []
    bridge.receive(read_pkt(1), lambda: done.append(engine.now))
    engine.run()
    assert device.arrivals == [traversal]
    assert done == [2 * traversal]


def test_in_flight_never_exceeds_req_depth():
    engine = Engine()
    stats = StatsRegistry()
    bridge, _ = wire(engine, stats, req_depth=3, device_delay=ns_to_ticks(200))
    for i in range(32):
        engine.schedule(0, lambda i=i: bridge.receive(read_pkt(i), lambda: None))
    engine.run()
    assert stats.get("bridge.reqFifoOccupancy").max_value == 3
    assert stats.get("bridge.reqRetryCounts").value > 0


def test_resp_fifo_backpressures_device_delivery():
    engine = Engine()
    stats = StatsRegistry()
    # All responses become ready at the same tick; only resp_depth slots exist.
    bridge, _ = wire(engine, stats, req_depth=16, resp_depth=2,
                     device_delay=ns_to_ticks(500))
    done = []
    for i in range(12):
        engine.schedule(0, lambda i=i: bridge.receive(read_pkt(i),
                                                      lambda: done.append(i)))
    engine.run()
    assert len(done) == 12
    assert stats.get("bridge.respFifoOccupancy").max_value <= 2


def test_duplicate_in_flight_id_rejected():
    engine = Engine()
    bridge, _ = wire(engine, device_delay=ns_to_ticks(100))
    bridge.receive(read_pkt(5), lambda: None)
    with pytest.raises(ProtocolError):
        bridge.receive(read_pkt(5), lambda: None)
        engine.run()


def test_tx_rx_byte_balance_at_even_mix():
    engine = Engine()
    stats = StatsRegistry()
    bridge, _ = wire(engine, stats)
    for i in range(10):
        bridge.receive(read_pkt(2 * i), lambda: None)
        bridge.receive(MemPacket(id=2 * i + 1, cmd=MemCmd.WRITE_REQ, addr=64),
                       lambda: None)
    engine.run()
    tx = stats.get("bridge.txBytes").value
    rx = stats.get("bridge.rxBytes").value
    assert tx == rx == 10 * (16 + 80)


def test_link_serialization_bounds_throughput():
    engine = Engine()
    stats = StatsRegistry()
    # Slow RX: 1 byte/ns, so each 80B read response holds the channel 80 ns.
    bridge, _ = wire(engine, stats, req_depth=64, link=1.0)
    n = 50
    done = []
    for i in range(n):
        bridge.receive(read_pkt(i), lambda: done.append(engine.now))
    engine.run()
    spacing = (done[-1] - done[0]) / (n - 1)
    assert abs(spacing - ns_to_ticks(80)) <= ns_to_ticks(1)


def test_unsolicited_response_id_is_protocol_error():
    engine = Engine()
    bridge, _ = wire(engine)
    bridge.device_egress(CxlMemPacket(CxlKind.S2M_DRS, 999, 0, 64))
    with pytest.raises(ProtocolError):
        engine.run()


def test_pure_read_stream_tx_headers_only():
    engine = Engine()
    stats = StatsRegistry()
    bridge, _ = wire(engine, stats)
    n = 25
    for i in range(n):
        bridge.receive(read_pkt(i), lambda: None)
    engine.run()
    assert stats.get("bridge.txBytes").value == n * 16      # headers only
    assert stats.get("bridge.rxBytes").value == n * 80      # header + 64B data
