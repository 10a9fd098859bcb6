"""Bridge between the memory bus and CXL.mem devices.

The bridge intercepts HDM-bound host packets, converts them to CXL.mem
requests through two pairs of bounded FIFO queues, and completes each host
request when the device's answer to it has been converted.  A request
FIFO slot doubles as the transaction credit: it is held from admission
until the request completes on the memory bus, which makes req_fifo_depth
the ceiling on in-flight HDM requests and ties peak random-access
bandwidth to Little's law.

Admission control is credit-free NACK/retry: a request arriving with no
free slot is refused once (counted), and the sender holds the packet.
Every time a slot frees, all held senders re-offer; the oldest wins and
each losing re-offer counts as another retry.  The response path never
drops: the device reserves a response FIFO slot before transmitting, so
a full response FIFO back-pressures device-side delivery.

The S2M response is sized but not built.  Its kind follows from the
request (S2MDRS with 64B of data for a read, header-only S2MNDR for a
write), so the device hands its M2S packet back and the bridge charges
the response's bytes on the RX channel.

Each link direction is an independent serial channel.  Transfers cut
through (a message is delivered when the channel grants it) while the
channel stays occupied for header+payload bytes at the configured rate,
so serialization bounds throughput without inflating idle latency.  The
channel is a FIFO single server, so each grant tick is max(arrival, the
previous message's finish), computed when the message arrives; the
channel fires no event of its own.

Per-traversal latency: traversal_lat (bridge_lat + host_proto_proc_lat,
in ticks) is charged on the request conversion and again on the response
conversion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Tuple

from .engine import Engine
from .host import LINE_BYTES, MemCmd, MemPacket, SimFault


class CxlKind(Enum):
    M2S_REQ = "M2SReq"    # read request, header only
    M2S_RWD = "M2SRwD"    # write request with 64B payload


class ProtocolError(SimFault):
    pass


@dataclass
class CxlMemPacket:
    kind: CxlKind
    id: int
    addr: int
    payload_bytes: int


def convert_m2s(pkt: MemPacket) -> CxlMemPacket:
    """Host request -> CXL.mem request; ids are preserved."""
    if pkt.cmd is MemCmd.READ_REQ:
        return CxlMemPacket(CxlKind.M2S_REQ, pkt.id, pkt.addr, 0)
    return CxlMemPacket(CxlKind.M2S_RWD, pkt.id, pkt.addr, LINE_BYTES)


class LinkChannel:
    """One link direction: FIFO, cut-through, byte-serialized occupancy.

    A message is granted the channel at max(now, when the previous one
    has finished serializing) and holds it for its bytes at the channel
    rate; the grant tick is known on arrival, so the channel keeps only
    that finishing tick.  A message granted on arrival is delivered at
    once, any other at its grant tick.
    """

    def __init__(self, engine: Engine, bytes_per_ns: float, byte_counter):
        self.engine = engine
        self.bytes_per_ns = bytes_per_ns
        self._free_at = 0
        self._bytes = byte_counter

    def transmit(self, nbytes: int, deliver: Callable[[], None]) -> None:
        self._bytes.inc(nbytes)
        now = self.engine.now
        start = max(now, self._free_at)
        self._free_at = start + max(1, round(nbytes * 1000 / self.bytes_per_ns))
        if start == now:
            deliver()
        else:
            self.engine.schedule(start - now, deliver)


class CxlBridge:
    """Fig-style bridge: two FIFO pairs, conversion latency, retry logic."""

    def __init__(self, engine: Engine, traversal_lat: int, req_fifo_depth: int,
                 resp_fifo_depth: int, link_bytes_per_ns_tx: float,
                 link_bytes_per_ns_rx: float, msg_header_bytes: int, stats):
        self.engine = engine
        self.traversal_lat = traversal_lat
        self.req_fifo_depth = req_fifo_depth
        self.resp_fifo_depth = resp_fifo_depth
        self.msg_header_bytes = msg_header_bytes
        self._devices: List[Tuple[int, int, object]] = []   # (base, limit, device)
        self._inflight: dict = {}        # id -> on_response
        self._credits = 0                # upstream req FIFO slots in use
        self._waiters: deque = deque()   # held (pkt, on_response)
        self._resp_slots = 0             # downstream resp FIFO incl. reservations
        self._egress_waiters: deque = deque()
        self.retry_counts = stats.counter("bridge.reqRetryCounts")
        self.req_occupancy = stats.gauge("bridge.reqFifoOccupancy")
        self.resp_occupancy = stats.gauge("bridge.respFifoOccupancy")
        self.m2s_sent = stats.counter("bridge.m2sSent")
        self.s2m_received = stats.counter("bridge.s2mReceived")
        self.tx = LinkChannel(engine, link_bytes_per_ns_tx,
                              stats.counter("bridge.txBytes"))
        self.rx = LinkChannel(engine, link_bytes_per_ns_rx,
                              stats.counter("bridge.rxBytes"))

    def attach_device(self, base: int, limit: int, device) -> None:
        self._devices.append((base, limit, device))
        device.bind_bridge(self)

    def _device_for(self, addr: int):
        for base, limit, device in self._devices:
            if base <= addr < limit:
                return device
        raise ProtocolError(f"no CXL device backs address {addr:#x}")

    # -- request path ------------------------------------------------------

    def receive(self, pkt: MemPacket, on_response) -> None:
        """Memory-bus port: admit or refuse-and-hold (retry protocol)."""
        if self._credits < self.req_fifo_depth:
            self._admit(pkt, on_response)
        else:
            self.retry_counts.inc()
            self._waiters.append((pkt, on_response))

    def _admit(self, pkt: MemPacket, on_response) -> None:
        self._credits += 1
        self.req_occupancy.set(self._credits)
        if pkt.id in self._inflight:
            raise ProtocolError(f"request id {pkt.id} already in flight")
        self._inflight[pkt.id] = on_response

        self.engine.schedule(self.traversal_lat,
                             lambda: self._send_m2s(convert_m2s(pkt)))

    def _send_m2s(self, cxl: CxlMemPacket) -> None:
        device = self._device_for(cxl.addr)
        nbytes = self.msg_header_bytes + cxl.payload_bytes
        self.m2s_sent.inc()
        self.tx.transmit(nbytes, lambda: device.receive_m2s(cxl))

    # -- response path -----------------------------------------------------

    def device_egress(self, cxl: CxlMemPacket) -> None:
        """Device-side delivery of the answer to the M2S request `cxl`;
        stalls when the response FIFO is full."""
        if self._resp_slots < self.resp_fifo_depth:
            self._resp_slots += 1
            self.resp_occupancy.set(self._resp_slots)
            nbytes = self.msg_header_bytes
            if cxl.kind is CxlKind.M2S_REQ:
                nbytes += LINE_BYTES     # S2MDRS carries the read data
            self.rx.transmit(nbytes, lambda: self._arrived(cxl))
        else:
            self._egress_waiters.append(cxl)

    def _arrived(self, cxl: CxlMemPacket) -> None:
        self.s2m_received.inc()

        def converted():
            try:
                on_response = self._inflight.pop(cxl.id)
            except KeyError:
                raise ProtocolError(f"response id {cxl.id} matches no request")
            self._release_resp_slot()
            self._release_credit()
            on_response()

        self.engine.schedule(self.traversal_lat, converted)

    def _release_resp_slot(self) -> None:
        self._resp_slots -= 1
        self.resp_occupancy.set(self._resp_slots)
        if self._egress_waiters:
            self.device_egress(self._egress_waiters.popleft())

    def _release_credit(self) -> None:
        self._credits -= 1
        self.req_occupancy.set(self._credits)
        if self._waiters:
            pkt, on_response = self._waiters.popleft()
            # Space-available broadcast: the oldest sender wins the slot;
            # every other held sender re-offers and is refused again.
            self.retry_counts.inc(len(self._waiters))
            self._admit(pkt, on_response)
