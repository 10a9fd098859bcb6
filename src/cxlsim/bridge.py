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
previous message's finish), computed when the message is sent; the
channel fires no event of its own.

Per-traversal latency: traversal_lat (bridge_lat + host_proto_proc_lat,
in ticks) is charged on the request conversion and again on the response
conversion.  The crossing is arithmetic: on admission the bridge takes
the TX grant for the message, which reaches the channel traversal_lat
later, and hands the request to the device together with the ticks until
that grant; a response converts at its RX grant + traversal_lat, one
event scheduled when the device delivers it.  This is exact because the
TX channel is FIFO and sees its arrivals in admission order, so arrivals
at each device medium never go backwards in time either.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

from .engine import Engine
from .host import LINE_BYTES, MemCmd, MemPacket, SimFault


class CxlKind(Enum):
    M2S_REQ = "M2SReq"    # read request, header only
    M2S_RWD = "M2SRwD"    # write request with 64B payload


class ProtocolError(SimFault):
    pass


@dataclass(slots=True)
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

    A message reaching the channel `delay` ticks from now is granted it at
    max(that arrival, when the previous one has finished serializing) and
    holds it for its bytes at the channel rate.  The grant tick is known
    when the message is sent, so the channel keeps only that finishing
    tick, fires no event and returns the ticks until the grant; the caller
    schedules what follows.  Arrivals must not go backwards in time.
    """

    def __init__(self, engine: Engine, bytes_per_ns: float):
        self.engine = engine
        self.bytes_per_ns = bytes_per_ns
        self._free_at = 0
        self._holds: dict = {}   # message bytes -> ticks it holds the channel

    def transmit(self, nbytes: int, delay: int = 0) -> int:
        hold = self._holds.get(nbytes)
        if hold is None:
            hold = self._holds[nbytes] = max(
                1, round(nbytes * 1000 / self.bytes_per_ns))
        now = self.engine.now
        start = max(now + delay, self._free_at)
        self._free_at = start + hold
        return start - now


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
        self._waiters: deque = deque()   # held (pkt, on_response)
        self._egress_waiters: deque = deque()
        self.tx = LinkChannel(engine, link_bytes_per_ns_tx)
        self.rx = LinkChannel(engine, link_bytes_per_ns_rx)
        # resp_used counts downstream response FIFO slots in use,
        # reservations included.
        stats.counters(self, {
            "bridge.reqRetryCounts": "retries", "bridge.m2sSent": "m2s_sent",
            "bridge.reqFifoOccupancy": "req_used",
            "bridge.reqFifoOccupancy::max": "req_peak",
            "bridge.respFifoOccupancy": "resp_used",
            "bridge.respFifoOccupancy::max": "resp_peak"})
        # At drain every request has been answered; a request carries 64B
        # when it is a write, a response when it answers a read.
        header = msg_header_bytes
        stats.formula("bridge.s2mReceived", {"bridge.m2sSent": 1})
        stats.add("bridge.txBytes", lambda: (
            header * self.m2s_sent + LINE_BYTES * self._device_total("writes")))
        stats.add("bridge.rxBytes", lambda: (
            (header + LINE_BYTES) * self._device_total("reads")
            + header * self._device_total("writes")))

    def attach_device(self, base: int, limit: int, device) -> None:
        self._devices.append((base, limit, device))
        device.bind_bridge(self)

    def _device_total(self, count: str) -> int:
        return sum(getattr(device, count) for _, _, device in self._devices)

    def _device_for(self, addr: int):
        for base, limit, device in self._devices:
            if base <= addr < limit:
                return device
        raise ProtocolError(f"no CXL device backs address {addr:#x}")

    # -- request path ------------------------------------------------------

    def receive(self, pkt: MemPacket, on_response) -> None:
        """Memory-bus port: admit or refuse-and-hold (retry protocol)."""
        if self.req_used < self.req_fifo_depth:
            self._admit(pkt, on_response)
        else:
            self.retries += 1
            self._waiters.append((pkt, on_response))

    def _admit(self, pkt: MemPacket, on_response) -> None:
        self.req_used += 1
        if self.req_used > self.req_peak:
            self.req_peak = self.req_used
        if pkt.id in self._inflight:
            raise ProtocolError(f"request id {pkt.id} already in flight")
        self._inflight[pkt.id] = on_response
        # The message reaches the TX channel once converted, traversal_lat
        # from now, and the device at its grant.
        cxl = convert_m2s(pkt)
        device = self._device_for(cxl.addr)
        self.m2s_sent += 1
        device.receive_m2s(cxl, self.tx.transmit(
            self.msg_header_bytes + cxl.payload_bytes, self.traversal_lat))

    # -- response path -----------------------------------------------------

    def device_egress(self, cxl: CxlMemPacket) -> None:
        """Device-side delivery of the answer to the M2S request `cxl`;
        stalls when the response FIFO is full.  The answer converts
        traversal_lat after its RX grant."""
        if self.resp_used < self.resp_fifo_depth:
            self.resp_used += 1
            if self.resp_used > self.resp_peak:
                self.resp_peak = self.resp_used
            nbytes = self.msg_header_bytes
            if cxl.kind is CxlKind.M2S_REQ:
                nbytes += LINE_BYTES     # S2MDRS carries the read data
            self.engine.schedule(self.rx.transmit(nbytes) + self.traversal_lat,
                                 lambda: self._converted(cxl))
        else:
            self._egress_waiters.append(cxl)

    def _converted(self, cxl: CxlMemPacket) -> None:
        try:
            on_response = self._inflight.pop(cxl.id)
        except KeyError:
            raise ProtocolError(f"response id {cxl.id} matches no request")
        self._release_resp_slot()
        self._release_credit()
        on_response()

    def _release_resp_slot(self) -> None:
        self.resp_used -= 1
        if self._egress_waiters:
            self.device_egress(self._egress_waiters.popleft())

    def _release_credit(self) -> None:
        self.req_used -= 1
        if self._waiters:
            pkt, on_response = self._waiters.popleft()
            # Space-available broadcast: the oldest sender wins the slot;
            # every other held sender re-offers and is refused again.
            self.retries += len(self._waiters)
            self._admit(pkt, on_response)
