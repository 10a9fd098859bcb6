"""Bridge between the memory bus and CXL.mem devices.

The bridge intercepts HDM-bound host packets, converts them to CXL.mem
requests through two pairs of bounded FIFO queues, and completes each host
request, by calling the `reply` handler its packet carries, when the
device's answer to it has been converted.  It keeps no table: the memory
bus decodes each address once and puts the device that its range names
on the packet (`device`), and each CXL request carries the host request
that its answer completes (`request`).  A request FIFO slot doubles as
the transaction credit: it is held from admission until the request
completes on the memory bus, which makes req_fifo_depth the ceiling on
in-flight HDM requests and ties peak random-access bandwidth to Little's
law.

Admission control is credit-free NACK/retry at one port, `receive`: a
request arriving with no free slot is refused once (counted), and the
sender holds the packet.  Every time a slot frees, all held senders
re-offer; the oldest wins, re-offered through `receive`, and each losing
re-offer counts as another retry.  The response path never drops: the
device reserves a response FIFO slot before transmitting, so a full
response FIFO back-pressures device-side delivery.

The S2M response is sized but not built.  Its kind follows from the
request (S2MDRS with 64B of data for a read, header-only S2MNDR for a
write), so the device hands its M2S packet to the bridge handler that it
carries (`answer`).  One table, built with the bridge, gives each request
kind's (request bytes, answer bytes); it sizes every message on both
routes.  The devices the bridge is built with count each request once,
and the bridge's request, answer and byte totals read their counts.

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

A lone request (see host.py) crosses in closed form where it leaves the
host (`serve`): nothing else is in flight, so its credit and response
slot are free and each FIFO's occupancy peaks at 1.  The bridge raises
both peaks, takes the TX grant for the arrival the event path would
have, has the device serve the request, takes the RX grant at the tick
the device answers and schedules the host's completion at that grant +
traversal_lat, the tick the conversion event would fire.  No conversion
happens in between, no credit is held, and no event fires but the
completion.  A request to an SSD device is handed to `receive` at its
arrival instead, as on the event path.
"""

from __future__ import annotations

from collections import deque

from .engine import Engine
from .host import LINE_BYTES, MemCmd, MemPacket


class CxlKind:
    M2S_REQ = "M2SReq"    # read request, header only
    M2S_RWD = "M2SRwD"    # write request with 64B payload


class CxlMemPacket:
    """A CXL request.  `id` is the host request's; no simulator code reads
    it (the bridge completes `request`), perfbench's tracer reads it to
    sample spans.  `answer(pkt)` is the converting bridge's handler for the
    device's answer and `request` the host request that the converted
    answer completes.  A device with an SSD medium sets `arrival`, the tick
    the request reaches it, and `reply(pkt)`, the handler that answers it."""

    __slots__ = ("kind", "id", "addr", "answer", "request", "arrival",
                 "reply")

    def __init__(self, kind: CxlKind, id: int, addr: int, answer: object,
                 request: MemPacket, arrival: int = 0, reply: object = None):
        self.kind = kind
        self.id = id
        self.addr = addr
        self.answer = answer
        self.request = request
        self.arrival = arrival
        self.reply = reply


# A host read becomes a header-only request, a write a request with data.
_M2S_KIND = {MemCmd.READ_REQ: CxlKind.M2S_REQ,
             MemCmd.WRITE_REQ: CxlKind.M2S_RWD}


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
            # A message holds the channel for at least one tick.
            hold = self._holds[nbytes] = round(
                nbytes * 1000 / self.bytes_per_ns) or 1
        now = self.engine.now
        start = now + delay
        if start < self._free_at:
            start = self._free_at
        self._free_at = start + hold
        return start - now


class CxlBridge:
    """Fig-style bridge: two FIFO pairs, conversion latency, retry logic."""

    def __init__(self, engine: Engine, devices: list, traversal_lat: int,
                 req_fifo_depth: int, resp_fifo_depth: int,
                 link_bytes_per_ns_tx: float, link_bytes_per_ns_rx: float,
                 msg_header_bytes: int, stats):
        self.engine = engine
        self.traversal_lat = traversal_lat
        self.req_fifo_depth = req_fifo_depth
        self.resp_fifo_depth = resp_fifo_depth
        self._devices = devices          # whose counts the stats sum
        self._waiters: deque = deque()   # held MemPackets
        self._egress_waiters: deque = deque()
        self.tx = LinkChannel(engine, link_bytes_per_ns_tx)
        self.rx = LinkChannel(engine, link_bytes_per_ns_rx)
        # resp_used counts downstream response FIFO slots in use,
        # reservations included.
        stats.counters(self, {
            "bridge.reqRetryCounts": "retries",
            "bridge.reqFifoOccupancy": "req_used",
            "bridge.reqFifoOccupancy::max": "req_peak",
            "bridge.respFifoOccupancy": "resp_used",
            "bridge.respFifoOccupancy::max": "resp_peak"})
        # kind -> (request bytes, answer bytes): 64B of data go with a
        # write's request and with a read's answer.
        header = msg_header_bytes
        self._sizes = {CxlKind.M2S_REQ: (header, header + LINE_BYTES),
                       CxlKind.M2S_RWD: (header + LINE_BYTES, header)}
        # The devices count each request once; at drain each is answered.
        stats.add("bridge.m2sSent", self.requests)
        stats.add("bridge.s2mReceived", self.requests)
        stats.add("bridge.txBytes", lambda: self._link_bytes(0))
        stats.add("bridge.rxBytes", lambda: self._link_bytes(1))

    def requests(self) -> int:
        return sum(device.reads + device.writes for device in self._devices)

    def _link_bytes(self, way: int) -> int:
        """Bytes of the requests (way 0) or answers (way 1) counted."""
        read = self._sizes[CxlKind.M2S_REQ][way]
        write = self._sizes[CxlKind.M2S_RWD][way]
        return sum(read * device.reads + write * device.writes
                   for device in self._devices)

    # -- request path ------------------------------------------------------

    def receive(self, pkt: MemPacket) -> None:
        """Memory-bus port, the one admission: admit `pkt`, or refuse it
        and hold it until a freed credit re-offers it here."""
        if self.req_used >= self.req_fifo_depth:
            self.retries += 1
            self._waiters.append(pkt)
            return
        cxl = CxlMemPacket(_M2S_KIND[pkt.cmd], pkt.id, pkt.addr,
                           self.device_egress, pkt)
        self.req_used += 1
        if self.req_used > self.req_peak:
            self.req_peak = self.req_used
        # The message reaches the TX channel once converted, traversal_lat
        # from now, and the device at its grant.
        pkt.device.receive_m2s(cxl, self.tx.transmit(
            self._sizes[cxl.kind][0], self.traversal_lat))

    def serve(self, pkt: MemPacket, delay: int) -> None:
        """Serve the lone request `pkt`, which reaches the bridge `delay`
        ticks from now, in closed form, and schedule only pkt.reply, at the
        tick its answer converts (see the module docstring).  A request
        to an SSD device takes the event path from its arrival."""
        device = pkt.device
        if device.answers_by_callback:
            self.engine.schedule(delay, self.receive, pkt)
            return
        # Nothing else is in flight: the credit and the response slot are
        # free, and each FIFO holds this one request at its fullest.
        if not self.req_peak:
            self.req_peak = 1
        if not self.resp_peak:
            self.resp_peak = 1
        kind = _M2S_KIND[pkt.cmd]
        tx_bytes, rx_bytes = self._sizes[kind]
        traversal = self.traversal_lat
        answer = device.serve(kind, self.tx.transmit(tx_bytes,
                                                     delay + traversal))
        self.engine.schedule(self.rx.transmit(rx_bytes, answer) + traversal,
                             pkt.reply, pkt)

    # -- response path -----------------------------------------------------

    def device_egress(self, cxl: CxlMemPacket) -> None:
        """Device-side delivery of the answer to the M2S request `cxl`;
        stalls when the response FIFO is full.  The answer converts
        traversal_lat after its RX grant."""
        if self.resp_used < self.resp_fifo_depth:
            self.resp_used += 1
            if self.resp_used > self.resp_peak:
                self.resp_peak = self.resp_used
            self.engine.schedule(
                self.rx.transmit(self._sizes[cxl.kind][1])
                + self.traversal_lat, self._converted, cxl)
        else:
            self._egress_waiters.append(cxl)

    def _converted(self, cxl: CxlMemPacket) -> None:
        # Slot before credit: fixes the order of the events they schedule.
        self.resp_used -= 1
        if self._egress_waiters:
            self.device_egress(self._egress_waiters.popleft())
        self.req_used -= 1
        if self._waiters:
            held = self._waiters.popleft()
            # Space-available broadcast: the oldest sender wins the slot;
            # every other held sender re-offers and is refused again.
            self.retries += len(self._waiters)
            self.receive(held)
        pkt = cxl.request
        pkt.reply(pkt)
