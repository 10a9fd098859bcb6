"""CXL Type-3 memory expander: BAR, controller, backend media.

The device is enumerated like a PCI endpoint: the host sizes its base
address register with the write-all-ones probe, carves a host physical
range for the HDM window above the existing map, and writes the chosen
base back into the BAR, so the range and the BAR are one window.  The
memory bus decodes each address once and routes the request to the
device its range names; the controller serves it on its backend medium.

device_proto_proc_lat is charged twice per request, once when the M2S
message is parsed and once to prepare the S2M response, so swapping
controllers changes end-to-end latency by twice the per-message delta.
The bridge hands a request over when it admits it, with the ticks until
it reaches the device (its TX link grant), so the device plans the whole
service then.  `serve` is the one DRAM service: it counts the request,
submits it to the medium for its arrival after the parse, records its
`cxl.rsp` sample and returns the ticks until its answer leaves.  On the
event path the device schedules the request's `answer` (the bridge's
`device_egress`) for then, so a DRAM device read costs three events in
all: the memory-bus arrival at the bridge, the answer's delivery and the
bridge's response conversion.  A lone request (see host.py) costs none
here: the bridge calls `serve` itself.  The samples enter the histogram
in the order the answers leave: a DRAM medium's completions never go
backwards while its arrivals do not, and answers of one tick leave in
the order scheduled.
An SSD medium answers later: the device puts its arrival tick and
`_accessed`, as `reply`, on the packet and schedules the medium's
`access(pkt)` for the end of the parse; `_accessed` records the sample
and schedules `pkt.answer` once the response is prepared.

The device is timing-only: an M2S request names a 64B line and carries no
bytes.  The S2M response is not built as a packet: its kind follows from
the request, so the device hands the M2S packet back to the bridge, which
sizes the response on the link.
"""

from __future__ import annotations

from .engine import Engine
from .host import AddressMap, SimFault
from .bridge import CxlKind, CxlMemPacket
from .media import READ, WRITE

ALL_ONES = (1 << 64) - 1


class EnumerationError(SimFault):
    pass


class BaseAddressRegister:
    """PCI-style BAR with write-all-ones sizing semantics."""

    def __init__(self, size: int):
        if size <= 0 or size & (size - 1):
            raise ValueError("BAR size must be a power of two")
        self.size = size
        self.base = 0

    def write(self, value: int) -> None:
        # Low log2(size) bits are hardwired to zero.
        self.base = value & ~(self.size - 1) & ALL_ONES

    def read(self) -> int:
        return self.base


class MemExpander:
    """Memory controller plus backend medium behind one BAR window of
    `hdm_size` bytes; `device_proto_proc_lat` is in ticks, charged per
    message direction."""

    def __init__(self, engine: Engine, hdm_size: int,
                 device_proto_proc_lat: int, medium, stats, prefix: str):
        self.engine = engine
        self.device_proto_proc_lat = device_proto_proc_lat
        self.medium = medium
        self.bar = BaseAddressRegister(hdm_size)
        self.answers_by_callback = getattr(medium, "answers_by_callback",
                                           False)
        self.rsp_time = stats.histogram(f"{prefix}.rsp")
        stats.counters(self, {f"{prefix}.reads": "reads",
                              f"{prefix}.writes": "writes"})

    # -- CXL.mem service ----------------------------------------------------

    def receive_m2s(self, pkt: CxlMemPacket, delay: int) -> None:
        """Serve `pkt`, which reaches the device `delay` ticks from now."""
        if not self.answers_by_callback:
            self.engine.schedule(self.serve(pkt.kind, delay), pkt.answer,
                                 pkt)
            return
        # Parse, access the medium, then prepare the response.
        if pkt.kind is CxlKind.M2S_REQ:
            self.reads += 1
        else:
            self.writes += 1
        pkt.arrival = self.engine.now + delay
        pkt.reply = self._accessed
        self.engine.schedule(delay + self.device_proto_proc_lat,
                             self.medium.access, pkt)

    def serve(self, kind: CxlKind, delay: int) -> int:
        """Serve a request of `kind`, which reaches the device `delay`
        ticks from now, on its DRAM medium; return the ticks from now
        until the answer leaves for the bridge."""
        if kind is CxlKind.M2S_REQ:
            kind = READ
            self.reads += 1
        else:
            kind = WRITE
            self.writes += 1
        proto = self.device_proto_proc_lat
        answer = self.medium.submit(kind, delay + proto) + proto
        self.rsp_time.record(answer - delay)
        return answer

    def _accessed(self, pkt: CxlMemPacket) -> None:
        """The SSD medium is done with `pkt`: prepare the response."""
        proto = self.device_proto_proc_lat
        self.rsp_time.record(self.engine.now + proto - pkt.arrival)
        self.engine.schedule(proto, pkt.answer, pkt)


def probe_bar_size(bar: BaseAddressRegister) -> int:
    """Discover a BAR's window size via the all-ones write/read protocol."""
    bar.write(ALL_ONES)
    mask = bar.read()
    return (~mask & ALL_ONES) + 1


def enumerate_expander(addr_map: AddressMap, device: MemExpander):
    """Three-step enumeration: size the BAR, carve an HDM range above the
    existing map, write the base back.  Returns the new address range,
    which names the device for the memory bus."""
    size = probe_bar_size(device.bar)
    try:
        rng = addr_map.carve(size, device)
    except SimFault as exc:
        raise EnumerationError(f"cannot map {size:#x} bytes of HDM: {exc}") from exc
    device.bar.write(rng.base)
    return rng
