"""CXL Type-3 memory expander: BAR, controller, backend media.

The device is enumerated like a PCI endpoint: the host sizes its base
address register with the write-all-ones probe, carves a host physical
range for the HDM window above the existing map, and writes the chosen
base back into the BAR.  After that the memory controller translates
incoming CXL.mem request addresses to device-internal offsets and
services them against the configured backend medium.

device_proto_proc_lat is charged twice per request, once when the M2S
message is parsed and once to prepare the S2M response, so swapping
controllers changes end-to-end latency by twice the per-message delta.
The bridge hands a request over when it admits it, with the ticks until
the request reaches the device (its TX link grant), so the device plans
the whole service then.  A DRAM medium reports its completion when a
request is submitted, so the device schedules one event for the
response; an SSD medium answers through a callback instead, and the
device schedules its access for when the parse is done.  An idle DRAM
device read costs three events in all: the memory-bus arrival at the
bridge, the device response and the bridge's response conversion.

The device is timing-only: an M2S request names a 64B line and carries no
bytes.  The S2M response is not built as a packet: its kind follows from
the request, so the device hands the M2S packet back to the bridge, which
sizes the response on the link.
"""

from __future__ import annotations

from typing import Optional

from .engine import Engine
from .host import AddressMap, SimFault, Target
from .bridge import CxlBridge, CxlKind, CxlMemPacket
from .media import READ, WRITE

ALL_ONES = (1 << 64) - 1


class DeviceFault(SimFault):
    pass


class EnumerationError(SimFault):
    pass


class BaseAddressRegister:
    """PCI-style BAR with write-all-ones sizing semantics."""

    def __init__(self, size: int):
        if size <= 0 or size & (size - 1):
            raise ValueError("BAR size must be a power of two")
        self.size = size
        self._value = 0

    def write(self, value: int) -> None:
        # Low log2(size) bits are hardwired to zero.
        self._value = value & ~(self.size - 1) & ALL_ONES

    def read(self) -> int:
        return self._value

    @property
    def base(self) -> int:
        return self._value


class MemExpander:
    """Memory controller plus backend medium behind one BAR window of
    `hdm_size` bytes; `device_proto_proc_lat` is in ticks, charged per
    message direction."""

    def __init__(self, engine: Engine, hdm_size: int,
                 device_proto_proc_lat: int, medium, stats,
                 prefix: str = "cxl"):
        self.engine = engine
        self.hdm_size = hdm_size
        self.device_proto_proc_lat = device_proto_proc_lat
        self.medium = medium
        self.bar = BaseAddressRegister(hdm_size)
        self._by_callback = getattr(medium, "answers_by_callback", False)
        self._bridge: Optional[CxlBridge] = None
        self.rsp_time = stats.histogram(f"{prefix}.rsp")
        stats.counters(self, {f"{prefix}.reads": "reads",
                              f"{prefix}.writes": "writes"})

    def bind_bridge(self, bridge: CxlBridge) -> None:
        self._bridge = bridge

    def translate(self, addr: int) -> int:
        base = self.bar.base
        if base == 0:
            raise DeviceFault("device not enumerated (BAR base unset)")
        if not base <= addr < base + self.hdm_size:
            raise DeviceFault(
                f"address {addr:#x} outside HDM window "
                f"[{base:#x}, {base + self.hdm_size:#x})")
        return addr - base

    # -- CXL.mem service ----------------------------------------------------

    def receive_m2s(self, pkt: CxlMemPacket, delay: int) -> None:
        """Serve `pkt`, which reaches the device `delay` ticks from now."""
        arrival = self.engine.now + delay
        offset = self.translate(pkt.addr)
        if pkt.kind is CxlKind.M2S_REQ:
            kind = READ
            self.reads += 1
        else:
            kind = WRITE
            self.writes += 1
        proto = self.device_proto_proc_lat

        def respond() -> None:
            self.rsp_time.record(self.engine.now - arrival)
            self._bridge.device_egress(pkt)

        if self._by_callback:
            # Parse, access the medium, then prepare the response.
            self.engine.schedule(delay + proto, lambda: self.medium.access(
                offset, kind, lambda: self.engine.schedule(proto, respond)))
            return
        # The medium is handed the request as it will arrive after the
        # parse, and one event answers once the medium and the response
        # delay are paid.
        self.engine.schedule(self.medium.submit(kind, delay + proto) + proto,
                             respond)


def probe_bar_size(bar: BaseAddressRegister) -> int:
    """Discover a BAR's window size via the all-ones write/read protocol."""
    bar.write(ALL_ONES)
    mask = bar.read()
    return (~mask & ALL_ONES) + 1


def enumerate_expander(addr_map: AddressMap, device: MemExpander,
                       bridge: Optional[CxlBridge] = None):
    """Three-step enumeration: size the BAR, carve an HDM range above the
    existing map, write the base back.  Returns the new address range."""
    size = probe_bar_size(device.bar)
    try:
        base = addr_map.allocate_above(size)
        rng = addr_map.add_range(base, base + size, Target.BRIDGE, device)
    except (SimFault, ValueError) as exc:
        raise EnumerationError(f"cannot map {size:#x} bytes of HDM: {exc}") from exc
    device.bar.write(base)
    if bridge is not None:
        bridge.attach_device(base, base + size, device)
    return rng
