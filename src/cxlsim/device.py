"""CXL Type-3 memory expander: config space, controller, backend media.

The device is enumerated like a PCI endpoint: the host sizes each base
address register with the write-all-ones probe, carves a host physical
range for the HDM window above the existing map, and writes the chosen
base back into the BAR.  After that the memory controller translates
incoming CXL.mem request addresses to device-internal offsets and
services them against the configured backend medium.

device_proto_proc_lat is charged twice per request, once when the M2S
message is parsed and once when the S2M response is built, so swapping
controllers changes end-to-end latency by twice the per-message delta.
A DRAM medium reports its completion when a request is submitted, so on
receipt the device knows when the response is built and schedules one
event for it; an SSD medium answers through a callback instead.

The device is timing-only: an M2S request names a 64B line and carries no
bytes, and the S2M response it builds carries none either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .engine import Engine
from .host import AddressMap, SimFault, Target
from .bridge import CxlBridge, CxlKind, CxlMemPacket

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


@dataclass
class ConfigSpace:
    vendor_id: int = 0x1DB7
    device_id: int = 0xC3D0
    bars: List[BaseAddressRegister] = field(default_factory=list)


@dataclass
class CxlDeviceConfig:
    hdm_size: int
    device_proto_proc_lat: int   # ticks, charged per message direction

    def validate(self) -> None:
        if self.hdm_size <= 0:
            raise ValueError("hdm_size must be > 0")
        if self.device_proto_proc_lat < 0:
            raise ValueError("device_proto_proc_lat must be >= 0")


class MemExpander:
    """Memory controller plus backend medium behind one BAR window."""

    def __init__(self, engine: Engine, config: CxlDeviceConfig, medium,
                 stats, prefix: str = "cxl"):
        config.validate()
        self.engine = engine
        self.config = config
        self.medium = medium
        self.config_space = ConfigSpace(bars=[BaseAddressRegister(config.hdm_size)])
        self._by_callback = getattr(medium, "answers_by_callback", False)
        self._bridge: Optional[CxlBridge] = None
        self.rsp_time = stats.histogram(f"{prefix}.rsp")
        self.reads = stats.counter(f"{prefix}.reads")
        self.writes = stats.counter(f"{prefix}.writes")

    @property
    def bar(self) -> BaseAddressRegister:
        return self.config_space.bars[0]

    def bind_bridge(self, bridge: CxlBridge) -> None:
        self._bridge = bridge

    def translate(self, addr: int) -> int:
        base = self.bar.base
        if base == 0:
            raise DeviceFault("device not enumerated (BAR base unset)")
        if not base <= addr < base + self.config.hdm_size:
            raise DeviceFault(
                f"address {addr:#x} outside HDM window "
                f"[{base:#x}, {base + self.config.hdm_size:#x})")
        return addr - base

    # -- CXL.mem service ----------------------------------------------------

    def receive_m2s(self, pkt: CxlMemPacket) -> None:
        if pkt.kind not in (CxlKind.M2S_REQ, CxlKind.M2S_RWD):
            raise DeviceFault(f"device cannot service {pkt.kind.value}")
        arrival = self.engine.now
        offset = self.translate(pkt.addr)
        is_read = pkt.kind is CxlKind.M2S_REQ
        kind = "read" if is_read else "write"
        (self.reads if is_read else self.writes).inc()
        proto = self.config.device_proto_proc_lat
        if is_read:
            resp = CxlMemPacket(CxlKind.S2M_DRS, pkt.id, pkt.addr, 64)
        else:
            resp = CxlMemPacket(CxlKind.S2M_NDR, pkt.id, pkt.addr, 0)

        def respond() -> None:
            self.rsp_time.record(self.engine.now - arrival)
            self._bridge.device_egress(resp)

        if self._by_callback:
            # Parse, access the medium, then build the response.
            self.engine.schedule(proto, lambda: self.medium.access(
                offset, kind, lambda: self.engine.schedule(proto, respond)))
            return
        # The medium is handed the request as it will arrive after the
        # parse, and one event builds the response once medium and build
        # delay are paid.
        self.engine.schedule(self.medium.submit(kind, proto) + proto, respond)


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
