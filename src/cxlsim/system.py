"""Simulated topology: engine, host path, bridge, devices, NUMA view.

A System owns exactly one engine instance and all component state, so
independent systems can run in parallel processes.  Construction happens
in config.build_system; this module only holds the assembled object and
cross-component helpers (page placement, app-managed HDM allocation,
report snapshots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Optional

from .engine import Engine
from .stats import RunReport, StatsRegistry, config_digest
from .host import AddressMap, HostPath, MemBus
from .bridge import CxlBridge
from .device import MemExpander
from .hdm import PAGE_BYTES, HdmAllocator, NumaNode, Policy, km_place


@dataclass
class System:
    engine: Engine
    stats: StatsRegistry
    addr_map: AddressMap
    membus: MemBus
    host: HostPath
    bridge: Optional[CxlBridge]
    devices: List[MemExpander]
    numa_nodes: List[NumaNode]
    hdm_allocators: List[HdmAllocator]
    config: dict
    seed: int
    _page_cursor: Dict[int, int] = field(default_factory=dict)

    @property
    def injectors(self):
        return self.host.injectors

    def place_pages(self, count: int, policy: Policy) -> List[int]:
        """Assign physical page base addresses according to a NUMA policy.

        Placement within each node is a bump allocator so repeated
        placements in one run never overlap.
        """
        nodes = {node.id: node for node in self.numa_nodes}
        capacities = {node_id: node.size // PAGE_BYTES
                      - self._page_cursor.get(node_id, 0)
                      for node_id, node in nodes.items()}
        addrs: List[int] = []
        for node_id, run in groupby(km_place(count, policy, capacities)):
            pages = sum(1 for _ in run)
            cursor = self._page_cursor.get(node_id, 0)
            start = nodes[node_id].base + cursor * PAGE_BYTES
            addrs.extend(range(start, start + pages * PAGE_BYTES, PAGE_BYTES))
            self._page_cursor[node_id] = cursor + pages
        return addrs

    def am_alloc(self, pid: int, size: int, device_index: int = 0) -> int:
        """App-managed HDM allocation; returns a host physical address."""
        offset = self.hdm_allocators[device_index].alloc(pid, size)
        return self.devices[device_index].bar.base + offset

    def snapshot(self, workload: Optional[dict] = None) -> RunReport:
        return RunReport(config_digest=config_digest(self.config),
                         seed=self.seed,
                         stats=self.stats.flatten(),
                         workload=workload or {})
