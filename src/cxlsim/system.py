"""Simulated topology: engine, host path, bridge, devices, NUMA nodes.

A System owns exactly one engine instance and all component state, so
independent systems can run in parallel processes.  Construction happens
in config.build_system; this module only holds the assembled object and
cross-component helpers.  The NUMA nodes are the carved ranges of the
physical map, in carve order: node 0 is local memory and node i the
i-th device's HDM window, a CPU-less node.  `nodes` resolves a
workload's placement to a tuple of them, and kernel-managed placement
deals pages round robin over that tuple, as Linux's MPOL_INTERLEAVE
does; one node is a bind.  App-managed allocation goes through the
first device's HDM allocator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .engine import Engine
from .stats import StatsRegistry
from .host import HostPath, MemBus
from .bridge import CxlBridge
from .device import MemExpander
from .hdm import HdmAllocator, PlacementError


@dataclass
class System:
    engine: Engine
    stats: StatsRegistry
    membus: MemBus
    host: HostPath
    bridge: Optional[CxlBridge]
    devices: List[MemExpander]
    # NUMA node i's page addresses that no placement has taken yet; node i
    # is the i-th carved range of the physical map.
    free_pages: List[range]
    # Device 0's app-managed allocator; None when there is no device.
    hdm_allocator: Optional[HdmAllocator]
    seed: int

    def nodes(self, placement: Optional[str]) -> Tuple[int, ...]:
        """The NUMA nodes `placement` deals pages over: node 0 for local,
        the device nodes for hdm and both for interleave; left out, hdm
        when there is a device and local otherwise."""
        hdm = tuple(range(1, len(self.devices) + 1))
        placement = placement or ("hdm" if hdm else "local")
        return {"local": (0,), "hdm": hdm, "interleave": (0, *hdm)}[placement]

    def place_pages(self, count: int, nodes: Sequence[int]) -> Sequence[int]:
        """Deal `count` page base addresses round robin over the NUMA
        `nodes`, in their order, passing over a node once it is full.

        Each node hands out its pages from the bottom up, so placements in
        one run never overlap.  Whole rounds go out at once, one slice per
        node; a bind returns its slice, a range, with no per-page work.
        """
        free = self.free_pages
        if sum(len(free[n]) for n in nodes) < count:
            raise PlacementError(f"NUMA nodes {tuple(nodes)} cannot hold "
                                 f"{count} pages")
        if len(nodes) == 1:
            (n,) = nodes
            addrs, free[n] = free[n][:count], free[n][count:]
            return addrs
        addrs = [0] * count
        done = 0
        while done < count:
            live = [n for n in nodes if free[n]]
            rounds = min(min(len(free[n]) for n in live),
                         (count - done) // len(live))
            if not rounds:                  # the last, partial round
                live, rounds = live[:count - done], 1
            k = len(live)
            for j, n in enumerate(live):
                addrs[done + j:done + rounds * k:k] = free[n][:rounds]
                free[n] = free[n][rounds:]
            done += rounds * k
        return addrs

    def am_alloc(self, pid: int, size: int) -> int:
        """App-managed HDM allocation; returns a host physical address."""
        offset = self.hdm_allocator.alloc(pid, size)
        return self.devices[0].bar.base + offset
