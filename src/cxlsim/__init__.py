"""Discrete-event simulator for CXL Type-3 disaggregated-memory datapaths.

The package models the full load/store path from synthetic traffic
injectors through a multi-level cache hierarchy and memory bus to either
local DRAM or a CXL.mem bridge with bounded FIFOs and a memory-expander
device (DRAM or SSD backed), plus the characterization workloads and
statistics pipeline used to study such systems.
"""

__version__ = "0.1.0"

from .engine import Engine, TICKS_PER_NS, ns_to_ticks

__all__ = ["Engine", "TICKS_PER_NS", "ns_to_ticks"]
