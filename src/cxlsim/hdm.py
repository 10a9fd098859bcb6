"""HDM management: the app-managed allocator.

The app-managed (AM) side mirrors a device driver's bookkeeping: an
allocation list over the HDM window, a Python list in offset order, whose
nodes record the owning workload id, FREE/BUSY state, size, and device
offset.  Allocation is first-fit with immediate coalescing of adjacent
FREE nodes, and sizes round up to whole pages.  All AM operations
require exclusive access; a reentrancy guard asserts the single-owner
contract.

The kernel-managed (KM) side is System.place_pages: it deals pages round
robin over a tuple of NUMA nodes, and raises PlacementError when they
cannot hold the demand.
"""

from __future__ import annotations

from enum import Enum
from typing import List

PAGE_BYTES = 4096


class HdmError(RuntimeError):
    pass


class HdmAllocationError(HdmError):
    """No FREE region large enough."""


class HdmInvalidFree(HdmError):
    pass


class HdmPermissionError(HdmError):
    pass


class PlacementError(RuntimeError):
    """The NUMA nodes cannot hold the pages asked for."""


class NodeState(Enum):
    FREE = "FREE"
    BUSY = "BUSY"


class HdmAllocNode:
    def __init__(self, pid: int, state: NodeState, size: int, offset: int):
        self.pid = pid
        self.state = state
        self.size = size
        self.offset = offset


class HdmAllocator:
    """First-fit allocator over one HDM window."""

    def __init__(self, hdm_size: int):
        if hdm_size <= 0 or hdm_size % PAGE_BYTES:
            raise ValueError("hdm_size must be a positive page multiple")
        self.hdm_size = hdm_size
        # The allocation list, in offset order.
        self.nodes: List[HdmAllocNode] = [
            HdmAllocNode(pid=0, state=NodeState.FREE, size=hdm_size,
                         offset=0)]
        self._guard = False

    def _enter(self):
        if self._guard:
            raise HdmError("concurrent HDM access; exclusive lock violated")
        self._guard = True

    def _exit(self):
        self._guard = False

    def _round_up(self, size: int) -> int:
        return (size + PAGE_BYTES - 1) // PAGE_BYTES * PAGE_BYTES

    def alloc(self, pid: int, size: int) -> int:
        """First-fit allocation; returns the device offset."""
        if pid <= 0:
            raise ValueError("pid must be > 0: pid 0 marks a FREE node")
        if size <= 0:
            raise ValueError("allocation size must be > 0")
        self._enter()
        try:
            need = self._round_up(size)
            nodes = self.nodes
            for i, node in enumerate(nodes):
                if node.state is NodeState.FREE and node.size >= need:
                    if node.size > need:
                        nodes.insert(i + 1, HdmAllocNode(
                            pid=0, state=NodeState.FREE,
                            size=node.size - need, offset=node.offset + need))
                        node.size = need
                    node.state = NodeState.BUSY
                    node.pid = pid
                    return node.offset
            raise HdmAllocationError(
                f"no contiguous FREE region of {need} bytes")
        finally:
            self._exit()

    def free(self, pid: int, offset: int) -> None:
        """Free the BUSY block at `offset`, merging it with a FREE
        neighbour after it, then before it."""
        self._enter()
        try:
            nodes = self.nodes
            for i, node in enumerate(nodes):
                if node.offset == offset and node.state is NodeState.BUSY:
                    if node.pid != pid:
                        raise HdmPermissionError(
                            f"block at {offset:#x} belongs to pid {node.pid}, "
                            f"not {pid}")
                    node.state = NodeState.FREE
                    node.pid = 0
                    if (i + 1 < len(nodes)
                            and nodes[i + 1].state is NodeState.FREE):
                        node.size += nodes.pop(i + 1).size
                    if i and nodes[i - 1].state is NodeState.FREE:
                        nodes[i - 1].size += nodes.pop(i).size
                    return
            raise HdmInvalidFree(f"no BUSY block at offset {offset:#x}")
        finally:
            self._exit()

    def check_invariants(self) -> None:
        end, prev_free = 0, False
        for n in self.nodes:
            if n.offset != end:
                raise AssertionError("allocation list has a gap or overlap")
            free = n.state is NodeState.FREE
            if n.size <= 0:
                raise AssertionError(f"node at {n.offset:#x} has size {n.size}")
            if free != (n.pid == 0):
                raise AssertionError(f"{n.state.value} node has pid {n.pid}")
            if prev_free and free:
                raise AssertionError("adjacent FREE nodes not coalesced")
            end += n.size
            prev_free = free
        if end != self.hdm_size:
            raise AssertionError(f"size conservation broken: {end}")
