"""HDM management: the app-managed allocator.

The app-managed (AM) side mirrors a device driver's bookkeeping: a
doubly-linked allocation list over the HDM window whose nodes record the
owning workload id, FREE/BUSY state, size, and device offset.  Allocation
is first-fit with immediate coalescing of adjacent FREE nodes, and sizes
round up to whole pages.  All AM operations require exclusive access; a
reentrancy guard asserts the single-owner contract.

The kernel-managed (KM) side is System.place_pages: it deals pages round
robin over a tuple of NUMA nodes, and raises PlacementError when they
cannot hold the demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

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


@dataclass
class HdmAllocNode:
    pid: int
    state: NodeState
    size: int
    offset: int
    prev: Optional["HdmAllocNode"] = field(default=None, repr=False)
    next: Optional["HdmAllocNode"] = field(default=None, repr=False)


class HdmAllocator:
    """First-fit allocator over one HDM window."""

    def __init__(self, hdm_size: int):
        if hdm_size <= 0 or hdm_size % PAGE_BYTES:
            raise ValueError("hdm_size must be a positive page multiple")
        self.hdm_size = hdm_size
        self.head = HdmAllocNode(pid=0, state=NodeState.FREE,
                                 size=hdm_size, offset=0)
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
        if size <= 0:
            raise ValueError("allocation size must be > 0")
        self._enter()
        try:
            need = self._round_up(size)
            node = self.head
            while node is not None:
                if node.state is NodeState.FREE and node.size >= need:
                    if node.size > need:
                        rest = HdmAllocNode(pid=0, state=NodeState.FREE,
                                            size=node.size - need,
                                            offset=node.offset + need,
                                            prev=node, next=node.next)
                        if node.next is not None:
                            node.next.prev = rest
                        node.next = rest
                        node.size = need
                    node.state = NodeState.BUSY
                    node.pid = pid
                    return node.offset
                node = node.next
            raise HdmAllocationError(
                f"no contiguous FREE region of {need} bytes")
        finally:
            self._exit()

    def free(self, pid: int, offset: int) -> None:
        self._enter()
        try:
            node = self.head
            while node is not None:
                if node.offset == offset and node.state is NodeState.BUSY:
                    if node.pid != pid:
                        raise HdmPermissionError(
                            f"block at {offset:#x} belongs to pid {node.pid}, "
                            f"not {pid}")
                    node.state = NodeState.FREE
                    node.pid = 0
                    self._coalesce(node)
                    return
                node = node.next
            raise HdmInvalidFree(f"no BUSY block at offset {offset:#x}")
        finally:
            self._exit()

    def _coalesce(self, node: HdmAllocNode) -> None:
        nxt = node.next
        if nxt is not None and nxt.state is NodeState.FREE:
            node.size += nxt.size
            node.next = nxt.next
            if nxt.next is not None:
                nxt.next.prev = node
        prv = node.prev
        if prv is not None and prv.state is NodeState.FREE:
            prv.size += node.size
            prv.next = node.next
            if node.next is not None:
                node.next.prev = prv

    def nodes(self) -> List[HdmAllocNode]:
        out = []
        node = self.head
        while node is not None:
            out.append(node)
            node = node.next
        return out

    def check_invariants(self) -> None:
        nodes = self.nodes()
        total = 0
        prev = None
        for n in nodes:
            if prev is not None:
                if n.offset != prev.offset + prev.size:
                    raise AssertionError("allocation list has a gap or overlap")
                if prev.state is NodeState.FREE and n.state is NodeState.FREE:
                    raise AssertionError("adjacent FREE nodes not coalesced")
            total += n.size
            prev = n
        if total != self.hdm_size:
            raise AssertionError(f"size conservation broken: {total}")

