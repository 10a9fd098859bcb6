"""HDM management: app-managed allocator and kernel-managed placement.

The app-managed (AM) side mirrors a device driver's bookkeeping: a
doubly-linked allocation list over the HDM window whose nodes record the
owning workload id, FREE/BUSY state, size, and device offset.  Allocation
is first-fit with immediate coalescing of adjacent FREE nodes, and sizes
round up to whole pages.  All AM operations require exclusive access; a
reentrancy guard asserts the single-owner contract.

The kernel-managed (KM) side is a pure placement function: given a page
count, a NUMA policy, and per-node capacities it returns the node chosen
for every page (bind, or deterministic weighted round-robin interleave).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

PAGE_BYTES = 4096


class HdmError(RuntimeError):
    pass


class HdmAllocationError(HdmError):
    """No FREE region large enough."""


class HdmInvalidFree(HdmError):
    pass


class HdmPermissionError(HdmError):
    pass


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

    def __init__(self, hdm_size: int, page: int = PAGE_BYTES):
        if hdm_size <= 0 or hdm_size % page:
            raise ValueError("hdm_size must be a positive page multiple")
        self.hdm_size = hdm_size
        self.page = page
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
        return (size + self.page - 1) // self.page * self.page

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

    def to_json(self) -> str:
        """Allocation map dump for test oracles."""
        rows = [{"pid": n.pid, "state": n.state.value, "size": n.size,
                 "offset": n.offset} for n in self.nodes()]
        return json.dumps(rows, sort_keys=True)

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


# -- kernel-managed placement -------------------------------------------------


@dataclass(frozen=True)
class NumaNode:
    id: int
    base: int
    size: int


@dataclass
class Policy:
    mode: str                              # bind | interleave
    nodes: Tuple[int, ...] = ()
    ratios: Tuple[float, ...] = ()

    @staticmethod
    def bind(node: int) -> "Policy":
        return Policy(mode="bind", nodes=(node,))

    @staticmethod
    def interleave(nodes: Sequence[int], ratios: Sequence[float]) -> "Policy":
        if len(nodes) != len(ratios):
            raise ValueError("one ratio per node")
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ValueError("interleave ratios must sum to 1")
        return Policy(mode="interleave", nodes=tuple(nodes),
                      ratios=tuple(ratios))


class PlacementError(RuntimeError):
    pass


def km_place(pages: int, policy: Policy,
             capacities: Dict[int, int]) -> List[int]:
    """Assign a node id to each page; pure and deterministic.

    Bind fails on exhaustion; interleave is a largest-remaining-quota
    weighted round-robin.
    """
    if pages < 0:
        raise ValueError("pages must be >= 0")
    remaining = dict(capacities)

    if policy.mode == "bind":
        node = policy.nodes[0]
        if remaining.get(node, 0) < pages:
            raise PlacementError(f"node {node} cannot hold {pages} pages")
        return [node] * pages

    if policy.mode == "interleave":
        if sum(remaining.get(n, 0) for n in policy.nodes) < pages:
            raise PlacementError("interleave nodes cannot hold the demand")
        out = []
        placed = {n: 0 for n in policy.nodes}
        for step in range(1, pages + 1):
            best = None
            best_deficit = None
            for node, ratio in zip(policy.nodes, policy.ratios):
                if remaining.get(node, 0) <= placed[node]:
                    continue
                deficit = ratio * step - placed[node]
                if best_deficit is None or deficit > best_deficit:
                    best = node
                    best_deficit = deficit
            if best is None:
                raise PlacementError("interleave nodes exhausted")
            placed[best] += 1
            out.append(best)
        return out

    raise PlacementError(f"unknown policy mode {policy.mode!r}")
