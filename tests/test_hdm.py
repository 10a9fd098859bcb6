from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import build, coarse_device

from cxlsim.config import preset
from cxlsim.hdm import (HdmAllocationError, HdmAllocNode, HdmAllocator,
                        HdmError, HdmInvalidFree, HdmPermissionError,
                        NodeState, PAGE_BYTES, PlacementError)

MB = 1024 * 1024
GB = 1024 * MB


def rows(alloc):
    """The allocation list as (pid, state, size, offset) tuples."""
    return [(n.pid, n.state, n.size, n.offset) for n in alloc.nodes]


class TestAllocator:
    def test_first_fit_on_empty_starts_at_zero(self):
        alloc = HdmAllocator(16 * GB)
        assert alloc.alloc(pid=1, size=4096) == 0

    def test_first_fit_reuses_first_hole(self):
        alloc = HdmAllocator(1 * MB)
        a = alloc.alloc(1, 8 * 1024)
        b = alloc.alloc(1, 4 * 1024)
        alloc.free(1, a)
        c = alloc.alloc(1, 4 * 1024)
        assert c == 0
        assert b == 8 * 1024

    def test_oversized_allocation_fails_cleanly(self):
        alloc = HdmAllocator(1 * MB)
        before = rows(alloc)
        with pytest.raises(HdmAllocationError):
            alloc.alloc(1, 1 * MB + PAGE_BYTES)
        assert rows(alloc) == before

    def test_free_only_allocation_restores_single_free_node(self):
        alloc = HdmAllocator(1 * MB)
        off = alloc.alloc(1, 64 * 1024)
        alloc.free(1, off)
        nodes = alloc.nodes
        assert len(nodes) == 1
        assert nodes[0].state is NodeState.FREE
        assert nodes[0].size == 1 * MB

    def test_no_coalesce_across_busy(self):
        alloc = HdmAllocator(1 * MB)
        offs = [alloc.alloc(1, 4096) for _ in range(3)]
        alloc.free(1, offs[1])
        states = [n.state for n in alloc.nodes]
        assert states[:3] == [NodeState.BUSY, NodeState.FREE, NodeState.BUSY]

    def test_freeing_neighbors_then_middle_fully_coalesces(self):
        alloc = HdmAllocator(64 * 1024)
        offs = [alloc.alloc(1, 4096) for _ in range(3)]
        tail = alloc.alloc(1, 64 * 1024 - 3 * 4096)  # fill the rest
        alloc.free(1, offs[0])
        alloc.free(1, offs[2])
        alloc.free(1, offs[1])
        nodes = alloc.nodes
        assert len(nodes) == 2
        assert nodes[0].state is NodeState.FREE
        assert nodes[0].size == 3 * 4096
        alloc.free(1, tail)
        assert len(alloc.nodes) == 1

    def test_sizes_round_up_to_pages(self):
        alloc = HdmAllocator(1 * MB)
        alloc.alloc(1, 1)
        assert alloc.alloc(1, 1) == PAGE_BYTES

    def test_wrong_pid_cannot_free(self):
        alloc = HdmAllocator(1 * MB)
        off = alloc.alloc(1, 4096)
        with pytest.raises(HdmPermissionError):
            alloc.free(2, off)

    def test_invalid_free_rejected(self):
        alloc = HdmAllocator(1 * MB)
        with pytest.raises(HdmInvalidFree):
            alloc.free(1, 4096)

    def test_node_rows(self):
        alloc = HdmAllocator(1 * MB)
        alloc.alloc(3, 4096)
        assert rows(alloc) == [(3, NodeState.BUSY, 4096, 0),
                               (0, NodeState.FREE, 1 * MB - 4096, 4096)]

    def test_reentrancy_guard(self):
        alloc = HdmAllocator(1 * MB)
        alloc._guard = True  # simulate a concurrent holder
        with pytest.raises(HdmError):
            alloc.alloc(1, 4096)

    @pytest.mark.parametrize("hdm_size", [0, -PAGE_BYTES, PAGE_BYTES + 1])
    def test_window_must_be_a_positive_page_multiple(self, hdm_size):
        with pytest.raises(ValueError):
            HdmAllocator(hdm_size)

    def test_empty_allocation_rejected(self):
        alloc = HdmAllocator(1 * MB)
        with pytest.raises(ValueError):
            alloc.alloc(1, 0)
        assert rows(alloc) == [(0, NodeState.FREE, 1 * MB, 0)]

    @pytest.mark.parametrize("pid", [0, -1])
    def test_pid_must_be_positive(self, pid):
        # pid 0 marks a FREE node, so no allocation may own it.
        alloc = HdmAllocator(1 * MB)
        alloc.alloc(1, PAGE_BYTES)
        before = rows(alloc)
        with pytest.raises(ValueError, match="pid"):
            alloc.alloc(pid, PAGE_BYTES)
        assert rows(alloc) == before


def _gap(nodes):
    nodes[1].offset += PAGE_BYTES


def _uncoalesced(nodes):
    nodes[0].state, nodes[0].pid = NodeState.FREE, 0


def _lost_page(nodes):
    nodes[-1].size -= PAGE_BYTES


def _empty_busy(nodes):
    nodes.insert(1, HdmAllocNode(pid=2, state=NodeState.BUSY, size=0,
                                 offset=PAGE_BYTES))


def _busy_free_owner(nodes):
    nodes[0].pid = 0


def _free_with_owner(nodes):
    nodes[-1].pid = 3


@pytest.mark.parametrize("breaks, message", [
    (_gap, "gap or overlap"),
    (_uncoalesced, "adjacent FREE nodes"),
    (_lost_page, "size conservation"),
    (_empty_busy, "node at 0x1000 has size 0"),
    (_busy_free_owner, "BUSY node has pid 0"),
    (_free_with_owner, "FREE node has pid 3"),
], ids=["gap", "adjacent_free", "size_sum", "empty_node", "busy_pid_0",
        "free_pid_3"])
def test_check_invariants_fails_on_a_broken_list(breaks, message):
    # The oracle of the conservation property: it must fail, and on the
    # check that the broken state violates.
    alloc = HdmAllocator(1 * MB)
    alloc.alloc(1, PAGE_BYTES)
    alloc.check_invariants()
    breaks(alloc.nodes)
    with pytest.raises(AssertionError, match=message):
        alloc.check_invariants()


@st.composite
def op_sequences(draw):
    return draw(st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]),
                  st.integers(min_value=1, max_value=5),
                  st.integers(min_value=1, max_value=12 * PAGE_BYTES)),
        max_size=60))


@given(op_sequences())
@settings(max_examples=100, deadline=None)
def test_allocator_conservation_property(ops):
    hdm_size = 32 * PAGE_BYTES
    alloc = HdmAllocator(hdm_size)
    live = []                # (pid, offset)
    for kind, pid, size in ops:
        if kind == "alloc":
            try:
                off = alloc.alloc(pid, size)
                live.append((pid, off))
            except HdmAllocationError:
                pass
        elif live:
            pid_l, off = live.pop(hash((kind, pid, size)) % len(live))
            alloc.free(pid_l, off)
        alloc.check_invariants()
    busy = [n for n in alloc.nodes if n.state is NodeState.BUSY]
    assert len(busy) == len(live)


# -- kernel-managed placement: System.place_pages ---------------------------


ASIC_SYSTEM = build(preset("cxl-dmsim-a"))


def node_range(node, pages):
    """The first `pages` page addresses of small NUMA node `node`."""
    base = (node + 1) << 32
    return range(base, base + pages * PAGE_BYTES, PAGE_BYTES)


def small_numa_system(node_pages):
    """A system whose NUMA node i holds only `node_pages[i]` pages."""
    return replace(ASIC_SYSTEM, free_pages=[
        node_range(i, pages) for i, pages in enumerate(node_pages)])


class TestKmPlace:
    def test_interleave_even_round_robin(self):
        system = small_numa_system([100, 100])
        a, b = node_range(0, 2), node_range(1, 3)
        assert system.place_pages(4, (0, 1)) == [a[0], b[0], a[1], b[1]]
        assert system.place_pages(1, (1, 0)) == [b[2]]

    def test_bind_fails_on_exhaustion(self):
        system = small_numa_system([4, 100])
        with pytest.raises(PlacementError):
            system.place_pages(5, (0,))
        assert list(system.place_pages(4, (0,))) == list(node_range(0, 4))

    def test_pure_function_of_inputs(self):
        """The addresses follow from the count, the nodes and the free
        pages alone."""
        first, second = (small_numa_system([50, 50, 50]) for _ in range(2))
        assert (first.place_pages(30, (2, 0, 1))
                == second.place_pages(30, (2, 0, 1)))
        assert first.free_pages == second.free_pages


# -- System.place_pages by rounds against the per-page rule it replaced -------


def per_page_place(system, count, nodes):
    """Place page by page with the equal-weight deficit rule: each page
    goes to the node furthest below its share `step / len(nodes)`, the
    first on ties, passing over a node once it is full."""
    free = system.free_pages
    if sum(len(free[n]) for n in nodes) < count:
        raise PlacementError(f"{nodes} cannot hold {count} pages")
    ratio = 1 / len(nodes)
    placed = dict.fromkeys(nodes, 0)
    addrs = []
    for step in range(1, count + 1):
        best = best_deficit = None
        for node in nodes:
            if len(free[node]) <= placed[node]:
                continue
            deficit = ratio * step - placed[node]
            if best_deficit is None or deficit > best_deficit:
                best, best_deficit = node, deficit
        addrs.append(free[best][placed[best]])
        placed[best] += 1
    for node, taken in placed.items():
        free[node] = free[node][taken:]
    return addrs


# Every order of every non-empty subset of three nodes, such as (2, 0, 1).
NODE_TUPLES = st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=3,
                       unique=True).map(tuple)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(node_pages=st.lists(st.integers(1, 40), min_size=3, max_size=3),
       placements=st.lists(st.tuples(st.integers(0, 50), NODE_TUPLES),
                           min_size=1, max_size=6))
# Node 0 fills after its second page, partway through the third round.
@example(node_pages=[2, 9, 9], placements=[(9, (2, 0, 1)), (4, (0, 1))])
def test_place_pages_by_runs_matches_per_page(node_pages, placements):
    system = small_numa_system(node_pages)
    reference = small_numa_system(node_pages)
    for count, nodes in placements:
        try:
            expected = per_page_place(reference, count, nodes)
        except PlacementError:
            with pytest.raises(PlacementError):
                system.place_pages(count, nodes)
            continue
        assert list(system.place_pages(count, nodes)) == expected
        assert system.free_pages == reference.free_pages


# -- NUMA nodes: the carved ranges, in carve order ---------------------------


def listed_placement_rule(choice, devices):
    """The placement rule, written out: node 0 for local, device nodes 1
    to `devices` for hdm, both for interleave; left out, hdm on a system
    with a device and local otherwise."""
    device_nodes = tuple(range(1, devices + 1))
    choice = choice or ("hdm" if device_nodes else "local")
    return {"local": (0,), "hdm": device_nodes,
            "interleave": (0, *device_nodes)}[choice]


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(devices=st.lists(st.tuples(st.sampled_from([1, 16, 64, 256, 2048]),
                                  st.booleans()), max_size=3))
def test_numa_nodes_are_the_carved_ranges(devices):
    # Mixed sizes leave alignment gaps between the windows; no page of a
    # gap belongs to a node.
    cfg = preset("cxl-dmsim-a")
    ddr = cfg["devices"][0]
    cfg["devices"] = [dict(coarse_device() if coarse else ddr, hdm_size_mb=mb)
                      for mb, coarse in devices]
    if not devices:
        del cfg["bridge"]
    cfg["workload"] = {"kind": "dlrm_proxy"}
    system = build(cfg)
    ranges = system.membus.addr_map.ranges
    assert [r.device for r in ranges] == [None, *system.devices]
    assert system.free_pages == [range(r.base, r.limit, PAGE_BYTES)
                                 for r in ranges]
    for choice in (None, "local", "hdm", "interleave"):
        assert system.nodes(choice) == listed_placement_rule(choice,
                                                             len(devices))
