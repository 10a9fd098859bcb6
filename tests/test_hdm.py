import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build

from cxlsim.config import preset
from cxlsim.hdm import (HdmAllocationError, HdmAllocator, HdmError,
                        HdmInvalidFree, HdmPermissionError, NodeState,
                        NumaNode, PAGE_BYTES, PlacementError, Policy, km_place)

MB = 1024 * 1024
GB = 1024 * MB


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
        before = alloc.to_json()
        with pytest.raises(HdmAllocationError):
            alloc.alloc(1, 1 * MB + PAGE_BYTES)
        assert alloc.to_json() == before

    def test_free_only_allocation_restores_single_free_node(self):
        alloc = HdmAllocator(1 * MB)
        off = alloc.alloc(1, 64 * 1024)
        alloc.free(1, off)
        nodes = alloc.nodes()
        assert len(nodes) == 1
        assert nodes[0].state is NodeState.FREE
        assert nodes[0].size == 1 * MB

    def test_no_coalesce_across_busy(self):
        alloc = HdmAllocator(1 * MB)
        offs = [alloc.alloc(1, 4096) for _ in range(3)]
        alloc.free(1, offs[1])
        states = [n.state for n in alloc.nodes()]
        assert states[:3] == [NodeState.BUSY, NodeState.FREE, NodeState.BUSY]

    def test_freeing_neighbors_then_middle_fully_coalesces(self):
        alloc = HdmAllocator(64 * 1024)
        offs = [alloc.alloc(1, 4096) for _ in range(3)]
        tail = alloc.alloc(1, 64 * 1024 - 3 * 4096)  # fill the rest
        alloc.free(1, offs[0])
        alloc.free(1, offs[2])
        alloc.free(1, offs[1])
        nodes = alloc.nodes()
        assert len(nodes) == 2
        assert nodes[0].state is NodeState.FREE
        assert nodes[0].size == 3 * 4096
        alloc.free(1, tail)
        assert len(alloc.nodes()) == 1

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

    def test_json_dump_shape(self):
        alloc = HdmAllocator(1 * MB)
        alloc.alloc(3, 4096)
        rows = json.loads(alloc.to_json())
        assert rows[0] == {"pid": 3, "state": "BUSY", "size": 4096, "offset": 0}

    def test_reentrancy_guard(self):
        alloc = HdmAllocator(1 * MB)
        alloc._guard = True  # simulate a concurrent holder
        with pytest.raises(HdmError):
            alloc.alloc(1, 4096)


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
    busy = [n for n in alloc.nodes() if n.state is NodeState.BUSY]
    assert len(busy) == len(live)


class TestKmPlace:
    def test_interleave_even_round_robin(self):
        policy = Policy.interleave([0, 1], [0.5, 0.5])
        out = km_place(4, policy, {0: 100, 1: 100})
        assert out == [0, 1, 0, 1]

    def test_weighted_interleave_75_25(self):
        policy = Policy.interleave([0, 1], [0.75, 0.25])
        out = km_place(8, policy, {0: 100, 1: 100})
        assert out.count(0) == 6 and out.count(1) == 2
        assert out == km_place(8, policy, {0: 100, 1: 100})  # deterministic

    def test_bind_fails_on_exhaustion(self):
        with pytest.raises(PlacementError):
            km_place(5, Policy.bind(0), {0: 4})

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Policy.interleave([0, 1], [0.7, 0.1])

    def test_pure_function_of_inputs(self):
        policy = Policy.interleave([0, 1, 2], [0.5, 0.3, 0.2])
        caps = {0: 50, 1: 50, 2: 50}
        assert km_place(30, policy, caps) == km_place(30, policy, caps)


# -- System.place_pages by runs against the per-page placement it replaced ----


def reference_place_pages(system, count, policy):
    """Place page by page, advancing one node's cursor per page."""
    capacities = {node.id: node.size // PAGE_BYTES
                  - system._page_cursor.get(node.id, 0)
                  for node in system.numa_nodes}
    addrs = []
    for node_id in km_place(count, policy, capacities):
        node = next(n for n in system.numa_nodes if n.id == node_id)
        cursor = system._page_cursor.get(node_id, 0)
        addrs.append(node.base + cursor * PAGE_BYTES)
        system._page_cursor[node_id] = cursor + 1
    return addrs


ASIC_SYSTEM = build(preset("cxl-dmsim-a"))


def small_numa_system(node_pages):
    """A system whose NUMA nodes hold only `node_pages` pages each."""
    return replace(ASIC_SYSTEM, _page_cursor={}, numa_nodes=[
        NumaNode(id=i, base=(i + 1) << 32, size=pages * PAGE_BYTES)
        for i, pages in enumerate(node_pages)])


POLICIES = st.one_of(
    st.sampled_from([0, 1, 2]).map(Policy.bind),
    st.sampled_from([((0, 1), (0.5, 0.5)), ((0, 2), (0.75, 0.25)),
                     ((0, 1, 2), (0.5, 0.3, 0.2))]).map(
        lambda spec: Policy.interleave(*spec)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(node_pages=st.lists(st.integers(1, 40), min_size=3, max_size=3),
       placements=st.lists(st.tuples(st.integers(0, 30), POLICIES),
                           min_size=1, max_size=6))
def test_place_pages_by_runs_matches_per_page(node_pages, placements):
    system = small_numa_system(node_pages)
    reference = small_numa_system(node_pages)
    for count, policy in placements:
        try:
            expected = reference_place_pages(reference, count, policy)
        except PlacementError:
            with pytest.raises(PlacementError):
                system.place_pages(count, policy)
            continue
        assert system.place_pages(count, policy) == expected
        assert system._page_cursor == reference._page_cursor
