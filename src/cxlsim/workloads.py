"""Characterization traffic generators.

Four generator families reproduce the classic memory characterization
suite at desk scale:

* latency_sweep - dependent pointer-chase over a randomized single-cycle
  permutation (a random sample of lines for an array larger than the
  LLC), one outstanding load, per-array-size mean load-to-use.
* stream - Copy/Scale/Add/Triad streaming kernels measured over a window
  after pre-warming the LLC to steady write-back state.
* rdwr_sweep - open-loop uniform-random 64B traffic at a given read
  fraction and injection rate; one fresh system per grid point.
* dlrm_proxy - gather-heavy concurrent random reads (embedding-lookup
  style queries) for the bridge congestion study.
* kv_proxy - mixed get/put stream with page locality used to compare the
  SSD-backed device against its DRAM-backed twin.

Every generator owns a seeded random.Random, so runs are deterministic
for a given (config, seed) pair.  Each run_* function takes its
parameters as a namespace of the workload block's fields, checked and
defaulted by config.WORKLOAD_FIELDS, and sizes in the config's units.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from .engine import TICKS_PER_NS
from .hdm import PAGE_BYTES, Policy
from .host import LINE_BYTES, MemCmd
from .system import System

TICKS_PER_S = TICKS_PER_NS * 1_000_000_000
KB = 1024
MB = 1024 * KB


@dataclass
class WorkloadResult:
    columns: List[str]
    rows: List[tuple]
    summary: dict
    system: System


def _derive_seed(seed: int, *parts) -> int:
    # crc32 keeps sub-seeds stable across processes (str hash() is not).
    value = seed & 0xFFFFFFFF
    for part in parts:
        value = (value * 1_000_003 + zlib.crc32(repr(part).encode())) & 0xFFFFFFFF
    return value


def build_chase_cycle(num_lines: int, rng: random.Random) -> List[int]:
    """Random single-cycle visit order over line indices: walking the
    returned list by position, wrapping at its end, visits every line
    exactly once per lap."""
    order = list(range(num_lines))
    rng.shuffle(order)
    return order


class _PagedRegion:
    """Maps a contiguous logical byte region onto placed physical pages."""

    def __init__(self, system: System, size: int, policy: Policy):
        pages = (size + PAGE_BYTES - 1) // PAGE_BYTES
        self.page_addrs = system.place_pages(pages, policy)
        self.size = size

    def addr(self, offset: int) -> int:
        return self.page_addrs[offset // PAGE_BYTES] + offset % PAGE_BYTES

    def line_addr(self, line: int) -> int:
        return self.addr(line * LINE_BYTES)


class _Window:
    """Measure window over a run's completions: stamps the tick of the
    `start`-th and of the `end`-th completion."""

    def __init__(self, engine, start: int, end: int):
        self.engine = engine
        self.start = start
        self.end = end
        self.done = 0
        self.t0 = 0
        self.t1 = 0

    def complete(self, _pkt) -> None:
        self.done += 1
        if self.done == self.start:
            self.t0 = self.engine.now
        if self.done == self.end:
            self.t1 = self.engine.now

    def rate(self, amount: int) -> float:
        """`amount` per simulated second over the window; 0.0 when the
        window is empty."""
        elapsed = self.t1 - self.t0
        return amount * TICKS_PER_S / elapsed if elapsed else 0.0


# -- latency sweep -------------------------------------------------------------


def run_latency_sweep(system: System, params: SimpleNamespace,
                      placement: Policy) -> WorkloadResult:
    injector = system.injectors[0]
    engine = system.engine
    l3_capacity = system.host.hierarchy.levels[-1].capacity
    rows: List[tuple] = []

    for idx, kb in enumerate(params.array_kb):
        size = kb * KB
        region = _PagedRegion(system, size, placement)
        lines = size // params.stride
        rng = random.Random(_derive_seed(system.seed, "lat", idx))
        stride_lines = params.stride // LINE_BYTES
        samples = min(params.samples, lines)

        # A footprint larger than the LLC misses on every chase step with
        # LRU (reuse distance exceeds the capacity), so warm-up only
        # matters for arrays that fit some cache level.  Such an array is
        # walked `samples` steps from cold, so only that many distinct
        # lines are drawn (a partial Fisher-Yates) instead of a full cycle.
        if size <= l3_capacity:
            warm_left = lines
            order = build_chase_cycle(lines, rng)
        else:
            warm_left = 0
            order = rng.sample(range(lines), samples)
        state = {"pos": 0, "warm_left": warm_left,
                 "measure_left": samples, "lat_sum": 0, "t0": 0}

        def next_addr(state=state, region=region, order=order,
                      stride_lines=stride_lines) -> int:
            pos = state["pos"]
            state["pos"] = pos + 1 if pos + 1 < len(order) else 0
            return region.line_addr(order[pos] * stride_lines)

        def issue_next(state=state, next_addr=next_addr):
            if state["warm_left"] > 0:
                state["warm_left"] -= 1
                injector.issue(MemCmd.READ_REQ, next_addr(),
                               on_complete=lambda _p: issue_next())
            elif state["measure_left"] > 0:
                state["measure_left"] -= 1
                state["t0"] = engine.now
                injector.issue(MemCmd.READ_REQ, next_addr(),
                               on_complete=measured)

        def measured(_pkt, state=state, issue_next=issue_next):
            state["lat_sum"] += engine.now - state["t0"]
            issue_next()

        engine.schedule(0, issue_next)
        engine.run()
        mean_ns = (state["lat_sum"] / samples) / TICKS_PER_NS
        rows.append((size, round(mean_ns, 6)))

    summary = {
        "kind": "latency_sweep",
        "curve": [[int(s), m] for s, m in rows],
        "plateau_ns": rows[-1][1],
    }
    return WorkloadResult(["array_bytes", "mean_load_to_use_ns"], rows,
                          summary, system)


# -- STREAM kernels -------------------------------------------------------------

STREAM_KERNELS = {
    # kernel: (reads per element group, writes per element group)
    "copy": (("a",), ("c",)),
    "scale": (("c",), ("b",)),
    "add": (("a", "b"), ("c",)),
    "triad": (("b", "c"), ("a",)),
}


def stream_bytes_per_group(kernel: str) -> int:
    reads, writes = STREAM_KERNELS[kernel]
    return (len(reads) + len(writes)) * LINE_BYTES


def run_stream(system: System, params: SimpleNamespace,
               placement: Policy) -> WorkloadResult:
    """`params.groups` 64B line groups, the first `warm_groups` of them
    outside the measure window."""
    llc = system.host.hierarchy.levels[-1]
    engine = system.engine
    reads, writes = STREAM_KERNELS[params.kernel]
    arrays = {name: _PagedRegion(system, params.array_mb * MB, placement)
              for name in ("a", "b", "c")}

    # Pre-warm the LLC to the steady state a long-running kernel would
    # reach: full of streamed lines whose dirty fraction matches the
    # kernel's dirty-install fraction, so evictions during the measured
    # window produce write-backs at the steady rate.
    ops_per_group = len(reads) + len(writes)
    ghost = _PagedRegion(system, llc.capacity, placement)
    llc.install_pages(ghost.page_addrs, llc.capacity // LINE_BYTES,
                      ops_per_group, len(writes))

    total_ops = params.groups * ops_per_group
    window = _Window(engine, params.warm_groups * ops_per_group, total_ops)
    on_complete = window.complete   # one bound method for every request
    injectors = len(system.injectors)

    # Interleave groups across injectors so all streams advance together.
    def feed(inj_index: int):
        injector = system.injectors[inj_index]
        for group in range(inj_index, params.groups, injectors):
            for name in reads:
                injector.issue(MemCmd.READ_REQ, arrays[name].line_addr(group),
                               on_complete=on_complete)
            for name in writes:
                injector.issue(MemCmd.WRITE_REQ, arrays[name].line_addr(group),
                               on_complete=on_complete)

    for inj_index in range(injectors):
        engine.schedule(0, lambda k=inj_index: feed(k))
    engine.run()

    bw = window.rate((params.groups - params.warm_groups)
                     * stream_bytes_per_group(params.kernel))
    summary = {"kind": "stream", "kernel": params.kernel,
               "bytes_per_sec": bw,
               "read_byte_fraction": len(reads) / ops_per_group}
    return WorkloadResult(["kernel", "bytes_per_sec"],
                          [(params.kernel, bw)], summary, system)


# -- Rd/Wr ratio sweep ----------------------------------------------------------


def run_rdwr_sweep(factory: Callable[[], System], params: SimpleNamespace,
                   placement: Policy) -> WorkloadResult:
    """One fresh system per (read_fraction, rate) grid point."""
    rows: List[tuple] = []
    last_system: Optional[System] = None

    for r_idx, read_fraction in enumerate(params.read_fractions):
        for rate in params.rates_bytes_per_ns:
            system = factory()
            last_system = system
            bw, lat_ns = _run_rdwr_point(system, params, placement, read_fraction,
                                         rate, _derive_seed(system.seed, "rdwr",
                                                            r_idx, rate))
            rows.append((read_fraction, rate, bw, lat_ns))

    peaks: Dict[float, float] = {}
    for read_fraction, _rate, bw, _lat in rows:
        peaks[read_fraction] = max(peaks.get(read_fraction, 0.0), bw)
    argmax_r = max(peaks, key=lambda r: (peaks[r], r))
    values = list(peaks.values())
    sensitivity = (max(values) - min(values)) / min(values) if min(values) else 0.0
    summary = {"kind": "rdwr_sweep",
               "peaks": [[r, peaks[r]] for r in sorted(peaks)],
               "argmax_read_fraction": argmax_r,
               "peak_bytes_per_sec": peaks[argmax_r],
               "sensitivity": sensitivity}
    return WorkloadResult(
        ["read_fraction", "rate_bytes_per_ns", "achieved_bytes_per_sec",
         "mean_latency_ns"], rows, summary, last_system)


def _run_rdwr_point(system: System, params: SimpleNamespace, placement: Policy,
                    read_fraction: float, rate: float,
                    seed: int) -> Tuple[float, float]:
    engine = system.engine
    rng = random.Random(seed)
    footprint = params.footprint_mb * MB
    region = _PagedRegion(system, footprint, placement)
    num_lines = footprint // LINE_BYTES
    interval = max(1, round(LINE_BYTES * TICKS_PER_NS / rate))
    window = _Window(engine, params.warm_ops, params.ops)
    lat_sum = 0
    arrivals: Dict[int, int] = {}

    def on_complete(pkt):
        nonlocal lat_sum
        window.complete(pkt)
        if window.done > params.warm_ops:
            lat_sum += engine.now - arrivals[pkt.id]

    def issue_op(k: int):
        injector = system.injectors[k % len(system.injectors)]
        cmd = MemCmd.READ_REQ if rng.random() < read_fraction else MemCmd.WRITE_REQ
        addr = region.line_addr(rng.randrange(num_lines))
        pkt_id = injector.issue(cmd, addr, cacheable=False,
                                on_complete=on_complete)
        arrivals[pkt_id] = engine.now

    for k in range(params.ops):
        engine.schedule(k * interval, lambda k=k: issue_op(k))
    engine.run()

    measured = params.ops - params.warm_ops
    bw = window.rate(measured * LINE_BYTES)
    lat_ns = lat_sum / measured / TICKS_PER_NS
    return bw, round(lat_ns, 6)


# -- DLRM-style congestion proxy -----------------------------------------------


def run_dlrm_proxy(system: System, params: SimpleNamespace,
                   placement: Policy) -> WorkloadResult:
    engine = system.engine
    footprint = params.footprint_mb * MB
    region = _PagedRegion(system, footprint, placement)
    num_lines = footprint // LINE_BYTES
    finished = {"injectors": 0, "t_end": 0}

    def start_injector(k: int):
        injector = system.injectors[k]
        rng = random.Random(_derive_seed(system.seed, "dlrm", k))
        state = {"query": 0, "pending": 0}

        def next_query():
            if state["query"] == params.queries_per_injector:
                finished["injectors"] += 1
                finished["t_end"] = engine.now
                return
            state["query"] += 1
            state["pending"] = params.lookups_per_query
            for _ in range(params.lookups_per_query):
                addr = region.line_addr(rng.randrange(num_lines))
                injector.issue(MemCmd.READ_REQ, addr, on_complete=gathered)

        def gathered(_pkt):
            state["pending"] -= 1
            if state["pending"] == 0:
                next_query()

        next_query()

    injectors = len(system.injectors)
    for k in range(injectors):
        engine.schedule(0, lambda k=k: start_injector(k))
    engine.run()

    elapsed = finished["t_end"]
    total_queries = injectors * params.queries_per_injector
    agg_qps = total_queries * TICKS_PER_S / elapsed if elapsed else 0.0
    per_inj = agg_qps / injectors
    summary = {"kind": "dlrm_proxy", "injectors": injectors,
               "aggregateQps": agg_qps, "perInjectorQps": per_inj,
               "duration_ns": elapsed / TICKS_PER_NS}
    return WorkloadResult(["injectors", "aggregate_qps", "per_injector_qps"],
                          [(injectors, agg_qps, per_inj)], summary, system)


# -- key-value get/put proxy for the SSD study -----------------------------------


def run_kv_proxy(system: System, params: SimpleNamespace) -> WorkloadResult:
    """Mixed get/put random workload over an app-managed HDM region.

    Puts append sequentially (overwriting the footprint cyclically), gets
    favor recently written pages; ops overlap up to the LSQ depth.
    """
    engine = system.engine
    rng = random.Random(_derive_seed(system.seed, "kv"))
    footprint = params.footprint_mb * MB
    base = system.am_alloc(pid=1, size=footprint)
    total_lines = footprint // LINE_BYTES
    lines_per_page = PAGE_BYTES // LINE_BYTES
    hot_lines = params.hot_window_pages * lines_per_page
    window = _Window(engine, params.warm_ops, params.ops)
    on_complete = window.complete   # one bound method for every request
    frontier = 0
    injector = system.injectors[0]
    for _ in range(params.ops):
        if rng.random() < params.put_fraction:
            line = frontier % total_lines
            frontier += 1
            injector.issue(MemCmd.WRITE_REQ, base + line * LINE_BYTES,
                           cacheable=False, on_complete=on_complete)
        else:
            if rng.random() < params.hot_fraction and frontier > 0:
                span = min(frontier, hot_lines)
                line = (frontier - 1 - rng.randrange(span)) % total_lines
            else:
                line = rng.randrange(total_lines)
            injector.issue(MemCmd.READ_REQ, base + line * LINE_BYTES,
                           cacheable=False, on_complete=on_complete)
    engine.run()

    throughput = window.rate(params.ops - params.warm_ops)
    summary = {"kind": "kv_proxy", "ops": params.ops,
               "throughput_ops_per_sec": throughput}
    return WorkloadResult(["ops", "throughput_ops_per_sec"],
                          [(params.ops, throughput)], summary, system)
