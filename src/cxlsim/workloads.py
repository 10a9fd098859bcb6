"""Characterization traffic generators.

Four generator families reproduce the classic memory characterization
suite at desk scale:

* latency_sweep - dependent pointer-chase over a randomized single-cycle
  permutation (a random sample of lines for an array larger than the
  LLC), one outstanding load, per-array-size mean load-to-use.
* stream - Copy/Scale/Add/Triad streaming kernels measured over a window
  after pre-warming, to steady write-back state, the LLC sets the
  kernel's pages map to (no other set is ever read), at a cost that
  follows the LLC's pages and the touched sets, not the kernel's lines.
* rdwr_sweep - open-loop uniform-random 64B traffic at a given read
  fraction and injection rate; one fresh system per grid point.
* dlrm_proxy - gather-heavy concurrent random reads (embedding-lookup
  style queries) for the bridge congestion study.
* kv_proxy - mixed get/put stream with page locality used to compare the
  SSD-backed device against its DRAM-backed twin.

Every generator owns a seeded random.Random, so runs are deterministic
for a given (config, seed) pair; the chase cycle, the DLRM lookups and
the KV lines take its getrandbits as shuffle and randrange do.  Each
run_* function takes its parameters as the workload block's checked view
(config.check_config): a namespace of every field of the block's kind,
defaults filled in, with sizes in the config's units.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from .engine import TICKS_PER_NS
from .hdm import PAGE_BYTES
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
    exactly once per lap.  Fisher-Yates over rng.getrandbits by CPython's
    rule (j takes k = (i + 1).bit_length() bits, redrawn while j > i), so
    the order and the rng's end state equal rng.shuffle's (a test pins
    this) at one C call and no Python frame per element."""
    order = list(range(num_lines))
    getrandbits = rng.getrandbits
    for k in range(num_lines.bit_length(), 1, -1):
        # k once for the band of i whose i + 1 has k bits: [2^(k-1)-1, 2^k-2].
        for i in range(min(num_lines - 1, (1 << k) - 2), (1 << (k - 1)) - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
    return order


class _PagedRegion:
    """Maps a contiguous logical byte region onto placed physical pages."""

    def __init__(self, system: System, size: int, nodes: Tuple[int, ...]):
        pages = (size + PAGE_BYTES - 1) // PAGE_BYTES
        self.page_addrs = system.place_pages(pages, nodes)
        self.lines = size // LINE_BYTES

    def line_addr(self, line: int) -> int:
        offset = line * LINE_BYTES
        return self.page_addrs[offset // PAGE_BYTES] + offset % PAGE_BYTES


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


class _Chase:
    """Dependent loads along `order`, wrapping at its end, each issued when
    the previous one completes; the last `samples` of `loads` are timed."""

    def __init__(self, injector, region: _PagedRegion, order: List[int],
                 stride_lines: int, loads: int, samples: int):
        self.injector = injector
        # region.line_addr(i * stride_lines), with no call per load.
        pages, stride = region.page_addrs, stride_lines * LINE_BYTES
        self.addrs = (pages[i * stride // PAGE_BYTES] + i * stride % PAGE_BYTES
                      for i in itertools.cycle(order))
        self.left = loads
        self.samples = samples
        self.timed = False
        self.lat_sum = self.t0 = 0

    def step(self, _pkt=None) -> None:
        """Start, or complete the previous load, and issue the next."""
        now = self.injector.engine.now
        if self.timed:
            self.lat_sum += now - self.t0
        if self.left:
            self.left -= 1
            self.timed = self.left < self.samples
            self.t0 = now
            self.injector.issue(MemCmd.READ_REQ, next(self.addrs),
                                on_complete=self.step)


def run_latency_sweep(system: System, params: SimpleNamespace,
                      placement: Tuple[int, ...]) -> WorkloadResult:
    injector = system.host.injectors[0]
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
        chase = _Chase(injector, region, order, stride_lines,
                       warm_left + samples, samples)
        engine.schedule(0, chase.step)
        engine.run()
        mean_ns = (chase.lat_sum / samples) / TICKS_PER_NS
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


class _StreamFeeder:
    """Interleaves line groups across injectors so all streams advance
    together: injector k issues groups k, k + n, ..., one line of each
    (cmd, region) in `ops` per group."""

    def __init__(self, injectors, groups: int, ops, on_complete):
        self.injectors = injectors
        self.groups = groups
        self.ops = ops
        self.on_complete = on_complete

    def feed(self, k: int) -> None:
        injector = self.injectors[k]
        for group in range(k, self.groups, len(self.injectors)):
            for cmd, region in self.ops:
                injector.issue(cmd, region.line_addr(group),
                               on_complete=self.on_complete)


def run_stream(system: System, params: SimpleNamespace,
               placement: Tuple[int, ...]) -> WorkloadResult:
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
    # window produce write-backs at the steady rate.  Only the sets that
    # the kernel's lines map to are filled: from here on the hierarchy
    # handles no other line, so no other LLC set is ever read.
    ops_per_group = len(reads) + len(writes)
    ghost = _PagedRegion(system, llc.capacity, placement)
    pages = -(-params.groups * LINE_BYTES // PAGE_BYTES)
    touched = itertools.chain.from_iterable(
        range(addr // LINE_BYTES, (addr + PAGE_BYTES) // LINE_BYTES)
        for name in reads + writes for addr in arrays[name].page_addrs[:pages])
    llc.install_pages(ghost.page_addrs, llc.capacity // LINE_BYTES,
                      ops_per_group, len(writes), touched)

    total_ops = params.groups * ops_per_group
    window = _Window(engine, params.warm_groups * ops_per_group, total_ops)
    ops = ([(MemCmd.READ_REQ, arrays[name]) for name in reads]
           + [(MemCmd.WRITE_REQ, arrays[name]) for name in writes])
    feeder = _StreamFeeder(system.host.injectors, params.groups, ops,
                           window.complete)
    for inj_index in range(len(system.host.injectors)):
        engine.schedule(0, feeder.feed, inj_index)
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
                   placement: Tuple[int, ...]) -> WorkloadResult:
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


class _OpenLoop(_Window):
    """Uncacheable uniform-random requests over `region`, the k-th from
    injector k round robin; past the warm-up, sums each request's latency
    from its arrival.  `arrivals` holds the requests in flight."""

    def __init__(self, system: System, region: _PagedRegion,
                 read_fraction: float, seed: int, warm_ops: int, ops: int):
        _Window.__init__(self, system.engine, warm_ops, ops)
        self.injectors = system.host.injectors
        self.region = region
        self.read_fraction = read_fraction
        self.rng = random.Random(seed)
        self.lat_sum = 0
        self.arrivals: Dict[int, int] = {}

    def issue(self, k: int) -> None:
        injector = self.injectors[k % len(self.injectors)]
        cmd = (MemCmd.READ_REQ if self.rng.random() < self.read_fraction
               else MemCmd.WRITE_REQ)
        addr = self.region.line_addr(self.rng.randrange(self.region.lines))
        pkt_id = injector.issue(cmd, addr, cacheable=False,
                                on_complete=self.complete)
        self.arrivals[pkt_id] = self.engine.now

    def complete(self, pkt) -> None:
        _Window.complete(self, pkt)
        arrival = self.arrivals.pop(pkt.id)
        if self.done > self.start:
            self.lat_sum += self.engine.now - arrival


def _run_rdwr_point(system: System, params: SimpleNamespace,
                    placement: Tuple[int, ...], read_fraction: float,
                    rate: float, seed: int) -> Tuple[float, float]:
    region = _PagedRegion(system, params.footprint_mb * MB, placement)
    interval = max(1, round(LINE_BYTES * TICKS_PER_NS / rate))
    traffic = _OpenLoop(system, region, read_fraction, seed, params.warm_ops,
                        params.ops)
    for k in range(params.ops):
        system.engine.schedule(k * interval, traffic.issue, k)
    system.engine.run()

    measured = params.ops - params.warm_ops
    bw = traffic.rate(measured * LINE_BYTES)
    lat_ns = traffic.lat_sum / measured / TICKS_PER_NS
    return bw, round(lat_ns, 6)


# -- DLRM-style congestion proxy -----------------------------------------------


class _Queries:
    """One injector's embedding queries: each gathers `lookups_per_query`
    random lines of `region`, and the next starts when the last returns."""

    def __init__(self, system: System, k: int, region: _PagedRegion,
                 params: SimpleNamespace):
        self.injector = system.host.injectors[k]
        self.rng = random.Random(_derive_seed(system.seed, "dlrm", k))
        self.region = region
        self.left = params.queries_per_injector
        self.lookups = params.lookups_per_query
        self.pending = self.t_end = 0

    def next_query(self, _pkt=None) -> None:
        if not self.left:
            self.t_end = self.injector.engine.now
            return
        self.left -= 1
        self.pending = self.lookups
        lines = self.region.lines    # randrange(lines)'s draws, frameless
        k = lines.bit_length()
        for _ in range(self.lookups):
            line = self.rng.getrandbits(k)
            while line >= lines:
                line = self.rng.getrandbits(k)
            self.injector.issue(MemCmd.READ_REQ, self.region.line_addr(line),
                                on_complete=self.gathered)

    def gathered(self, _pkt) -> None:
        self.pending -= 1
        if not self.pending:
            self.next_query()


def run_dlrm_proxy(system: System, params: SimpleNamespace,
                   placement: Tuple[int, ...]) -> WorkloadResult:
    region = _PagedRegion(system, params.footprint_mb * MB, placement)
    queries = [_Queries(system, k, region, params)
               for k in range(len(system.host.injectors))]
    for q in queries:
        system.engine.schedule(0, q.next_query)
    system.engine.run()

    elapsed = max(q.t_end for q in queries)
    injectors = len(queries)
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
    getrandbits = rng.getrandbits
    footprint = params.footprint_mb * MB
    base = system.am_alloc(pid=1, size=footprint)
    total_lines = footprint // LINE_BYTES
    lines_per_page = PAGE_BYTES // LINE_BYTES
    hot_lines = params.hot_window_pages * lines_per_page
    total_bits = total_lines.bit_length()
    window = _Window(engine, params.warm_ops, params.ops)
    on_complete = window.complete   # one bound method for every request
    frontier = 0
    injector = system.host.injectors[0]
    for _ in range(params.ops):
        if rng.random() < params.put_fraction:
            line = frontier % total_lines
            frontier += 1
            injector.issue(MemCmd.WRITE_REQ, base + line * LINE_BYTES,
                           cacheable=False, on_complete=on_complete)
        else:
            # randrange(span) and randrange(total_lines)'s draws, frameless.
            if rng.random() < params.hot_fraction and frontier > 0:
                span = min(frontier, hot_lines)
                r = getrandbits(span.bit_length())
                while r >= span:
                    r = getrandbits(span.bit_length())
                line = (frontier - 1 - r) % total_lines
            else:
                line = getrandbits(total_bits)
                while line >= total_lines:
                    line = getrandbits(total_bits)
            injector.issue(MemCmd.READ_REQ, base + line * LINE_BYTES,
                           cacheable=False, on_complete=on_complete)
    engine.run()

    throughput = window.rate(params.ops - params.warm_ops)
    summary = {"kind": "kv_proxy", "ops": params.ops,
               "throughput_ops_per_sec": throughput}
    return WorkloadResult(["ops", "throughput_ops_per_sec"],
                          [(params.ops, throughput)], summary, system)
