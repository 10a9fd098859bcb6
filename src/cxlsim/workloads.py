"""Characterization traffic generators.

Five workload kinds reproduce the classic memory characterization suite
at desk scale:

* latency_sweep - dependent pointer-chase over a randomized single-cycle
  permutation (a random sample of lines for an array larger than the
  LLC), one outstanding load; one point per array size, its mean
  load-to-use.
* stream - Copy/Scale/Add/Triad streaming kernels after pre-warming, to
  steady write-back state, the LLC sets the kernel's pages map to (no
  other set is ever read), a block of sets at a time, at a cost that
  follows the LLC's pages and the touched blocks, not the kernel's lines.
* rdwr_sweep - open-loop uniform-random 64B traffic; one point per (read
  fraction, injection rate) pair.
* dlrm_proxy - gather-heavy concurrent random reads (embedding-lookup
  style queries) for the bridge congestion study.
* kv_proxy - mixed get/put stream with page locality used to compare the
  SSD-backed device against its DRAM-backed twin; each op is drawn and
  built when the injector's queue reaches it, so a run's memory does not
  grow with `ops`.

`run` drives every kind the same way.  A kind lists its points, and a
point's function sets the point up on a system (places its pages, seeds
its rng, pre-warms, schedules or issues its first requests) and returns
(warm, end, row).  The point's measure window runs from its warm-th
request completion, or from its first tick when warm is 0, to its end-th;
row(ticks) makes the point's result row from the window's length.  The
runner builds the system (a fresh one per rdwr_sweep point, one that the
points of any other kind share), seeds each point from the system's seed,
the kind's tag and the point, runs the engine to quiesce once per point
and reads the window from the host, which stamps the tick of the two
completions as they happen (HostPath.window).

Every point owns a seeded random.Random, so runs are deterministic for a
given (config, seed) pair; the chase cycle, the DLRM lookups, the rdwr
lines and the KV lines take its getrandbits as shuffle and randrange do.
Parameters come as the workload block's checked view
(config.check_config): a namespace of every field of the block's kind,
defaults filled in, with sizes in the config's units.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional

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


def _rate(amount, ticks: int) -> float:
    """`amount` per simulated second over `ticks`; 0.0 for an empty window."""
    return amount * TICKS_PER_S / ticks if ticks else 0.0


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


def sample_lines(n: int, k: int, rng: random.Random) -> List[int]:
    """k distinct line indices below n, in draw order: rng.sample(range(n),
    k) with its draws inlined.  Each index takes getrandbits as
    randrange does (m.bit_length() bits, redrawn while >= m), from a pool
    when an n-list is smaller than a k-set and with a seen-set otherwise,
    by sample's own size rule, so the list and the rng's end state equal
    the stdlib's (a test pins this) with no Python frame per draw."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot sample {k} of {n} lines")
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool, out = list(range(n)), []
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            out.append(pool[j])
            pool[j] = pool[m - 1]
        return out
    bits = n.bit_length()
    seen: Dict[int, None] = {}      # the draws, in order
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in seen:
            j = getrandbits(bits)
        seen[j] = None
    return list(seen)


class _PagedRegion:
    """Maps a contiguous logical byte region onto physical pages placed
    on the NUMA nodes of `placement` (see System.nodes)."""

    def __init__(self, system: System, size: int, placement: Optional[str]):
        pages = (size + PAGE_BYTES - 1) // PAGE_BYTES
        self.page_addrs = system.place_pages(pages, system.nodes(placement))
        self.lines = size // LINE_BYTES

    def line_addr(self, line: int) -> int:
        offset = line * LINE_BYTES
        return self.page_addrs[offset // PAGE_BYTES] + offset % PAGE_BYTES


def run(build: Callable[[], System], params: SimpleNamespace) -> WorkloadResult:
    """Run every point of the workload `params` on systems from `build`
    and summarize their rows (see the module docstring)."""
    kind = _KINDS[params.kind]
    system, rows = None, []
    for point in kind.points(params):
        if system is None or kind.fresh:
            system = build()
        host, engine = system.host, system.engine
        warm, end, row = kind.point(system, params,
                                    _derive_seed(system.seed, kind.tag, *point),
                                    *point)
        host.completed = 0
        host.window = {warm: engine.now, end: engine.now}
        engine.run()
        ticks = host.window[end] - host.window[warm]
        rows.append(row(ticks))
    return WorkloadResult(kind.columns, rows,
                          {"kind": params.kind,
                           **kind.summary(rows, ticks)}, system)


# -- latency sweep -------------------------------------------------------------


class _Chase:
    """`loads` dependent loads along `order`, wrapping at its end, each
    issued when the previous one completes."""

    def __init__(self, injector, region: _PagedRegion, order: List[int],
                 stride_lines: int, loads: int):
        self.injector = injector
        # region.line_addr(i * stride_lines), with no call per load.
        pages, stride = region.page_addrs, stride_lines * LINE_BYTES
        self.addrs = (pages[i * stride // PAGE_BYTES] + i * stride % PAGE_BYTES
                      for i in itertools.cycle(order))
        self.left = loads

    def step(self, _pkt=None) -> None:
        """Start, or complete the previous load, and issue the next."""
        if self.left:
            self.left -= 1
            self.injector.issue(MemCmd.READ_REQ, next(self.addrs),
                                on_complete=self.step)


def _latency_point(system: System, params: SimpleNamespace, seed: int,
                   idx: int):
    size = params.array_kb[idx] * KB
    region = _PagedRegion(system, size, params.placement)
    lines = size // params.stride
    rng = random.Random(seed)
    samples = min(params.samples, lines)

    # A footprint larger than the LLC misses on every chase step with
    # LRU (reuse distance exceeds the capacity), so warm-up only
    # matters for arrays that fit some cache level.  Such an array is
    # walked `samples` steps from cold, so only that many distinct
    # lines are drawn (a partial Fisher-Yates) instead of a full cycle.
    if size <= system.host.hierarchy.levels[-1].capacity:
        warm = lines
        order = build_chase_cycle(lines, rng)
    else:
        warm = 0
        order = sample_lines(lines, samples, rng)
    chase = _Chase(system.host.injectors[0], region, order,
                   params.stride // LINE_BYTES, warm + samples)
    system.engine.schedule(0, chase.step)
    # One load in flight, each issued as the last completes: the window is
    # the samples' summed latency.  The row holds `chase` past the run, so
    # its address generator is not closed inside it.
    return warm, warm + samples, lambda ticks, chase=chase: (
        size, round(ticks / samples / TICKS_PER_NS, 6))


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


def _stream_ops(injector, groups: range, ops):
    """Issue one line of each (cmd, region) in `ops` per group of
    `groups`, one per step."""
    for group in groups:
        for cmd, region in ops:
            yield injector.issue(cmd, region.line_addr(group))


def _stream_point(system: System, params: SimpleNamespace, _seed: int):
    """`params.groups` 64B line groups, the first `warm_groups` of them
    outside the measure window."""
    llc = system.host.hierarchy.levels[-1]
    reads, writes = STREAM_KERNELS[params.kernel]
    arrays = {name: _PagedRegion(system, params.array_mb * MB,
                                 params.placement)
              for name in ("a", "b", "c")}

    # Pre-warm the LLC to the steady state a long-running kernel would
    # reach: full of streamed lines whose dirty fraction matches the
    # kernel's dirty-install fraction, so evictions during the measured
    # window produce write-backs at the steady rate.  Only the sets that
    # the kernel's pages map to are filled: from here on the hierarchy
    # handles no other line, so no other LLC set is ever read.
    ops_per_group = len(reads) + len(writes)
    ghost = _PagedRegion(system, llc.capacity, params.placement)
    pages = -(-params.groups * LINE_BYTES // PAGE_BYTES)
    touched = [addr for name in reads + writes
               for addr in arrays[name].page_addrs[:pages]]
    llc.install_pages(ghost.page_addrs, ops_per_group, len(writes), touched)

    ops = ([(MemCmd.READ_REQ, arrays[name]) for name in reads]
           + [(MemCmd.WRITE_REQ, arrays[name]) for name in writes])
    # Line groups interleave across the n injectors so all streams advance
    # together: injector k issues groups k, k + n, ...
    injectors = system.host.injectors
    for k, injector in enumerate(injectors):
        system.engine.schedule(0, injector.issue_stream, _stream_ops(
            injector, range(k, params.groups, len(injectors)), ops))
    measured = ((params.groups - params.warm_groups)
                * stream_bytes_per_group(params.kernel))
    return (params.warm_groups * ops_per_group, params.groups * ops_per_group,
            lambda ticks: (params.kernel, _rate(measured, ticks)))


def _stream_summary(rows, _ticks) -> dict:
    [(kernel, bw)] = rows
    reads, writes = STREAM_KERNELS[kernel]
    return {"kernel": kernel, "bytes_per_sec": bw,
            "read_byte_fraction": len(reads) / (len(reads) + len(writes))}


# -- Rd/Wr ratio sweep ----------------------------------------------------------


class _OpenLoop:
    """Uncacheable uniform-random requests over `region`, the k-th from
    injector k round robin; sums the latency, from its arrival, of each
    request that completes past the host's `warm`-th completion.
    `arrivals` holds the requests in flight."""

    def __init__(self, system: System, region: _PagedRegion,
                 read_fraction: float, seed: int, warm: int):
        self.engine = system.engine
        self.host = system.host
        self.region = region
        self.read_fraction = read_fraction
        self.rng = random.Random(seed)
        self.warm = warm
        self.lat_sum = 0
        self.arrivals: Dict[int, int] = {}

    def issue(self, k: int) -> None:
        injectors = self.host.injectors
        injector = injectors[k % len(injectors)]
        rng = self.rng
        cmd = (MemCmd.READ_REQ if rng.random() < self.read_fraction
               else MemCmd.WRITE_REQ)
        lines = self.region.lines    # randrange(lines)'s draws, frameless
        bits = lines.bit_length()
        line = rng.getrandbits(bits)
        while line >= lines:
            line = rng.getrandbits(bits)
        pkt_id = injector.issue(cmd, self.region.line_addr(line),
                                cacheable=False,
                                on_complete=self.complete)
        self.arrivals[pkt_id] = self.engine.now

    def complete(self, pkt) -> None:
        arrival = self.arrivals.pop(pkt.id)
        if self.host.completed > self.warm:
            self.lat_sum += self.engine.now - arrival


def _rdwr_point(system: System, params: SimpleNamespace, seed: int,
                r_idx: int, rate: float):
    read_fraction = params.read_fractions[r_idx]
    region = _PagedRegion(system, params.footprint_mb * MB, params.placement)
    interval = max(1, round(LINE_BYTES * TICKS_PER_NS / rate))
    traffic = _OpenLoop(system, region, read_fraction, seed, params.warm_ops)
    for k in range(params.ops):
        system.engine.schedule(k * interval, traffic.issue, k)
    measured = params.ops - params.warm_ops
    return params.warm_ops, params.ops, lambda ticks: (
        read_fraction, rate, _rate(measured * LINE_BYTES, ticks),
        round(traffic.lat_sum / measured / TICKS_PER_NS, 6))


def _rdwr_summary(rows, _ticks) -> dict:
    peaks: Dict[float, float] = {}
    for read_fraction, _r, bw, _lat in rows:
        peaks[read_fraction] = max(peaks.get(read_fraction, 0.0), bw)
    argmax_r = max(peaks, key=lambda r: (peaks[r], r))
    values = list(peaks.values())
    sensitivity = (max(values) - min(values)) / min(values) if min(values) else 0.0
    return {"peaks": [[r, peaks[r]] for r in sorted(peaks)],
            "argmax_read_fraction": argmax_r,
            "peak_bytes_per_sec": peaks[argmax_r],
            "sensitivity": sensitivity}


# -- DLRM-style congestion proxy -----------------------------------------------


class _Queries:
    """One injector's embedding queries: each gathers `lookups_per_query`
    random lines of `region`, and the next starts when the last returns."""

    def __init__(self, injector, seed: int, region: _PagedRegion,
                 params: SimpleNamespace):
        self.injector = injector
        self.rng = random.Random(seed)
        self.region = region
        self.left = params.queries_per_injector
        self.lookups = params.lookups_per_query
        self.pending = 0

    def next_query(self, _pkt=None) -> None:
        if not self.left:
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


def _dlrm_point(system: System, params: SimpleNamespace, seed: int):
    """Every injector's queries from tick 0; the window ends at the last
    lookup's completion."""
    region = _PagedRegion(system, params.footprint_mb * MB, params.placement)
    injectors = system.host.injectors
    for k, injector in enumerate(injectors):
        queries = _Queries(injector, _derive_seed(seed, k), region, params)
        system.engine.schedule(0, queries.next_query)
    total = len(injectors) * params.queries_per_injector
    return 0, total * params.lookups_per_query, lambda ticks: (
        len(injectors), _rate(total, ticks),
        _rate(total, ticks) / len(injectors))


def _dlrm_summary(rows, ticks) -> dict:
    [(injectors, agg_qps, per_inj)] = rows
    return {"injectors": injectors, "aggregateQps": agg_qps,
            "perInjectorQps": per_inj, "duration_ns": ticks / TICKS_PER_NS}


# -- key-value get/put proxy for the SSD study -----------------------------------


def _kv_ops(injector, base: int, params: SimpleNamespace, seed: int):
    """Issue the ops one per step: puts append sequentially (overwriting
    the footprint cyclically), gets favor recently written pages."""
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    total_lines = params.footprint_mb * MB // LINE_BYTES
    hot_lines = params.hot_window_pages * (PAGE_BYTES // LINE_BYTES)
    total_bits = total_lines.bit_length()
    frontier = 0
    for _ in range(params.ops):
        if rng.random() < params.put_fraction:
            line = frontier % total_lines
            frontier += 1
            yield injector.issue(MemCmd.WRITE_REQ, base + line * LINE_BYTES,
                                 cacheable=False)
        else:
            # randrange(span) and randrange(total_lines)'s draws, frameless.
            if rng.random() < params.hot_fraction and frontier > 0:
                span = frontier if frontier < hot_lines else hot_lines
                r = getrandbits(span.bit_length())
                while r >= span:
                    r = getrandbits(span.bit_length())
                line = (frontier - 1 - r) % total_lines
            else:
                line = getrandbits(total_bits)
                while line >= total_lines:
                    line = getrandbits(total_bits)
            yield injector.issue(MemCmd.READ_REQ, base + line * LINE_BYTES,
                                 cacheable=False)


def _kv_point(system: System, params: SimpleNamespace, seed: int):
    """Mixed get/put random workload over an app-managed HDM region; ops
    overlap up to the LSQ depth, each built when the queue reaches it."""
    base = system.am_alloc(pid=1, size=params.footprint_mb * MB)
    injector = system.host.injectors[0]
    injector.issue_stream(_kv_ops(injector, base, params, seed))
    return params.warm_ops, params.ops, lambda ticks: (
        params.ops, _rate(params.ops - params.warm_ops, ticks))


class _Kind(NamedTuple):
    """How `run` drives one workload kind."""
    tag: str                # seeds each point, with the point
    point: Callable         # (system, params, seed, *point)
    columns: List[str]      # of the points' rows
    summary: Callable       # (rows, last window's ticks) -> dict
    points: Callable = lambda params: [()]
    fresh: bool = False     # a new system per point


_KINDS = {
    "latency_sweep": _Kind(
        "lat", _latency_point, ["array_bytes", "mean_load_to_use_ns"],
        lambda rows, ticks: {"curve": [list(row) for row in rows],
                             "plateau_ns": rows[-1][1]},
        points=lambda params: [(i,) for i in range(len(params.array_kb))]),
    "stream": _Kind("stream", _stream_point, ["kernel", "bytes_per_sec"],
                    _stream_summary),
    "rdwr_sweep": _Kind(
        "rdwr", _rdwr_point, ["read_fraction", "rate_bytes_per_ns",
                              "achieved_bytes_per_sec", "mean_latency_ns"],
        _rdwr_summary,
        points=lambda params: [(r, rate)
                               for r in range(len(params.read_fractions))
                               for rate in params.rates_bytes_per_ns],
        fresh=True),
    "dlrm_proxy": _Kind("dlrm", _dlrm_point, ["injectors", "aggregate_qps",
                                              "per_injector_qps"],
                        _dlrm_summary),
    "kv_proxy": _Kind("kv", _kv_point, ["ops", "throughput_ops_per_sec"],
                      lambda rows, ticks: dict(
                          zip(["ops", "throughput_ops_per_sec"], rows[0]))),
}
