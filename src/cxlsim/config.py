"""Configuration schema, presets, validation, and topology assembly.

Configuration is a single JSON document with a versioned schema field.
One table, SCHEMA, declares every field's type, range and default, and
one walker checks a document against it: unknown keys are rejected and
every error names the offending dotted field path, so a bad config fails
before any engine is built.  The walker returns a checked view with the
defaults filled in; build_system converts its values to ticks and bytes
and hands them to the components as plain constructor arguments.

Presets carry the two calibrated CXL device variants (cxl-dmsim-f and
cxl-dmsim-a), the local-DDR baseline, and the SSD-backed device.  The
device blocks reproduce the modeled expander parameter sets verbatim:
bridge_lat 50 ns, host_proto_proc_lat 14 ns, device_proto_proc_lat 60/15
ns (F/A), medium_access_lat 50 ns, FIFO depths 48/48 and 52/52.

host_path_lat is the one calibrated host constant: the local dependent
load plateau equals host_path_lat plus the local medium's idle service
(read_service + access latency).  With the default local medium
(13 + 50 ns) the 67 ns value pins that plateau at exactly 130 ns.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List

from .engine import TICKS_PER_NS, Engine, ns_to_ticks
from .stats import StatsRegistry
from .host import (LINE_BYTES, AddressFault, AddressMap, Cache, HostPath,
                   LocalMemory, MemBus, Target)
from .bridge import CxlBridge
from .device import MemExpander, enumerate_expander
from .media import CoarseDram, QueuedDdr
from .ssd import (BestOffsetPrefetcher, SsdCachedMedium, SsdDirectMedium,
                  SsdMedium)
from .hdm import PAGE_BYTES, HdmAllocationError, HdmAllocator, PlacementError
from .system import System
from . import workloads as wl
from .workloads import KB, MB

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


# -- schema ----------------------------------------------------------------------
#
# SCHEMA is the one definition of every config field.  An entry is one of:
#   (type, check, message, default)  a field of `type` (a bool only if type
#       is bool) that passes `check` (None: any) or fails with `message`;
#       left out, it reads `default`, and REQUIRED makes it required;
#   {name: entry}        a block, required;
#   [entry]              a list of `entry`;
#   Tagged(tag, kinds)   a block whose string field `tag` picks its other
#                        fields, kinds[tag];
#   Opt(entry, default)  a block or list that may be left out; left out, it
#                        reads as `default` checked against `entry`, or None.

REQUIRED = object()


@dataclass(frozen=True)
class Tagged:
    tag: str
    kinds: Dict[str, dict]


@dataclass(frozen=True)
class Opt:
    entry: object
    default: object = None


_POS = lambda v: v > 0
_NONNEG = lambda v: v >= 0
_POW2 = lambda v: v > 0 and v & (v - 1) == 0
_IN_UNIT = lambda v: 0 <= v <= 1
NUM = (int, float)


def _list_of(kinds, pred):
    """Check for a non-empty list whose every item is of `kinds` (never a
    bool) and passes `pred`."""
    return lambda v: bool(v) and all(
        isinstance(x, kinds) and not isinstance(x, bool) and pred(x) for x in v)


_count = lambda default=REQUIRED: (int, _POS, "must be > 0", default)
_warm = lambda default: (int, _NONNEG, "must be >= 0", default)
_fraction = lambda default: (NUM, _IN_UNIT, "must lie in [0, 1]", default)
# At most one second, so a latency's square in ticks (the stdev) stays finite.
_MAX_NS = 1e9
_NS = (NUM, lambda v: 0 <= v <= _MAX_NS, "must lie in [0, 1e9]", REQUIRED)
_US = (NUM, lambda v: 0 < v <= _MAX_NS / 1000, "must lie in (0, 1e6]",
       REQUIRED)
# One free tick per coarse DRAM server and flash channel and one dict per
# cache set are built with the system: 64x the most any preset or fixture
# uses (width 32, 8 channels, 8192 sets) keeps a typo from taking gigabytes.
_servers = lambda default=REQUIRED: (int, lambda v: 0 < v <= 4096,
                                     "must lie in [1, 4096]", default)
_MAX_SETS = 1 << 19
# At least 1 MB/s: the largest message then crosses in under 5 ms.
_RATE = (NUM, lambda v: v >= 1e-3, "must be >= 1e-3 (1 MB/s)", REQUIRED)
# latency_sweep and kv_proxy drive only the first injector.
_ONE_INJECTOR = (int, lambda v: v == 1, "must be 1: the workload drives one "
                 "injector", 1)
# The NUMA nodes a workload's pages go to, resolved by System.nodes: node
# i is the i-th carved range, local memory first.  Default None: hdm when
# the config has a device, else local.
_PLACEMENT = (str, lambda v: v in ("local", "hdm", "interleave"),
              "must be local, hdm, or interleave", None)

# Each workload kind's fields are the parameters that workloads.run hands
# its point function.
_WORKLOADS: Dict[str, dict] = {
    "latency_sweep": {
        "array_kb": (list, _list_of(int, _POS),
                     "must be a non-empty list of ints > 0",
                     [16, 32, 96, 192, 768, 3072, 49152, 65536]),
        "stride": (int, lambda v: v > 0 and v % LINE_BYTES == 0,
                   f"must be a positive multiple of {LINE_BYTES}", 64),
        "samples": _count(3000),
        "injectors": _ONE_INJECTOR,
        "lsq_depth": _count(1),
        "placement": _PLACEMENT,
    },
    "stream": {
        "kernel": (str, lambda v: v in wl.STREAM_KERNELS,
                   f"must be one of {sorted(wl.STREAM_KERNELS)}", "copy"),
        "array_mb": _count(64),
        "groups": _count(8000),
        "warm_groups": _warm(800),
        "injectors": _count(2),
        "lsq_depth": _count(6),
        "placement": _PLACEMENT,
    },
    "rdwr_sweep": {
        "read_fractions": (list, _list_of(NUM, _IN_UNIT),
                           "must be a non-empty list of numbers in [0, 1]",
                           [round(0.5 + 0.025 * i, 3) for i in range(21)]),
        "rates_bytes_per_ns": (
            list, _list_of(NUM, lambda v: v > 0 and math.isfinite(
                LINE_BYTES * TICKS_PER_NS / v)),
            "must be a non-empty list of numbers > 0 that give a finite "
            "tick count between lines", [64.0]),
        "footprint_mb": _count(64),
        "ops": _count(6000),
        "warm_ops": _warm(500),
        "injectors": _count(4),
        "lsq_depth": _count(32),
        "placement": _PLACEMENT,
    },
    "dlrm_proxy": {
        "queries_per_injector": _count(128),
        "lookups_per_query": _count(16),
        "footprint_mb": _count(64),
        "injectors": _count(12),
        "lsq_depth": _count(8),
        "placement": _PLACEMENT,
    },
    # No placement: kv_proxy allocates app-managed HDM on the first device.
    "kv_proxy": {
        "ops": _count(40000),
        "put_fraction": _fraction(0.5),
        "hot_fraction": _fraction(0.94),
        "hot_window_pages": _count(48),
        "footprint_mb": _count(8),
        "warm_ops": _warm(2000),
        "injectors": _ONE_INJECTOR,
        "lsq_depth": _count(8),
    },
}

# A queued-DDR medium's timing; the block that holds it gives the access
# latency.
_DDR = {
    "read_service_ns": _NS,
    "write_service_ns": _NS,
    "turnaround_penalty_ns": _NS,
    # Checked but without effect: QueuedDdr is an unbounded FIFO.  It
    # stays in the schema because every preset's config_digest hashes it.
    "queue_capacity": _count(),
}

_CACHE_LEVEL = {
    "capacity_kb": _count(),
    "assoc": _count(),
    # In ticks, as the cache uses it.
    "hit_latency_ns": (NUM, lambda v: v <= _MAX_NS and ns_to_ticks(v) > 0,
                       "must round to at least one 1 ps tick and be at "
                       "most 1e9", REQUIRED),
}

# Fields every device has; each medium adds only its own block.
_DEVICE = {
    "hdm_size_mb": (int, _POW2, "must be a power of two", REQUIRED),
    "device_proto_proc_lat_ns": _NS,
    # The DRAM access latency, or the SSD device cache's hit latency.
    "medium_access_lat_ns": _NS,
}

SCHEMA = {
    "schema_version": (int, lambda v: v == SCHEMA_VERSION,
                       f"unsupported version, must be {SCHEMA_VERSION}",
                       REQUIRED),
    "label": (str, None, "", "run"),
    "seed": _warm(REQUIRED),
    "host": {
        "core_freq_ghz": (NUM, lambda v: 0 < v <= TICKS_PER_NS,
                          f"must lie in (0, {TICKS_PER_NS}]: a core cycle of "
                          "at least one 1 ps tick", REQUIRED),
        "host_path_lat_ns": _NS,
        "local_dram_mb": _count(),
        "injectors": {"count": _count(), "lsq_depth": _count(),
                      "think_time_ns": _NS},
        "caches": {"l1": _CACHE_LEVEL, "l2": _CACHE_LEVEL, "l3": _CACHE_LEVEL},
        "local_medium": Tagged("kind", {
            "queued_ddr": {**_DDR, "access_lat_ns": _NS},
            "coarse_dram": {"access_lat_ns": _NS, "width": _servers()},
        }),
    },
    # Required when devices is not empty, refused when it is empty.
    "bridge": Opt({
        "bridge_lat_ns": _NS,
        "host_proto_proc_lat_ns": _NS,
        "req_fifo_depth": _count(),
        "resp_fifo_depth": _count(),
        "link_bytes_per_ns_tx": _RATE,
        "link_bytes_per_ns_rx": _RATE,
        # At most a page, which keeps the largest message bounded too.
        "msg_header_bytes": (int, lambda v: 0 < v <= 4096,
                             "must lie in [1, 4096]", REQUIRED),
    }),
    "devices": Opt([Tagged("medium", {
        "queued_ddr": {**_DEVICE, "ddr": _DDR},
        "coarse_dram": {**_DEVICE, "coarse": Opt({"width": _servers(16)}, {})},
        "ssd": {
            **_DEVICE,
            "ssd": {"page_bytes": (int, lambda v: v >= 64 and _POW2(v),
                                   "must be a power of two >= 64", REQUIRED),
                    "read_latency_us": _US, "write_latency_us": _US,
                    "channels": _servers()},
            # capacity_kb and policy are required when the cache is enabled.
            "cache": Opt({"enabled": (bool, None, "", True),
                          "capacity_kb": _count(None),
                          "policy": (str, lambda v: v in ("lru", "fifo"),
                                     "must be lru or fifo", None),
                          "prefetch": (bool, None, "", True)}),
        },
    })], []),
    "workload": Tagged("kind", _WORKLOADS),
}


def _check_value(value, path: str, kind, check=None, what: str = ""):
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        kinds = kind if isinstance(kind, tuple) else (kind,)
        names = "/".join(k.__name__ for k in kinds)
        raise ConfigError(f"{path}: expected {names}, got {type(value).__name__}")
    # json.load accepts Infinity and NaN, and ints that no float can hold.
    for x in value if isinstance(value, list) else (value,):
        if isinstance(x, NUM) and not abs(x) <= sys.float_info.max:
            raise ConfigError(f"{path}: must be finite (got {value!r})")
    if check is not None and not check(value):
        raise ConfigError(f"{path}: {what} (got {value!r})")
    return value


def _member(block: dict, name: str, entry, path: str):
    """The checked view of `block`'s field `name`, or the entry's default
    when the block leaves it out."""
    path = f"{path}.{name}"
    if name in block:
        return _walk(entry.entry if isinstance(entry, Opt) else entry,
                     block[name], path)
    if isinstance(entry, Opt):
        return None if entry.default is None else _walk(entry.entry,
                                                        entry.default, path)
    if isinstance(entry, tuple) and entry[3] is not REQUIRED:
        return entry[3]
    raise ConfigError(f"{path}: required field missing")


def _walk(entry, value, path: str):
    """Check `value` against the schema `entry` and return its checked
    view: a field's value, a list of views, or a namespace per block that
    holds every field of the block.  Unknown keys are rejected."""
    if isinstance(entry, tuple):
        return _check_value(value, path, *entry[:3])
    if isinstance(entry, list):
        _check_value(value, path, list)
        return [_walk(entry[0], item, f"{path}[{i}]")
                for i, item in enumerate(value)]
    _check_value(value, path, dict)
    fields = entry
    if isinstance(entry, Tagged):
        tag = (str, entry.kinds.__contains__,
               f"must be one of {sorted(entry.kinds)}", REQUIRED)
        fields = {entry.tag: tag,
                  **entry.kinds[_member(value, entry.tag, tag, path)]}
    for key in value:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field")
    return SimpleNamespace(**{name: _member(value, name, sub, path)
                              for name, sub in fields.items()})


def _check_rules(c: SimpleNamespace) -> None:
    """The rules that span fields, on a checked view."""
    def fail(field: str, what: str):
        raise ConfigError(f"config.{field}: {what}")

    host, p = c.host, c.workload
    ddrs = [(f"devices[{i}].ddr", dev.ddr) for i, dev in enumerate(c.devices)
            if dev.medium == "queued_ddr"]
    if host.local_medium.kind == "queued_ddr":
        ddrs.insert(0, ("host.local_medium", host.local_medium))
    for field, ddr in ddrs:
        if ddr.write_service_ns < ddr.read_service_ns:
            fail(f"{field}.write_service_ns", "must be >= read_service_ns")

    lookup = 0
    for name, lvl in vars(host.caches).items():
        sets, rest = divmod(lvl.capacity_kb * KB, lvl.assoc * LINE_BYTES)
        if rest or sets > _MAX_SETS:
            fail(f"host.caches.{name}.capacity_kb", f"must divide into at "
                 f"most {_MAX_SETS} sets of assoc x {LINE_BYTES} B lines")
        lookup += ns_to_ticks(lvl.hit_latency_ns)
    # In ticks, as CacheHierarchy splits host_path_lat into lookups and bus.
    if ns_to_ticks(host.host_path_lat_ns) < lookup:
        fail("host.host_path_lat_ns", "must cover the summed cache hit "
             f"latencies ({lookup / TICKS_PER_NS:g} ns)")

    # The host physical map carved as build_system carves it: local memory
    # at 0, then each HDM window, so the two share carve's 2**64 bound.
    space = AddressMap()
    for field, mb in [("host.local_dram_mb", host.local_dram_mb)] + [
            (f"devices[{i}].hdm_size_mb", dev.hdm_size_mb)
            for i, dev in enumerate(c.devices)]:
        try:
            space.carve(mb * MB, Target.BRIDGE)
        except AddressFault:
            fail(field, "must fit below 2**64 B of physical address space")

    b = c.bridge
    if c.devices and b is None:
        fail("bridge", "required field missing")
    ssds = [i for i, dev in enumerate(c.devices) if dev.medium == "ssd"]
    if len(ssds) > 1:
        # The SSD and device-cache stats have one fixed name each.
        fail(f"devices[{ssds[1]}].medium",
             f"only one ssd device is supported (devices[{ssds[0]}] is one)")
    for i, dev in enumerate(c.devices):
        cache = dev.cache if dev.medium == "ssd" else None
        if cache is None:
            continue
        # A disabled cache needs neither, but the walker checked any it has.
        for name in ("capacity_kb", "policy"):
            if cache.enabled and getattr(cache, name) is None:
                fail(f"devices[{i}].cache.{name}", "required field missing")
        if cache.capacity_kb is not None and (
                cache.capacity_kb * KB % dev.ssd.page_bytes):
            fail(f"devices[{i}].cache.capacity_kb",
                 "must be a whole number of ssd.page_bytes pages")

    if p.kind == "latency_sweep":
        if p.array_kb != sorted(p.array_kb):
            fail("workload.array_kb", "sizes must be ascending")
        if p.array_kb[0] * KB < p.stride:
            fail("workload.array_kb",
                 f"the smallest size must hold one stride ({p.stride} B)")
    elif p.kind == "stream":
        if p.array_mb * MB < 8 * host.caches.l3.capacity_kb * KB:
            fail("workload.array_mb", "must be at least 8x the LLC size")
        if p.groups > p.array_mb * MB // LINE_BYTES:
            fail("workload.groups", "must not exceed the lines in one array")
        if p.warm_groups >= p.groups:
            fail("workload.warm_groups", "must be below groups")
    if p.kind in ("rdwr_sweep", "kv_proxy") and p.warm_ops >= p.ops:
        fail("workload.warm_ops", "must be below ops")
    if not c.devices:
        if p.kind == "kv_proxy":
            fail("workload.kind",
                 "kv_proxy needs a CXL device (config.devices is empty)")
        if p.placement in ("hdm", "interleave"):
            fail("workload.placement", f"{p.placement} needs a CXL device "
                 "(config.devices is empty)")
        if b is not None:
            fail("bridge", "must be left out when config.devices is empty "
                 "(no device sits behind a bridge)")


def check_config(cfg) -> SimpleNamespace:
    """The checked view of `cfg`, with every field the schema declares;
    raises ConfigError on any problem."""
    view = _walk(SCHEMA, cfg, "config")
    _check_rules(view)
    return view


def read_json(path: str):
    """The JSON document in the file `path`; a syntax error is a
    ConfigError naming its line and column, and text that is not UTF-8 or
    an object that repeats a key a ConfigError naming the file."""
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: key {key!r} appears twice in "
                                  "one object")
            obj[key] = value
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def merge_config(base: dict, override: dict, schema=SCHEMA) -> dict:
    """Deep merge: override wins; nested dicts merge, lists replace.

    A Tagged block of `schema` whose overlay names another kind replaces
    the whole base block, since per-kind fields are not interchangeable.
    """
    if not isinstance(override, dict):
        raise ConfigError("config: top level must be an object")
    out = copy.deepcopy(base)
    for key, value in override.items():
        entry = schema.get(key) if isinstance(schema, dict) else None
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            if isinstance(entry, Tagged):
                kind = out[key].get(entry.tag)
                if value.get(entry.tag, kind) != kind:
                    out[key] = copy.deepcopy(value)
                    continue
                entry = entry.kinds.get(kind)
            out[key] = merge_config(out[key], value, entry)
        else:
            out[key] = copy.deepcopy(value)
    return out


# -- presets ---------------------------------------------------------------------


def _default_host() -> dict:
    return {
        "core_freq_ghz": 2.5,
        "host_path_lat_ns": 67.0,
        "local_dram_mb": 4096,
        "injectors": {"count": 1, "lsq_depth": 8, "think_time_ns": 0.0},
        "caches": {
            "l1": {"capacity_kb": 32, "assoc": 8, "hit_latency_ns": 1.0},
            "l2": {"capacity_kb": 256, "assoc": 8, "hit_latency_ns": 4.0},
            "l3": {"capacity_kb": 8192, "assoc": 16, "hit_latency_ns": 10.0},
        },
        "local_medium": {"kind": "queued_ddr", **_ddr_block(),
                         "access_lat_ns": 50.0},
    }


def _bridge_block(req_depth: int, resp_depth: int) -> dict:
    return {"bridge_lat_ns": 50.0, "host_proto_proc_lat_ns": 14.0,
            "req_fifo_depth": req_depth, "resp_fifo_depth": resp_depth,
            "link_bytes_per_ns_tx": 4.6, "link_bytes_per_ns_rx": 4.6,
            "msg_header_bytes": 16}


def _ddr_block() -> dict:
    return {"read_service_ns": 13.0, "write_service_ns": 13.0,
            "turnaround_penalty_ns": 2.0, "queue_capacity": 64}


def _default_workload(kind: str, **fields) -> dict:
    """A `kind` workload block spelling out every table default, then
    `fields`."""
    defaults = {name: copy.deepcopy(spec[3])
                for name, spec in _WORKLOADS[kind].items()
                if spec[3] is not None}
    return {"kind": kind, **defaults, **fields}


def _preset_local() -> dict:
    return {"schema_version": SCHEMA_VERSION, "label": "local-ddr", "seed": 7,
            "host": _default_host(), "devices": [],
            "workload": _default_workload("latency_sweep",
                                          placement="local")}


def _preset_dram_device(label: str, fifo_depth: int, hdm_size_mb: int,
                        device_proto_proc_lat_ns: float) -> dict:
    return {"schema_version": SCHEMA_VERSION, "label": label, "seed": 7,
            "host": _default_host(),
            "bridge": _bridge_block(fifo_depth, fifo_depth),
            "devices": [{"hdm_size_mb": hdm_size_mb,
                         "device_proto_proc_lat_ns": device_proto_proc_lat_ns,
                         "medium_access_lat_ns": 50.0,
                         "medium": "queued_ddr", "ddr": _ddr_block()}],
            "workload": _default_workload("latency_sweep", placement="hdm")}


def _preset_ssd() -> dict:
    return {"schema_version": SCHEMA_VERSION, "label": "cxl-ssd", "seed": 7,
            "host": _default_host(), "bridge": _bridge_block(52, 52),
            "devices": [{"hdm_size_mb": 1024,
                         "device_proto_proc_lat_ns": 15.0,
                         "medium_access_lat_ns": 50.0,
                         "medium": "ssd",
                         "ssd": {"page_bytes": 4096, "read_latency_us": 25.0,
                                 "write_latency_us": 300.0, "channels": 8},
                         "cache": {"enabled": True, "capacity_kb": 1024,
                                   "policy": "lru", "prefetch": True}}],
            "workload": _default_workload("kv_proxy")}


PRESETS: Dict[str, Callable[[], dict]] = {
    "local-ddr": _preset_local,
    "cxl-dmsim-f": lambda: _preset_dram_device("cxl-dmsim-f", 48, 16384, 60.0),
    "cxl-dmsim-a": lambda: _preset_dram_device("cxl-dmsim-a", 52, 65536, 15.0),
    "cxl-ssd": _preset_ssd,
}


def preset(name: str) -> dict:
    """A fresh copy of the preset `name`; like any config, it is checked
    where it is run."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from "
                          f"{sorted(PRESETS)}")
    return PRESETS[name]()


# -- topology assembly -----------------------------------------------------------


def _build_dram(engine: Engine, kind: str, block: SimpleNamespace,
                access_lat_ns: float, stats, prefix: str):
    """A DRAM medium of `kind`, timed by the checked `block`."""
    if kind == "coarse_dram":
        return CoarseDram(engine, ns_to_ticks(access_lat_ns), block.width)
    return QueuedDdr(engine, ns_to_ticks(block.read_service_ns),
                     ns_to_ticks(block.write_service_ns),
                     ns_to_ticks(block.turnaround_penalty_ns),
                     ns_to_ticks(access_lat_ns), stats, prefix)


def _build_device_medium(engine: Engine, dev: SimpleNamespace, stats,
                         prefix: str):
    if dev.medium != "ssd":
        block = dev.ddr if dev.medium == "queued_ddr" else dev.coarse
        return _build_dram(engine, dev.medium, block, dev.medium_access_lat_ns,
                           stats, f"{prefix}.dram")
    # SSD backend, optionally fronted by the device cache.
    ssd = SsdMedium(engine, dev.ssd.page_bytes,
                    ns_to_ticks(dev.ssd.read_latency_us * 1000.0),
                    ns_to_ticks(dev.ssd.write_latency_us * 1000.0),
                    dev.ssd.channels, stats)
    cache = dev.cache
    if cache is None or not cache.enabled:
        return SsdDirectMedium(ssd)
    prefetcher = BestOffsetPrefetcher() if cache.prefetch else None
    return SsdCachedMedium(engine, ssd, cache.capacity_kb * KB, cache.policy,
                           ns_to_ticks(dev.medium_access_lat_ns), stats,
                           prefetcher)


def build_system(c: SimpleNamespace) -> System:
    """Construct a fresh simulated topology from a checked config view."""
    engine = Engine()
    stats = StatsRegistry()
    hostc = c.host

    addr_map = AddressMap()
    addr_map.carve(hostc.local_dram_mb * MB, Target.LOCAL_DRAM)
    membus = MemBus(engine, addr_map, stats)

    lm = hostc.local_medium
    local_medium = _build_dram(engine, lm.kind, lm, lm.access_lat_ns, stats,
                               "dram")
    membus.attach(Target.LOCAL_DRAM, LocalMemory(engine, local_medium))

    caches = [Cache(name, lvl.capacity_kb * KB, lvl.assoc,
                    ns_to_ticks(lvl.hit_latency_ns), stats)
              for name, lvl in vars(hostc.caches).items()]

    host = HostPath(engine, caches, membus, c.workload.injectors,
                    c.workload.lsq_depth,
                    ns_to_ticks(hostc.injectors.think_time_ns),
                    ns_to_ticks(hostc.host_path_lat_ns), stats,
                    1000.0 / hostc.core_freq_ghz)

    bridge = None
    devices: List[MemExpander] = []
    if c.devices:
        bc = c.bridge
        traversal_lat = (ns_to_ticks(bc.bridge_lat_ns)
                         + ns_to_ticks(bc.host_proto_proc_lat_ns))
        bridge = CxlBridge(engine, traversal_lat, bc.req_fifo_depth,
                           bc.resp_fifo_depth, bc.link_bytes_per_ns_tx,
                           bc.link_bytes_per_ns_rx, bc.msg_header_bytes,
                           stats)
        membus.attach(Target.BRIDGE, bridge)
        for i, dev in enumerate(c.devices):
            prefix = "cxl" if i == 0 else f"cxl{i}"
            medium = _build_device_medium(engine, dev, stats, prefix)
            expander = MemExpander(
                engine, dev.hdm_size_mb * MB,
                ns_to_ticks(dev.device_proto_proc_lat_ns), medium, stats,
                prefix)
            enumerate_expander(addr_map, expander)
            bridge.attach_device(expander)
            devices.append(expander)

    # At drain, every packet the bus routed to the bridge was sent on.
    stats.add("membus.toBridge", lambda: bridge.m2s_sent if bridge else 0)
    return System(engine=engine, stats=stats, membus=membus, host=host,
                  bridge=bridge, devices=devices,
                  free_pages=[range(rng.base, rng.limit, PAGE_BYTES)
                              for rng in addr_map.ranges],
                  hdm_allocator=(HdmAllocator(c.devices[0].hdm_size_mb * MB)
                                 if c.devices else None), seed=c.seed)


# -- workload dispatch ------------------------------------------------------------


def run_workload(c: SimpleNamespace) -> wl.WorkloadResult:
    """Build the topology from the checked config view `c` and run the
    configured workload to quiesce.

    A footprint that does not fit the memory it is placed in is a
    ConfigError, raised when the workload places it.
    """
    try:
        return wl.run(lambda: build_system(c), c.workload)
    except (PlacementError, HdmAllocationError) as exc:
        raise ConfigError(f"config.workload: footprint does not fit ({exc})") from None
