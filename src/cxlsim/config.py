"""Configuration schema, presets, validation, and topology assembly.

Configuration is a single JSON document with a versioned schema field.
Unknown keys are rejected and every semantic error names the offending
dotted field path, so a bad config fails before any engine is built.
validate_config is the only validator: build_system converts the checked
values to ticks and bytes and hands them to the components as plain
constructor arguments, which the components take as given.

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
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

from .engine import TICKS_PER_NS, Engine, ns_to_ticks
from .stats import StatsRegistry
from .host import (LINE_BYTES, AddressMap, Cache, HostPath, LocalMemory,
                   MemBus, Target)
from .bridge import CxlBridge
from .device import MemExpander, enumerate_expander
from .media import CoarseDram, QueuedDdr
from .ssd import (BestOffsetPrefetcher, SsdCachedMedium, SsdDirectMedium,
                  SsdMedium)
from .hdm import (HdmAllocationError, HdmAllocator, NumaNode,
                  PlacementError, Policy)
from .system import System
from . import workloads as wl
from .workloads import KB, MB

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _require(obj: dict, key: str, path: str, kind, pred=None, what: str = ""):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: required field missing")
    value = obj[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
        names = "/".join(k.__name__ for k in kinds)
        raise ConfigError(f"{path}.{key}: expected {names}, got {type(value).__name__}")
    # json.load accepts Infinity and NaN.
    if any(isinstance(x, float) and not math.isfinite(x)
           for x in (value if isinstance(value, list) else (value,))):
        raise ConfigError(f"{path}.{key}: must be finite (got {value!r})")
    if pred is not None and not pred(value):
        raise ConfigError(f"{path}.{key}: {what or 'invalid value'} (got {value!r})")
    return value


def _no_unknown(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


_POS = lambda v: v > 0
_NONNEG = lambda v: v >= 0
_POW2 = lambda v: v > 0 and v & (v - 1) == 0
NUM = (int, float)


_MEDIUM_FIELDS = {
    "queued_ddr": {"read_service_ns", "write_service_ns",
                   "turnaround_penalty_ns", "access_lat_ns", "queue_capacity"},
    "coarse_dram": {"access_lat_ns", "width"},
}


def _check_medium(med: dict, path: str) -> None:
    kind = _require(med, "kind", path, str,
                    lambda v: v in _MEDIUM_FIELDS, "unknown medium kind")
    _no_unknown(med, {"kind"} | _MEDIUM_FIELDS[kind], path)
    if kind == "queued_ddr":
        _require(med, "read_service_ns", path, NUM, _NONNEG, "must be >= 0")
        _require(med, "write_service_ns", path, NUM, _NONNEG, "must be >= 0")
        if med["write_service_ns"] < med["read_service_ns"]:
            raise ConfigError(f"{path}.write_service_ns: must be >= read_service_ns")
        _require(med, "turnaround_penalty_ns", path, NUM, _NONNEG, "must be >= 0")
        _require(med, "access_lat_ns", path, NUM, _NONNEG, "must be >= 0")
        # Checked but without effect: QueuedDdr is an unbounded FIFO.  It
        # stays in the schema because every preset's config_digest hashes it.
        _require(med, "queue_capacity", path, int, _POS, "must be > 0")
    else:
        _require(med, "access_lat_ns", path, NUM, _NONNEG, "must be >= 0")
        _require(med, "width", path, int, _POS, "must be > 0")


def _device_medium_spec(dev: dict) -> dict:
    """The medium spec of a DRAM-backed device: its ddr or coarse block,
    with the device's medium_access_lat_ns as the access latency unless
    the ddr block sets its own."""
    if dev["medium"] == "queued_ddr":
        block = dev["ddr"]
    else:
        block = {"width": 16, **dev.get("coarse", {})}
    return {"access_lat_ns": dev["medium_access_lat_ns"], **block,
            "kind": dev["medium"]}


def _device_cache(dev: dict) -> Optional[dict]:
    """The SSD device's cache block when the cache is on; a block without
    `enabled` turns it on."""
    cache = dev.get("cache")
    return cache if cache is not None and cache.get("enabled", True) else None


def _list_of(kinds, pred):
    """Check for a non-empty list whose every item is of `kinds` (never a
    bool) and passes `pred`."""
    return lambda v: bool(v) and all(
        isinstance(x, kinds) and not isinstance(x, bool) and pred(x) for x in v)


_IN_UNIT = lambda v: 0 <= v <= 1
_count = lambda default: (int, _POS, "must be > 0", default)
_warm = lambda default: (int, _NONNEG, "must be >= 0", default)
_fraction = lambda default: (NUM, _IN_UNIT, "must lie in [0, 1]", default)
# latency_sweep and kv_proxy drive only the first injector.
_ONE_INJECTOR = (int, lambda v: v == 1, "must be 1: the workload drives one "
                 "injector", 1)
# Default None: hdm when the config has a device, else local.
_PLACEMENT = (str, lambda v: v in ("local", "hdm", "interleave"),
              "must be local, hdm, or interleave", None)

# kind -> field -> (type, check, message, default).  The one definition of
# every workload field: validation, defaults and the parameters each
# workloads.run_* function receives all come from here.
WORKLOAD_FIELDS: Dict[str, Dict[str, tuple]] = {
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
        "rates_bytes_per_ns": (list, _list_of(NUM, _POS),
                               "must be a non-empty list of numbers > 0", [64.0]),
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


def _workload_params(wld: dict) -> SimpleNamespace:
    """Every field of the workload block's kind: its checked value, or the
    table default when the block leaves it out.  The block itself is not
    filled in, because config_digest hashes it as given."""
    path = "config.workload"
    kind = _require(wld, "kind", path, str, lambda v: v in WORKLOAD_FIELDS,
                    f"must be one of {sorted(WORKLOAD_FIELDS)}")
    fields = WORKLOAD_FIELDS[kind]
    _no_unknown(wld, {"kind", *fields}, path)
    return SimpleNamespace(kind=kind, **{
        name: _require(wld, name, path, *spec[:3]) if name in wld else spec[3]
        for name, spec in fields.items()})


def _check_workload(cfg: dict) -> None:
    """The workload block's fields, then the rules that span fields."""
    p = _workload_params(_require(cfg, "workload", "config", dict))

    def fail(name: str, what: str):
        raise ConfigError(f"config.workload.{name}: {what}")

    if p.kind == "latency_sweep":
        if p.array_kb != sorted(p.array_kb):
            fail("array_kb", "sizes must be ascending")
        if p.array_kb[0] * KB < p.stride:
            fail("array_kb", f"the smallest size must hold one stride ({p.stride} B)")
    elif p.kind == "stream":
        llc = cfg["host"]["caches"]["l3"]["capacity_kb"] * KB
        if p.array_mb * MB < 8 * llc:
            fail("array_mb", "must be at least 8x the LLC size")
        if p.groups > p.array_mb * MB // LINE_BYTES:
            fail("groups", "must not exceed the lines in one array")
        if p.warm_groups >= p.groups:
            fail("warm_groups", "must be below groups")
    if p.kind in ("rdwr_sweep", "kv_proxy") and p.warm_ops >= p.ops:
        fail("warm_ops", "must be below ops")
    if not cfg.get("devices"):
        if p.kind == "kv_proxy":
            fail("kind", "kv_proxy needs a CXL device (config.devices is empty)")
        if getattr(p, "placement", None) in ("hdm", "interleave"):
            fail("placement", f"{p.placement} needs a CXL device "
                 "(config.devices is empty)")


def validate_config(cfg: dict) -> dict:
    """Validate and return the config; raises ConfigError on any problem."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be an object")
    _no_unknown(cfg, {"schema_version", "label", "seed", "host", "bridge",
                      "devices", "workload"}, "config")
    version = _require(cfg, "schema_version", "config", int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"config.schema_version: unsupported version {version}")
    _require(cfg, "seed", "config", int, _NONNEG, "must be >= 0")
    if "label" in cfg:
        _require(cfg, "label", "config", str)

    hostc = _require(cfg, "host", "config", dict)
    _no_unknown(hostc, {"core_freq_ghz", "host_path_lat_ns", "local_dram_mb",
                        "injectors", "caches", "local_medium"}, "config.host")
    _require(hostc, "core_freq_ghz", "config.host", NUM, _POS, "must be > 0")
    _require(hostc, "host_path_lat_ns", "config.host", NUM, _NONNEG, "must be >= 0")
    _require(hostc, "local_dram_mb", "config.host", int, _POS, "must be > 0")
    inj = _require(hostc, "injectors", "config.host", dict)
    _no_unknown(inj, {"count", "lsq_depth", "think_time_ns"}, "config.host.injectors")
    _require(inj, "count", "config.host.injectors", int, _POS, "must be > 0")
    _require(inj, "lsq_depth", "config.host.injectors", int, _POS, "must be > 0")
    _require(inj, "think_time_ns", "config.host.injectors", NUM, _NONNEG, "must be >= 0")
    caches = _require(hostc, "caches", "config.host", dict)
    _no_unknown(caches, {"l1", "l2", "l3"}, "config.host.caches")
    for name in ("l1", "l2", "l3"):
        lvl = _require(caches, name, "config.host.caches", dict)
        p = f"config.host.caches.{name}"
        _no_unknown(lvl, {"capacity_kb", "assoc", "hit_latency_ns"}, p)
        _require(lvl, "capacity_kb", p, int, _POS, "must be > 0")
        _require(lvl, "assoc", p, int, _POS, "must be > 0")
        # In ticks, as the cache uses it.
        _require(lvl, "hit_latency_ns", p, NUM, lambda v: ns_to_ticks(v) > 0,
                 "must round to at least one 1 ps tick")
        if lvl["capacity_kb"] * KB % (lvl["assoc"] * LINE_BYTES):
            raise ConfigError(f"{p}.capacity_kb: must divide into assoc x "
                              f"{LINE_BYTES} B lines")
    # In ticks, as CacheHierarchy splits host_path_lat into lookups and bus.
    lookup = sum(ns_to_ticks(caches[name]["hit_latency_ns"])
                 for name in ("l1", "l2", "l3"))
    if ns_to_ticks(hostc["host_path_lat_ns"]) < lookup:
        raise ConfigError("config.host.host_path_lat_ns: must cover the summed "
                          f"cache hit latencies ({lookup / TICKS_PER_NS:g} ns)")
    _check_medium(_require(hostc, "local_medium", "config.host", dict),
                  "config.host.local_medium")

    devices = _require(cfg, "devices", "config", list) if "devices" in cfg else []
    if "bridge" in cfg or devices:
        bridgec = _require(cfg, "bridge", "config", dict)
        _no_unknown(bridgec, {"bridge_lat_ns", "host_proto_proc_lat_ns",
                              "req_fifo_depth", "resp_fifo_depth",
                              "link_bytes_per_ns_tx", "link_bytes_per_ns_rx",
                              "msg_header_bytes"}, "config.bridge")
        _require(bridgec, "bridge_lat_ns", "config.bridge", NUM, _NONNEG, "must be >= 0")
        _require(bridgec, "host_proto_proc_lat_ns", "config.bridge", NUM, _NONNEG,
                 "must be >= 0")
        _require(bridgec, "req_fifo_depth", "config.bridge", int, _POS, "must be >= 1")
        _require(bridgec, "resp_fifo_depth", "config.bridge", int, _POS, "must be >= 1")
        _require(bridgec, "link_bytes_per_ns_tx", "config.bridge", NUM, _POS,
                 "must be > 0")
        _require(bridgec, "link_bytes_per_ns_rx", "config.bridge", NUM, _POS,
                 "must be > 0")
        _require(bridgec, "msg_header_bytes", "config.bridge", int, _POS, "must be > 0")

    for i, dev in enumerate(devices):
        p = f"config.devices[{i}]"
        if not isinstance(dev, dict):
            raise ConfigError(f"{p}: expected dict, got {type(dev).__name__}")
        _no_unknown(dev, {"hdm_size_mb", "device_proto_proc_lat_ns",
                          "medium_access_lat_ns", "medium", "ddr", "coarse",
                          "ssd", "cache"}, p)
        _require(dev, "hdm_size_mb", p, int, _POW2, "must be a power of two")
        _require(dev, "device_proto_proc_lat_ns", p, NUM, _NONNEG, "must be >= 0")
        _require(dev, "medium_access_lat_ns", p, NUM, _NONNEG, "must be >= 0")
        medium = _require(dev, "medium", p, str,
                          lambda v: v in ("coarse_dram", "queued_ddr", "ssd"),
                          "unknown medium")
        if medium == "queued_ddr":
            _require(dev, "ddr", p, dict)
            _check_medium(_device_medium_spec(dev), f"{p}.ddr")
        elif medium == "coarse_dram":
            coarse = _require(dev, "coarse", p, dict) if "coarse" in dev else {}
            _no_unknown(coarse, {"width"}, f"{p}.coarse")
            _check_medium(_device_medium_spec(dev), f"{p}.coarse")
        else:
            ssd = _require(dev, "ssd", p, dict)
            sp = f"{p}.ssd"
            _no_unknown(ssd, {"page_bytes", "read_latency_us", "write_latency_us",
                              "channels"}, sp)
            _require(ssd, "page_bytes", sp, int, lambda v: v >= 64 and _POW2(v),
                     "must be a power of two >= 64")
            _require(ssd, "read_latency_us", sp, NUM, _POS, "must be > 0")
            _require(ssd, "write_latency_us", sp, NUM, _POS, "must be > 0")
            _require(ssd, "channels", sp, int, _POS, "must be > 0")
            cache = dev.get("cache")
            if cache is not None:
                _require(dev, "cache", p, dict)
                cp = f"{p}.cache"
                _no_unknown(cache, {"enabled", "capacity_kb", "policy",
                                    "prefetch"}, cp)
                for flag in ("enabled", "prefetch"):
                    if flag in cache:
                        _require(cache, flag, cp, bool)
                # A disabled block's fields are optional but still checked.
                enabled = _device_cache(dev) is not None
                if enabled or "capacity_kb" in cache:
                    _require(cache, "capacity_kb", cp, int, _POS, "must be > 0")
                    if cache["capacity_kb"] * KB % ssd["page_bytes"]:
                        raise ConfigError(f"{cp}.capacity_kb: must be a whole "
                                          "number of ssd.page_bytes pages")
                if enabled or "policy" in cache:
                    _require(cache, "policy", cp, str,
                             lambda v: v in ("lru", "fifo"),
                             "must be lru or fifo")

    _check_workload(cfg)
    return cfg


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return validate_config(cfg)


def merge_config(base: dict, override: dict) -> dict:
    """Deep merge: override wins; nested dicts merge, lists replace.

    A workload block whose kind differs from the base replaces the whole
    block, since per-kind fields are not interchangeable.
    """
    if not isinstance(override, dict):
        raise ConfigError("config: top level must be an object")
    out = copy.deepcopy(base)
    for key, value in override.items():
        replace_whole = (
            key == "workload" and isinstance(value, dict)
            and isinstance(out.get(key), dict)
            and value.get("kind") not in (None, out[key].get("kind")))
        if (isinstance(value, dict) and isinstance(out.get(key), dict)
                and not replace_whole):
            out[key] = merge_config(out[key], value)
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
        "local_medium": {"kind": "queued_ddr", "read_service_ns": 13.0,
                         "write_service_ns": 13.0, "turnaround_penalty_ns": 2.0,
                         "access_lat_ns": 50.0, "queue_capacity": 64},
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
                for name, spec in WORKLOAD_FIELDS[kind].items()
                if spec[3] is not None}
    return {"kind": kind, **defaults, **fields}


def _preset_local() -> dict:
    return {"schema_version": SCHEMA_VERSION, "label": "local-ddr", "seed": 7,
            "host": _default_host(), "devices": [],
            "workload": _default_workload("latency_sweep",
                                          placement="local")}


def _preset_fpga() -> dict:
    return {"schema_version": SCHEMA_VERSION, "label": "cxl-dmsim-f", "seed": 7,
            "host": _default_host(), "bridge": _bridge_block(48, 48),
            "devices": [{"hdm_size_mb": 16384,
                         "device_proto_proc_lat_ns": 60.0,
                         "medium_access_lat_ns": 50.0,
                         "medium": "queued_ddr", "ddr": _ddr_block()}],
            "workload": _default_workload("latency_sweep", placement="hdm")}


def _preset_asic() -> dict:
    return {"schema_version": SCHEMA_VERSION, "label": "cxl-dmsim-a", "seed": 7,
            "host": _default_host(), "bridge": _bridge_block(52, 52),
            "devices": [{"hdm_size_mb": 65536,
                         "device_proto_proc_lat_ns": 15.0,
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
    "cxl-dmsim-f": _preset_fpga,
    "cxl-dmsim-a": _preset_asic,
    "cxl-ssd": _preset_ssd,
}


def preset(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from "
                          f"{sorted(PRESETS)}")
    return validate_config(PRESETS[name]())


def preset_names() -> List[str]:
    return list(PRESETS)


# -- topology assembly -----------------------------------------------------------


def _build_medium(engine: Engine, spec: dict, stats, prefix: str):
    if spec["kind"] == "coarse_dram":
        return CoarseDram(engine, ns_to_ticks(spec["access_lat_ns"]),
                          spec["width"])
    return QueuedDdr(engine, ns_to_ticks(spec["read_service_ns"]),
                     ns_to_ticks(spec["write_service_ns"]),
                     ns_to_ticks(spec["turnaround_penalty_ns"]),
                     ns_to_ticks(spec["access_lat_ns"]), stats, prefix)


def _build_device_medium(engine: Engine, dev: dict, stats, prefix: str):
    if dev["medium"] != "ssd":
        return _build_medium(engine, _device_medium_spec(dev), stats,
                             f"{prefix}.dram")
    # SSD backend, optionally fronted by the device cache.
    ssd_cfg = dev["ssd"]
    ssd = SsdMedium(engine, ssd_cfg["page_bytes"],
                    ns_to_ticks(ssd_cfg["read_latency_us"] * 1000.0),
                    ns_to_ticks(ssd_cfg["write_latency_us"] * 1000.0),
                    ssd_cfg["channels"], stats)
    cache = _device_cache(dev)
    if cache is None:
        return SsdDirectMedium(ssd)
    prefetcher = BestOffsetPrefetcher() if cache.get("prefetch", True) else None
    return SsdCachedMedium(engine, ssd, cache["capacity_kb"] * KB,
                           cache["policy"],
                           ns_to_ticks(dev["medium_access_lat_ns"]), stats,
                           prefetcher)


def build_system(cfg: dict) -> System:
    """Construct a fresh simulated topology from a validated config."""
    cfg = validate_config(cfg)
    engine = Engine()
    stats = StatsRegistry()
    hostc = cfg["host"]
    ticks_per_cycle = 1000.0 / hostc["core_freq_ghz"]

    addr_map = AddressMap()
    local_size = hostc["local_dram_mb"] * MB
    addr_map.add_range(0, local_size, Target.LOCAL_DRAM)
    membus = MemBus(engine, addr_map, stats)

    local_medium = _build_medium(engine, hostc["local_medium"], stats, "dram")
    membus.attach(Target.LOCAL_DRAM, LocalMemory(engine, local_medium))

    caches = []
    for name in ("l1", "l2", "l3"):
        lvl = hostc["caches"][name]
        caches.append(Cache(name, lvl["capacity_kb"] * KB, lvl["assoc"],
                            ns_to_ticks(lvl["hit_latency_ns"]), stats))

    params = _workload_params(cfg["workload"])
    host = HostPath(engine, caches, membus, params.injectors, params.lsq_depth,
                    ns_to_ticks(hostc["injectors"]["think_time_ns"]),
                    ns_to_ticks(hostc["host_path_lat_ns"]), stats,
                    ticks_per_cycle)

    numa_nodes = [NumaNode(id=0, base=0, size=local_size, distance=10)]
    bridge = None
    devices: List[MemExpander] = []
    allocators: List[HdmAllocator] = []
    if cfg.get("devices"):
        bc = cfg["bridge"]
        traversal_lat = (ns_to_ticks(bc["bridge_lat_ns"])
                         + ns_to_ticks(bc["host_proto_proc_lat_ns"]))
        bridge = CxlBridge(engine, traversal_lat, bc["req_fifo_depth"],
                           bc["resp_fifo_depth"], bc["link_bytes_per_ns_tx"],
                           bc["link_bytes_per_ns_rx"], bc["msg_header_bytes"],
                           stats)
        membus.attach(Target.BRIDGE, bridge)
        for i, dev in enumerate(cfg["devices"]):
            prefix = "cxl" if i == 0 else f"cxl{i}"
            medium = _build_device_medium(engine, dev, stats, prefix)
            expander = MemExpander(
                engine, dev["hdm_size_mb"] * MB,
                ns_to_ticks(dev["device_proto_proc_lat_ns"]), medium, stats,
                prefix)
            rng = enumerate_expander(addr_map, expander, bridge)
            devices.append(expander)
            allocators.append(HdmAllocator(dev["hdm_size_mb"] * MB))
            numa_nodes.append(NumaNode(id=i + 1, base=rng.base,
                                       size=rng.limit - rng.base, distance=20))

    return System(engine=engine, stats=stats, addr_map=addr_map, membus=membus,
                  host=host, bridge=bridge, devices=devices,
                  numa_nodes=numa_nodes, hdm_allocators=allocators,
                  config=cfg, seed=cfg["seed"])


# -- workload dispatch ------------------------------------------------------------


def _placement_policy(choice: Optional[str], has_devices: bool) -> Policy:
    choice = choice or ("hdm" if has_devices else "local")
    if choice == "local":
        return Policy.bind(0)
    if choice == "hdm":
        return Policy.bind(1)
    return Policy.interleave((0, 1), (0.5, 0.5))


def run_workload(cfg: dict) -> wl.WorkloadResult:
    """Build the topology and run the configured workload to quiesce.

    The whole config, workload block included, is checked before any
    engine is built.  A footprint that does not fit the memory it is
    placed in is a ConfigError too, raised when the workload places it.
    """
    cfg = validate_config(cfg)
    params = _workload_params(cfg["workload"])
    kind = params.kind
    placement = _placement_policy(getattr(params, "placement", None),
                                  bool(cfg.get("devices")))
    try:
        if kind == "rdwr_sweep":
            return wl.run_rdwr_sweep(lambda: build_system(cfg), params, placement)
        system = build_system(cfg)
        if kind == "latency_sweep":
            return wl.run_latency_sweep(system, params, placement)
        if kind == "stream":
            return wl.run_stream(system, params, placement)
        if kind == "dlrm_proxy":
            return wl.run_dlrm_proxy(system, params, placement)
        return wl.run_kv_proxy(system, params)
    except (PlacementError, HdmAllocationError) as exc:
        raise ConfigError(f"config.workload: footprint does not fit ({exc})") from None
