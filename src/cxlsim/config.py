"""Configuration schema, presets, validation, and topology assembly.

Configuration is a single JSON document with a versioned schema field.
Unknown keys are rejected and every semantic error names the offending
dotted field path, so a bad config fails before any engine is built.

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
from typing import Callable, Dict, List

from .engine import Engine, ns_to_ticks
from .stats import StatsRegistry
from .host import (AddressMap, Cache, CacheLevelConfig, HostPath,
                   InjectorConfig, LocalMemory, MemBus, Target)
from .bridge import BridgeConfig, CxlBridge
from .device import CxlDeviceConfig, MemExpander, enumerate_expander
from .media import CoarseDram, CoarseDramConfig, QueuedDdr, QueuedDdrConfig
from .ssd import (BestOffsetPrefetcher, DeviceCacheConfig, SsdCachedMedium,
                  SsdConfig, SsdDirectMedium, SsdMedium)
from .hdm import HdmAllocator, NodeKind, NumaNode, Policy
from .system import System
from . import workloads as wl

SCHEMA_VERSION = 1

MB = 1024 * 1024
KB = 1024


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
    if pred is not None and not pred(value):
        raise ConfigError(f"{path}.{key}: {what or 'invalid value'} (got {value!r})")
    return value


def _no_unknown(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


_POS = lambda v: v > 0
_NONNEG = lambda v: v >= 0
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


def _check_workload(wld: dict, path: str) -> None:
    kinds = {"latency_sweep", "stream", "rdwr_sweep", "dlrm_proxy", "kv_proxy"}
    kind = _require(wld, "kind", path, str, lambda v: v in kinds,
                    f"must be one of {sorted(kinds)}")
    common = {"kind", "placement", "injectors", "lsq_depth"}
    per_kind = {
        "latency_sweep": {"array_kb", "stride", "samples"},
        "stream": {"kernel", "array_mb", "groups", "warm_groups"},
        "rdwr_sweep": {"read_fractions", "rates_bytes_per_ns", "footprint_mb",
                       "ops", "warm_ops"},
        "dlrm_proxy": {"queries_per_injector", "lookups_per_query", "footprint_mb"},
        "kv_proxy": {"ops", "put_fraction", "hot_fraction", "hot_window_pages",
                     "footprint_mb", "warm_ops"},
    }
    _no_unknown(wld, common | per_kind[kind], path)
    if "placement" in wld and wld["placement"] not in ("local", "hdm", "interleave"):
        raise ConfigError(f"{path}.placement: must be local, hdm, or interleave")


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
        _require(lvl, "hit_latency_ns", p, NUM, _POS, "must be > 0")
    _check_medium(_require(hostc, "local_medium", "config.host", dict),
                  "config.host.local_medium")

    if "bridge" in cfg or cfg.get("devices"):
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

    for i, dev in enumerate(cfg.get("devices", [])):
        p = f"config.devices[{i}]"
        _no_unknown(dev, {"hdm_size_mb", "device_proto_proc_lat_ns",
                          "medium_access_lat_ns", "medium", "ddr", "coarse",
                          "ssd", "cache"}, p)
        _require(dev, "hdm_size_mb", p, int, _POS, "must be > 0")
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
            _require(ssd, "page_bytes", sp, int,
                     lambda v: v >= 64 and v & (v - 1) == 0,
                     "must be a power of two >= 64")
            _require(ssd, "read_latency_us", sp, NUM, _POS, "must be > 0")
            _require(ssd, "write_latency_us", sp, NUM, _POS, "must be > 0")
            _require(ssd, "channels", sp, int, _POS, "must be > 0")
            cache = dev.get("cache")
            if cache is not None:
                cp = f"{p}.cache"
                _no_unknown(cache, {"enabled", "capacity_kb", "policy",
                                    "prefetch"}, cp)
                if cache.get("enabled", True):
                    _require(cache, "capacity_kb", cp, int, _POS, "must be > 0")
                    _require(cache, "policy", cp, str,
                             lambda v: v in ("lru", "fifo"),
                             "must be lru or fifo")

    _check_workload(_require(cfg, "workload", "config", dict), "config.workload")
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


DEFAULT_SWEEP_KB = [16, 32, 96, 192, 768, 3072, 49152, 65536]


def _latency_workload(placement: str) -> dict:
    return {"kind": "latency_sweep", "array_kb": list(DEFAULT_SWEEP_KB),
            "stride": 64, "samples": 3000, "placement": placement,
            "injectors": 1, "lsq_depth": 1}


def _preset_local() -> dict:
    return {"schema_version": SCHEMA_VERSION, "label": "local-ddr", "seed": 7,
            "host": _default_host(), "devices": [],
            "workload": _latency_workload("local")}


def _preset_fpga() -> dict:
    return {"schema_version": SCHEMA_VERSION, "label": "cxl-dmsim-f", "seed": 7,
            "host": _default_host(), "bridge": _bridge_block(48, 48),
            "devices": [{"hdm_size_mb": 16384,
                         "device_proto_proc_lat_ns": 60.0,
                         "medium_access_lat_ns": 50.0,
                         "medium": "queued_ddr", "ddr": _ddr_block()}],
            "workload": _latency_workload("hdm")}


def _preset_asic() -> dict:
    return {"schema_version": SCHEMA_VERSION, "label": "cxl-dmsim-a", "seed": 7,
            "host": _default_host(), "bridge": _bridge_block(52, 52),
            "devices": [{"hdm_size_mb": 65536,
                         "device_proto_proc_lat_ns": 15.0,
                         "medium_access_lat_ns": 50.0,
                         "medium": "queued_ddr", "ddr": _ddr_block()}],
            "workload": _latency_workload("hdm")}


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
            "workload": {"kind": "kv_proxy", "ops": 40000, "put_fraction": 0.5,
                         "hot_fraction": 0.94, "hot_window_pages": 48,
                         "footprint_mb": 8, "warm_ops": 2000,
                         "injectors": 1, "lsq_depth": 8}}


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
        return CoarseDram(engine, CoarseDramConfig(
            access_lat=ns_to_ticks(spec["access_lat_ns"]),
            width=spec["width"]))
    return QueuedDdr(engine, QueuedDdrConfig(
        read_service=ns_to_ticks(spec["read_service_ns"]),
        write_service=ns_to_ticks(spec["write_service_ns"]),
        turnaround_penalty=ns_to_ticks(spec["turnaround_penalty_ns"]),
        access_lat=ns_to_ticks(spec["access_lat_ns"]),
        queue_capacity=spec["queue_capacity"]), stats, prefix)


def _build_device_medium(engine: Engine, dev: dict, stats, prefix: str):
    if dev["medium"] != "ssd":
        return _build_medium(engine, _device_medium_spec(dev), stats,
                             f"{prefix}.dram")
    # SSD backend, optionally fronted by the device cache.
    ssd_cfg = dev["ssd"]
    ssd = SsdMedium(engine, SsdConfig(
        page_size=ssd_cfg["page_bytes"],
        read_latency=ns_to_ticks(ssd_cfg["read_latency_us"] * 1000.0),
        write_latency=ns_to_ticks(ssd_cfg["write_latency_us"] * 1000.0),
        parallel_channels=ssd_cfg["channels"]), stats)
    cache = dev.get("cache") or {}
    if not cache.get("enabled", False):
        return SsdDirectMedium(engine, ssd)
    prefetcher = BestOffsetPrefetcher() if cache.get("prefetch", True) else None
    return SsdCachedMedium(engine, ssd,
                           DeviceCacheConfig(capacity=cache["capacity_kb"] * KB,
                                             policy=cache["policy"]),
                           hit_latency=ns_to_ticks(dev["medium_access_lat_ns"]),
                           stats=stats, prefetcher=prefetcher)


def _workload_injectors(wld: dict, think_time: int) -> InjectorConfig:
    defaults = {
        "latency_sweep": (1, 1),
        "stream": (2, 6),
        "rdwr_sweep": (4, 32),
        "dlrm_proxy": (12, 8),
        "kv_proxy": (1, 8),
    }
    count, lsq = defaults[wld["kind"]]
    return InjectorConfig(count=wld.get("injectors", count),
                          lsq_depth=wld.get("lsq_depth", lsq),
                          think_time=think_time)


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
        caches.append(Cache(name, CacheLevelConfig(
            capacity=lvl["capacity_kb"] * KB, associativity=lvl["assoc"],
            hit_latency=ns_to_ticks(lvl["hit_latency_ns"])), stats))

    inj_cfg = _workload_injectors(
        cfg["workload"], ns_to_ticks(hostc["injectors"]["think_time_ns"]))
    inj_cfg.validate()

    host = HostPath(engine, caches, membus, inj_cfg,
                    host_path_lat=ns_to_ticks(hostc["host_path_lat_ns"]),
                    stats=stats, ticks_per_cycle=ticks_per_cycle)

    numa_nodes = [NumaNode(id=0, kind=NodeKind.DDR_LOCAL, base=0,
                           size=local_size, distance=10)]
    bridge = None
    devices: List[MemExpander] = []
    allocators: List[HdmAllocator] = []
    if cfg.get("devices"):
        bc = cfg["bridge"]
        bridge = CxlBridge(engine, BridgeConfig(
            bridge_lat=ns_to_ticks(bc["bridge_lat_ns"]),
            host_proto_proc_lat=ns_to_ticks(bc["host_proto_proc_lat_ns"]),
            req_fifo_depth=bc["req_fifo_depth"],
            resp_fifo_depth=bc["resp_fifo_depth"],
            link_bytes_per_ns_tx=bc["link_bytes_per_ns_tx"],
            link_bytes_per_ns_rx=bc["link_bytes_per_ns_rx"],
            msg_header_bytes=bc["msg_header_bytes"]), stats)
        membus.attach(Target.BRIDGE, bridge)
        for i, dev in enumerate(cfg["devices"]):
            prefix = "cxl" if i == 0 else f"cxl{i}"
            medium = _build_device_medium(engine, dev, stats, prefix)
            expander = MemExpander(engine, CxlDeviceConfig(
                hdm_size=dev["hdm_size_mb"] * MB,
                device_proto_proc_lat=ns_to_ticks(dev["device_proto_proc_lat_ns"])),
                medium, stats, prefix)
            rng = enumerate_expander(addr_map, expander, bridge)
            devices.append(expander)
            allocators.append(HdmAllocator(dev["hdm_size_mb"] * MB))
            numa_nodes.append(NumaNode(id=i + 1, kind=NodeKind.CXL_HDM,
                                       base=rng.base, size=rng.limit - rng.base,
                                       distance=20))

    return System(engine=engine, stats=stats, addr_map=addr_map, membus=membus,
                  host=host, bridge=bridge, devices=devices,
                  numa_nodes=numa_nodes, hdm_allocators=allocators,
                  config=cfg, seed=cfg["seed"])


# -- workload dispatch ------------------------------------------------------------


def _placement_policy(wld: dict, has_devices: bool) -> Policy:
    choice = wld.get("placement", "hdm" if has_devices else "local")
    if choice == "local":
        return Policy.bind(0)
    if choice == "hdm":
        if not has_devices:
            raise ConfigError("config.workload.placement: no HDM node configured")
        return Policy.bind(1)
    return Policy.interleave((0, 1), (0.5, 0.5))


def _workload_spec(cfg: dict):
    """The workload block as a workload Spec, with the kind's defaults."""
    wld = cfg["workload"]
    kind = wld["kind"]
    placement = _placement_policy(wld, bool(cfg.get("devices")))
    if kind == "latency_sweep":
        return wl.LatencySweepSpec(
            array_sizes=[k * KB for k in wld.get("array_kb", DEFAULT_SWEEP_KB)],
            stride=wld.get("stride", 64),
            samples=wld.get("samples", 3000),
            placement=placement)
    if kind == "stream":
        return wl.StreamSpec(
            kernel=wld.get("kernel", "copy"),
            array_bytes=wld.get("array_mb", 64) * MB,
            groups=wld.get("groups", 8000),
            warm_groups=wld.get("warm_groups", 800),
            placement=placement)
    if kind == "rdwr_sweep":
        return wl.RdWrSweepSpec(
            read_fractions=wld.get("read_fractions",
                                   [round(0.5 + 0.025 * i, 3) for i in range(21)]),
            rates_bytes_per_ns=wld.get("rates_bytes_per_ns", [64.0]),
            footprint=wld.get("footprint_mb", 64) * MB,
            ops=wld.get("ops", 6000),
            warm_ops=wld.get("warm_ops", 500),
            placement=placement)
    if kind == "dlrm_proxy":
        return wl.DlrmProxySpec(
            queries_per_injector=wld.get("queries_per_injector", 128),
            lookups_per_query=wld.get("lookups_per_query", 16),
            footprint=wld.get("footprint_mb", 64) * MB,
            placement=placement)
    if kind == "kv_proxy":
        return wl.KvProxySpec(
            ops=wld.get("ops", 40000),
            put_fraction=wld.get("put_fraction", 0.5),
            hot_fraction=wld.get("hot_fraction", 0.94),
            hot_window_pages=wld.get("hot_window_pages", 48),
            footprint=wld.get("footprint_mb", 8) * MB,
            warm_ops=wld.get("warm_ops", 2000))
    raise ConfigError(f"config.workload.kind: unhandled kind {kind!r}")


def run_workload(cfg: dict) -> wl.WorkloadResult:
    """Build the topology and run the configured workload to quiesce.

    The workload parameters are checked before any engine is built.
    """
    cfg = validate_config(cfg)
    kind = cfg["workload"]["kind"]
    spec = _workload_spec(cfg)
    try:
        if kind == "stream":
            spec.validate(cfg["host"]["caches"]["l3"]["capacity_kb"] * KB)
        else:
            spec.validate()
    except ValueError as exc:
        raise ConfigError(f"config.workload.{exc}") from None

    if kind == "rdwr_sweep":
        return wl.run_rdwr_sweep(lambda: build_system(cfg), spec)
    system = build_system(cfg)
    if kind == "latency_sweep":
        return wl.run_latency_sweep(system, spec)
    if kind == "stream":
        return wl.run_stream(system, spec)
    if kind == "dlrm_proxy":
        return wl.run_dlrm_proxy(system, spec)
    return wl.run_kv_proxy(system, spec)
