"""The benchmark's workloads: their cxlsim configs, request counts, output
checks and simulated-time metrics.

Every workload is a single-process, closed-loop batch run through the
public ``cxlsim run`` path; the workload seed is the run's ``--seed``.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import math
from typing import Dict, List

from cxlsim.config import merge_config, preset
from cxlsim.workloads import STREAM_KERNELS

DEFAULT_SEED = 7              # as in the presets
# The README's published dependent-load plateau for cxl-dmsim-a.
PLATEAU_TARGET_NS = 284.0
PLATEAU_TOLERANCE = 0.05
# L1, L2 and L3 hits, then a 32 MB (512k-line) chase that misses to the device.
SWEEP_KB = [16, 32, 96, 192, 768, 32768]
KERNELS = ("copy", "scale", "add", "triad")

# Why each was chosen: BENCHMARK.json and README.md in this directory.
WORKLOADS = ("latency_chase", "stream_mix", "dlrm_congestion", "kv_ssd")


def configs(name: str) -> List[dict]:
    """The configs one timed call runs, in order (one ``cxlsim run`` each)."""
    if name == "latency_chase":
        return [_asic({"kind": "latency_sweep", "array_kb": SWEEP_KB,
                       "stride": 64, "samples": 2000, "placement": "hdm"})]
    if name == "stream_mix":
        return [_asic({"kind": "stream", "kernel": kernel, "groups": 1000,
                       "warm_groups": 100, "placement": "hdm"})
                for kernel in KERNELS]
    if name == "dlrm_congestion":
        return [_asic({"kind": "dlrm_proxy", "injectors": 48,
                       "queries_per_injector": 16, "lookups_per_query": 16,
                       "footprint_mb": 64, "placement": "hdm"})]
    if name == "kv_ssd":
        return [merge_config(preset("cxl-ssd"), {"workload": {"ops": 20000}})]
    raise KeyError(f"unknown workload {name!r}")


def _asic(workload: dict) -> dict:
    return merge_config(preset("cxl-dmsim-a"), {"workload": workload})


def requests(cfg: dict) -> int:
    """64 B requests the config's injectors issue (a closed-loop batch has
    a fixed count); the traced run checks it against ``Injector.issue``."""
    wld = cfg["workload"]
    kind = wld["kind"]
    if kind == "latency_sweep":
        llc = cfg["host"]["caches"]["l3"]["capacity_kb"] * 1024
        total = 0
        for kb in wld["array_kb"]:
            lines = kb * 1024 // wld["stride"]
            # Arrays that fit the LLC are walked once to warm it.
            total += (lines if kb * 1024 <= llc else 0) + min(wld["samples"], lines)
        return total
    if kind == "stream":
        reads, writes = STREAM_KERNELS[wld["kernel"]]
        return wld["groups"] * (len(reads) + len(writes))
    if kind == "dlrm_proxy":
        return (wld["injectors"] * wld["queries_per_injector"]
                * wld["lookups_per_query"])
    if kind == "kv_proxy":
        return wld["ops"]
    raise KeyError(f"no request count for workload kind {kind!r}")


def _positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def check(name: str, reports: List[dict]) -> List[str]:
    """Correctness gate for one call's reports; returns the failures."""
    errors = []
    for report in reports:
        for key, value in report["stats"].items():
            if not (math.isfinite(value) and value >= 0):
                errors.append(f"stat {key} = {value!r} is not finite and >= 0")
    summaries = [r["workload"] for r in reports]
    if name == "latency_chase":
        (summary,) = summaries
        for size, mean_ns in summary["curve"]:
            if not _positive(mean_ns):
                errors.append(f"latency at {size} B = {mean_ns!r}")
        plateau = summary["plateau_ns"]
        if abs(plateau - PLATEAU_TARGET_NS) > PLATEAU_TOLERANCE * PLATEAU_TARGET_NS:
            errors.append(f"plateau {plateau} ns outside {PLATEAU_TARGET_NS} "
                          f"ns +-{PLATEAU_TOLERANCE:.0%}")
    elif name == "stream_mix":
        for summary in summaries:
            if not _positive(summary["bytes_per_sec"]):
                errors.append(f"{summary['kernel']} bandwidth "
                              f"{summary['bytes_per_sec']!r}")
    elif name == "dlrm_congestion":
        (summary,) = summaries
        if not _positive(summary["aggregateQps"]):
            errors.append(f"aggregate QPS {summary['aggregateQps']!r}")
        if not reports[0]["stats"]["bridge.reqRetryCounts"] > 0:
            errors.append("no bridge retries under congestion")
    elif name == "kv_ssd":
        (summary,) = summaries
        if not _positive(summary["throughput_ops_per_sec"]):
            errors.append(f"KV throughput {summary['throughput_ops_per_sec']!r}")
    return errors


def sim_metrics(name: str, cfgs: List[dict], reports: List[dict]) -> Dict[str, float]:
    """Simulated-time results; a figure the workload does not produce is 0."""
    out = {"sim.plateau_ns": 0.0, "sim.plateau_err_pct": 0.0,
           "sim.stream_bytes_per_s": 0.0, "sim.aggregate_qps": 0.0,
           "sim.kv_ops_per_s": 0.0}
    summaries = [r["workload"] for r in reports]
    if name == "latency_chase":
        plateau = summaries[0]["plateau_ns"]
        out["sim.plateau_ns"] = plateau
        out["sim.plateau_err_pct"] = (100.0 * abs(plateau - PLATEAU_TARGET_NS)
                                      / PLATEAU_TARGET_NS)
    elif name == "stream_mix":
        out["sim.stream_bytes_per_s"] = (
            sum(s["bytes_per_sec"] for s in summaries) / len(summaries))
    elif name == "dlrm_congestion":
        out["sim.aggregate_qps"] = summaries[0]["aggregateQps"]
    elif name == "kv_ssd":
        out["sim.kv_ops_per_s"] = summaries[0]["throughput_ops_per_sec"]
    # core.loadToUse is recorded in core cycles; weight by sample count.
    samples = cycles_ns = 0.0
    for cfg, report in zip(cfgs, reports):
        n = report["stats"]["core.loadToUse::samples"]
        samples += n
        cycles_ns += (n * report["stats"]["core.loadToUse::mean"]
                      / cfg["host"]["core_freq_ghz"])
    out["sim.load_to_use_mean_ns"] = cycles_ns / samples if samples else 0.0
    return out
