"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them
live).  Expensive simulations are shared through session fixtures.

All expected values come from independent oracles computed here (closed
forms, interval-set replay, clean-room prefetch scoring) or from the
published device measurements the presets were calibrated against.
"""

import bisect
import json
import random
from collections import OrderedDict

import pytest

from cxlsim import cli
from cxlsim.config import check_config, merge_config, preset, run_workload
from cxlsim.hdm import HdmAllocationError, HdmAllocator, NodeState, PAGE_BYTES
from cxlsim.ssd import BestOffsetPrefetcher

GRID = [round(0.5 + 0.025 * i, 3) for i in range(21)]
KERNELS = ("copy", "scale", "add", "triad")


def check(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} - {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run(preset_name: str, workload: dict, patch: dict | None = None):
    cfg = preset(preset_name)
    if patch:
        cfg = merge_config(cfg, patch)
    cfg = merge_config(cfg, {"workload": workload})
    return run_workload(check_config(cfg))


# -- shared simulations ----------------------------------------------------------


@pytest.fixture(scope="session")
def latency_curves():
    sizes = [16, 32, 96, 192, 768, 3072, 49152, 65536]
    out = {}
    for name in ("local-ddr", "cxl-dmsim-a", "cxl-dmsim-f"):
        placement = "local" if name == "local-ddr" else "hdm"
        result = run(name, {"kind": "latency_sweep", "array_kb": sizes,
                            "samples": 2000, "placement": placement})
        out[name] = dict(result.rows)
    return out


@pytest.fixture(scope="session")
def stream_bandwidth():
    out = {}
    for name in ("local-ddr", "cxl-dmsim-a", "cxl-dmsim-f"):
        placement = "local" if name == "local-ddr" else "hdm"
        for kernel in KERNELS:
            result = run(name, {"kind": "stream", "kernel": kernel,
                                "groups": 5000, "warm_groups": 500,
                                "placement": placement})
            out[(name, kernel)] = result.summary["bytes_per_sec"]
    return out


@pytest.fixture(scope="session")
def rdwr_curves():
    out = {}
    for name in ("local-ddr", "cxl-dmsim-a"):
        placement = "local" if name == "local-ddr" else "hdm"
        result = run(name, {"kind": "rdwr_sweep", "read_fractions": GRID,
                            "ops": 6000, "warm_ops": 500,
                            "placement": placement})
        out[name] = result.summary
    return out


@pytest.fixture(scope="session")
def fifo_scaling():
    patch = {"bridge": {"link_bytes_per_ns_tx": 64.0,
                        "link_bytes_per_ns_rx": 64.0},
             "devices": [{"hdm_size_mb": 65536,
                          "device_proto_proc_lat_ns": 15.0,
                          "medium_access_lat_ns": 50.0,
                          "medium": "coarse_dram", "coarse": {"width": 32}}]}
    out = {}
    for depth in (13, 26, 52):
        p = dict(patch)
        p["bridge"] = dict(patch["bridge"], req_fifo_depth=depth)
        result = run("cxl-dmsim-a",
                     {"kind": "rdwr_sweep", "read_fractions": [1.0],
                      "ops": 6000, "warm_ops": 500, "placement": "hdm"},
                     patch=p)
        out[depth] = result.summary["peak_bytes_per_sec"]
    return out


@pytest.fixture(scope="session")
def congestion_runs():
    out = {}
    for injectors in (12, 48):
        result = run("cxl-dmsim-a",
                     {"kind": "dlrm_proxy", "injectors": injectors,
                      "queries_per_injector": 128, "lookups_per_query": 16,
                      "footprint_mb": 64, "placement": "hdm"})
        out[injectors] = {"summary": result.summary,
                          "stats": result.system.stats.flatten()}
    return out


SSD_ACCEPT = {"page_bytes": 4096, "read_latency_us": 1.5,
              "write_latency_us": 5.0, "channels": 8}
KV = {"kind": "kv_proxy", "ops": 30000, "warm_ops": 2000, "footprint_mb": 8,
      "hot_fraction": 0.96}


@pytest.fixture(scope="session")
def ssd_throughputs():
    out = {"cxl-dram": run("cxl-dmsim-a", KV).summary["throughput_ops_per_sec"]}
    for policy in ("lru", "fifo"):
        patch = {"devices": [dict(preset("cxl-ssd")["devices"][0],
                                  ssd=SSD_ACCEPT,
                                  cache={"enabled": True, "capacity_kb": 1024,
                                         "policy": policy, "prefetch": True})]}
        out[policy] = run("cxl-ssd", KV, patch).summary["throughput_ops_per_sec"]
    patch = {"devices": [dict(preset("cxl-ssd")["devices"][0], ssd=SSD_ACCEPT,
                              cache={"enabled": False})]}
    out["uncached"] = run("cxl-ssd", KV, patch).summary["throughput_ops_per_sec"]
    return out


# -- criteria ---------------------------------------------------------------------


def test_criterion_latency_plateaus(latency_curves):
    plateau = {name: curve[65536 * 1024]
               for name, curve in latency_curves.items()}
    local, asic, fpga = (plateau["local-ddr"], plateau["cxl-dmsim-a"],
                         plateau["cxl-dmsim-f"])
    gap = fpga - asic
    ok = (abs(local - 130.0) <= 7.0
          and abs(asic - 284.0) <= 0.05 * 284.0
          and abs(fpga - 375.0) <= 0.05 * 375.0
          and abs(gap - 90.0) <= 2.0
          and 2.0 <= asic / local <= 2.3
          and 2.7 <= fpga / local <= 3.0)
    check("latency plateaus", ok,
          f"local={local}ns asic={asic}ns fpga={fpga}ns gap={gap}ns "
          f"asic/local={asic / local:.3f} fpga/local={fpga / local:.3f}")


def test_criterion_cache_plateaus(latency_curves):
    curve = latency_curves["local-ddr"]
    kb = lambda k: curve[k * 1024]
    pairs = [(16, 32), (96, 192), (768, 3072), (49152, 65536)]
    levels = []
    flat = True
    for a, b in pairs:
        flat &= abs(kb(a) - kb(b)) <= 0.1 * max(kb(a), kb(b))
        levels.append((kb(a) + kb(b)) / 2)
    increasing = all(levels[i + 1] > 1.2 * levels[i] for i in range(len(levels) - 1))
    ok = flat and increasing and len(levels) >= 3
    check("cache plateaus", ok,
          f"levels={['%.1f' % v for v in levels]} distinct increasing={increasing}")


def test_criterion_stream_ordering(stream_bandwidth):
    details = []
    ok = True
    for kernel in KERNELS:
        local = stream_bandwidth[("local-ddr", kernel)]
        asic = stream_bandwidth[("cxl-dmsim-a", kernel)]
        fpga = stream_bandwidth[("cxl-dmsim-f", kernel)]
        a_l, f_l = asic / local, fpga / local
        ok &= fpga < asic < local
        ok &= 0.70 <= a_l <= 0.90
        ok &= 0.40 <= f_l <= 0.75
        details.append(f"{kernel}: A/L={a_l:.3f} F/L={f_l:.3f}")
    check("STREAM ordering", ok, "; ".join(details))


def _cxl_rdwr_oracle(cfg: dict):
    """Closed-form peak bandwidth of the composed link + DDR model."""
    bridge = cfg["bridge"]
    ddr = cfg["devices"][0]["ddr"]
    header = bridge["msg_header_bytes"]
    data = header + 64

    def peak(r: float) -> float:
        tx = bridge["link_bytes_per_ns_tx"] / (header * r + data * (1 - r))
        rx = bridge["link_bytes_per_ns_rx"] / (data * r + header * (1 - r))
        service = (ddr["read_service_ns"] * r + ddr["write_service_ns"] * (1 - r)
                   + ddr["turnaround_penalty_ns"] * 2 * r * (1 - r))
        return 64.0 * min(tx, rx, 1.0 / service)   # bytes per ns

    return peak


def test_criterion_rdwr_sensitivity(rdwr_curves):
    local = dict((r, bw) for r, bw in rdwr_curves["local-ddr"]["peaks"])
    asic = dict((r, bw) for r, bw in rdwr_curves["cxl-dmsim-a"]["peaks"])

    # Monotone non-increasing from r=1.0 down to 0.5.  The model curve is
    # exactly monotone; the simulated estimate carries <0.3% sampling
    # noise where the curve's slope vanishes near r=0.5, so adjacent
    # points get that much slack while 0.1-wide steps must be strict.
    mono = all(local[GRID[i]] <= local[GRID[i + 1]] * 1.003 for i in range(20))
    strict = all(local[round(0.5 + 0.1 * k, 3)]
                 < local[round(0.6 + 0.1 * k, 3)] for k in range(5))

    argmax_sim = rdwr_curves["cxl-dmsim-a"]["argmax_read_fraction"]
    oracle = _cxl_rdwr_oracle(preset("cxl-dmsim-a"))
    argmax_oracle = max(GRID, key=lambda r: (oracle(r), r))
    argmax_ok = argmax_sim > 0.5 and abs(argmax_sim - argmax_oracle) <= 0.0251

    sens_local = (max(local.values()) - min(local.values())) / min(local.values())
    sens_asic = (max(asic.values()) - min(asic.values())) / min(asic.values())
    ratio = sens_asic / sens_local
    ok = mono and strict and argmax_ok and ratio >= 2.5
    check("Rd/Wr sensitivity", ok,
          f"local monotone={mono and strict} argmax sim={argmax_sim} "
          f"oracle={argmax_oracle} sensitivity ratio={ratio:.2f}")


def test_criterion_fifo_depth_scaling(fifo_scaling):
    cfg = preset("cxl-dmsim-a")
    bridge = cfg["bridge"]
    rtt_ns = (2 * (bridge["bridge_lat_ns"] + bridge["host_proto_proc_lat_ns"])
              + 2 * cfg["devices"][0]["device_proto_proc_lat_ns"]
              + cfg["devices"][0]["medium_access_lat_ns"])
    link_cap = 64.0 * 64.0 / 80.0 * 1e9          # RX-bound read data rate
    medium_cap = 32 * 64.0 / 50.0 * 1e9          # coarse width 32, 50 ns
    details = []
    ok = True
    for depth, bw in fifo_scaling.items():
        predicted = min(depth * 64.0 / rtt_ns * 1e9, link_cap, medium_cap)
        err = abs(bw - predicted) / predicted
        ok &= err <= 0.10
        details.append(f"depth {depth}: {bw / 1e9:.2f} GB/s "
                       f"(oracle {predicted / 1e9:.2f}, err {err * 100:.1f}%)")
    check("FIFO-depth scaling", ok, "; ".join(details))


def test_criterion_congestion_study(congestion_runs):
    small, big = congestion_runs[12], congestion_runs[48]
    qps_ok = (big["summary"]["perInjectorQps"]
              < small["summary"]["perInjectorQps"])
    retry_ratio = (big["stats"]["bridge.reqRetryCounts"]
                   / small["stats"]["bridge.reqRetryCounts"])
    stdev_ok = (big["stats"]["core.loadToUse::stdev"]
                > small["stats"]["core.loadToUse::stdev"])
    rsp12 = small["stats"]["cxl.rsp::mean"]
    rsp48 = big["stats"]["cxl.rsp::mean"]
    rsp_ok = abs(rsp48 - rsp12) <= 0.10 * min(rsp12, rsp48)
    ok = qps_ok and retry_ratio >= 2.0 and stdev_ok and rsp_ok
    check("congestion study", ok,
          f"perInjQps 12={small['summary']['perInjectorQps']:.0f} "
          f"48={big['summary']['perInjectorQps']:.0f}; "
          f"retry ratio={retry_ratio:.1f}; "
          f"stdev 12={small['stats']['core.loadToUse::stdev']:.0f} "
          f"48={big['stats']['core.loadToUse::stdev']:.0f}; "
          f"rsp mean delta={abs(rsp48 - rsp12) / rsp12 * 100:.1f}%")


def _reference_best_offset(pages, score_max=31, round_max=100, bad_score=1,
                           rr_size=128):
    """Clean-room replay of the learning phase; returns the first phase's
    selected offset (None = prefetching disabled)."""
    offsets = []
    for d in range(1, 65):
        n = d
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        if n == 1:
            offsets.append(d)
    scores = {d: 0 for d in offsets}
    rr = OrderedDict()
    idx = 0
    rounds = 0
    for page in pages:
        d = offsets[idx]
        if page - d in rr:
            scores[d] += 1
            if scores[d] >= score_max:
                return d
        idx += 1
        if idx == len(offsets):
            idx = 0
            rounds += 1
            if rounds >= round_max:
                best = max(offsets, key=lambda o: scores[o])
                return best if scores[best] > bad_score else None
        rr[page] = None
        if page in rr:
            rr.move_to_end(page)
        if len(rr) > rr_size:
            rr.popitem(last=False)
    raise AssertionError("stream ended before the learning phase completed")


def _stride_noise_stream(rng, stride, noise, length=3000):
    pages = []
    page = rng.randrange(1 << 30)
    for _ in range(length):
        if rng.random() < noise:
            pages.append(rng.randrange(1 << 30))
        else:
            page += stride
            pages.append(page)
    return pages


def test_criterion_cxl_ssd(ssd_throughputs):
    t = ssd_throughputs
    lru_ok = t["lru"] >= 0.70 * t["cxl-dram"]
    fifo_ok = t["fifo"] >= 0.70 * t["cxl-dram"]
    cached = min(t["lru"], t["fifo"])
    uncached_ok = t["uncached"] <= 0.20 * cached

    rng = random.Random(42)
    agree = 0
    for _ in range(100):
        stride = rng.randrange(1, 81)
        noise = rng.choice([0.0, 0.05, 0.1, 0.2, 0.3, 0.5])
        pages = _stride_noise_stream(rng, stride, noise)
        expected = _reference_best_offset(pages)
        bo = BestOffsetPrefetcher()
        start = bo.phases_completed
        selected = None
        for page in pages:
            bo.update(page)
            if bo.phases_completed > start:
                selected = bo.best_offset
                break
        agree += expected == selected
    ok = lru_ok and fifo_ok and uncached_ok and agree == 100
    check("CXL-SSD", ok,
          f"lru/dram={t['lru'] / t['cxl-dram']:.3f} "
          f"fifo/dram={t['fifo'] / t['cxl-dram']:.3f} "
          f"uncached/cached={t['uncached'] / cached:.3f} "
          f"best-offset oracle agreement={agree}/100")


def test_criterion_allocator_property_suite():
    hdm_size = 512 * PAGE_BYTES
    alloc = HdmAllocator(hdm_size)
    busy = []           # sorted (offset, size, pid) oracle intervals
    rng = random.Random(1234)
    ops = 100_000
    round_up = lambda s: (s + PAGE_BYTES - 1) // PAGE_BYTES * PAGE_BYTES

    def oracle_first_fit(size):
        prev_end = 0
        for off, sz, _pid in busy:
            if off - prev_end >= size:
                return prev_end
            prev_end = off + sz
        return prev_end if hdm_size - prev_end >= size else None

    for step in range(ops):
        do_alloc = (not busy) or (len(busy) < 300 and rng.random() < 0.55)
        if do_alloc:
            pid = rng.randrange(1, 9)
            size = rng.randrange(1, 12 * PAGE_BYTES)
            expected = oracle_first_fit(round_up(size))
            if expected is None:
                with pytest.raises(HdmAllocationError):
                    alloc.alloc(pid, size)
            else:
                offset = alloc.alloc(pid, size)
                assert offset == expected, "first-fit placement diverged"
                bisect.insort(busy, (offset, round_up(size), pid))
        else:
            offset, size, pid = busy.pop(rng.randrange(len(busy)))
            alloc.free(pid, offset)
        if step % 512 == 0:
            alloc.check_invariants()
    alloc.check_invariants()

    nodes = alloc.nodes
    busy_nodes = [(n.offset, n.size, n.pid) for n in nodes
                  if n.state is NodeState.BUSY]
    assert busy_nodes == busy
    free_total = sum(n.size for n in nodes if n.state is NodeState.FREE)
    assert free_total == hdm_size - sum(sz for _o, sz, _p in busy)
    check("allocator property suite", True,
          f"{ops} ops, {len(busy)} live blocks, conservation exact")


def test_criterion_determinism(tmp_path):
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps({
        "workload": {"kind": "rdwr_sweep", "read_fractions": [0.7],
                     "ops": 1500, "warm_ops": 200, "placement": "hdm"}}))
    for d in ("d1", "d2"):
        rc = cli.main(["run", "--preset", "cxl-dmsim-a",
                       "--config", str(cfg_path), "--out", str(tmp_path / d)])
        assert rc == 0
    same = ((tmp_path / "d1" / "report.json").read_bytes()
            == (tmp_path / "d2" / "report.json").read_bytes())
    check("determinism", same, "repeated run produced byte-identical report.json")


def test_declared_not_reproducible():
    print("ACCEPTANCE NOTE - declared out of desk-scale reproduction: "
          "absolute hardware QPS for the database/key-value/recommendation "
          "applications, the hardware-vs-simulator error figure, and "
          "simulation-overhead comparisons.")
