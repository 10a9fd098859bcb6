"""Tests of the benchmark harness itself, on shrunken workloads.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys

import pytest

import run
import suite
import tracer
from cxlsim.config import merge_config, preset

SMALL = {
    "latency_sweep": ("cxl-dmsim-a", {"kind": "latency_sweep", "array_kb": [16, 768],
                                      "stride": 64, "samples": 200,
                                      "placement": "hdm"}),
    "stream": ("cxl-dmsim-a", {"kind": "stream", "kernel": "triad", "groups": 600,
                               "warm_groups": 100, "placement": "hdm"}),
    "dlrm_proxy": ("cxl-dmsim-a", {"kind": "dlrm_proxy", "injectors": 48,
                                   "queries_per_injector": 2, "lookups_per_query": 16,
                                   "footprint_mb": 64, "placement": "hdm"}),
    "kv_proxy": ("cxl-ssd", {"kind": "kv_proxy", "ops": 3000, "warm_ops": 200}),
}


def patchable_state():
    """Identity of every module global and class attribute in cxlsim."""
    state = {}
    for name in tracer.LAYER_OF_MODULE:
        module = importlib.import_module(f"cxlsim.{name}")
        for key, value in vars(module).items():
            state[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    state[(f"{name}.{key}", attr)] = id(member)
    return state


@pytest.fixture(scope="module", params=sorted(SMALL))
def runs(request, tmp_path_factory):
    """One untraced and one traced call of a shrunken workload, plus the
    identity of every cxlsim attribute before and after them."""
    name, workload = SMALL[request.param]
    cfg = merge_config(preset(name), {"workload": workload})
    tmp = tmp_path_factory.mktemp(request.param)
    path = tmp / "config.json"
    path.write_text(json.dumps(cfg))
    before = patchable_state()
    untraced = run.timed_call("small", [path], 7, tmp / "untraced")
    traced = run.traced_call("small", [path], 7, tmp / "traced")
    return {"cfg": cfg, "tmp": tmp, "untraced": untraced, "traced": traced,
            "before": before, "after": patchable_state()}


def test_traced_run_leaves_reports_and_counts_unchanged(runs):
    tmp = runs["tmp"]
    assert ((tmp / "traced" / "run0" / "report.json").read_bytes()
            == (tmp / "untraced" / "run0" / "report.json").read_bytes())
    assert runs["traced"]["digest"] == runs["untraced"]["digest"]
    trace = runs["traced"]["tracer"]
    assert trace.calls(tracer.EVENTS) == runs["untraced"]["events"] > 0
    assert trace.calls(tracer.REQUESTS) == suite.requests(runs["cfg"])


def test_layer_self_times_sum_to_traced_wall(runs):
    self_s = runs["traced"]["tracer"].layer_self_s()
    assert set(self_s) == set(tracer.LAYERS)
    assert all(v >= 0 for v in self_s.values())
    assert sum(self_s.values()) == pytest.approx(runs["traced"]["wall_s"],
                                                 rel=0.02, abs=0.005)


def test_every_wrapper_is_removed_after_a_run(runs):
    assert runs["after"] == runs["before"]
    with tracer.Tracer():
        assert patchable_state() != runs["before"]
    assert patchable_state() == runs["before"]


def test_sampled_spans_name_their_cause_and_packet(runs):
    spans = runs["traced"]["tracer"].span_records()
    assert spans
    ids = {s["span"] for s in spans}
    handlers = [s for s in spans if ".cb." in s["name"]]
    assert handlers and all(s["cause"] is not None for s in handlers)
    assert all(s["packet"] & 0xFFF == 0 and s["start"] <= s["end"] for s in spans)
    assert any(s["cause"] in ids for s in handlers)


def test_wrappers_are_removed_when_the_simulator_raises(tmp_path):
    before = patchable_state()
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    result = run._attempt(run.traced_call, "small", [bad], 7, tmp_path)
    assert result["errors"]
    assert patchable_state() == before


def test_declared_metrics_match_benchmark_json():
    spec = run.load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(suite.WORKLOADS)
    assert {f"{layer}.self_s" for layer in tracer.LAYERS} <= set(names)
    assert set(run.load_reference()["workloads"]) == set(suite.WORKLOADS)


def test_correctness_gate_rejects_bad_outputs():
    good = {"stats": {"bridge.reqRetryCounts": 3}, "workload": {"aggregateQps": 1.0}}
    assert suite.check("dlrm_congestion", [good]) == []
    no_retry = {"stats": {"bridge.reqRetryCounts": 0}, "workload": {"aggregateQps": 1.0}}
    assert suite.check("dlrm_congestion", [no_retry])
    negative = {"stats": {"x": -1}, "workload": {"throughput_ops_per_sec": 1.0}}
    assert suite.check("kv_ssd", [negative])
    nan = {"stats": {}, "workload": {"throughput_ops_per_sec": float("nan")}}
    assert suite.check("kv_ssd", [nan])
    off_plateau = {"stats": {}, "workload": {"curve": [[64, 300.0]], "plateau_ns": 300.0}}
    assert suite.check("latency_chase", [off_plateau])


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv_ssd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
