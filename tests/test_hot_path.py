"""Interpreter cost of the request path.

Three constructs cost far more per request than they look: a Python
frame per stats sample, an Enum member load and a call to the builtin
max() or min().  Histogram samples now fold in batches, the request
constants are plain class attributes and the servers compare instead of
calling max().  These tests run one small config per workload kind, on a
DRAM device and on a cached and an uncached SSD, under a profiler for the
length of Engine.run, and keep all three out of the request path: no
builtin max() or min() but in Histogram._fold, and no more Python calls
per issued request than pinned here.  A change that adds a call per
request has to raise its pin in the open.
"""

import collections
import gc
import sys

import pytest

from cxlsim.bridge import CxlKind
from cxlsim.config import check_config, merge_config, preset, run_workload
from cxlsim.engine import Engine
from cxlsim.host import Injector, MemCmd, Target


def _uncached_ssd() -> dict:
    return merge_config(preset("cxl-ssd")["devices"][0],
                        {"cache": {"enabled": False}})


KV = {"kind": "kv_proxy", "ops": 1000, "warm_ops": 100}

# name -> (preset, overlay, requests issued, Python calls inside Engine.run)
CASES = {
    "latency_sweep": ("cxl-dmsim-a", {"workload": {
        "kind": "latency_sweep", "array_kb": [16, 16384], "samples": 200,
        "placement": "hdm"}}, 656, 18112),
    "stream": ("cxl-dmsim-a", {"workload": {
        "kind": "stream", "kernel": "triad", "groups": 300,
        "warm_groups": 30, "placement": "hdm"}}, 900, 36828),
    "rdwr_sweep": ("cxl-dmsim-a", {"workload": {
        "kind": "rdwr_sweep", "read_fractions": [0.5, 1.0], "ops": 400,
        "warm_ops": 50, "placement": "hdm"}}, 800, 24618),
    "dlrm_proxy": ("cxl-dmsim-a", {"workload": {
        "kind": "dlrm_proxy", "injectors": 12, "queries_per_injector": 4,
        "placement": "hdm"}}, 768, 25414),
    "kv_proxy-cached": ("cxl-ssd", {"workload": KV}, 1000, 26789),
    "kv_proxy-uncached": ("cxl-ssd", {"devices": [_uncached_ssd()],
                                      "workload": KV}, 1000, 29007),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_request_path_calls_no_builtin_extreme_and_few_functions(
        monkeypatch, name):
    base, overlay, requests, pinned_calls = CASES[name]
    calls = 0
    extremes = collections.Counter()    # (builtin, calling function) -> calls
    issued = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
        elif event == "c_call" and (arg is max or arg is min):
            extremes[arg.__name__, frame.f_code.co_qualname] += 1

    run = Engine.run

    def profiled_run(engine):
        # A collection would run the callbacks in gc.callbacks (hypothesis
        # registers one), whose calls are not the request path's.
        enabled = gc.isenabled()
        gc.disable()
        sys.setprofile(profile)
        try:
            return run(engine)
        finally:
            sys.setprofile(None)
            if enabled:
                gc.enable()

    issue = Injector.issue

    def counted_issue(self, *args, **kwargs):
        nonlocal issued
        issued += 1
        return issue(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "run", profiled_run)
    monkeypatch.setattr(Injector, "issue", counted_issue)
    run_workload(check_config(merge_config(preset(base), overlay)))
    assert {caller for _, caller in extremes} <= {"Histogram._fold"}
    assert issued == requests
    assert calls <= pinned_calls, (
        f"{calls / issued:.2f} Python calls per request, pinned at "
        f"{pinned_calls / requests:.2f}")


def test_request_constants_are_plain_classes():
    # Loading an Enum member makes no profiler event, so the call counts
    # above cannot see an Enum come back.
    for cls in (MemCmd, Target, CxlKind):
        assert type(cls) is type
