"""Interpreter cost of the request path.

Four constructs cost far more per request than they look: a Python
frame per stats sample, an Enum member load, a call to the builtin max()
or min() and a keyword call to a class, for which CPython gathers the
keywords into a dict before `__init__` runs.  Histogram samples now fold
in batches, the request constants are plain class attributes, the
servers compare instead of calling max() and packets are built with
positional arguments.  These tests run one small config per workload
kind, on a DRAM device and on a cached and an uncached SSD, under a
profiler for the length of Engine.run, and keep them out of the request
path: no builtin max() or min() but in Histogram._fold, no more Python
calls per issued request than pinned here, and no keyword in a packet
constructor.  The profiler sees the Enum load and the keyword dict as
neither a call nor a C call, so the last two tests check for them apart.
A change that adds a call per request has to raise its pin in the open.
"""

import ast
import collections
import gc
import inspect
import sys

import pytest

from conftest import ssd_device

from cxlsim import host
from cxlsim.bridge import CxlKind
from cxlsim.config import check_config, merge_config, preset, run_workload
from cxlsim.engine import Engine
from cxlsim.host import Injector, MemCmd, Target


KV = {"kind": "kv_proxy", "ops": 1000, "warm_ops": 100}

# name -> (preset, overlay, requests issued, Python calls inside Engine.run)
CASES = {
    "latency_sweep": ("cxl-dmsim-a", {"workload": {
        "kind": "latency_sweep", "array_kb": [16, 16384], "samples": 200,
        "placement": "hdm"}}, 656, 12040),
    "stream": ("cxl-dmsim-a", {"workload": {
        "kind": "stream", "kernel": "triad", "groups": 300,
        "warm_groups": 30, "placement": "hdm"}}, 900, 31428),
    "rdwr_sweep": ("cxl-dmsim-a", {"workload": {
        "kind": "rdwr_sweep", "read_fractions": [0.5, 1.0], "ops": 400,
        "warm_ops": 50, "placement": "hdm"}}, 800, 19018),
    "dlrm_proxy": ("cxl-dmsim-a", {"workload": {
        "kind": "dlrm_proxy", "injectors": 12, "queries_per_injector": 4,
        "placement": "hdm"}}, 768, 22342),
    "kv_proxy-cached": ("cxl-ssd", {"workload": KV}, 1000, 20686),
    "kv_proxy-uncached": ("cxl-ssd", {
        "devices": [ssd_device(cache={"enabled": False})], "workload": KV},
        1000, 23015),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_request_path_calls_no_builtin_extreme_and_few_functions(
        monkeypatch, name):
    base, overlay, requests, pinned_calls = CASES[name]
    calls = 0
    extremes = collections.Counter()    # (builtin, calling function) -> calls
    issued = 0
    issue = Injector.issue

    def counted_issue(self, *args, **kwargs):
        nonlocal issued
        issued += 1
        return issue(self, *args, **kwargs)

    # The wrapper's own frame is not the simulator's: a workload that
    # issues from events would count it inside Engine.run, one that
    # issues at setup would not.
    wrapper = counted_issue.__code__

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            if frame.f_code is not wrapper:
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


def test_packets_are_built_positionally():
    # __init__'s frame counts the same either way, so the pins above
    # cannot see a keyword argument come back.
    calls = [node for node in ast.walk(ast.parse(inspect.getsource(host)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "MemPacket"]
    assert len(calls) == 3
    assert not any(call.keywords for call in calls)
