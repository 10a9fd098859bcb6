"""No closure rides the request path.

Every event is an (action, argument) pair and every completion a handler
called with its packet, so no layer builds a function object per hop.
These tests wrap each place a handler is handed over (Engine.schedule,
Injector.issue, MemBus.send, CacheHierarchy.access, SsdMedium.io and the
SSD access methods, whose packet carries it as `reply`), run small
configs of every workload kind through them, and require each handler to
be a bound method or a module-level function that closes over nothing.
"""

import copy
import inspect
import random
import types

import pytest

from conftest import patched_preset, ssd_device

from cxlsim import config
from cxlsim.config import preset
from cxlsim.engine import Engine
from cxlsim.host import LINE_BYTES, CacheHierarchy, Injector, MemBus, MemCmd
from cxlsim.ssd import SsdCachedMedium, SsdDirectMedium, SsdMedium

# (class, method, the parameter that takes the handler, or the packet
# whose `reply` is the handler)
HANDOFFS = [
    (Engine, "schedule", "action"),
    (Injector, "issue", "on_complete"),
    (MemBus, "send", "reply"),
    (CacheHierarchy, "access", "reply"),
    (SsdCachedMedium, "access", "pkt"),
    (SsdDirectMedium, "access", "pkt"),
    (SsdMedium, "io", "on_done"),
]


def closure_free(fn) -> bool:
    """A bound method or a module-level function with no free variables."""
    if not isinstance(fn, (types.FunctionType, types.MethodType)):
        return False
    return (fn.__closure__ is None and fn.__name__ != "<lambda>"
            and "<locals>" not in fn.__qualname__)


@pytest.fixture
def handed(monkeypatch):
    """Wraps every handoff; returns a dict from handoff name to the
    handlers seen there, None for an issue that passed no on_complete.  A
    closure fails the run at once."""
    seen = {}
    originals = {}      # wrapper -> the method it wraps

    def wrap(cls, name, param):
        original = getattr(cls, name)
        signature = inspect.signature(original)
        key = f"{cls.__name__}.{name}"
        seen[key] = set()

        def wrapper(*args, **kwargs):
            fn = signature.bind(*args, **kwargs).arguments.get(param)
            if param == "pkt":
                fn = fn.reply
            if fn is None and param == "on_complete":
                seen[key].add(None)
            else:
                # A device schedules its SSD medium's access, wrapped here.
                if getattr(fn, "__func__", None) in originals:
                    fn = types.MethodType(originals[fn.__func__], fn.__self__)
                assert closure_free(fn), f"{key} was handed {fn!r}"
                seen[key].add(fn.__qualname__)
            return original(*args, **kwargs)

        originals[wrapper] = original
        monkeypatch.setattr(cls, name, wrapper)

    for cls, name, param in HANDOFFS:
        wrap(cls, name, param)
    return seen


WORKLOADS = {
    "latency_sweep": {"array_kb": [16, 12288], "samples": 60},
    "stream": {"kernel": "triad", "groups": 200, "warm_groups": 20},
    "rdwr_sweep": {"read_fractions": [0.5], "rates_bytes_per_ns": [4.0],
                   "footprint_mb": 2, "ops": 200, "warm_ops": 20},
    "dlrm_proxy": {"injectors": 6, "queries_per_injector": 3,
                   "lookups_per_query": 6, "footprint_mb": 2},
}
KV = {"kind": "kv_proxy", "ops": 400, "warm_ops": 40}

CASES = {
    **{kind: ("cxl-dmsim-a", None, {"kind": kind, **block})
       for kind, block in WORKLOADS.items()},
    "dlrm_proxy-interleave": ("cxl-dmsim-a", None,
                              {"kind": "dlrm_proxy", "placement": "interleave",
                               **WORKLOADS["dlrm_proxy"]}),
    "kv_proxy-ssd-cached": ("cxl-ssd", ssd_device(), KV),
    "kv_proxy-ssd-uncached": ("cxl-ssd", ssd_device(cache={"enabled": False}),
                              KV),
}

# Handlers every case must have been seen handing over, so the check is
# not vacuous; the SSD ones only where an SSD serves the requests.
ALWAYS = ("Engine.schedule", "Injector.issue", "MemBus.send")


@pytest.mark.parametrize("case", sorted(CASES))
def test_workload_hands_over_no_closure(handed, case):
    name, device, workload = CASES[case]
    cfg = preset(name)
    if device is not None:
        cfg["devices"] = [device]
    cfg = config.merge_config(cfg, {"workload": workload})
    config.run_workload(config.check_config(cfg))
    for key in ALWAYS:
        assert handed[key], key
    # STREAM and KV count their window on the host and hand no callback.
    assert (None in handed["Injector.issue"]) == (
        workload["kind"] in ("stream", "kv_proxy"))
    assert bool(handed["CacheHierarchy.access"]) == (
        workload["kind"] != "kv_proxy" and case != "rdwr_sweep")
    # The latency sweep's one injector has one LSQ slot, so its misses go
    # alone: each fill is scheduled with no conversion event before it.
    assert ("CxlBridge._converted" in handed["Engine.schedule"]) == (
        case != "latency_sweep")
    assert bool(handed["SsdMedium.io"]) == case.startswith("kv_proxy")
    assert bool(handed["SsdCachedMedium.access"]) == (
        case == "kv_proxy-ssd-cached")
    assert bool(handed["SsdDirectMedium.access"]) == (
        case == "kv_proxy-ssd-uncached")


def test_two_devices_hand_over_no_closure(handed):
    devices = [preset("cxl-dmsim-a")["devices"][0], ssd_device()]
    system = config.build_system(config.check_config(patched_preset(
        "cxl-dmsim-a", {
            "devices": copy.deepcopy(devices),
            "host": {"injectors": {"think_time_ns": 2.0}},
            "workload": {"kind": "dlrm_proxy", "injectors": 4,
                         "lsq_depth": 2}})))
    rnd = random.Random(3)
    for _ in range(300):
        dev = system.devices[rnd.randrange(2)]
        cmd = MemCmd.WRITE_REQ if rnd.random() < 0.4 else MemCmd.READ_REQ
        system.host.injectors[rnd.randrange(4)].issue(
            cmd, dev.bar.base + rnd.randrange(512) * LINE_BYTES,
            cacheable=rnd.random() < 0.5)
    system.engine.run()
    assert all(dev.reads and dev.writes for dev in system.devices)
    # Queued issues start after the think time, in an event of their own.
    assert "Injector._start" in handed["Engine.schedule"]
    assert handed["SsdCachedMedium.access"] and handed["CacheHierarchy.access"]


def test_a_closure_is_caught(handed):
    engine = Engine()
    local = []

    def nested(_):
        local.append(1)

    def free_nested(_):
        pass

    for fn in (lambda _: None, nested, free_nested):
        assert not closure_free(fn)
        with pytest.raises(AssertionError, match="Engine.schedule was handed"):
            engine.schedule(0, fn)
    assert closure_free(engine.run) and closure_free(closure_free)
    assert engine._seq == 0
