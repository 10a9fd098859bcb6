"""Outside-in span tracer for cxlsim.

The tracer patches the public entry points of each simulator layer (one
module of ``src/cxlsim`` per layer) and wraps every plain Python callable
handed across those entry points: event actions given to
``Engine.schedule``, completion callbacks given to ``Injector.issue``,
``MemBus.send``, the media and the SSD.  A wrapped callable is charged to
the layer whose module defines its code, so a lambda built in
``bridge.py`` and fired by the event loop counts as bridge time.  Nothing
under ``src/`` is edited, and ``uninstall`` puts every original back.

Each span records its name, start, end, the enclosing span and the span
that caused it.  For an event action the cause is the span that called
``Engine.schedule``; for a callback it is the span that handed it over.
Spans also carry the packet id of a ``MemPacket`` or ``CxlMemPacket``
argument, inherited by the spans it causes.  Per span name the tracer keeps
call counts, total time and self time (total minus the time of child
spans); full span records are kept only for a sample of packet ids.
"""

from __future__ import annotations

import importlib
import types
from time import perf_counter
from typing import Dict, List, Optional, Tuple

LAYER_OF_MODULE = {
    "engine": "engine", "host": "host", "bridge": "bridge",
    "device": "device", "media": "media", "ssd": "ssd", "stats": "stats",
    "config": "config", "workloads": "workloads", "hdm": "hdm",
    "system": "hdm", "cli": "cli",
}
LAYERS = ("engine", "host", "bridge", "device", "media", "ssd", "stats",
          "config", "workloads", "hdm", "cli")

# (module, owner class or None, attribute, layer).  The placement helpers
# of system.py count under hdm.  A name missing from the simulator is
# skipped, so a refactor that removes one narrows the trace instead of
# breaking it; the counted names are checked by the benchmark itself.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("engine", "Engine", "schedule", "engine"),
    ("engine", "Engine", "run", "engine"),
    ("engine", "Engine", "run_until", "engine"),
    ("host", "Injector", "issue", "host"),
    ("host", "CacheHierarchy", "access", "host"),
    ("host", "CacheHierarchy", "warm_install", "host"),
    ("host", "MemBus", "send", "host"),
    ("host", "LocalMemory", "receive", "host"),
    ("bridge", "CxlBridge", "receive", "bridge"),
    ("bridge", "CxlBridge", "device_egress", "bridge"),
    ("bridge", "LinkChannel", "transmit", "bridge"),
    ("bridge", None, "convert_m2s", "bridge"),
    ("bridge", None, "convert_s2m", "bridge"),
    ("device", "MemExpander", "receive_m2s", "device"),
    ("device", None, "enumerate_expander", "device"),
    ("media", "QueuedDdr", "submit", "media"),
    ("media", "CoarseDram", "submit", "media"),
    ("ssd", "SsdCachedMedium", "access", "ssd"),
    ("ssd", "SsdDirectMedium", "access", "ssd"),
    ("ssd", "SsdMedium", "io", "ssd"),
    ("ssd", "BestOffsetPrefetcher", "update", "ssd"),
    ("stats", "Counter", "inc", "stats"),
    ("stats", "Gauge", "add", "stats"),
    ("stats", "Gauge", "set", "stats"),
    ("stats", "Mean", "record", "stats"),
    ("stats", "Histogram", "record", "stats"),
    ("stats", "StatsRegistry", "record", "stats"),
    ("stats", "StatsRegistry", "flatten", "stats"),
    ("stats", "RunReport", "to_json", "stats"),
    ("stats", None, "config_digest", "stats"),
    ("config", None, "load_config", "config"),
    ("config", None, "validate_config", "config"),
    ("config", None, "build_system", "config"),
    ("config", None, "run_workload", "config"),
    ("workloads", None, "run_latency_sweep", "workloads"),
    ("workloads", None, "run_stream", "workloads"),
    ("workloads", None, "run_dlrm_proxy", "workloads"),
    ("workloads", None, "run_kv_proxy", "workloads"),
    ("workloads", None, "run_rdwr_sweep", "workloads"),
    ("workloads", None, "build_chase_cycle", "workloads"),
    ("system", "System", "place_pages", "hdm"),
    ("system", "System", "am_alloc", "hdm"),
    ("system", "System", "am_free", "hdm"),
    ("hdm", "HdmAllocator", "alloc", "hdm"),
    ("hdm", "HdmAllocator", "free", "hdm"),
    ("hdm", None, "km_place", "hdm"),
    ("cli", None, "main", "cli"),
    ("cli", None, "run_one", "cli"),
    ("cli", None, "atomic_write", "cli"),
)

# Span names whose counts the benchmark reports.
EVENTS = "engine.Engine.schedule"
REQUESTS = "host.Injector.issue"
CHASE = "workloads.build_chase_cycle"
BUILD_SYSTEM = "config.build_system"
RECORD_NAMES = ("stats.Counter.inc", "stats.Gauge.add", "stats.Gauge.set",
                "stats.Mean.record", "stats.Histogram.record",
                "stats.StatsRegistry.record")

_FUNCTION_TYPES = (types.FunctionType, types.MethodType)
# A span record is kept when ``packet_id & SAMPLE_MASK == 0``: every 4096th
# id of each packet-id counter, up to MAX_RECORDS records.
SAMPLE_MASK = 0xFFF
MAX_RECORDS = 50_000


def _code_of(fn):
    return fn.__func__.__code__ if type(fn) is types.MethodType else fn.__code__


class Tracer:
    """Use as a context manager around the simulator run: entering installs
    the wrappers and leaving removes them, also when the run raises."""

    def __init__(self):
        # name -> [calls, total_s, self_s, layer]
        self.by_name: Dict[str, list] = {}
        # Span records: (span, name, start, end, parent, cause, packet).
        self.records: List[tuple] = []
        # Every System that build_system returned while installed.
        self.systems: list = []
        self._stack: List[list] = []
        self._next_span = 1
        self._patches: List[Tuple[object, str, object]] = []
        self._layer_of_file: Dict[str, str] = {}
        self._callback_recs: Dict[object, Tuple[str, list]] = {}
        self._packet_types: tuple = ()

    # -- span bookkeeping ---------------------------------------------------

    def _rec(self, name: str, layer: str) -> list:
        rec = self.by_name.get(name)
        if rec is None:
            rec = self.by_name[name] = [0, 0.0, 0.0, layer]
        return rec

    def _run(self, name, rec, fn, args, kwargs, cause, packet):
        """Run ``fn`` inside a span; ``cause`` is a span id or None."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if packet is None and parent is not None:
            packet = parent[3]
        span = self._next_span
        self._next_span = span + 1
        rec[0] += 1
        frame = [perf_counter(), 0.0, span, packet]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            end = perf_counter()
            dur = end - frame[0]
            rec[1] += dur
            rec[2] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
            if (packet is not None and not packet & SAMPLE_MASK
                    and len(self.records) < MAX_RECORDS):
                self.records.append(
                    (span, name, frame[0], end,
                     parent[2] if parent is not None else None,
                     cause if cause is not None else
                     (parent[2] if parent is not None else None),
                     packet))

    def _wrap_callable(self, fn):
        """Wrap a callable handed across an entry point, charged to the
        layer whose module defines it; the current span is its cause."""
        code = _code_of(fn)
        entry = self._callback_recs.get(code)
        if entry is None:
            layer = self._layer_of_file.get(code.co_filename)
            if layer is None:       # tracer wrappers and foreign code
                return fn
            name = f"{layer}.cb.{getattr(code, 'co_qualname', code.co_name)}"
            entry = self._callback_recs[code] = (name, self._rec(name, layer))
        name, rec = entry
        top = self._stack[-1] if self._stack else None
        cause = top[2] if top is not None else None
        packet = top[3] if top is not None else None
        run = self._run

        def callback(*args, **kwargs):
            return run(name, rec, fn, args, kwargs, cause, packet)

        return callback

    def _entry(self, name: str, layer: str, fn):
        rec = self._rec(name, layer)
        run = self._run
        wrap = self._wrap_callable
        packet_types = self._packet_types
        results = self.systems if name == BUILD_SYSTEM else None

        def entry(*args, **kwargs):
            packet = None
            if any(type(a) in _FUNCTION_TYPES for a in args):
                args = tuple(wrap(a) if type(a) in _FUNCTION_TYPES else a
                             for a in args)
            for key, value in kwargs.items():
                if type(value) in _FUNCTION_TYPES:
                    kwargs[key] = wrap(value)
            for a in args:
                if type(a) in packet_types:
                    packet = a.id
                    break
            out = run(name, rec, fn, args, kwargs, None, packet)
            if results is not None:
                results.append(out)
            return out

        return entry

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"cxlsim.{name}")
                   for name in LAYER_OF_MODULE}
        self._layer_of_file = {mod.__file__: LAYER_OF_MODULE[name]
                               for name, mod in modules.items()}
        self._packet_types = (modules["host"].MemPacket,
                              modules["bridge"].CxlMemPacket)
        replaced: Dict[int, object] = {}
        for mod_name, owner_name, attr, layer in ENTRY_POINTS:
            module = modules[mod_name]
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner).get(attr)
            if not isinstance(original, types.FunctionType):
                continue
            prefix = f"{layer}.{owner_name}." if owner_name else f"{layer}."
            wrapper = self._entry(prefix + attr, layer, original)
            self._patch(owner, attr, wrapper)
            if owner_name is None:
                replaced[id(original)] = (original, wrapper)
        # Re-exported module functions (``from .config import ...``).
        for module in modules.values():
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, key, hit[1])

    def _patch(self, owner, attr: str, value) -> None:
        current = vars(owner)[attr]
        if current is value:
            return
        self._patches.append((owner, attr, current))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        rec = self.by_name.get(name)
        return rec[0] if rec else 0

    def total_s(self, name: str) -> float:
        rec = self.by_name.get(name)
        return rec[1] if rec else 0.0

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for _calls, _total, self_s, layer in self.by_name.values():
            out[layer] += self_s
        return out

    def layer_calls(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for calls, _total, _self, layer in self.by_name.values():
            out[layer] += calls
        return out

    def span_records(self) -> List[dict]:
        keys = ("span", "name", "start", "end", "parent", "cause", "packet")
        return [dict(zip(keys, rec)) for rec in self.records]


def span_cost_s() -> float:
    """Host time a span adds to its own layer's self time, measured on a
    wrapped no-op.  The rest of a wrapper's cost lands on the caller."""
    trace = Tracer()
    wrapped = trace._entry("calibrate", "cli", lambda: None)
    calls = 20_000
    for _ in range(calls):
        wrapped()
    return trace.by_name["calibrate"][2] / calls

