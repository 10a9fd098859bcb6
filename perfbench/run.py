#!/usr/bin/env python3
"""Host-time benchmark for cxlsim.

    python3 perfbench/run.py --workload latency_chase --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --save results.jsonl

Run from the repository root (any checkout that holds ``src/cxlsim``).
One call runs a workload's configs through the in-process ``cxlsim run``
path (``cxlsim.cli.main``), from config validation to the last report file
written.  Calls repeat, untraced, until ``--seconds`` have passed, each
between two runs of a speed probe, and the end-to-end metrics are medians
over the calls in reference seconds (see README.md).  With ``--trace 1`` one
further call runs under the outside-in tracer (tracer.py) and the
per-layer metrics are printed instead.  Every call's outputs are checked
(suite.py); the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every call passed.  Metric names, units and bounds are those of
BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import OrderedDict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

if not (SRC / "cxlsim" / "__init__.py").is_file():
    sys.exit(f"perfbench: no simulator source at {SRC / 'cxlsim'}")
sys.path.insert(0, str(SRC))

from cxlsim import cli  # noqa: E402
from cxlsim.engine import Engine  # noqa: E402
from cxlsim.host import Target  # noqa: E402

import suite  # noqa: E402
import tracer  # noqa: E402


# The speed probe's time on the baseline machine at a typical speed.  An
# end-to-end host time is reported in reference seconds: measured seconds
# times PROBE_REF_S over the probe time measured next to the call, which
# cancels most of the drift in this shared machine's speed.
PROBE_REF_S = 0.020
PROBE_EVENTS = 8_000


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


class EngineRunTimer:
    """Times ``Engine.run``, the event loop, and reads each engine's event
    count when it returns.  This is the only hook in an untraced call: it
    runs once per drain of the event queue, never per event."""

    def __init__(self):
        self.run_s = 0.0
        self.events_by_engine = {}

    def __enter__(self) -> "EngineRunTimer":
        original = self._original = Engine.run

        def run(engine):
            start = perf_counter()
            try:
                return original(engine)
            finally:
                self.run_s += perf_counter() - start
                self.events_by_engine[engine] = engine._seq

        Engine.run = run
        return self

    def __exit__(self, *exc) -> None:
        Engine.run = self._original


def _probe_work() -> int:
    """A fixed pure-Python job shaped like an event loop: a heap of
    (time, seq, closure) entries whose closures update a bounded
    OrderedDict.  It shares no code with the simulator, so a change to the
    simulator cannot move it."""
    heap = []
    table = OrderedDict()
    fired = [0]

    def make(i):
        def action():
            fired[0] += 1
            key = (i * 2654435761) & 4095
            if key in table:
                table.move_to_end(key)
            else:
                table[key] = i
                if len(table) > 2048:
                    table.popitem(last=False)
        return action

    for i in range(PROBE_EVENTS):
        heapq.heappush(heap, ((i * 7919) % 10007, i, make(i)))
    while heap:
        heapq.heappop(heap)[2]()
    return fired[0]


def probe_s(repeats: int = 7) -> float:
    """Current machine speed: median time of the probe job."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _probe_work()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _cli_runs(cfg_paths, seed: int, out_dir: Path) -> None:
    for i, path in enumerate(cfg_paths):
        code = cli.main(["run", "--config", str(path), "--seed", str(seed),
                         "--out", str(out_dir / f"run{i}")])
        if code != 0:
            raise RuntimeError(f"cxlsim run exited {code} on {path}")


def _read_reports(n: int, out_dir: Path):
    digest = hashlib.sha256()
    reports = []
    for i in range(n):
        data = (out_dir / f"run{i}" / "report.json").read_bytes()
        digest.update(data)
        reports.append(json.loads(data))
    return digest.hexdigest(), reports


def timed_call(name: str, cfg_paths, seed: int, out_dir: Path) -> dict:
    """One untraced call; returns its timings, counts and check results."""
    gc.collect()
    with EngineRunTimer() as timer, contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        _cli_runs(cfg_paths, seed, out_dir)
        wall = perf_counter() - start
    digest, reports = _read_reports(len(cfg_paths), out_dir)
    run_events = list(timer.events_by_engine.values())
    return {"wall_s": wall, "setup_s": wall - timer.run_s,
            "events": sum(run_events), "run_events": run_events,
            "digest": digest, "reports": reports,
            "errors": suite.check(name, reports)}


def traced_call(name: str, cfg_paths, seed: int, out_dir: Path) -> dict:
    gc.collect()
    trace = tracer.Tracer()
    with trace, contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        _cli_runs(cfg_paths, seed, out_dir)
        wall = perf_counter() - start
    digest, reports = _read_reports(len(cfg_paths), out_dir)
    return {"wall_s": wall, "tracer": trace, "digest": digest,
            "reports": reports, "errors": suite.check(name, reports)}


def _attempt(fn, *args) -> dict:
    try:
        return fn(*args)
    except Exception as exc:  # a failed run is counted, not fatal
        return {"errors": [f"{type(exc).__name__}: {exc}"]}


def layer_metrics(name: str, cfgs, untraced: dict, traced: dict,
                  digest_match: bool) -> dict:
    trace = traced["tracer"]
    reports = traced["reports"]

    def total(key):
        return sum(r["stats"].get(key, 0) for r in reports)

    def ratio(num, den):
        return num / den if den else 0.0

    self_s = trace.layer_self_s()
    run_s = untraced["wall_s"] - untraced["setup_s"]
    events = trace.calls(tracer.EVENTS)
    requests = trace.calls(tracer.REQUESTS)
    m = {f"{layer}.self_s": self_s[layer] for layer in tracer.LAYERS}
    m.update({
        "engine.run_s": run_s,
        "engine.events": events,
        "engine.events_per_req": ratio(events, requests),
        "engine.events_per_s": ratio(events, run_s),
        "host.requests": requests,
        "host.cache_lookups": sum(total(f"{c}.lookups") for c in ("l1", "l2", "l3")),
        "host.mshr_merges": total("l3.mshrMerges"),
        "host.membus_packets": total("membus.toLocal") + total("membus.toBridge"),
        "host.lsq_full_events": total("core.lsqFullEvents"),
        "bridge.m2s_sent": total("bridge.m2sSent"),
        "bridge.retries": total("bridge.reqRetryCounts"),
        "bridge.retries_per_req": ratio(total("bridge.reqRetryCounts"),
                                        total("bridge.m2sSent")),
        "bridge.req_fifo_peak": max(r["stats"].get("bridge.reqFifoOccupancy::max", 0)
                                    for r in reports),
        "bridge.tx_bytes": total("bridge.txBytes"),
        "bridge.rx_bytes": total("bridge.rxBytes"),
        "device.reads": total("cxl.reads"),
        "device.writes": total("cxl.writes"),
        "media.requests": (trace.calls("media.QueuedDdr.submit")
                           + trace.calls("media.CoarseDram.submit")),
        "media.turnarounds": sum(getattr(medium, "turnarounds", 0)
                                 for system in trace.systems
                                 for medium in _media(system)),
        "ssd.cache_hit_ratio": ratio(total("ssdcache.hits"),
                                     total("ssdcache.hits") + total("ssdcache.misses")),
        "ssd.prefetch_accuracy": ratio(total("ssdcache.prefetchUseful"),
                                       total("ssdcache.prefetchIssued")),
        "ssd.page_reads": total("ssd.pageReads"),
        "ssd.page_writes": total("ssd.pageWrites"),
        "ssd.cache_writebacks": total("ssdcache.writebacks"),
        "stats.records": sum(trace.calls(n) for n in tracer.RECORD_NAMES),
        "workloads.chase_s": trace.total_s(tracer.CHASE),
        "workloads.chase_share": ratio(trace.total_s(tracer.CHASE),
                                       untraced["raw_wall_s"]),
        "trace.overhead_ratio": ratio(traced["wall_s"], untraced["raw_wall_s"]),
        "sim.report_digest_match": 1 if digest_match else 0,
    })
    for level in ("l1", "l2", "l3"):
        m[f"host.{level}.hit_ratio"] = ratio(total(f"{level}.hits"),
                                             total(f"{level}.lookups"))
    m.update(suite.sim_metrics(name, cfgs, reports))
    return m


def _media(system):
    yield system.membus.targets[Target.LOCAL_DRAM].medium
    for device in system.devices:
        yield device.medium


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the record that ``--save`` writes."""
    spec = load_spec()
    cfgs = suite.configs(name)
    requests = sum(suite.requests(cfg) for cfg in cfgs)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    errors = []
    try:
        cfg_paths = []
        for i, cfg in enumerate(cfgs):
            path = work / f"config{i}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            cfg_paths.append(path)

        # The probe runs between calls; each call is scaled by the mean of
        # the probes on either side of it.
        calls = []
        start = perf_counter()
        probes = [probe_s()]
        while not calls or perf_counter() - start < seconds:
            call = _attempt(timed_call, name, cfg_paths, seed, work)
            probes.append(probe_s())
            call["probe_s"] = (probes[-2] + probes[-1]) / 2
            calls.append(call)
        ok = [c for c in calls if not c["errors"]]
        # Determinism: every call of the set must agree with the first.
        for call in ok[1:]:
            for key in ("digest", "events"):
                if call[key] != ok[0][key]:
                    call["errors"].append(f"{key} differs between calls of one set")
        for call in calls:
            errors.extend(call["errors"])
        ok = [c for c in calls if not c["errors"]]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "attempted": len(calls),
                  "failed": len(calls) - len(ok),
                  "calls": [{k: c[k] for k in ("wall_s", "setup_s", "probe_s")}
                            for c in ok]}
        if not ok:
            record["errors"] = errors
            return record

        def ref_median(key):
            return statistics.median(c[key] * PROBE_REF_S / c["probe_s"] for c in ok)

        wall = ref_median("wall_s")
        untraced = {"wall_s": wall, "setup_s": ref_median("setup_s"),
                    "raw_wall_s": statistics.median(c["wall_s"] for c in ok)}
        record["raw_wall_s"] = untraced["raw_wall_s"]
        record["raw_setup_s"] = statistics.median(c["setup_s"] for c in ok)
        record["probe_s"] = statistics.median(probes)
        record["digest"] = ok[0]["digest"]
        record["events"] = ok[0]["events"]
        # Per `cxlsim run` counts, e.g. STREAM triad's events per request.
        record["runs"] = [
            {"workload": cfg["workload"].get("kernel", cfg["workload"]["kind"]),
             "events": events, "requests": suite.requests(cfg),
             "events_per_req": events / suite.requests(cfg)}
            for cfg, events in zip(cfgs, ok[0]["run_events"])]
        record["end_to_end"] = _with_units(spec["end_to_end"], {
            "wall_s": wall, "sim_req_per_s": requests / wall,
            "setup_s": untraced["setup_s"], "peak_rss_mb": peak_rss_mb})
        if trace:
            _trace_part(name, seed, cfgs, cfg_paths, work, untraced, ok[0],
                        requests, spec, record, errors)
        record["errors"] = errors
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _trace_part(name, seed, cfgs, cfg_paths, work, untraced, first, requests,
                spec, record, errors) -> None:
    traced = _attempt(traced_call, name, cfg_paths, seed, work)
    record["attempted"] += 1
    if not traced["errors"]:
        counted = {"report sha256": (traced["digest"], first["digest"]),
                   "engine.events": (traced["tracer"].calls(tracer.EVENTS),
                                     first["events"]),
                   "host.requests": (traced["tracer"].calls(tracer.REQUESTS),
                                     requests)}
        for key, (got, want) in counted.items():
            if got != want:
                traced["errors"].append(f"traced {key} {got} != untraced {want}")
    # The stored digest was taken at the reference seed.
    reference = load_reference()
    ref_digest = first["digest"]
    if seed != reference["seed"]:
        ref_call = _attempt(timed_call, name, cfg_paths, reference["seed"], work)
        record["attempted"] += 1
        if ref_call["errors"]:
            record["failed"] += 1
            errors.extend(ref_call["errors"])
        ref_digest = ref_call.get("digest")
    record["reference_digest"] = ref_digest
    if traced["errors"]:
        record["failed"] += 1
        errors.extend(traced["errors"])
        return
    trace = traced["tracer"]
    metrics = layer_metrics(name, cfgs, untraced, traced,
                            ref_digest == reference["workloads"][name]["report_sha256"])
    record["per_layer"] = _with_units(spec["per_layer"], metrics)
    cost = tracer.span_cost_s()
    calls = trace.layer_calls()
    record["span_cost_s"] = cost
    record["layer_spans"] = calls
    record["traced_wall_s"] = traced["wall_s"]
    record["calls_by_name"] = {k: v[0] for k, v in sorted(trace.by_name.items())}
    OUT.mkdir(exist_ok=True)
    spans = {"workload": name, "seed": seed, "spans": trace.span_records()}
    (OUT / f"spans-{name}.json").write_text(json.dumps(spans), encoding="utf-8")


def _with_units(defs, values: dict) -> dict:
    names = [d["name"] for d in defs]
    if set(names) != set(values):
        raise KeyError(f"metrics {sorted(set(names) ^ set(values))} are not "
                       f"both computed and declared in BENCHMARK.json")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in defs}


def result_line(record: dict) -> dict:
    key = "per_layer" if record["trace"] else "end_to_end"
    failed = record["failed"]
    metrics = record.get(key, {}) if not failed else {}
    return {"correct": failed == 0 and bool(metrics),
            "attempted": record["attempted"], "failed": failed,
            "metrics": metrics}


def print_report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"calls {len(record['calls'])}  attempted {record['attempted']}  "
          f"failed {record['failed']}")
    print(f"  {'error_rate':32s} {record['failed'] / record['attempted']:.6g} fraction")
    for error in record.get("errors", []):
        print(f"  FAILED: {error}")
    if "digest" in record:
        print(f"  report sha256 {record['digest']}")
        print(f"  measured: wall {record['raw_wall_s']:.6g} s, setup "
              f"{record['raw_setup_s']:.6g} s, speed probe {record['probe_s']:.6g} s "
              f"(reference {PROBE_REF_S} s)")
    for section in ("end_to_end", "per_layer"):
        if section not in record:
            continue
        print(f"  -- {section} --")
        for metric, entry in record[section].items():
            line = f"  {metric:32s} {entry['value']:.6g} {entry['unit']}"
            layer = metric.split(".")[0]
            if metric.endswith(".self_s") and record.get("layer_spans", {}).get(layer):
                spans = record["layer_spans"][layer]
                line += (f"   ({spans} spans, ~{spans * record['span_cost_s']:.3g} s "
                         f"of it is span cost)")
            print(line)


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in suite.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "1"]
        if args.save:
            cmd += ["--save", args.save]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines() or ["{}"]
        print("\n".join(lines[:-1]))
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        result.update(json.loads(lines[-1]))
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(suite.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append the run's record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.save:
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print_report(record)
    line = result_line(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
