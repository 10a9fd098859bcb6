"""Command-line front end: run, sweep, report, presets.

Every output file is written atomically (temp file + rename) so an
interrupted run never leaves a truncated report behind.  Sweep points are
independent simulations and run in parallel worker processes, capped by
the CXLSIM_THREADS environment variable.  The pool's module,
multiprocessing, is imported only when a sweep runs more than one worker,
so a run or a one-worker sweep never loads it.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import io
import json
import os
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

from . import config as cfgmod
from .config import ConfigError, merge_config, preset
from .host import SimFault
from .stats import RunReport, config_digest

TABLE5_ROWS = [
    ("Aggregate QPS", "workload", "aggregateQps"),
    ("core.loadToUse::mean", "stats", "core.loadToUse::mean"),
    ("core.loadToUse::stdev", "stats", "core.loadToUse::stdev"),
    ("core.loadToUse::0-9", "stats", "core.loadToUse::0-9"),
    ("core.loadToUse::min_value", "stats", "core.loadToUse::min_value"),
    ("core.loadToUse::max_value", "stats", "core.loadToUse::max_value"),
    ("core.lsqFullEvents", "stats", "core.lsqFullEvents"),
    ("l3.overallAvgMissLat", "stats", "l3.overallAvgMissLat::mean"),
    ("bridge.reqRetryCounts", "stats", "bridge.reqRetryCounts"),
    ("cxl.rsp::mean", "stats", "cxl.rsp::mean"),
]


def atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def render_csv(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _resolve_config(args) -> dict:
    """Merge preset and config file (file wins).

    A config file used together with --preset may be partial; it is only
    validated after the merge.
    """
    cfg: Optional[dict] = None
    if args.preset:
        cfg = preset(args.preset)
    if args.config:
        raw = cfgmod.read_json(args.config)
        cfg = raw if cfg is None else merge_config(cfg, raw)
    if cfg is None:
        raise ConfigError("provide --config and/or --preset")
    if args.seed is not None and isinstance(cfg, dict):
        cfg["seed"] = args.seed
    return cfg


def run_one(cfg: dict, out_dir: str) -> RunReport:
    """Check `cfg`, create `out_dir`, run the checked view and write the
    output files there.  Below the parser only this function holds the
    raw config, which the report's digest hashes."""
    c = cfgmod.check_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    result = cfgmod.run_workload(c)
    report = RunReport(config_digest=config_digest(cfg), seed=c.seed,
                       stats=result.system.stats.flatten(),
                       workload=dict(result.summary, label=c.label))
    atomic_write(os.path.join(out_dir, "report.json"), report.to_json() + "\n")
    atomic_write(os.path.join(out_dir, "curve.csv"),
                 render_csv(result.columns, result.rows))
    atomic_write(os.path.join(out_dir, "config.json"),
                 json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return report


def cmd_run(args) -> int:
    run_one(_resolve_config(args), args.out)
    print(f"wrote {os.path.join(args.out, 'report.json')}")
    return 0


# -- sweep ----------------------------------------------------------------------


def _field(cfg: dict, path: str):
    """The (container, key) of the config field that the dotted `path`
    names, read as container[key] and set the same way; a part `name[i]`
    names element i of the list `name`."""
    node = cfg
    for part in path.split("."):
        name, bracket, idx = part.partition("[")
        try:
            container, key = node, name
            if bracket:
                container, key = node[name], int(idx[:-1])
            node = container[key]
        except (KeyError, IndexError, TypeError, ValueError):
            raise ConfigError(f"sweep param {path!r}: no field {part!r}") from None
    return container, key


def _parse_grid(grid: str) -> List:
    values = []
    for item in grid.split(","):
        item = item.strip()
        try:
            values.append(int(item))
        except ValueError:
            try:
                values.append(float(item))
            except ValueError:
                raise ConfigError(f"grid value {item!r} is not numeric") from None
    return values


def _sweep_worker(payload: Tuple[str, str]) -> dict:
    cfg_json, out_dir = payload
    return run_one(json.loads(cfg_json), out_dir).workload


def _threads() -> int:
    env = os.environ.get("CXLSIM_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            threads = 0
        if threads < 1:
            raise ConfigError("CXLSIM_THREADS: expected a positive integer, "
                              f"got {env!r}")
        return threads
    return min(4, os.cpu_count() or 1)


def cmd_sweep(args) -> int:
    base = _resolve_config(args)
    container, key = _field(base, args.param)
    current = container[key]
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise ConfigError(f"sweep param {args.param!r} is not numeric "
                          f"(found {type(current).__name__})")
    values = _parse_grid(args.grid)
    jobs = []
    # Every point is validated before any runs or writes its directory.
    for i, value in enumerate(values):
        cfg = copy.deepcopy(base)
        container, key = _field(cfg, args.param)
        container[key] = value
        label = cfgmod.check_config(cfg).label
        cfg["label"] = f"{label}@{args.param}={value}"
        jobs.append((json.dumps(cfg, sort_keys=True),
                     os.path.join(args.out, f"point_{i:03d}_{value}")))
    threads = min(_threads(), len(jobs))
    os.makedirs(args.out, exist_ok=True)

    if threads > 1:
        import multiprocessing
        with multiprocessing.Pool(threads) as pool:
            summaries = pool.map(_sweep_worker, jobs)
    else:
        summaries = [_sweep_worker(job) for job in jobs]

    keys = sorted({key for summary in summaries
                   for key, val in summary.items()
                   if isinstance(val, (int, float))
                   and not isinstance(val, bool)})
    columns = ["param", "value"] + keys
    rows = [(args.param, value, *[summary.get(k, "") for k in keys])
            for value, summary in zip(values, summaries)]
    atomic_write(os.path.join(args.out, "sweep.csv"), render_csv(columns, rows))
    print(f"wrote {os.path.join(args.out, 'sweep.csv')}")
    return 0


# -- report ----------------------------------------------------------------------


class ReportError(RuntimeError):
    pass


_NUMBER = (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
           "a number")
_PAIRS = (lambda v: isinstance(v, list) and all(
    isinstance(row, list) and len(row) == 2 and all(map(_NUMBER[0], row))
    for row in v), "a list of rows of two numbers")


def _curves(field: str, x_column: str, suffix: str, mismatch: str):
    """A figure that joins the runs' (x, y) rows in `field` on x: a row per
    x value, a column per run, and a ReportError if the x values differ."""
    def build(reports, labels):
        curves = [r.workload[field] for r in reports]
        xs = [row[0] for row in curves[0]]
        if any([row[0] for row in curve] != xs for curve in curves):
            raise ReportError(mismatch)
        return ([x_column] + [f"{lbl}{suffix}" for lbl in labels],
                [(x, *[curve[i][1] for curve in curves])
                 for i, x in enumerate(xs)])
    return build


def _per_run(*columns: str):
    """A figure with a row per run: the workload fields `columns`, where
    "label" is the run's label."""
    def build(reports, labels):
        return list(columns), [
            tuple(lbl if c == "label" else r.workload[c] for c in columns)
            for lbl, r in zip(labels, reports)]
    return build


def _table5(reports, labels):
    return ["statistic"] + labels, [
        (row_name, *[(r.workload if source == "workload" else r.stats)
                     .get(key, "") for r in reports])
        for row_name, source, key in TABLE5_ROWS]


# figure -> (workload kind of every run, {workload field the figure reads:
# (check of its shape, the shape)}, builder of its columns and rows)
FIGURES = {
    "latency": ("latency_sweep", {"curve": _PAIRS},
                _curves("curve", "array_bytes", "_ns",
                        "latency runs cover different array sizes")),
    "stream": ("stream", {"kernel": (lambda v: isinstance(v, str), "a string"),
                          "bytes_per_sec": _NUMBER},
               _per_run("kernel", "label", "bytes_per_sec")),
    "rdwr": ("rdwr_sweep", {"peaks": _PAIRS},
             _curves("peaks", "read_fraction", "_peak_bytes_per_sec",
                     "rdwr runs cover different read fractions")),
    "table5": ("dlrm_proxy", {}, _table5),
    "ssd": ("kv_proxy", {"throughput_ops_per_sec": _NUMBER},
            _per_run("label", "throughput_ops_per_sec")),
}


def _load_reports(dirs: Sequence[str], figure: str) -> List[RunReport]:
    """Each run's report.json; one that is not a report of the run kind
    `figure` needs, or lacks a field the figure reads or holds it in
    another shape, is a ReportError naming the file."""
    kind, fields, _ = FIGURES[figure]
    reports = []
    for d in dirs:
        path = os.path.join(d, "report.json")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                report = RunReport.from_json(fh.read())
            except (ValueError, KeyError, TypeError) as exc:
                raise ReportError(f"{path}: not a cxlsim report "
                                  f"({type(exc).__name__}: {exc})") from None
        workload = report.workload
        if not isinstance(workload, dict) or not isinstance(report.stats, dict):
            raise ReportError(f"{path}: stats and workload must be objects")
        if workload.get("kind") != kind:
            raise ReportError(f"{path}: figure {figure} needs a {kind} run, "
                              f"got {workload.get('kind')!r}")
        for key, (check, shape) in fields.items():
            if not check(workload.get(key)):
                raise ReportError(f"{path}: workload.{key} must be {shape}")
        reports.append(report)
    return reports


def build_figure(reports: List[RunReport], figure: str):
    """The figure's columns and rows from reports _load_reports checked."""
    labels = [r.workload.get("label", f"run{i}") for i, r in enumerate(reports)]
    return FIGURES[figure][2](reports, labels)


def cmd_report(args) -> int:
    reports = _load_reports(args.dirs, args.figure)
    columns, rows = build_figure(reports, args.figure)
    atomic_write(args.out, render_csv(columns, rows))
    print(f"wrote {args.out}")
    return 0


def cmd_presets(args) -> int:
    if args.name:
        print(json.dumps(preset(args.name), indent=2, sort_keys=True))
    else:
        for name in cfgmod.PRESETS:
            print(name)
    return 0


# -- entry point ------------------------------------------------------------------


@functools.cache     # one parser per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cxlsim",
        description="CXL disaggregated-memory datapath simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--preset", help="named preset configuration")
        p.add_argument("--seed", type=int, default=None)

    p_run = sub.add_parser("run", help="run one configured workload")
    common(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a grid over one config field")
    common(p_sweep)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--param", required=True,
                         help="dotted config path, e.g. bridge.req_fifo_depth")
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated numeric values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="merge runs into a plot-ready table")
    p_report.add_argument("dirs", nargs="+", help="run output directories")
    p_report.add_argument("--figure", required=True,
                          choices=list(FIGURES))
    p_report.add_argument("--out", required=True, help="output CSV path")
    p_report.set_defaults(func=cmd_report)

    p_presets = sub.add_parser("presets", help="list or dump presets")
    p_presets.add_argument("name", nargs="?")
    p_presets.set_defaults(func=cmd_presets)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ReportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimFault as exc:
        print(f"simulation fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
