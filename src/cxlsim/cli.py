"""Command-line front end: run, sweep, report, presets.

Every output file is written atomically (temp file + rename) so an
interrupted run never leaves a truncated report behind.  Sweep points are
independent simulations and run in parallel worker processes, capped by
the CXLSIM_THREADS environment variable.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import multiprocessing
import os
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

from . import config as cfgmod
from .config import ConfigError, load_config, merge_config, preset
from .host import SimFault
from .stats import RunReport

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
    """Merge preset and config file (file wins), validating the result.

    A config file used together with --preset may be partial; it is only
    validated after the merge.
    """
    cfg: Optional[dict] = None
    if args.preset:
        cfg = preset(args.preset)
    if args.config:
        if cfg is None:
            cfg = load_config(args.config)
        else:
            with open(args.config, "r", encoding="utf-8") as fh:
                try:
                    overlay = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(
                        f"{args.config}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
            cfg = merge_config(cfg, overlay)
    if cfg is None:
        raise ConfigError("provide --config and/or --preset")
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfgmod.validate_config(cfg)


def run_one(cfg: dict, out_dir: str) -> RunReport:
    result = cfgmod.run_workload(cfg)
    summary = dict(result.summary)
    summary["label"] = cfg.get("label", "run")
    report = result.system.snapshot(summary)
    atomic_write(os.path.join(out_dir, "report.json"), report.to_json() + "\n")
    atomic_write(os.path.join(out_dir, "curve.csv"),
                 render_csv(result.columns, result.rows))
    atomic_write(os.path.join(out_dir, "config.json"),
                 json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return report


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    run_one(cfg, args.out)
    print(f"wrote {os.path.join(args.out, 'report.json')}")
    return 0


# -- sweep ----------------------------------------------------------------------


def _get_by_path(cfg: dict, path: str):
    node = cfg
    for part in path.split("."):
        name, bracket, idx = part.partition("[")
        try:
            if not isinstance(node, dict) or name not in node:
                raise KeyError(name)
            node = node[name]
            if bracket:
                node = node[int(idx[:-1])]
        except (KeyError, IndexError, TypeError, ValueError):
            raise ConfigError(f"sweep param {path!r}: no field {part!r}") from None
    return node


def _set_by_path(cfg: dict, path: str, value) -> None:
    """Set a field that _get_by_path has found."""
    parent, _, last = path.rpartition(".")
    node = _get_by_path(cfg, parent) if parent else cfg
    name, bracket, idx = last.partition("[")
    if bracket:
        node, name = node[name], int(idx[:-1])
    node[name] = value


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


def _sweep_worker(payload: Tuple[str, str]) -> Tuple[str, dict]:
    cfg_json, out_dir = payload
    cfg = json.loads(cfg_json)
    report = run_one(cfg, out_dir)
    return out_dir, report.workload


def _threads() -> int:
    env = os.environ.get("CXLSIM_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(
                f"CXLSIM_THREADS: expected an integer, got {env!r}") from None
    return min(4, os.cpu_count() or 1)


def cmd_sweep(args) -> int:
    base = _resolve_config(args)
    current = _get_by_path(base, args.param)
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise ConfigError(f"sweep param {args.param!r} is not numeric "
                          f"(found {type(current).__name__})")
    values = _parse_grid(args.grid)
    jobs = []
    # Every point is validated before any runs or writes its directory.
    for i, value in enumerate(values):
        cfg = copy.deepcopy(base)
        _set_by_path(cfg, args.param, value)
        cfg["label"] = f"{base.get('label', 'run')}@{args.param}={value}"
        cfgmod.validate_config(cfg)
        point_dir = os.path.join(args.out, f"point_{i:03d}_{value}")
        jobs.append((json.dumps(cfg, sort_keys=True), point_dir))

    threads = min(_threads(), len(jobs))
    if threads > 1:
        with multiprocessing.Pool(threads) as pool:
            results = pool.map(_sweep_worker, jobs)
    else:
        results = [_sweep_worker(job) for job in jobs]

    summary_keys: List[str] = []
    for _dir, summary in results:
        for key, val in sorted(summary.items()):
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                if key not in summary_keys:
                    summary_keys.append(key)
    columns = ["param", "value"] + sorted(summary_keys)
    rows = []
    for value, (_dir, summary) in zip(values, results):
        rows.append(tuple([args.param, value] +
                          [summary.get(k, "") for k in sorted(summary_keys)]))
    atomic_write(os.path.join(args.out, "sweep.csv"), render_csv(columns, rows))
    print(f"wrote {os.path.join(args.out, 'sweep.csv')}")
    return 0


# -- report ----------------------------------------------------------------------


class ReportError(RuntimeError):
    pass


# figure -> (workload kind of every run, workload fields the figure reads)
FIGURES = {
    "latency": ("latency_sweep", ("curve",)),
    "stream": ("stream", ("kernel", "bytes_per_sec")),
    "rdwr": ("rdwr_sweep", ("peaks",)),
    "table5": ("dlrm_proxy", ()),
    "ssd": ("kv_proxy", ("throughput_ops_per_sec",)),
}


def _load_reports(dirs: Sequence[str], figure: str) -> List[RunReport]:
    """Each run's report.json; one that is not a report of the run kind
    `figure` needs, or lacks a field the figure reads, is a ReportError
    naming the file."""
    kind, fields = FIGURES[figure]
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
        for key in fields:
            if key not in workload:
                raise ReportError(f"{path}: workload.{key} missing")
        reports.append(report)
    return reports


def build_figure(reports: List[RunReport], figure: str):
    """The figure's columns and rows from reports _load_reports checked."""
    labels = [r.workload.get("label", f"run{i}") for i, r in enumerate(reports)]
    if figure == "latency":
        curves = [r.workload["curve"] for r in reports]
        sizes = [row[0] for row in curves[0]]
        for curve in curves:
            if [row[0] for row in curve] != sizes:
                raise ReportError("latency runs cover different array sizes")
        columns = ["array_bytes"] + [f"{lbl}_ns" for lbl in labels]
        rows = [tuple([size] + [curve[i][1] for curve in curves])
                for i, size in enumerate(sizes)]
        return columns, rows
    if figure == "stream":
        columns = ["kernel", "label", "bytes_per_sec"]
        rows = [(r.workload["kernel"], lbl, r.workload["bytes_per_sec"])
                for lbl, r in zip(labels, reports)]
        return columns, rows
    if figure == "rdwr":
        fractions = [p[0] for p in reports[0].workload["peaks"]]
        for r in reports:
            if [p[0] for p in r.workload["peaks"]] != fractions:
                raise ReportError("rdwr runs cover different read fractions")
        columns = ["read_fraction"] + [f"{lbl}_peak_bytes_per_sec" for lbl in labels]
        rows = []
        for i, frac in enumerate(fractions):
            rows.append(tuple([frac] + [r.workload["peaks"][i][1] for r in reports]))
        return columns, rows
    if figure == "table5":
        columns = ["statistic"] + labels
        rows = []
        for row_name, source, key in TABLE5_ROWS:
            values = []
            for r in reports:
                pool = r.workload if source == "workload" else r.stats
                values.append(pool.get(key, ""))
            rows.append(tuple([row_name] + values))
        return columns, rows
    if figure == "ssd":
        columns = ["label", "throughput_ops_per_sec"]
        rows = [(lbl, r.workload["throughput_ops_per_sec"])
                for lbl, r in zip(labels, reports)]
        return columns, rows
    raise ReportError(f"unknown figure {figure!r}")


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
        for name in cfgmod.preset_names():
            print(name)
    return 0


# -- entry point ------------------------------------------------------------------


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
    except (ReportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimFault as exc:
        print(f"simulation fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
