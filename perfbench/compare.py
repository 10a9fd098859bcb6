#!/usr/bin/env python3
"""Compare two benchmark result sets, metric by metric and layer by layer.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py RESULTS.jsonl        # one set: spreads only

A result set is the JSON-lines file that ``run.py --save`` appends to, one
record per run.  End-to-end rows come from ``--trace 0`` records (or, when a
set has none for a workload, from ``--trace 1`` records); per-layer rows
come from ``--trace 1`` records.  Each row gives both sides' median and
quartiles, the pairwise wins of the change (i-th run against i-th run),
and a verdict:

- ``unresolved``: the spread (quartile distance over median) of either side
  exceeds the metric's bound, and not every change run beats every parent
  run;
- ``WORSE``: the change's median is worse than the parent's by more than the
  bound;
- ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
- ``same`` otherwise.

Per-layer metrics carry no bound: they get ``better``/``worse`` by the wins
rule, ``same`` when every value is equal, and ``changed`` for counts that
moved.  The exit code is 1 when an end-to-end metric is ``WORSE``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(path: str) -> dict:
    """{(section, workload, metric): [values in run order]}"""
    records = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                records[(rec["workload"], rec["trace"])].append(rec)
    values = defaultdict(list)
    for (workload, trace), recs in sorted(records.items()):
        sections = ["per_layer"] if trace else ["end_to_end"]
        if trace and (workload, 0) not in records:
            sections.append("end_to_end")
        for rec in recs:
            for section in sections:
                for metric, entry in rec.get(section, {}).items():
                    values[(section, workload, metric)].append(entry["value"])
    return values


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(defn, parent, change) -> tuple:
    higher = defn["better"] == "higher"

    def better(c, p):
        return c > p if higher else c < p

    pm, pq1, pq3, pspread = summary(parent)
    cm, _, _, cspread = summary(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    losses = sum(better(p, c) for p, c in pairs)
    every_run_better = all(better(c, p) for c in change for p in parent)
    clear = abs(cm - pm) > (pq3 - pq1)
    bound = defn.get("bound")
    if bound is not None:
        if max(pspread, cspread) > bound:
            word = "better" if every_run_better else "unresolved"
        elif better(pm, cm) and abs(cm - pm) > bound * abs(pm):
            word = "WORSE"
        elif wins >= 0.9 * len(pairs) and clear and better(cm, pm):
            word = "better"
        else:
            word = "same"
    elif len(set(parent + change)) == 1:
        word = "same"
    elif all(isinstance(v, int) for v in parent + change):
        word = "changed"
    elif wins >= 0.9 * len(pairs) and clear:
        word = "better"
    elif losses >= 0.9 * len(pairs) and clear:
        word = "worse"
    else:
        word = "same"
    return word, wins, len(pairs)


def fmt(value) -> str:
    return f"{value:.4g}"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    defs = {("end_to_end", d["name"]): d for d in spec["end_to_end"]}
    defs.update({("per_layer", d["name"]): d for d in spec["per_layer"]})
    sets = [load_set(path) for path in argv]
    order = {key: i for i, key in enumerate(defs)}
    keys = sorted((k for k in set().union(*sets) if (k[0], k[2]) in order),
                  key=lambda k: (k[1], order[(k[0], k[2])]))
    worse = False
    if len(sets) == 1:
        print(f"{'workload':16s} {'metric':28s} {'unit':10s} {'n':>3s} "
              f"{'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}")
    else:
        print(f"{'workload':16s} {'metric':28s} {'unit':10s} {'parent [q1, q3]':>32s} "
              f"{'change [q1, q3]':>32s} {'delta':>8s} {'wins':>6s}  verdict")
    for key in keys:
        section, workload, metric = key
        defn = defs[(section, metric)]
        bound = defn.get("bound")
        if len(sets) == 1:
            vals = sets[0][key]
            med, q1, q3, spread = summary(vals)
            flag = "  over bound/3" if bound is not None and spread > bound / 3 else ""
            print(f"{workload:16s} {metric:28s} {defn['unit']:10s} {len(vals):3d} "
                  f"{fmt(med):>10s} {fmt(q1):>10s} {fmt(q3):>10s} {spread:8.2%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6s}{flag}")
            continue
        parent, change = sets[0].get(key), sets[1].get(key)
        if not parent or not change:
            print(f"{workload:16s} {metric:28s} missing on one side")
            continue
        word, wins, pairs = verdict(defn, parent, change)
        worse |= word == "WORSE"
        pm, pq1, pq3, _ = summary(parent)
        cm, cq1, cq3, _ = summary(change)
        delta = (cm - pm) / abs(pm) if pm else 0.0
        side = lambda m, a, b: f"{fmt(m)} [{fmt(a)}, {fmt(b)}]"  # noqa: E731
        print(f"{workload:16s} {metric:28s} {defn['unit']:10s} {side(pm, pq1, pq3):>32s} "
              f"{side(cm, cq1, cq3):>32s} {delta:+8.1%} {wins:3d}/{pairs:<2d}  {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
