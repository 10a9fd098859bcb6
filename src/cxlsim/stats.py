"""Named statistics table and end-of-run reporting.

Statistic names follow the dotted vocabulary used by the simulator's
outputs (core.loadToUse::mean, bridge.reqRetryCounts, cxl.rsp::mean,
dram.avgQLat, l3.overallAvgMissLat) so run reports line up column-for-column
with the congestion-study tables this package reproduces.

Components count in plain attributes on the request path (`self.hits
+= 1`, a queue's peak kept beside its level) and register each name they
report once, with a getter that reads it.  A total that follows from
other counts is a getter too, which reads those counts at report time
instead of counting per request.  The table is read only by `flatten`, so
the one stats call left on the request path is Histogram.record, which
appends the sample to a buffer.  The buffer folds every FOLD_AT samples
and before any read, replaying them in arrival order through Welford's
update and counting buckets from one sort, so every read is bit for bit
what a per-sample update gives.
Registering a name twice fails when the table is built, so a name clash
cannot silently split samples.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from functools import partial
from typing import Callable, Dict, Optional, Sequence


class StatError(KeyError):
    pass


# Samples buffered per fold; small, so the fold left to report time is cheap.
FOLD_AT = 256
REPORT_SCHEMA = "cxlsim-report-1"


class Histogram:
    """Bucketed histogram with Welford running mean/stdev and min/max.

    `edges` are ascending bucket lower bounds starting at 0; the last
    bucket is open-ended.  Bucket labels render as "lo-hi" ("lo+" for the
    last), so edges (0, 10, 100) produce buckets 0-9, 10-99, 100+.
    """

    __slots__ = ("edges", "_counts", "_n", "_mean", "_m2", "_min", "_max",
                 "_upper", "_buf")

    def __init__(self, edges: Sequence[float]):
        if not edges or edges[0] != 0 or list(edges) != sorted(edges):
            raise ValueError("histogram edges must be ascending and start at 0")
        self.edges = tuple(edges)
        self._counts = [0] * len(edges)
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        # A sample's bucket is how many edges past the first it reaches:
        # always 0 with one edge, and for a sample below 0.
        self._upper = self.edges[1:]
        self._buf: list = []

    def record(self, sample: float) -> None:
        buf = self._buf
        buf.append(sample)
        if len(buf) == FOLD_AT:
            self._fold()

    def _fold(self) -> None:
        """Apply the buffered samples in arrival order (Welford's update)."""
        buf = self._buf
        if not buf:
            return
        n, mean, m2 = self._n, self._mean, self._m2
        for x in buf:
            n += 1
            delta = x - mean
            mean += delta / n
            m2 += delta * (x - mean)
        self._n, self._mean, self._m2 = n, mean, m2
        # min and max return the first of equal values, so a tie keeps the
        # earlier sample and its type (5 before 5.0).
        self._min = min(self._min, *buf)
        self._max = max(self._max, *buf)
        # Bucket i gains the samples below upper[i] less those below
        # upper[i - 1]: bisect_right(upper, x) per sample, from one sort.
        counts, below = self._counts, 0
        ordered = sorted(buf) if self._upper else ()
        for i, edge in enumerate(self._upper):
            reached = bisect_left(ordered, edge)
            counts[i] += reached - below
            below = reached
        counts[-1] += len(buf) - below
        buf.clear()

    def entries(self, name: str) -> Dict[str, float]:
        """The report entries of the histogram `name`: its sample count,
        mean, stdev, min and max, and the percentage of samples in each
        bucket, keyed by the bucket's label."""
        self._fold()
        n, edges = self._n, self.edges
        out = {f"{name}::samples": n,
               f"{name}::mean": self._mean if n else 0.0,
               f"{name}::stdev": math.sqrt(self._m2 / n) if n > 1 else 0.0,
               f"{name}::min_value": self._min if n else 0,
               f"{name}::max_value": self._max if n else 0}
        for i, count in enumerate(self._counts):
            label = (f"{_fmt_edge(edges[i])}-{_fmt_edge(edges[i + 1] - 1)}"
                     if i + 1 < len(edges) else f"{_fmt_edge(edges[i])}+")
            out[f"{name}::{label}"] = round(100.0 * (count / n), 6) if n else 0.0
        return out

    def percentile(self, p: float) -> float:
        """Approximate percentile by linear interpolation within buckets."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        self._fold()
        if self._n == 0:
            return 0.0
        target = p / 100.0 * self._n
        seen, top = 0, self._max + 1
        for i, count in enumerate(self._counts):
            if seen + count >= target and count > 0:
                lo = max(self.edges[i], self._min)
                hi = (min(self.edges[i + 1], top) if i + 1 < len(self.edges)
                      else top)
                return lo + (target - seen) / count * (hi - lo)
            seen += count
        return float(self._max)


def _fmt_edge(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else str(value)


# perfbench/tracer.py resolves every class its entry-point table names and
# fails on a missing one.  Counter, Gauge and Mean are gone; their names
# stay bound to an empty class until that table drops them.
Counter = Gauge = Mean = type("RetiredStat", (), {})


class StatsRegistry:
    """Table of report names, each read by a getter or a histogram."""

    def __init__(self):
        self._getters: Dict[str, Callable[[], float]] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _claim(self, name: str) -> None:
        if name in self._getters or name in self._histograms:
            raise StatError(f"statistic {name!r} registered twice")

    def add(self, name: str, getter: Callable[[], float]) -> None:
        """Report `name` as what `getter()` returns at report time."""
        self._claim(name)
        self._getters[name] = getter

    def counters(self, obj, names: Dict[str, str]) -> None:
        """Report each name in `names` as the attribute of `obj` it maps
        to; the attribute starts at 0 and `obj` counts in it."""
        for name, attr in names.items():
            setattr(obj, attr, 0)
            self.add(name, partial(getattr, obj, attr))

    def histogram(self, name: str, edges: Sequence[float] = (0,)) -> Histogram:
        self._claim(name)
        hist = self._histograms[name] = Histogram(edges)
        return hist

    def flatten(self) -> Dict[str, float]:
        """Flatten to scalar report entries with stable (sorted) keys."""
        out = {name: get() for name, get in self._getters.items()}
        for name, stat in self._histograms.items():
            out.update(stat.entries(name))
        return dict(sorted(out.items()))


class RunReport:
    """Immutable end-of-run report; identical (config, seed) runs must
    serialize byte-identically."""

    def __init__(self, config_digest: str, seed: int,
                 stats: Dict[str, float],
                 workload: Optional[Dict[str, object]] = None,
                 schema: str = REPORT_SCHEMA):
        self.config_digest = config_digest
        self.seed = seed
        self.stats = stats
        self.workload = {} if workload is None else workload
        self.schema = schema

    def to_json(self) -> str:
        payload = {
            "schema": self.schema,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "stats": self.stats,
            "workload": self.workload,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunReport":
        raw = json.loads(text)
        return RunReport(
            config_digest=raw["config_digest"],
            seed=raw["seed"],
            stats=raw["stats"],
            workload=raw.get("workload", {}),
            schema=raw.get("schema", REPORT_SCHEMA),
        )


def config_digest(config: dict) -> str:
    """Stable digest of a canonicalized configuration dictionary."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
