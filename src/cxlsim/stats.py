"""Named statistics registry and end-of-run reporting.

Statistic names follow the dotted vocabulary used by the simulator's
outputs (core.loadToUse::mean, bridge.reqRetryCounts, cxl.rsp::mean,
dram.avgQLat, l3.overallAvgMissLat) so run reports line up column-for-column
with the congestion-study tables this package reproduces.

Each component registers its stats once and records through the objects
it gets back.  Registering a name twice, or getting a name that was never
registered, fails fast, so a typo cannot silently split or drop samples.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Sequence


class StatError(KeyError):
    pass


class Counter:
    """Monotone event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters are monotone; use a Gauge for +/- values")
        self.value += n


class Gauge:
    """Instantaneous level with a running maximum (e.g. queue occupancy)."""

    __slots__ = ("name", "value", "max_value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.max_value = 0

    def add(self, delta: int) -> None:
        self.value += delta
        if self.value > self.max_value:
            self.max_value = self.value

    def set(self, value: int) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value


class Mean:
    """Running arithmetic mean (sum/count), reported as a single value."""

    __slots__ = ("name", "count", "total")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0

    def record(self, sample: float) -> None:
        self.count += 1
        self.total += sample

    @property
    def value(self) -> float:
        return self.total / self.count if self.count else 0.0


class Histogram:
    """Bucketed histogram with Welford running mean/stdev and min/max.

    `edges` are ascending bucket lower bounds starting at 0; the last
    bucket is open-ended.  Bucket labels render as "lo-hi" ("lo+" for the
    last), so edges (0, 10, 100) produce buckets 0-9, 10-99, 100+.
    """

    __slots__ = ("name", "edges", "counts", "n", "_mean", "_m2", "min", "max")

    def __init__(self, name: str, edges: Sequence[float] = (0,)):
        if not edges or edges[0] != 0 or list(edges) != sorted(edges):
            raise ValueError("histogram edges must be ascending and start at 0")
        self.name = name
        self.edges = tuple(edges)
        self.counts = [0] * len(edges)
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, sample: float) -> None:
        self.n += 1
        delta = sample - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (sample - self._mean)
        if sample < self.min:
            self.min = sample
        if sample > self.max:
            self.max = sample
        # The last edge <= sample; a sample below 0 counts in bucket 0.
        counts = self.counts
        if len(counts) == 1:
            counts[0] += 1
        else:
            counts[max(0, bisect_right(self.edges, sample) - 1)] += 1

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def stdev(self) -> float:
        if self.n < 2:
            return 0.0
        return math.sqrt(self._m2 / self.n)

    def bucket_label(self, i: int) -> str:
        lo = self.edges[i]
        if i + 1 == len(self.edges):
            return f"{_fmt_edge(lo)}+"
        return f"{_fmt_edge(lo)}-{_fmt_edge(self.edges[i + 1] - 1)}"

    def bucket_fraction(self, i: int) -> float:
        return self.counts[i] / self.n if self.n else 0.0

    def percentile(self, p: float) -> float:
        """Approximate percentile by linear interpolation within buckets."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        if self.n == 0:
            return 0.0
        target = p / 100.0 * self.n
        seen = 0
        for i, count in enumerate(self.counts):
            if seen + count >= target and count > 0:
                lo = self.edges[i]
                hi = self.edges[i + 1] if i + 1 < len(self.edges) else self.max + 1
                lo = max(lo, self.min)
                hi = min(hi, self.max + 1)
                inside = (target - seen) / count
                return lo + inside * (hi - lo)
            seen += count
        return float(self.max)


def _fmt_edge(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else str(value)


class StatsRegistry:
    """Flat registry of named counters, gauges, means, and histograms."""

    def __init__(self):
        self._stats: Dict[str, object] = {}

    def _register(self, stat):
        if stat.name in self._stats:
            raise StatError(f"statistic {stat.name!r} registered twice")
        self._stats[stat.name] = stat
        return stat

    def counter(self, name: str) -> Counter:
        return self._register(Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._register(Gauge(name))

    def mean(self, name: str) -> Mean:
        return self._register(Mean(name))

    def histogram(self, name: str, edges: Sequence[float] = (0,)) -> Histogram:
        return self._register(Histogram(name, edges))

    def get(self, name: str):
        try:
            return self._stats[name]
        except KeyError:
            raise StatError(f"statistic {name!r} was never registered") from None

    def flatten(self) -> Dict[str, float]:
        """Flatten to scalar report entries with stable (sorted) keys."""
        out: Dict[str, float] = {}
        for name in sorted(self._stats):
            stat = self._stats[name]
            if isinstance(stat, Counter):
                out[name] = stat.value
            elif isinstance(stat, Gauge):
                out[name] = stat.value
                out[f"{name}::max"] = stat.max_value
            elif isinstance(stat, Mean):
                out[name] = stat.value
            elif isinstance(stat, Histogram):
                out[f"{name}::samples"] = stat.n
                out[f"{name}::mean"] = stat.mean
                out[f"{name}::stdev"] = stat.stdev
                out[f"{name}::min_value"] = stat.min if stat.n else 0
                out[f"{name}::max_value"] = stat.max if stat.n else 0
                for i in range(len(stat.edges)):
                    out[f"{name}::{stat.bucket_label(i)}"] = round(
                        100.0 * stat.bucket_fraction(i), 6
                    )
        return dict(sorted(out.items()))


@dataclass
class RunReport:
    """Immutable end-of-run report; identical (config, seed) runs must
    serialize byte-identically."""

    config_digest: str
    seed: int
    stats: Dict[str, float]
    workload: Dict[str, object] = field(default_factory=dict)
    schema: str = "cxlsim-report-1"

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
            schema=raw.get("schema", "cxlsim-report-1"),
        )


def config_digest(config: dict) -> str:
    """Stable digest of a canonicalized configuration dictionary."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
