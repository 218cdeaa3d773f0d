"""Metric primitives: counters, gauges, log-scale histograms.

PR 1's :class:`~repro.observability.stats.StageStats` snapshots can
*count* what the engine did; they cannot describe *distributions* —
and the paper's headline claim ("a policy carried by an sp takes
effect for the very next tuple") is a latency distribution, not a
count.  This module adds the three Prometheus-style primitives and a
:class:`MetricsRegistry` that names them:

* :class:`Counter` — monotonically increasing totals (tuples passed,
  tuples dropped, denial-by-default drops).
* :class:`Gauge` — point-in-time values, either set explicitly or read
  through a callback at collection time (queue depths, SPIndex scan
  counters) so the hot path pays nothing.
* :class:`Histogram` — fixed log-scale buckets with a quantile
  estimator (operator latency, end-to-end tuple latency, policy
  propagation lag, segment sizes).

Instruments are grouped into *families* carrying a name, a help
string and declared label names; children are one instrument per
label-value combination.  Hot paths pre-bind children once (at
:meth:`~repro.operators.base.Operator.bind_metrics` time), so a
recording site is a single attribute check plus an increment.

Everything here is dependency-free and — like the rest of the
observability package — entirely absent from an unobserved DSMS: a
:class:`~repro.engine.dsms.DSMS` without a registry never constructs
any of these objects.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Callable, Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "log_buckets",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
]


def log_buckets(low: float, high: float,
                per_decade: int = 4) -> tuple[float, ...]:
    """Log-spaced histogram bucket upper bounds covering [low, high].

    ``per_decade`` bounds per factor of 10, inclusive of both ends:
    ``log_buckets(1e-6, 10.0, 4)`` spans seven decades in 29 buckets.
    The fixed grid keeps histograms mergeable across operators and
    runs (identical ``le`` labels in the Prometheus exposition).
    """
    if low <= 0 or high <= low:
        raise ValueError("need 0 < low < high for log-scale buckets")
    if per_decade <= 0:
        raise ValueError("per_decade must be positive")
    from math import ceil, log10

    lo_exp = log10(low)
    steps = ceil(round((log10(high) - lo_exp) * per_decade, 9))
    return tuple(round(10 ** (lo_exp + i / per_decade), 12)
                 for i in range(steps + 1))


#: Default latency buckets: 1 µs .. 10 s, four per decade.
LATENCY_BUCKETS = log_buckets(1e-6, 10.0, 4)

#: Default size buckets (segment sizes, batch sizes): 1 .. 10⁶.
SIZE_BUCKETS = log_buckets(1.0, 1e6, 3)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def current(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A point-in-time value: set directly, or read via callback.

    ``set_function`` turns the gauge into a pull-mode instrument: the
    callback is invoked at *collection* time (export, snapshot),
    so instrumented state (operator queue depths, index counters) is
    observed with zero hot-path cost.
    """

    __slots__ = ("value", "_fn")
    kind = "gauge"

    def __init__(self):
        self.value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the gauge through ``fn`` at collection time."""
        self._fn = fn

    def current(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.current()})"


class Histogram:
    """Fixed-bucket histogram with sum, count and quantile estimates.

    ``bounds`` are the bucket *upper* bounds (inclusive, log-spaced by
    default); one overflow bucket catches everything above the last
    bound.  Quantiles are estimated by locating the target rank's
    bucket and interpolating linearly inside it — exact enough for
    monitoring with log-scale buckets (relative error bounded by the
    bucket width).
    """

    __slots__ = ("bounds", "counts", "sum", "count", "max", "exemplars")
    kind = "histogram"

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS):
        self.bounds = tuple(bounds)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        #: Per-bucket counts; the final slot is the overflow bucket.
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.max = 0.0
        #: Lazily created ``{bucket_index: (value, trace_id, wall)}`` —
        #: the most recent traced observation per bucket, linking the
        #: distribution back to concrete causal traces.
        self.exemplars: dict[int, tuple[float, int, float]] | None = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value > self.max:
            self.max = value

    def observe_many(self, value: float, count: int) -> None:
        """Observe ``value`` ``count`` times, in one update."""
        self.counts[bisect_left(self.bounds, value)] += count
        self.sum += value * count
        self.count += count
        if value > self.max:
            self.max = value

    def exemplar(self, value: float, trace_id: int, *,
                 wall: float | None = None) -> None:
        """Tag ``value``'s bucket with the sampled trace that saw it.

        Called *in addition to* :meth:`observe`, and only for values
        observed on a sampled trace — so the cost is bounded by the
        sampling rate, and every exemplar points at a trace whose
        spans were actually recorded.
        """
        if self.exemplars is None:
            self.exemplars = {}
        index = bisect_left(self.bounds, value)
        self.exemplars[index] = (value, trace_id,
                                 wall if wall is not None else time.time())

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts (Prometheus ``le`` semantics)."""
        out: list[int] = []
        running = 0
        for n in self.counts[:-1]:
            running += n
            out.append(running)
        return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 ≤ q ≤ 1) of observed values."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0.0
        for index, upper in enumerate(self.bounds):
            in_bucket = self.counts[index]
            if running + in_bucket >= target and in_bucket:
                lower = self.bounds[index - 1] if index else 0.0
                fraction = (target - running) / in_bucket
                return lower + fraction * (upper - lower)
            running += in_bucket
        # Overflow bucket: the best point estimate is the observed max.
        return self.max

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def current(self) -> float:
        """Scalar rendering (the mean) for uniform snapshot APIs."""
        return self.mean()

    def __repr__(self) -> str:
        return (f"Histogram(count={self.count}, sum={self.sum:.6g}, "
                f"buckets={len(self.bounds)})")


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric with declared labels and one child per series."""

    __slots__ = ("name", "help", "kind", "label_names", "buckets",
                 "_children")

    def __init__(self, name: str, help: str, kind: str,
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if kind != "histogram" and buckets is not None:
            raise ValueError("buckets apply to histograms only")
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = tuple(label_names)
        self.buckets = (tuple(buckets) if buckets is not None
                        else LATENCY_BUCKETS)
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, *values, **kwargs):
        """The child instrument for one label-value combination.

        Accepts positional values (in declared order) or keyword
        values; children are created on first use and cached, so hot
        paths should pre-bind the returned instrument.
        """
        if kwargs:
            if values:
                raise ValueError("pass labels positionally or by "
                                 "keyword, not both")
            try:
                values = tuple(str(kwargs.pop(name))
                               for name in self.label_names)
            except KeyError as exc:
                raise ValueError(
                    f"{self.name}: missing label {exc.args[0]!r}"
                ) from None
            if kwargs:
                raise ValueError(
                    f"{self.name}: unknown labels {sorted(kwargs)}")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {len(values)} value(s)")
        child = self._children.get(values)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self.buckets)
            else:
                child = _KINDS[self.kind]()
            self._children[values] = child
        return child

    def series(self) -> Iterator[tuple[tuple[str, ...], object]]:
        """All (label values, child) pairs, insertion-ordered.

        Iterates over a point-in-time copy, so a concurrent recording
        thread creating a new child mid-collection cannot blow up the
        exporter with ``dictionary changed size during iteration``.
        """
        return iter(tuple(self._children.items()))

    def __len__(self) -> int:
        return len(self._children)

    # -- unlabeled convenience -------------------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self.labels().set_function(fn)

    def __repr__(self) -> str:
        return (f"MetricFamily({self.name!r}, {self.kind}, "
                f"series={len(self._children)})")


class MetricsRegistry:
    """Named metric families, created idempotently, collected in order.

    The registry is the unit the
    :class:`~repro.observability.hub.Observability` hub carries and
    the exporters read.  Re-registering an existing name
    returns the existing family (so shared operators across queries
    land in one series set) but raises if the kind or labels differ.
    """

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}

    def _register(self, name: str, help: str, kind: str,
                  label_names: Sequence[str],
                  buckets: Sequence[float] | None = None) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != tuple(
                    label_names):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}{family.label_names}")
            return family
        family = MetricFamily(name, help, kind, label_names,
                              buckets=buckets)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help, "counter", labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        return self._register(name, help, "gauge", labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] | None = None) -> MetricFamily:
        return self._register(name, help, "histogram", labels,
                              buckets=buckets)

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def collect(self) -> Iterator[MetricFamily]:
        """All registered families, registration-ordered (snapshot
        copy — safe against concurrent registration)."""
        return iter(tuple(self._families.values()))

    def snapshot(self) -> dict:
        """Plain-data rendering of every series (JSON-friendly)."""
        out: dict = {}
        for family in self.collect():
            series = []
            for values, child in family.series():
                labels = dict(zip(family.label_names, values))
                if family.kind == "histogram":
                    entry = {
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "max": child.max,
                        "buckets": dict(zip(
                            (str(b) for b in family.buckets),
                            child.cumulative())),
                        "p50": child.quantile(0.5),
                        "p95": child.quantile(0.95),
                        "p99": child.quantile(0.99),
                    }
                    if child.exemplars:
                        entry["exemplars"] = [
                            {"value": value, "trace_id": trace_id,
                             "wall": wall}
                            for _, (value, trace_id, wall)
                            in sorted(tuple(child.exemplars.items()))]
                    series.append(entry)
                else:
                    series.append({"labels": labels,
                                   "value": child.current()})
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "series": series,
            }
        return out

    def __len__(self) -> int:
        return len(self._families)

    def __repr__(self) -> str:
        return f"MetricsRegistry(families={len(self._families)})"
