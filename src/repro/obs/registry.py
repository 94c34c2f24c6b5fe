"""The metrics registry: named counters, gauges, and histograms.

A :class:`MetricsRegistry` is a flat namespace of metric *families*;
each family has a kind (counter / gauge / histogram), optional help
text, and labeled children (``registry.counter("sim_messages_total",
kind="ELECT")``).  Everything is dependency-free and deterministic:
histograms use fixed geometric buckets (no per-sample storage, O(1)
observe), and exports are plain dicts, JSON, JSONL append, or
Prometheus text exposition (:func:`repro.obs.prometheus.render`).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

#: Default bucket layout: geometric from 1 microsecond, factor 2.
DEFAULT_LOWEST = 1e-6
DEFAULT_FACTOR = 2.0
DEFAULT_BUCKETS = 40  # covers up to ~1e-6 * 2^40 s, far beyond any request

LabelKey = Tuple[Tuple[str, str], ...]

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def qualified_name(name: str, labels: LabelKey) -> str:
    """``name{k=v,...}`` — the flat snapshot key for a labeled child."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (sizes, dirtiness, fits)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed geometric buckets, with interpolated quantiles.

    Bucket ``0`` covers ``[0, lowest]``; bucket ``i`` covers
    ``(lowest * factor^(i-1), lowest * factor^i]``; the final overflow
    bucket holds everything above the top bound.  Quantiles interpolate
    linearly inside the matching bucket — in the overflow bucket the
    interpolation runs up to the observed maximum, since the nominal
    bound no longer limits the samples there.
    """

    __slots__ = ("name", "labels", "counts", "count", "total", "min", "max",
                 "lowest", "factor", "num_buckets", "_bounds")

    def __init__(
        self,
        name: str = "",
        labels: LabelKey = (),
        *,
        lowest: float = DEFAULT_LOWEST,
        factor: float = DEFAULT_FACTOR,
        buckets: int = DEFAULT_BUCKETS,
    ) -> None:
        if not (lowest > 0 and factor > 1):
            raise ValueError("histogram buckets need lowest > 0 and factor > 1")
        self.name = name
        self.labels = labels
        self.lowest = lowest
        self.factor = factor
        self.num_buckets = buckets
        self.counts: List[int] = [0] * (buckets + 1)
        # Upper bounds of the finite buckets, by repeated multiplication
        # (not ``lowest * factor ** i``, which rounds differently): the
        # bounds a bucket-by-bucket walk would compare against.
        bounds = []
        bound = lowest
        for _ in range(buckets):
            bounds.append(bound)
            bound *= factor
        self._bounds = tuple(bounds)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample (negatives clamp to 0)."""
        value = max(0.0, float(value))
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        # The first bucket whose bound is >= value; past the last finite
        # bound, the overflow bucket.
        self.counts[bisect_left(self._bounds, value)] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def bucket_bound(self, index: int) -> float:
        """Upper bound of bucket ``index`` (``inf`` for the overflow)."""
        if index >= self.num_buckets:
            return float("inf")
        return self.lowest * (self.factor ** index)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 < q <= 1), interpolated in-bucket."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                upper = self.lowest * (self.factor ** index)
                lower = 0.0 if index == 0 else upper / self.factor
                if index == self.num_buckets:
                    # Overflow bucket: samples are unbounded above the
                    # nominal bound, so interpolate up to the observed
                    # max instead of understating the tail.
                    upper = max(upper, self.max or upper)
                fraction = (rank - seen) / bucket_count
                value = lower + fraction * (upper - lower)
                # Clamp into the observed range so tiny sample counts
                # never report below min or above max.
                value = max(value, self.min or 0.0)
                return min(value, self.max if self.max is not None else value)
            seen += bucket_count
        return self.max or 0.0

    def summary(self) -> Dict[str, float]:
        """count / mean / min / p50 / p95 / p99 / max."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min or 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max or 0.0,
        }


class _Family:
    """One named metric family: a kind, help text, labeled children."""

    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.children: Dict[LabelKey, object] = {}


class MetricsRegistry:
    """A namespace of metric families with labeled children.

    ``counter`` / ``gauge`` / ``histogram`` create-or-return the child
    for the given labels, so call sites just ask for what they need:

    >>> registry = MetricsRegistry()
    >>> registry.counter("sim_messages_total", kind="ELECT").inc()
    >>> registry.counter("sim_messages_total", kind="ELECT").value
    1.0

    Registering the same name under a different kind is an error.

    Labeled children are capped at ``max_label_children`` per family
    (per-tile and per-worker labels must not grow unbounded at 100k
    tiles): past the cap, new label sets get a detached, unregistered
    child — call sites keep working, exports stay bounded — and the
    ``obs_dropped_labels_total{family=...}`` counter records the drop.
    """

    #: Dropped-labels counter family (exempt from the cap itself).
    DROPPED_LABELS = "obs_dropped_labels_total"

    def __init__(self, *, max_label_children: int = 1024) -> None:
        if max_label_children < 1:
            raise ValueError("max_label_children must be positive")
        self._families: Dict[str, _Family] = {}
        self.max_label_children = max_label_children

    # ------------------------------------------------------------------
    # Registration / lookup
    # ------------------------------------------------------------------
    def _child(self, name: str, kind: str, help: str, labels: Mapping) -> object:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name, kind, help)
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"cannot re-register as {kind}"
            )
        if help and not family.help:
            family.help = help
        key = _label_key(labels)
        child = family.children.get(key)
        if child is None:
            factory = {COUNTER: Counter, GAUGE: Gauge, HISTOGRAM: Histogram}[kind]
            if (
                key
                and name != self.DROPPED_LABELS
                and self._labeled_count(family) >= self.max_label_children
            ):
                # Over the cardinality cap: hand back a working but
                # detached child and count the drop through a direct
                # path (never via _child, so the drop counter can't
                # recurse into its own guard).
                self._count_dropped(name)
                return factory(name, key)
            child = family.children[key] = factory(name, key)
        return child

    @staticmethod
    def _labeled_count(family: _Family) -> int:
        return len(family.children) - (1 if () in family.children else 0)

    def _count_dropped(self, name: str) -> None:
        dropped = self._families.get(self.DROPPED_LABELS)
        if dropped is None:
            dropped = self._families[self.DROPPED_LABELS] = _Family(
                self.DROPPED_LABELS,
                COUNTER,
                "labeled children rejected by the cardinality cap",
            )
        key = _label_key({"family": name})
        child = dropped.children.get(key)
        if child is None:
            child = dropped.children[key] = Counter(self.DROPPED_LABELS, key)
        child.inc()

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """The counter ``name`` for ``labels`` (created on first use)."""
        return self._child(name, COUNTER, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """The gauge ``name`` for ``labels`` (created on first use)."""
        return self._child(name, GAUGE, help, labels)

    def histogram(self, name: str, help: str = "", **labels) -> Histogram:
        """The histogram ``name`` for ``labels`` (created on first use)."""
        return self._child(name, HISTOGRAM, help, labels)

    def holds(self, child: Union[Counter, Gauge, Histogram]) -> bool:
        """Whether ``child`` is registered here, not a detached child
        handed out past the cardinality cap: only a registered child may
        be kept as a handle and bumped without asking again."""
        family = self._families.get(child.name)
        return family is not None and family.children.get(child.labels) is child

    def families(self) -> Iterator[_Family]:
        """All families, sorted by name (children in label order)."""
        for name in sorted(self._families):
            yield self._families[name]

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def children(self, name: str) -> Dict[LabelKey, object]:
        """The labeled children of family ``name`` (empty if absent)."""
        family = self._families.get(name)
        return dict(family.children) if family is not None else {}

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge child (0 if absent)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        child = family.children.get(_label_key(labels))
        if child is None:
            return 0.0
        return child.value

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Flat JSON-ready view, keyed by qualified metric name."""
        out: Dict[str, object] = {"counters": {}, "gauges": {}, "histograms": {}}
        for family in self.families():
            section = out[family.kind + "s"]
            for key in sorted(family.children):
                child = family.children[key]
                qualified = qualified_name(family.name, key)
                if family.kind == HISTOGRAM:
                    section[qualified] = child.summary()
                else:
                    value = child.value
                    section[qualified] = int(value) if value == int(value) else value
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot serialized as JSON."""
        return json.dumps(self.snapshot(), indent=indent)

    def prometheus_text(self) -> str:
        """Prometheus text exposition of every family."""
        from repro.obs.prometheus import render

        return render(self)

    def write_jsonl(self, path: str, **extra) -> None:
        """Append one compact snapshot line (plus ``extra`` fields)."""
        record = dict(extra)
        record["metrics"] = self.snapshot()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
