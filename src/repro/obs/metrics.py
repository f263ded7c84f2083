"""Metrics registry: labeled counters, gauges, and histograms.

The registry is the numeric half of the observability layer (the trace
half lives in :mod:`repro.obs.trace`).  Design constraints, in order:

1. **Determinism.**  A metric value is a function of the simulated
   physics only — never of wall-clock time or scheduling.  Histograms
   bin *raw* float64 observations against fixed edges (``value <=
   edge``, Prometheus ``le`` semantics), and the one-value
   (:meth:`Histogram.observe`) and array
   (:meth:`Histogram.observe_many`) paths bin and accumulate in exactly
   the same order, so observing values one at a time or a chunk at a
   time produces bitwise-identical snapshots from the same physics.
2. **Near-zero cost when disabled.**  Nothing here is global: a
   simulator without an attached :class:`repro.obs.Telemetry` pays one
   ``is None`` check per hook site and nothing else.
3. **Mergeable snapshots.**  :meth:`MetricsRegistry.snapshot` returns a
   plain JSON-able dict; :func:`merge_metric_snapshots` folds many of
   them (one per worker chunk) into one, deterministically, so parallel
   and serial runs of the same spec expose identical aggregates.

Exposition: :func:`render_prometheus` emits the Prometheus text format;
snapshots themselves are the JSON format.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "BER_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SINR_LINEAR_BUCKETS",
    "linear_buckets",
    "log_buckets",
    "merge_metric_snapshots",
    "render_prometheus",
]

#: Snapshot / exposition schema version (bump on breaking layout change).
SNAPSHOT_SCHEMA = 1

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def linear_buckets(start: float, width: float, count: int) -> tuple[float, ...]:
    """``count`` fixed-width bucket upper edges from ``start``."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if width <= 0:
        raise ValueError("width must be positive")
    return tuple(start + width * (i + 1) for i in range(count))


def log_buckets(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """``count`` log-spaced upper edges spanning ``[lo, hi]``.

    The last edge is exactly ``hi``; observations above it land in the
    implicit ``+Inf`` overflow bucket.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    return tuple(
        float(e) for e in np.geomspace(lo, hi, count)
    )


#: Log-spaced edges for *linear* effective-SINR observations, spanning
#: -20 dB .. +40 dB in 2.5 dB steps.  Binning raw linear SINRs (rather
#: than converting to dB first) keeps one-value and array histogram
#: fills bitwise identical — the comparison ``value <= edge`` involves
#: no transcendental function.
SINR_LINEAR_BUCKETS = tuple(
    float(10.0 ** (db / 10.0))
    for db in [(-20.0 + 2.5 * i) for i in range(25)]
)

#: Log-spaced per-query BER edges (1e-3 .. 1.0); a zero-error query
#: falls in the first bucket.
BER_BUCKETS = log_buckets(1e-3, 1.0, 13)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Gauge:
    """A point-in-time value with a declared cross-process aggregation.

    ``aggregation`` decides how worker snapshots merge: "max" (default;
    idempotent for gauges that are identical everywhere, e.g. a config
    constant), "min", or "sum".
    """

    __slots__ = ("value", "aggregation")

    def __init__(self, aggregation: str = "max") -> None:
        if aggregation not in ("max", "min", "sum"):
            raise ValueError(
                f"aggregation must be max/min/sum, got {aggregation!r}"
            )
        self.value = 0.0
        self.aggregation = aggregation

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``counts[i]`` counts observations with ``value <= edges[i]`` (and
    ``> edges[i-1]``); ``counts[-1]`` is the ``+Inf`` overflow bucket.
    The running ``sum`` is accumulated one observation at a time, in
    observation order, in both :meth:`observe` and
    :meth:`observe_many` — identical sequences of float64 observations
    therefore produce bitwise-identical sums no matter how they were
    batched.
    """

    __slots__ = ("edges", "counts", "sum", "count")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError("a histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values) -> None:
        """Observe a whole array (row-major observation order)."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        idx = np.searchsorted(self.edges, arr, side="left")
        binned = np.bincount(idx, minlength=len(self.counts))
        counts = self.counts
        for i, n in enumerate(binned.tolist()):
            counts[i] += n
        # Scalar accumulation keeps the sum bitwise equal to a loop of
        # observe() calls over the same values in the same order.
        total = self.sum
        for v in arr.tolist():
            total += v
        self.sum = total
        self.count += int(arr.size)


class _Family:
    """All series of one metric name, keyed by label values."""

    __slots__ = ("name", "kind", "help", "label_names", "children", "options")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple[str, ...],
        options: dict[str, Any],
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.children: dict[tuple[str, ...], Any] = {}
        self.options = options

    def _make_child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge(self.options.get("aggregation", "max"))
        return Histogram(self.options["buckets"])

    def labels(self, **labels: str):
        """The child series for one label-value combination."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.label_names)
        child = self.children.get(key)
        if child is None:
            child = self.children[key] = self._make_child()
        return child

    def _default_child(self):
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} is labeled; use .labels(...)"
            )
        return self.labels()

    # Label-less convenience: the family proxies its single series.
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def observe_many(self, values) -> None:
        self._default_child().observe_many(values)


class MetricsRegistry:
    """A named collection of metric families.

    Families are created idempotently: asking twice for the same name
    returns the same family (and raises if the type or labels differ,
    which would silently corrupt aggregation otherwise).
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        **options: Any,
    ) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}{family.label_names}"
                )
            return family
        family = _Family(name, kind, help, label_names, options)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> _Family:
        return self._family(name, "counter", help, labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        aggregation: str = "max",
    ) -> _Family:
        return self._family(
            name, "gauge", help, labels, aggregation=aggregation
        )

    def histogram(
        self,
        name: str,
        buckets: Sequence[float],
        help: str = "",
        labels: Sequence[str] = (),
    ) -> _Family:
        return self._family(
            name, "histogram", help, labels, buckets=tuple(buckets)
        )

    def snapshot(self) -> dict[str, Any]:
        """JSON-able, deterministic view of every series.

        Families appear sorted by name, series sorted by label values,
        so two registries that recorded the same physics serialize to
        identical dicts regardless of creation order.
        """
        metrics: dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            series = []
            for key in sorted(family.children):
                child = family.children[key]
                entry: dict[str, Any] = {
                    "labels": dict(zip(family.label_names, key)),
                }
                if family.kind == "histogram":
                    entry.update(
                        edges=list(child.edges),
                        counts=list(child.counts),
                        sum=child.sum,
                        count=child.count,
                    )
                else:
                    entry["value"] = child.value
                    if family.kind == "gauge":
                        entry["aggregation"] = child.aggregation
                series.append(entry)
            metrics[name] = {
                "type": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "series": series,
            }
        return {"schema": SNAPSHOT_SCHEMA, "metrics": metrics}

    def load_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Merge a snapshot into this registry (used by aggregation)."""
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported metrics snapshot schema "
                f"{snapshot.get('schema')!r}"
            )
        for name, family_snap in snapshot["metrics"].items():
            kind = family_snap["type"]
            label_names = tuple(family_snap["label_names"])
            for entry in family_snap["series"]:
                labels = {n: entry["labels"][n] for n in label_names}
                if kind == "counter":
                    child = self.counter(
                        name, family_snap["help"], label_names
                    ).labels(**labels)
                    child.inc(entry["value"])
                elif kind == "gauge":
                    family = self.gauge(
                        name,
                        family_snap["help"],
                        label_names,
                        aggregation=entry.get("aggregation", "max"),
                    )
                    key = tuple(str(labels[n]) for n in label_names)
                    fresh = key not in family.children
                    child = family.labels(**labels)
                    mode = entry.get("aggregation", "max")
                    incoming = float(entry["value"])
                    if fresh:
                        child.set(incoming)
                    elif mode == "sum":
                        child.set(child.value + incoming)
                    elif mode == "min":
                        child.set(min(child.value, incoming))
                    else:
                        child.set(max(child.value, incoming))
                else:
                    family = self.histogram(
                        name,
                        tuple(entry["edges"]),
                        family_snap["help"],
                        label_names,
                    )
                    child = family.labels(**labels)
                    if tuple(child.edges) != tuple(entry["edges"]):
                        raise ValueError(
                            f"histogram {name!r} bucket edges differ "
                            "between snapshots"
                        )
                    for i, n in enumerate(entry["counts"]):
                        child.counts[i] += int(n)
                    child.sum += float(entry["sum"])
                    child.count += int(entry["count"])


def merge_metric_snapshots(
    snapshots: Iterable[Mapping[str, Any]],
) -> dict[str, Any]:
    """Fold per-chunk/per-worker snapshots into one.

    Counters and histogram bins sum; gauges combine by their declared
    aggregation.  Merging is performed in iteration order, so callers
    that want determinism (the engine does) must pass snapshots in a
    deterministic order — chunk index order, in practice.
    """
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.load_snapshot(snap)
    return merged.snapshot()


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Render a registry snapshot in the Prometheus text format."""
    if snapshot.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"unsupported metrics snapshot schema {snapshot.get('schema')!r}"
        )
    lines: list[str] = []
    for name, family in snapshot["metrics"].items():
        kind = family["type"]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for entry in family["series"]:
            labels = entry["labels"]
            if kind == "histogram":
                cumulative = 0
                for edge, count in zip(entry["edges"], entry["counts"]):
                    cumulative += count
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(edge)
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} "
                        f"{cumulative}"
                    )
                cumulative += entry["counts"][-1]
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(
                    f"{name}_bucket{_format_labels(inf_labels)} {cumulative}"
                )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{_format_value(entry['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {entry['count']}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(entry['value'])}"
                )
    return "\n".join(lines) + "\n"
