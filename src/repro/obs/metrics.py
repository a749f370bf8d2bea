"""Metrics registry: counters, gauges, histograms.

RoLo's claims are distributional — §IV argues energy savings must not cost
tail response time — so the repo needs percentile views of latency and
power, not just the means in :class:`~repro.core.metrics.RunMetrics`.
This module provides them without sample retention:

* :class:`MetricCounter` / :class:`Gauge` — labeled scalars.
* :class:`MetricHistogram` — fixed log-spaced buckets; quantiles
  interpolate inside the bucket holding the nearest-rank sample.  O(1)
  memory per histogram regardless of sample count, one bisection per
  observation, and one quantile rule for single-run and merged
  histograms alike.  The default grids grow by 2^(1/8) per bucket, so an
  in-grid quantile is within 2^(1/8) - 1 (about 9.05%) of the exact
  sample quantile.
* :class:`MetricsRegistry` — the family store, with an associative
  :meth:`~MetricsRegistry.merge` (worker registries fold into the
  parent's in any order), exact :meth:`~MetricsRegistry.to_dict` /
  :meth:`~MetricsRegistry.from_dict` round-trips, and exporters for
  Prometheus text format and JSONL snapshots.
* :class:`RunInstrumentation` — a run probe (``run_trace(...,
  probes=[RunInstrumentation(registry)])``) that meters one simulation
  run into a registry (engine event dispatch + heap census, disk service
  times, power-state residency, controller counters).  Instrumentation
  observes only: metered runs produce :class:`RunMetrics` byte-identical
  to unmetered ones (tests/test_metrics_registry.py pins this for all
  five schemes, traced and fault-injected).

A registry is always passed explicitly; runs without one cost nothing
(the hot paths guard with a single ``None`` check, the same discipline
as the tracer hooks).
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "MetricCounter",
    "Gauge",
    "MetricHistogram",
    "MetricsRegistry",
    "log_buckets",
    "BUCKET_GROWTH",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_POWER_BUCKETS",
    "TRACKED_QUANTILES",
    "RunInstrumentation",
    "lint_prometheus",
    "read_snapshot",
    "render_registry",
]

#: Snapshot/export schema version (bump on breaking format changes).
METRICS_SCHEMA_VERSION = 1

#: The quantiles reports and ``rolo top`` show (p50/p95/p99/p999).
TRACKED_QUANTILES = (0.5, 0.95, 0.99, 0.999)


def log_buckets(start: float, factor: float, count: int) -> List[float]:
    """Geometrically spaced bucket bounds (strictly increasing)."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("log buckets need start > 0, factor > 1, count >= 1")
    return [start * factor**i for i in range(count)]


#: Growth per bucket of the default grids: an in-grid quantile is within
#: ``BUCKET_GROWTH - 1`` (about 9.05%) of the exact sample quantile.
BUCKET_GROWTH = 2.0 ** 0.125

#: Latency buckets: 0.1 ms to ~52 s (153 bounds).
DEFAULT_LATENCY_BUCKETS = log_buckets(1e-4, BUCKET_GROWTH, 153)

#: Power buckets: 0.5 W to ~1.1 kW (90 bounds).
DEFAULT_POWER_BUCKETS = log_buckets(0.5, BUCKET_GROWTH, 90)


# ----------------------------------------------------------------------
# Metric instances
# ----------------------------------------------------------------------
class MetricCounter:
    """Monotonically increasing labeled scalar."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time labeled scalar (merge aggregation set by its family)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is a new peak."""
        if value > self.value:
            self.value = float(value)


class MetricHistogram:
    """Streaming histogram over fixed buckets.

    Buckets count exactly and merge associatively, and every quantile is
    read off the buckets, so a merged histogram answers exactly as one
    that observed the union of the samples would.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Iterable[float]) -> None:
        bounds = [float(b) for b in bounds]
        if not bounds or any(
            bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1)
        ):
            raise ValueError("bounds must be strictly increasing, non-empty")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.counts[bisect_left(self.bounds, value)] += 1

    def quantile(self, q: float) -> float:
        """Quantile ``q`` by linear interpolation inside the bucket that
        holds the nearest-rank sample (rank ``ceil(q * count)``).

        The answer and that sample share a bucket, so for a sample inside
        the grid the error is under one bucket's growth (``BUCKET_GROWTH
        - 1`` on the default grids).  Answers are clamped to the observed
        ``[min, max]``, which holds every sample, so the overflow bucket
        answers with the maximum.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            if not c:
                continue
            if cumulative + c >= target:
                if i >= len(self.bounds):
                    return self.max
                lower = self.bounds[i - 1] if i else 0.0
                upper = self.bounds[i]
                fraction = (target - cumulative) / c
                value = lower + fraction * (upper - lower)
                return min(max(value, self.min), self.max)
            cumulative += c
        return self.max  # pragma: no cover - rounding guard

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "MetricHistogram") -> None:
        """Fold ``other`` in (associative and commutative; ``sum`` up to
        float rounding)."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricHistogram":
        """Inverse of :meth:`to_dict`; older snapshots' ``sketches`` key
        is ignored."""
        hist = cls(data["bounds"])
        counts = [int(c) for c in data["counts"]]
        if len(counts) != len(hist.counts):
            raise ValueError("histogram count vector mismatch")
        hist.counts = counts
        hist.count = int(data["count"])
        hist.sum = float(data["sum"])
        hist.min = math.inf if data["min"] is None else float(data["min"])
        hist.max = -math.inf if data["max"] is None else float(data["max"])
        return hist


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_KINDS = ("counter", "gauge", "histogram")
_GAUGE_AGGS = ("sum", "max", "min")

LabelKey = Tuple[Tuple[str, str], ...]


class _Family:
    """One named metric family: kind, help text, labeled children."""

    __slots__ = ("name", "kind", "help", "agg", "bounds", "children")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        agg: str = "sum",
        bounds: Optional[List[float]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.agg = agg
        self.bounds = bounds
        self.children: Dict[LabelKey, Any] = {}

    def child(self, key: LabelKey) -> Any:
        instance = self.children.get(key)
        if instance is None:
            if self.kind == "counter":
                instance = MetricCounter()
            elif self.kind == "gauge":
                instance = Gauge()
            else:
                instance = MetricHistogram(self.bounds)
            self.children[key] = instance
        return instance


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """A process-local store of counter/gauge/histogram families.

    Family identity is the metric name; children are label sets.  The
    registry is deliberately dependency-free and picklable via
    :meth:`to_dict`, so pool workers meter their cells locally and ship
    the state back for an associative :meth:`merge` in the parent.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        agg: str = "sum",
        bounds: Optional[List[float]] = None,
    ) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, agg=agg, bounds=bounds)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ValueError(
                f"{name}: registered as {family.kind}, requested {kind}"
            )
        if kind == "gauge" and family.agg != agg:
            raise ValueError(
                f"{name}: gauge aggregation mismatch "
                f"({family.agg} vs {agg})"
            )
        if kind == "histogram" and bounds is not None:
            if family.bounds != list(bounds):
                raise ValueError(f"{name}: histogram bucket mismatch")
        return family

    def counter(
        self, name: str, help_text: str = "", **labels: Any
    ) -> MetricCounter:
        """The counter child of ``name`` for this label set."""
        return self._family(name, "counter", help_text).child(
            _label_key(labels)
        )

    def gauge(
        self, name: str, help_text: str = "", agg: str = "sum", **labels: Any
    ) -> Gauge:
        """The gauge child of ``name``; ``agg`` fixes merge semantics."""
        if agg not in _GAUGE_AGGS:
            raise ValueError(f"gauge agg must be one of {_GAUGE_AGGS}")
        return self._family(name, "gauge", help_text, agg=agg).child(
            _label_key(labels)
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Iterable[float]] = None,
        **labels: Any,
    ) -> MetricHistogram:
        """The histogram child of ``name`` for this label set."""
        bounds = (
            list(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        )
        return self._family(
            name, "histogram", help_text, bounds=bounds
        ).child(_label_key(labels))

    # ------------------------------------------------------------------
    def families(self) -> List[str]:
        return sorted(self._families)

    def samples(self) -> List[Tuple[str, Dict[str, str], Any]]:
        """Flat ``(name, labels, instance)`` view in deterministic order."""
        out = []
        for name in sorted(self._families):
            family = self._families[name]
            for key in sorted(family.children):
                out.append((name, dict(key), family.children[key]))
        return out

    def get(
        self, name: str, **labels: Any
    ) -> Optional[Any]:
        """Existing child or ``None`` (never creates)."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(_label_key(labels))

    def __len__(self) -> int:
        return sum(len(f.children) for f in self._families.values())

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (associative, commutative).

        Counters add, gauges combine by their family's declared
        aggregation, histograms merge buckets exactly.  Returns ``self``
        for chaining.
        """
        for name, theirs in other._families.items():
            family = self._family(
                name,
                theirs.kind,
                theirs.help,
                agg=theirs.agg,
                bounds=theirs.bounds,
            )
            if family.kind == "histogram" and family.bounds != theirs.bounds:
                raise ValueError(f"{name}: histogram bucket mismatch")
            for key, their_child in theirs.children.items():
                mine = family.children.get(key)
                if mine is None:
                    # Copy through the exact dict round-trip so later
                    # mutation of either registry stays independent.
                    if family.kind == "histogram":
                        family.children[key] = MetricHistogram.from_dict(
                            their_child.to_dict()
                        )
                    else:
                        child = family.child(key)
                        child.value = their_child.value
                elif family.kind == "counter":
                    mine.value += their_child.value
                elif family.kind == "gauge":
                    if family.agg == "sum":
                        mine.value += their_child.value
                    elif family.agg == "max":
                        mine.value = max(mine.value, their_child.value)
                    else:
                        mine.value = min(mine.value, their_child.value)
                else:
                    mine.merge(their_child)
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        families: Dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            children = []
            for key in sorted(family.children):
                child = family.children[key]
                entry: Dict[str, Any] = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry["histogram"] = child.to_dict()
                else:
                    entry["value"] = child.value
                children.append(entry)
            families[name] = {
                "kind": family.kind,
                "help": family.help,
                "agg": family.agg,
                "children": children,
            }
        return {"schema": METRICS_SCHEMA_VERSION, "families": families}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        registry = cls()
        for name, spec in data.get("families", {}).items():
            kind = spec["kind"]
            if kind not in _KINDS:
                raise ValueError(f"{name}: unknown metric kind {kind!r}")
            for entry in spec["children"]:
                labels = {
                    str(k): str(v) for k, v in entry["labels"].items()
                }
                if kind == "histogram":
                    hist = MetricHistogram.from_dict(entry["histogram"])
                    family = registry._family(
                        name, kind, spec.get("help", ""), bounds=hist.bounds
                    )
                    family.children[_label_key(labels)] = hist
                elif kind == "counter":
                    registry.counter(
                        name, spec.get("help", ""), **labels
                    ).value = float(entry["value"])
                else:
                    registry.gauge(
                        name,
                        spec.get("help", ""),
                        agg=spec.get("agg", "sum"),
                        **labels,
                    ).value = float(entry["value"])
            # Families with no children still round-trip (kind + help).
            if not spec["children"]:
                registry._family(
                    name, kind, spec.get("help", ""),
                    agg=spec.get("agg", "sum"),
                    bounds=None if kind != "histogram" else DEFAULT_LATENCY_BUCKETS,
                )
        return registry

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.children):
                child = family.children[key]
                if family.kind == "histogram":
                    cumulative = 0
                    for i, bound in enumerate(child.bounds):
                        cumulative += child.counts[i]
                        lines.append(
                            f"{name}_bucket"
                            f"{_prom_labels(key, le=_prom_float(bound))} "
                            f"{cumulative}"
                        )
                    cumulative += child.counts[-1]
                    lines.append(
                        f'{name}_bucket{_prom_labels(key, le="+Inf")} '
                        f"{cumulative}"
                    )
                    lines.append(
                        f"{name}_sum{_prom_labels(key)} "
                        f"{_prom_float(child.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_prom_labels(key)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_prom_labels(key)} "
                        f"{_prom_float(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def write_prometheus(self, path: str) -> str:
        _ensure_parent(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_prometheus())
        return path

    def write_jsonl(self, path: str) -> int:
        """JSONL snapshot: a meta line, then one line per family.

        Returns the number of family lines written.  The snapshot
        round-trips exactly through :func:`read_snapshot` (``rolo top``
        renders these files).
        """
        _ensure_parent(path)
        data = self.to_dict()
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {"record": "meta", "schema": data["schema"]},
                    sort_keys=True,
                )
            )
            fh.write("\n")
            for name in sorted(data["families"]):
                record = {"record": "family", "name": name}
                record.update(data["families"][name])
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")
                count += 1
        return count


def read_snapshot(path: str) -> MetricsRegistry:
    """Load a registry back from a :meth:`MetricsRegistry.write_jsonl`
    snapshot."""
    families: Dict[str, Any] = {}
    schema = METRICS_SCHEMA_VERSION
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            record_type = record.get("record")
            if record_type == "meta":
                schema = int(record.get("schema", schema))
            elif record_type == "family":
                if "name" not in record or "kind" not in record:
                    raise ValueError(
                        f"{path}: family line missing name/kind"
                    )
                families[record["name"]] = {
                    "kind": record["kind"],
                    "help": record.get("help", ""),
                    "agg": record.get("agg", "sum"),
                    "children": record.get("children", []),
                }
            else:
                raise ValueError(
                    f"{path}: unknown snapshot line {record_type!r}"
                )
    return MetricsRegistry.from_dict(
        {"schema": schema, "families": families}
    )


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def _prom_float(value: float) -> str:
    if value != value:  # pragma: no cover - NaN guard
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:  # pragma: no cover - not produced today
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _prom_labels(key: LabelKey, **extra: str) -> str:
    pairs = list(key) + sorted(extra.items())
    if not pairs:
        return ""
    body = ",".join(
        f'{k}="{_prom_escape(v)}"' for k, v in pairs
    )
    return "{" + body + "}"


def _prom_escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


# ----------------------------------------------------------------------
# Prometheus text lint (tests + CI metrics-smoke)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.eE+]+|\+Inf|-Inf|NaN)$"
)
_LABEL_PAIR_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def lint_prometheus(text: str) -> List[str]:
    """Validate Prometheus text format; returns a list of problems.

    Checks line syntax, TYPE declarations, label pair syntax, histogram
    ``le`` monotonicity and the ``+Inf``/``_count`` agreement.  An empty
    return value means the document is clean.
    """
    problems: List[str] = []
    types: Dict[str, str] = {}
    buckets: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, str], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in _KINDS:
                problems.append(f"line {lineno}: malformed TYPE line")
            else:
                types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name, label_blob, value_text = match.groups()
        labels: Dict[str, str] = {}
        if label_blob:
            for pair in _split_label_pairs(label_blob[1:-1]):
                if not _LABEL_PAIR_RE.match(pair):
                    problems.append(
                        f"line {lineno}: malformed label pair {pair!r}"
                    )
                    continue
                key, _, raw = pair.partition("=")
                labels[key] = raw[1:-1]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
                break
        if base not in types:
            problems.append(f"line {lineno}: {name} has no TYPE declaration")
            continue
        value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        if name.endswith("_bucket") and types.get(base) == "histogram":
            le = labels.get("le")
            if le is None:
                problems.append(f"line {lineno}: bucket sample without le")
                continue
            le_value = math.inf if le == "+Inf" else float(le)
            other = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            buckets.setdefault((base, repr(other)), []).append(
                (le_value, value)
            )
        elif name.endswith("_count") and types.get(base) == "histogram":
            counts[
                (base, repr(tuple(sorted(labels.items()))))
            ] = value
    for (base, labelrepr), series in buckets.items():
        ordered = sorted(series)
        values = [v for _, v in ordered]
        if any(b > a for b, a in zip(values, values[1:])):
            problems.append(f"{base}{labelrepr}: bucket counts not cumulative")
        if ordered and ordered[-1][0] != math.inf:
            problems.append(f"{base}{labelrepr}: missing +Inf bucket")
        total = counts.get((base, labelrepr))
        if total is not None and ordered and ordered[-1][1] != total:
            problems.append(
                f"{base}{labelrepr}: +Inf bucket != _count sample"
            )
    return problems


def _split_label_pairs(blob: str) -> List[str]:
    pairs: List[str] = []
    current = []
    in_quotes = False
    escaped = False
    for ch in blob:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == '"':
            current.append(ch)
            in_quotes = not in_quotes
        elif ch == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        pairs.append("".join(current))
    return pairs


# ----------------------------------------------------------------------
# Run instrumentation
# ----------------------------------------------------------------------
#: Engine stride of the heap census / power histogram / dirty and
#: occupancy peaks (every Nth dispatched event).
_SAMPLE_EVERY = 256

#: Canonical counter names emitted by the verification harness
#: (:mod:`repro.verify`): invariant sweeps run and violations found.
#: Declared here so dashboards and exposition tests share one spelling.
VERIFY_CHECKS_TOTAL = "verify_checks_total"
VERIFY_VIOLATIONS_TOTAL = "verify_violations_total"


class RunInstrumentation:
    """Meters one simulation run into a :class:`MetricsRegistry`.

    A run probe: :func:`~repro.core.base.run_trace` calls
    :meth:`install` before the first arrival and :meth:`uninstall` after
    the run.  Installing adds observation-only hooks (an engine stride
    that samples every :data:`_SAMPLE_EVERY` events, per-disk op
    observers feeding the service-time histograms, the ``RunMetrics``
    response observer); uninstalling removes them and harvests what the
    run counted itself: the engine's label census, disk op counts, power
    residency, spin counts and controller counters.  Every hook reads
    and never writes simulator/controller state, so a metered run's
    :class:`RunMetrics` stays byte-identical to an unmetered one.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._heap_peak = 0
        self._power_peak = 0.0
        self._dirty_peak = 0
        self._occupancy_peak = 0.0
        self._installed = False

    # -- hooks ----------------------------------------------------------
    def install(self, sim, controller) -> None:
        if self._installed:
            raise RuntimeError("run instrumentation already installed")
        self.sim = sim
        self.controller = controller
        self.scheme = scheme = controller.scheme_name
        registry = self.registry
        self._power_hist = registry.histogram(
            "array_power_watts",
            "instantaneous array power draw, sampled every "
            f"{_SAMPLE_EVERY} dispatched events",
            buckets=DEFAULT_POWER_BUCKETS,
            scheme=scheme,
        )
        self._started = time.perf_counter()
        sim.add_stride(_SAMPLE_EVERY, self._sample)
        # What the run counts itself, at the start of the metered window.
        self._census = sim.label_census()
        self._disks = disks = controller.all_disks()
        self._disk_ops = [
            (disk.foreground_ops, disk.background_ops) for disk in disks
        ]
        latency = {
            False: registry.histogram(
                "request_latency_seconds",
                "end-to-end logical request latency",
                op="read",
                scheme=scheme,
            ),
            True: registry.histogram(
                "request_latency_seconds",
                "end-to-end logical request latency",
                op="write",
                scheme=scheme,
            ),
        }

        def _on_response(is_write: bool, seconds: float) -> None:
            latency[is_write].observe(seconds)

        controller.metrics.on_response = _on_response
        observe = tuple(
            registry.histogram(
                "disk_service_time_seconds",
                "in-service time of one disk operation",
                priority=priority,
                scheme=scheme,
            ).observe
            for priority in ("foreground", "background")
        )
        self._ops = tuple(
            registry.counter(
                "disk_ops_total",
                "completed disk operations",
                priority=priority,
                scheme=scheme,
            )
            for priority in ("foreground", "background")
        )

        def _on_op(disk, op) -> None:
            observe[op.priority](op.finish_time - op.start_time)

        for disk in disks:
            disk.op_observer = _on_op
        self._op_observer = _on_op
        self._installed = True

    def _sample(self) -> None:
        sim = self.sim
        if sim.heap_size > self._heap_peak:
            self._heap_peak = sim.heap_size
        controller = self.controller
        watts = 0.0
        for disk in controller.all_disks():
            watts += disk.power._watts
        self._power_hist.observe(watts)
        if watts > self._power_peak:
            self._power_peak = watts
        dirty = controller.dirty_units_total()
        if dirty > self._dirty_peak:
            self._dirty_peak = dirty
        for region in controller.log_regions():
            occupancy = region.occupancy
            if occupancy > self._occupancy_peak:
                self._occupancy_peak = occupancy

    # -- teardown -------------------------------------------------------
    def uninstall(self) -> None:
        """Remove every hook, then :meth:`harvest` the run once."""
        if not self._installed:
            return
        self.sim.remove_stride(self._sample)
        self.controller.metrics.on_response = None
        for disk in self._disks:
            if disk.op_observer is self._op_observer:
                disk.op_observer = None
        self._installed = False
        self.harvest()

    def harvest(self) -> None:
        """Fold end-of-run state into the registry (not idempotent:
        :meth:`uninstall` calls it exactly once per run)."""
        registry = self.registry
        scheme = self.scheme
        sim = self.sim
        wall = time.perf_counter() - self._started
        # Engine: dispatch census + heap hygiene.
        registry.counter(
            "sim_events_total", "events dispatched by the engine",
            scheme=scheme,
        ).inc(sim.events_processed)
        # The events of the metered window by label (folded to suffixes),
        # and the disk ops the op observers saw, by priority.
        before = self._census
        by_suffix: Dict[str, int] = {}
        for label, count in sim.label_census().items():
            count -= before.get(label, 0)
            if count:
                suffix = label.rpartition(":")[2] or label
                by_suffix[suffix] = by_suffix.get(suffix, 0) + count
        for disk, (foreground, background) in zip(
            self._disks, self._disk_ops
        ):
            self._ops[0].inc(disk.foreground_ops - foreground)
            self._ops[1].inc(disk.background_ops - background)
        for suffix in sorted(by_suffix):
            registry.counter(
                "sim_events_by_label_total",
                "events dispatched, by label suffix",
                label=suffix,
                scheme=scheme,
            ).inc(by_suffix[suffix])
        registry.counter(
            "sim_heap_compactions_total",
            "in-place heap compactions",
            scheme=scheme,
        ).inc(sim.compactions)
        registry.gauge(
            "sim_heap_peak", "peak event-heap size (sampled)",
            agg="max", scheme=scheme,
        ).set_max(float(self._heap_peak))
        registry.gauge(
            "sim_wall_seconds", "wall-clock time of metered runs",
            agg="sum", scheme=scheme,
        ).inc(wall)
        # Disks: per-state residency, energy, spin counts.
        from repro.disk.power import PowerState

        for role, disks in self.controller.disks_by_role().items():
            spin_ups = registry.counter(
                "disk_spin_ups_total", "spin-up transitions",
                role=role, scheme=scheme,
            )
            spin_downs = registry.counter(
                "disk_spin_downs_total", "spin-down transitions",
                role=role, scheme=scheme,
            )
            energy = registry.counter(
                "disk_energy_joules_total", "energy consumed",
                role=role, scheme=scheme,
            )
            for disk in disks:
                accountant = disk.power
                spin_ups.inc(accountant.spin_up_count)
                spin_downs.inc(accountant.spin_down_count)
                energy.inc(accountant.energy_at(sim.now))
                for state in PowerState:
                    duration = accountant.state_durations[state]
                    if state is accountant.state:
                        duration += sim.now - accountant._last_time
                    if duration:
                        registry.counter(
                            "disk_state_seconds_total",
                            "power-state residency",
                            role=role,
                            scheme=scheme,
                            state=state.value,
                        ).inc(duration)
        # Controller counters (the Table I / Fig. 2 raw material).
        metrics = self.controller.metrics
        for name, value, help_text in (
            ("controller_requests_total", metrics.requests, "logical requests"),
            ("controller_rotations_total", metrics.rotations,
             "logger rotation hand-offs"),
            ("controller_destage_cycles_total", metrics.destage_cycles,
             "destage processes completed"),
            ("controller_logged_bytes_total", metrics.logged_bytes,
             "bytes written to log space"),
            ("controller_destaged_bytes_total", metrics.destaged_bytes,
             "bytes destaged to home locations"),
            ("controller_read_hits_total", metrics.read_hits,
             "reads served from log space"),
            ("controller_read_misses_total", metrics.read_misses,
             "reads that missed log space"),
            ("controller_deactivations_total", metrics.deactivations,
             "disk deactivation decisions"),
            ("controller_degraded_reads_total",
             self.controller.degraded_reads,
             "reads served while the pair was degraded"),
        ):
            if value:
                registry.counter(name, help_text, scheme=scheme).inc(value)
        registry.gauge(
            "array_power_peak_watts", "peak sampled array draw",
            agg="max", scheme=scheme,
        ).set_max(self._power_peak)
        registry.gauge(
            "destage_dirty_units_peak", "peak dirty stripe units (sampled)",
            agg="max", scheme=scheme,
        ).set_max(float(self._dirty_peak))
        registry.gauge(
            "log_occupancy_peak", "peak log-region occupancy (sampled)",
            agg="max", scheme=scheme,
        ).set_max(self._occupancy_peak)


# ----------------------------------------------------------------------
# Rendering (``rolo top`` and the sweep utilization table)
# ----------------------------------------------------------------------
def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    if abs(value) >= 1e5 or (value and abs(value) < 1e-3):
        return f"{value:.3g}"
    return f"{value:.3f}".rstrip("0").rstrip(".")


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def render_registry(registry: MetricsRegistry) -> str:
    """Human-readable snapshot: counters/gauges, then histogram quantiles.

    This is the ``rolo top`` view — a compact utilization table with the
    tail percentiles the paper's evaluation (and ours) turns on.
    """
    counters: List[str] = []
    gauges: List[str] = []
    hist_rows: List[Tuple[str, ...]] = []
    for name, labels, child in registry.samples():
        title = f"{name}{_fmt_labels(labels)}"
        if isinstance(child, MetricCounter):
            counters.append(f"  {title}  {_fmt_value(child.value)}")
        elif isinstance(child, Gauge):
            gauges.append(f"  {title}  {_fmt_value(child.value)}")
        else:
            hist_rows.append(
                (
                    title,
                    str(child.count),
                    _fmt_value(child.mean),
                    *(
                        _fmt_value(child.quantile(q))
                        for q in TRACKED_QUANTILES
                    ),
                    _fmt_value(child.max if child.count else 0.0),
                )
            )
    lines: List[str] = []
    if counters:
        lines.append("counters:")
        lines.extend(counters)
    if gauges:
        lines.append("gauges:")
        lines.extend(gauges)
    if hist_rows:
        header = (
            "histogram", "count", "mean", "p50", "p95", "p99", "p999",
            "max",
        )
        widths = [
            max(len(header[i]), *(len(r[i]) for r in hist_rows))
            for i in range(len(header))
        ]
        lines.append("histograms:")
        lines.append(
            "  " + "  ".join(h.ljust(w) for h, w in zip(header, widths))
        )
        for row in hist_rows:
            lines.append(
                "  " + "  ".join(c.ljust(w) for c, w in zip(row, widths))
            )
    if not lines:
        return "metrics: empty registry"
    return "\n".join(lines)


def format_sweep_table(registry: MetricsRegistry) -> str:
    """Per-worker utilization table for the end-of-sweep summary."""
    family = registry._families.get("sweep_worker_cells_total")
    if family is None or not family.children:
        return "sweep: no dispatcher telemetry collected"
    busy = registry._families.get("sweep_worker_busy_seconds_total")
    rows = []
    for key in sorted(family.children):
        labels = dict(key)
        worker = labels.get("worker", "?")
        cells = family.children[key].value
        busy_s = 0.0
        if busy is not None:
            child = busy.children.get(key)
            if child is not None:
                busy_s = child.value
        rate = cells / busy_s if busy_s > 0 else 0.0
        rows.append(
            (worker, str(int(cells)), f"{busy_s:.2f}", f"{rate:.2f}")
        )
    header = ("worker", "cells", "busy s", "cells/s")
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows))
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    extras = []
    for name, label in (
        ("shm_attach_hits_total", "attach hits"),
        ("shm_attach_misses_total", "attach misses"),
    ):
        fam = registry._families.get(name)
        if fam:
            total = sum(c.value for c in fam.children.values())
            extras.append(f"{label}={int(total)}")
    window = registry.get("sweep_inflight_window_peak")
    if window is not None:
        extras.append(f"window peak={int(window.value)}")
    if extras:
        lines.append("  ".join(extras))
    return "\n".join(lines)
