"""Critical-path latency attribution over causal span streams.

Consumes the :class:`~repro.obs.spans.SpanRecorder` event stream (its
records, or any iterable of :class:`~repro.obs.tracer.TraceEvent`) and
decomposes every request's measured response time into six phases::

    queue + spinup + interference + seek + rotation + transfer == measured

The decomposition follows the request's *critical operation* — the
constituent disk op whose completion fired the fan-in last (for a
mirrored write, the slower copy; for a logged write, the log append if it
finished last).  Its mechanical phases come straight from the span attrs
(``seek_s``/``rot_s``/``transfer_s``, exact by construction).  The wait
window ``[submit, start]`` on the critical disk is then split causally:

* ``spinup`` — overlap with the disk's ``spinning_up`` power spans (the
  RoLo-E read-miss penalty, §III-D);
* ``interference`` — overlap with *background* op service on the same
  disk (destage batches, parity pumps, cache fills stealing the arm);
* ``queue`` — the residual: foreground queueing plus any controller-side
  delay between arrival and submission.

Because ``queue`` is a residual, the six phases sum to the measured
latency exactly (within float rounding), which is what the acceptance
tests assert.  Requests that completed without issuing any disk op (e.g.
fully cache-served reads) attribute everything to ``queue``.

Cost: each disk's spin-up and background spans are indexed once per
call (stable sort by start plus a running max of ends), so a request's
wait window costs two bisections plus the slice they bound:
O((R + B) log B + overlaps) for R requests and B background spans.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.tracer import VALUES_AT, TraceEvent, records_of

#: Phase keys, in presentation order.
PHASES = (
    "queue",
    "spinup",
    "interference",
    "seek",
    "rotation",
    "transfer",
)

#: Default report quantiles (matches ``experiments.runreport``).
ATTRIBUTION_QUANTILES = (0.5, 0.95, 0.99)


@dataclasses.dataclass
class RequestAttribution:
    """One request's latency decomposition."""

    rid: int
    kind: str
    arrival: float
    measured: float
    #: phase -> seconds; keys are exactly :data:`PHASES`.
    phases: Dict[str, float]
    #: Disk that served the critical operation (None for zero-op requests).
    disk: Optional[str] = None
    #: Name of the causal culprit behind the largest non-service wait
    #: component: ``"spin-up:<disk>"`` or a background process name.
    culprit: Optional[str] = None

    def fractions(self) -> Dict[str, float]:
        """Phase fractions of measured latency (all zero when measured
        is zero)."""
        if self.measured <= 0:
            return {phase: 0.0 for phase in PHASES}
        return {
            phase: self.phases[phase] / self.measured for phase in PHASES
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rid": self.rid,
            "kind": self.kind,
            "arrival": self.arrival,
            "measured_s": self.measured,
            "phases": dict(self.phases),
            "disk": self.disk,
            "culprit": self.culprit,
        }


#: ``(start, end, label)`` of one power or background-op span.
_Interval = Tuple[float, float, Optional[str]]


class _IntervalIndex:
    """One disk's ``(start, end, label)`` intervals, queryable by window.

    Intervals are stably sorted by start (for ts-ordered input, as
    produced by ``sorted_events``, that is their original order) and
    paired with a running maximum of their ends.  For a window ``[lo,
    hi]`` every interval before the first running max above ``lo`` ends
    at or before ``lo``, and every interval from the first start at or
    after ``hi`` starts at or after ``hi``: both overlap by ``<= 0``.  Two
    bisections therefore bound the contiguous slice that can overlap,
    even when intervals nest or overlap each other.
    """

    __slots__ = ("starts", "ends", "labels", "reach")

    def __init__(self, spans: List[_Interval]) -> None:
        spans.sort(key=itemgetter(0))
        self.starts = [span[0] for span in spans]
        self.ends = [span[1] for span in spans]
        self.labels = [span[2] for span in spans]
        self.reach = list(accumulate(self.ends, max))

    def overlap(self, lo: float, hi: float) -> Tuple[float, Optional[str]]:
        """Total overlap with ``[lo, hi]`` and the label of the largest
        single overlap (first one wins ties; ``None`` if nothing
        overlaps)."""
        starts, ends, labels = self.starts, self.ends, self.labels
        total = 0.0
        worst = 0.0
        culprit: Optional[str] = None
        for i in range(
            bisect_right(self.reach, lo), bisect_left(starts, hi)
        ):
            o = min(hi, ends[i]) - max(lo, starts[i])
            if o > 0:
                total += o
                if o > worst:
                    worst = o
                    culprit = labels[i]
        return total, culprit


_NO_INTERVALS = _IntervalIndex([])


def _end_then_start(record: tuple) -> Tuple[float, float]:
    return record[0] + record[4], record[0]


def attribute_events(
    events: Iterable[TraceEvent],
) -> List[RequestAttribution]:
    """Decompose every request span in ``events`` (ordered by rid).

    ``events`` must come from a span-traced run (disk-op spans carrying
    ``seek_s``/``rot_s``/``transfer_s`` and ``rid``/``proc`` attrs); a
    plain-traced stream yields all-queue attributions, which is honest
    but useless.  A recorder's
    :meth:`~repro.obs.tracer.RecordingTracer.sorted_events` view is read
    record by record; any other iterable is converted to records first.
    """
    records, shapes = records_of(events)
    # Shape id -> {attr key: record index} for spans, None for the rest.
    span_attrs = [
        {key: VALUES_AT + i for i, key in enumerate(keys)}
        if kind == "span"
        else None
        for kind, keys in shapes.table
    ]
    requests: List[tuple] = []
    ops_by_rid: Dict[int, List[tuple]] = {}
    spinup_by_disk: Dict[str, List[_Interval]] = {}
    background_by_disk: Dict[str, List[_Interval]] = {}
    # Records are (ts, track, category, name, dur, shape, *attr values).
    for record in records:
        at = span_attrs[record[5]]
        if at is None:
            continue
        category = record[2]
        if category == "request":
            requests.append(record)
        elif category == "disk_op":
            i = at.get("rid")
            if i is not None and record[i] is not None:
                ops_by_rid.setdefault(record[i], []).append(record)
            if record[3].endswith(":background"):
                i = at.get("proc")
                background_by_disk.setdefault(record[1], []).append(
                    (
                        record[0],
                        record[0] + record[4],
                        "background" if i is None else str(record[i]),
                    )
                )
        elif category == "power" and record[3] == "spinning_up":
            spinup_by_disk.setdefault(record[1], []).append(
                (record[0], record[0] + record[4], None)
            )
    spinup_index = {
        disk: _IntervalIndex(spans) for disk, spans in spinup_by_disk.items()
    }
    background_index = {
        disk: _IntervalIndex(spans)
        for disk, spans in background_by_disk.items()
    }

    out: List[RequestAttribution] = []
    for req in requests:
        i = span_attrs[req[5]].get("rid")
        rid = None if i is None else req[i]
        measured = req[4]
        phases = {phase: 0.0 for phase in PHASES}
        disk: Optional[str] = None
        culprit: Optional[str] = None
        ops = ops_by_rid.get(rid)
        if ops:
            critical = max(ops, key=_end_then_start)
            disk = critical[1]
            attrs = shapes.attrs(critical)
            seek = float(attrs.get("seek_s", 0.0))
            rot = float(attrs.get("rot_s", 0.0))
            transfer = float(attrs.get("transfer_s", critical[4]))
            start = critical[0]
            submit = start - float(attrs.get("queued_s", 0.0))
            spinup, _ = spinup_index.get(disk, _NO_INTERVALS).overlap(
                submit, start
            )
            interference, worst_proc = background_index.get(
                disk, _NO_INTERVALS
            ).overlap(submit, start)
            phases["seek"] = seek
            phases["rotation"] = rot
            phases["transfer"] = transfer
            phases["spinup"] = spinup
            phases["interference"] = interference
            if spinup > 0 and spinup >= interference:
                culprit = f"spin-up:{disk}"
            elif worst_proc is not None:
                culprit = worst_proc
        # Residual: controller-side delay + foreground queueing.  By
        # construction it is non-negative (up to float rounding) and
        # makes the six phases sum to the measured latency exactly.
        phases["queue"] = measured - sum(
            phases[p] for p in PHASES if p != "queue"
        )
        out.append(
            RequestAttribution(
                rid=rid if rid is not None else -1,
                kind=req[3],
                arrival=req[0],
                measured=measured,
                phases=phases,
                disk=disk,
                culprit=culprit,
            )
        )
    out.sort(key=lambda a: a.rid)
    return out


def _quantile_entry(
    ranked: List[RequestAttribution], q: float
) -> Dict[str, Any]:
    # Nearest-rank: the breakdown reported for p95 is a *real* request's
    # decomposition, so phases still sum to its measured latency exactly.
    n = len(ranked)
    index = min(n - 1, max(0, math.ceil(q * n) - 1))
    pick = ranked[index]
    return {
        "latency_s": pick.measured,
        "rid": pick.rid,
        "disk": pick.disk,
        "culprit": pick.culprit,
        "phases": dict(pick.phases),
        "fractions": pick.fractions(),
    }


def attribution_summary(
    attributions: List[RequestAttribution],
    quantiles: Tuple[float, ...] = ATTRIBUTION_QUANTILES,
) -> Dict[str, Any]:
    """Aggregate per-request decompositions into a report-ready summary.

    ``quantiles`` entries pick the nearest-rank request by measured
    latency and report *that request's* exact breakdown; ``mean`` sums
    phases across all requests (so its phases sum to the mean latency).
    """
    if not attributions:
        return {"count": 0, "mean": None, "quantiles": {}}
    ranked = sorted(attributions, key=lambda a: a.measured)
    n = len(ranked)
    mean_phases = {
        phase: sum(a.phases[phase] for a in ranked) / n for phase in PHASES
    }
    mean_latency = sum(a.measured for a in ranked) / n
    mean_fractions = (
        {p: v / mean_latency for p, v in mean_phases.items()}
        if mean_latency > 0
        else {p: 0.0 for p in PHASES}
    )
    return {
        "count": n,
        "mean": {
            "latency_s": mean_latency,
            "phases": mean_phases,
            "fractions": mean_fractions,
        },
        "quantiles": {
            f"p{int(q * 100)}": _quantile_entry(ranked, q)
            for q in quantiles
        },
    }


def slowest_requests(
    attributions: List[RequestAttribution], k: int
) -> List[RequestAttribution]:
    """The ``k`` slowest requests, slowest first (explorer drill-down)."""
    return sorted(attributions, key=lambda a: -a.measured)[:k]


def format_attribution(summary: Dict[str, Any]) -> str:
    """Plain-text rendering of :func:`attribution_summary` for the CLI."""
    if not summary.get("count"):
        return "no requests attributed"
    lines = [
        f"{summary['count']} requests attributed",
        "  phase fractions (of measured latency):",
    ]
    header = "    {:<6}".format("")
    header += "".join(f"{p:>14}" for p in PHASES)
    header += f"{'latency_ms':>14}"
    lines.append(header)
    rows = [("mean", summary["mean"])]
    rows.extend(sorted(summary["quantiles"].items()))
    for label, entry in rows:
        row = f"    {label:<6}"
        row += "".join(
            f"{entry['fractions'][p]:>13.1%} " for p in PHASES
        )
        row += f"{entry['latency_s'] * 1e3:>13.3f} "
        lines.append(row.rstrip())
    return "\n".join(lines)
