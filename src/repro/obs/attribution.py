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

Cost: the records are read once, in any order (no global sort); each
disk's spin-up and background spans are indexed once per call (a stable
sort of that disk's spans by start plus a running max of ends), so a
request's wait window costs two bisections plus the slice they bound:
O(R + B log B + overlaps) for R requests and B background spans.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import attrgetter, itemgetter
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

    Intervals are stably sorted by start (one disk's spans start at
    distinct times in any recorded run, so every input order gives the
    same index) and paired with a running maximum of their ends.  For a
    window ``[lo, hi]`` every interval before the first running max
    above ``lo`` ends at or before ``lo``, and every interval from the
    first start at or after ``hi`` starts at or after ``hi``: both
    overlap by ``<= 0``.  Two bisections therefore bound the
    contiguous slice that can overlap, even when intervals nest or
    overlap each other.
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


#: Span attrs an attribution reads, in the order of a shape's layout.
_LAYOUT_KEYS = ("rid", "proc", "queued_s", "seek_s", "rot_s", "transfer_s")


def _layout(kind: str, keys: Tuple[str, ...]) -> Optional[Tuple[int, ...]]:
    """Where a span shape keeps each of :data:`_LAYOUT_KEYS`: its record
    index, or 0 when the shape lacks it; ``None`` for other kinds."""
    if kind != "span":
        return None
    return tuple(
        VALUES_AT + keys.index(key) if key in keys else 0
        for key in _LAYOUT_KEYS
    )


def attribute_events(
    events: Iterable[TraceEvent],
) -> List[RequestAttribution]:
    """Decompose every request span in ``events`` (ordered by rid).

    ``events`` must come from a span-traced run (disk-op spans carrying
    ``seek_s``/``rot_s``/``transfer_s`` and ``rid``/``proc`` attrs); a
    plain-traced stream yields all-queue attributions, which is honest
    but useless.  Any iterable of :class:`TraceEvent` in any order gives
    the same result (see ``critical`` below for the one tie rule); a
    recorder's :meth:`~repro.obs.tracer.RecordingTracer.sorted_events`
    view is read record by record and never sorted, and any other
    iterable is converted to records first.
    """
    records, shapes = records_of(events)
    layouts = [_layout(kind, keys) for kind, keys in shapes.table]
    requests: List[tuple] = []
    # rid -> the op that completed the request (its critical op): the
    # latest end, then the latest start, then the smallest (track, name).
    # That is the first maximum of (end, start) in (ts, track, category,
    # name) order, made a rule so that any record order picks the same op.
    critical: Dict[Any, tuple] = {}
    spinup_by_disk: Dict[str, List[_Interval]] = {}
    background_by_disk: Dict[str, List[_Interval]] = {}
    # Records are (ts, track, category, name, dur, shape, *attr values).
    for record in records:
        layout = layouts[record[5]]
        if layout is None:
            continue
        category = record[2]
        if category == "disk_op":
            i = layout[0]
            if i:
                rid = record[i]
                if rid is not None:
                    best = critical.get(rid)
                    if best is None:
                        critical[rid] = record
                    else:
                        end = record[0] + record[4]
                        best_end = best[0] + best[4]
                        if end > best_end or end == best_end and (
                            record[0] > best[0]
                            or record[0] == best[0]
                            and (record[1], record[3]) < (best[1], best[3])
                        ):
                            critical[rid] = record
            if record[3].endswith(":background"):
                i = layout[1]
                background_by_disk.setdefault(record[1], []).append(
                    (
                        record[0],
                        record[0] + record[4],
                        str(record[i]) if i else "background",
                    )
                )
        elif category == "power":
            if record[3] == "spinning_up":
                spinup_by_disk.setdefault(record[1], []).append(
                    (record[0], record[0] + record[4], None)
                )
        elif category == "request":
            requests.append(record)
    spinup_index = {
        disk: _IntervalIndex(spans) for disk, spans in spinup_by_disk.items()
    }
    background_index = {
        disk: _IntervalIndex(spans)
        for disk, spans in background_by_disk.items()
    }

    out: List[RequestAttribution] = []
    for req in requests:
        i = layouts[req[5]][0]
        rid = req[i] if i else None
        measured = req[4]
        disk: Optional[str] = None
        culprit: Optional[str] = None
        op = critical.get(rid)
        if op is not None:
            disk = op[1]
            _, _, queued_i, seek_i, rot_i, transfer_i = layouts[op[5]]
            seek = float(op[seek_i]) if seek_i else 0.0
            rot = float(op[rot_i]) if rot_i else 0.0
            transfer = float(op[transfer_i if transfer_i else 4])
            start = op[0]
            submit = start - (float(op[queued_i]) if queued_i else 0.0)
            index = spinup_index.get(disk)
            spinup = 0.0 if index is None else index.overlap(submit, start)[0]
            index = background_index.get(disk)
            if index is None:
                interference, worst_proc = 0.0, None
            else:
                interference, worst_proc = index.overlap(submit, start)
            if spinup > 0 and spinup >= interference:
                culprit = f"spin-up:{disk}"
            elif worst_proc is not None:
                culprit = worst_proc
        else:
            seek = rot = transfer = spinup = interference = 0.0
        # Residual: controller-side delay + foreground queueing.  By
        # construction it is non-negative (up to float rounding) and
        # makes the six phases sum to the measured latency exactly.
        out.append(
            RequestAttribution(
                rid if rid is not None else -1,
                req[3],
                req[0],
                measured,
                {
                    # ``sum`` as ever: Python 3.12 compensates float sums.
                    "queue": measured - sum(
                        (spinup, interference, seek, rot, transfer)
                    ),
                    "spinup": spinup,
                    "interference": interference,
                    "seek": seek,
                    "rotation": rot,
                    "transfer": transfer,
                },
                disk,
                culprit,
            )
        )
    # Request ids are unique in a recorded run; arrival then kind order
    # id-less hand-built requests as the (ts, ..., name) record order.
    out.sort(key=attrgetter("rid", "arrival", "kind"))
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
    phases = [a.phases for a in ranked]
    mean_phases = {
        phase: sum(map(itemgetter(phase), phases)) / n for phase in PHASES
    }
    mean_latency = sum(map(attrgetter("measured"), ranked)) / n
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
