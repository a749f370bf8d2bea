"""Structured event tracing for simulation runs.

The tracing contract has three parts:

* :class:`Tracer` — the pluggable interface.  Every hook is a no-op on the
  base class, so subclasses only override what they care about.
* :class:`NullTracer` — the default.  It is *falsy* (``bool(NULL_TRACER)``
  is ``False``), which lets instrumented call sites normalize it to
  ``None`` once at construction time and guard each emission with a plain
  ``if tracer is not None`` — the disabled path never pays a method call,
  and the optimized ``Simulator.run`` loop is untouched entirely.
* :class:`RecordingTracer` — an in-memory recorder producing
  :class:`TraceEvent` records that the exporters in
  :mod:`repro.obs.export` turn into JSONL or Chrome trace-event JSON.

Tracers observe only: no hook may schedule simulator events or mutate
controller/disk state, which is what keeps a traced run's
:class:`~repro.core.metrics.RunMetrics` byte-identical to an untraced one.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.disk.disk import OpKind, Priority

#: Track name used for array-level request spans (one track for the whole
#: array; individual disks each get their own track).
REQUEST_TRACK = "requests"

#: Trace-record spellings of op kinds and priorities, looked up by member
#: so the recorders skip the enum descriptors per op.
_KIND_NAMES = {kind: kind.value for kind in OpKind}
_PRIORITY_NAMES = {priority: priority.name.lower() for priority in Priority}


@dataclasses.dataclass
class TraceEvent:
    """One recorded observation.

    ``kind`` is ``"span"`` (has a duration), ``"instant"`` (a point event)
    or ``"counter"`` (a sampled value in ``attrs``).  ``ts`` and ``dur``
    are virtual-time seconds; ``track`` groups events into timelines (one
    per disk, one for requests, one per scheme/controller).
    """

    ts: float
    kind: str
    category: str
    name: str
    track: str
    dur: float = 0.0
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ts": self.ts,
            "kind": self.kind,
            "category": self.category,
            "name": self.name,
            "track": self.track,
            "dur": self.dur,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        return cls(
            ts=float(data["ts"]),
            kind=str(data["kind"]),
            category=str(data["category"]),
            name=str(data["name"]),
            track=str(data["track"]),
            dur=float(data.get("dur", 0.0)),
            attrs=dict(data.get("attrs", {})),
        )


class Tracer:
    """Interface every instrumented component emits into.

    All hooks default to no-ops; timestamps are virtual seconds.  The hook
    set mirrors the paper's instrumentation needs: request lifecycle
    (Fig. 3 idle-slot structure), power-state residency (Table I),
    rotation/destage cycles (Fig. 2) and log-space occupancy (§III-E).
    """

    enabled = True

    # -- request lifecycle ------------------------------------------------
    def request_arrived(
        self, rid: int, kind: str, offset: int, nbytes: int, ts: float
    ) -> None:
        """An array-level request entered the controller."""

    def request_admitted(self, rid: int, request: object) -> None:
        """The controller admitted ``request`` (the live
        :class:`~repro.raid.request.IORequest` object) under id ``rid``.

        Span-aware tracers use this to link later disk-op completions back
        to the owning request; plain recorders ignore it."""

    def request_completed(self, rid: int, ts: float) -> None:
        """The request's last constituent disk operation finished."""

    # -- disk server ------------------------------------------------------
    def disk_op(self, disk: Any, op: Any, prev_head: int) -> None:
        """One disk operation completed.

        ``disk`` is the live :class:`~repro.disk.disk.Disk` and ``op`` the
        completed :class:`~repro.disk.disk.DiskOp` (submit/start/finish
        times set, completion callback not yet run); ``prev_head`` is the
        head sector before the op, from which span recorders derive the
        seek/rotation split.  Hooks must not retain ``op``: pooled ops are
        recycled right after their callback returns."""

    def power_state(
        self, disk: str, old: Optional[str], new: str, ts: float
    ) -> None:
        """A disk changed power state (``old is None`` seeds the initial
        state at construction time)."""

    # -- controller dynamics ----------------------------------------------
    def instant(
        self, category: str, name: str, track: str, ts: float, **attrs: Any
    ) -> None:
        """A point event: rotation, destage begin/end, deactivation, ..."""

    def span(
        self,
        category: str,
        name: str,
        track: str,
        start_ts: float,
        end_ts: float,
        **attrs: Any,
    ) -> None:
        """A completed interval (destage process, cycle phase, ...)."""

    def counter(
        self, name: str, track: str, ts: float, value: float, **attrs: Any
    ) -> None:
        """A sampled scalar (log occupancy, queue depth, ...)."""

    # -- fault injection ---------------------------------------------------
    def fault(self, name: str, track: str, ts: float, **attrs: Any) -> None:
        """A fault-injection event (disk failure, slowdown, latent error,
        rebuild milestones).  Default routes through :meth:`instant` under
        the ``"fault"`` category so recorders need no extra handling."""
        self.instant("fault", name, track, ts, **attrs)

    # ---------------------------------------------------------------------
    def finish(self, ts: float) -> None:
        """Close any open spans at the end of the run.  Idempotent."""


class NullTracer(Tracer):
    """The zero-overhead default: falsy, and every hook is a no-op."""

    enabled = False

    def __bool__(self) -> bool:
        return False


#: Shared singleton — there is never a reason to hold two NullTracers.
NULL_TRACER = NullTracer()


def normalize(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Map ``None``/NullTracer to ``None`` so call sites guard with a plain
    identity check instead of a virtual call."""
    return tracer if tracer else None


class RecordingTracer(Tracer):
    """Collects :class:`TraceEvent` records in memory.

    Power states and requests arrive as open/close edges; the recorder
    pairs them into spans.  :meth:`finish` closes whatever is still open
    (e.g. the final power state of every disk) at the run's end time.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.counts: Dict[str, int] = {}
        #: disk -> (state name, span start)
        self._open_power: Dict[str, Tuple[str, float]] = {}
        #: rid -> (kind, offset, nbytes, arrival ts)
        self._open_requests: Dict[int, Tuple[str, int, int, float]] = {}
        self._finished = False

    # ------------------------------------------------------------------
    def _emit(self, event: TraceEvent) -> None:
        self.events.append(event)
        self.counts[event.category] = self.counts.get(event.category, 0) + 1

    def request_arrived(
        self, rid: int, kind: str, offset: int, nbytes: int, ts: float
    ) -> None:
        self._open_requests[rid] = (kind, offset, nbytes, ts)

    def request_completed(self, rid: int, ts: float) -> None:
        opened = self._open_requests.pop(rid, None)
        if opened is None:
            return
        kind, offset, nbytes, start = opened
        self._emit(
            TraceEvent(
                ts=start,
                kind="span",
                category="request",
                name=kind,
                track=REQUEST_TRACK,
                dur=ts - start,
                attrs={"rid": rid, "offset": offset, "nbytes": nbytes},
            )
        )

    def disk_op(self, disk: Any, op: Any, prev_head: int) -> None:
        self._emit(self._op_span(disk, op))

    @staticmethod
    def _op_span(disk: Any, op: Any) -> TraceEvent:
        """The disk-op span every recorder emits (subclasses add attrs)."""
        start = op.start_time
        return TraceEvent(
            ts=start,
            kind="span",
            category="disk_op",
            name=f"{_KIND_NAMES[op.kind]}:{_PRIORITY_NAMES[op.priority]}",
            track=disk.name,
            dur=op.finish_time - start,
            attrs={
                "sector": op.sector,
                "nbytes": op.nbytes,
                "queued_s": start - op.submit_time,
            },
        )

    def power_state(
        self, disk: str, old: Optional[str], new: str, ts: float
    ) -> None:
        opened = self._open_power.get(disk)
        if opened is not None:
            state, since = opened
            self._emit(
                TraceEvent(
                    ts=since,
                    kind="span",
                    category="power",
                    name=state,
                    track=disk,
                    dur=ts - since,
                )
            )
        self._open_power[disk] = (new, ts)

    def instant(
        self, category: str, name: str, track: str, ts: float, **attrs: Any
    ) -> None:
        self._emit(
            TraceEvent(
                ts=ts,
                kind="instant",
                category=category,
                name=name,
                track=track,
                attrs=attrs,
            )
        )

    def span(
        self,
        category: str,
        name: str,
        track: str,
        start_ts: float,
        end_ts: float,
        **attrs: Any,
    ) -> None:
        self._emit(
            TraceEvent(
                ts=start_ts,
                kind="span",
                category=category,
                name=name,
                track=track,
                dur=end_ts - start_ts,
                attrs=attrs,
            )
        )

    def counter(
        self, name: str, track: str, ts: float, value: float, **attrs: Any
    ) -> None:
        self._emit(
            TraceEvent(
                ts=ts,
                kind="counter",
                category="counter",
                name=name,
                track=track,
                attrs={"value": value, **attrs},
            )
        )

    def finish(self, ts: float) -> None:
        if self._finished:
            return
        self._finished = True
        for disk in sorted(self._open_power):
            state, since = self._open_power[disk]
            self._emit(
                TraceEvent(
                    ts=since,
                    kind="span",
                    category="power",
                    name=state,
                    track=disk,
                    dur=ts - since,
                )
            )
        self._open_power.clear()

    # ------------------------------------------------------------------
    def sorted_events(self) -> List[TraceEvent]:
        """Events in (ts, track, name) order — stable across runs because
        virtual time and emission order are both deterministic."""
        return sorted(
            self.events, key=lambda e: (e.ts, e.track, e.category, e.name)
        )
