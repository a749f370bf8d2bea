"""Structured event tracing for simulation runs.

The tracing contract has three parts:

* :class:`Tracer` — the pluggable interface.  Every hook is a no-op on the
  base class, so subclasses only override what they care about.
* :class:`NullTracer` — the default.  It is *falsy* (``bool(NULL_TRACER)``
  is ``False``), which lets instrumented call sites normalize it to
  ``None`` once at construction time and guard each emission with a plain
  ``if tracer is not None`` — the disabled path never pays a method call,
  and the optimized ``Simulator.run`` loop is untouched entirely.
* :class:`RecordingTracer` — an in-memory recorder.  Each observation
  is one flat tuple of atoms (see :class:`Shapes`), not an object with an
  attrs dict, so a recorded run holds no per-record garbage for the
  cyclic GC to scan.  :meth:`RecordingTracer.sorted_events` returns an
  :class:`EventView` that sorts the records when first read in order and
  builds :class:`TraceEvent` objects only when iterated: the exporters in
  :mod:`repro.obs.export` turn them into JSONL or Chrome trace-event
  JSON, while :func:`~repro.obs.attribution.attribute_events` reads the
  records unsorted.

Tracers observe only: no hook may schedule simulator events or mutate
controller/disk state, which is what keeps a traced run's
:class:`~repro.core.metrics.RunMetrics` byte-identical to an untraced one.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from repro.disk.disk import OpKind, Priority

#: Track name used for array-level request spans (one track for the whole
#: array; individual disks each get their own track).
REQUEST_TRACK = "requests"

#: Disk-op span names (``"write:background"``), read as
#: ``OP_NAMES[op.kind is WRITE][op.priority]``: an identity test and two
#: tuple indexes, so the recorders hash no enum per op.
OP_NAMES = tuple(
    tuple(f"{kind.value}:{priority.name.lower()}" for priority in Priority)
    for kind in (OpKind.READ, OpKind.WRITE)
)
WRITE = OpKind.WRITE


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
    def request_completed(self, request: Any, ts: float) -> None:
        """The request's last constituent disk operation finished.

        ``request`` is the live :class:`~repro.raid.request.IORequest`:
        its ``rid``, ``kind``, ``offset``, ``nbytes`` and
        ``arrival_time`` describe the whole span.  Hooks must not retain
        it: requests are recycled right after this hook returns."""

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

    def power_hook(self, disk: Any) -> Callable[[float, Any, Any], None]:
        """Seed ``disk``'s current power state and return the callable
        its accountant calls on every transition, ``hook(now, old,
        new)`` with :class:`~repro.disk.power.PowerState` members.

        This one routes each transition to :meth:`power_state`; a
        recorder may return a hook that records directly."""
        name = disk.name
        power_state = self.power_state
        power_state(name, None, disk.power.state.value, disk.sim.now)

        def hook(now: float, old: Any, new: Any) -> None:
            power_state(name, old.value, new.value, now)

        return hook

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


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
#: A record is ``(ts, track, category, name, dur, shape, *values)``: the
#: event's fields, then its attr values from index :data:`VALUES_AT` on.
#: ``shape`` is an id in the record set's :class:`Shapes`, which holds
#: the event's kind and the attr keys the values belong to.
VALUES_AT = 6

#: ``(ts, track, category, name)``: the :meth:`RecordingTracer.sorted_events`
#: order.
_ORDER = itemgetter(0, 1, 2, 3)

#: Attr keys of a plain disk-op span.  A span recorder's disk-op spans
#: add the phase keys and, last, the owner's.
OP_KEYS = ("sector", "nbytes", "queued_s")
PHASE_KEYS = OP_KEYS + ("seek_s", "rot_s", "transfer_s")

#: The shapes the recorders emit per request, op and power span and
#: attr-free counter, with ids ``0..6`` in every :class:`Shapes`.
_FIXED_SHAPES = (
    ("span", ("rid", "offset", "nbytes")),
    ("span", OP_KEYS),
    ("span", ()),
    ("span", PHASE_KEYS),
    ("span", PHASE_KEYS + ("rid",)),
    ("span", PHASE_KEYS + ("proc",)),
    ("counter", ("value",)),
)
(
    REQUEST, OP, POWER, PHASED_OP, OWNED_BY_RID, OWNED_BY_PROC, COUNTER
) = range(len(_FIXED_SHAPES))


class Shapes:
    """Shape id -> ``(kind, attr keys)`` for one set of records.

    The fixed shapes hold the same ids everywhere; any other shape gets
    the next id on first use.
    """

    __slots__ = ("table", "_ids")

    def __init__(self) -> None:
        self.table: List[Tuple[str, Tuple[str, ...]]] = list(_FIXED_SHAPES)
        self._ids = {shape: i for i, shape in enumerate(self.table)}

    def id(self, kind: str, keys: Tuple[str, ...]) -> int:
        shape = (kind, keys)
        found = self._ids.get(shape)
        if found is None:
            found = self._ids[shape] = len(self.table)
            self.table.append(shape)
        return found

    def attrs(self, record: tuple) -> Dict[str, Any]:
        """A record's attrs, as the dict its :class:`TraceEvent` carries."""
        return dict(zip(self.table[record[5]][1], record[VALUES_AT:]))

    def event(self, record: tuple) -> TraceEvent:
        return TraceEvent(
            record[0], self.table[record[5]][0], record[2], record[3],
            record[1], record[4], self.attrs(record),
        )

    def record(self, event: TraceEvent) -> tuple:
        attrs = event.attrs
        return (
            event.ts, event.track, event.category, event.name, event.dur,
            self.id(event.kind, tuple(attrs)), *attrs.values(),
        )


class EventView:
    """Records in ``(ts, track, category, name)`` order, read as events.

    The view sorts its records on first iteration or :attr:`records`
    access, once; iterating builds each :class:`TraceEvent` on demand,
    any number of times.  ``len`` and
    :func:`~repro.obs.attribution.attribute_events` read the records as
    given and neither sorts nor builds events.  The sort is stable, so
    equal keys keep emission order.
    """

    __slots__ = ("_records", "_sorted", "shapes")

    def __init__(self, records: List[tuple], shapes: Shapes) -> None:
        self._records = records
        self._sorted: Optional[List[tuple]] = None
        self.shapes = shapes

    @classmethod
    def of(cls, events: Iterable[TraceEvent]) -> "EventView":
        """The view of hand-built or file-read events."""
        shapes = Shapes()
        return cls(list(map(shapes.record, events)), shapes)

    @property
    def records(self) -> List[tuple]:
        """The records, sorted."""
        if self._sorted is None:
            self._sorted = sorted(self._records, key=_ORDER)
        return self._sorted

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(self.shapes.event, self.records)


def records_of(
    events: Iterable[TraceEvent],
) -> Tuple[List[tuple], Shapes]:
    """The records behind ``events`` and their shapes: a view's own, in
    no particular order, or one converted per event in the order given."""
    if isinstance(events, EventView):
        return events._records, events.shapes
    shapes = Shapes()
    return [shapes.record(event) for event in events], shapes


class RecordingTracer(Tracer):
    """Collects one record per observation, in emission order.

    Power states arrive as open/close edges, which the recorder pairs
    into spans; a request is recorded whole when it completes, from the
    fields it carries.  :meth:`finish` closes whatever is still open
    (the final power state of every disk) at the run's end time.
    """

    def __init__(self) -> None:
        self.records: List[tuple] = []
        self.shapes = Shapes()
        self._append = self.records.append
        #: disk -> [state name, span start]; the state is None while no
        #: span is open.  Each disk's power hook updates its entry in place.
        self._open_power: Dict[str, list] = {}
        self._finished = False

    @property
    def events(self) -> List[TraceEvent]:
        """Every record as a :class:`TraceEvent`, in emission order."""
        return list(map(self.shapes.event, self.records))

    @property
    def counts(self) -> Dict[str, int]:
        """Records per category, in order of first appearance."""
        return dict(Counter(record[2] for record in self.records))

    # ------------------------------------------------------------------
    def request_completed(self, request: Any, ts: float) -> None:
        start = request.arrival_time
        self._append(
            (start, REQUEST_TRACK, "request", request.kind.value,
             ts - start, REQUEST, request.rid, request.offset,
             request.nbytes)
        )

    def disk_op(self, disk: Any, op: Any, prev_head: int) -> None:
        start = op.start_time
        self._append(
            (start, disk.name, "disk_op",
             OP_NAMES[op.kind is WRITE][op.priority],
             op.finish_time - start, OP,
             op.sector, op.nbytes, start - op.submit_time)
        )

    def power_state(
        self, disk: str, old: Optional[str], new: str, ts: float
    ) -> None:
        opened = self._open_power.get(disk)
        if opened is None:
            self._open_power[disk] = [new, ts]
            return
        state, since = opened
        if state is not None:
            self._append((since, disk, "power", state, ts - since, POWER))
        opened[0] = new
        opened[1] = ts

    def power_hook(self, disk: Any) -> Callable[[float, Any, Any], None]:
        """A hook that appends the closed power span itself: one call per
        transition, on the disk's own entry of the open-span table."""
        name = disk.name
        self.power_state(name, None, disk.power.state.value, disk.sim.now)
        opened = self._open_power[name]
        append = self._append

        def hook(now: float, old: Any, new: Any) -> None:
            state = opened[0]
            if state is not None:
                since = opened[1]
                append((since, name, "power", state, now - since, POWER))
            opened[0] = new._value_  # ``new.value``, without the descriptor
            opened[1] = now

        return hook

    def instant(
        self, category: str, name: str, track: str, ts: float, **attrs: Any
    ) -> None:
        self._append(
            (ts, track, category, name, 0.0,
             self.shapes.id("instant", tuple(attrs)), *attrs.values())
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
        self._append(
            (start_ts, track, category, name, end_ts - start_ts,
             self.shapes.id("span", tuple(attrs)), *attrs.values())
        )

    def counter(
        self, name: str, track: str, ts: float, value: float, **attrs: Any
    ) -> None:
        if not attrs:
            self._append((ts, track, "counter", name, 0.0, COUNTER, value))
            return
        self._append(
            (ts, track, "counter", name, 0.0,
             self.shapes.id("counter", ("value", *attrs)),
             value, *attrs.values())
        )

    def finish(self, ts: float) -> None:
        if self._finished:
            return
        self._finished = True
        for disk in sorted(self._open_power):
            opened = self._open_power[disk]
            state, since = opened
            if state is not None:
                self._append((since, disk, "power", state, ts - since, POWER))
                opened[0] = None

    # ------------------------------------------------------------------
    def sorted_events(self) -> EventView:
        """The records in (ts, track, category, name) order — stable
        across runs because virtual time and emission order are both
        deterministic.  The view holds a copy of the record list, sorted
        when first read in order."""
        return EventView(list(self.records), self.shapes)
