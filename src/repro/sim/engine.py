"""Deterministic discrete-event simulation core.

The :class:`Simulator` owns a virtual clock and a binary-heap event queue.
Events scheduled for the same instant fire in scheduling (FIFO) order, which
makes runs reproducible regardless of callback content.  All times are
floating-point seconds.

Hot-path design (every simulated disk op passes through here twice):

* Each event is one plain heap entry, the list ``[time, seq, callback,
  args]``, so ``heappush``/``heappop`` compare plain floats and ints in C
  and never call back into Python (seqs are unique, so no comparison
  reaches the callback).  Nothing is recycled: a fired entry is dropped,
  and the next push builds a fresh list.  The hottest sources (a disk's
  op completions, the trace driver's arrivals, the copy fast-forward) push
  their entries themselves.
* :meth:`Simulator.schedule` and :meth:`Simulator.at` wrap the entry in a
  small cancel handle (:class:`Event`); :class:`Timer` keeps the raw
  entry.  Cancelling sets the entry's callback to ``None`` (lazy deletion,
  O(1)); the run loop drops such entries when it reaches them.  Cancelling
  an event that already fired does nothing.
* The simulator keeps an exact census of cancelled entries still in the
  heap, and the cancel that brings them past half of a non-trivial heap
  compacts it in place, so pathological ``Timer`` re-arm patterns cannot
  grow the heap without bound.  Pushes pay no such test.
* Nothing observes events one by one.  A sampled observer that acts
  only every n-th event installs a *stride* (:meth:`Simulator.add_stride`):
  the strided loop keeps one countdown inline and calls back only when it
  hits zero, and code that dispatches events virtually (a fast-forwarded
  copy chain, see :mod:`repro.core.destage`) advances the same countdown,
  so callbacks land on the same event indices either way.  Several
  strides share the countdown (see :meth:`Simulator._restride`).
* Events carry no label.  They are counted by label without per-event
  work: each event source tallies its own fires (see
  :meth:`Simulator.label_census`).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Automatic compaction threshold: compact when the heap holds more than
#: this many entries AND more than half of them are cancelled.
_COMPACT_MIN_HEAP = 1024


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


class Event:
    """The cancel handle of a scheduled callback.

    Returned by :meth:`Simulator.schedule` and :meth:`Simulator.at`; it
    wraps the event's heap entry ``[time, seq, callback, args]``.
    """

    __slots__ = ("_entry", "_sim")

    def __init__(self, sim: "Simulator", entry: list) -> None:
        self._sim = sim
        self._entry = entry

    @property
    def time(self) -> float:
        """The virtual time the event fires (or fired) at."""
        return self._entry[0]

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent, and a no-op once
        the event has fired."""
        entry = self._entry
        sim = self._sim
        if entry[2] is not None and (
            entry[0] > sim._now or any(e is entry for e in sim._heap)
        ):
            sim._drop(entry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entry = self._entry
        state = "cancelled" if entry[2] is None else entry[2]
        return f"<Event t={entry[0]:.6f} {state}>"


class Simulator:
    """Event-driven simulator with a monotonic virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg1, arg2)
        sim.run()            # drains the event queue
        sim.now              # final virtual time
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: Heap of ``[time, seq, callback, args]`` entries; a cancelled
        #: entry's callback is ``None`` (see module docstring).
        self._heap: List[list] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: The monomorphic run loop selected when the strides change.
        self._run_loop: Callable[[Optional[float]], None] = self._run_nohook
        #: Census of cancelled entries still sitting in the heap.
        self._cancelled = 0
        #: How many automatic/explicit compactions have run (introspection).
        self.compactions = 0
        #: Stride countdown (see :meth:`add_stride`): ``_stride_fn`` runs
        #: before every ``_stride_every``-th event, ``_stride_left`` events
        #: from now.  ``_strides`` holds each stride as ``[every,
        #: callback, events to its next call]``, the last counted from the
        #: countdown's latest reset, which set it to ``_stride_span``.
        self._stride_fn: Optional[Callable[[], None]] = None
        self._stride_every = 0
        self._stride_left = 0
        self._stride_span = 0
        self._strides: List[list] = []
        #: Fires of the rarely scheduled event sources (timers, spin-ups,
        #: polls, faults, samplers), by label; each counts its own.
        self.fired: Counter = Counter()
        #: ``tally() -> (label, count)`` of the sources that already count
        #: their fires (a disk's completions, the trace driver's arrivals).
        self._tallies: List[Callable[[], Tuple[str, int]]] = []
        #: The ``until`` of the :meth:`run` in progress (``inf`` for none);
        #: ``-inf`` outside :meth:`run`, so nothing is dispatched virtually
        #: under :meth:`step` or between runs.
        self._until = -math.inf

    def add_stride(self, every: int, callback: Callable[[], None]) -> None:
        """Run ``callback()`` before every ``every``-th event from now on.

        The callback sees the clock at the event's time, before the event's
        own callback runs; events in between cost no call.  Strides added
        together fire in the order added when they fall on one event;
        :meth:`remove_stride` removes one.
        """
        if every <= 0:
            raise SimulationError(f"non-positive stride {every!r}")
        self._strides = self._pending_strides()
        self._strides.append([every, callback, every])
        self._restride()

    def remove_stride(self, callback: Callable[[], None]) -> None:
        """Remove the stride of ``callback`` (a no-op if there is none)."""
        strides = self._pending_strides()
        self._strides = [s for s in strides if s[1] != callback]
        self._restride()

    def _pending_strides(self) -> List[list]:
        """The strides with the events each still waits, as of now."""
        strides = self._strides
        if len(strides) == 1:
            # A lone stride is the countdown itself (see _restride).
            strides[0][2] = self._stride_left
        else:
            counted = self._stride_span - self._stride_left
            for stride in strides:
                stride[2] -= counted
        return strides

    def _restride(self) -> None:
        """Set the shared countdown and the run loop for ``_strides``.

        One stride is the countdown itself.  Several share a countdown at
        the gcd of their periods and of the gaps between their next
        calls, which every call point of each is a multiple of, and
        :meth:`_stride_fire` calls each on its own points.
        """
        strides = self._strides
        if not strides:
            self._stride_fn = None
            self._run_loop = self._run_nohook
            return
        if len(strides) == 1:
            every, callback, left = strides[0]
            self._stride_fn = callback
        else:
            first = strides[0][2]
            every = 0
            for period, _, left in strides:
                every = math.gcd(every, period, left - first)
            left = (first - 1) % every + 1
            self._stride_fn = self._stride_fire
        self._stride_every = every
        self._stride_left = self._stride_span = left
        self._run_loop = self._run_strided

    def _stride_fire(self) -> None:
        """The shared countdown hit zero: call the strides due now."""
        counted = self._stride_span
        self._stride_span = self._stride_every
        for stride in self._strides:
            left = stride[2] - counted
            if left:
                stride[2] = left
            else:
                stride[2] = stride[0]
                stride[1]()

    def add_tally(self, tally: Callable[[], Tuple[str, int]]) -> None:
        """Register an event source that counts its own fires:
        ``tally()`` returns ``(label, fires so far)``."""
        self._tallies.append(tally)

    def label_census(self) -> Dict[str, int]:
        """Events dispatched so far, by label, at no per-event cost.

        The rare sources' :attr:`fired` counts plus every registered
        tally; dispatched events that no source counted (a callback
        scheduled by foreign code) appear under the empty label.
        """
        census = dict(self.fired)
        for tally in self._tallies:
            label, count = tally()
            if count:
                census[label] = census.get(label, 0) + count
        residual = self.events_processed - sum(census.values())
        if residual:
            census[""] = census.get("", 0) + residual
        return census

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def heap_size(self) -> int:
        """Pending heap entries, including not-yet-collected cancellations."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Census of cancelled events still occupying heap slots."""
        return self._cancelled

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"invalid delay {delay!r}")
        return Event(self, self._push(self._now + delay, callback, args))

    def at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        return Event(self, self._push(time, callback, args))

    def _push(
        self, time: float, callback: Callable[..., None], args: tuple
    ) -> list:
        """Push and return the heap entry of ``callback(*args)`` at
        ``time``.  Refuses any ``time`` that is not ``>= now``, NaN
        included."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock already at {self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback, args]
        heapq.heappush(self._heap, entry)
        return entry

    def _drop(self, entry: list) -> None:
        """Cancel the pending heap ``entry``.  The cancel that leaves
        cancelled entries over half of a heap larger than
        ``_COMPACT_MIN_HEAP`` compacts it."""
        entry[2] = None
        self._cancelled += 1
        heap = self._heap
        if len(heap) > _COMPACT_MIN_HEAP and self._cancelled * 2 > len(heap):
            self.compact()

    def compact(self) -> int:
        """Drop cancelled entries from the heap in place.

        Runs automatically from :meth:`_drop`; callers may also invoke it
        directly.  Returns the number of entries removed.  The heap list
        object is mutated in place so the run loop's local binding stays
        valid even when a callback triggers compaction.
        """
        heap = self._heap
        live = [entry for entry in heap if entry[2] is not None]
        removed = len(heap) - len(live)
        if removed:
            heap[:] = live
            heapq.heapify(heap)
        self._cancelled = 0
        self.compactions += 1
        return removed

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def poll(
        self,
        interval: float,
        predicate: Callable[[], bool],
        action: Callable[[], None],
        label: str = "poll",
    ) -> None:
        """Run ``action`` as soon as ``predicate`` holds, checking now and
        then every ``interval`` seconds.

        The check-and-reschedule happens inside scheduled events, so the
        wait participates in normal FIFO tie-breaking and the simulation
        stays deterministic.  The immediate check runs synchronously; only
        re-checks consume events.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive poll interval {interval!r}")
        if predicate():
            action()
            return

        def _recheck() -> None:
            self.fired[label] += 1
            if predicate():
                action()
            else:
                self.schedule(interval, _recheck)

        self.schedule(interval, _recheck)

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        head = self._head()
        return None if head is None else head[0]

    def _head(self) -> Optional[list]:
        """The next live heap entry, or ``None``.

        Cancelled entries ahead of it are collected on the way, as the run
        loop would collect them on reaching them.
        """
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0] if heap else None

    def _head_except(self, entries: Tuple[list, ...]) -> Optional[list]:
        """The next live entry that is none of ``entries``, or ``None``:
        :meth:`_head`, then a best-first walk down the heap past the
        entries it skips, leaving them in place.  (Seqs are unique, so
        ``in`` matches an entry only by identity.)"""
        head = self._head()
        if head is None or head not in entries:
            return head
        heap = self._heap
        size = len(heap)
        frontier = [(heap[i][0], heap[i][1], i) for i in (1, 2) if i < size]
        heapq.heapify(frontier)
        while frontier:
            index = heapq.heappop(frontier)[2]
            entry = heap[index]
            if entry[2] is not None and entry not in entries:
                return entry
            for child in (2 * index + 1, 2 * index + 2):
                if child < size:
                    below = heap[child]
                    heapq.heappush(frontier, (below[0], below[1], child))
        return None

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` when the queue is empty.

        Exactly one: its callback sees no ``run(until=)`` horizon, even
        when a run loop calls this, so nothing is dispatched virtually.
        """
        heap = self._heap
        while heap:
            time, _seq, callback, args = heapq.heappop(heap)
            if callback is None:
                self._cancelled -= 1
                continue
            self._now = time
            self.events_processed += 1
            if self._stride_fn is not None:
                self._stride_left -= 1
                if not self._stride_left:
                    self._stride_left = self._stride_every
                    self._stride_fn()
            until = self._until
            self._until = -math.inf
            try:
                callback(*args)
            finally:
                self._until = until
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final virtual time.  When ``until`` is given the clock is
        advanced to exactly ``until`` even if the last event fired earlier,
        so time-weighted statistics close cleanly.

        Dispatches to the monomorphic loop selected when the strides last
        changed, so the common unobserved path never tests for
        instrumentation — not even once per run.
        """
        if self._running:
            raise SimulationError("simulator is re-entrant only via step()")
        self._running = True
        self._stopped = False
        self._until = math.inf if until is None else until
        try:
            self._run_loop(until)
        finally:
            self._running = False
            self._until = -math.inf
        if until is not None and self._now < until:
            self._now = until
        return self._now

    # The loops below are the simulation's profile-dominating code.  Each
    # is monomorphic: selected once at add/remove_stride time (and, for
    # the ``until`` split, once per run call), with zero feature tests
    # per event.  They inline peek()+step() so each event
    # costs exactly one heap pop (cancelled entries are skipped in place),
    # with the heap and heappop bound to locals.  compact() mutates the
    # heap in place, so the local binding survives a compaction from
    # inside a callback.

    def _run_nohook(self, until: Optional[float]) -> None:
        """Fast loop: no stride countdown (the disabled-cost path)."""
        heap = self._heap
        heappop = heapq.heappop
        processed = 0
        try:
            if until is None:
                while heap and not self._stopped:
                    entry = heappop(heap)
                    callback = entry[2]
                    if callback is None:
                        self._cancelled -= 1
                        continue
                    self._now = entry[0]
                    processed += 1
                    callback(*entry[3])
            else:
                while heap and not self._stopped:
                    entry = heap[0]
                    callback = entry[2]
                    if callback is None:
                        heappop(heap)
                        self._cancelled -= 1
                        continue
                    time = entry[0]
                    if time > until:
                        break
                    heappop(heap)
                    self._now = time
                    processed += 1
                    callback(*entry[3])
        finally:
            self.events_processed += processed

    def _run_strided(self, until: Optional[float]) -> None:
        """The unobserved loop plus the inline stride countdown."""
        heap = self._heap
        heappop = heapq.heappop
        limit = math.inf if until is None else until
        processed = 0
        try:
            while heap and not self._stopped:
                entry = heap[0]
                callback = entry[2]
                if callback is None:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if time > limit:
                    break
                heappop(heap)
                self._now = time
                processed += 1
                left = self._stride_left - 1
                if left:
                    self._stride_left = left
                else:
                    self._stride_left = self._stride_every
                    self._stride_fn()
                callback(*entry[3])
        finally:
            self.events_processed += processed


class Timer:
    """A restartable one-shot timer bound to a simulator.

    Used for idle-detection: (re)arming replaces any pending expiry, so the
    callback only fires when a full quiet interval elapses.
    """

    def __init__(
        self, sim: Simulator, interval: float, callback: Callable[[], None]
    ) -> None:
        if not 0 <= interval < math.inf:
            raise SimulationError(f"invalid timer interval {interval!r}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        #: The pending expiry's raw heap entry, ``None`` when disarmed.
        self._event: Optional[list] = None

    @property
    def armed(self) -> bool:
        return self._event is not None

    def arm(self) -> None:
        """Start (or restart) the countdown from the current instant."""
        sim = self._sim
        if self._event is not None:
            sim._drop(self._event)
        self._event = sim._push(sim._now + self.interval, self._fire, ())

    def cancel(self) -> None:
        if self._event is not None:
            self._sim._drop(self._event)
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._sim.fired["timer"] += 1
        self._callback()
