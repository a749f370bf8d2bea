"""Deterministic discrete-event simulation core.

The :class:`Simulator` owns a virtual clock and a binary-heap event queue.
Events scheduled for the same instant fire in scheduling (FIFO) order, which
makes runs reproducible regardless of callback content.  All times are
floating-point seconds.

Hot-path design (every simulated disk op passes through here twice):

* Heap entries are ``(time, seq, event)`` tuples, so ``heappush``/``heappop``
  compare plain floats and ints in C and never call back into Python
  (``Event`` keeps an ``__lt__`` only as a safety net).
* Fired and cancelled-and-popped events are recycled through a bounded free
  list, so steady-state simulation allocates no per-event objects.
* Cancelled events use lazy deletion (O(1) cancel), but the simulator keeps
  a census of them and compacts the heap in place once they exceed half of
  a non-trivial heap, so pathological ``Timer`` re-arm patterns cannot grow
  the heap without bound.
* Per-event observers are specialized away at setup time: installing or
  removing an observer (``add_event_observer`` / ``remove_event_observer``)
  selects one of several monomorphic run loops, so the no-hook loop carries
  zero hook branches and the hooked loop calls a single pre-fused closure
  (:func:`fuse_observers`) chaining all observers in registration order.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: Recycled Event objects kept for reuse; bounds idle memory while still
#: covering any realistic in-flight event population.
_FREE_LIST_MAX = 4096

#: Automatic compaction threshold: compact when the heap holds more than
#: this many entries AND more than half of them are cancelled.
_COMPACT_MIN_HEAP = 1024


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


def fuse_observers(*observers: Optional[Callable]) -> Optional[Callable]:
    """Fuse per-event observers into one closure, in fixed (given) order.

    ``None`` entries are dropped.  Returns ``None`` for an empty chain and
    the observer itself for a single-element chain, so identity checks on
    :attr:`Simulator.event_hook` keep working for lone observers.  Layered
    instrumentation (tracing, metrics, invariant checking) must register
    through this builder — via :meth:`Simulator.add_event_observer` — so
    the run loop only ever calls one pre-fused callable per event.
    """
    chain = tuple(obs for obs in observers if obs is not None)
    if not chain:
        return None
    if len(chain) == 1:
        return chain[0]
    if len(chain) == 2:
        first, second = chain

        def fused_pair(event, _first=first, _second=second):
            _first(event)
            _second(event)

        return fused_pair

    def fused(event, _chain=chain):
        for obs in _chain:
            obs(event)

    return fused


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.at` and can be cancelled before they fire.  Cancelled
    events stay in the heap but are skipped when popped (lazy deletion),
    which keeps cancellation O(1).

    Event objects are pooled: once an event has fired (or been popped
    cancelled) the simulator may reuse it for a future ``schedule``/``at``
    call.  Holders must therefore drop their reference when the callback
    fires and never call :meth:`cancel` afterwards (:class:`Timer` follows
    this contract).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "label", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        label: str = "",
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.label = label
        self.sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            sim = self.sim
            if sim is not None:
                sim._cancelled += 1

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {self.label or self.callback} {state}>"


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
        #: Heap of ``(time, seq, Event)`` entries (see module docstring).
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0
        self._event_hook: Optional[Callable[[Event], None]] = None
        #: Registered per-event observers, fused into ``_event_hook``.
        self._event_observers: List[Callable[[Event], None]] = []
        #: The monomorphic run loop selected at hook-(un)install time.
        self._run_loop: Callable[[Optional[float]], None] = self._run_nohook
        #: Recycled Event objects awaiting reuse.
        self._free: List[Event] = []
        #: Census of cancelled events still sitting in the heap.  Kept
        #: approximate (cancelling an already-fired event over-counts) and
        #: re-zeroed by every compaction, so drift is bounded.
        self._cancelled = 0
        #: How many automatic/explicit compactions have run (introspection).
        self.compactions = 0

    def add_event_observer(self, observer: Callable[[Event], None]) -> None:
        """Append ``observer`` to the per-event chain and re-fuse the hook.

        Observers fire in registration order through one fused closure
        (:func:`fuse_observers`); the run loop never walks a list per
        event.  This is the registration point for every layered observer
        (metrics instrumentation, invariant checker, profiler).
        """
        if observer is None:
            raise SimulationError("event observer must not be None")
        self._event_observers.append(observer)
        self._refuse_hook()

    def remove_event_observer(self, observer: Callable[[Event], None]) -> None:
        """Remove one registration of ``observer`` and re-fuse the hook.

        Removing the last observer restores the no-hook specialized loop
        (``event_hook`` reads ``None`` again).  Unknown observers are
        ignored so teardown stays idempotent.
        """
        try:
            self._event_observers.remove(observer)
        except ValueError:
            return
        self._refuse_hook()

    def _refuse_hook(self) -> None:
        """Rebuild the fused hook + loop selection from the observer list."""
        hook = fuse_observers(*self._event_observers)
        self._event_hook = hook
        self._run_loop = self._run_nohook if hook is None else self._run_hooked

    @property
    def event_hook(self) -> Optional[Callable[["Event"], None]]:
        """The fused per-event observer chain (``None`` when empty)."""
        return self._event_hook

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

    @property
    def free_pool_size(self) -> int:
        """Recycled :class:`Event` objects currently parked for reuse."""
        return len(self._free)

    @property
    def free_pool_max(self) -> int:
        """Hard cap on the event free list (excess events are dropped)."""
        return _FREE_LIST_MAX

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.at(self._now + delay, callback, *args, label=label)

    def at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock already at {self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.label = label
        else:
            event = Event(time, seq, callback, args, label=label, sim=self)
        heap = self._heap
        heapq.heappush(heap, (time, seq, event))
        if len(heap) > _COMPACT_MIN_HEAP and self._cancelled * 2 > len(heap):
            self.compact()
        return event

    def compact(self) -> int:
        """Drop cancelled events from the heap in place.

        Runs automatically from :meth:`at` once cancelled entries exceed
        half of a heap larger than ``_COMPACT_MIN_HEAP``; callers may also
        invoke it directly.  Returns the number of entries removed.  The
        heap list object is mutated in place so the run loop's local
        binding stays valid even when a callback triggers compaction.
        """
        heap = self._heap
        live = [entry for entry in heap if not entry[2].cancelled]
        removed = len(heap) - len(live)
        if removed:
            free = self._free
            for entry in heap:
                event = entry[2]
                if event.cancelled:
                    event.callback = None
                    event.args = None
                    if len(free) < _FREE_LIST_MAX:
                        free.append(event)
            heap[:] = live
            heapq.heapify(heap)
        self._cancelled = 0
        self.compactions += 1
        return removed

    def _recycle(self, event: Event) -> None:
        """Return a fired/collected event to the free list."""
        event.callback = None
        event.args = None
        if len(self._free) < _FREE_LIST_MAX:
            self._free.append(event)

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
            if predicate():
                action()
            else:
                self.schedule(interval, _recheck, label=label)

        self.schedule(interval, _recheck, label=label)

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            entry = heapq.heappop(heap)
            if self._cancelled > 0:
                self._cancelled -= 1
            self._recycle(entry[2])
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` when the queue is empty."""
        heap = self._heap
        while heap:
            time, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                if self._cancelled > 0:
                    self._cancelled -= 1
                self._recycle(event)
                continue
            self._now = time
            self.events_processed += 1
            if self._event_hook is not None:
                self._event_hook(event)
            event.callback(*event.args)
            self._recycle(event)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final virtual time.  When ``until`` is given the clock is
        advanced to exactly ``until`` even if the last event fired earlier,
        so time-weighted statistics close cleanly.

        Dispatches to the monomorphic loop selected when the event hook was
        last (un)installed, so the common no-hook path never tests for
        instrumentation — not even once per run.
        """
        if self._running:
            raise SimulationError("simulator is re-entrant only via step()")
        self._running = True
        self._stopped = False
        try:
            self._run_loop(until)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    # The loops below are the simulation's profile-dominating code.  Each
    # is monomorphic: selected once at add/remove_event_observer
    # time (and, for the ``until`` split, once per run call), with zero
    # feature tests per event.  They inline peek()+step() so each event
    # costs exactly one heap pop (cancelled events are skipped in place),
    # with the heap, heappop and free list bound to locals.  compact()
    # mutates the heap and free lists in place, so those local bindings
    # survive a compaction from inside a callback.

    def _run_nohook(self, until: Optional[float]) -> None:
        """Fast loop: no hook branches at all (the disabled-cost path)."""
        heap = self._heap
        heappop = heapq.heappop
        free = self._free
        processed = 0
        try:
            if until is None:
                while heap and not self._stopped:
                    entry = heap[0]
                    event = entry[2]
                    if event.cancelled:
                        heappop(heap)
                        if self._cancelled > 0:
                            self._cancelled -= 1
                        event.callback = None
                        event.args = None
                        if len(free) < _FREE_LIST_MAX:
                            free.append(event)
                        continue
                    heappop(heap)
                    self._now = entry[0]
                    processed += 1
                    event.callback(*event.args)
                    event.callback = None
                    event.args = None
                    if len(free) < _FREE_LIST_MAX:
                        free.append(event)
            else:
                while heap and not self._stopped:
                    entry = heap[0]
                    event = entry[2]
                    if event.cancelled:
                        heappop(heap)
                        if self._cancelled > 0:
                            self._cancelled -= 1
                        event.callback = None
                        event.args = None
                        if len(free) < _FREE_LIST_MAX:
                            free.append(event)
                        continue
                    time = entry[0]
                    if time > until:
                        break
                    heappop(heap)
                    self._now = time
                    processed += 1
                    event.callback(*event.args)
                    event.callback = None
                    event.args = None
                    if len(free) < _FREE_LIST_MAX:
                        free.append(event)
        finally:
            self.events_processed += processed

    def _run_hooked(self, until: Optional[float]) -> None:
        """Instrumented loop: calls the single pre-fused observer chain."""
        heap = self._heap
        heappop = heapq.heappop
        hook = self._event_hook
        free = self._free
        processed = 0
        try:
            while heap and not self._stopped:
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    heappop(heap)
                    if self._cancelled > 0:
                        self._cancelled -= 1
                    self._recycle(event)
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                heappop(heap)
                self._now = time
                processed += 1
                hook(event)
                event.callback(*event.args)
                self._recycle(event)
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
        if interval < 0:
            raise SimulationError(f"negative timer interval {interval!r}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def arm(self) -> None:
        """Start (or restart) the countdown from the current instant."""
        self.cancel()
        self._event = self._sim.schedule(self.interval, self._fire, label="timer")

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
