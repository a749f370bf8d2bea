"""Event-driven disk server.

A :class:`Disk` owns a two-priority FIFO queue (foreground user I/O ahead of
background destaging I/O), a mechanical model for service times, and a power
state machine with energy accounting.  Controllers interact with it through
:meth:`submit`, :meth:`request_spin_up` and :meth:`request_spin_down`, and can
subscribe to idle notifications to drive idle-slot destaging.
"""

from __future__ import annotations

import collections
import enum
from bisect import bisect_left
from heapq import heappush
from typing import Callable, Deque, List, Optional

from repro.disk.mechanical import MechanicalModel
from repro.disk.models import DiskSpec
from repro.disk.power import EnergyAccountant, PowerModel, PowerState
from repro.sim.engine import Simulator, Timer
from repro.sim.stats import Histogram


class DiskFailedError(RuntimeError):
    """Raised when I/O is submitted to a failed disk."""


class OpKind(enum.Enum):
    READ = "read"
    WRITE = "write"


class Priority(enum.IntEnum):
    """Queue priorities.  Lower value is served first."""

    FOREGROUND = 0
    BACKGROUND = 1


class Scheduler(enum.Enum):
    """Queue service order within a priority class.

    FCFS is strictly arrival-ordered; SSTF serves the request whose start
    sector is closest to the current head position (classic shortest-seek-
    time-first, as in DiskSim's queue policies).  Priorities still trump
    the scheduler: all queued foreground work is considered before any
    background work.
    """

    FCFS = "fcfs"
    SSTF = "sstf"


class DiskOp:
    """A single disk operation (one contiguous extent on one disk).

    Ops issued on the controller fan-in hot path come from a bounded slab
    pool (:func:`acquire_op`): the disk releases a pooled op back to the
    free list right after its completion callback returns, so steady-state
    replay allocates no per-op objects.  Holders of pooled ops must
    therefore drop their reference when ``on_complete`` fires (the
    ``IORequest`` fan-in follows this contract).
    """

    __slots__ = (
        "kind",
        "sector",
        "nbytes",
        "priority",
        "on_complete",
        "tag",
        "sequential_hint",
        "submit_time",
        "start_time",
        "finish_time",
        "dispatch",
        "_pooled",
    )

    def __init__(
        self,
        kind: OpKind,
        sector: int,
        nbytes: int,
        priority: Priority = Priority.FOREGROUND,
        on_complete: Optional[Callable[["DiskOp"], None]] = None,
        tag: object = None,
        sequential_hint: bool = False,
    ) -> None:
        if sector < 0:
            raise ValueError("negative sector")
        if nbytes <= 0:
            raise ValueError("op size must be positive")
        self.kind = kind
        self.sector = sector
        self.nbytes = nbytes
        self.priority = priority
        self.on_complete = on_complete
        self.tag = tag
        #: When True the op is costed as sequential regardless of the head
        #: position (used for log appends, whose placement the log-space
        #: manager guarantees to be contiguous).
        self.sequential_hint = sequential_hint
        self.submit_time: float = -1.0
        self.start_time: float = -1.0
        self.finish_time: float = -1.0
        #: ``dispatch(disk, op)`` runs when the op's completion event
        #: fires, in place of the disk's completion method, which it must
        #: call itself unless it completes the op in the same way (a lone
        #: copy chain's read, fast-forwarded: see ``repro.core.destage``).
        self.dispatch: Optional[Callable[["Disk", "DiskOp"], None]] = None
        #: True only for ops from the slab pool; the disk recycles these.
        self._pooled = False

    @property
    def latency(self) -> float:
        """Queueing + service latency; valid after completion."""
        return self.finish_time - self.submit_time

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<DiskOp {self.kind.value} sector={self.sector} "
            f"bytes={self.nbytes} prio={self.priority.name}>"
        )


#: Bounded slab pool of recycled :class:`DiskOp` objects (LIFO free list).
_OP_POOL: List[DiskOp] = []
_OP_POOL_MAX = 2048
#: Census: [reused, released]; drops past the cap are implicit
#: (``released - size`` over a quiet pool) and kept out of the hot path.
_OP_POOL_STATS = [0, 0]


def acquire_op(
    kind: OpKind,
    sector: int,
    nbytes: int,
    priority: Priority = Priority.FOREGROUND,
    on_complete: Optional[Callable[[DiskOp], None]] = None,
    sequential_hint: bool = False,
) -> DiskOp:
    """Check a :class:`DiskOp` out of the slab pool (or allocate one).

    The returned op is marked pooled: the servicing disk returns it to the
    free list immediately after its completion callback runs, so callers
    must not retain it past ``on_complete``.
    """
    pool = _OP_POOL
    if pool:
        op = pool.pop()
        if sector < 0:
            raise ValueError("negative sector")
        if nbytes <= 0:
            raise ValueError("op size must be positive")
        op.kind = kind
        op.sector = sector
        op.nbytes = nbytes
        op.priority = priority
        op.on_complete = on_complete
        op.sequential_hint = sequential_hint
        op.submit_time = -1.0
        op.start_time = -1.0
        op.finish_time = -1.0
        op._pooled = True
        _OP_POOL_STATS[0] += 1
        return op
    op = DiskOp(
        kind,
        sector,
        nbytes,
        priority=priority,
        on_complete=on_complete,
        sequential_hint=sequential_hint,
    )
    op._pooled = True
    return op


def release_op(op: DiskOp) -> None:
    """Return a pooled op to the free list (drops it once the cap is hit)."""
    op.on_complete = None
    op.tag = None
    op.dispatch = None
    op._pooled = False
    pool = _OP_POOL
    if len(pool) < _OP_POOL_MAX:
        pool.append(op)
        _OP_POOL_STATS[1] += 1


def op_pool_stats() -> dict:
    """Census of the DiskOp slab pool (size, cap, reuse/release counts)."""
    return {
        "size": len(_OP_POOL),
        "max": _OP_POOL_MAX,
        "reused": _OP_POOL_STATS[0],
        "released": _OP_POOL_STATS[1],
    }


# The per-op paths below compare against these module constants: looking
# a member up on an Enum class costs several times a global read.
_READ = OpKind.READ
_FOREGROUND = Priority.FOREGROUND
_ACTIVE = PowerState.ACTIVE
_IDLE = PowerState.IDLE
_FAILED = PowerState.FAILED
_STANDBY = PowerState.STANDBY
_SPINNING_DOWN = PowerState.SPINNING_DOWN


class Disk:
    """One simulated drive.

    Power policy is owned by the *controller*: the disk never spins itself
    down, but an arriving operation on a STANDBY disk transparently triggers
    a spin up (the arrival pays the spin-up latency, as in the paper's
    read-miss analysis for RoLo-E).
    """

    def __init__(
        self,
        sim: Simulator,
        spec: DiskSpec,
        name: str,
        initial_state: PowerState = PowerState.IDLE,
        scheduler: Scheduler = Scheduler.FCFS,
        tracer: object = None,
        mechanics: Optional[MechanicalModel] = None,
    ) -> None:
        if initial_state not in (PowerState.IDLE, PowerState.STANDBY):
            raise ValueError("disks start IDLE or STANDBY")
        if mechanics is None:
            mechanics = MechanicalModel(spec)
        elif mechanics.spec != spec:
            raise ValueError(f"{name}: mechanics are for another spec")
        self.sim = sim
        self.spec = spec
        self.name = name
        self.scheduler = scheduler
        #: Service-time model; disks of one spec may share it (and its
        #: seek memo), as a controller's disks do.
        self.mechanics = mechanics
        self.power = EnergyAccountant(
            PowerModel(spec), sim.now, initial_state
        )
        # Tracing: ``tracer`` is a repro.obs Tracer; the NullTracer default
        # is falsy, so the disabled path normalizes to None.  Rather than
        # guarding per completed op, attaching/detaching a tracer or an
        # op observer swaps the bound completion method (see
        # ``_select_complete``), so the unobserved path carries no guards.
        self._tracer = None
        self._op_observer = None
        self._complete = self._complete_fast
        self.tracer = tracer
        self._queues: List[Deque[DiskOp]] = [
            collections.deque() for _ in Priority
        ]
        self._in_service: Optional[DiskOp] = None
        self._head_sector = 0
        self._wake_after_down = False
        #: Transient service-time multiplier (>= 1.0 means degraded media
        #: or recovering electronics); fault injection sets and restores it.
        self.slowdown_factor = 1.0
        #: Latent sector errors: [sector_start, sector_end) ranges that are
        #: unreadable until surfaced by an overlapping READ.
        self._latent_errors: List[tuple] = []
        self.media_errors_surfaced = 0
        #: ``callback(disk, sector, n_sectors)`` fires when a READ touches
        #: a latent error range (after the op completes); the range is
        #: removed first, modelling the drive remapping the sectors.
        self.on_media_error: Optional[Callable[["Disk", int, int], None]] = None
        self._idle_listeners: List[Callable[["Disk"], None]] = []
        #: A drive's standby timer: re-armed each time the disk drains to
        #: quiet, before the idle listeners run (the controller's power
        #: policy sets and clears it; its expiry decides what to do).
        self.standby_timer: Optional[Timer] = None
        # Hot-path constants: the census labels are invariant, so build
        # them once; the scheduler test and mechanical-model lookups are
        # likewise bound at construction (scheduler choice is
        # construction-time only).
        self._io_label = f"{name}:io"
        self._up_label = f"{name}:up"
        self._down_label = f"{name}:down"
        self._fcfs = scheduler is Scheduler.FCFS
        self._service_time = self.mechanics.service_time
        self._end_sector = self.mechanics.end_sector
        self._transfer_rate = spec.sustained_transfer_rate
        self._heap = sim._heap
        self._active_watts = self.power._draw[PowerState.ACTIVE]
        self._idle_watts = self.power._draw[PowerState.IDLE]
        # Cumulative statistics.
        self.ops_completed = 0
        self.bytes_transferred = 0
        self.busy_time = 0.0
        self.foreground_ops = 0
        self.background_ops = 0
        #: Lengths of spun-up idle slots (time between draining the queue
        #: and the next op starting), the §II Fig. 3 raw material.
        self.idle_gap_histogram = Histogram.exponential(0.01, 2.0, 24)
        self._idle_since: float = sim.now if initial_state.spun_up else -1.0
        # Each completion event completes one op: the disk's event census.
        sim.add_tally(lambda: (self._io_label, self.ops_completed))

    # ------------------------------------------------------------------
    # Observation attach points (completion-path specialization)
    # ------------------------------------------------------------------
    def _select_complete(self) -> None:
        """Bind the completion method matching the attached observers.

        Called whenever ``tracer``/``op_observer`` change: with neither
        attached, completions run a guard-free fast path; with either, the
        observed variant is bound.  Ops already scheduled keep the bound
        method captured at schedule time, so attach/detach must happen
        between runs (the instrumentation layers do).
        """
        if self._tracer is None and self._op_observer is None:
            self._complete = self._complete_fast
        else:
            self._complete = self._complete_observed

    @property
    def tracer(self):
        """The attached structured tracer (``None`` when tracing is off)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        # Symmetric attach/detach: a new tracer hands the accountant its
        # transition hook (seeded with the current power state); None
        # unhooks it.
        tracer = tracer if tracer else None
        if tracer is not self._tracer:
            self._tracer = tracer
            self.power.on_transition = (
                None if tracer is None else tracer.power_hook(self)
            )
            self._select_complete()

    @property
    def op_observer(self):
        """Optional ``observer(disk, op)`` fired per completed operation."""
        return self._op_observer

    @op_observer.setter
    def op_observer(self, observer) -> None:
        self._op_observer = observer
        self._select_complete()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> PowerState:
        return self.power.state

    @property
    def queue_depth(self) -> int:
        queues = self._queues  # one deque per Priority member
        return len(queues[0]) + len(queues[1])

    @property
    def pending_foreground(self) -> int:
        """Foreground ops queued or in service."""
        in_service = (
            1
            if self._in_service is not None
            and self._in_service.priority is _FOREGROUND
            else 0
        )
        return len(self._queues[_FOREGROUND]) + in_service

    @property
    def busy(self) -> bool:
        return self._in_service is not None

    @property
    def is_quiet(self) -> bool:
        """Spun up, nothing in service, nothing queued."""
        queues = self._queues
        return (
            self.power._state is PowerState.IDLE
            and self._in_service is None
            and not queues[0]
            and not queues[1]
        )

    def add_idle_listener(self, callback: Callable[["Disk"], None]) -> None:
        """``callback(disk)`` fires whenever the disk drains to quiet."""
        self._idle_listeners.append(callback)

    def remove_idle_listener(self, callback: Callable[["Disk"], None]) -> None:
        """Detach a previously registered idle listener (no-op if absent)."""
        try:
            self._idle_listeners.remove(callback)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # I/O path
    # ------------------------------------------------------------------
    @property
    def failed(self) -> bool:
        return self.state is PowerState.FAILED

    def fail(self) -> None:
        """Inject a whole-disk failure.

        The failure model is fail-stop between operations: injecting with
        work in flight or queued is rejected so completion fan-ins cannot
        dangle.  A failed disk rejects all further I/O and power requests.
        """
        if self.busy or self.queue_depth:
            raise ValueError(
                f"{self.name}: failure injection requires a quiet disk"
            )
        self._idle_since = -1.0
        self.power.transition(self.sim.now, PowerState.FAILED)

    def submit(self, op: DiskOp) -> None:
        """Queue an operation; wakes the disk if it is asleep."""
        # Read the power state once through the accountant's attribute:
        # submit/_try_start/_complete run per simulated op, and the
        # state->property->property chain showed up in replay profiles.
        state = self.power._state
        if state is _FAILED:
            raise DiskFailedError(f"{self.name} has failed")
        op.submit_time = self.sim._now
        queues = self._queues
        if self._in_service is None and not (queues[0] or queues[1]) and (
            state is _IDLE or state is _ACTIVE
        ):
            # _try_start would pick this very op
            self._start(op, state)
            return
        queues[op.priority].append(op)
        if state is _STANDBY:
            self._begin_spin_up()
        elif state is _SPINNING_DOWN:
            self._wake_after_down = True
        else:
            self._try_start()

    def _next_op(self) -> Optional[DiskOp]:
        for queue in self._queues:
            if not queue:
                continue
            if self.scheduler is Scheduler.FCFS or len(queue) == 1:
                return queue.popleft()
            cyl_of = self.mechanics.cylinder_of
            head_cylinder = cyl_of(self._head_sector)
            best_index = 0
            best_dist = abs(cyl_of(queue[0].sector) - head_cylinder)
            for i in range(1, len(queue)):
                dist = abs(cyl_of(queue[i].sector) - head_cylinder)
                if dist < best_dist:
                    best_dist = dist
                    best_index = i
            best = queue[best_index]
            del queue[best_index]
            return best
        return None

    def _try_start(self) -> None:
        if self._in_service is not None:
            return
        state = self.power._state
        if state is not _IDLE and state is not _ACTIVE:
            return
        queues = self._queues
        if self._fcfs:
            # Inline the FCFS pop: strict arrival order within priority.
            if queues[0]:
                op = queues[0].popleft()
            elif queues[1]:
                op = queues[1].popleft()
            else:
                return
        else:
            op = self._next_op()
            if op is None:
                return
        self._start(op, state)

    def _start(self, op: DiskOp, state: PowerState) -> None:
        """Put ``op`` in service on a spun-up disk in power ``state`` and
        push its completion's heap entry, which calls ``op.dispatch`` when
        the op has one.  ``DestageProcess._solo`` does this body's float
        operations itself for the copy ops it runs without events."""
        sim = self.sim
        now = sim._now
        self._in_service = op
        op.start_time = now
        if self._idle_since >= 0:
            gap = now - self._idle_since
            if gap > 0:
                # Histogram.add inline: one bucket count per idle slot.
                gaps = self.idle_gap_histogram
                gaps.count += 1
                gaps.counts[bisect_left(gaps.bounds, gap)] += 1
            self._idle_since = -1.0
        if state is not _ACTIVE:
            # power.transition(now, ACTIVE) inline, the same float ops in the
            # same order (also in _go_idle); spin, failure and close call it.
            power = self.power
            last = power._last_time
            if now < last:
                raise ValueError("time went backwards in energy accounting")
            elapsed = now - last
            if elapsed:
                power.energy_joules += power._watts * elapsed
                power.state_durations[state] += elapsed
            power._last_time = now
            power._state = _ACTIVE
            power._watts = self._active_watts
            if power.on_transition is not None:
                power.on_transition(now, state, _ACTIVE)
        sector = op.sector
        if op.sequential_hint or sector == self._head_sector:
            # Head-contiguous: exactly the transfer-only time service_time
            # returns when the head already sits on ``sector``.
            service = op.nbytes / self._transfer_rate
        else:
            service = self._service_time(self._head_sector, sector, op.nbytes)
        if self.slowdown_factor != 1.0:
            service *= self.slowdown_factor
        seq = sim._seq
        sim._seq = seq + 1
        dispatch = op.dispatch
        if dispatch is None:
            heappush(self._heap, [now + service, seq, self._complete, (op,)])
        else:
            heappush(self._heap, [now + service, seq, dispatch, (self, op)])

    # Completion runs once per simulated op; ``self._complete`` is bound to
    # exactly one of the two variants below by ``_select_complete``, so the
    # common unobserved path never tests for a tracer or an op observer.

    def _complete_fast(self, op: DiskOp) -> None:
        now = self.sim._now
        op.finish_time = now
        self._head_sector = end = self._end_sector(op.sector, op.nbytes)
        self._in_service = None
        self.ops_completed += 1
        self.bytes_transferred += op.nbytes
        self.busy_time += now - op.start_time
        if op.priority is _FOREGROUND:
            self.foreground_ops += 1
        else:
            self.background_ops += 1
        if self._latent_errors and op.kind is _READ:
            self._surface_latent_errors(op.sector, end)
        callback = op.on_complete
        if callback is not None:
            callback(op)
        if op._pooled:
            release_op(op)
        if self._queues[0] or self._queues[1]:
            self._try_start()
        elif self._in_service is None:
            # The guard matters: ``on_complete`` may have submitted a new
            # op to this very disk, whose nested ``_try_start`` already put
            # it in service — dropping to IDLE then would bill idle watts
            # for a servicing disk and corrupt the idle-gap accounting.
            self._go_idle(now)

    def _complete_observed(self, op: DiskOp) -> None:
        # _complete_fast plus the notification block.  The head position
        # is captured before it advances: span recorders derive the op's
        # seek/rotation split from it (plain tracers ignore it).
        now = self.sim._now
        prev_head = self._head_sector
        op.finish_time = now
        self._head_sector = end = self._end_sector(op.sector, op.nbytes)
        self._in_service = None
        self.ops_completed += 1
        self.bytes_transferred += op.nbytes
        self.busy_time += now - op.start_time
        if op.priority is _FOREGROUND:
            self.foreground_ops += 1
        else:
            self.background_ops += 1
        if self._latent_errors and op.kind is _READ:
            self._surface_latent_errors(op.sector, end)
        tracer = self._tracer
        if tracer is not None:
            tracer.disk_op(self, op, prev_head)
        observer = self._op_observer
        if observer is not None:
            observer(self, op)
        callback = op.on_complete
        if callback is not None:
            callback(op)
        if op._pooled:
            release_op(op)
        if self._queues[0] or self._queues[1]:
            self._try_start()
        elif self._in_service is None:
            # See _complete_fast: never idle-bill a disk that on_complete
            # already put back in service.
            self._go_idle(now)

    def _go_idle(self, now: float) -> None:
        """The queue drained: close an ACTIVE span, open an idle slot,
        re-arm the standby timer and tell the idle listeners (if any)."""
        power = self.power
        if power._state is _ACTIVE:
            # power.transition(now, IDLE) inline, as in _start.
            last = power._last_time
            if now < last:
                raise ValueError("time went backwards in energy accounting")
            elapsed = now - last
            if elapsed:
                power.energy_joules += power._watts * elapsed
                power.state_durations[_ACTIVE] += elapsed
            power._last_time = now
            power._state = _IDLE
            power._watts = self._idle_watts
            if power.on_transition is not None:
                power.on_transition(now, _ACTIVE, _IDLE)
        self._idle_since = now
        timer = self.standby_timer
        if timer is not None and power._state is _IDLE:
            timer.arm()
        if self._idle_listeners:
            self._notify_idle()

    def inject_latent_error(self, sector: int, n_sectors: int) -> None:
        """Mark ``[sector, sector + n_sectors)`` as latently unreadable.

        The error stays silent until a READ overlaps the range; it is then
        removed (the drive remaps the sectors) and ``on_media_error``
        fires so the controller can schedule repair from a redundant copy.
        """
        if n_sectors <= 0:
            raise ValueError("latent error needs a positive sector count")
        self._latent_errors.append((sector, sector + n_sectors))

    @property
    def latent_error_count(self) -> int:
        return len(self._latent_errors)

    def _surface_latent_errors(self, start: int, end: int) -> None:
        remaining = []
        surfaced = []
        for lo, hi in self._latent_errors:
            if lo < end and start < hi:
                surfaced.append((lo, hi))
            else:
                remaining.append((lo, hi))
        if not surfaced:
            return
        self._latent_errors = remaining
        for lo, hi in surfaced:
            self.media_errors_surfaced += 1
            if self.on_media_error is not None:
                self.on_media_error(self, lo, hi - lo)

    def _notify_idle(self) -> None:
        # Callers skip this call when no listener is registered.
        if not self.is_quiet:
            return
        for listener in list(self._idle_listeners):
            listener(self)
            if not self.is_quiet:  # a listener issued new work
                break

    # ------------------------------------------------------------------
    # Power management
    # ------------------------------------------------------------------
    def request_spin_up(self) -> bool:
        """Proactively spin the disk up.  Returns True if a spin up started
        or the disk is already (coming) up."""
        if self.failed:
            return False
        state = self.state
        if state.spun_up or state is PowerState.SPINNING_UP:
            return True
        if state is PowerState.SPINNING_DOWN:
            self._wake_after_down = True
            return True
        self._begin_spin_up()
        return True

    def request_spin_down(self) -> bool:
        """Spin down if fully quiet.  Returns False (and does nothing) when
        the disk is busy, queued, or already down/transitioning."""
        if not self.is_quiet:
            return False
        self._idle_since = -1.0
        self.power.transition(self.sim.now, PowerState.SPINNING_DOWN)
        self.sim.schedule(self.spec.spin_down_time, self._spin_down_done)
        return True

    def _begin_spin_up(self) -> None:
        if self.state is not PowerState.STANDBY:
            return
        self.power.transition(self.sim.now, PowerState.SPINNING_UP)
        self.sim.schedule(self.spec.spin_up_time, self._spin_up_done)

    def _spin_up_done(self) -> None:
        self.sim.fired[self._up_label] += 1
        if self.failed:  # failed mid-transition; stay failed
            return
        self.power.transition(self.sim.now, PowerState.IDLE)
        if self.queue_depth:
            self._try_start()
        else:
            self._go_idle(self.sim.now)

    def _spin_down_done(self) -> None:
        self.sim.fired[self._down_label] += 1
        if self.failed:
            return
        self.power.transition(self.sim.now, PowerState.STANDBY)
        if self._wake_after_down or self.queue_depth:
            self._wake_after_down = False
            self._begin_spin_up()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Finalize energy accounting at the current instant."""
        self.power.close(self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Disk {self.name} {self.state.value} depth={self.queue_depth}>"
        )
