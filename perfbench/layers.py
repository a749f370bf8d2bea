"""Per-layer tracing from outside the program.

:func:`traced` wraps the public entry points of every simulator layer for
the duration of a ``with`` block.  Each wrapped call records one span —
name, start, end and the span that was open when it began — into a
:class:`SpanLog` held in memory; a few entry points also bump counters
derived from their arguments or results (segments per extent, batches per
coalesce, LRU hits, ...).  Nothing inside ``src/`` changes: the wrappers
replace class attributes and module globals, and are removed on exit.

Wrapping must happen before any controller is built, because a ``Disk``
binds ``mechanics.service_time`` once at construction.

A layer's *self time* is the time its spans cover minus the time covered
by their child spans.  Time that no wrapped entry point covers stays with
the nearest enclosing span: disk completions and controller fan-in run as
engine callbacks, so they count as ``sim`` self time.

Pool workers of ``run_grouped`` are forked from the traced parent, so they
inherit the wrappers; :func:`_worker_entry` ships each cell's spans and
counters back with its payload, and the parent merges them.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import multiprocessing
import pickle
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import srcpath  # noqa: F401  (puts src/ on sys.path)

_perf = time.perf_counter

#: The recorder of the traced process, read by forked pool workers.
_ACTIVE: Optional["SpanLog"] = None


class SpanLog:
    """Spans and counters of one traced process, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: Dict[str, str] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = [-1]
        self.counters: collections.Counter = collections.Counter()

    def intern(self, name: str, layer: str) -> int:
        self.layer_of[name] = layer
        self.names.append(name)
        return len(self.names) - 1

    def __len__(self) -> int:
        return len(self.start)

    # -- worker hand-off -------------------------------------------------
    def cut(self, base: int) -> Dict[str, bytes]:
        """Remove and return the spans recorded since index ``base``.

        Parent links are rebased to the cut; links to spans before it
        (the parent process's open spans at fork time) become roots.
        """
        parents = array("i", (p - base if p >= base else -1
                              for p in self.parent[base:]))
        out = {
            "name_id": self.name_id[base:].tobytes(),
            "parent": parents.tobytes(),
            "start": self.start[base:].tobytes(),
            "end": self.end[base:].tobytes(),
        }
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[base:]
        return out

    def merge(self, spans: Dict[str, bytes]) -> None:
        """Append spans cut in another process, keeping their tree."""
        offset = len(self)
        parents = array("i")
        parents.frombytes(spans["parent"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in parents)
        self.name_id.frombytes(spans["name_id"])
        self.start.frombytes(spans["start"])
        self.end.frombytes(spans["end"])

    # -- results ------------------------------------------------------------
    def _columns(self) -> Tuple[np.ndarray, ...]:
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        return name_id, parent, dur

    def per_name(self) -> Dict[str, Dict[str, float]]:
        """``name -> {count, total_s, self_s}`` over every recorded span."""
        name_id, parent, dur = self._columns()
        child = np.zeros(len(dur))
        linked = parent >= 0
        np.add.at(child, parent[linked], dur[linked])
        self_time = dur - child
        n = len(self.names)
        counts = np.bincount(name_id, minlength=n)
        totals = np.bincount(name_id, weights=dur, minlength=n)
        selfs = np.bincount(name_id, weights=self_time, minlength=n)
        return {
            name: {
                "count": int(counts[i]),
                "total_s": float(totals[i]),
                "self_s": float(selfs[i]),
            }
            for i, name in enumerate(self.names)
        }

    def dump(self, path) -> None:
        """Write every span to ``path`` (``.npz``: names + four columns)."""
        name_id, parent, _ = self._columns()
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array([self.layer_of[n] for n in self.names]),
            name_id=name_id,
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _span(log: SpanLog, name: str, layer: str, fn: Callable,
          after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` so every call records a span named ``name``."""
    nid = log.intern(name, layer)
    name_id, parent, start, end = log.name_id, log.parent, log.start, log.end
    stack = log.stack
    counters = log.counters

    def wrapper(*args, **kwargs):
        index = len(start)
        name_id.append(nid)
        parent.append(stack[-1])
        end.append(0.0)
        stack.append(index)
        start.append(_perf())
        try:
            result = fn(*args, **kwargs)
        finally:
            end[index] = _perf()
            stack.pop()
        if after is not None:
            after(counters, args, result)
        return result

    return functools.update_wrapper(wrapper, fn)


# ----------------------------------------------------------------------
# Counters taken at entry points
# ----------------------------------------------------------------------
def _count_segments(counters, args, result) -> None:
    counters["raid.segments"] += len(result)


def _count_batches(counters, args, result) -> None:
    counters["core.destage.batches"] += len(result)


def _count_hit(counters, args, result) -> None:
    counters["cache.hits"] += result is not None


def _count_records(counters, args, result) -> None:
    counters["traces.records"] += len(result)


def _count_shm_bytes(counters, args, result) -> None:
    trace = args[1]
    counters["traces.shm_bytes"] += sum(
        memoryview(column).nbytes
        for column in (trace.arrivals, trace.offsets, trace.sizes,
                       trace.kinds)
    )


def _counting_events(run: Callable, log: SpanLog) -> Callable:
    """``Simulator.run`` that also adds the events it dispatched."""

    def run_counted(self, *args, **kwargs):
        before = self.events_processed
        try:
            return run(self, *args, **kwargs)
        finally:
            log.counters["sim.events"] += self.events_processed - before

    return functools.update_wrapper(run_counted, run)


# ----------------------------------------------------------------------
# Pool dispatch
# ----------------------------------------------------------------------
def _worker_entry(worker: Callable, cell: Any, ref: Any) -> Dict[str, Any]:
    """Pool worker: run ``worker`` and ship this cell's spans back."""
    log = _ACTIVE
    submit_bytes = len(pickle.dumps((cell, ref)))
    base = len(log)
    counters_before = collections.Counter(log.counters)
    saved_stack = log.stack[:]
    log.stack[:] = [-1]
    started = _perf()
    try:
        payload = worker(cell, ref)
    finally:
        busy = _perf() - started
        log.stack[:] = saved_stack
    counters = collections.Counter(log.counters)
    counters.subtract(counters_before)
    return {
        "payload": payload,
        "spans": log.cut(base),
        "counters": dict(counters),
        "busy_s": busy,
        "submit_bytes": submit_bytes,
    }


def _dispatching(run_grouped: Callable, log: SpanLog) -> Callable:
    """``run_grouped`` whose workers report spans, busy time and bytes."""
    if multiprocessing.get_start_method() != "fork":
        raise RuntimeError("traced pool dispatch needs forked workers")

    def traced_run_grouped(pending, jobs, worker, handle, telemetry=None):
        counters = log.counters

        def traced_handle(key, cell, envelope):
            log.merge(envelope["spans"])
            counters.update(envelope["counters"])
            counters["experiments.worker_busy_s"] += envelope["busy_s"]
            counters["experiments.payload_bytes"] += (
                envelope["submit_bytes"]
                + len(pickle.dumps(envelope["payload"]))
            )
            counters["experiments.cells"] += 1
            handle(key, cell, envelope["payload"])

        cpu = time.process_time()
        started = _perf()
        try:
            return run_grouped(
                pending, jobs, functools.partial(_worker_entry, worker),
                traced_handle, telemetry,
            )
        finally:
            wall = _perf() - started
            counters["experiments.dispatch_s"] += time.process_time() - cpu
            counters["experiments.capacity_s"] += (
                wall * min(jobs, len(pending))
            )

    return functools.update_wrapper(traced_run_grouped, run_grouped)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def _entry_points():
    """``(layer, owner, attribute, after)`` for every wrapped entry point.

    Free functions are listed once with ``owner=None``; every ``repro``
    module global bound to them is patched, so the modules that call them
    are imported here first.
    """
    from repro import core
    from repro.cache.lru import LRUCache
    from repro.core.destage import DestageProcess, coalesce_units
    from repro.core.logspace import LogRegion, RegionAllocator
    from repro.core.recovery import RecoveryProcess
    from repro.core.rotation import RotationPolicy
    from repro.disk.disk import Disk
    from repro.disk.mechanical import MechanicalModel
    from repro.disk.power import EnergyAccountant
    from repro.experiments import parallel, runner  # noqa: F401
    from repro.experiments.parallel import run_grouped
    from repro.faults.oracle import ConsistencyOracle
    from repro.obs.attribution import attribute_events, attribution_summary
    from repro.obs.metrics import RunInstrumentation
    from repro.raid.layout import Raid10Layout
    from repro.sim.engine import Simulator
    from repro.traces import workloads  # noqa: F401
    from repro.traces.shm import SharedTraceStore
    from repro.traces.synthetic import generate_compiled
    from repro.verify import fuzzer  # noqa: F401
    from repro.verify.invariants import InvariantChecker
    from repro.verify.reference import ReferenceModel

    points = [
        ("sim", Simulator, "run", None),
        ("disk", Disk, "submit", None),
        ("disk", MechanicalModel, "service_time", None),
        ("disk", EnergyAccountant, "transition", None),
        ("raid", Raid10Layout, "map_extent", _count_segments),
        ("core.logspace", LogRegion, "append", None),
        ("core.logspace", LogRegion, "reclaim", None),
        ("core.logspace", RegionAllocator, "allocate", None),
        ("core.logspace", RegionAllocator, "free", None),
        ("core.destage", None, coalesce_units, _count_batches),
        ("core.destage", DestageProcess, "start", None),
        ("core.recovery", RecoveryProcess, "__init__", None),
        ("core.recovery", RecoveryProcess, "start", None),
        ("core.rotation", RotationPolicy, "next_logger", None),
        ("cache", LRUCache, "get", _count_hit),
        ("cache", LRUCache, "put", None),
        ("traces", None, generate_compiled, _count_records),
        ("traces", SharedTraceStore, "publish", _count_shm_bytes),
        ("experiments", None, run_grouped, None),
        ("obs", RunInstrumentation, "harvest", None),
        ("obs", None, attribute_events, None),
        ("obs", None, attribution_summary, None),
        ("verify", ConsistencyOracle, "note_segment_write", None),
        ("verify", InvariantChecker, "install", None),
        ("verify", InvariantChecker, "uninstall", None),
    ]
    points += [
        ("verify", ReferenceModel, attr, None)
        for attr in sorted(vars(ReferenceModel))
        if attr.startswith("note_") or attr == "check"
    ]
    controllers = set()
    for cls in list(core.SCHEMES.values()) + list(core.RAID5_SCHEMES.values()):
        owner = next(k for k in cls.__mro__ if "submit" in vars(k))
        controllers.add(owner)
    points += [
        ("core.controller", owner, "submit", None)
        for owner in sorted(controllers, key=lambda k: k.__name__)
    ]
    return points


@contextlib.contextmanager
def traced() -> Iterator[SpanLog]:
    """Wrap every layer entry point for the block; yield the span log."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("tracing is already active")
    log = SpanLog()
    restore: List[Tuple[Any, str, Any]] = []
    try:
        for layer, owner, attr, after in _entry_points():
            if owner is None:
                original = attr
                name = original.__name__
            else:
                original = vars(owner)[attr]
                name = f"{owner.__name__}.{attr}"
            target = original
            if name == "Simulator.run":
                target = _counting_events(original, log)
            elif name == "run_grouped":
                target = _dispatching(original, log)
            wrapped = _span(log, name, layer, target, after)
            if owner is not None:
                restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                if getattr(module, name, None) is original:
                    restore.append((module, name, original))
                    setattr(module, name, wrapped)
        _ACTIVE = log
        yield log
    finally:
        _ACTIVE = None
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
