"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import pytest

from repro.core import ArrayConfig
from repro.sim import Simulator
from repro.traces.compiled import CompiledTrace, compiled_from_events

KB = 1024
MB = 1024 * KB


@pytest.fixture(autouse=True, scope="session")
def assert_no_leaked_shm_segments():
    """The whole suite must leave ``/dev/shm`` the way it found it.

    Every shared-memory segment the trace store creates carries the
    ``rolo_trc_`` prefix, so any survivor here is a store whose lifecycle
    (context manager, error path, or atexit net) failed to unlink.
    """
    from repro.traces import shm

    preexisting = set(shm.leaked_segments())
    yield
    shm.detach_all()
    leaked = set(shm.leaked_segments()) - preexisting
    assert not leaked, (
        f"test suite leaked shared-memory segments: {sorted(leaked)}"
    )


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def event_path(monkeypatch):
    """Keep every copy chain on the event path while the test runs."""
    observe_every_disk(monkeypatch)


#: Census labels of the fault injector's events, by callback name.
_FAULT_LABELS = {
    "_fail": "fault:fail",
    "_slow_start": "fault:slow",
    "_slow_end": "fault:slow-end",
    "_plant_lse": "fault:lse",
    "_scrub": "fault:scrub",
}


def entry_label(entry) -> str:
    """The census label of a heap entry ``[time, seq, callback, args]``.

    Events carry no label, so this derives one from the callback's owner,
    independently of the sources' own tallies: a disk's completions (its
    ``_complete`` or an op's ``dispatch(disk, op)`` hook) are its
    ``_io_label``, its spin transitions ``_up_label``/``_down_label``;
    then ``"arrival"``, ``"timer"``, ``"sampler"``, the fault labels and
    a poll's own label.  Anything else is ``""``.
    """
    import inspect

    from repro.core.base import TraceDriver
    from repro.disk.disk import Disk
    from repro.faults.injector import FaultInjector
    from repro.obs.sampler import TimeSeriesSampler
    from repro.sim import Timer

    callback, args = entry[2], entry[3]
    owner = getattr(callback, "__self__", None)
    name = callback.__name__
    if isinstance(owner, Disk):
        if name == "_spin_up_done":
            return owner._up_label
        if name == "_spin_down_done":
            return owner._down_label
        return owner._io_label
    if owner is None and args and isinstance(args[0], Disk):
        return args[0]._io_label
    if isinstance(owner, TraceDriver):
        return "arrival"
    if isinstance(owner, Timer):
        return "timer"
    if isinstance(owner, TimeSeriesSampler):
        return "sampler"
    if isinstance(owner, FaultInjector):
        return _FAULT_LABELS[name]
    if name == "_recheck":  # Simulator.poll's re-check
        return inspect.getclosurevars(callback).nonlocals["label"]
    return ""


def observe_every_disk(monkeypatch) -> None:
    """Give every disk built from now on a no-op op observer.

    Rebuild replacements included: the fast-forward
    (``DestageProcess._solo``) refuses a read on a watched disk, so this
    forces every copy chain onto the event path, and the observer
    changes no output.
    """
    from repro.disk.disk import Disk

    init = Disk.__init__

    def observed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.op_observer = _ignore_op

    monkeypatch.setattr(Disk, "__init__", observed_init)


def listen_on_every_disk(monkeypatch) -> None:
    """Give every disk built from now on a no-op idle listener.

    Rebuild replacements included: the fast-forward
    (``DestageProcess._solo``) refuses a read on a listened-to disk too,
    so copy chains stay on the event path and also call the listener,
    which changes no output.
    """
    from repro.disk.disk import Disk

    init = Disk.__init__

    def listened_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.add_idle_listener(_ignore_disk)

    monkeypatch.setattr(Disk, "__init__", listened_init)


def _ignore_op(disk, op) -> None:
    pass


def _ignore_disk(disk) -> None:
    pass


def small_config(**overrides) -> ArrayConfig:
    """A tiny array configuration for fast controller tests."""
    defaults = dict(
        n_pairs=2,
        stripe_unit=64 * KB,
        free_space_bytes=4 * MB,
        graid_log_capacity_bytes=8 * MB,
        idle_grace_s=0.01,
        destage_batch_bytes=256 * KB,
        standby_return_s=5.0,
    )
    defaults.update(overrides)
    return ArrayConfig(**defaults)


def make_trace(
    spec: Iterable[Tuple[float, str, int, int]], name: str = "test"
) -> CompiledTrace:
    """Build a trace from (time, 'r'|'w', offset, nbytes) tuples."""
    return compiled_from_events(
        ((t, kind == "w", offset, nbytes) for t, kind, offset, nbytes in spec),
        name=name,
    )


def write_burst(
    count: int,
    nbytes: int = 64 * KB,
    start: float = 0.0,
    gap: float = 0.05,
    stride: Optional[int] = None,
    base: int = 0,
) -> CompiledTrace:
    """A simple all-write trace: ``count`` writes spaced ``gap`` apart."""
    if stride is None:
        stride = nbytes
    spec = [
        (start + i * gap, "w", base + (i * stride), nbytes)
        for i in range(count)
    ]
    return make_trace(spec, name="write-burst")
