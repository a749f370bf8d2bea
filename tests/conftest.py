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
