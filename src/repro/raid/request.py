"""Logical (array-level) I/O requests.

An :class:`IORequest` is what the trace replayer hands the controller.  The
controller fans it out into disk operations; :meth:`add_waits` /
:meth:`op_done` implement the fan-in that fires the completion callback once
every constituent disk operation has finished.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional


class RequestKind(enum.Enum):
    READ = "read"
    WRITE = "write"


_WRITE = RequestKind.WRITE


class IORequest:
    """One array-level request with fan-in completion tracking.

    Replay-path requests come from a bounded slab pool
    (:func:`acquire_request`): the trace driver releases each request once
    its fan-in has fired and the response is recorded, so steady-state
    replay allocates no per-request objects.
    """

    __slots__ = (
        "kind",
        "is_write",
        "offset",
        "nbytes",
        "arrival_time",
        "finish_time",
        "on_complete",
        "_outstanding",
        "_sealed",
        "_pooled",
        "rid",
    )

    def __init__(
        self,
        kind: RequestKind,
        offset: int,
        nbytes: int,
        arrival_time: float,
        on_complete: Optional[Callable[["IORequest"], None]] = None,
    ) -> None:
        if offset < 0 or nbytes <= 0:
            raise ValueError("invalid request extent")
        self.kind = kind
        #: ``kind is RequestKind.WRITE``, kept as a plain attribute: the
        #: controllers and the response recorder read it per request.
        self.is_write = kind is _WRITE
        self.offset = offset
        self.nbytes = nbytes
        self.arrival_time = arrival_time
        self.finish_time: float = -1.0
        self.on_complete = on_complete
        self._outstanding = 0
        self._sealed = False
        self._pooled = False
        #: Trace id, set by a replay under a tracer (span recorders link
        #: the request's disk ops through it); ``None`` otherwise.
        self.rid: Optional[int] = None

    @property
    def response_time(self) -> float:
        """Seconds from arrival to last sub-operation completion."""
        if self.finish_time < 0:
            raise ValueError("request not yet complete")
        return self.finish_time - self.arrival_time

    @property
    def complete(self) -> bool:
        return self.finish_time >= 0

    def add_waits(self, count: int = 1) -> None:
        """Register ``count`` more sub-operations to wait for."""
        if self._sealed and self._outstanding == 0:
            raise ValueError("request already completed")
        if count <= 0:
            raise ValueError("count must be positive")
        self._outstanding += count

    def seal(self, now: float) -> None:
        """Declare that no more sub-operations will be added.

        If nothing is outstanding the request completes immediately (e.g. a
        read fully served from cache).
        """
        self._sealed = True
        if self._outstanding == 0:
            self._finish(now)

    def op_done(self, now: float) -> None:
        """Record one sub-operation completion."""
        if self._outstanding <= 0:
            raise ValueError("op_done without matching add_waits")
        self._outstanding -= 1
        if self._outstanding == 0 and self._sealed:
            self._finish(now)

    def op_complete(self, op) -> None:
        """Fan-in adapter usable directly as a ``DiskOp.on_complete``.

        ``op.finish_time`` is the simulator's current time when the disk
        fires the completion, so this is equivalent to ``op_done(sim.now)``
        without allocating a per-operation closure.
        """
        self.op_done(op.finish_time)

    def _finish(self, now: float) -> None:
        self.finish_time = now
        if self.on_complete is not None:
            self.on_complete(self)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<IORequest {self.kind.value} off={self.offset} "
            f"bytes={self.nbytes} t={self.arrival_time:.4f}>"
        )


#: Bounded slab pool of recycled :class:`IORequest` objects (LIFO).
_REQUEST_POOL: list = []
_REQUEST_POOL_MAX = 1024
#: Census: [reused, released].
_REQUEST_POOL_STATS = [0, 0]


def acquire_request(
    kind: RequestKind,
    offset: int,
    nbytes: int,
    arrival_time: float,
    on_complete: Optional[Callable[[IORequest], None]] = None,
) -> IORequest:
    """Check an :class:`IORequest` out of the slab pool (or allocate one).

    The returned request is marked pooled; the owner must hand it back via
    :func:`release_request` once the fan-in completed and the response has
    been recorded, and nothing may retain it past that point.
    """
    pool = _REQUEST_POOL
    if pool:
        request = pool.pop()
        if offset < 0 or nbytes <= 0:
            raise ValueError("invalid request extent")
        request.kind = kind
        request.is_write = kind is _WRITE
        request.offset = offset
        request.nbytes = nbytes
        request.arrival_time = arrival_time
        request.finish_time = -1.0
        request.on_complete = on_complete
        request._outstanding = 0
        request._sealed = False
        request._pooled = True
        request.rid = None
        _REQUEST_POOL_STATS[0] += 1
        return request
    request = IORequest(
        kind, offset, nbytes, arrival_time, on_complete=on_complete
    )
    request._pooled = True
    return request


def release_request(request: IORequest) -> None:
    """Return a pooled request to the free list (no-op for unpooled)."""
    if not request._pooled:
        return
    request.on_complete = None
    request._pooled = False
    pool = _REQUEST_POOL
    if len(pool) < _REQUEST_POOL_MAX:
        pool.append(request)
        _REQUEST_POOL_STATS[1] += 1


def request_pool_stats() -> dict:
    """Census of the IORequest slab pool."""
    return {
        "size": len(_REQUEST_POOL),
        "max": _REQUEST_POOL_MAX,
        "reused": _REQUEST_POOL_STATS[0],
        "released": _REQUEST_POOL_STATS[1],
    }
