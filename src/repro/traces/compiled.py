"""Columnar compiled traces: the one trace container.

A :class:`CompiledTrace` holds a trace as four parallel stdlib ``array``
columns — arrival time, byte offset, request size, and kind — instead of
one object per request.  A 10⁶-request trace costs four flat buffers
(~25 MB total), and :class:`repro.core.base.TraceDriver` replays the
columns by index without materializing a record per request.

Every trace source builds its columns through :func:`compiled_from_events`:
the synthetic generator (:func:`repro.traces.synthetic.generate_compiled`),
the MSR loader (:func:`repro.traces.msr.load_msr_trace`), and hand-written
traces in tests and examples.  Iteration and indexing yield
:class:`~repro.traces.record.TraceRecord` row views for consumers that read
one request at a time.

Each compiled trace carries a sha256 content hash over its columns, which
the result cache folds into cell keys.  Bump
:data:`TRACE_COMPILER_VERSION` whenever the compiled format or the
generator lowering changes observable content; the cache stamps it into
every key, so stale payloads become unreachable instead of silently mixing
formats.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Iterable, Iterator, Optional, Tuple

from repro.raid.request import RequestKind
from repro.traces.record import TraceRecord

#: Version of the trace-compiler output format / lowering semantics.
TRACE_COMPILER_VERSION = 1

#: Column codes for the ``kind`` column.
KIND_READ = 0
KIND_WRITE = 1


class CompiledTrace:
    """A trace lowered to parallel columns.

    Columns (all the same length):

    ``arrivals``
        ``array('d')`` — arrival timestamps, seconds, non-decreasing.
    ``offsets``
        ``array('q')`` — byte offsets.
    ``sizes``
        ``array('q')`` — request sizes in bytes.
    ``kinds``
        ``array('B')`` — :data:`KIND_READ` / :data:`KIND_WRITE`.
    """

    __slots__ = ("arrivals", "offsets", "sizes", "kinds", "name", "_footprint", "_hash")

    def __init__(
        self,
        arrivals: array,
        offsets: array,
        sizes: array,
        kinds: array,
        name: str = "trace",
        footprint_bytes: Optional[int] = None,
    ) -> None:
        n = len(arrivals)
        if not (len(offsets) == len(sizes) == len(kinds) == n):
            raise ValueError("compiled trace columns must have equal length")
        self.arrivals = arrivals
        self.offsets = offsets
        self.sizes = sizes
        self.kinds = kinds
        self.name = name
        self._footprint = footprint_bytes
        self._hash: Optional[str] = None

    # -- row surface -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self) -> Iterator[TraceRecord]:
        arrivals = self.arrivals
        offsets = self.offsets
        sizes = self.sizes
        kinds = self.kinds
        for i in range(len(arrivals)):
            kind = RequestKind.WRITE if kinds[i] else RequestKind.READ
            yield TraceRecord(arrivals[i], kind, offsets[i], sizes[i])

    def __getitem__(self, idx: int) -> TraceRecord:
        kind = RequestKind.WRITE if self.kinds[idx] else RequestKind.READ
        return TraceRecord(
            self.arrivals[idx], kind, self.offsets[idx], self.sizes[idx]
        )

    @property
    def duration(self) -> float:
        """Seconds from time zero to the last arrival."""
        return self.arrivals[-1] if self.arrivals else 0.0

    @property
    def footprint_bytes(self) -> int:
        """Highest byte address the trace touches (exclusive)."""
        if self._footprint is not None:
            return self._footprint
        if not self.arrivals:
            return 0
        offsets = self.offsets
        sizes = self.sizes
        return max(offsets[i] + sizes[i] for i in range(len(offsets)))

    # -- column surface --------------------------------------------------

    def content_hash(self) -> str:
        """sha256 over the column payloads plus footprint (cached)."""
        if self._hash is None:
            h = hashlib.sha256()
            h.update(b"rolo-compiled-trace-v%d\0" % TRACE_COMPILER_VERSION)
            h.update(str(self.footprint_bytes).encode("ascii"))
            for column in (self.arrivals, self.offsets, self.sizes, self.kinds):
                h.update(column.typecode.encode("ascii"))
                h.update(column.tobytes())
            self._hash = h.hexdigest()
        return self._hash

    def cache_key(self) -> str:
        """Stable identity for the result cache (format-version qualified)."""
        return f"ct{TRACE_COMPILER_VERSION}:{self.content_hash()}"

    def nbytes(self) -> int:
        """Total column storage in bytes (introspection / benchmarks)."""
        return sum(
            len(col) * col.itemsize
            for col in (self.arrivals, self.offsets, self.sizes, self.kinds)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompiledTrace {self.name!r} n={len(self)} "
            f"dur={self.duration:.1f}s {self.nbytes() // 1024}KiB>"
        )


def compiled_from_events(
    events: Iterable[Tuple[float, bool, int, int]],
    name: str = "trace",
    footprint_bytes: Optional[int] = None,
) -> CompiledTrace:
    """Build a compiled trace from ``(time, is_write, offset, size)`` tuples."""
    arrivals = array("d")
    offsets = array("q")
    sizes = array("q")
    kinds = array("B")
    append_t = arrivals.append
    append_o = offsets.append
    append_s = sizes.append
    append_k = kinds.append
    for t, is_write, offset, size in events:
        append_t(t)
        append_o(offset)
        append_s(size)
        append_k(KIND_WRITE if is_write else KIND_READ)
    return CompiledTrace(
        arrivals, offsets, sizes, kinds, name=name, footprint_bytes=footprint_bytes
    )


def truncate_trace(
    trace: CompiledTrace, n_requests: Optional[int]
) -> CompiledTrace:
    """First ``n_requests`` of a compiled trace as a fresh trace.

    The columns are copied, so the result owns its storage and is safe to
    keep past a shared segment's lifetime.  ``n_requests`` of ``None`` (or
    one at least the trace length) returns ``trace`` unchanged.  The
    footprint is left derived: the truncated trace's highest touched
    address, not the parent's.
    """
    if n_requests is None or n_requests >= len(trace.arrivals):
        return trace
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    n = n_requests
    return CompiledTrace(
        array("d", trace.arrivals[:n]),
        array("q", trace.offsets[:n]),
        array("q", trace.sizes[:n]),
        array("B", trace.kinds[:n]),
        name=f"{trace.name}[:{n}]",
    )

