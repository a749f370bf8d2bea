"""Causal span recording: per-request lifecycle with phase decomposition.

:class:`SpanRecorder` extends :class:`~repro.obs.tracer.RecordingTracer`
with *causal* structure: every disk-op span carries the mechanical phase
breakdown of its service interval (seek / rotation / transfer, exact by
construction — :meth:`SpanRecorder.disk_op` derives them from the same
:class:`~repro.disk.mechanical.MechanicalModel` arithmetic that costed
the op) and a link back to its owner: the admitted
:class:`~repro.raid.request.IORequest` (as a ``rid`` attr) or the
background process that issued it (destage process, parity pump, cache
fill — as a ``proc`` attr).

Owner resolution is zero-cost on the simulation side: controllers hand
disks either a bound method (whose ``__self__`` *is* the owner) or a
closure tagged with ``_span_owner`` at creation time, and a traced
replay stamps each request's trace id into its ``rid`` slot when it
arrives; the recorder walks that linkage only at completion, so
span-traced runs stay byte-identical to plain runs (any tracer binds
``Disk._complete_observed`` at setup time; nothing is tested per-op when
tracing is off, and plain tracers do no phase arithmetic).

Each span is one flat record like every other
:class:`~repro.obs.tracer.RecordingTracer` record, so the JSONL / Chrome
exporters, :mod:`repro.obs.attribution` and the timeline explorer all
consume the stream unchanged.
"""

from __future__ import annotations

from typing import Any

from repro.obs.tracer import (
    OP_NAMES,
    OWNED_BY_PROC,
    OWNED_BY_RID,
    PHASED_OP,
    WRITE,
    RecordingTracer,
)
from repro.raid.request import IORequest


class SpanRecorder(RecordingTracer):
    """A :class:`RecordingTracer` that records causal, phase-decomposed
    disk-op spans.

    :meth:`disk_op` decomposes every completed op's service interval
    from the head position the disk reports.  After the plain disk-op
    attrs, the span carries:

    ``seek_s`` / ``rot_s`` / ``transfer_s``
        Mechanical phase durations; their sum equals the span's ``dur``
        exactly (slowdown factors included, transfer is the residual).
    ``rid``
        The owning request's trace id, when the op belongs to an admitted
        foreground request (fan-out edges of one logical I/O share a rid —
        this is the causal join key across disks).
    ``proc``
        The owning background process name (``rolo-p-destage-3``,
        ``rolo5-parity-pump``, ``rolo-e:cache-fill``) when the op is
        background work — the explicit causal edge from a delayed request
        to its interference culprit.
    """

    # ------------------------------------------------------------------
    # Phase-decomposed disk ops
    # ------------------------------------------------------------------
    def disk_op(self, disk: Any, op: Any, prev_head: int) -> None:
        # The same seek_rotation call, slowdown scaling and operand order
        # that cost the op, so the phases match its service time exactly.
        if op.sequential_hint:
            seek = rot = 0.0
        else:
            seek, rot = disk.mechanics.seek_rotation(prev_head, op.sector)
            if disk.slowdown_factor != 1.0:
                seek *= disk.slowdown_factor
                rot *= disk.slowdown_factor
        start = op.start_time
        dur = op.finish_time - start
        name = OP_NAMES[op.kind is WRITE][op.priority]
        queued = start - op.submit_time
        # Transfer is the residual so seek + rot + transfer equals the
        # realized service interval exactly, slowdown included.
        transfer = dur - seek - rot
        # The owner: the completion callback is either a bound method
        # (request fan-in, destage/pump step) whose ``__self__`` is the
        # owner, or a closure tagged ``_span_owner`` at creation; a request
        # replayed under a tracer carries its trace id.  Raw
        # fire-and-forget ops (RoLo-E cache fills) carry a string ``tag``.
        shape = PHASED_OP
        owner = None
        callback = op.on_complete
        if callback is not None:
            holder = getattr(callback, "__self__", None)
            if holder is None:
                holder = getattr(callback, "_span_owner", None)
            if holder is not None:
                if isinstance(holder, IORequest) and holder.rid is not None:
                    shape = OWNED_BY_RID
                    owner = holder.rid
                else:
                    owner = getattr(holder, "name", None)
                    if owner is not None:
                        shape = OWNED_BY_PROC
        if owner is None and isinstance(op.tag, str):
            shape = OWNED_BY_PROC
            owner = op.tag
        if owner is None:
            self._append(
                (start, disk.name, "disk_op", name, dur, shape,
                 op.sector, op.nbytes, queued, seek, rot, transfer)
            )
        else:
            self._append(
                (start, disk.name, "disk_op", name, dur, shape,
                 op.sector, op.nbytes, queued, seek, rot, transfer, owner)
            )
