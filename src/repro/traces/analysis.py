"""Trace characterization — reproduces the columns of Tables III and VI."""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.sim.stats import StreamingStat
from repro.traces.compiled import CompiledTrace

KB = 1024
GB = 1024 * 1024 * KB


@dataclasses.dataclass(frozen=True)
class TraceStats:
    """Aggregate characteristics of a trace (Table III / VI columns)."""

    name: str
    records: int
    duration_s: float
    write_ratio: float
    iops: float
    avg_request_bytes: float
    write_capacity_bytes: int
    read_capacity_bytes: int
    avg_read_bytes: float
    avg_write_bytes: float
    footprint_bytes: int

    def row(self) -> str:
        """One formatted table row matching the paper's columns."""
        return (
            f"{self.name:>10}  write={self.write_ratio * 100:6.2f}%  "
            f"iops={self.iops:7.2f}  "
            f"avg={self.avg_request_bytes / KB:7.2f}KB  "
            f"written={self.write_capacity_bytes / GB:7.2f}GB"
        )


def burstiness_index(trace: CompiledTrace, window_s: float = 1.0) -> float:
    """Index of dispersion of windowed arrival counts (var/mean).

    1.0 for a Poisson process; ≫1 for bursty arrivals.  This quantifies
    the paper's qualitative Table V "Burstiness" column.
    """
    if window_s <= 0:
        raise ValueError("window must be positive")
    if not len(trace):
        return 0.0
    horizon = trace.duration + window_s
    n_windows = max(1, int(horizon / window_s))
    counts = [0] * n_windows
    for timestamp in trace.arrivals:
        index = min(n_windows - 1, int(timestamp / window_s))
        counts[index] += 1
    mean = sum(counts) / n_windows
    if mean == 0:
        return 0.0
    variance = sum((c - mean) ** 2 for c in counts) / n_windows
    return variance / mean


def classify_burstiness(index: float) -> str:
    """Map an index of dispersion to the paper's qualitative labels."""
    if index < 2.0:
        return "Very Low"
    if index < 8.0:
        return "Low"
    if index < 30.0:
        return "Medium"
    if index < 100.0:
        return "High"
    return "Very High"


def characterize(
    trace: CompiledTrace, duration_s: Optional[float] = None
) -> TraceStats:
    """Compute aggregate statistics of a trace.

    ``duration_s`` overrides the horizon used for the IOPS computation
    (defaults to the last arrival time).
    """
    sizes = StreamingStat()
    reads = StreamingStat()
    writes = StreamingStat()
    footprint_end = 0
    for record in trace:
        sizes.add(record.nbytes)
        if record.is_write:
            writes.add(record.nbytes)
        else:
            reads.add(record.nbytes)
        end = record.offset + record.nbytes
        if end > footprint_end:
            footprint_end = end
    horizon = duration_s if duration_s is not None else trace.duration
    count = len(trace)
    return TraceStats(
        name=trace.name,
        records=count,
        duration_s=horizon,
        write_ratio=writes.count / count if count else 0.0,
        iops=count / horizon if horizon > 0 else 0.0,
        avg_request_bytes=sizes.mean,
        write_capacity_bytes=int(writes.total),
        read_capacity_bytes=int(reads.total),
        avg_read_bytes=reads.mean,
        avg_write_bytes=writes.mean,
        footprint_bytes=footprint_end,
    )
