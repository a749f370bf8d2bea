"""MSR Cambridge trace format support.

The SNIA release of the MSR Cambridge traces is CSV with columns::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

where ``Timestamp`` is a Windows FILETIME (100 ns ticks since 1601),
``Type`` is ``Read``/``Write``, ``Offset``/``Size`` are bytes, and
``ResponseTime`` is in 100 ns ticks.  :func:`load_msr_trace` normalizes
timestamps so the first record is at t=0 seconds.

The writer exists so synthetic traces can be exported to the same format
(handy for cross-checking against other simulators).
"""

from __future__ import annotations

import csv
from itertools import islice
from pathlib import Path
from typing import Iterator, Optional, TextIO, Tuple, Union

from repro.traces.compiled import CompiledTrace, compiled_from_events

#: Windows FILETIME ticks per second.
TICKS_PER_SECOND = 10_000_000


class MsrFormatError(ValueError):
    """Raised on malformed MSR CSV rows."""


def _parse_is_write(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("read", "write"):
        return value == "write"
    raise MsrFormatError(f"unknown request type {raw!r}")


def load_msr_trace(
    path: Union[str, Path],
    name: Optional[str] = None,
    disk_number: Optional[int] = None,
    max_records: Optional[int] = None,
) -> CompiledTrace:
    """Load an MSR Cambridge CSV trace file.

    ``disk_number`` filters to one volume of a multi-volume trace;
    ``max_records`` truncates long traces for quick experiments.  A row
    that cannot be parsed, names a negative offset, or goes back in time
    raises :class:`MsrFormatError` naming its file and line.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = islice(_rows(path, fh, disk_number), max_records)
        return compiled_from_events(rows, name=name or path.stem)


def _rows(
    path: Path, fh: TextIO, disk_number: Optional[int]
) -> Iterator[Tuple[float, bool, int, int]]:
    """Yield ``(time, is_write, offset, size)`` for each kept row."""
    base_ticks: Optional[int] = None
    last = 0.0
    for line_no, row in enumerate(csv.reader(fh), start=1):
        if not row or row[0].startswith("#"):
            continue
        if len(row) < 6:
            raise MsrFormatError(
                f"{path}:{line_no}: expected >=6 columns, got {len(row)}"
            )
        try:
            ticks = int(row[0])
            disk = int(row[2])
            is_write = _parse_is_write(row[3])
            offset = int(row[4])
            size = int(row[5])
        except (ValueError, MsrFormatError) as exc:
            raise MsrFormatError(f"{path}:{line_no}: {exc}") from exc
        if disk_number is not None and disk != disk_number:
            continue
        if size <= 0:
            continue
        if offset < 0:
            raise MsrFormatError(f"{path}:{line_no}: negative offset {offset}")
        if base_ticks is None:
            base_ticks = ticks
        timestamp = (ticks - base_ticks) / TICKS_PER_SECOND
        if timestamp < last:
            raise MsrFormatError(
                f"{path}:{line_no}: timestamps not monotone"
            )
        last = timestamp
        yield timestamp, is_write, offset, size


def save_msr_trace(
    trace: CompiledTrace, path: Union[str, Path], hostname: str = "synthetic"
) -> None:
    """Write a trace in MSR Cambridge CSV format."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        for record in trace:
            writer.writerow(
                [
                    int(round(record.timestamp * TICKS_PER_SECOND)),
                    hostname,
                    0,
                    "Write" if record.is_write else "Read",
                    record.offset,
                    record.nbytes,
                    0,
                ]
            )
