"""Trace records: the row view of one request in a compiled trace."""

from __future__ import annotations

from repro.raid.request import RequestKind


class TraceRecord:
    """One block-level request from a trace."""

    __slots__ = ("timestamp", "kind", "offset", "nbytes")

    def __init__(
        self, timestamp: float, kind: RequestKind, offset: int, nbytes: int
    ) -> None:
        if timestamp < 0:
            raise ValueError("negative timestamp")
        if offset < 0 or nbytes <= 0:
            raise ValueError("invalid extent")
        self.timestamp = timestamp
        self.kind = kind
        self.offset = offset
        self.nbytes = nbytes

    @property
    def is_write(self) -> bool:
        return self.kind is RequestKind.WRITE

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"TraceRecord({self.timestamp:.4f}, {self.kind.value}, "
            f"{self.offset}, {self.nbytes})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.kind == other.kind
            and self.offset == other.offset
            and self.nbytes == other.nbytes
        )

    def __hash__(self) -> int:
        return hash((self.timestamp, self.kind, self.offset, self.nbytes))

