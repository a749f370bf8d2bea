"""Deterministic, seedable fault schedules.

A :class:`FaultSchedule` is an ordered set of fault events, each pinned to
a virtual time and a disk name.  Schedules round-trip through a compact
spec string (``fail@40:M0,slow@10:P1:4x20,lse@5:P0:2048+16``) so they can
be typed on the CLI, stored in campaign cache keys, and pinned in golden
files.  Randomized schedules come from :meth:`FaultSchedule.random_single_
failure` and friends, which draw from a caller-seeded ``random.Random`` —
the same seed always yields the same schedule.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import List, Sequence, Tuple, Union


class FaultScheduleError(ValueError):
    """Raised for malformed schedule specs or invalid event parameters."""


def _fmt(value: float) -> str:
    """Compact float formatting for spec strings (no trailing zeros)."""
    text = f"{value:g}"
    return text


@dataclasses.dataclass(frozen=True)
class DiskFailure:
    """Fail-stop whole-disk failure at ``time`` (optionally no rebuild)."""

    time: float
    disk: str
    rebuild: bool = True

    def spec(self) -> str:
        tail = "" if self.rebuild else ":norebuild"
        return f"fail@{_fmt(self.time)}:{self.disk}{tail}"


@dataclasses.dataclass(frozen=True)
class Slowdown:
    """Transient service-time inflation: ``factor``x for ``duration`` s."""

    time: float
    disk: str
    factor: float
    duration: float

    def spec(self) -> str:
        return (
            f"slow@{_fmt(self.time)}:{self.disk}"
            f":{_fmt(self.factor)}x{_fmt(self.duration)}"
        )


@dataclasses.dataclass(frozen=True)
class LatentSectorError:
    """Latent media error, surfaced when a later read passes over it."""

    time: float
    disk: str
    sector: int
    n_sectors: int = 8

    def spec(self) -> str:
        return (
            f"lse@{_fmt(self.time)}:{self.disk}"
            f":{self.sector}+{self.n_sectors}"
        )


FaultEvent = Union[DiskFailure, Slowdown, LatentSectorError]


def _parse_one(token: str) -> FaultEvent:
    try:
        head, rest = token.split("@", 1)
        parts = rest.split(":")
        time = float(parts[0])
    except (ValueError, IndexError):
        raise FaultScheduleError(f"malformed fault spec {token!r}") from None
    if not 0 <= time < math.inf:
        raise FaultScheduleError(
            f"fault time must be finite and non-negative in {token!r}"
        )
    try:
        if head == "fail":
            if len(parts) == 2:
                return DiskFailure(time, parts[1])
            if len(parts) == 3 and parts[2] == "norebuild":
                return DiskFailure(time, parts[1], rebuild=False)
        elif head == "slow" and len(parts) == 3:
            factor, duration = map(float, parts[2].split("x", 1))
            if not 1 <= factor < math.inf:
                raise FaultScheduleError(
                    f"slowdown factor must be finite and at least 1 "
                    f"in {token!r}"
                )
            if not 0 < duration < math.inf:
                raise FaultScheduleError(
                    f"slowdown duration must be finite and positive "
                    f"in {token!r}"
                )
            return Slowdown(time, parts[1], factor, duration)
        elif head == "lse" and len(parts) == 3:
            sector, n_sectors = map(int, parts[2].split("+", 1))
            if sector < 0 or n_sectors < 1:
                raise FaultScheduleError(
                    f"latent error needs a sector >= 0 and a count >= 1 "
                    f"in {token!r}"
                )
            return LatentSectorError(time, parts[1], sector, n_sectors)
    except FaultScheduleError:
        raise
    except (ValueError, IndexError):
        raise FaultScheduleError(f"malformed fault spec {token!r}") from None
    raise FaultScheduleError(f"unknown fault spec {token!r}")


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-ordered collection of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time, e.spec()))
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def spec(self) -> str:
        """Canonical spec string; ``parse(spec())`` round-trips exactly."""
        return ",".join(event.spec() for event in self.events)

    @classmethod
    def parse(cls, text: str) -> "FaultSchedule":
        tokens = [t.strip() for t in text.split(",") if t.strip()]
        if not tokens:
            raise FaultScheduleError("empty fault schedule spec")
        return cls(tuple(_parse_one(token) for token in tokens))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def single_failure(
        cls, disk: str, time: float, rebuild: bool = True
    ) -> "FaultSchedule":
        return cls((DiskFailure(time, disk, rebuild=rebuild),))

    @classmethod
    def random_single_failure(
        cls,
        rng: Union[int, random.Random],
        disks: Sequence[str],
        t_min: float,
        t_max: float,
        rebuild: bool = True,
    ) -> "FaultSchedule":
        """One failure of a random disk at a uniform-random time.

        ``rng`` is a seed or a caller-owned ``random.Random``; equal seeds
        yield equal schedules.
        """
        if isinstance(rng, int):
            rng = random.Random(rng)
        if not disks:
            raise FaultScheduleError("no candidate disks")
        if not t_max >= t_min >= 0:
            raise FaultScheduleError(f"bad window [{t_min}, {t_max}]")
        disk = rng.choice(list(disks))
        time = rng.uniform(t_min, t_max)
        return cls.single_failure(disk, time, rebuild=rebuild)

    @classmethod
    def random_soup(
        cls,
        rng: Union[int, random.Random],
        disks: Sequence[str],
        t_min: float,
        t_max: float,
        n_slowdowns: int = 2,
        n_lse: int = 2,
        data_capacity_bytes: int = 8 * 1024 * 1024,
    ) -> "FaultSchedule":
        """Transient-only chaos: slowdown windows plus latent errors."""
        if isinstance(rng, int):
            rng = random.Random(rng)
        events: List[FaultEvent] = []
        max_sector = max(1, data_capacity_bytes // 512)
        for _ in range(n_slowdowns):
            events.append(
                Slowdown(
                    round(rng.uniform(t_min, t_max), 3),
                    rng.choice(list(disks)),
                    factor=round(rng.uniform(2.0, 8.0), 2),
                    duration=round(rng.uniform(1.0, 10.0), 3),
                )
            )
        for _ in range(n_lse):
            events.append(
                LatentSectorError(
                    round(rng.uniform(t_min, t_max), 3),
                    rng.choice(list(disks)),
                    sector=rng.randrange(0, max_sector, 8),
                    n_sectors=8 * rng.randint(1, 4),
                )
            )
        return cls(tuple(events))
