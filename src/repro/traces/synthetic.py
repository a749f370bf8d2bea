"""Synthetic block-trace generator.

The generator's knobs cover every trace characteristic the paper reports
(Tables III, V, VI): arrival intensity (IOPS), burstiness, read/write mix,
request-size distribution, footprint, write sequentiality, and the temporal
read locality that determines RoLo-E's read hit rate.

All randomness flows from a single seed, so traces are reproducible.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import random
from collections import deque
from typing import Deque, Iterator, Optional, Tuple

from repro.traces.compiled import CompiledTrace, compiled_from_events

KB = 1024
MB = 1024 * KB

#: All generated offsets/sizes are aligned to this many bytes (one sector,
#: matching the granularity of the MSR traces).
ALIGNMENT = 512


class Burstiness(enum.Enum):
    """Arrival-process burstiness levels.

    NONE is a plain Poisson process.  The others modulate the rate with an
    ON/OFF envelope: the tuple is (fraction of time ON, OFF-rate as a
    fraction of the mean rate).  The ON rate is derived so the long-run mean
    equals the configured IOPS.
    """

    NONE = (1.0, 1.0)
    LOW = (0.8, 0.6)
    MEDIUM = (0.6, 0.3)
    HIGH = (0.4, 0.1)
    VERY_HIGH = (0.25, 0.05)

    def __init__(self, on_fraction: float, off_rate_fraction: float) -> None:
        self.on_fraction = on_fraction
        self.off_rate_fraction = off_rate_fraction

    def on_rate_multiplier(self) -> float:
        """Rate multiplier during ON periods preserving the mean rate."""
        f, off = self.on_fraction, self.off_rate_fraction
        return (1.0 - (1.0 - f) * off) / f


@dataclasses.dataclass
class SyntheticTraceConfig:
    """Parameters of one synthetic trace."""

    duration_s: float
    iops: float
    write_ratio: float = 1.0
    avg_request_bytes: int = 64 * KB
    #: Request sizes: fixed when 0, else lognormal sigma.
    size_sigma: float = 0.0
    footprint_bytes: int = 1024 * MB
    #: Probability that a write continues sequentially from the previous one.
    write_sequential_fraction: float = 0.3
    #: Probability that a read targets a recently written/read block
    #: (temporal locality; drives RoLo-E's read hit rate).
    read_locality: float = 0.5
    #: How many recent block addresses the locality window remembers.
    locality_window: int = 4096
    burstiness: Burstiness = Burstiness.NONE
    #: Mean length of one ON+OFF burst cycle, seconds.
    burst_cycle_s: float = 60.0
    #: Temporal clustering of reads: reads only occur during the first
    #: ``read_session_fraction`` of every ``read_session_cycle_s`` window
    #: (with proportionally boosted probability, so the overall read ratio
    #: is preserved).  1.0 disables clustering.
    read_session_fraction: float = 1.0
    read_session_cycle_s: float = 600.0
    #: Spatial skew: probability that a randomly placed request falls in
    #: the hot region (the first ``hotspot_span`` of the footprint).
    #: 0.0 disables skew.
    hotspot_fraction: float = 0.0
    hotspot_span: float = 0.1
    seed: int = 42
    name: str = "synthetic"

    def __post_init__(self) -> None:
        if self.duration_s <= 0 or self.iops <= 0:
            raise ValueError("duration and iops must be positive")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0,1]")
        if not 0.0 <= self.write_sequential_fraction <= 1.0:
            raise ValueError("write_sequential_fraction must be in [0,1]")
        if not 0.0 <= self.read_locality <= 1.0:
            raise ValueError("read_locality must be in [0,1]")
        if self.avg_request_bytes < ALIGNMENT:
            raise ValueError(f"avg request must be >= {ALIGNMENT} bytes")
        if not 0.0 < self.read_session_fraction <= 1.0:
            raise ValueError("read_session_fraction must be in (0, 1]")
        if self.read_session_fraction < 1.0 - self.write_ratio:
            raise ValueError(
                "read sessions too narrow to carry the configured read ratio"
            )
        if self.read_session_cycle_s <= 0:
            raise ValueError("read_session_cycle_s must be positive")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be in [0, 1]")
        if not 0.0 < self.hotspot_span <= 1.0:
            raise ValueError("hotspot_span must be in (0, 1]")
        if self.footprint_bytes < 4 * self.avg_request_bytes:
            raise ValueError("footprint too small for the request size")


class _ArrivalProcess:
    """Poisson arrivals, optionally modulated by an ON/OFF envelope."""

    def __init__(self, config: SyntheticTraceConfig, rng: random.Random):
        self._rng = rng
        self._mean_rate = config.iops
        self._burst = config.burstiness
        on_frac = self._burst.on_fraction
        self._on_len = max(1e-9, config.burst_cycle_s * on_frac)
        self._off_len = max(0.0, config.burst_cycle_s * (1.0 - on_frac))
        self._on_rate = config.iops * self._burst.on_rate_multiplier()
        self._off_rate = config.iops * self._burst.off_rate_fraction

    def _rate_at(self, t: float) -> float:
        if self._burst is Burstiness.NONE:
            return self._mean_rate
        phase = math.fmod(t, self._on_len + self._off_len)
        return self._on_rate if phase < self._on_len else self._off_rate

    def next_after(self, t: float) -> float:
        """Next arrival strictly after ``t`` (thinning algorithm)."""
        max_rate = max(self._on_rate, self._off_rate, self._mean_rate)
        while True:
            t += self._rng.expovariate(max_rate)
            if self._rng.random() * max_rate <= self._rate_at(t):
                return t


def _align(value: float) -> int:
    """Round to the nearest alignment multiple (unbiased, min one unit)."""
    return max(ALIGNMENT, int(value / ALIGNMENT + 0.5) * ALIGNMENT)


def _pick_size(config: SyntheticTraceConfig, rng: random.Random) -> int:
    if config.size_sigma <= 0:
        return _align(config.avg_request_bytes)
    sigma = config.size_sigma
    mu = math.log(config.avg_request_bytes) - sigma * sigma / 2.0
    size = rng.lognormvariate(mu, sigma)
    size = min(size, 16 * config.avg_request_bytes)
    return _align(size)


def _aligned_footprint(config: SyntheticTraceConfig) -> int:
    return (config.footprint_bytes // ALIGNMENT) * ALIGNMENT


def _iter_events(
    config: SyntheticTraceConfig,
) -> Iterator[Tuple[float, bool, int, int]]:
    """Yield ``(time, is_write, offset, size)`` for one synthetic trace.

    The generator's whole RNG stream: every draw is made here, in order,
    from one ``random.Random(config.seed)``.
    """
    rng = random.Random(config.seed)
    arrivals = _ArrivalProcess(config, rng)
    recent: Deque[Tuple[int, int]] = deque(maxlen=config.locality_window)
    footprint = _aligned_footprint(config)
    next_sequential: Optional[int] = None

    read_ratio = 1.0 - config.write_ratio
    session_fraction = config.read_session_fraction
    session_cycle = config.read_session_cycle_s

    def write_probability(now: float) -> float:
        if session_fraction >= 1.0 or read_ratio <= 0.0:
            return config.write_ratio
        phase = math.fmod(now, session_cycle)
        if phase < session_fraction * session_cycle:
            return 1.0 - read_ratio / session_fraction
        return 1.0

    t = arrivals.next_after(0.0)
    while t < config.duration_s:
        size = _pick_size(config, rng)
        is_write = rng.random() < write_probability(t)
        if is_write:
            if (
                next_sequential is not None
                and rng.random() < config.write_sequential_fraction
                and next_sequential + size <= footprint
            ):
                offset = next_sequential
            else:
                offset = _placed_offset(config, rng, footprint, size)
            next_sequential = offset + size
        else:
            if recent and rng.random() < config.read_locality:
                offset, ref_size = recent[rng.randrange(len(recent))]
                size = min(size, ref_size)
            else:
                offset = _placed_offset(config, rng, footprint, size)
        offset = min(offset, footprint - size)
        yield t, is_write, offset, size
        recent.append((offset, size))
        t = arrivals.next_after(t)


def generate_compiled(config: SyntheticTraceConfig) -> CompiledTrace:
    """Generate the synthetic trace ``config`` describes.

    No per-request objects are materialized: events stream straight from
    the generator into the compiled columns.
    """
    return compiled_from_events(
        _iter_events(config),
        name=config.name,
        footprint_bytes=_aligned_footprint(config),
    )


def _random_offset(rng: random.Random, footprint: int, size: int) -> int:
    span = max(ALIGNMENT, footprint - size)
    return rng.randrange(0, span // ALIGNMENT) * ALIGNMENT


def _placed_offset(
    config: SyntheticTraceConfig,
    rng: random.Random,
    footprint: int,
    size: int,
) -> int:
    """Random placement, optionally skewed into the hot region."""
    if (
        config.hotspot_fraction > 0
        and rng.random() < config.hotspot_fraction
    ):
        hot_span = max(4 * size, int(footprint * config.hotspot_span))
        return _random_offset(rng, min(hot_span, footprint), size)
    return _random_offset(rng, footprint, size)
