"""Calibrated stand-ins for the paper's seven MSR Cambridge traces.

Each preset encodes the published per-trace characteristics (Tables III, V
and VI of the paper): write ratio, IOPS, mean request size, total write
capacity, burstiness and — for the two main traces — the read temporal
locality implied by the RoLo-E read hit rates of Table V.

The *full-scale* duration of a preset is derived from its write capacity:
``duration = write_capacity / (iops * write_ratio * avg_request)``, i.e. the
horizon over which replaying the preset writes exactly the published volume.
Experiments replay time-scaled replicas (see DESIGN.md §3): ``scale``
multiplies the duration and footprint while leaving rates, sizes and ratios
unchanged, which preserves logging-cycle/rotation/destage *counts* when the
log capacities are scaled by the same factor.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.traces.compiled import CompiledTrace
from repro.traces.synthetic import (
    Burstiness,
    SyntheticTraceConfig,
    generate_compiled,
)

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclasses.dataclass(frozen=True)
class WorkloadPreset:
    """Published characteristics of one paper trace."""

    name: str
    write_ratio: float
    iops: float
    avg_request_bytes: int
    write_capacity_bytes: int
    burstiness: Burstiness
    read_locality: float
    footprint_bytes: int
    write_sequential_fraction: float = 0.3
    #: Full-scale ON/OFF burst cycle length; scaled with the trace so burst
    #: volume keeps the same proportion to the (scaled) logging capacity.
    burst_cycle_full_s: float = 300.0
    #: Temporal read clustering (1.0 = reads spread uniformly).
    read_session_fraction: float = 1.0
    read_session_cycle_full_s: float = 6000.0

    @property
    def full_duration_s(self) -> float:
        """Horizon over which the preset writes its published capacity."""
        write_rate = self.iops * self.write_ratio * self.avg_request_bytes
        return self.write_capacity_bytes / write_rate

    def to_config(
        self, scale: float = 1.0, seed: int = 42
    ) -> SyntheticTraceConfig:
        """Build the generator configuration for a time-scaled replica."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        return SyntheticTraceConfig(
            duration_s=self.full_duration_s * scale,
            iops=self.iops,
            write_ratio=self.write_ratio,
            avg_request_bytes=self.avg_request_bytes,
            size_sigma=0.5,
            footprint_bytes=max(
                int(self.footprint_bytes * scale), 64 * MB // 16
            ),
            write_sequential_fraction=self.write_sequential_fraction,
            read_locality=self.read_locality,
            burstiness=self.burstiness,
            burst_cycle_s=max(5.0, self.burst_cycle_full_s * scale),
            read_session_fraction=self.read_session_fraction,
            read_session_cycle_s=max(
                60.0, self.read_session_cycle_full_s * scale
            ),
            seed=seed,
            name=f"{self.name}@{scale:g}",
        )


def _preset(
    name: str,
    write_ratio: float,
    iops: float,
    avg_kb: float,
    capacity_gb: float,
    burstiness: Burstiness,
    read_locality: float,
    footprint_gb: float,
) -> WorkloadPreset:
    return WorkloadPreset(
        name=name,
        write_ratio=write_ratio,
        iops=iops,
        avg_request_bytes=int(avg_kb * KB),
        write_capacity_bytes=int(capacity_gb * GB),
        burstiness=burstiness,
        read_locality=read_locality,
        footprint_bytes=int(footprint_gb * GB),
    )


#: The seven traces of Tables III and VI.  ``read_locality`` for src2_2 and
#: proj_0 is calibrated to the read hit rates of Table V (90.59% / 26.67%);
#: the five non-write-intensive traces get a neutral 0.5.
PAPER_WORKLOADS: Dict[str, WorkloadPreset] = {
    "src2_2": _preset(
        "src2_2", 0.9962, 78.80, 63.64, 33.0, Burstiness.VERY_HIGH, 0.92, 8.0
    ),
    "proj_0": dataclasses.replace(
        _preset(
            "proj_0", 0.9490, 23.89, 51.42, 99.3, Burstiness.NONE, 0.25, 24.0
        ),
        # proj_0's published RoLo-E behaviour (75.8% energy saved *and* a
        # -584% response-time hit *and* only ~2.9k spin events, Tables I/IV)
        # is only jointly consistent if its reads arrive in temporal
        # sessions; see EXPERIMENTS.md.
        read_session_fraction=0.12,
    ),
    "mds_0": _preset(
        "mds_0", 0.8811, 2.00, 9.20, 7.0, Burstiness.MEDIUM, 0.5, 3.0
    ),
    "wdev_0": _preset(
        "wdev_0", 0.7992, 1.89, 9.08, 7.15, Burstiness.MEDIUM, 0.5, 3.0
    ),
    "web_1": _preset(
        "web_1", 0.4589, 0.27, 29.07, 0.648, Burstiness.MEDIUM, 0.5, 1.0
    ),
    "rsrch_2": _preset(
        "rsrch_2", 0.3431, 0.35, 4.08, 0.288, Burstiness.MEDIUM, 0.5, 0.5
    ),
    "hm_1": _preset(
        "hm_1", 0.0466, 1.02, 15.16, 0.540, Burstiness.MEDIUM, 0.5, 1.0
    ),
}


def build_workload_trace(
    name: str, scale: float = 1.0, seed: int = 42
) -> CompiledTrace:
    """Generate the time-scaled replica of a named paper trace."""
    try:
        preset = PAPER_WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(PAPER_WORKLOADS))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
    return generate_compiled(preset.to_config(scale=scale, seed=seed))
