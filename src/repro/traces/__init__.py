"""Trace substrate.

The paper replays MSR Cambridge block traces.  Those files are not
redistributable, so this package provides (a) a parser for the SNIA CSV
format for users who have them (:mod:`repro.traces.msr`), (b) a synthetic
generator whose knobs cover every characteristic the paper publishes about
its traces (:mod:`repro.traces.synthetic`), and (c) calibrated presets for
the seven traces the evaluation uses (:mod:`repro.traces.workloads`).
"""

from repro.traces.analysis import TraceStats, characterize
from repro.traces.compiled import (
    TRACE_COMPILER_VERSION,
    CompiledTrace,
    compiled_from_events,
)
from repro.traces.record import TraceRecord
from repro.traces.shm import (
    SharedCompiledTrace,
    SharedTraceStore,
    TraceRef,
)
from repro.traces.synthetic import (
    Burstiness,
    SyntheticTraceConfig,
    generate_compiled,
)
from repro.traces.workloads import (
    PAPER_WORKLOADS,
    WorkloadPreset,
    build_workload_trace,
)

__all__ = [
    "TraceRecord",
    "TraceStats",
    "characterize",
    "CompiledTrace",
    "TRACE_COMPILER_VERSION",
    "compiled_from_events",
    "SharedCompiledTrace",
    "SharedTraceStore",
    "TraceRef",
    "Burstiness",
    "SyntheticTraceConfig",
    "generate_compiled",
    "WorkloadPreset",
    "PAPER_WORKLOADS",
    "build_workload_trace",
]
