"""RoLo core: the paper's contribution and its baselines.

Use :func:`build_controller` to construct a scheme by name and
:func:`repro.core.base.run_trace` to replay a trace against it::

    from repro.core import ArrayConfig, build_controller, run_trace
    from repro.sim import Simulator
    from repro.traces import build_workload_trace

    sim = Simulator()
    controller = build_controller("rolo-p", sim, ArrayConfig(n_pairs=10))
    metrics = run_trace(controller, build_workload_trace("src2_2", 0.02))
"""

from __future__ import annotations

from typing import Dict, Type

from repro.core.base import Controller, DataLossError, TraceDriver, run_trace
from repro.core.config import ArrayConfig
from repro.core.destage import DestageProcess, coalesce_units
from repro.core.graid import GraidController
from repro.core.logspace import LogRegion, LogSpaceError, RegionAllocator
from repro.core.metrics import CycleWindow, RunMetrics
from repro.core.raid10 import Raid10Controller
from repro.core.recovery import (
    RecoveryError,
    RecoveryPlan,
    RecoveryProcess,
    plan_recovery,
)
from repro.core.raid5 import Raid5Config, Raid5Controller
from repro.core.rolo5 import Rolo5Controller
from repro.core.rolo_e import RoloEController
from repro.core.rolo_p import RoloPController
from repro.core.rolo_r import RoloRController
from repro.core.rotation import RotationPolicy
from repro.sim.engine import Simulator

#: Registry of scheme name -> controller class.  Keys are the names used
#: throughout the experiments and the CLI.
SCHEMES: Dict[str, Type[Controller]] = {
    "raid10": Raid10Controller,
    "graid": GraidController,
    "rolo-p": RoloPController,
    "rolo-r": RoloRController,
    "rolo-e": RoloEController,
}


#: Parity-based schemes (the §VII future-work study).  These use
#: :class:`Raid5Config` rather than :class:`ArrayConfig`.
RAID5_SCHEMES = {
    "raid5": Raid5Controller,
    "rolo-5": Rolo5Controller,
}


def build_controller(
    scheme: str,
    sim: Simulator,
    config: ArrayConfig | Raid5Config,
    tracer: object = None,
    oracle: object = None,
) -> Controller:
    """Construct a controller by scheme name.

    The name is looked up in :data:`SCHEMES` (``config`` is an
    :class:`ArrayConfig`), then in :data:`RAID5_SCHEMES` (``config`` is a
    :class:`Raid5Config`).  ``tracer`` is an optional
    :class:`repro.obs.Tracer`; the default (or a falsy ``NullTracer``)
    leaves the controller uninstrumented.  ``oracle`` is an optional
    :class:`repro.faults.ConsistencyOracle`; when given it is attached to
    the controller and mirrors every acknowledged write for the
    fault-injection consistency checks (the parity controllers report
    data-segment writes/reads through its ``note_parity_write``/
    ``note_parity_read`` hooks; parity units are derived state and
    deliberately untracked).
    """
    key = scheme.lower()
    cls = SCHEMES.get(key) or RAID5_SCHEMES.get(key)
    if cls is None:
        known = ", ".join(sorted([*SCHEMES, *RAID5_SCHEMES]))
        raise KeyError(f"unknown scheme {scheme!r}; known: {known}")
    controller = cls(sim, config, tracer=tracer)
    if oracle is not None:
        oracle.attach(controller)
    return controller


__all__ = [
    "ArrayConfig",
    "Controller",
    "DataLossError",
    "TraceDriver",
    "run_trace",
    "build_controller",
    "SCHEMES",
    "Raid10Controller",
    "GraidController",
    "RoloPController",
    "RoloRController",
    "RoloEController",
    "DestageProcess",
    "coalesce_units",
    "LogRegion",
    "LogSpaceError",
    "RegionAllocator",
    "RotationPolicy",
    "RunMetrics",
    "CycleWindow",
    "RecoveryError",
    "RecoveryPlan",
    "RecoveryProcess",
    "plan_recovery",
    "Raid5Config",
    "Raid5Controller",
    "Rolo5Controller",
    "RAID5_SCHEMES",
]
