"""Property-based tests at the controller level.

Hypothesis generates small arbitrary workloads; every scheme must complete
every request, keep energy accounting closed, and end fully consistent
after the drain — regardless of the mix, sizes, or arrival pattern.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import small_config
from repro.core import SCHEMES, build_controller
from repro.core.base import run_trace
from repro.sim import Simulator
from repro.traces.compiled import compiled_from_events

KB = 1024
MB = 1024 * KB

#: Logical space that fits the small test config comfortably.
SPACE = 8 * MB


@st.composite
def workloads(draw):
    n = draw(st.integers(1, 40))
    events = []
    t = 0.0
    for _ in range(n):
        t += draw(
            st.floats(0.0005, 2.0, allow_nan=False, allow_infinity=False)
        )
        is_write = draw(st.booleans())
        offset = draw(st.integers(0, (SPACE - 256 * KB) // 512)) * 512
        nbytes = draw(st.integers(1, 512)) * 512
        events.append((t, is_write, offset, nbytes))
    return compiled_from_events(events, name="hypothesis")


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@settings(max_examples=12, deadline=None)
@given(trace=workloads())
def test_any_workload_completes_consistently(scheme, trace):
    sim = Simulator()
    controller = build_controller(scheme, sim, small_config())
    metrics = run_trace(controller, trace)
    # Every request completed, exactly once.
    assert metrics.requests == len(trace)
    assert metrics.response_time.count == len(trace)
    assert metrics.response_time.min > 0
    # After drain, mirrored state is consistent and log space is coherent.
    controller.assert_consistent()
    for region in (
        getattr(controller, "mirror_logs", [])
        + getattr(controller, "primary_logs", [])
    ):
        region.check_invariants()
    log_region = getattr(controller, "log_region", None)
    if log_region is not None:
        log_region.check_invariants()
    # Energy accounting is non-negative and closed.
    for disk in controller.all_disks():
        assert disk.power.energy_joules >= 0
        assert sum(disk.power.state_durations.values()) <= sim.now + 1e-9
