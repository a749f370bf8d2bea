"""Property-style invariant sweeps for log-space management and rotation.

Seeded ``random.Random`` drives long randomized operation sequences (the
repo's tests deliberately avoid a property-testing dependency so sweeps
replay bit-identically from the seed alone).  Invariants under test:

* allocations handed out by :class:`RegionAllocator` / :class:`LogRegion`
  never overlap outstanding live extents;
* ``reclaim(pair, before_epoch)`` frees exactly the already-destaged
  (earlier-epoch) extents of that pair and nothing else;
* :class:`RotationPolicy` visits candidates in one fixed round-robin
  permutation, regardless of occupancy history;
* the runtime :class:`~repro.verify.InvariantChecker` holds across every
  scheme under clean, single-failure, and slowdown runs — and observing
  the run leaves its metrics byte-identical.
"""

import json
import random

import pytest

from repro.core.logspace import LogRegion, LogSpaceError, RegionAllocator
from repro.core.rotation import RotationPolicy

KB = 1024


def overlaps(a_off, a_len, b_off, b_len):
    return a_off < b_off + b_len and b_off < a_off + a_len


def assert_disjoint(intervals):
    ordered = sorted(intervals)
    for (a_off, a_len), (b_off, b_len) in zip(ordered, ordered[1:]):
        assert a_off + a_len <= b_off, (
            f"overlapping extents ({a_off},{a_len}) / ({b_off},{b_len})"
        )


class TestRegionAllocatorSweep:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_alloc_free_never_overlaps(self, seed):
        rng = random.Random(2000 + seed)
        allocator = RegionAllocator(256 * KB)
        live = {}  # offset -> nbytes
        for _ in range(400):
            if live and rng.random() < 0.45:
                offset = rng.choice(list(live))
                allocator.free(offset, live.pop(offset))
            else:
                nbytes = rng.choice((1, 2, 3, 4, 8, 16)) * KB
                try:
                    offset = allocator.allocate(nbytes)
                except LogSpaceError:
                    assert allocator.largest_free_extent < nbytes
                    continue
                assert 0 <= offset <= allocator.total - nbytes
                for other_off, other_len in live.items():
                    assert not overlaps(offset, nbytes, other_off, other_len)
                live[offset] = nbytes
            allocator.check_invariants()
            assert allocator.allocated == sum(live.values())
        # Draining every allocation coalesces back to one free run.
        for offset, nbytes in live.items():
            allocator.free(offset, nbytes)
        allocator.check_invariants()
        assert allocator.fragments == 1
        assert allocator.free_bytes == allocator.total

    def test_double_free_rejected(self):
        allocator = RegionAllocator(64 * KB)
        offset = allocator.allocate(4 * KB)
        allocator.free(offset, 4 * KB)
        with pytest.raises(LogSpaceError):
            allocator.free(offset, 4 * KB)

    def test_fragmented_space_does_not_satisfy_contiguous_alloc(self):
        allocator = RegionAllocator(12 * KB)
        offsets = [allocator.allocate(4 * KB) for _ in range(3)]
        allocator.free(offsets[0], 4 * KB)
        allocator.free(offsets[2], 4 * KB)
        assert allocator.free_bytes == 8 * KB
        with pytest.raises(LogSpaceError):
            allocator.allocate(8 * KB)  # only two 4K fragments remain


class TestLogRegionSweep:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_append_reclaim_cache_sequences(self, seed):
        rng = random.Random(3000 + seed)
        region = LogRegion("M0", base_offset=1024 * KB, capacity=512 * KB)
        n_pairs = 4
        epoch = 0
        # Mirror of region._live: (pair, epoch) -> [(abs_offset, nbytes)].
        model = {}
        cache = {}  # abs_offset -> nbytes
        for _ in range(400):
            roll = rng.random()
            if roll < 0.45:
                # Append on behalf of 1-2 pairs.
                pairs = rng.sample(range(n_pairs), rng.randint(1, 2))
                shares = {p: rng.choice((1, 2, 4)) * KB for p in pairs}
                nbytes = sum(shares.values())
                if not region.fits(nbytes):
                    with pytest.raises(LogSpaceError):
                        region.append(nbytes, shares, epoch)
                else:
                    cursor = region.append(nbytes, shares, epoch)
                    for pair, share in shares.items():
                        model.setdefault((pair, epoch), []).append(
                            (cursor, share)
                        )
                        cursor += share
            elif roll < 0.65:
                epoch += 1
                # Destage boundary: reclaim one pair's earlier epochs.
                pair = rng.randrange(n_pairs)
                expected = sum(
                    nbytes
                    for (p, e), chunks in model.items()
                    if p == pair and e < epoch
                    for _, nbytes in chunks
                )
                freed = region.reclaim(pair, before_epoch=epoch)
                assert freed == expected
                model = {
                    key: chunks
                    for key, chunks in model.items()
                    if not (key[0] == pair and key[1] < epoch)
                }
                assert region.live_bytes(pair) == 0
            elif roll < 0.85 and region.fits(8 * KB):
                offset = region.charge_cache(8 * KB)
                cache[offset] = 8 * KB
            elif cache:
                offset = rng.choice(list(cache))
                region.release_cache(offset, cache.pop(offset))
            region.check_invariants()
            live = [
                chunk for chunks in model.values() for chunk in chunks
            ]
            rel_cache = [
                (off - region.base_offset, n) for off, n in cache.items()
            ]
            rel_live = [
                (off - region.base_offset, n) for off, n in live
            ]
            assert_disjoint(rel_live + rel_cache)
            assert region.used == sum(n for _, n in live) + sum(
                cache.values()
            )
            for pair in range(n_pairs):
                assert region.live_bytes(pair) == sum(
                    nbytes
                    for (p, _), chunks in model.items()
                    if p == pair
                    for _, nbytes in chunks
                )
        # Full truncation releases everything, including cache charges.
        freed = region.reset()
        assert freed == sum(
            n for chunks in model.values() for _, n in chunks
        ) + sum(cache.values())
        assert region.used == 0
        assert region.cache_used == 0
        assert region.occupancy == 0.0
        region.check_invariants()

    def test_reclaim_spares_current_epoch(self):
        region = LogRegion("M1", base_offset=0, capacity=64 * KB)
        region.append(4 * KB, {0: 4 * KB}, epoch=0)
        region.append(4 * KB, {0: 4 * KB}, epoch=1)
        assert region.reclaim(0, before_epoch=1) == 4 * KB
        # The epoch-1 copy is the only remaining (live) one.
        assert region.live_bytes(0) == 4 * KB
        assert region.reclaim(0, before_epoch=1) == 0

    def test_reclaim_ignores_other_pairs(self):
        region = LogRegion("M1", base_offset=0, capacity=64 * KB)
        region.append(4 * KB, {0: 4 * KB}, epoch=0)
        region.append(8 * KB, {1: 8 * KB}, epoch=0)
        assert region.reclaim(0, before_epoch=5) == 4 * KB
        assert region.live_bytes(1) == 8 * KB


class TestRotationPolicySweep:
    @pytest.mark.parametrize("seed", range(5))
    def test_rotation_order_is_fixed_permutation(self, seed):
        rng = random.Random(4000 + seed)
        n = rng.randint(2, 8)
        policy = RotationPolicy(n, threshold=0.9, occupancy=lambda i: 0.0)
        current = rng.randrange(n)
        visited = []
        for _ in range(3 * n):
            nxt = policy.next_logger(current)
            assert nxt == (current + 1) % n  # fixed round-robin order
            visited.append(nxt)
            current = nxt
        # Every candidate is visited equally often: a true permutation
        # cycle, not a subset.
        assert {visited.count(i) for i in range(n)} == {3}
        assert policy.rotations == 3 * n

    @pytest.mark.parametrize("seed", range(5))
    def test_exclusions_and_threshold_respected(self, seed):
        rng = random.Random(5000 + seed)
        n = rng.randint(3, 8)
        occupancy = {i: rng.random() for i in range(n)}
        threshold = 0.5
        policy = RotationPolicy(
            n, threshold=threshold, occupancy=lambda i: occupancy[i]
        )
        for _ in range(50):
            current = rng.randrange(n)
            excluded = set(
                rng.sample(range(n), rng.randint(0, n - 1))
            )
            choice = policy.peek_next(current, excluded)
            eligible = [
                (current + step) % n
                for step in range(1, n)
                if (current + step) % n not in excluded
                and occupancy[(current + step) % n] < threshold
            ]
            assert choice == (eligible[0] if eligible else None)
            # Re-randomize occupancies between probes.
            occupancy = {i: rng.random() for i in range(n)}

    def test_peek_does_not_commit(self):
        policy = RotationPolicy(4, threshold=0.9, occupancy=lambda i: 0.0)
        assert policy.peek_next(0) == 1
        assert policy.rotations == 0
        assert policy.next_logger(0) == 1
        assert policy.rotations == 1

    def test_all_saturated_returns_none(self):
        policy = RotationPolicy(4, threshold=0.5, occupancy=lambda i: 0.9)
        assert policy.next_logger(0) is None
        assert policy.rotations == 0


class TestRuntimeInvariantChecker:
    """The PR's runtime checker over whole scheme runs.

    Every scheme is swept under clean, single-failure, and slowdown
    conditions with the checker chained onto the engine event hook; zero
    violations must be reported, and the checked run's metrics snapshot
    must be byte-identical to an unchecked run of the same scenario.
    """

    SCHEMES = ("raid10", "graid", "rolo-p", "rolo-r", "rolo-e")
    CONDITIONS = {
        "clean": "",
        "single-failure": "fail@5:M0",
        "slowdown": "slow@2:P0:4x6",
    }

    @staticmethod
    def _run(scheme, fault_spec, checker=None):
        from repro.faults.injector import run_faulted
        from repro.faults.schedule import FaultSchedule
        from repro.verify import Scenario
        from repro.traces.compiled import truncate_trace

        scenario = Scenario(
            scheme=scheme,
            workload="web_1",
            scale=0.02,
            n_pairs=2,
            seed=8,
            n_requests=120,
            fault_spec=fault_spec,
        )
        trace = truncate_trace(scenario.build_trace(), scenario.n_requests)
        return run_faulted(
            scheme,
            scenario.resolve_config(),
            trace,
            scenario.schedule(),
            checker=checker,
        )

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize(
        "condition", sorted(CONDITIONS), ids=sorted(CONDITIONS)
    )
    def test_zero_violations_and_byte_identity(self, scheme, condition):
        from repro.verify import InvariantChecker

        checker = InvariantChecker()
        checked = self._run(scheme, self.CONDITIONS[condition], checker)
        assert checker.violations == []
        assert checker.checks_run > 0

        plain = self._run(scheme, self.CONDITIONS[condition])
        assert json.dumps(
            plain.metrics.to_dict(), sort_keys=True
        ) == json.dumps(checked.metrics.to_dict(), sort_keys=True)

    def test_checker_restores_previous_event_hook(self, sim):
        from repro.core import build_controller
        from repro.verify import InvariantChecker

        from tests.conftest import small_config

        controller = build_controller("rolo-p", sim, small_config())
        seen = []
        hook = seen.append
        sim.add_event_observer(hook)
        checker = InvariantChecker()
        checker.install(sim, controller)
        sim.schedule(0.0, lambda: None, label="tick")
        sim.run()
        checker.uninstall()
        assert sim.event_hook is hook
        assert seen  # the previously registered observer kept firing
        sim.remove_event_observer(hook)
        assert sim.event_hook is None

    def test_checker_rejects_double_install(self, sim):
        from repro.core import build_controller
        from repro.verify import InvariantChecker

        from tests.conftest import small_config

        controller = build_controller("rolo-p", sim, small_config())
        checker = InvariantChecker()
        checker.install(sim, controller)
        with pytest.raises(RuntimeError):
            checker.install(sim, controller)
        checker.uninstall()

    def test_detects_planted_power_illegality(self, sim):
        from repro.core import build_controller
        from repro.disk.power import PowerState
        from repro.verify import InvariantChecker

        from tests.conftest import small_config

        controller = build_controller("raid10", sim, small_config())
        checker = InvariantChecker()
        checker.install(sim, controller)
        # Force a disk into STANDBY while faking an op in service.
        victim = controller.primaries[0]
        victim.power.transition(sim.now, PowerState.STANDBY)
        victim._in_service = object()
        checker.uninstall()  # final sweep observes the illegal state
        assert any(
            v["check"] == "power-legality" for v in checker.violations
        )
