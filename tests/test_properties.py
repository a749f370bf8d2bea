"""Property-based tests (hypothesis) on the core data structures."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.cache import LRUCache
from repro.core import build_controller, plan_recovery
from repro.core.destage import coalesce_units, split_runs
from repro.core.logspace import LogRegion, LogSpaceError, RegionAllocator
from repro.core.recovery import RecoveryProcess
from repro.raid.layout import Raid10Layout, StripeSegment
from repro.reliability import AbsorbingCTMC
from repro.sim import Simulator
from repro.sim.stats import StreamingStat
from repro.traces.synthetic import (
    ALIGNMENT,
    SyntheticTraceConfig,
    generate_compiled,
)
from tests.conftest import small_config

KB = 1024
MB = 1024 * KB


# ----------------------------------------------------------------------
# RegionAllocator: allocate/free sequences preserve accounting invariants.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(1, 64)), min_size=1, max_size=60
    )
)
def test_allocator_invariants_under_random_ops(ops):
    alloc = RegionAllocator(256 * KB)
    live = []  # (offset, size)
    for is_alloc, units in ops:
        size = units * KB
        if is_alloc or not live:
            try:
                offset = alloc.allocate(size)
            except LogSpaceError:
                continue
            for o, s in live:  # freshly allocated space must not overlap
                assert offset + size <= o or o + s <= offset
            live.append((offset, size))
        else:
            offset, size = live.pop(0)
            alloc.free(offset, size)
        alloc.check_invariants()
        assert alloc.allocated == sum(s for _, s in live)


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(1, 32), min_size=1, max_size=30))
def test_allocator_free_all_restores_full_coalesced_space(sizes):
    total = sum(sizes) * KB
    alloc = RegionAllocator(total)
    allocations = [(alloc.allocate(s * KB), s * KB) for s in sizes]
    for offset, size in reversed(allocations):
        alloc.free(offset, size)
    assert alloc.free_bytes == total
    assert alloc.fragments == 1
    assert alloc.largest_free_extent == total


# ----------------------------------------------------------------------
# Bulk frees: one merge leaves what per-interval frees in any order leave.
# ----------------------------------------------------------------------
def _assert_same_allocator(bulk, single):
    bulk.check_invariants()
    single.check_invariants()
    assert bulk.free_list() == single.free_list()
    assert bulk.allocated == single.allocated
    assert bulk.largest_free_extent == single.largest_free_extent


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 16), min_size=1, max_size=40),
    data=st.data(),
)
def test_bulk_free_matches_per_interval_frees(sizes, data):
    total = 512 * KB
    bulk = RegionAllocator(total)
    single = RegionAllocator(total)
    extents = []
    for units in sizes:
        offset = bulk.allocate(units * KB)
        assert single.allocate(units * KB) == offset
        extents.append((offset, units * KB))
    # Fragment both free lists alike, then free the rest in one merge on
    # one side and one interval at a time, in a drawn order, on the other.
    indexes = list(range(len(extents)))
    early = data.draw(st.lists(st.sampled_from(indexes), unique=True))
    for index in early:
        bulk.free(*extents[index])
        single.free(*extents[index])
    rest = [i for i in indexes if i not in early]
    batch = []
    if rest:
        batch = data.draw(st.lists(st.sampled_from(rest), unique=True))
    freed = bulk.free_runs(
        [extents[i][0] for i in batch],
        [extents[i][0] + extents[i][1] for i in batch],
    )
    assert freed == sum(extents[i][1] for i in batch)
    for index in data.draw(st.permutations(batch)):
        single.free(*extents[index])
    _assert_same_allocator(bulk, single)
    # Every later first-fit placement agrees too.
    for units in data.draw(st.lists(st.integers(1, 64), max_size=8)):
        placed = []
        for allocator in (bulk, single):
            try:
                placed.append(allocator.allocate(units * KB))
            except LogSpaceError:
                placed.append(None)
        assert placed[0] == placed[1]
    _assert_same_allocator(bulk, single)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("append"),
                st.lists(
                    st.tuples(st.integers(0, 3), st.integers(1, 8)),
                    min_size=1,
                    max_size=3,
                ),
            ),
            st.tuples(st.just("reclaim"), st.integers(0, 3)),
        ),
        max_size=80,
    ),
    data=st.data(),
)
def test_epoch_reclaim_matches_per_chunk_frees(ops, data):
    """A ledger reclaim equals freeing each append's share on its own."""
    region = LogRegion("M0", base_offset=0, capacity=128 * KB)
    reference = RegionAllocator(128 * KB)
    chunks = {}  # (pair, epoch) -> [(offset, share)], one per append
    epoch = 0
    for kind, arg in ops:
        if kind == "append":
            segments = [
                StripeSegment(pair, 0, units * KB) for pair, units in arg
            ]
            shares = {}  # grouped by pair in first-appearance order
            for seg in segments:
                shares[seg.pair] = shares.get(seg.pair, 0) + seg.nbytes
            nbytes = sum(shares.values())
            if not region.fits(nbytes):
                assert reference.largest_free_extent < nbytes
                continue
            cursor = region.append(nbytes, segments, epoch)
            assert cursor == reference.allocate(nbytes)
            for pair, share in shares.items():
                chunks.setdefault((pair, epoch), []).append((cursor, share))
                cursor += share
        else:
            epoch += 1
            stale = [
                chunk
                for key in [k for k in chunks if k[0] == arg and k[1] < epoch]
                for chunk in chunks.pop(key)
            ]
            for offset, share in data.draw(st.permutations(stale)):
                reference.free(offset, share)
            assert region.reclaim(arg, before_epoch=epoch) == sum(
                share for _, share in stale
            )
        region.check_invariants()
        _assert_same_allocator(region._allocator, reference)


def test_bulk_free_rejects_double_frees():
    allocator = RegionAllocator(64 * KB)
    first = allocator.allocate(4 * KB)
    second = allocator.allocate(4 * KB)
    allocator.allocate(4 * KB)
    allocator.free(first, 4 * KB)
    with pytest.raises(LogSpaceError):  # overlaps a free interval
        allocator.free_runs([first, second], [first + 4 * KB, second + 4 * KB])
    allocator = RegionAllocator(64 * KB)
    first = allocator.allocate(4 * KB)
    allocator.allocate(4 * KB)
    with pytest.raises(LogSpaceError):  # the same run twice in one merge
        allocator.free_runs([first, first], [first + 4 * KB, first + 4 * KB])


def test_double_free_inside_an_epoch_reclaim_raises():
    region = LogRegion("M0", base_offset=0, capacity=64 * KB)
    region.append(8 * KB, {0: 4 * KB, 1: 4 * KB}, epoch=0)
    region.append(4 * KB, {0: 4 * KB}, epoch=0)
    # Pair 0's second run is freed behind the ledger's back.
    region._allocator.free(8 * KB, 4 * KB)
    with pytest.raises(LogSpaceError):
        region.reclaim(0, before_epoch=1)


# ----------------------------------------------------------------------
# RAID10 layout: mapping is a partition and (with spread) a bijection.
# ----------------------------------------------------------------------
layout_params = st.tuples(
    st.integers(2, 8),          # pairs
    st.sampled_from([16, 32, 64]),  # stripe unit KB
    st.booleans(),              # spread
)


@settings(max_examples=60, deadline=None)
@given(
    params=layout_params,
    offset=st.integers(0, 4 * MB - 1),
    nbytes=st.integers(1, 512 * KB),
)
def test_layout_partitions_extent(params, offset, nbytes):
    pairs, unit_kb, spread = params
    layout = Raid10Layout(pairs, unit_kb * KB, 8 * MB, spread=spread)
    assume(offset + nbytes <= layout.logical_capacity)
    segments = layout.map_extent(offset, nbytes)
    assert sum(s.nbytes for s in segments) == nbytes
    for seg in segments:
        assert 0 <= seg.pair < pairs
        assert 0 <= seg.disk_offset < layout.data_capacity
        assert seg.end_offset <= layout.data_capacity
        # Segments never straddle a stripe unit.
        unit = unit_kb * KB
        assert seg.disk_offset // unit == (seg.end_offset - 1) // unit


@settings(max_examples=60, deadline=None)
@given(params=layout_params, logical=st.integers(0, 16 * MB - 1))
def test_layout_round_trip(params, logical):
    pairs, unit_kb, spread = params
    layout = Raid10Layout(pairs, unit_kb * KB, 8 * MB, spread=spread)
    assume(logical < layout.logical_capacity)
    seg = layout.map_extent(logical, 1)[0]
    assert layout.to_logical(seg.pair, seg.disk_offset) == logical


# ----------------------------------------------------------------------
# LRU cache: size bound and exact hit semantics vs a model.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    capacity=st.integers(1, 8),
    keys=st.lists(st.integers(0, 12), min_size=1, max_size=80),
)
def test_lru_matches_reference_model(capacity, keys):
    cache = LRUCache(capacity)
    model = []  # LRU->MRU order
    hits = 0
    for key in keys:
        if cache.get(key) is not None:
            assert key in model
            hits += 1
            model.remove(key)
            model.append(key)
        else:
            assert key not in model
            cache.put(key, key)
            if key in model:
                model.remove(key)
            model.append(key)
            if len(model) > capacity:
                model.pop(0)
        assert len(cache) == len(model)
        assert list(cache) == model
    assert cache.hits == hits


# ----------------------------------------------------------------------
# Destage coalescing: conservation, batch bounds, and the extent path
# against the original per-unit merge.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    units=st.sets(st.integers(0, 200), min_size=1, max_size=60),
    batch_units=st.integers(1, 16),
)
def test_coalesce_conserves_units(units, batch_units):
    unit = 64 * KB
    offsets = [u * unit for u in units]
    batches = coalesce_units(offsets, unit, batch_units * unit)
    assert sum(n for _, n in batches) == len(units) * unit
    covered = set()
    for offset, nbytes in batches:
        assert nbytes <= batch_units * unit
        assert offset % unit == 0 and nbytes % unit == 0
        for base in range(offset, offset + nbytes, unit):
            assert base // unit in units
            assert base not in covered
            covered.add(base)
    assert len(covered) == len(units)


def per_unit_coalesce(units, unit_size, max_batch):
    """The original per-unit greedy merge, kept as the extent path's oracle."""
    if unit_size <= 0 or max_batch < unit_size:
        raise ValueError("invalid unit/batch sizes")
    batches = []
    ordered = sorted(units)
    i = 0
    while i < len(ordered):
        start = ordered[i]
        length = unit_size
        i += 1
        while (
            i < len(ordered)
            and ordered[i] == start + length
            and length + unit_size <= max_batch
        ):
            length += unit_size
            i += 1
        batches.append((start, length))
    return batches


@settings(max_examples=150, deadline=None)
@given(
    units=st.lists(st.integers(0, 300), max_size=120),
    max_batch=st.integers(512, 20 * 512),
    unit_sectors=st.integers(1, 4),
)
def test_coalesce_matches_per_unit_oracle(units, max_batch, unit_sectors):
    """Same batches in the same order, duplicates and unaligned caps too."""
    unit = unit_sectors * 512
    assume(max_batch >= unit)
    offsets = [u * unit for u in units]
    assert coalesce_units(set(offsets), unit, max_batch) == (
        per_unit_coalesce(sorted(set(offsets)), unit, max_batch)
    )
    assert coalesce_units(offsets, unit, max_batch) == per_unit_coalesce(
        offsets, unit, max_batch
    )


@settings(max_examples=150, deadline=None)
@given(
    first=st.integers(0, 1000),
    n_units=st.integers(1, 400),
    max_batch=st.integers(64 * KB, 40 * 64 * KB),
)
def test_split_runs_matches_per_unit_oracle(first, n_units, max_batch):
    unit = 64 * KB
    run = [(first + i) * unit for i in range(n_units)]
    assert split_runs([(first * unit, n_units * unit)], unit, max_batch) == (
        per_unit_coalesce(run, unit, max_batch)
    )


@pytest.mark.parametrize(
    "n_units, max_batch",
    [
        (10, 3 * 64 * KB),
        (9, 3 * 64 * KB),
        (7, 64 * KB),
        (10, 3 * 64 * KB + 1000),
        (1, 4 * MB),
    ],
    ids=["remainder", "exact", "batch-is-unit", "unaligned-cap", "one-unit"],
)
def test_split_runs_edge_cases(n_units, max_batch):
    unit = 64 * KB
    run = [i * unit for i in range(n_units)]
    expected = per_unit_coalesce(run, unit, max_batch)
    assert split_runs([(0, n_units * unit)], unit, max_batch) == expected
    assert coalesce_units(run, unit, max_batch) == expected


def test_split_rules_reject_invalid_sizes():
    for unit, max_batch in ((0, 64 * KB), (64 * KB, 64 * KB - 1)):
        with pytest.raises(ValueError):
            split_runs([(0, 64 * KB)], unit, max_batch)
        with pytest.raises(ValueError):
            coalesce_units([0], unit, max_batch)


@settings(max_examples=40, deadline=None)
@given(rebuild_bytes=st.integers(0, 3 * MB), batch_units=st.integers(1, 20))
@example(rebuild_bytes=64 * KB - 1, batch_units=4)
def test_rebuild_batches_match_per_unit_oracle(rebuild_bytes, batch_units):
    """RecoveryProcess issues the batches the per-unit offset list gave.

    ``rebuild_bytes`` below one unit (0 included) still rebuilds one unit.
    """
    sim = Simulator()
    controller = build_controller("raid10", sim, small_config())
    plan = plan_recovery(controller, controller.primaries[0])
    plan.rebuild_bytes = rebuild_bytes
    unit = controller.config.stripe_unit
    batch_bytes = batch_units * unit
    rebuild = RecoveryProcess(sim, controller, plan, batch_bytes=batch_bytes)
    n_units = max(1, rebuild_bytes // unit)
    assert rebuild._process._batches == per_unit_coalesce(
        [i * unit for i in range(n_units)], unit, batch_bytes
    )


# ----------------------------------------------------------------------
# StreamingStat matches the naive computation.
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=100
    )
)
def test_streaming_stat_matches_naive(values):
    stat = StreamingStat()
    for v in values:
        stat.add(v)
    mean = sum(values) / len(values)
    assert stat.mean == pytest_approx(mean)
    assert stat.min == min(values)
    assert stat.max == max(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert abs(stat.variance - var) <= max(1e-6, abs(var) * 1e-6) + 1e-3


def pytest_approx(x):
    import pytest

    return pytest.approx(x, rel=1e-9, abs=1e-6)


# ----------------------------------------------------------------------
# CTMC: scaling laws of the mirrored-pair chain.
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(1e-7, 1e-3),
    mu=st.floats(1e-3, 1.0),
    factor=st.floats(1.5, 10.0),
)
def test_ctmc_time_rescaling(lam, mu, factor):
    """Scaling all rates by k divides the absorption time by k."""
    from repro.reliability.mttdl import mirrored_pair_chain

    base = mirrored_pair_chain(lam, mu).mean_time_to_absorption(0)
    scaled = mirrored_pair_chain(
        lam * factor, mu * factor
    ).mean_time_to_absorption(0)
    assert scaled * factor == pytest_approx_rel(base, 1e-6)


def pytest_approx_rel(x, rel):
    import pytest

    return pytest.approx(x, rel=rel)


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(1e-7, 1e-4), mu=st.floats(1e-3, 1.0))
def test_absorption_probabilities_sum_to_one(lam, mu):
    chain = AbsorbingCTMC()
    chain.add_state("a", absorbing=True)
    chain.add_state("b", absorbing=True)
    chain.add_transition(0, 1, 2 * lam)
    chain.add_transition(1, 0, mu)
    chain.add_transition(1, "a", lam)
    chain.add_transition(1, "b", lam)
    probs = chain.absorption_probabilities(0)
    # Tolerance accommodates the conditioning of extreme mu/lambda ratios.
    assert abs(sum(probs.values()) - 1.0) < 1e-6


# ----------------------------------------------------------------------
# Trace generator: structural guarantees for arbitrary configurations.
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    iops=st.floats(1.0, 60.0),
    write_ratio=st.floats(0.3, 1.0),
    seq=st.floats(0.0, 1.0),
    locality=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_generated_traces_always_wellformed(
    iops, write_ratio, seq, locality, seed
):
    config = SyntheticTraceConfig(
        duration_s=30.0,
        iops=iops,
        write_ratio=write_ratio,
        avg_request_bytes=16 * KB,
        size_sigma=0.5,
        footprint_bytes=8 * MB,
        write_sequential_fraction=seq,
        read_locality=locality,
        seed=seed,
    )
    trace = generate_compiled(config)
    prev = 0.0
    for record in trace:
        assert record.timestamp >= prev
        prev = record.timestamp
        assert record.timestamp < 30.0
        assert record.offset % ALIGNMENT == 0
        assert record.nbytes % ALIGNMENT == 0
        assert record.offset + record.nbytes <= config.footprint_bytes
