"""Microbenchmarks of the simulator's hot paths.

Each kernel below drives one hot path (event heap, timer re-arm, disk
service, uncontended copy chain, RAID layout mapping, log-space churn,
and the observation path: a metered cell, a span-recorded cell and its
latency attribution) and returns a count the
pytest-benchmark wrapper under it asserts, so a kernel that stops doing
its work fails instead of getting faster.  ``make bench-micro`` runs
them.  End-to-end and per-layer speed are measured by ``perfbench/``.
"""

import random

from repro.sim import Simulator

KB = 1024
MB = 1024 * KB


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def engine_event_kernel(n_events: int = 10_000) -> int:
    """Schedule + dispatch cost of the event heap."""
    sim = Simulator()
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count < n_events:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return count


def timer_rearm_kernel(n_events: int = 100_000):
    """Timer re-arm storm: each event cancels and re-schedules an expiry.

    Exercises lazy deletion, the cancelled census and automatic heap
    compaction.  Returns ``(ticks + expirations, peak_heap)``; only the
    final armed timer ever fires, and compaction keeps ``peak_heap``
    bounded regardless of ``n_events``.
    """
    from repro.sim.engine import Timer

    sim = Simulator()
    count = 0
    fired = 0
    peak_heap = 0

    def on_expire() -> None:
        nonlocal fired
        fired += 1

    timer = Timer(sim, 1.0, on_expire)

    def tick() -> None:
        nonlocal count, peak_heap
        count += 1
        timer.arm()
        if sim.heap_size > peak_heap:
            peak_heap = sim.heap_size
        if count < n_events:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return count + fired, peak_heap


def disk_random_io_kernel(n_ops: int = 2_000, seed: int = 1) -> int:
    """Full service path of random 64K writes on one disk."""
    from repro.disk.disk import Disk, DiskOp, OpKind
    from repro.disk.models import ULTRASTAR_36Z15

    rng = random.Random(seed)
    sectors = ULTRASTAR_36Z15.capacity_sectors
    offsets = [rng.randrange(sectors - 200) for _ in range(n_ops)]
    sim = Simulator()
    disk = Disk(sim, ULTRASTAR_36Z15, "D")
    for sector in offsets:
        disk.submit(DiskOp(OpKind.WRITE, sector, 64 * KB))
    sim.run()
    return disk.ops_completed


def copy_chain_kernel(
    n_batches: int = 500, stride: int = 0, standby_s: float = 0.0
) -> int:
    """An uncontended two-disk copy chain of 4 MiB batches, as a rebuild.

    Nothing else is scheduled, so the chain runs fast-forwarded: its
    first read's completion event goes to ``DestageProcess._solo``,
    whose loop copies batches until the last one: this is the per-batch
    cost of a rebuild on an unloaded array.  A ``stride`` installs a
    no-op ``Simulator.add_stride`` callback, the shape of a verified run
    (the invariant checker sweeps every 64 events), which ends an inline
    stretch at every stride point.  A
    ``standby_s`` gives the source a standby timer of that interval, re-
    armed each time it goes idle: the shape of a RoLo-E rebuild, whose
    source is a non-duty disk.  Returns the batches that ran inline.
    """
    from repro.core.destage import DestageProcess, split_runs
    from repro.disk.disk import Disk
    from repro.disk.models import ULTRASTAR_36Z15
    from repro.sim.engine import Timer

    sim = Simulator()
    source = Disk(sim, ULTRASTAR_36Z15, "S")
    target = Disk(sim, ULTRASTAR_36Z15, "T")
    process = DestageProcess(
        sim, "copy", source, [target],
        split_runs([(0, n_batches * 4 * MB)], 64 * KB, 4 * MB), 64 * KB,
        idle_gated=False, idle_grace_s=0.0,
    )
    if stride:
        sim.add_stride(stride, _noop)
    if standby_s:
        source.standby_timer = Timer(sim, standby_s, _noop)
    process.start()
    sim.run()
    assert process.bytes_moved == n_batches * 4 * MB
    return process.inline_batches


def _noop() -> None:
    pass


def layout_mapping_kernel(n_extents: int = 5_000, seed: int = 2) -> int:
    """Extent-to-segment mapping throughput on a spread layout."""
    from repro.raid.layout import Raid10Layout

    layout = Raid10Layout(20, 64 * KB, 512 * MB, spread=True)
    rng = random.Random(seed)
    extents = [
        (rng.randrange(layout.logical_capacity - MB), rng.randrange(1, MB))
        for _ in range(n_extents)
    ]
    total = 0
    for offset, nbytes in extents:
        total += len(layout.map_extent(offset, nbytes))
    return total


def logspace_kernel(epochs: int = 8, writes_per_epoch: int = 400):
    """Log-region churn in the logging controllers' per-write order.

    Each write probes ``fits``, appends its stripe segments (one or two
    pairs' shares), then reads ``occupancy``; each epoch ends with every
    pair's reclaim of its earlier epochs, as a destage completion does.
    Returns the number of appends and the final used bytes.
    """
    from repro.core.logspace import LogRegion
    from repro.raid.layout import StripeSegment

    n_pairs = 4
    unit = 32 * KB
    rng = random.Random(11)
    writes = []
    for _ in range(writes_per_epoch):
        pair = rng.randrange(n_pairs)
        nbytes = rng.choice((4, 8, 16, 32)) * KB
        within = rng.randrange(0, unit, 4 * KB)
        head = min(nbytes, unit - within)
        segments = [StripeSegment(pair, within, head)]
        if head < nbytes:  # the write crosses into the next pair's unit
            segments.append(
                StripeSegment((pair + 1) % n_pairs, 0, nbytes - head)
            )
        writes.append((nbytes, segments))
    region = LogRegion("bench", 0, 64 * MB)
    appends = 0
    for epoch in range(epochs):
        for nbytes, segments in writes:
            if region.fits(nbytes):
                region.append(nbytes, segments, epoch)
                appends += region.occupancy < 1.0
        for pair in range(n_pairs):
            region.reclaim(pair, epoch)
    region.reclaim_all()
    return appends, region.used


def _observed_cell(scheme: str):
    """A small src2_2 cell (2,369 requests), ``rolo simulate``-style."""
    from repro.experiments.runner import workload_cell

    return workload_cell(scheme, "src2_2", scale=0.004, n_pairs=4)


def metered_cell_kernel(scheme: str = "rolo-r") -> int:
    """One metered replay (``execute_metered``): the meter's sample
    stride, op and response feeds, and harvest.  Returns the events the
    harvested label census counted."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    _observed_cell(scheme).execute_metered(registry=registry)
    family = registry.to_dict()["families"]["sim_events_by_label_total"]
    return int(sum(child["value"] for child in family["children"]))


def spanned_attribution_kernel(scheme: str = "rolo-e") -> int:
    """One span-recorded replay plus ``attribute_events`` over its
    records: span recording, rid linkage, power hooks and attribution.
    Returns the requests attributed."""
    from repro.experiments.runner import run_cell_observed
    from repro.obs import attribute_events

    run = run_cell_observed(_observed_cell(scheme), spans=True)
    return len(attribute_events(run.tracer.sorted_events()))


# ----------------------------------------------------------------------
# pytest-benchmark wrappers
# ----------------------------------------------------------------------
def test_engine_event_throughput(benchmark):
    assert benchmark(engine_event_kernel, 10_000) == 10_000


def test_engine_timer_event_throughput(benchmark):
    """Events/sec through ``Simulator.run`` with ~1e5 timer-style events.

    Mirrors the idle-detection pattern the controllers lean on: every
    event re-arms a :class:`~repro.sim.engine.Timer`, so cancelled heap
    entries accumulate and the lazy-deletion skip path plus automatic
    compaction are exercised alongside plain dispatch.
    """
    N = 100_000
    total, peak_heap = benchmark(timer_rearm_kernel, N)
    assert total == N + 1  # only the last armed timer fires
    # Compaction must keep the heap bounded despite N cancelled entries.
    assert peak_heap < 5_000


def test_disk_random_io_throughput(benchmark):
    assert benchmark(disk_random_io_kernel, 2_000) == 2_000


def test_copy_chain_throughput(benchmark):
    # Every batch but the first, whose read starts the chain, is issued
    # inline.
    assert benchmark(copy_chain_kernel, 500) == 499


def test_strided_copy_chain_throughput(benchmark):
    # The chain's 1,000 completions alternate read, write, so each of the
    # 15 stride points (every 64th event) is a write's completion, which
    # the run loop dispatches: those 15 batches complete on the event path.
    assert benchmark(copy_chain_kernel, 500, 64) == 499 - 15


def test_standby_copy_chain_throughput(benchmark):
    # RoLo-E's default standby_return_s.
    assert benchmark(copy_chain_kernel, 500, 0, 30.0) == 499


def test_layout_mapping_throughput(benchmark):
    assert benchmark(layout_mapping_kernel, 5_000) > 0


def test_logspace_append_reclaim_throughput(benchmark):
    # Every write fits: two epochs' writes are ~1/8 of the region.
    assert benchmark(logspace_kernel) == (8 * 400, 0)


def test_metered_cell_throughput(benchmark):
    events = benchmark.pedantic(metered_cell_kernel, rounds=3, iterations=1)
    assert events > 10_000


def test_spanned_attribution_throughput(benchmark):
    attributed = benchmark.pedantic(
        spanned_attribution_kernel, rounds=3, iterations=1
    )
    assert attributed == 2_369
