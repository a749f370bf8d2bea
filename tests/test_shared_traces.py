"""Shared-memory trace store: lifecycle, zero-copy attach, fan-out parity.

The invariants pinned here:

* publish/attach round-trips are value-identical and zero-copy
  (memoryview columns over the segment, no array duplication);
* the store's parent-owned lifecycle leaves nothing in ``/dev/shm`` after
  normal exit, after a worker exception, and after a parent interrupt;
* the parent-to-worker payload (cell + TraceRef pickle) is independent of
  trace length; and
* pool execution through the store is byte-identical to serial runs,
  for plain cells and fault campaigns alike.
"""

import pickle

import pytest

from repro.experiments import cache as result_cache
from repro.experiments import clear_cache
from repro.experiments.parallel import CellExecutionError, execute_cells
from repro.experiments.runner import reset_run_stats, workload_cell
from repro.traces import shm
from repro.traces.compiled import CompiledTrace
from repro.traces.shm import SharedTraceStore, TraceRef
from repro.traces.synthetic import SyntheticTraceConfig, generate_compiled

WORKLOAD = "rsrch_2"
SCALE = 0.004
N_PAIRS = 2
SCHEMES = ("raid10", "rolo-p")


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_cache()
    reset_run_stats()
    result_cache.configure(enabled=False)
    shm.detach_all()
    yield
    shm.detach_all()
    result_cache.configure(enabled=False)
    clear_cache()
    reset_run_stats()
    assert shm.leaked_segments() == []


def _trace(n_requests: int = 500, seed: int = 9) -> CompiledTrace:
    return generate_compiled(
        SyntheticTraceConfig(
            duration_s=n_requests / 50.0,
            iops=50.0,
            write_ratio=0.7,
            footprint_bytes=16 * 1024 * 1024,
            seed=seed,
            name=f"shm-test-{n_requests}",
        )
    )


def _cells(schemes=SCHEMES, **kwargs):
    params = dict(scale=SCALE, n_pairs=N_PAIRS)
    params.update(kwargs)
    return [workload_cell(s, WORKLOAD, **params) for s in schemes]


class TestPublishAttach:
    def test_roundtrip_is_value_identical(self):
        trace = _trace()
        with SharedTraceStore() as store:
            ref = store.publish(trace)
            attached = shm.attach(ref)
            try:
                assert isinstance(attached, CompiledTrace)
                assert len(attached) == len(trace)
                assert attached.name == trace.name
                assert attached.footprint_bytes == trace.footprint_bytes
                assert attached.content_hash() == trace.content_hash()
                assert list(attached.arrivals) == list(trace.arrivals)
                assert list(attached.offsets) == list(trace.offsets)
                assert list(attached.sizes) == list(trace.sizes)
                assert list(attached.kinds) == list(trace.kinds)
                # Record views materialize identically too.
                assert attached[0] == trace[0]
                assert attached[len(trace) - 1] == trace[len(trace) - 1]
            finally:
                attached.detach()

    def test_attach_is_zero_copy(self):
        trace = _trace()
        with SharedTraceStore() as store:
            ref = store.publish(trace)
            attached = shm.attach(ref)
            try:
                # Columns are memoryviews over the segment, not copies.
                assert isinstance(attached.arrivals, memoryview)
                assert isinstance(attached.kinds, memoryview)
                assert attached.nbytes() == trace.nbytes()
            finally:
                attached.detach()

    def test_publish_dedupes_by_content_hash(self):
        trace = _trace()
        with SharedTraceStore() as store:
            first = store.publish(trace)
            again = store.publish(_trace())  # same config -> same content
            other = store.publish(_trace(seed=10))
            assert first is again
            assert len(store) == 2
            assert other.segment != first.segment
            assert store.get(first.trace_hash) is first

    def test_attach_cached_memoizes_per_process(self):
        trace = _trace()
        with SharedTraceStore() as store:
            ref = store.publish(trace)
            a = shm.attach_cached(ref)
            b = shm.attach_cached(ref)
            assert a is b
            assert shm.attached_count() == 1
            shm.detach_all()
            assert shm.attached_count() == 0

    def test_empty_trace_publishes(self):
        from repro.traces.compiled import compiled_from_events

        empty = compiled_from_events([], name="empty")
        assert len(empty) == 0
        with SharedTraceStore() as store:
            ref = store.publish(empty)
            attached = shm.attach(ref)
            try:
                assert len(attached) == 0
                assert attached.duration == 0.0
            finally:
                attached.detach()


class TestLifecycle:
    def test_close_unlinks_all_segments(self):
        store = SharedTraceStore()
        ref = store.publish(_trace())
        assert shm.leaked_segments() == [ref.segment]
        store.close()
        assert shm.leaked_segments() == []
        with pytest.raises(FileNotFoundError):
            shm.attach(ref)

    def test_close_is_idempotent(self):
        store = SharedTraceStore()
        store.publish(_trace())
        store.close()
        store.close()
        assert shm.leaked_segments() == []

    def test_publish_after_close_raises(self):
        store = SharedTraceStore()
        store.close()
        with pytest.raises(RuntimeError):
            store.publish(_trace())

    def test_context_manager_unlinks_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with SharedTraceStore() as store:
                store.publish(_trace())
                raise RuntimeError("boom")
        assert shm.leaked_segments() == []


class TestTraceRefPayload:
    def test_payload_size_independent_of_trace_length(self):
        short = _trace(200)
        long = _trace(20_000)
        assert long.nbytes() > 50 * short.nbytes()
        with SharedTraceStore() as store:
            cell = _cells()[0]
            small = pickle.dumps((cell, store.publish(short)))
            large = pickle.dumps((cell, store.publish(long)))
        # TraceRef-only payloads: a 100x longer trace costs the same
        # handful of bytes on the wire.
        assert abs(len(large) - len(small)) < 64
        assert len(large) < 4096

    def test_ref_pickles_and_restores(self):
        with SharedTraceStore() as store:
            ref = store.publish(_trace())
            clone = pickle.loads(pickle.dumps(ref))
            assert clone == ref
            assert isinstance(clone, TraceRef)
            assert clone.n_records > 0


class TestPoolParity:
    def test_pool_results_byte_identical_to_serial(self):
        cells = _cells()
        serial = [c.execute().to_dict() for c in cells]
        clear_cache()
        stats = execute_cells(cells, jobs=2)
        from repro.experiments.runner import lookup_cached

        assert stats.computed == len(cells)
        assert [lookup_cached(c.key()).to_dict() for c in cells] == serial
        assert shm.leaked_segments() == []

    def test_campaign_pool_identical_to_serial(self):
        from repro.faults import build_campaign, run_campaign

        def grid():
            return build_campaign(
                schemes=("raid10", "rolo-p"),
                workloads=(WORKLOAD,),
                fault_times=(5.0,),
                disks=("M0",),
                scale=SCALE,
                n_pairs=N_PAIRS,
            )

        serial = [r.to_dict() for r in run_campaign(grid(), jobs=1)]
        clear_cache()
        parallel = [r.to_dict() for r in run_campaign(grid(), jobs=2)]
        clear_cache()
        assert parallel == serial
        assert shm.leaked_segments() == []


class TestPoolCleanup:
    def test_worker_exception_names_cell_and_cleans_up(self):
        # An unknown scheme passes trace building in the parent but makes
        # build_controller raise inside the worker.
        cells = _cells(schemes=("raid10", "no-such-scheme"))
        with pytest.raises(CellExecutionError, match="no-such-scheme"):
            execute_cells(cells, jobs=2)
        assert shm.leaked_segments() == []

    def test_parent_interrupt_cleans_up(self, monkeypatch):
        from repro.experiments import runner as runner_mod

        def _interrupt(key, metrics):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner_mod, "install_result", _interrupt)
        with pytest.raises(KeyboardInterrupt):
            execute_cells(_cells(), jobs=2)
        assert shm.leaked_segments() == []
