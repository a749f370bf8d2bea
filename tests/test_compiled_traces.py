"""Tests for the columnar compiled-trace representation.

The load-bearing property is that the generator's output is pinned: the
content hashes below fix its RNG stream, column lowering and footprint
byte for byte, for generator configs covering every feature and for the
seven paper workload replicas.  Everything else — the row surface,
hashing, cache keys — builds on that.
"""

import pytest

from repro.raid.request import RequestKind
from repro.traces import (
    TRACE_COMPILER_VERSION,
    Burstiness,
    SyntheticTraceConfig,
    TraceRecord,
    compiled_from_events,
    generate_compiled,
)
from repro.traces.workloads import PAPER_WORKLOADS, build_workload_trace

KB = 1024
MB = 1024 * KB


def _configs():
    """A spread of configs exercising every generator feature."""
    return [
        SyntheticTraceConfig(
            duration_s=20.0, iops=50, seed=7, name="plain", footprint_bytes=64 * MB
        ),
        SyntheticTraceConfig(
            duration_s=20.0,
            iops=80,
            write_ratio=0.6,
            size_sigma=0.5,
            burstiness=Burstiness.HIGH,
            burst_cycle_s=5.0,
            seed=11,
            name="bursty",
            footprint_bytes=64 * MB,
        ),
        SyntheticTraceConfig(
            duration_s=20.0,
            iops=60,
            write_ratio=0.5,
            read_locality=0.8,
            read_session_fraction=0.5,
            read_session_cycle_s=4.0,
            hotspot_fraction=0.7,
            hotspot_span=0.05,
            seed=13,
            name="sessions",
            footprint_bytes=64 * MB,
        ),
    ]


#: config name -> ``content_hash()`` of ``generate_compiled(config)`` for
#: each of :func:`_configs`.
CONFIG_HASHES = {
    "plain": (
        "9cf967feafd9270a7799e9875b697989"
        "eec90194abd02639e5c622ce67df8cd1"
    ),
    "bursty": (
        "fc7416ade90e6c3191d57bed6889aa48"
        "78ea2c01902897465a01c6cbb0e7b5bb"
    ),
    "sessions": (
        "da27b3fd8111f1f17953fcca19dfd7e3"
        "c6dfb07fcf5cfa9521f5e1b34281197e"
    ),
}

#: Scale and seed of the pinned paper-workload replicas.
PRESET_SCALE = 0.004
PRESET_SEED = 42

#: workload -> ``content_hash()`` of its replica at PRESET_SCALE and
#: PRESET_SEED.
PRESET_HASHES = {
    "src2_2": (
        "0e8821eaa90c02b470a3483ef54329ef"
        "ead8c051de9605541a1e0eef9252fee6"
    ),
    "proj_0": (
        "f155f08a2568acfa9421db519994e3e9"
        "62ef8f6a2eaf88eb91863021e44ed897"
    ),
    "mds_0": (
        "cd35c5c9e1dd3feba1c89a751d84b99c"
        "dd540654b606bd91b9f7e72cd941d113"
    ),
    "wdev_0": (
        "06d5db46b44c1549731622c90f591d7f"
        "8ab5fee6b0c4346da54c9cf3ae7559e5"
    ),
    "web_1": (
        "0e056607286f23cd807bef0a486bfada"
        "72a7cc2a5d4dfc1e8027181becac6f43"
    ),
    "rsrch_2": (
        "dc0e85a85d1bfafadeb6bd2776aab87b"
        "32e37bfcef40c5b31a776616d6ac41ee"
    ),
    "hm_1": (
        "bbf95ec86d78070b28eae892b4a2b970"
        "3224a0ef68f7faa0cf8aa52010031096"
    ),
}


@pytest.mark.parametrize("config", _configs(), ids=lambda c: c.name)
def test_generator_output_is_pinned(config):
    """The generator's RNG stream, lowering and footprint, byte for byte."""
    assert generate_compiled(config).content_hash() == CONFIG_HASHES[config.name]


def test_every_paper_workload_is_pinned():
    assert set(PRESET_HASHES) == set(PAPER_WORKLOADS)


@pytest.mark.parametrize("name", sorted(PRESET_HASHES))
def test_paper_workload_replica_is_pinned(name):
    trace = build_workload_trace(name, scale=PRESET_SCALE, seed=PRESET_SEED)
    assert trace.content_hash() == PRESET_HASHES[name]


def test_drop_in_trace_surface():
    """Length, iteration and indexing yield row views of the columns."""
    trace = generate_compiled(_configs()[2])
    rows = list(trace)
    assert len(rows) == len(trace) > 0
    assert all(isinstance(row, TraceRecord) for row in rows)
    assert [row.timestamp for row in rows] == list(trace.arrivals)
    assert [row.offset for row in rows] == list(trace.offsets)
    assert [row.nbytes for row in rows] == list(trace.sizes)
    assert [int(row.is_write) for row in rows] == list(trace.kinds)
    assert {row.kind for row in rows} == set(RequestKind)
    assert trace[0] == rows[0]
    assert trace[len(trace) - 1] == rows[-1]
    assert trace.duration == rows[-1].timestamp
    assert trace.footprint_bytes == 64 * MB


def test_content_hash_stability_and_sensitivity():
    config = _configs()[0]
    a = generate_compiled(config)
    b = generate_compiled(config)
    assert a.content_hash() == b.content_hash()

    import dataclasses

    other = generate_compiled(dataclasses.replace(config, seed=config.seed + 1))
    assert other.content_hash() != a.content_hash()

    # Mutating a single cell changes the hash (hash is over content,
    # recomputed lazily only once — so mutate before first hash call).
    c = generate_compiled(config)
    c.sizes[0] += 4096
    assert c.content_hash() != a.content_hash()


def test_cache_key_embeds_compiler_version():
    compiled = generate_compiled(_configs()[0])
    key = compiled.cache_key()
    assert key.startswith(f"ct{TRACE_COMPILER_VERSION}:")
    assert compiled.content_hash() in key


def test_compiled_from_events():
    events = [(0.0, True, 0, 4096), (1.0, False, 8192, 4096)]
    compiled = compiled_from_events(events, name="tiny", footprint_bytes=1 * MB)
    assert len(compiled) == 2
    assert compiled[0].kind is RequestKind.WRITE
    assert compiled[1].kind is RequestKind.READ
    assert compiled.duration == 1.0
    assert compiled.footprint_bytes == 1 * MB
    assert compiled.nbytes() > 0
