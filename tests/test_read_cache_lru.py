"""ReadCache byte-capacity LRU: trim order, recency refresh, counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.align.read_cache import ReadCache
from repro.core import DibellaPipeline, PipelineConfig
from repro.core.stages import reset_persistent_read_caches, reset_resident_indexes
from repro.mpisim.backend import shutdown_rank_pools
from repro.mpisim.topology import Topology
from repro.seq.encoding import encode_sequence
from repro.seq.kmer import KmerSpec


def _cache_with(n: int, bases: int = 10) -> ReadCache:
    cache = ReadCache()
    for rid in range(n):
        cache.put(rid, "ACGT"[rid % 4] * bases)
    return cache


def test_trim_evicts_least_recently_used_first():
    cache = _cache_with(5)  # 50 bases cached, insertion order 0..4
    evicted = cache.trim(capacity_bytes=30)
    assert evicted == 2
    assert 0 not in cache and 1 not in cache
    assert all(rid in cache for rid in (2, 3, 4))
    assert cache.evictions == 2
    assert cache.evicted_bytes == 20


def test_access_refreshes_recency():
    cache = _cache_with(5)
    cache.encoded(0)          # rid 0 becomes most-recently-used
    cache.encoded_rc(1)       # then rid 1
    cache.trim(capacity_bytes=30)
    # The untouched middle (2, 3) goes first; the refreshed head survives.
    assert 2 not in cache and 3 not in cache
    assert all(rid in cache for rid in (0, 1, 4))


def test_put_packed_on_existing_rid_touches():
    cache = _cache_with(3)
    packed = np.zeros(3, dtype=np.uint8)
    cache.put_packed(0, packed, 10)  # existing entry kept, but refreshed
    np.testing.assert_array_equal(cache.encoded(0), encode_sequence("A" * 10))
    cache.trim(capacity_bytes=20)
    assert 0 in cache and 1 not in cache


def test_zero_capacity_means_unbounded():
    cache = _cache_with(4)
    assert cache.capacity_bytes == 0
    assert cache.trim() == 0           # own capacity: unbounded
    assert cache.trim(capacity_bytes=0) == 0
    assert len(cache) == 4
    assert cache.evictions == 0


def test_trim_defaults_to_own_capacity():
    cache = _cache_with(4)
    cache.capacity_bytes = 25
    assert cache.trim() == 2
    assert cache.total_bases() <= 25


def test_evict_rids_at_or_above_is_not_a_capacity_eviction():
    cache = _cache_with(6)
    dropped = cache.evict_rids_at_or_above(4)
    assert dropped == 2
    assert 3 in cache and 4 not in cache and 5 not in cache
    # Correctness eviction: invisible to the capacity counters.
    assert cache.evictions == 0
    assert cache.evicted_bytes == 0
    assert cache.counters()["read_cache_evictions"] == 0


def test_counters_include_eviction_fields():
    cache = _cache_with(3)
    cache.trim(capacity_bytes=10)
    counters = cache.counters()
    assert counters["read_cache_evictions"] == 2
    assert counters["read_cache_evicted_bytes"] == 20


@pytest.mark.slow
def test_pipeline_surfaces_read_cache_evictions(micro_dataset):
    """A tiny --read-cache-mb bound makes the alignment stage trim and report."""
    config = PipelineConfig(kmer=KmerSpec(k=15), coverage_hint=12.0,
                            error_rate_hint=0.08,
                            read_cache_mb=0.001)  # ~1 KiB: far below one read
    try:
        result = DibellaPipeline(config=config,
                                 topology=Topology.single_node(2)
                                 ).run(micro_dataset.reads)
        assert result.counters["read_cache_evictions"] > 0
        assert result.counters["read_cache_evicted_bytes"] > 0
        # Unbounded run over the same workload: no evictions.
        unbounded = DibellaPipeline(config=config.with_read_cache_mb(0.0),
                                    topology=Topology.single_node(2)
                                    ).run(micro_dataset.reads)
        assert unbounded.counters["read_cache_evictions"] == 0
        # The bound does not change the science, only the cache footprint.
        assert (result.counters["accepted_alignments"]
                == unbounded.counters["accepted_alignments"])
    finally:
        shutdown_rank_pools()
        reset_persistent_read_caches()
        reset_resident_indexes()
