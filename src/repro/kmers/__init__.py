"""k-mer analysis machinery: hashing, Bloom filter, hash table, reliable-k-mer model.

This subpackage holds the distributed data structures and statistical models
of diBELLA's first two pipeline stages:

* :mod:`repro.kmers.hashing` — the 64-bit mixing functions used both for
  Bloom-filter/hash-table probing and for assigning each k-mer to its owner
  rank ("the k-mers are mapped to processors uniformly at random via
  hashing", §4).
* :mod:`repro.kmers.bloom` — the partitioned Bloom filter of stage 1 (§6).
* :mod:`repro.kmers.hyperloglog` — HyperLogLog cardinality estimation, the
  HipMer fallback for sizing the Bloom filter on extremely large inputs (§6).
* :mod:`repro.kmers.counter` — plain exact k-mer counting (the spectra of
  :mod:`repro.stats`).
* :mod:`repro.kmers.hashtable` — the per-rank partition of the distributed
  k-mer → [(read id, position)] hash table of stage 2 (§7), one sorted-once
  ``KmerIndex`` for every launch.
* :mod:`repro.kmers.reliable` — the BELLA reliable-k-mer statistical model:
  optimal k, the high-frequency cutoff m, and the expected singleton
  fraction (§2, §3).
* :mod:`repro.kmers.minimizer` — the windowed-minimizer sketch front-end
  (``seed_mode="minimizer"``): keeps only the minimum-hash k-mer per window
  of w, cutting stage 1-3 exchange volume and table size to ~2/(w+1).
"""

from repro.kmers.hashing import mix64, owner_of, hash_with_seed
from repro.kmers.bloom import BloomFilter
from repro.kmers.hyperloglog import HyperLogLog
from repro.kmers.counter import count_kmers, KmerCounter
from repro.kmers.hashtable import RetainedKmers
from repro.kmers.minimizer import (
    DEFAULT_MINIMIZER_WINDOW,
    SKETCH_HASH_SEED,
    minimizer_mask,
    sketch_hash,
)
from repro.kmers.reliable import (
    probability_correct_kmer,
    probability_shared_kmer,
    optimal_k,
    high_frequency_threshold,
    expected_singleton_fraction,
)

__all__ = [
    "mix64",
    "owner_of",
    "hash_with_seed",
    "BloomFilter",
    "HyperLogLog",
    "count_kmers",
    "KmerCounter",
    "RetainedKmers",
    "DEFAULT_MINIMIZER_WINDOW",
    "SKETCH_HASH_SEED",
    "minimizer_mask",
    "sketch_hash",
    "probability_correct_kmer",
    "probability_shared_kmer",
    "optimal_k",
    "high_frequency_threshold",
    "expected_singleton_fraction",
]
