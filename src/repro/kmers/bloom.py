"""Bloom filter for singleton k-mer detection.

Stage 1 of diBELLA builds a *distributed* Bloom filter: every rank owns a
partition and k-mers are routed to their owner rank before insertion (§6).
This class implements one partition (a plain Bloom filter over ``uint64``
k-mer codes); the distribution is the pipeline's job.

The structure supports the exact usage pattern of the pipeline: bulk
insertion that reports, per k-mer, whether it had (probably) been seen
before — the signal used to promote a k-mer from "possible singleton" to
"hash-table candidate".  It may return false positives (a k-mer reported as
seen that never was), never false negatives, which is why stage 2 re-checks
counts and "remove[s] singleton k-mers that were missed by the Bloom filter"
(§4).
"""

from __future__ import annotations

import math

import numpy as np

from repro import native
from repro.kmers.hashing import hash_with_seed

#: Codes probed per pass.  A probe matrix holds ``n_hashes`` int64 positions
#: per code and its bit masks and byte indices as much again, so probing a
#: whole exchange step at once made stage 1 a one-shot run's memory peak.
_PROBE_CHUNK = 1 << 14


class BloomFilter:
    """A bit-array Bloom filter over 64-bit k-mer codes.

    Parameters
    ----------
    n_bits:
        Size of the bit array.  Use :meth:`for_expected_items` to size the
        filter from a cardinality estimate and a false-positive target.
    n_hashes:
        Number of probe positions per element.
    """

    def __init__(self, n_bits: int, n_hashes: int = 4):
        if n_bits <= 0:
            raise ValueError("n_bits must be positive")
        if n_hashes <= 0:
            raise ValueError("n_hashes must be positive")
        self.n_bits = int(n_bits)
        self.n_hashes = int(n_hashes)
        self._bits = np.zeros((self.n_bits + 7) // 8, dtype=np.uint8)

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def for_expected_items(cls, expected_items: int, fp_rate: float = 0.05) -> "BloomFilter":
        """Size a filter for *expected_items* insertions at the target FP rate.

        Uses the standard optima ``m = -n ln p / (ln 2)^2`` and
        ``k = (m / n) ln 2``.  diBELLA sizes its filter from the k-mer
        cardinality estimate of equation (2) (§6).
        """
        if expected_items <= 0:
            raise ValueError("expected_items must be positive")
        if not (0.0 < fp_rate < 1.0):
            raise ValueError("fp_rate must be in (0, 1)")
        n_bits = int(math.ceil(-expected_items * math.log(fp_rate) / (math.log(2) ** 2)))
        n_hashes = max(1, int(round((n_bits / expected_items) * math.log(2))))
        return cls(n_bits=max(64, n_bits), n_hashes=n_hashes)

    # -- internal ------------------------------------------------------------------

    def _positions(self, codes: np.ndarray) -> np.ndarray:
        """(n_hashes, n) matrix of probe positions for each code."""
        codes = np.asarray(codes, dtype=np.uint64)
        pos = np.empty((self.n_hashes, codes.size), dtype=np.int64)
        for h in range(self.n_hashes):
            pos[h] = (hash_with_seed(codes, seed=h + 1) % np.uint64(self.n_bits)).astype(np.int64)
        return pos

    def _test_positions(self, pos: np.ndarray) -> np.ndarray:
        """Boolean vector: all probe bits set for each column of *pos*."""
        byte_idx = pos >> 3
        bit_mask = np.left_shift(np.uint8(1), (pos & 7).astype(np.uint8))
        present = (self._bits[byte_idx] & bit_mask) != 0
        return present.all(axis=0)

    # -- public API ------------------------------------------------------------------

    def insert_many(self, codes: np.ndarray) -> np.ndarray:
        """Insert codes; return a boolean array "was (probably) present before".

        Duplicate codes *within the same batch* are handled the way the
        streaming pipeline expects: the second and later occurrences of a
        code in the batch report ``True`` even though the first occurrence
        had not yet set its bits when the batch arrived.

        Runs the compiled ``bloom_insert`` (:mod:`repro.native`) when it is
        available, :meth:`_insert_numpy` otherwise; both leave identical
        bits and return identical flags.
        """
        codes = np.ascontiguousarray(codes, dtype=np.uint64)
        compiled = native.library()
        if compiled is None:
            return self._insert_numpy(codes)
        present = np.empty(codes.size, dtype=bool)
        # The in-batch repeat set: at most half full, so probes stay short.
        table = np.zeros(2 * codes.size, dtype=np.uint64)
        compiled.bloom_insert(codes.ctypes.data, codes.size, self._bits.ctypes.data,
                              self.n_bits, self.n_hashes, table.ctypes.data, table.size,
                              present.ctypes.data)
        return present

    def contains_many(self, codes: np.ndarray) -> np.ndarray:
        """Boolean membership test (may contain false positives)."""
        codes = np.ascontiguousarray(codes, dtype=np.uint64)
        compiled = native.library()
        if compiled is None:
            return self._contains_numpy(codes)
        present = np.empty(codes.size, dtype=bool)
        compiled.bloom_test(codes.ctypes.data, codes.size, self._bits.ctypes.data,
                            self.n_bits, self.n_hashes, present.ctypes.data)
        return present

    # -- NumPy reference -----------------------------------------------------------

    def _insert_numpy(self, codes: np.ndarray) -> np.ndarray:
        """The NumPy body of :meth:`insert_many` (reference and fallback)."""
        if codes.size == 0:
            return np.zeros(0, dtype=bool)
        # Every code is tested against the filter as it was before the batch:
        # no bit is set until all are tested, so a code's bits set by another
        # code of the same batch never make a false positive.
        present_before = self._contains_numpy(codes)

        # Within-batch duplicates: any code equal to an earlier code in the
        # batch counts as present.
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        dup_sorted = np.zeros(codes.size, dtype=bool)
        dup_sorted[1:] = sorted_codes[1:] == sorted_codes[:-1]
        duplicate_in_batch = np.zeros(codes.size, dtype=bool)
        duplicate_in_batch[order] = dup_sorted
        present_before |= duplicate_in_batch

        # Set all probe bits.
        for start in range(0, codes.size, _PROBE_CHUNK):
            pos = self._positions(codes[start:start + _PROBE_CHUNK])
            byte_idx = (pos >> 3).ravel()
            bit_mask = np.left_shift(np.uint8(1), (pos & 7).astype(np.uint8)).ravel()
            np.bitwise_or.at(self._bits, byte_idx, bit_mask)
        return present_before

    def _contains_numpy(self, codes: np.ndarray) -> np.ndarray:
        """The NumPy body of :meth:`contains_many` (reference and fallback)."""
        return np.concatenate(
            [np.zeros(0, dtype=bool)]
            + [self._test_positions(self._positions(codes[start:start + _PROBE_CHUNK]))
               for start in range(0, codes.size, _PROBE_CHUNK)])

    # -- introspection -----------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Memory footprint of the bit array in bytes."""
        return int(self._bits.nbytes)
