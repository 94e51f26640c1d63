"""HyperLogLog cardinality estimation.

HipMer (and diBELLA for "extremely large and repetitive genomes", §6) uses
HyperLogLog to estimate the number of distinct k-mers before sizing the Bloom
filter.  The paper's experiments got away with the closed-form estimate of
equation (2); we implement the estimator anyway because it is part of the
described system and the bench suite uses it to validate the closed-form
estimate against the synthetic data sets.

The implementation is the standard Flajolet et al. estimator with the usual
small-range (linear counting) correction, vectorised over numpy arrays, and
supports merging partitions — which is how a *distributed* cardinality
estimate is assembled from per-rank sketches with a single allreduce.
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.kmers.hashing import mix64


class HyperLogLog:
    """HyperLogLog sketch over 64-bit k-mer codes.

    Parameters
    ----------
    precision:
        Number of index bits p; the sketch uses ``2**p`` registers.  14 gives
        ~0.8% relative error at ~16 KiB per sketch.
    """

    def __init__(self, precision: int = 14):
        if not (4 <= precision <= 18):
            raise ValueError("precision must be in [4, 18]")
        self.precision = precision
        self.n_registers = 1 << precision
        self._registers = np.zeros(self.n_registers, dtype=np.uint8)

    # -- updates -------------------------------------------------------------

    def add_many(self, codes: np.ndarray) -> None:
        """Add a batch of codes to the sketch.

        Runs the compiled ``hll_add`` (:mod:`repro.native`) when it is
        available, :meth:`_add_numpy` otherwise; both leave identical
        registers.  The few codes whose NumPy rank the C side cannot be sure
        to reproduce (see ``hll_add``) come back deferred and go through
        :meth:`_add_numpy`.
        """
        codes = np.ascontiguousarray(codes, dtype=np.uint64)
        compiled = native.library()
        if compiled is None:
            self._add_numpy(codes)
            return
        deferred = np.empty(codes.size, dtype=np.uint64)
        n_deferred = compiled.hll_add(codes.ctypes.data, codes.size, self.precision,
                                      self._registers.ctypes.data, deferred.ctypes.data)
        self._add_numpy(deferred[:n_deferred])

    def _add_numpy(self, codes: np.ndarray) -> None:
        """The NumPy body of :meth:`add_many` (reference and fallback)."""
        if codes.size == 0:
            return
        hashed = mix64(codes)
        p = self.precision
        idx = (hashed >> np.uint64(64 - p)).astype(np.int64)
        remainder = hashed << np.uint64(p)  # low 64-p bits shifted up
        # rank = position of the leftmost 1-bit in the remainder, in [1, 64-p+1]
        # Computed as (64 - p) - floor(log2(remainder_bits)) via bit twiddling:
        # use the number of leading zeros of the remainder within 64-p bits.
        rank = np.empty(codes.size, dtype=np.uint8)
        zero_mask = remainder == 0
        rank[zero_mask] = 64 - p + 1
        nz = ~zero_mask
        if np.any(nz):
            # log2 of a uint64 via float conversion is exact for the leading
            # bit position (values < 2^64, and we only need the bit index).
            bit_index = np.floor(np.log2(remainder[nz].astype(np.float64))).astype(np.int64)
            bit_index = np.minimum(bit_index, 63)
            rank[nz] = (64 - bit_index).astype(np.uint8)
        np.maximum.at(self._registers, idx, rank)

    def add(self, code: int) -> None:
        """Add a single code."""
        self.add_many(np.array([code], dtype=np.uint64))

    # -- estimation -----------------------------------------------------------

    @staticmethod
    def _alpha(m: int) -> float:
        if m == 16:
            return 0.673
        if m == 32:
            return 0.697
        if m == 64:
            return 0.709
        return 0.7213 / (1.0 + 1.079 / m)

    def estimate(self) -> float:
        """Estimated number of distinct codes added."""
        m = self.n_registers
        registers = self._registers.astype(np.float64)
        raw = self._alpha(m) * m * m / np.sum(np.power(2.0, -registers))
        zeros = int(np.count_nonzero(self._registers == 0))
        if raw <= 2.5 * m and zeros > 0:
            # linear-counting correction for small cardinalities
            return m * np.log(m / zeros)
        return float(raw)

    # -- distributed use --------------------------------------------------------

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Merge another sketch into this one (register-wise max); returns self."""
        if other.precision != self.precision:
            raise ValueError("cannot merge sketches with different precision")
        np.maximum(self._registers, other._registers, out=self._registers)
        return self

    def registers(self) -> np.ndarray:
        """Copy of the register array (for allreduce-style merging)."""
        return self._registers.copy()

    @classmethod
    def from_registers(cls, registers: np.ndarray) -> "HyperLogLog":
        """Rebuild a sketch from a register array."""
        registers = np.asarray(registers, dtype=np.uint8)
        m = registers.size
        precision = int(np.log2(m))
        if (1 << precision) != m:
            raise ValueError("register count must be a power of two")
        sketch = cls(precision=precision)
        sketch._registers = registers.copy()
        return sketch

    def __or__(self, other: "HyperLogLog") -> "HyperLogLog":
        merged = HyperLogLog.from_registers(self._registers)
        return merged.merge(other)
