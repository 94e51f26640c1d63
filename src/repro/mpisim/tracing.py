"""Communication tracing: per-phase, per-rank byte and message accounting.

Every collective on the simulated communicator reports how many bytes each
rank contributed for each destination.  The trace aggregates those into
per-phase traffic matrices, which are the inputs the network cost model uses
to project exchange times onto the paper's platforms (the actual wall time of
a thread-backed exchange says nothing about a Cray Aries network).

Phases are free-form labels set by the pipeline (e.g. ``"bloom_exchange"``,
``"alignment_exchange"``); all accounting is thread-safe because each rank
only ever appends to its own per-rank record under a short lock.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np


@dataclass
class PhaseTraffic:
    """Aggregated traffic for one phase.

    Attributes
    ----------
    volume:
        (n_ranks, n_ranks) matrix of bytes sent, ``volume[src, dst]``.
    messages:
        (n_ranks, n_ranks) matrix of message counts (one per non-empty
        destination per collective call).
    collective_calls:
        Number of collective invocations attributed to this phase (counted
        once per call, not per rank).
    """

    n_ranks: int
    volume: np.ndarray = field(default=None)  # type: ignore[assignment]
    messages: np.ndarray = field(default=None)  # type: ignore[assignment]
    collective_calls: int = 0

    def __post_init__(self) -> None:
        if self.volume is None:
            self.volume = np.zeros((self.n_ranks, self.n_ranks), dtype=np.int64)
        if self.messages is None:
            self.messages = np.zeros((self.n_ranks, self.n_ranks), dtype=np.int64)

    @property
    def total_bytes(self) -> int:
        """Total bytes moved in this phase (including rank-to-self copies)."""
        return int(self.volume.sum())


class CommTrace:
    """Thread-safe accumulator of per-phase communication volumes."""

    def __init__(self, n_ranks: int):
        if n_ranks <= 0:
            raise ValueError("n_ranks must be positive")
        self.n_ranks = n_ranks
        self._lock = threading.Lock()
        self._phases: dict[str, PhaseTraffic] = {}
        self._current_phase: dict[int, str] = defaultdict(lambda: "default")
        self._alltoallv_calls: int = 0

    # -- phase management ------------------------------------------------------

    def set_phase(self, rank: int, phase: str) -> None:
        """Set the phase label subsequent traffic from *rank* is attributed to."""
        with self._lock:
            self._current_phase[rank] = phase
            if phase not in self._phases:
                self._phases[phase] = PhaseTraffic(self.n_ranks)

    def current_phase(self, rank: int) -> str:
        """Phase label currently active for *rank*."""
        with self._lock:
            return self._current_phase[rank]

    # -- recording -------------------------------------------------------------

    def record_send(self, rank: int, dest_bytes: np.ndarray | list[int]) -> None:
        """Record bytes sent from *rank* to every destination in one collective."""
        dest_bytes = np.asarray(dest_bytes, dtype=np.int64)
        if dest_bytes.shape != (self.n_ranks,):
            raise ValueError(
                f"dest_bytes must have shape ({self.n_ranks},), got {dest_bytes.shape}"
            )
        with self._lock:
            phase = self._current_phase[rank]
            traffic = self._phases.setdefault(phase, PhaseTraffic(self.n_ranks))
            traffic.volume[rank, :] += dest_bytes
            traffic.messages[rank, :] += (dest_bytes > 0).astype(np.int64)

    def record_collective_call(self, phase: str) -> None:
        """Count one collective invocation against *phase* (called by rank 0 only)."""
        with self._lock:
            traffic = self._phases.setdefault(phase, PhaseTraffic(self.n_ranks))
            traffic.collective_calls += 1

    def record_alltoallv_call(self) -> int:
        """Count a global Alltoallv invocation; returns its ordinal (1-based).

        The ordinal lets the cost model apply the paper's observed
        first-Alltoallv setup penalty (§10): "the first call to the MPI
        Alltoallv routine ... is almost twice as expensive the first time as
        the second".
        """
        with self._lock:
            self._alltoallv_calls += 1
            return self._alltoallv_calls

    # -- cross-process merging ---------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable copy of everything recorded so far.

        The multiprocess runtime backend gives each rank process its own
        local ``CommTrace``; at the end of the run each worker ships this
        snapshot back to the parent, which folds them together with
        :meth:`merge_snapshot`.  (The trace object itself holds a lock and is
        therefore not picklable.)
        """
        with self._lock:
            return {
                "phases": {
                    name: {
                        "volume": traffic.volume.copy(),
                        "messages": traffic.messages.copy(),
                        "collective_calls": traffic.collective_calls,
                    }
                    for name, traffic in self._phases.items()
                },
                "alltoallv_calls": self._alltoallv_calls,
            }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` from another process into this trace.

        Byte/message matrices and call counters add element-wise; each worker
        only records its own rank's rows (and only rank 0 counts collective
        calls), so merging per-rank snapshots reproduces exactly what a
        single shared trace would have recorded.
        """
        with self._lock:
            for name, data in snapshot["phases"].items():
                traffic = self._phases.setdefault(name, PhaseTraffic(self.n_ranks))
                traffic.volume += np.asarray(data["volume"], dtype=np.int64)
                traffic.messages += np.asarray(data["messages"], dtype=np.int64)
                traffic.collective_calls += int(data["collective_calls"])
            self._alltoallv_calls += int(snapshot["alltoallv_calls"])

    # -- reporting ---------------------------------------------------------------

    def phases(self) -> list[str]:
        """Phase labels seen so far, in insertion order."""
        with self._lock:
            return list(self._phases.keys())

    def phase_traffic(self, phase: str) -> PhaseTraffic:
        """Traffic recorded for *phase* (empty traffic if the phase never sent)."""
        with self._lock:
            return self._phases.get(phase, PhaseTraffic(self.n_ranks))

    def total_bytes(self) -> int:
        """Total bytes recorded across all phases."""
        with self._lock:
            return int(sum(p.volume.sum() for p in self._phases.values()))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-phase summary dict used by reports and tests."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            for name, traffic in self._phases.items():
                out[name] = {
                    "total_bytes": float(traffic.volume.sum()),
                    "total_messages": float(traffic.messages.sum()),
                    "collective_calls": float(traffic.collective_calls),
                    "max_rank_sent": float(traffic.volume.sum(axis=1).max(initial=0)),
                }
        return out


class CollectiveLog:
    """Fixed-depth ring of one rank's most recent collective operations.

    Kept by each communicator when the runtime sanitizer is on; when the
    hang watchdog fires, this log is formatted into the
    :class:`repro.mpisim.errors.CollectiveTimeoutError` message so the
    divergence point (which op the wedged rank reached, and in which order)
    is readable straight from the failure — the moral equivalent of a stack
    trace for a bulk-synchronous schedule.

    Entries are plain strings; this class only owns the ring and the
    formatting.  It is per-rank and accessed from that rank's thread only,
    so no locking is needed.
    """

    def __init__(self, depth: int = 16):
        if depth <= 0:
            raise ValueError("depth must be positive")
        self._entries: deque[str] = deque(maxlen=depth)
        self._total = 0

    def record(self, entry: str) -> None:
        """Append one collective-op description (oldest entries fall off)."""
        self._entries.append(entry)
        self._total += 1

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_recorded(self) -> int:
        """Collectives recorded over the rank's lifetime (not just retained)."""
        return self._total

    def dump(self) -> str:
        """The retained trace, oldest first, one op per line."""
        if not self._entries:
            return "  (no collectives recorded)"
        return "\n".join(f"  {entry}" for entry in self._entries)
