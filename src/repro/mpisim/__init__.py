"""Simulated MPI-style SPMD runtime.

The original diBELLA is an MPI program whose stages are bulk-synchronous
supersteps communicating with ``MPI_Alltoall``/``Alltoallv`` (§4).  This
environment has no MPI implementation, so this subpackage provides a drop-in
substrate with the same programming model:

* :func:`repro.mpisim.runtime.spmd_run` runs the same Python function on
  every rank ("single program, multiple data") on the backend its
  ``backend`` name selects: ``"thread"`` (payloads by reference, default)
  or ``"process"`` — one process per rank exchanging explicitly-typed
  buffers through POSIX shared memory (true multi-core compute; see
  :mod:`repro.mpisim.serialization` for the dtype+shape wire format and
  docs/runtime.md for the architecture).
* :class:`repro.mpisim.communicator.SimCommunicator` exposes the four
  collectives the pipeline uses — ``allreduce``, ``alltoallv`` and the
  split-phase ``alltoallv_start``/``alltoallv_finish`` — with the same
  semantics as their MPI counterparts, plus mismatch detection (ranks
  calling different collectives raise instead of deadlocking).
* :class:`repro.mpisim.tracing.CommTrace` records, per phase and per rank,
  the bytes and message counts moved by every collective; the performance
  model in :mod:`repro.netmodel` converts those volumes into projected
  exchange times on each of the paper's platforms.
* :class:`repro.mpisim.topology.Topology` maps ranks onto nodes so the cost
  model can distinguish intra-node from inter-node traffic.

The communication *pattern* and per-rank *volumes* of a pipeline run are
therefore identical to a real MPI execution; only the transport (shared
memory between threads instead of a network) differs.  See
docs/architecture.md, "How the simulator maps to the paper's MPI ranks".
"""

from repro.mpisim.topology import Topology
from repro.mpisim.tracing import CommTrace, PhaseTraffic
from repro.mpisim.communicator import SimCommunicator
from repro.mpisim.backend import (
    BACKEND_NAMES,
    ProcessBackend,
    ThreadBackend,
    active_rank_pools,
    rank_pool_stats,
    recovery_counters,
    reset_recovery_counters,
    resolve_backend,
    shutdown_rank_pools,
)
from repro.mpisim.runtime import spmd_run, SPMDError
from repro.mpisim.errors import (
    CollectiveMismatchError,
    CollectiveTimeoutError,
    InjectedFaultError,
    RankFailedError,
    SanitizerError,
    SegmentStateError,
)
from repro.mpisim.faults import FaultPlan, FaultSpec, RunFaults
from repro.mpisim.collectives import (
    bucket_by_destination,
    payload_nbytes,
    payload_signature,
)
from repro.mpisim.sanitize import sanitize_default, watchdog_timeout
from repro.mpisim.serialization import decode_payload, encode_payload

__all__ = [
    "Topology",
    "CommTrace",
    "PhaseTraffic",
    "SimCommunicator",
    "ThreadBackend",
    "ProcessBackend",
    "resolve_backend",
    "shutdown_rank_pools",
    "active_rank_pools",
    "rank_pool_stats",
    "BACKEND_NAMES",
    "recovery_counters",
    "reset_recovery_counters",
    "spmd_run",
    "SPMDError",
    "CollectiveMismatchError",
    "CollectiveTimeoutError",
    "InjectedFaultError",
    "RankFailedError",
    "SanitizerError",
    "SegmentStateError",
    "FaultPlan",
    "FaultSpec",
    "RunFaults",
    "payload_nbytes",
    "payload_signature",
    "bucket_by_destination",
    "sanitize_default",
    "watchdog_timeout",
    "encode_payload",
    "decode_payload",
]
