"""Pluggable SPMD runtime backends: threads or real processes per rank.

:func:`repro.mpisim.runtime.spmd_run` delegates the actual launching of rank
programs to a :class:`RuntimeBackend`:

* :class:`ThreadBackend` — one thread per rank, collectives move payloads by
  reference through :class:`repro.mpisim.communicator._CollectiveState`.
  Zero-copy and fast to start, but the GIL serialises rank *compute*; use it
  for tests, small runs, and anything dominated by numpy kernels that
  release the GIL.
* :class:`ProcessBackend` — one ``multiprocessing`` process per rank, so P
  ranks really use P cores.  Collectives cross process boundaries as *typed
  buffers* in POSIX shared memory: every payload is serialised with the
  explicit dtype+shape wire format of :mod:`repro.mpisim.serialization`,
  deposited in a ``multiprocessing.shared_memory`` segment, and read by its
  consumers directly out of shared memory.  Each published superstep is one
  segment per rank with a per-destination offset table; every peer reads
  only its slice, so no collective funnels through a coordinator rank.

Both engines run the same transport — the split-phase publish/consume
handshake of :class:`repro.mpisim.communicator.CollectiveEngine`, over the
exchange ring and the small collectives' blocking slot — so
:class:`repro.mpisim.communicator.SimCommunicator` (which owns collective
semantics and byte accounting) is backend-agnostic, and a pipeline run
produces bit-identical scientific output under either backend — the
backend-parity test suite pins exactly that.
"""

from __future__ import annotations

import atexit
import pickle
import queue as queue_module
import struct
import threading
import time
from abc import ABC, abstractmethod
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable

from repro.mpisim.communicator import (
    N_SLOTS,
    CollectiveEngine,
    SimCommunicator,
    _CollectiveState,
    collective_timeout,
)
from repro.mpisim.errors import RankFailedError
from repro.mpisim.faults import RunFaults
from repro.mpisim.serialization import decode_payload, encode_payload
from repro.mpisim.topology import Topology
from repro.mpisim.tracing import CommTrace

__all__ = [
    "RuntimeBackend",
    "ThreadBackend",
    "ProcessBackend",
    "resolve_backend",
    "shutdown_rank_pools",
    "active_rank_pools",
    "rank_pool_stats",
    "recovery_counters",
    "reset_recovery_counters",
    "BACKEND_NAMES",
]

#: Names accepted by :func:`resolve_backend` (and the ``--backend`` CLI knob).
BACKEND_NAMES: tuple[str, ...] = ("thread", "process")

#: Fixed-width slots in the shared metadata arrays.
_NAME_LEN = 64   # shared-memory segment names ("psm_..." style, well under 64)
_OP_LEN = 48     # collective op names ("allreduce:sum", ...), truncated to fit


# ---------------------------------------------------------------------------
# Recovery accounting (docs/fault-tolerance.md)
# ---------------------------------------------------------------------------

_RECOVERY_LOCK = threading.Lock()
_RECOVERY_COUNTERS = {"rank_failures_detected": 0, "pool_respawns": 0}


def _note_recovery(key: str, n: int = 1) -> None:
    with _RECOVERY_LOCK:
        _RECOVERY_COUNTERS[key] += n


def recovery_counters() -> dict[str, int]:
    """Process-wide failure-recovery counters.

    ``rank_failures_detected`` counts worker processes whose death the
    parent detected (silent exits mid-run, or deaths while parked in the
    pool); ``pool_respawns`` counts the pooled workers respawned because a
    failure evicted their pool.  The :class:`~repro.core.service.AlignmentService`
    snapshots these around each retried run and folds the delta into the
    run's result counters.
    """
    with _RECOVERY_LOCK:
        return dict(_RECOVERY_COUNTERS)


def reset_recovery_counters() -> None:
    """Zero the recovery counters (tests and smoke scripts)."""
    with _RECOVERY_LOCK:
        for key in _RECOVERY_COUNTERS:
            _RECOVERY_COUNTERS[key] = 0
        _EVICTED_KEYS.clear()


class RuntimeBackend(ABC):
    """Strategy interface: how the P rank programs of an SPMD run execute."""

    #: Registry name of the backend ("thread", "process").
    name: str = ""

    @abstractmethod
    def run(
        self,
        n_ranks: int,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        topology: Topology | None,
        trace: CommTrace | None,
        sanitize: bool = False,
        faults: RunFaults | None = None,
    ) -> list[Any]:
        """Execute ``fn(comm, *args, **kwargs)`` on every rank, return results
        in rank order; raise :class:`RankFailedError` if any rank failed.

        ``sanitize`` arms the runtime sanitizer on this run's collective
        engine (congruence checks, split-phase segment guards, hang
        watchdog — see :mod:`repro.mpisim.sanitize`).  ``faults`` is this
        run's bound fault plan (:mod:`repro.mpisim.faults`), handed to every
        rank's communicator."""


def resolve_backend(backend: str | RuntimeBackend | None,
                    pool: bool = False) -> RuntimeBackend:
    """Turn a backend name (or an already-built backend) into an instance.

    ``pool=True`` asks the process backend to acquire its ranks from the
    persistent rank pool (see :class:`_RankPool`) instead of forking fresh
    processes; the thread backend has no fork cost to amortise and ignores
    the flag.  An explicitly constructed :class:`RuntimeBackend` instance is
    passed through untouched (its own pooling setting wins).
    """
    if backend is None:
        return ThreadBackend()
    if isinstance(backend, RuntimeBackend):
        return backend
    if backend == "thread":
        return ThreadBackend()
    if backend == "process":
        return ProcessBackend(pool=pool)
    raise ValueError(
        f"unknown runtime backend {backend!r}; expected one of {BACKEND_NAMES}"
    )


# ---------------------------------------------------------------------------
# Thread backend
# ---------------------------------------------------------------------------

class ThreadBackend(RuntimeBackend):
    """Ranks are threads in this process; payloads move by reference."""

    name = "thread"

    def run(self, n_ranks, fn, args, kwargs, topology, trace, sanitize=False,
            faults=None):
        if faults is not None and faults.has_kill:
            raise ValueError(
                "the thread backend cannot inject 'kill' faults: ranks are "
                "threads of this process, so killing one would kill the "
                "whole run — use backend='process' (or an 'exit' fault)"
            )
        state = _CollectiveState(n_ranks, sanitize=sanitize)
        results: list[Any] = [None] * n_ranks
        failures: list[tuple[int, BaseException]] = []
        broken_ranks: list[int] = []
        failures_lock = threading.Lock()

        def worker(rank: int) -> None:
            comm = SimCommunicator(rank, n_ranks, state, topology=topology,
                                   trace=trace, faults=faults)
            try:
                results[rank] = fn(comm, *args, **kwargs)
            except threading.BrokenBarrierError:
                # Another rank failed and aborted the engine; stay quiet, the
                # original failure is reported below.
                with failures_lock:
                    broken_ranks.append(rank)
            except BaseException as exc:  # noqa: BLE001 - must capture rank failures
                with failures_lock:
                    failures.append((rank, exc))
                state.abort()

        if n_ranks == 1:
            # Fast path: no threads for single-rank runs (common in tests and
            # in the Table 2 single-node comparison).
            worker(0)
        else:
            threads = [
                threading.Thread(target=worker, args=(rank,), name=f"spmd-rank-{rank}")
                for rank in range(n_ranks)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        _raise_rank_failures(failures, broken_ranks)
        return results


def _raise_rank_failures(failures: list[tuple[int, BaseException]],
                         broken_ranks: list[int]) -> None:
    """Raise :class:`RankFailedError` for the lowest failed rank, if any.

    Every broken wait should trace back to an originating rank failure; if
    none was reported the ranks were woken by an external abort.  Never
    return partial ``[None]`` results as success.
    """
    if failures:
        rank, exc = min(failures, key=lambda item: item[0])
        raise RankFailedError(
            f"rank {rank} failed with {type(exc).__name__}: {exc}"
        ) from exc
    if broken_ranks:
        raise RankFailedError(
            f"ranks {sorted(broken_ranks)} aborted on a broken barrier with "
            "no originating rank failure (an external abort)"
        )


# ---------------------------------------------------------------------------
# Process backend: shared-memory collective engine
# ---------------------------------------------------------------------------

def _attach_shm(name: str) -> SharedMemory:
    """Attach an existing segment created by a peer rank.

    All ranks are children of one parent, so they share a single
    ``multiprocessing`` resource tracker: the attach-time auto-registration
    (unconditional on Python <= 3.12) lands in the same set the creator
    already registered the name into, and the creator's ``unlink`` clears it
    exactly once.  Do NOT unregister here — that would remove the creator's
    registration from the shared tracker and produce KeyError noise at its
    unlink.
    """
    return SharedMemory(name=name)


class _ProcessCollectiveEngine(CollectiveEngine):
    """Shared-memory collective engine.

    All mutable cross-process state lives in ``multiprocessing`` primitives
    created by the parent and inherited by (or shipped to) the rank
    processes.  Publishing a superstep writes one segment per rank with a
    per-destination offset table into a slot (the ring for exchanges, the
    blocking slot for small collectives — see
    :class:`~repro.mpisim.communicator.CollectiveEngine`), and every rank
    reads its slice from every peer's segment directly.  No coordinator
    touches the data, and no global barrier sits on the path.
    """

    def __init__(self, ctx, n_ranks: int, sanitize: bool = False):
        self.n_ranks = n_ranks
        # The sanitizer flag lives in shared memory because the pooled
        # engine outlives any single run: the parent flips it between runs
        # (while every worker is parked) and the long-forked workers read
        # the current value.
        self._sanitize = ctx.Value("b", int(sanitize), lock=False)
        # Per slot: every rank's op name and segment name, plus the
        # publish/consume sequence arrays, all coordinated through one
        # Condition.
        self._cond = ctx.Condition()
        self._abort = ctx.Value("b", 0, lock=False)
        self._ops = [ctx.Array("c", n_ranks * _OP_LEN, lock=False)
                     for _ in range(N_SLOTS)]
        self._names = [ctx.Array("c", n_ranks * _NAME_LEN, lock=False)
                       for _ in range(N_SLOTS)]
        self._published = [ctx.Array("q", n_ranks, lock=False)
                           for _ in range(N_SLOTS)]
        self._consumed = [ctx.Array("q", n_ranks, lock=False)
                          for _ in range(N_SLOTS)]
        self.reset_between_runs()
        # Segments this rank published whose consumption is not yet proven
        # (slot -> (seq, segment)); reclaimed at the slot's next publish or
        # at shutdown.
        self._inflight: dict[int, tuple[int, SharedMemory]] = {}

    # -- slot helpers --------------------------------------------------------

    @staticmethod
    def _put_str(array, index: int, width: int, value: str) -> None:
        raw = value.encode("ascii")[:width].ljust(width, b"\0")
        array[index * width : (index + 1) * width] = raw

    @staticmethod
    def _get_str(array, index: int, width: int) -> str:
        raw = bytes(array[index * width : (index + 1) * width])
        return raw.rstrip(b"\0").decode("ascii")

    @property
    def sanitize(self) -> bool:
        """Whether the runtime sanitizer is armed for the current run."""
        return bool(self._sanitize.value)

    def set_sanitize(self, flag: bool) -> None:
        """Flip the sanitizer for the next run (pooled engines, parent only,
        while every worker is parked)."""
        self._sanitize.value = int(flag)

    @property
    def aborted_by_peer(self) -> bool:
        """Whether :meth:`abort` was called (vs a wait timing out on its own);
        see the thread engine's property of the same name."""
        return bool(self._abort.value)

    def abort(self) -> None:
        """Wake every rank blocked in a wait so it terminates."""
        self._abort.value = 1
        with self._cond:
            self._cond.notify_all()

    # -- storage (see communicator.CollectiveEngine) -------------------------

    def _encode(self, send):
        return [encode_payload(item) for item in send]

    def _publish(self, rank, slot, seq, op_name, blobs):
        """Write one segment; this rank's previous segment in *slot* is
        provably read by everyone now and is reclaimed."""
        stale = self._inflight.pop(slot, None)
        if stale is not None:
            self._destroy(stale[1])
        shm = self._write_segment(blobs)
        self._inflight[slot] = (seq, shm)
        self._put_str(self._ops[slot], rank, _OP_LEN, op_name[:_OP_LEN])
        self._put_str(self._names[slot], rank, _NAME_LEN, shm.name)
        # Keep only the self-addressed blob for the finish-side self
        # delivery; the rest already lives in the shared-memory segment, and
        # retaining the full encoded copy would double the per-superstep
        # memory bound.
        return blobs[rank]

    def _slot_ops(self, slot):
        return [self._get_str(self._ops[slot], q, _OP_LEN)
                for q in range(self.n_ranks)]

    def _read(self, rank, slot, own):
        received: list = []
        for src in range(self.n_ranks):
            if src == rank:
                received.append(decode_payload(own))
                continue
            try:
                peer = _attach_shm(self._get_str(self._names[slot], src, _NAME_LEN))
            except FileNotFoundError:
                # A failed peer aborts, then reclaims its published segments
                # at shutdown: the failure is the peer's to report.
                if self.aborted_by_peer:
                    raise threading.BrokenBarrierError from None
                raise
            try:
                table = struct.unpack_from(f"<{self.n_ranks + 1}Q", peer.buf, 0)
                received.append(decode_payload(peer.buf[table[rank] : table[rank + 1]]))
            finally:
                peer.close()
        return received

    def _write_segment(self, blobs: list[bytes]) -> SharedMemory:
        """One segment per source rank: u64 offset table + concatenated blobs."""
        header = 8 * (self.n_ranks + 1)
        offsets = [header]
        for blob in blobs:
            offsets.append(offsets[-1] + len(blob))
        shm = SharedMemory(create=True, size=offsets[-1])
        shm.buf[:header] = struct.pack(f"<{self.n_ranks + 1}Q", *offsets)
        for blob, start in zip(blobs, offsets[:-1]):
            shm.buf[start : start + len(blob)] = blob
        return shm

    # -- cleanup ---------------------------------------------------------------

    @staticmethod
    def _destroy(shm: SharedMemory) -> None:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def shutdown(self) -> None:
        """Final cleanup at the end of a rank program (or of one pooled job).

        Each slot's last segment is still in flight here, and a fast rank
        can reach shutdown while a slow peer is still reading it — so each
        is reclaimed only once every rank has marked it consumed.  On an
        aborted run the wait short-circuits and the segments are reclaimed
        unconditionally (the peers are aborting too, and a leaked segment
        would outlive the process).
        """
        for slot, (seq, shm) in sorted(self._inflight.items()):
            consumed = self._consumed[slot]
            try:
                self._wait(lambda: all(consumed[q] >= seq
                                       for q in range(self.n_ranks)))
            except threading.BrokenBarrierError:
                pass
            self._destroy(shm)
        self._inflight.clear()

    def reclaim_orphan_segments(self) -> list[str]:
        """Parent-side: unlink every segment still named in the shared metadata.

        After a worker dies without cleanup (SIGKILL, OOM) its published
        segments — including half-published supersteps no peer ever
        consumed — survive in ``/dev/shm``.  Their names are all recorded in
        the engine's slot metadata, so the parent can reclaim them by name.
        Must only be called once every worker of this engine is joined: a
        live worker may still be writing.  Names whose segments were already
        legitimately unlinked are skipped (``FileNotFoundError`` on attach).
        Returns the reclaimed names.
        """
        names = {self._get_str(self._names[slot], rank, _NAME_LEN)
                 for slot in range(N_SLOTS) for rank in range(self.n_ranks)}
        names.discard("")
        reclaimed: list[str] = []
        for name in sorted(names):
            try:
                shm = SharedMemory(name=name)
            except FileNotFoundError:
                continue
            self._destroy(shm)
            reclaimed.append(name)
        return reclaimed

    def reset_between_runs(self) -> None:
        """Re-arm the slot state for the next pooled run.

        Called by the *parent* while every pooled rank is parked on the pool
        barrier (so nothing races these writes).  Each run's communicators
        restart their sequence numbers at 0; without this reset the previous
        run's publish/consume marks would satisfy the new run's predicates
        early and let a rank read stale metadata.
        """
        for slot in range(N_SLOTS):
            for q in range(self.n_ranks):
                self._published[slot][q] = -1
                self._consumed[slot][q] = -1
        self._abort.value = 0


def _run_rank_job(
    rank: int,
    n_ranks: int,
    engine: _ProcessCollectiveEngine,
    fn: Callable[..., Any],
    args: tuple[Any, ...],
    kwargs: dict[str, Any],
    topology: Topology | None,
    want_trace: bool,
    results_queue,
    faults: RunFaults | None = None,
) -> None:
    """Run one rank program against *engine* and ship back result + trace."""
    trace = CommTrace(n_ranks) if want_trace else None
    comm = SimCommunicator(rank, n_ranks, engine, topology=topology,
                           trace=trace, faults=faults)
    status, payload = "ok", None
    try:
        payload = fn(comm, *args, **kwargs)
    except threading.BrokenBarrierError:
        # A peer failed (or the parent aborted); the originating failure is
        # reported by that peer.
        status = "broken"
    except BaseException as exc:  # noqa: BLE001 - must capture rank failures
        engine.abort()
        status, payload = "error", exc
        # Exceptions are the payloads most likely to resist pickling (queue
        # serialisation happens in a feeder thread, where a failure would
        # silently drop the message); degrade to a carrier early.
        try:
            pickle.dumps(payload)
        except Exception:
            payload = RuntimeError(f"{type(exc).__name__}: {exc}")
    finally:
        engine.shutdown()
    snapshot = trace.snapshot() if trace is not None else None
    results_queue.put((rank, status, payload, snapshot))


def _pooled_worker(
    rank: int,
    n_ranks: int,
    engine: _ProcessCollectiveEngine,
    park_barrier,
    job_queue,
    results_queue,
) -> None:
    """Body of one persistent pool rank: park on the barrier between runs.

    The worker blocks on ``park_barrier`` until the parent releases it for
    the next run (the parent is the barrier's extra party and only arrives
    after depositing a job in every rank's queue), runs the job against the
    pool's long-lived engine, reports, and parks again.  A ``None`` job is
    the shutdown sentinel; a barrier abort while parked means the pool is
    being torn down.
    """
    while True:
        try:
            park_barrier.wait()
        except threading.BrokenBarrierError:
            return
        payload = job_queue.get()
        if payload is None:
            return
        try:
            # Jobs arrive pre-pickled (see _RankPool.run); unpickling can
            # still fail receive-side, e.g. an fn defined in a __main__ the
            # worker's fork predates.
            job = pickle.loads(payload)
        except BaseException as exc:  # noqa: BLE001
            engine.abort()
            results_queue.put((rank, "error", RuntimeError(
                f"failed to decode pooled job: {type(exc).__name__}: {exc} "
                "(pooled rank programs must be importable from the worker)"
            ), None))
            return  # the parent evicts this pool; do not park again
        fn, args, kwargs, topology, want_trace, faults = job
        _run_rank_job(rank, n_ranks, engine, fn, args, kwargs, topology,
                      want_trace, results_queue, faults)


def _dead_worker_ranks(workers: list, skip: set[int]) -> list[int]:
    """Ranks (outside *skip*) whose process sentinel reports an exited worker."""
    from multiprocessing import connection as mp_connection

    sentinels = {proc.sentinel: rank for rank, proc in enumerate(workers)
                 if rank not in skip}
    if not sentinels:
        return []
    ready = mp_connection.wait(list(sentinels), timeout=0)
    return sorted(sentinels[sentinel] for sentinel in ready)


def _reap_after_death(
    workers: list,
    results_queue,
    reported: dict[int, tuple[str, Any, dict | None]],
    dead_ranks: set[int],
) -> None:
    """Stop the survivors of a silent worker death and salvage late reports.

    The survivors are blocked waiting on the dead rank inside the engine's
    ``multiprocessing`` primitives, and waking them with ``engine.abort()``
    is NOT an option: notifying a Condition (or breaking a Barrier, which
    notifies internally) whose registered waiter was killed blocks forever
    on the dead sleeper's wakeup handshake.  So the parent terminates the
    unreported survivors directly; their leaked shared-memory segments are
    reclaimed by name afterwards (``reclaim_orphan_segments``).  Survivors
    that already reported are left alone — pooled workers park again and are
    dealt with by the pool eviction.
    """
    for rank, proc in enumerate(workers):
        if rank in reported or rank in dead_ranks:
            continue
        if proc.is_alive():
            proc.terminate()
    deadline = time.monotonic() + 10.0
    for rank, proc in enumerate(workers):
        if rank in reported:
            continue
        proc.join(timeout=max(0.1, deadline - time.monotonic()))
        if proc.is_alive():  # pragma: no cover - last resort
            proc.kill()
            proc.join(timeout=5.0)
    # A terminated survivor may have flushed its report just before the
    # signal landed; salvage whatever reached the queue.
    while True:
        try:
            rank, status, payload, snapshot = results_queue.get_nowait()
        except queue_module.Empty:
            break
        except Exception:  # pragma: no cover - feeder killed mid-write
            break
        if rank not in dead_ranks:
            reported[rank] = (status, payload, snapshot)
    for rank in range(len(workers)):
        if rank not in reported and rank not in dead_ranks:
            reported[rank] = ("broken", None, None)


def _drain_results(
    workers: list,
    results_queue,
    engine: _ProcessCollectiveEngine,
    n_ranks: int,
) -> tuple[dict[int, tuple[str, Any, dict | None]], list[tuple[int, BaseException]]]:
    """Collect one report per rank, converting silent worker deaths to failures.

    Results are drained *before* joining: a worker only exits once its queue
    feeder thread has flushed, so joining first could deadlock on large
    results.  A worker that dies without reporting (segfault, kill, OOM) is
    detected by polling the process sentinels between queue reads — never by
    waiting on the engine handshake, which the dead rank can no longer
    satisfy — and after a short grace period (long enough for an in-flight
    report of a cleanly-exiting worker to land) the death is recorded as a
    rank failure, the blocked survivors are stopped, and the caller's
    recovery path takes over (pool eviction + segment reclamation).
    """
    reported: dict[int, tuple[str, Any, dict | None]] = {}
    failures: list[tuple[int, BaseException]] = []
    dead_deadline: dict[int, float] = {}
    while len(reported) < n_ranks:
        try:
            rank, status, payload, snapshot = results_queue.get(timeout=0.25)
            reported[rank] = (status, payload, snapshot)
            continue
        except queue_module.Empty:
            pass
        now = time.monotonic()
        confirmed: list[int] = []
        for rank in _dead_worker_ranks(workers, skip=set(reported)):
            if rank not in dead_deadline:
                # A worker that exited cleanly (code 0) may still have its
                # report in the pipe; give it longer than a killed one.
                grace = 5.0 if workers[rank].exitcode == 0 else 0.5
                dead_deadline[rank] = now + grace
            elif now >= dead_deadline[rank]:
                confirmed.append(rank)
        if not confirmed:
            continue
        for rank in confirmed:
            failures.append((rank, RuntimeError(
                f"rank process exited with code {workers[rank].exitcode} "
                "without reporting a result"
            )))
        _note_recovery("rank_failures_detected", len(confirmed))
        _reap_after_death(workers, results_queue, reported, set(confirmed))
        break
    return reported, failures


def _assemble_results(
    reported: dict[int, tuple[str, Any, dict | None]],
    failures: list[tuple[int, BaseException]],
    trace: CommTrace | None,
    n_ranks: int,
) -> list[Any]:
    """Merge traces, order results, and raise on any rank failure."""
    # Merge per-rank traces in rank order (deterministic phase order).
    if trace is not None:
        for rank in sorted(reported):
            snapshot = reported[rank][2]
            if snapshot is not None:
                trace.merge_snapshot(snapshot)

    results: list[Any] = [None] * n_ranks
    broken_ranks: list[int] = []
    for rank, (status, payload, _snapshot) in reported.items():
        if status == "ok":
            results[rank] = payload
        elif status == "error":
            failures.append((rank, payload))
        else:  # "broken": normally a peer's failure is reported by that peer
            broken_ranks.append(rank)
    _raise_rank_failures(failures, broken_ranks)
    return results


def _ensure_resource_tracker() -> None:
    # Start the resource tracker in the parent BEFORE forking so every
    # rank shares it.  Attach-time auto-registrations then deduplicate
    # into the one set the creator's unlink clears; with per-child
    # trackers they would instead survive as spurious "leaked
    # shared_memory" warnings at worker exit.
    try:  # pragma: no cover - trivial plumbing
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:
        pass


class _RankPool:
    """A persistent set of rank processes parked on a barrier between runs.

    Forking P interpreters (and, under ``spawn``, re-importing numpy and the
    pipeline) dominates small ``spmd_run`` invocations — exactly the pattern
    of a bench sweep or repeated pipeline runs over one data set.  The pool
    pays that cost once: its workers and its collective engine live across
    runs, each worker blocking on ``park_barrier`` (the "parked" state) until
    the parent deposits the next job.

    Lifecycle:

    * ``run`` resets the engine's split-phase exchange state (safe: every
      worker is parked), enqueues one pickled job per rank, releases the
      barrier, and drains results exactly like a one-shot run.
    * Any rank failure (or silent worker death) marks the pool **broken**;
      a broken pool is torn down and evicted from the registry, so the next
      pooled run starts fresh — failed runs never leak a poisoned barrier
      into later runs.
    * ``shutdown`` delivers the ``None`` sentinel to every worker, releases
      the barrier one last time, and joins; stuck workers are terminated.

    Because jobs cross a queue, pooled rank programs and their arguments must
    be picklable even under the ``fork`` start method.

    Beyond amortising forks, a parked worker is a *session*: module-level
    state it built during one run is still there for the next.  The pipeline
    leans on this twice — the persistent read caches
    (``repro.core.stages._PERSISTENT_READ_CACHES``) survive between pooled
    runs over the same read set, and the serve phase's resident k-mer
    indexes (``repro.core.stages._RESIDENT_INDEXES``) stay loaded between
    ``run_index_build`` and the ``run_query_batch`` invocations that probe
    them, which is what lets a query batch skip the index build entirely
    (counter ``index_reuse_hits``).  Both registries key their entries by a
    content-derived generation tag, so a worker reused for different data
    evicts the stale generation instead of serving it.
    """

    def __init__(self, ctx, start_method: str, n_ranks: int):
        _ensure_resource_tracker()
        self.n_ranks = n_ranks
        self.start_method = start_method
        self.engine = _ProcessCollectiveEngine(ctx, n_ranks)
        self.park_barrier = ctx.Barrier(n_ranks + 1)
        # Buffered queues (not SimpleQueue): jobs are deposited while the
        # workers are still parked, and a SimpleQueue.put of a job larger
        # than the OS pipe buffer would block the parent before it ever
        # reached the release barrier — a deadlock.  Queue's feeder thread
        # drains asynchronously once the worker starts reading.
        self.job_queues = [ctx.Queue() for _ in range(n_ranks)]
        self.results_queue = ctx.Queue()
        self.broken = False
        self.runs_completed = 0
        self.workers = [
            ctx.Process(
                target=_pooled_worker,
                args=(rank, n_ranks, self.engine, self.park_barrier,
                      self.job_queues[rank], self.results_queue),
                name=f"spmd-pool-rank-{rank}",
                daemon=True,
            )
            for rank in range(n_ranks)
        ]
        for proc in self.workers:
            proc.start()

    def run(self, fn, args, kwargs, topology, trace, sanitize=False,
            faults=None) -> list[Any]:
        if self.broken:
            raise RuntimeError("rank pool is broken; it should have been evicted")
        # Pickle the job HERE, once: Queue.put pickles in a background feeder
        # thread whose failure is only printed, never raised — an unpicklable
        # job would otherwise strand the released workers in job_queue.get()
        # forever.  This way the error surfaces in the caller while every
        # worker is still safely parked (the pool stays usable).
        try:
            job = pickle.dumps((fn, args, kwargs, topology, trace is not None,
                                faults))
        except Exception as exc:
            raise TypeError(
                f"pooled rank program is not picklable: {type(exc).__name__}: "
                f"{exc} (pooled jobs cross a queue; run without pool=True for "
                "unpicklable programs)"
            ) from exc
        # A worker that died while parked (OOM kill, crash) leaves the
        # (n+1)-party barrier permanently short; detect it before waiting,
        # and bound the wait so a death in the tiny check-to-wait window
        # still surfaces instead of hanging.
        dead = [rank for rank, proc in enumerate(self.workers)
                if proc.exitcode is not None]
        if not dead:
            # Safe for the same reason reset_between_runs is: every worker
            # is parked, so nothing races the sanitizer flip.
            self.engine.set_sanitize(sanitize)
            self.engine.reset_between_runs()
            for job_queue in self.job_queues:
                job_queue.put(job)
            try:
                self.park_barrier.wait(timeout=collective_timeout(False))
            except threading.BrokenBarrierError:
                dead = [rank for rank, proc in enumerate(self.workers)
                        if proc.exitcode is not None]
        if dead or self.park_barrier.broken:
            self.broken = True
            _note_recovery("rank_failures_detected", max(1, len(dead)))
            _evict_pool(self)
            raise RankFailedError(
                f"pooled rank processes {dead or '(unknown)'} died while "
                "parked; the pool was torn down — the next pooled run starts "
                "a fresh one"
            )
        reported, failures = _drain_results(
            self.workers, self.results_queue, self.engine, self.n_ranks
        )
        try:
            results = _assemble_results(reported, failures, trace, self.n_ranks)
        except BaseException:
            # The engine handshake (or a worker) is now in an unknown state;
            # never reuse this pool.
            self.broken = True
            _evict_pool(self)
            raise
        self.runs_completed += 1
        return results

    def shutdown(self) -> None:
        """Stop the workers and release every pool resource.

        Robust to workers that died undetected: the sentinel+barrier path
        runs only when *every* worker is still alive, because releasing the
        park barrier with a dead party registered as a waiter would wedge
        the parent inside ``multiprocessing``'s notify handshake (the same
        hazard the broken path below documents).
        """
        alive = [proc for proc in self.workers if proc.is_alive()]
        any_dead = any(proc.exitcode is not None for proc in self.workers)
        if alive and not self.broken and not any_dead:
            for job_queue in self.job_queues:
                job_queue.put(None)
            try:
                self.park_barrier.wait(timeout=5.0)
            except Exception:  # workers wedged or already gone
                for proc in alive:
                    if proc.is_alive():
                        proc.terminate()
        elif alive:
            # Broken pool (a rank failed, or a worker died — detected or
            # not).  Do NOT wake the survivors through the barrier/condition:
            # with a dead process still registered as a waiter,
            # multiprocessing.Condition.notify blocks forever waiting for
            # its acknowledgement.  The survivors hold no new shared-memory
            # segments once stopped, so stop them directly.
            for proc in alive:
                proc.terminate()
        for proc in self.workers:
            proc.join(timeout=5.0)
        for proc in self.workers:
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=5.0)
        for job_queue in self.job_queues:
            job_queue.close()
            job_queue.join_thread()
        self.results_queue.close()
        self.results_queue.join_thread()
        # An unclean end (failure, kill, terminate) can leave the dead and
        # terminated workers' segments — including half-published
        # split-phase supersteps — in /dev/shm; every worker is joined now,
        # so reclaim them by name.
        if any(proc.exitcode != 0 for proc in self.workers) and not any(
                proc.is_alive() for proc in self.workers):
            self.engine.reclaim_orphan_segments()


#: Live pools keyed by (start_method, n_ranks); guarded by _POOLS_LOCK.
_POOLS: dict[tuple[str, int], _RankPool] = {}
_POOLS_LOCK = threading.Lock()

#: Pool keys evicted by a failure whose replacement has not been built yet;
#: the next _acquire_pool for such a key counts its fresh workers as
#: respawns (``pool_respawns``).  Deliberate teardown (shutdown_rank_pools)
#: clears the set — a later pool is then a cold start, not a recovery.
_EVICTED_KEYS: set[tuple[str, int]] = set()


def _acquire_pool(ctx, start_method: str, n_ranks: int) -> _RankPool:
    with _POOLS_LOCK:
        key = (start_method, n_ranks)
        pool = _POOLS.get(key)
        if pool is None or pool.broken:
            if pool is not None:
                pool.shutdown()
            pool = _RankPool(ctx, start_method, n_ranks)
            _POOLS[key] = pool
            if key in _EVICTED_KEYS:
                _EVICTED_KEYS.discard(key)
                _note_recovery("pool_respawns", n_ranks)
        return pool


def _evict_pool(pool: _RankPool) -> None:
    with _POOLS_LOCK:
        for key, candidate in list(_POOLS.items()):
            if candidate is pool:
                del _POOLS[key]
        _EVICTED_KEYS.add((pool.start_method, pool.n_ranks))
    pool.shutdown()


def active_rank_pools() -> int:
    """Number of live rank pools (tests and diagnostics)."""
    with _POOLS_LOCK:
        return len(_POOLS)


def rank_pool_stats() -> list[dict[str, int | str]]:
    """Per-pool usage statistics (bench sweeps and ``--pool-stats`` report these).

    Returns one entry per live pool with its start method, rank count, the
    number of ``spmd_run`` invocations it has served, and
    ``forks_amortised`` — the worker forks the pool's reuse avoided,
    ``(runs_completed - 1) * n_ranks``.  Pooled workers also keep per-rank
    state resident between runs (the persistent read caches and the serve
    phase's resident k-mer indexes live in the worker processes), so
    ``runs_completed > 1`` is the precondition for every cross-run reuse
    counter the pipeline reports.
    """
    with _POOLS_LOCK:
        return [
            {"start_method": start_method, "n_ranks": n_ranks,
             "runs_completed": pool.runs_completed,
             "forks_amortised": max(0, pool.runs_completed - 1) * n_ranks}
            for (start_method, n_ranks), pool in _POOLS.items()
        ]


def shutdown_rank_pools() -> None:
    """Tear down every persistent rank pool (parked workers exit cleanly).

    Registered via ``atexit`` so pooled runs never leave orphan rank
    processes behind; callers may also invoke it explicitly (benches between
    sweeps, tests asserting a clean slate).
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
        _EVICTED_KEYS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_rank_pools)


class ProcessBackend(RuntimeBackend):
    """Ranks are OS processes; collectives move typed buffers in shared memory.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method.  Defaults to ``"fork"`` where
        available (rank programs and their arguments need not be picklable,
        and the read set is inherited copy-on-write); ``"spawn"`` works too
        but requires picklable ``fn``/args.
    pool:
        When True, ranks are acquired from the persistent :class:`_RankPool`
        for this (start method, rank count) — processes park on a barrier
        between runs instead of being re-forked, amortising startup across
        runs.  Pooled jobs cross a queue, so ``fn`` and its arguments must be
        picklable even under ``fork``.
    """

    name = "process"

    def __init__(self, start_method: str | None = None, pool: bool = False):
        import multiprocessing as mp

        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(start_method)
        self.start_method = start_method
        self.use_pool = pool

    def run(self, n_ranks, fn, args, kwargs, topology, trace, sanitize=False,
            faults=None):
        if self.use_pool:
            rank_pool = _acquire_pool(self._ctx, self.start_method, n_ranks)
            return rank_pool.run(fn, args, kwargs, topology, trace, sanitize,
                                 faults)

        _ensure_resource_tracker()
        engine = _ProcessCollectiveEngine(self._ctx, n_ranks, sanitize=sanitize)
        results_queue = self._ctx.Queue()
        workers = [
            self._ctx.Process(
                target=_run_rank_job,
                args=(rank, n_ranks, engine, fn, args, kwargs, topology,
                      trace is not None, results_queue, faults),
                name=f"spmd-rank-{rank}",
            )
            for rank in range(n_ranks)
        ]
        for proc in workers:
            proc.start()
        reported, failures = _drain_results(workers, results_queue, engine, n_ranks)
        for proc in workers:
            proc.join()
        results_queue.close()
        if failures:
            # Silent deaths skip all worker-side cleanup; every worker is
            # joined now, so reclaim the leaked segments by name.
            engine.reclaim_orphan_segments()
        return _assemble_results(reported, failures, trace, n_ranks)
