"""SPMD runtime backends: threads or real processes per rank.

:func:`repro.mpisim.runtime.spmd_run` delegates the actual launching of rank
programs to the backend its ``backend`` name selects:

* :class:`ThreadBackend` — one thread per rank, collectives move payloads by
  reference through :class:`repro.mpisim.communicator._CollectiveState`.
  Zero-copy and fast to start, but the GIL serialises rank *compute*; use it
  for tests, small runs, and anything dominated by numpy kernels that
  release the GIL.
* :class:`ProcessBackend` — one ``multiprocessing`` process per rank, so P
  ranks really use P cores.  The processes are the persistent rank pool of
  that rank count (:class:`_RankPool`): forked once and parked between
  runs, like the P ranks ``mpiexec`` starts once.  Collectives cross
  process boundaries as *typed buffers* in POSIX shared memory: every
  payload is serialised with the explicit dtype+shape wire format of
  :mod:`repro.mpisim.serialization`,
  copied into the publishing rank's long-lived arena for the slot (one
  ``multiprocessing.shared_memory`` segment per (rank, slot), grown only
  when a payload does not fit), and decoded by its consumers straight out
  of their cached mapping of that arena.  Each published superstep is a
  per-destination offset table plus the blobs; every peer reads only its
  slice, so no collective funnels through a coordinator rank.

Both engines run the same transport — the split-phase publish/consume
handshake of :class:`repro.mpisim.communicator.CollectiveEngine`, over the
exchange ring and the allreduce's blocking slot — so
:class:`repro.mpisim.communicator.SimCommunicator` (which owns collective
semantics and byte accounting) is backend-agnostic, and a pipeline run
produces bit-identical scientific output under either backend — the
backend-parity test suite pins exactly that.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import queue as queue_module
import struct
import threading
import time
from itertools import accumulate
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
from repro.mpisim.tracing import CommTrace

__all__ = [
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

#: The ``multiprocessing`` context of the rank pool's workers: ``fork``
#: where available (a worker starts without re-importing numpy and the
#: pipeline), else ``spawn``.  Either way jobs reach the workers pickled.
_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")

#: Fixed-width slots in the shared metadata arrays.
_NAME_LEN = 64   # shared-memory segment names ("psm_..." style, well under 64)
_OP_LEN = 48     # collective op names ("allreduce:sum", ...), truncated to fit

#: Smallest arena; untouched pages cost nothing, and small collectives
#: then never grow one.
_ARENA_MIN_BYTES = 1 << 16
#: Arenas and peer mappings above this size are not kept between calls
#: (see ``_read`` and ``shutdown``), so large exchanges stay off the RSS of
#: parked pool workers.
_RETAIN_BYTES = 1 << 20


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
    global _POOL_EVICTED
    with _RECOVERY_LOCK:
        for key in _RECOVERY_COUNTERS:
            _RECOVERY_COUNTERS[key] = 0
        _POOL_EVICTED = False


def resolve_backend(backend: str | None) -> ThreadBackend | ProcessBackend:
    """The backend named *backend* (``"thread"``, ``"process"``, ``None``).

    ``None`` is the thread backend.
    """
    if backend is None or backend == "thread":
        return ThreadBackend()
    if backend == "process":
        return ProcessBackend()
    raise ValueError(
        f"unknown runtime backend {backend!r}; expected one of {BACKEND_NAMES}"
    )


# ---------------------------------------------------------------------------
# Thread backend
# ---------------------------------------------------------------------------

class ThreadBackend:
    """Ranks are threads in this process; payloads move by reference."""

    def run(self, n_ranks, fn, args, kwargs, trace, sanitize, faults):
        """Execute ``fn(comm, *args, **kwargs)`` on every rank, return results
        in rank order; raise :class:`RankFailedError` if any rank failed."""
        state = _CollectiveState(n_ranks, sanitize=sanitize)
        results: list[Any] = [None] * n_ranks
        failures: list[tuple[int, BaseException]] = []
        broken_ranks: list[int] = []
        failures_lock = threading.Lock()

        def worker(rank: int) -> None:
            comm = SimCommunicator(rank, n_ranks, state, trace=trace,
                                   faults=faults)
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

class _ProcessCollectiveEngine(CollectiveEngine):
    """Shared-memory collective engine.

    All mutable cross-process state lives in ``multiprocessing`` primitives
    created by the parent and inherited by (or shipped to) the rank
    processes.  Publishing a superstep copies a per-destination offset
    table and the blobs into the rank's long-lived arena for the slot (the
    ring for exchanges, the blocking slot for allreduce — see
    :class:`~repro.mpisim.communicator.CollectiveEngine`), and every rank
    reads its slice from every peer's arena through a mapping it keeps
    between calls.  No coordinator touches the data, and no global barrier
    sits on the path.
    """

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        # The sanitizer flag lives in shared memory because the pool's
        # engine outlives any single run: the parent sets it before each run
        # (while every worker is parked) and the long-forked workers read
        # the current value.
        self._sanitize = _CTX.Value("b", 0, lock=False)
        # Per slot, one entry per rank: op name, arena name and arena
        # generation, plus the publish/consume sequence arrays, all
        # coordinated through one Condition.
        self._cond = _CTX.Condition()
        self._abort = _CTX.Value("b", 0, lock=False)

        def per_slot(code: str, width: int = 1) -> list:
            return [_CTX.Array(code, n_ranks * width, lock=False)
                    for _ in range(N_SLOTS)]

        self._ops, self._names = per_slot("c", _OP_LEN), per_slot("c", _NAME_LEN)
        self._gens, self._published, self._consumed = (per_slot("q") for _ in range(3))
        self.reset_between_runs()
        # Process-local: this rank's own arena per slot, and its mapping of
        # each peer's arena per (slot, src) with the generation it maps.
        # Empty in the parent, which never publishes or reads.
        self._arenas: dict[int, SharedMemory] = {}
        self._peers: dict[tuple[int, int], tuple[int, SharedMemory]] = {}

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
        """Set the sanitizer for the next run (parent only, while every
        worker is parked)."""
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

    def arena_table(self) -> dict[tuple[int, int], tuple[str, int]]:
        """``(rank, slot) -> (arena name, generation)`` from the shared
        metadata; the name is empty where the rank holds no arena."""
        return {(rank, slot): (self._get_str(self._names[slot], rank, _NAME_LEN),
                               int(self._gens[slot][rank]))
                for slot in range(N_SLOTS) for rank in range(self.n_ranks)}

    # -- storage (see communicator.CollectiveEngine) -------------------------

    def _encode(self, send):
        return [encode_payload(item) for item in send]

    def _publish(self, rank, slot, seq, op_name, blobs):
        """Copy the blobs into this rank's arena for *slot*, which every peer
        has consumed (``exchange_start`` waited for it).  The self-addressed
        blob stays out: it travels in the token to the finish-side read."""
        header = 8 * (self.n_ranks + 1)
        offsets = list(accumulate((0 if dst == rank else len(blob)
                                   for dst, blob in enumerate(blobs)), initial=header))
        arena = self._arenas.get(slot)
        if arena is None or arena.size < offsets[-1]:
            arena = self._grow(rank, slot, offsets[-1])
        arena.buf[:header] = struct.pack(f"<{self.n_ranks + 1}Q", *offsets)
        for dst, blob in enumerate(blobs):
            if dst != rank:
                arena.buf[offsets[dst] : offsets[dst + 1]] = blob
        self._put_str(self._ops[slot], rank, _OP_LEN, op_name[:_OP_LEN])
        return blobs[rank]

    def _grow(self, rank: int, slot: int, nbytes: int) -> SharedMemory:
        """Replace this rank's (consumed) arena for *slot* with a power-of-two
        one of at least *nbytes*, named in the metadata with a bumped
        generation before any data lands in it, so the parent can reclaim
        it by name from then on."""
        old = self._arenas.pop(slot, None)
        if old is not None:
            self._destroy(old)
        arena = SharedMemory(create=True,
                             size=max(_ARENA_MIN_BYTES, 1 << (nbytes - 1).bit_length()))
        self._put_str(self._names[slot], rank, _NAME_LEN, arena.name)
        self._gens[slot][rank] += 1
        self._arenas[slot] = arena
        return arena

    def _slot_ops(self, slot):
        return [self._get_str(self._ops[slot], q, _OP_LEN)
                for q in range(self.n_ranks)]

    def _read(self, rank, slot, own):
        received: list = []
        for src in range(self.n_ranks):
            if src == rank:
                received.append(decode_payload(own))
                continue
            peer = self._attach(slot, src)
            table = struct.unpack_from(f"<{self.n_ranks + 1}Q", peer.buf, 0)
            # decode_payload copies out of shared memory, so nothing received
            # is a view of the arena the peer overwrites next superstep.
            received.append(decode_payload(peer.buf[table[rank] : table[rank + 1]]))
            if peer.size > _RETAIN_BYTES:
                del self._peers[(slot, src)]
                peer.close()
        return received

    def _attach(self, slot: int, src: int) -> SharedMemory:
        """This rank's mapping of *src*'s arena for *slot*, re-attached only
        when the arena's generation changed (a recycled name could hand back
        a stale mapping, a generation cannot)."""
        gen = self._gens[slot][src]
        cached = self._peers.get((slot, src))
        if cached is not None and cached[0] == gen:
            return cached[1]
        if cached is not None:  # the owner grew it: drop the stale mapping
            cached[1].close()
        try:
            # Python 3.11 registers every attach with the resource tracker
            # (one pipe write), hence one attach per arena, not per call.
            # The ranks share the parent's tracker, so the registration
            # joins the creator's and the one unlink clears it; do NOT
            # unregister here, or that unlink raises KeyError noise.
            peer = SharedMemory(name=self._get_str(self._names[slot], src, _NAME_LEN))
        except FileNotFoundError:
            # A failed peer aborts and the parent reclaims its arenas: the
            # failure is the peer's to report.
            if self.aborted_by_peer:
                raise threading.BrokenBarrierError from None
            raise
        self._peers[(slot, src)] = (gen, peer)
        return peer

    # -- cleanup ---------------------------------------------------------------

    @staticmethod
    def _destroy(shm: SharedMemory) -> None:
        shm.close()
        shm.unlink()

    def shutdown(self, rank: int) -> None:
        """End of one job on this rank: drop this rank's
        arenas larger than :data:`_RETAIN_BYTES`, each once every rank has
        consumed its last superstep (a slow peer may still be reading).  On
        an aborted run the arena is left to the parent's reclaim."""
        for slot, arena in sorted(self._arenas.items()):
            if arena.size <= _RETAIN_BYTES:
                continue
            seq, consumed = self._published[slot][rank], self._consumed[slot]
            try:
                self._wait(lambda: all(consumed[q] >= seq
                                       for q in range(self.n_ranks)))
            except threading.BrokenBarrierError:
                continue
            del self._arenas[slot]
            self._put_str(self._names[slot], rank, _NAME_LEN, "")
            self._destroy(arena)

    def reclaim_orphan_segments(self) -> None:
        """Parent-side: unlink every arena still named in the shared metadata.

        The one cleanup path for arenas, run at pool shutdown (deliberate or
        after a failure evicted the pool).  An arena is named before any
        data is written to it, so this also covers workers that died
        without cleanup (SIGKILL, OOM) mid-superstep.  Call only once every
        worker of this engine is joined: a live worker may still be
        writing.
        """
        for name, _gen in self.arena_table().values():
            if not name:
                continue
            try:
                self._destroy(SharedMemory(name=name))
            except FileNotFoundError:  # unlinked before a kill renamed it
                pass

    def reset_between_runs(self) -> None:
        """Re-arm the sequence state for the next run; arenas stay.

        Called by the *parent* while every pool worker is parked, so nothing
        races these writes.  Communicators restart at sequence 0, and stale
        marks would satisfy the new run's predicates early.
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
    want_trace: bool,
    results_queue,
    faults: RunFaults | None,
) -> None:
    """Run one rank program against *engine* and ship back result + trace."""
    trace = CommTrace(n_ranks) if want_trace else None
    comm = SimCommunicator(rank, n_ranks, engine, trace=trace, faults=faults)
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
        engine.shutdown(rank)
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
            fn, args, kwargs, want_trace, faults = pickle.loads(payload)
        except BaseException as exc:  # noqa: BLE001
            engine.abort()
            results_queue.put((rank, "error", RuntimeError(
                f"failed to decode pooled job: {type(exc).__name__}: {exc} "
                "(pooled rank programs must be importable from the worker)"
            ), None))
            return  # the parent evicts this pool; do not park again
        # Hold nothing of this job while parked: what a rank keeps between
        # runs is what its registries keep on purpose.
        del payload
        _run_rank_job(rank, n_ranks, engine, fn, args, kwargs, want_trace,
                      results_queue, faults)
        del fn, args, kwargs, faults


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
    that already reported are left alone — they park again and are dealt
    with by the pool eviction.
    """
    for rank, proc in enumerate(workers):
        if rank not in reported and rank not in dead_ranks and proc.is_alive():
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
        except Exception:  # queue.Empty, or a feeder killed mid-write
            break
        if rank not in dead_ranks:
            reported[rank] = (status, payload, snapshot)
    for rank in range(len(workers)):
        if rank not in reported and rank not in dead_ranks:
            reported[rank] = ("broken", None, None)


def _drain_results(
    workers: list,
    results_queue,
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
    # Start the resource tracker in the parent BEFORE forking so every rank
    # shares it: attach-time registrations then join the creator's, which
    # the one unlink clears; per-child trackers would instead warn of
    # "leaked shared_memory" at worker exit.
    try:  # pragma: no cover - trivial plumbing
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:
        pass


class _RankPool:
    """A persistent set of rank processes parked on a barrier between runs.

    The process backend's ranks: every ``backend="process"`` run of P ranks
    takes the pool of P workers, forking it on first use.  Its workers and
    its collective engine live across runs, each worker blocking on
    ``park_barrier`` (the "parked" state) until the parent deposits the next
    job, so forking P interpreters is paid once, not per run.

    The lifecycle (park, acquire, failure eviction, shutdown) is described
    in ``docs/runtime.md`` under "The rank pool".  The engine's arenas live
    as long as the pool and are reclaimed at its shutdown.  Because jobs
    cross a queue, rank programs and their arguments must be picklable
    (module-level functions, not lambdas or closures).

    A parked worker is also a *session*: module-level
    state it built during one run is still there for the next.  The serve
    phase keeps one entry per rank there
    (``repro.core.stages._RESIDENT_INDEXES``): the resident k-mer index, the
    index reads and their read cache — what lets ``run_query_batch`` skip
    the index build (counter ``index_reuse_hits``) and the index-read
    fetches an earlier batch paid for.  The entry is keyed by a
    content-derived generation tag so a worker reused for different data
    evicts the stale generation instead of serving it.
    """

    def __init__(self, n_ranks: int):
        _ensure_resource_tracker()
        self.n_ranks = n_ranks
        self.engine = _ProcessCollectiveEngine(n_ranks)
        self.park_barrier = _CTX.Barrier(n_ranks + 1)
        # Buffered queues (not SimpleQueue): jobs are deposited while the
        # workers are still parked, and a SimpleQueue.put of a job larger
        # than the OS pipe buffer would block the parent before it ever
        # reached the release barrier — a deadlock.  Queue's feeder thread
        # drains asynchronously once the worker starts reading.
        self.job_queues = [_CTX.Queue() for _ in range(n_ranks)]
        self.results_queue = _CTX.Queue()
        self.broken = False
        self.runs_completed = 0
        self.workers = [
            _CTX.Process(
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

    def run(self, fn, args, kwargs, trace, sanitize, faults) -> list[Any]:
        if self.broken:
            raise RuntimeError("rank pool is broken; it should have been evicted")
        # Pickle the job HERE, once: Queue.put pickles in a background feeder
        # thread whose failure is only printed, never raised — an unpicklable
        # job would otherwise strand the released workers in job_queue.get()
        # forever.  This way the error surfaces in the caller while every
        # worker is still safely parked (the pool stays usable).
        try:
            job = pickle.dumps((fn, args, kwargs, trace is not None, faults))
        except Exception as exc:
            raise TypeError(
                f"process-backend rank program is not picklable: "
                f"{type(exc).__name__}: {exc} (jobs cross a queue to the rank "
                "pool: define the program at module level, or run it on the "
                "thread backend)"
            ) from exc
        # A worker that died while parked (OOM kill, crash) leaves the
        # (n+1)-party barrier permanently short; detect it before waiting,
        # and bound the wait so a death in the tiny check-to-wait window
        # still surfaces instead of hanging.
        dead = [rank for rank, proc in enumerate(self.workers)
                if proc.exitcode is not None]
        if not dead:
            # Safe for the same reason reset_between_runs is: every worker
            # is parked, so nothing races the sanitizer flag.
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
            self.workers, self.results_queue, self.n_ranks
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
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=5.0)
        for job_queue in (*self.job_queues, self.results_queue):
            job_queue.close()
            job_queue.join_thread()
        # The arenas live as long as the pool; every worker is joined now,
        # so reclaim them by name (on an unclean end this includes
        # half-published split-phase supersteps).
        if not any(proc.is_alive() for proc in self.workers):
            self.engine.reclaim_orphan_segments()


#: The one live pool (``mpiexec`` runs one job's ranks at a time); guarded
#: by _POOL_LOCK.
_POOL: _RankPool | None = None
_POOL_LOCK = threading.Lock()

#: Set when a failure evicted the pool and its replacement has not been
#: built yet: the next _acquire_pool counts its fresh workers as respawns
#: (``pool_respawns``).  Deliberate teardown (shutdown_rank_pools) clears it
#: — a later pool is then a cold start, not a recovery.
_POOL_EVICTED = False


def _acquire_pool(n_ranks: int) -> _RankPool:
    """The live pool of *n_ranks* workers; a parked pool of another size (or
    a broken one) is shut down first, so one pool's workers live at a time."""
    global _POOL, _POOL_EVICTED
    with _POOL_LOCK:
        pool = _POOL
        if pool is None or pool.broken or pool.n_ranks != n_ranks:
            _POOL = None
            if pool is not None:
                pool.shutdown()
            pool = _POOL = _RankPool(n_ranks)
            if _POOL_EVICTED:
                _POOL_EVICTED = False
                _note_recovery("pool_respawns", n_ranks)
        return pool


def _evict_pool(pool: _RankPool) -> None:
    global _POOL, _POOL_EVICTED
    with _POOL_LOCK:
        if _POOL is pool:
            _POOL = None
        _POOL_EVICTED = True
    pool.shutdown()


def active_rank_pools() -> int:
    """Number of live rank pools, 0 or 1 (tests and diagnostics)."""
    with _POOL_LOCK:
        return int(_POOL is not None)


def rank_pool_stats() -> list[dict[str, int]]:
    """Usage statistics of the live pool (``--pool-stats`` reports these).

    Returns one entry, or none without a live pool, with its rank count,
    the number of ``spmd_run`` invocations it has served, and
    ``forks_amortised`` — the worker forks the pool's reuse avoided,
    ``(runs_completed - 1) * n_ranks``.  Pooled workers also keep per-rank
    state resident between runs (the serve phase's resident k-mer indexes,
    with their index reads and read caches, live in the worker processes), so
    ``runs_completed > 1`` is the precondition for every cross-run reuse
    counter the pipeline reports.
    """
    with _POOL_LOCK:
        return [{"n_ranks": pool.n_ranks,
                 "runs_completed": pool.runs_completed,
                 "forks_amortised": max(0, pool.runs_completed - 1) * pool.n_ranks}
                for pool in ([] if _POOL is None else [_POOL])]


def shutdown_rank_pools() -> None:
    """Tear down the live rank pool, if any (parked workers exit cleanly).

    Registered via ``atexit`` so pooled runs never leave orphan rank
    processes behind; callers may also invoke it explicitly (benches between
    sweeps, tests asserting a clean slate).
    """
    global _POOL, _POOL_EVICTED
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
        _POOL_EVICTED = False
    if pool is not None:
        pool.shutdown()


atexit.register(shutdown_rank_pools)


class ProcessBackend:
    """Ranks are OS processes; collectives move typed buffers in shared memory.

    The ranks are the persistent :class:`_RankPool` of this rank count,
    forked on the first run and parked on a barrier between runs.  Jobs
    cross a queue, so ``fn`` and its arguments must be picklable.
    """

    def run(self, n_ranks, fn, args, kwargs, trace, sanitize, faults):
        """Execute ``fn(comm, *args, **kwargs)`` on every rank, return results
        in rank order; raise :class:`RankFailedError` if any rank failed."""
        return _acquire_pool(n_ranks).run(fn, args, kwargs, trace, sanitize,
                                          faults)
