"""SPMD communicator with MPI-like collectives over a pluggable engine.

Each rank of an :func:`repro.mpisim.runtime.spmd_run` execution holds one
:class:`SimCommunicator`; all communicators of a run share one *collective
engine* with two transports:

* the **exchange** transport behind ``alltoall``/``alltoallv`` — a
  split-phase publish/consume handshake over double-buffered slots
  (``exchange_start``/``exchange_finish``, see :class:`CollectiveEngine`);
  a blocking exchange is one start followed immediately by its finish;
* the **central** transport behind the small collectives (barrier, bcast,
  gather, reductions) — a synchronised deposit/combine/collect protocol:

  1. every rank deposits its contribution and the name of the collective it
     is calling into its own slot and waits on a barrier;
  2. the rank elected by the barrier validates that all ranks called the
     same collective (raising :class:`CollectiveMismatchError` otherwise),
     computes the per-rank results, and releases the barrier;
  3. every rank picks up its result and synchronises once more so slots can
     be reused by the next collective.

The communicator owns the *semantics* of every collective (the ``combine``
functions below) and the byte accounting; the engine owns the *transport*.
Two engines exist: the thread engine in this module (ranks share one address
space, payloads move by reference) and the shared-memory process engine in
:mod:`repro.mpisim.backend` (payloads cross process boundaries as typed
buffers — see :mod:`repro.mpisim.serialization`).

This mirrors MPI semantics closely enough for the pipeline — in particular
``alltoallv`` delivers, to each rank, exactly the payloads addressed to it by
every source rank, in source-rank order — while also giving the simulator a
single choke point at which to do byte accounting and mismatch detection.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Protocol, Sequence

import numpy as np

from repro.mpisim.collectives import payload_nbytes, payload_signature
from repro.mpisim.errors import (
    CollectiveMismatchError,
    CollectiveTimeoutError,
    SegmentStateError,
)
from repro.mpisim.faults import RunFaults
from repro.mpisim.sanitize import TRACE_DEPTH, watchdog_timeout
from repro.mpisim.topology import Topology
from repro.mpisim.tracing import CollectiveLog, CommTrace

#: Combine function signature: per-rank contributions -> per-rank results.
CombineFn = Callable[[list[Any]], list[Any]]

#: How long a rank may wait in any collective before declaring the run
#: wedged.  This bounds *synchronisation* stalls, not compute: a rank
#: legitimately waits for as long as the slowest peer computes, so the
#: default is generous.  Override with DIBELLA_BARRIER_TIMEOUT (seconds);
#: the sanitizer's watchdog tightens it (:func:`collective_timeout`).
_BARRIER_TIMEOUT = float(os.environ.get("DIBELLA_BARRIER_TIMEOUT", "600"))

#: Number of split-phase exchange supersteps that may be in flight per rank.
#: Both engines keep one deposit-slot set per in-flight superstep, selected
#: by ``seq % EXCHANGE_SLOTS``; ``alltoallv_start`` for superstep ``seq``
#: blocks until every rank consumed superstep ``seq - EXCHANGE_SLOTS``.  Two
#: slots are the classic double buffer and enough for every pipeline
#: schedule; the engines are written against this constant, so deeper
#: pipelines only need a bigger value here.
EXCHANGE_SLOTS = 2

#: Engine op name of the sanitizer's congruence pre-check collective.  It is
#: deliberately constant — every rank enters the *same* engine op even when
#: their real collectives diverge, so the check itself always completes and
#: the combine can report exactly which ranks called what.
SANITIZE_OP = "__sanitize__"

#: Sentinel written into a thread-engine exchange slot once every rank has
#: consumed it (sanitizer only).  A stale reader that slips past the
#: sequence guards trips on this instead of on reused payloads.
_POISONED = object()


def collective_timeout(sanitize: bool) -> float:
    """Seconds one collective wait may block: the watchdog bound when
    *sanitize*, else :data:`_BARRIER_TIMEOUT`."""
    return watchdog_timeout() if sanitize else _BARRIER_TIMEOUT


def exchange_op_name(base: str, label: str | None) -> str:
    """The engine op name of an exchange, phase-labelled when *label* is set.

    Labelled ops (``"alltoallv[overlap]"``) make schedule collisions
    loud: if two ranks reach different stages' exchanges — or the alignment
    fetch's request and response hops get out of step — the engines' op-name
    validation raises :class:`CollectiveMismatchError` instead of silently
    handing one stage's payloads to another.
    """
    return base if label is None else f"{base}[{label}]"


class CollectiveEngine(Protocol):
    """Transport protocol underneath :class:`SimCommunicator`.

    ``execute`` runs one small central collective for the calling rank and
    blocks until the result is available; every rank of the execution must
    call it with the same ``op_name`` (engines detect mismatches and raise
    on every rank).  ``abort`` wakes ranks blocked inside a collective when
    a peer fails; ``aborted_by_peer`` tells that wake-up from a wait that
    timed out on its own.

    ``exchange_start(rank, op_name, send, seq) -> token`` /
    ``exchange_finish(rank, token) -> received`` is the *split-phase
    exchange* pair — a publish/consume handshake with **no global barrier
    on the fast path**: ``start`` waits only until the double-buffered slot
    of ``seq`` is free for rewrite (all ranks consumed superstep
    ``seq - 2``), publishes, and returns; ``finish`` waits until every rank
    has published superstep ``seq`` and reads.  The caller may compute (or
    even start superstep ``seq + 1``) between the two calls — that compute
    overlaps the peers' publishes and reads.
    """

    n_ranks: int
    aborted_by_peer: bool

    def execute(self, rank: int, op_name: str, contribution: Any,
                combine: CombineFn) -> Any: ...

    def exchange_start(self, rank: int, op_name: str, send: list[Any],
                       seq: int) -> Any: ...

    def exchange_finish(self, rank: int, token: Any) -> list[Any]: ...

    def abort(self) -> None: ...


@dataclass
class ExchangeHandle:
    """In-flight split-phase exchange returned by :meth:`SimCommunicator.alltoallv_start`.

    ``token`` is engine-specific state.  ``label`` is the phase label the
    exchange was started under (diagnostics; the engines validate it as part
    of the op name).  ``consumed`` is set by ``alltoallv_finish`` so the
    sanitizer can flag a handle finished twice.
    """

    op_name: str
    token: Any = None
    label: str | None = None
    consumed: bool = False


class _CollectiveState:
    """Thread engine: state shared by all ranks of one SPMD execution.

    Contributions and results move between ranks by reference — all ranks
    live in one address space, so no serialisation happens.  The elected rank
    (barrier index 0) runs the combine while the others wait.
    """

    def __init__(self, n_ranks: int, sanitize: bool = False):
        self.n_ranks = n_ranks
        #: Runtime-sanitizer flag; communicators read it via the engine so
        #: the whole run (and every pooled worker) agrees on the mode.
        self.sanitize = sanitize
        self.barrier = threading.Barrier(n_ranks)
        self.op_names: list[str | None] = [None] * n_ranks
        self.contributions: list[Any] = [None] * n_ranks
        self.results: list[Any] = [None] * n_ranks
        self.error: BaseException | None = None
        # Split-phase exchange state: one deposit-slot set per in-flight
        # superstep (EXCHANGE_SLOTS of them — the double buffer) and per-slot
        # publish/consume sequence numbers guarded by one Condition — the
        # exchange fast path never touches the global barrier.
        self._x_cond = threading.Condition()
        self._x_aborted = False
        self._x_ops: list[list[str | None]] = [
            [None] * n_ranks for _ in range(EXCHANGE_SLOTS)]
        self._x_contribs: list[list[Any]] = [
            [None] * n_ranks for _ in range(EXCHANGE_SLOTS)]
        self._x_published = [[-1] * n_ranks for _ in range(EXCHANGE_SLOTS)]
        self._x_consumed = [[-1] * n_ranks for _ in range(EXCHANGE_SLOTS)]

    def abort(self) -> None:
        """Break the barrier so ranks blocked in a collective terminate."""
        # Flag before breaking the barrier: a rank it wakes must already see
        # aborted_by_peer, or the sanitizer reports a watchdog timeout.
        self._x_aborted = True
        self.barrier.abort()
        with self._x_cond:
            self._x_cond.notify_all()

    @property
    def aborted_by_peer(self) -> bool:
        """Whether :meth:`abort` was called (vs a wait timing out on its own).

        The communicator uses this to tell a genuine hang (raise
        :class:`CollectiveTimeoutError`) from the expected wake-up after a
        peer's failure (stay quiet, the peer reports the real error).
        """
        return self._x_aborted

    # -- split-phase exchange (see CollectiveEngine) --------------------------

    def _x_wait(self, predicate: Callable[[], bool]) -> None:
        """Wait under the exchange condition; abort/timeout -> BrokenBarrierError."""
        timeout = collective_timeout(self.sanitize)
        with self._x_cond:
            ok = self._x_cond.wait_for(
                lambda: self._x_aborted or predicate(), timeout=timeout
            )
            if self._x_aborted or not ok:
                raise threading.BrokenBarrierError

    def exchange_start(self, rank: int, op_name: str, send: list[Any],
                       seq: int) -> Any:
        """Publish this rank's superstep-*seq* contribution; no global barrier.

        Blocks only until slot ``seq % EXCHANGE_SLOTS`` is reusable — every
        rank has consumed superstep ``seq - EXCHANGE_SLOTS`` (trivially true
        for the first EXCHANGE_SLOTS supersteps) — which is what bounds a
        rank to EXCHANGE_SLOTS live contributions.
        """
        slot = seq % EXCHANGE_SLOTS
        self._x_wait(lambda: all(c >= seq - EXCHANGE_SLOTS
                                 for c in self._x_consumed[slot]))
        with self._x_cond:
            self._x_ops[slot][rank] = op_name
            self._x_contribs[slot][rank] = send
            self._x_published[slot][rank] = seq
            self._x_cond.notify_all()
        return seq

    def exchange_finish(self, rank: int, token: Any) -> list[Any]:
        """Collect superstep *token*'s payloads once every rank has published."""
        seq = token
        slot = seq % EXCHANGE_SLOTS
        if self.sanitize:
            # Fail fast on lifecycle bugs that would otherwise hang (waiting
            # for a publish that never happened) or silently read reused data.
            if self._x_published[slot][rank] < seq:
                raise SegmentStateError(
                    f"sanitizer: rank {rank} finishing split-phase superstep "
                    f"{seq} it never started (read-before-publish; slot "
                    f"{slot} last published seq {self._x_published[slot][rank]})"
                )
            if self._x_consumed[slot][rank] >= seq:
                raise SegmentStateError(
                    f"sanitizer: rank {rank} finishing split-phase superstep "
                    f"{seq} twice (slot {slot} already consumed through seq "
                    f"{self._x_consumed[slot][rank]})"
                )
        self._x_wait(lambda: all(p >= seq for p in self._x_published[slot]))
        if self.sanitize:
            stale = [q for q in range(self.n_ranks)
                     if self._x_published[slot][q] != seq]
            if stale:
                raise SegmentStateError(
                    f"sanitizer: rank {rank} reading split-phase superstep "
                    f"{seq} after ranks {stale} rewrote slot {slot} "
                    f"(use-after-release; their published seqs are "
                    f"{[self._x_published[slot][q] for q in stale]})"
                )
        names = {self._x_ops[slot][q] for q in range(self.n_ranks)}
        if len(names) != 1:
            raise CollectiveMismatchError(
                f"ranks disagree on split-phase collective: "
                f"{sorted(str(n) for n in names)}"
            )
        contribs = [self._x_contribs[slot][src] for src in range(self.n_ranks)]
        if self.sanitize and any(c is _POISONED for c in contribs):
            raise SegmentStateError(
                f"sanitizer: rank {rank} read a poisoned split-phase segment "
                f"in slot {slot} (superstep {seq} was already consumed by "
                "every rank)"
            )
        received = [contribs[src][rank] for src in range(self.n_ranks)]
        with self._x_cond:
            self._x_consumed[slot][rank] = seq
            if self.sanitize and all(c >= seq for c in self._x_consumed[slot]):
                # Last consumer: poison the slot so any reader that slips
                # past the sequence guards trips on the sentinel.
                self._x_contribs[slot] = [_POISONED] * self.n_ranks
            self._x_cond.notify_all()
        return received

    def execute(self, rank: int, op_name: str, contribution: Any,
                combine: CombineFn) -> Any:
        """Run one collective: deposit, combine on the elected rank, collect."""
        self.op_names[rank] = op_name
        self.contributions[rank] = contribution

        # A timed-out wait breaks the barrier for every rank, exactly like
        # an abort; the communicator converts it into a
        # CollectiveTimeoutError.
        timeout = collective_timeout(self.sanitize)

        index = self.barrier.wait(timeout)
        if index == 0:
            try:
                names = set(self.op_names)
                if len(names) != 1:
                    raise CollectiveMismatchError(
                        f"ranks disagree on collective: {sorted(str(n) for n in names)}"
                    )
                self.results = combine(list(self.contributions))
                self.error = None
            except BaseException as exc:  # propagate to every rank below
                self.error = exc
                self.results = [None] * self.n_ranks

        self.barrier.wait(timeout)
        error = self.error
        result = self.results[rank]

        # Final synchronisation so no rank starts the next collective while
        # laggards are still reading results from this one.
        self.barrier.wait(timeout)
        if error is not None:
            raise error
        return result


class SimCommunicator:
    """Per-rank handle onto the simulated communicator.

    Parameters
    ----------
    rank, size:
        This rank's index and the total number of ranks.
    engine:
        The shared :class:`CollectiveEngine` (one per SPMD execution).
    topology:
        Rank→node mapping; defaults to a single node hosting all ranks.
    trace:
        Optional :class:`CommTrace` receiving byte/message accounting.
    faults:
        Optional :class:`~repro.mpisim.faults.RunFaults` bound to this run;
        the rank's injector fires before each collective it issues (see
        :mod:`repro.mpisim.faults` for the superstep-ordinal semantics).
    """

    def __init__(
        self,
        rank: int,
        size: int,
        engine: CollectiveEngine,
        topology: Topology | None = None,
        trace: CommTrace | None = None,
        faults: RunFaults | None = None,
    ) -> None:
        if not (0 <= rank < size):
            raise ValueError(f"rank {rank} out of range for size {size}")
        self.rank = rank
        self.size = size
        self._engine = engine
        self.topology = topology or Topology.single_node(size)
        if self.topology.n_ranks != size:
            raise ValueError(
                f"topology has {self.topology.n_ranks} ranks but communicator has {size}"
            )
        self.trace = trace
        # Split-phase exchange sequence number; SPMD discipline (all ranks
        # issue the same collectives in the same order) keeps it identical
        # across the ranks of a run, so it doubles as the engine's
        # double-buffer slot selector.
        self._xchg_seq = 0
        # Runtime sanitizer: the mode is a property of the *engine* (set by
        # the backend from spmd_run's resolved flag) so every rank of a run
        # — including pooled process workers forked long ago — agrees on it.
        # Engines without the attribute (custom test engines) run unchecked.
        self._sanitize = bool(getattr(engine, "sanitize", False))
        self._collective_log = CollectiveLog(TRACE_DEPTH) if self._sanitize else None
        # Current phase label, tracked trace-or-not: fault specs with a
        # stage= criterion match against it.
        self._phase = ""
        self._faults = faults.injector(rank) if faults is not None else None

    # -- phase labelling -------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        """Attribute subsequent traffic from this rank to *phase* in the trace."""
        self._phase = phase
        if self.trace is not None:
            self.trace.set_phase(self.rank, phase)

    # -- core synchronisation protocol ------------------------------------------

    def _collective(self, op_name: str, contribution: Any, combine: CombineFn,
                    signature: str = "") -> Any:
        """Run one collective through the engine.

        Under the sanitizer this is preceded by the congruence pre-check
        (see :meth:`_sanitize_congruence`): *signature* is the payload digest
        that must agree across ranks for this op ("" for ops whose payloads
        are legitimately rank-asymmetric, e.g. ``bcast``).
        """
        if self._faults is not None:
            self._faults.before_op(op_name, self._phase)
        if self._sanitize:
            self._sanitize_congruence(op_name, signature)
        return self._engine_call(
            self._engine.execute, self.rank, op_name, contribution, combine
        )

    def _engine_call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Invoke an engine entry point, converting timed-out waits.

        A ``BrokenBarrierError`` out of the engine means either a peer
        failed (its abort broke the wait — stay quiet, the peer reports the
        real error) or this rank's own bounded wait timed out: a genuine
        hang.  The latter becomes a :class:`CollectiveTimeoutError`, with
        this rank's last-N collective trace under the sanitizer.
        """
        try:
            return fn(*args)
        except threading.BrokenBarrierError:
            if self._engine.aborted_by_peer:
                raise
            knob = ("DIBELLA_SANITIZE_TIMEOUT" if self._sanitize
                    else "DIBELLA_BARRIER_TIMEOUT")
            message = (f"collective watchdog: rank {self.rank} timed out "
                       f"after {collective_timeout(self._sanitize):g}s in a "
                       f"collective ({knob})")
            log = self._collective_log
            if log is not None:
                message += (f"; last {len(log)} of {log.total_recorded} "
                            f"collectives on this rank, oldest first:\n"
                            f"{log.dump()}")
            raise CollectiveTimeoutError(message) from None

    def _sanitize_congruence(self, op_name: str, signature: str) -> None:
        """Cross-rank congruence check run before a sanitized collective.

        Every rank contributes its (op name, payload digest) through a
        constant-named engine collective — constant so the check itself
        always completes even when the real ops diverge — and the elected
        rank compares them, raising a :class:`CollectiveMismatchError`
        naming the diverging ranks.  The check moves a few dozen bytes per
        rank and bypasses the byte accounting entirely, so sanitized runs
        trace identically to unsanitized ones.
        """
        digest = f"{op_name}|{signature}" if signature else op_name
        log = self._collective_log
        if log is not None:
            log.record(f"#{log.total_recorded} {digest}")
        size = self.size

        def combine(contribs: list[Any]) -> list[Any]:
            groups: dict[str, list[int]] = {}
            for peer, value in enumerate(contribs):
                groups.setdefault(str(value), []).append(peer)
            if len(groups) > 1:
                detail = "; ".join(
                    f"rank(s) {ranks} called {value}"
                    for value, ranks in sorted(groups.items())
                )
                raise CollectiveMismatchError(
                    f"sanitizer: collective congruence check failed — ranks "
                    f"diverge on (op|payload digest): {detail}"
                )
            return [None] * size

        self._engine_call(
            self._engine.execute, self.rank, SANITIZE_OP, digest, combine
        )

    # -- collectives -------------------------------------------------------------

    def barrier(self) -> None:
        """Synchronise all ranks."""
        self._collective("barrier", None, lambda contribs: [None] * self.size)

    def bcast(self, value: Any, root: int = 0) -> Any:
        """Broadcast *value* from *root* to every rank."""
        self._check_root(root)

        def combine(contribs: list[Any]) -> list[Any]:
            return [contribs[root]] * self.size

        result = self._collective("bcast", value if self.rank == root else None, combine)
        self._record_pointwise(root, payload_nbytes(result), from_root=True)
        return result

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank onto *root* (other ranks get ``None``)."""
        self._check_root(root)

        def combine(contribs: list[Any]) -> list[Any]:
            gathered = list(contribs)
            return [gathered if r == root else None for r in range(self.size)]

        self._record_pointwise(root, payload_nbytes(value), from_root=False)
        return self._collective("gather", value, combine)

    def allgather(self, value: Any) -> list[Any]:
        """Gather one value per rank onto every rank."""

        def combine(contribs: list[Any]) -> list[Any]:
            gathered = list(contribs)
            return [list(gathered) for _ in range(self.size)]

        self._record_broadcast(payload_nbytes(value))
        return self._collective("allgather", value, combine)

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | str = "sum") -> Any:
        """Reduce one value per rank with *op* and return the result everywhere.

        ``op`` may be ``"sum"``, ``"max"``, ``"min"`` or a binary callable.
        """
        reducer = self._resolve_reducer(op)

        def combine(contribs: list[Any]) -> list[Any]:
            acc = contribs[0]
            for item in contribs[1:]:
                acc = reducer(acc, item)
            return [acc] * self.size

        self._record_broadcast(payload_nbytes(value))
        return self._collective(f"allreduce:{op}", value, combine,
                                signature=payload_signature(value))

    def reduce(self, value: Any, op: Callable[[Any, Any], Any] | str = "sum",
               root: int = 0) -> Any:
        """Reduce one value per rank onto *root* (other ranks get ``None``)."""
        self._check_root(root)
        reducer = self._resolve_reducer(op)

        def combine(contribs: list[Any]) -> list[Any]:
            acc = contribs[0]
            for item in contribs[1:]:
                acc = reducer(acc, item)
            return [acc if r == root else None for r in range(self.size)]

        self._record_pointwise(root, payload_nbytes(value), from_root=False)
        return self._collective(f"reduce:{op}", value, combine,
                                signature=payload_signature(value))

    def alltoall(self, send: Sequence[Any]) -> list[Any]:
        """Personalised exchange of exactly one item per destination rank."""
        send = list(send)
        if len(send) != self.size:
            raise ValueError(f"alltoall needs {self.size} items, got {len(send)}")
        return self.alltoallv_finish(self._exchange_start("alltoall", send))

    def alltoallv(self, send: Sequence[Any], label: str | None = None) -> list[Any]:
        """Irregular personalised exchange (variable-size payload per destination).

        ``send[d]`` is the payload this rank sends to rank ``d`` (any object;
        numpy arrays are the fast path).  The return value is a list where
        entry ``s`` is the payload received from rank ``s``.  ``label``
        optionally phase-labels the op name (see :func:`exchange_op_name`)
        so schedules from different stages can never be confused for one
        another by the mismatch detection.  It is one
        :meth:`alltoallv_start` followed immediately by its
        :meth:`alltoallv_finish`.
        """
        return self.alltoallv_finish(self.alltoallv_start(send, label=label))

    # -- exchange transport: split-phase publish/consume ------------------------

    def alltoallv_start(self, send: Sequence[Any],
                        label: str | None = None) -> ExchangeHandle:
        """Begin an ``alltoallv`` without blocking for the peers' reads.

        Publishes this rank's per-destination payloads and returns an
        :class:`ExchangeHandle`; the matching :meth:`alltoallv_finish`
        collects the received payloads.  Between the two calls the rank may
        compute — that compute overlaps the peers still publishing or reading
        this superstep — and may even start the *next* exchange (the engines
        keep :data:`EXCHANGE_SLOTS` supersteps in flight per rank).  Both
        calls must be issued in the same order on every rank, like any
        collective; a ``label`` stamps the phase into the op name so
        colliding schedules raise instead of mixing payloads.

        Every exchange — blocking or not — is traced, fault-hooked and
        sanitized here, so it counts one Alltoallv call, one superstep
        ordinal and one slot sequence number either way.
        """
        send = list(send)
        if len(send) != self.size:
            raise ValueError(f"alltoallv needs {self.size} payloads, got {len(send)}")
        return self._exchange_start(exchange_op_name("alltoallv", label), send,
                                    label)

    def alltoallv_finish(self, handle: ExchangeHandle) -> list[Any]:
        """Complete a split-phase exchange; returns payloads in source-rank order."""
        if self._sanitize and handle.consumed:
            raise SegmentStateError(
                f"sanitizer: rank {self.rank} called alltoallv_finish twice "
                f"on the same handle ({handle.op_name}); the segment was "
                "released at the first finish"
            )
        received = self._engine_call(
            self._engine.exchange_finish, self.rank, handle.token
        )
        handle.consumed = True
        return received

    # -- helpers ------------------------------------------------------------------

    def _exchange_start(self, op_name: str, send: list[Any],
                        label: str | None = None) -> ExchangeHandle:
        """Trace, fault-hook, sanitize and publish one exchange superstep."""
        if self.trace is not None:
            # One global-Alltoallv ordinal and one per-phase collective call
            # per exchange superstep.
            sizes = np.array([payload_nbytes(p) for p in send], dtype=np.int64)
            self.trace.record_send(self.rank, sizes)
            if self.rank == 0:
                self.trace.record_collective_call(self.trace.current_phase(0))
                self.trace.record_alltoallv_call()
        if self._faults is not None:
            self._faults.before_op(op_name, self._phase)
        if self._sanitize:
            self._sanitize_congruence(op_name, payload_signature(send))
        seq = self._xchg_seq
        self._xchg_seq += 1
        token = self._engine_call(self._engine.exchange_start, self.rank,
                                  op_name, send, seq)
        return ExchangeHandle(op_name=op_name, token=token, label=label)

    def _check_root(self, root: int) -> None:
        if not (0 <= root < self.size):
            raise ValueError(f"root {root} out of range for size {self.size}")

    @staticmethod
    def _resolve_reducer(op: Callable[[Any, Any], Any] | str) -> Callable[[Any, Any], Any]:
        if callable(op):
            return op
        table: dict[str, Callable[[Any, Any], Any]] = {
            "sum": lambda a, b: a + b,
            "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
            "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
        }
        try:
            return table[op]
        except KeyError:
            raise ValueError(f"unknown reduction op {op!r}") from None

    def _record_pointwise(self, root: int, nbytes: int, from_root: bool) -> None:
        """Account a root-based collective: root↔rank traffic only."""
        if self.trace is None or nbytes == 0:
            return
        sizes = np.zeros(self.size, dtype=np.int64)
        if from_root:
            if self.rank == root:
                sizes[:] = nbytes
                sizes[root] = 0
                self.trace.record_send(self.rank, sizes)
        else:
            if self.rank != root:
                sizes[root] = nbytes
                self.trace.record_send(self.rank, sizes)

    def _record_broadcast(self, nbytes: int) -> None:
        """Account an all-to-all-style small collective (allgather/allreduce)."""
        if self.trace is None or nbytes == 0:
            return
        sizes = np.full(self.size, nbytes, dtype=np.int64)
        sizes[self.rank] = 0
        self.trace.record_send(self.rank, sizes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimCommunicator(rank={self.rank}, size={self.size})"
