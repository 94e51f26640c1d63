"""SPMD communicator with MPI-like collectives over a pluggable engine.

Each rank of an :func:`repro.mpisim.runtime.spmd_run` execution holds one
:class:`SimCommunicator`; all communicators of a run share one *collective
engine* with one transport: a split-phase publish/consume handshake
(``exchange_start``/``exchange_finish``, see :class:`CollectiveEngine`) over
two kinds of slot:

* the :data:`EXCHANGE_SLOTS` **ring slots** carry ``alltoall``/``alltoallv``
  — a split exchange may stay in flight while the next one starts, and a
  blocking exchange is one start followed immediately by its finish;
* the one **blocking slot** carries the small collectives (barrier, bcast,
  gather, allgather, reduce, allreduce) and the sanitizer's congruence
  check: every rank publishes its contribution to every rank, collects all
  of them, and combines them locally in rank order, so every rank computes
  the same value without a coordinator.

The communicator owns the *semantics* of every collective (the ``combine``
functions below) and the byte accounting; the engine owns the *transport*.
Two engines exist: the thread engine in this module (ranks share one address
space, payloads move by reference) and the shared-memory process engine in
:mod:`repro.mpisim.backend` (payloads cross process boundaries as typed
buffers — see :mod:`repro.mpisim.serialization`).  Both inherit the
handshake, its op-name check and the sanitizer's lifecycle guards from
:class:`CollectiveEngine`.

This mirrors MPI semantics closely enough for the pipeline — in particular
``alltoallv`` delivers, to each rank, exactly the payloads addressed to it by
every source rank, in source-rank order — while also giving the simulator a
single choke point at which to do byte accounting and mismatch detection.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

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

#: How long a rank may wait in any collective before declaring the run
#: wedged.  This bounds *synchronisation* stalls, not compute: a rank
#: legitimately waits for as long as the slowest peer computes, so the
#: default is generous.  Override with DIBELLA_BARRIER_TIMEOUT (seconds);
#: the sanitizer's watchdog tightens it (:func:`collective_timeout`).
_BARRIER_TIMEOUT = float(os.environ.get("DIBELLA_BARRIER_TIMEOUT", "600"))

#: Number of split-phase exchange supersteps that may be in flight per rank.
#: Both engines keep one ring slot per in-flight superstep, selected by
#: ``seq % EXCHANGE_SLOTS``; ``alltoallv_start`` for superstep ``seq``
#: blocks until every rank consumed superstep ``seq - EXCHANGE_SLOTS``.  Two
#: slots are the classic double buffer and enough for every pipeline
#: schedule; the engines are written against this constant, so deeper
#: pipelines only need a bigger value here.
EXCHANGE_SLOTS = 2

#: Index of the blocking slot, after the ring.  It has its own sequence
#: counter so a small collective never waits on a ring slot that an
#: unfinished split exchange still holds (under the sanitizer every
#: ``alltoallv_start`` is preceded by a congruence round).
BLOCKING_SLOT = EXCHANGE_SLOTS

#: Slots per engine: the ring plus the blocking slot.
N_SLOTS = EXCHANGE_SLOTS + 1

#: Op name of the sanitizer's congruence round.  It is deliberately
#: constant — every rank enters the *same* round even when their real
#: collectives diverge, so the check itself always completes and each rank
#: can report exactly which ranks called what.
SANITIZE_OP = "__sanitize__"

#: Sentinel written into a thread-engine slot once every rank has consumed
#: it (sanitizer only).  A stale reader that slips past the sequence guards
#: trips on this instead of on reused payloads.
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


class CollectiveEngine:
    """The one transport underneath :class:`SimCommunicator`.

    ``exchange_start(rank, op_name, send, slot, seq) -> token`` /
    ``exchange_finish(rank, token) -> received`` is a publish/consume
    handshake with **no global barrier**: ``start`` waits only until every
    rank has consumed what this rank last published in *slot*, publishes
    ``send`` (one payload per destination) as the slot's superstep *seq*,
    and returns; ``finish`` waits until every rank has published *seq* in
    the slot, checks that all ranks called the same op, and returns the
    payloads addressed to this rank in source-rank order.  The caller may
    compute (or start another superstep in another slot) between the two
    calls — that compute overlaps the peers' publishes and reads.

    Per slot, ``_published[slot][q]`` and ``_consumed[slot][q]`` hold rank
    *q*'s last published and consumed sequence numbers, guarded by
    ``_cond``.  Subclasses store the payloads (``_encode``, ``_publish``,
    ``_read``, ``_slot_ops``) and implement ``abort``, which wakes every rank blocked
    in a wait with ``BrokenBarrierError``; ``aborted_by_peer`` tells that
    wake-up from a wait that timed out on its own.
    """

    n_ranks: int
    sanitize: bool
    aborted_by_peer: bool

    def _wait(self, predicate: Callable[[], bool]) -> None:
        """Wait under the handshake condition; abort/timeout -> BrokenBarrierError.

        The wait is chunked (1 s slices) so a notify lost to process
        scheduling can only delay, never wedge, the handshake.
        """
        deadline = time.monotonic() + collective_timeout(self.sanitize)
        with self._cond:
            while True:
                if self.aborted_by_peer:
                    raise threading.BrokenBarrierError
                if predicate():
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise threading.BrokenBarrierError
                self._cond.wait(timeout=min(remaining, 1.0))

    def exchange_start(self, rank: int, op_name: str, send: list[Any],
                       slot: int, seq: int) -> Any:
        """Publish this rank's superstep *seq* in *slot*; no global barrier."""
        published, consumed = self._published[slot], self._consumed[slot]
        last = published[rank]
        # Encode before waiting, so the encoding overlaps the peers' reads.
        encoded = self._encode(send)
        self._wait(lambda: all(consumed[q] >= last for q in range(self.n_ranks)))
        own = self._publish(rank, slot, seq, op_name, encoded)
        with self._cond:
            published[rank] = seq
            self._cond.notify_all()
        return (slot, seq, own)

    def exchange_finish(self, rank: int, token: Any) -> list[Any]:
        """Collect superstep *token*'s payloads once every rank has published."""
        slot, seq, own = token
        published, consumed = self._published[slot], self._consumed[slot]
        if self.sanitize:
            # Fail fast on lifecycle bugs that would otherwise hang (waiting
            # for a publish that never happened) or re-read a consumed slot.
            if published[rank] < seq:
                raise SegmentStateError(
                    f"sanitizer: rank {rank} finishing split-phase superstep "
                    f"{seq} it never started (read-before-publish; slot "
                    f"{slot} last published seq {published[rank]})"
                )
            if consumed[rank] >= seq:
                raise SegmentStateError(
                    f"sanitizer: rank {rank} finishing split-phase superstep "
                    f"{seq} twice (slot {slot} already consumed through seq "
                    f"{consumed[rank]})"
                )
        self._wait(lambda: all(published[q] >= seq for q in range(self.n_ranks)))
        if self.sanitize:
            stale = [q for q in range(self.n_ranks) if published[q] != seq]
            if stale:
                raise SegmentStateError(
                    f"sanitizer: rank {rank} reading split-phase superstep "
                    f"{seq} after ranks {stale} rewrote slot {slot} "
                    f"(use-after-release; their published seqs are "
                    f"{[int(published[q]) for q in stale]})"
                )
        names = set(self._slot_ops(slot))
        if len(names) != 1:
            raise CollectiveMismatchError(
                f"ranks disagree on collective: {sorted(names)}"
            )
        received = self._read(rank, slot, own)
        with self._cond:
            consumed[rank] = seq
            self._on_consumed(slot, seq)
            self._cond.notify_all()
        return received

    def _encode(self, send: list[Any]) -> list[Any]:
        """Per-destination payloads in the engine's storage form."""
        return send

    def _publish(self, rank: int, slot: int, seq: int, op_name: str,
                 send: list[Any]) -> Any:
        """Store the encoded *send* and *op_name* as this rank's entry in
        *slot*; the return value travels in the token to :meth:`_read`."""
        raise NotImplementedError

    def _slot_ops(self, slot: int) -> list[str]:
        """Every rank's published op name in *slot*."""
        raise NotImplementedError

    def _read(self, rank: int, slot: int, own: Any) -> list[Any]:
        """The payloads addressed to *rank* in *slot*, in source-rank order."""
        raise NotImplementedError

    def _on_consumed(self, slot: int, seq: int) -> None:
        """Hook run under the condition after a rank marks *seq* consumed."""


@dataclass
class ExchangeHandle:
    """In-flight split-phase exchange returned by :meth:`SimCommunicator.alltoallv_start`.

    ``token`` is the engine's ``(slot, seq, own)`` triple.  ``label`` is the
    phase label the exchange was started under (diagnostics; the engines
    validate it as part of the op name).  ``consumed`` is set by
    ``alltoallv_finish`` so the sanitizer can flag a handle finished twice.
    """

    op_name: str
    token: Any = None
    label: str | None = None
    consumed: bool = False


class _CollectiveState(CollectiveEngine):
    """Thread engine: state shared by all ranks of one SPMD execution.

    Payloads move between ranks by reference — all ranks live in one
    address space, so no serialisation happens.
    """

    def __init__(self, n_ranks: int, sanitize: bool = False):
        self.n_ranks = n_ranks
        #: Runtime-sanitizer flag; communicators read it via the engine so
        #: the whole run (and every pooled worker) agrees on the mode.
        self.sanitize = sanitize
        self._cond = threading.Condition()
        self._aborted = False
        self._ops: list[list[str | None]] = [[None] * n_ranks for _ in range(N_SLOTS)]
        self._payloads: list[list[Any]] = [[None] * n_ranks for _ in range(N_SLOTS)]
        self._published = [[-1] * n_ranks for _ in range(N_SLOTS)]
        self._consumed = [[-1] * n_ranks for _ in range(N_SLOTS)]

    def abort(self) -> None:
        """Wake every rank blocked in a wait so it terminates."""
        self._aborted = True
        with self._cond:
            self._cond.notify_all()

    @property
    def aborted_by_peer(self) -> bool:
        """Whether :meth:`abort` was called (vs a wait timing out on its own).

        The communicator uses this to tell a genuine hang (raise
        :class:`CollectiveTimeoutError`) from the expected wake-up after a
        peer's failure (stay quiet, the peer reports the real error).
        """
        return self._aborted

    def _publish(self, rank, slot, seq, op_name, send):
        self._ops[slot][rank] = op_name
        self._payloads[slot][rank] = send
        return None

    def _slot_ops(self, slot):
        return self._ops[slot]

    def _read(self, rank, slot, own):
        payloads = self._payloads[slot]
        if self.sanitize and any(p is _POISONED for p in payloads):
            raise SegmentStateError(
                f"sanitizer: rank {rank} read a poisoned segment in slot "
                f"{slot} (its superstep was already consumed by every rank)"
            )
        return [payloads[src][rank] for src in range(self.n_ranks)]

    def _on_consumed(self, slot, seq):
        if self.sanitize and all(c >= seq for c in self._consumed[slot]):
            # Last consumer: poison the slot so any reader that slips past
            # the sequence guards trips on the sentinel.
            self._payloads[slot] = [_POISONED] * self.n_ranks


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
        # Sequence numbers of the ring (exchanges) and of the blocking slot
        # (small collectives); SPMD discipline (all ranks issue the same
        # collectives in the same order) keeps both identical across the
        # ranks of a run, so the ring's doubles as its slot selector.
        self._xchg_seq = 0
        self._blocking_seq = 0
        # Runtime sanitizer: the mode is a property of the *engine* (set by
        # the backend from spmd_run's resolved flag) so every rank of a run
        # — including pooled process workers forked long ago — agrees on it.
        self._sanitize = bool(engine.sanitize)
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

    def _collective(self, op_name: str, contribution: Any,
                    combine: Callable[[list[Any]], Any],
                    signature: str = "") -> Any:
        """Run one small collective through the blocking slot.

        Every rank publishes *contribution* to every rank and applies
        *combine* to all ranks' contributions, in rank order, to get its
        own result.  Under the sanitizer this is preceded by the congruence
        check (see :meth:`_sanitize_congruence`): *signature* is the payload
        digest that must agree across ranks for this op ("" for ops whose
        payloads are legitimately rank-asymmetric, e.g. ``bcast``).
        """
        if self._faults is not None:
            self._faults.before_op(op_name, self._phase)
        if self._sanitize:
            self._sanitize_congruence(op_name, signature)
        return combine(self._blocking_round(op_name, contribution))

    def _blocking_round(self, op_name: str, value: Any) -> list[Any]:
        """Publish *value* to every rank in the blocking slot; return every
        rank's value in rank order."""
        seq = self._blocking_seq
        self._blocking_seq += 1
        token = self._engine_call(self._engine.exchange_start, self.rank, op_name,
                                  [value] * self.size, BLOCKING_SLOT, seq)
        return self._engine_call(self._engine.exchange_finish, self.rank, token)

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

        Every rank publishes its (op name, payload digest) in a
        constant-named blocking round — constant so the check itself always
        completes even when the real ops diverge — and compares all ranks'
        digests, raising a :class:`CollectiveMismatchError` naming the
        diverging ranks.  The round moves a few dozen bytes per rank and
        bypasses the byte accounting entirely, so sanitized runs trace
        identically to unsanitized ones.
        """
        digest = f"{op_name}|{signature}" if signature else op_name
        log = self._collective_log
        if log is not None:
            log.record(f"#{log.total_recorded} {digest}")
        groups: dict[str, list[int]] = {}
        for peer, value in enumerate(self._blocking_round(SANITIZE_OP, digest)):
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

    # -- collectives -------------------------------------------------------------

    def barrier(self) -> None:
        """Synchronise all ranks."""
        self._collective("barrier", None, lambda contribs: None)

    def bcast(self, value: Any, root: int = 0) -> Any:
        """Broadcast *value* from *root* to every rank."""
        self._check_root(root)
        result = self._collective("bcast", value if self.rank == root else None,
                                  lambda contribs: contribs[root])
        self._record_pointwise(root, payload_nbytes(result), from_root=True)
        return result

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank onto *root* (other ranks get ``None``)."""
        self._check_root(root)
        self._record_pointwise(root, payload_nbytes(value), from_root=False)
        return self._collective(
            "gather", value,
            lambda contribs: contribs if self.rank == root else None)

    def allgather(self, value: Any) -> list[Any]:
        """Gather one value per rank onto every rank."""
        self._record_broadcast(payload_nbytes(value))
        return self._collective("allgather", value, lambda contribs: contribs)

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | str = "sum") -> Any:
        """Reduce one value per rank with *op* and return the result everywhere.

        ``op`` may be ``"sum"``, ``"max"``, ``"min"`` or a binary callable;
        every rank folds all contributions in rank order.
        """
        reducer = self._resolve_reducer(op)
        self._record_broadcast(payload_nbytes(value))
        return self._collective(f"allreduce:{op}", value,
                                lambda contribs: functools.reduce(reducer, contribs),
                                signature=payload_signature(value))

    def reduce(self, value: Any, op: Callable[[Any, Any], Any] | str = "sum",
               root: int = 0) -> Any:
        """Reduce one value per rank onto *root* (other ranks get ``None``)."""
        self._check_root(root)
        reducer = self._resolve_reducer(op)

        def combine(contribs: list[Any]) -> Any:
            total = functools.reduce(reducer, contribs)
            return total if self.rank == root else None

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
                                  op_name, send, seq % EXCHANGE_SLOTS, seq)
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
