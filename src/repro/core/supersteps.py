"""The unified superstep scheduler: one exchange engine for the streamed stages.

The streamed stages are, at heart, the same loop: split the local work
into chunks, and for each chunk *generate* per-destination send buffers,
*publish* them with an ``alltoallv``, and *consume* what the peers sent.
:class:`SuperstepSchedule` owns that loop once — global step-count
agreement, the double-buffered split-phase schedule, per-step trace
accounting (inherited from the communicator), and the exposed-vs-overlapped
timer attribution — so the stages only provide the produce/consume
callbacks.  Stages 1-3 (the k-mer exchanges and the chunked pair exchange)
run on it; stage 4's read fetch is a single request/response round and
needs no schedule.

Double buffering changes *when* work happens, not *what* is exchanged: the
payloads a consume callback receives, their order, and the trace
volumes/call counts are those of one blocking ``alltoallv`` per step
(pinned by ``tests/test_supersteps.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.mpisim.communicator import SimCommunicator

__all__ = ["StageTimer", "ScheduleOutcome", "SuperstepSchedule"]

#: Generate the per-destination send payloads of one superstep.  Called for
#: every step in ``[0, n_supersteps)`` including the padding steps past this
#: rank's local work, which must return empty payloads.
ProduceFn = Callable[[int], Sequence[Any]]

#: Consume one superstep's received payloads (in source-rank order).
ConsumeFn = Callable[[int, list[Any]], None]


@dataclass
class StageTimer:
    """Accumulates compute vs exchange wall time for one stage on one rank.

    ``exchange_seconds`` measures *blocking* communication calls only, so
    under the double-buffered schedule it is the **exposed** exchange time;
    ``overlapped_seconds`` measures compute performed while an exchange
    superstep was in flight (latency the double buffering hid).
    """

    compute_seconds: float = 0.0
    exchange_seconds: float = 0.0
    overlapped_seconds: float = 0.0

    class _Section:
        def __init__(self, timer: "StageTimer", attr: str):
            self._timer = timer
            self._attr = attr
            self._start = 0.0

        def __enter__(self) -> "StageTimer._Section":
            self._start = time.perf_counter()
            return self

        def __exit__(self, *exc_info: object) -> None:
            elapsed = time.perf_counter() - self._start
            setattr(self._timer, self._attr,
                    getattr(self._timer, self._attr) + elapsed)

    def compute(self) -> "StageTimer._Section":
        """Context manager timing a local-compute section."""
        return self._Section(self, "compute_seconds")

    def exchange(self) -> "StageTimer._Section":
        """Context manager timing a (blocking) communication section."""
        return self._Section(self, "exchange_seconds")

    def overlapped(self) -> "StageTimer._Section":
        """Context manager timing compute overlapped with an in-flight exchange."""
        return self._Section(self, "overlapped_seconds")


@dataclass(frozen=True)
class ScheduleOutcome:
    """What one schedule run did (feeds the per-stage counters).

    Attributes
    ----------
    n_supersteps : int
        Globally agreed superstep count (the maximum over ranks' local step
        counts; every rank ran exactly this many exchanges).
    steps_overlapped : int
        Number of steps whose produce callback ran while a previous step's
        exchange was still in flight — the latency the double buffer hid
        (``n_supersteps - 1``, or 0 without steps).  A pure function of the
        step count, so it is bit-identical across runtime backends.
    """

    n_supersteps: int
    steps_overlapped: int


class SuperstepSchedule:
    """Runs the generate → publish → consume superstep loop for one stage.

    Parameters
    ----------
    comm : SimCommunicator
        This rank's communicator.  Byte/call accounting happens inside its
        exchange primitives, so every superstep is traced like one blocking
        ``alltoallv``.
    timer : StageTimer
        The stage's wall-clock timer; the schedule attributes produce time
        to ``compute`` (or ``overlapped`` when an exchange is in flight),
        blocking communication to ``exchange``, and consume time to
        ``compute``.
    n_local_steps : int
        This rank's local chunk count.  The schedule agrees on the global
        superstep count with one max-``allreduce`` (every rank must issue
        the same collectives), so ranks with fewer chunks pad with empty
        exchanges.
    label : str or None, optional
        Phase label stamped into the exchange op names
        (``"alltoallv[label]"``).  Ranks disagreeing on the label — two
        stages' schedules colliding — raise
        :class:`~repro.mpisim.errors.CollectiveMismatchError` instead of
        silently mixing payloads.

    Notes
    -----
    Step ``i+1`` is generated — and published via ``alltoallv_start`` —
    while the peers are still reading step ``i``'s payloads.  The engines
    double-buffer the in-flight supersteps, so at most
    :data:`~repro.mpisim.communicator.EXCHANGE_SLOTS` publishes are live per
    rank.  The consume callback always sees superstep ``i``'s payloads
    before superstep ``i+1``'s, in source-rank order.
    """

    def __init__(
        self,
        comm: SimCommunicator,
        timer: StageTimer,
        n_local_steps: int,
        *,
        label: str | None = None,
    ) -> None:
        self.comm = comm
        self.timer = timer
        self.label = label
        # Global step-count agreement: every rank must run the same number
        # of supersteps (deliberately untimed — schedule bookkeeping, not
        # stage exchange time).
        self.n_supersteps = int(comm.allreduce(int(n_local_steps), op="max"))

    def run(self, produce: ProduceFn, consume: ConsumeFn) -> ScheduleOutcome:
        """Run every superstep: ``produce(i)`` → exchange → ``consume(i, received)``.

        Parameters
        ----------
        produce : ProduceFn
            ``produce(step)`` returns the per-destination payload list for
            superstep *step* (empty payloads for padding steps past this
            rank's local work).
        consume : ConsumeFn
            ``consume(step, received)`` processes the payloads received in
            superstep *step*, in source-rank order.  The schedule holds no
            other reference to them, so ``consume`` frees a payload by
            replacing its entry in *received*.

        Returns
        -------
        ScheduleOutcome
            The agreed superstep count and overlap accounting.
        """
        comm, timer = self.comm, self.timer
        n = self.n_supersteps
        if n == 0:
            return ScheduleOutcome(0, 0)
        with timer.compute():
            send = produce(0)
        with timer.exchange():
            handle = comm.alltoallv_start(send, label=self.label)
        # Published: the send buffers are the engine's now (a view of them
        # may come back as the self-addressed payload), so hold no reference
        # that would keep them alive past their consume.
        del send
        for step in range(n):
            next_handle = None
            if step + 1 < n:
                # Generate — and publish — step+1 while the peers are still
                # reading step's payloads.
                with timer.overlapped():
                    next_send = produce(step + 1)
                with timer.exchange():
                    next_handle = comm.alltoallv_start(next_send,
                                                       label=self.label)
                del next_send
            with timer.exchange():
                received = comm.alltoallv_finish(handle)
            with timer.compute():
                consume(step, received)
            del received
            handle = next_handle
        return ScheduleOutcome(n, n - 1)
