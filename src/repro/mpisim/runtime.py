"""SPMD launcher: run the same function on every rank.

:func:`spmd_run` is the equivalent of ``mpiexec -n P python program.py`` for
the simulated runtime: it creates ``P`` communicators sharing one collective
engine, runs ``fn(comm, *args, **kwargs)`` on each rank, and returns the
per-rank results in rank order.

*Where* the ranks execute is named by ``backend`` (see
:mod:`repro.mpisim.backend`):

* ``backend="thread"`` (default) — ranks are threads sharing this process's
  address space; collectives pass payloads by reference.
* ``backend="process"`` — ranks are ``multiprocessing`` processes; P ranks
  really occupy P cores, and collectives move explicitly-typed buffers
  through POSIX shared memory.  The processes are the rank pool of that rank
  count, forked on the first run and parked between runs.

Error handling follows the "fail fast, fail loudly" rule for SPMD programs:
if any rank raises, the runtime aborts the collective engine (so ranks blocked
in a collective wake up instead of deadlocking), reaps all ranks, and
re-raises the first failure wrapped in :class:`RankFailedError`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.mpisim.backend import resolve_backend
from repro.mpisim.errors import RankFailedError, SPMDError
from repro.mpisim.faults import FaultPlan, RunFaults, resolve_run_faults
from repro.mpisim.sanitize import sanitize_default
from repro.mpisim.tracing import CommTrace

__all__ = ["spmd_run", "SPMDError", "RankFailedError"]


def spmd_run(
    n_ranks: int,
    fn: Callable[..., Any],
    *args: Any,
    trace: CommTrace | None = None,
    backend: str | None = None,
    pool: bool = False,
    sanitize: bool | None = None,
    faults: str | FaultPlan | RunFaults | None = None,
    **kwargs: Any,
) -> list[Any]:
    """Run *fn* as an SPMD program over *n_ranks* simulated ranks.

    Parameters
    ----------
    n_ranks:
        Number of ranks to launch.
    fn:
        The rank program.  Called as ``fn(comm, *args, **kwargs)`` where
        ``comm`` is that rank's :class:`SimCommunicator`, whose collectives
        are ``allreduce``, ``alltoallv`` and the split-phase
        ``alltoallv_start``/``alltoallv_finish``.  On the process backend
        ``fn`` and its arguments cross a queue to the rank pool, so they
        must be picklable (a module-level function, not a lambda or a
        closure).
    trace:
        Optional :class:`CommTrace` to record communication volumes into.
        With the process backend each rank records into a private trace that
        is merged into this one after the run.
    backend:
        ``"thread"`` (the default, also for ``None``) or ``"process"``.
    pool:
        Ignored; kept so callers that pass it keep working.  The process
        backend always runs on the rank pool.
    sanitize:
        Arm the runtime sanitizer for this run: cross-rank collective
        congruence checks, split-phase segment lifecycle guards, and a hang
        watchdog that dumps the wedged rank's recent collective trace (see
        :mod:`repro.mpisim.sanitize` and ``docs/static-analysis.md``).
        ``None`` (default) follows the ``DIBELLA_SANITIZE`` environment
        variable.  Checks are observation-only on the happy path: sanitized
        runs produce bit-identical results and traces.
    faults:
        Deterministic fault plan for this run (see
        :mod:`repro.mpisim.faults`): a plan string
        (``"kill:rank=2:step=3"``), a :class:`FaultPlan` (its next run
        ordinal is bound), or already-bound :class:`RunFaults`.  ``kill``
        faults require the process backend — threads share this process, so
        a kill plan on the thread backend raises :class:`ValueError`.

    Returns
    -------
    list
        ``fn``'s return value for each rank, in rank order.

    Raises
    ------
    RankFailedError
        If any rank's program raised; the original exception is chained.
    """
    if n_ranks <= 0:
        raise ValueError("n_ranks must be positive")
    if sanitize is None:
        sanitize = sanitize_default()
    runtime = resolve_backend(backend)
    run_faults = resolve_run_faults(faults)
    if run_faults is not None and run_faults.has_kill and backend in (None, "thread"):
        raise ValueError(
            "the thread backend cannot inject 'kill' faults: ranks are "
            "threads of this process, so killing one would kill the "
            "whole run — use backend='process' (or an 'exit' fault)"
        )
    return runtime.run(n_ranks, fn, args, kwargs, trace, sanitize, run_faults)
