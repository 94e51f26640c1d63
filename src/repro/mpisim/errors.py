"""Errors raised by the simulated SPMD runtime."""

from __future__ import annotations


class SPMDError(RuntimeError):
    """Base class for errors raised by the simulated runtime."""


class CollectiveMismatchError(SPMDError):
    """Raised when ranks disagree on which collective they are executing.

    In real MPI this is a silent deadlock; the simulator detects it at the
    synchronisation point and fails fast with the set of conflicting calls.
    """


class RankFailedError(SPMDError):
    """Raised on all ranks when any rank's program raised an exception.

    The original exception (from the first failing rank) is attached as
    ``__cause__`` by the runtime so test failures point at the real bug.
    """


class InjectedFaultError(SPMDError):
    """Raised by an ``exit`` fault of a deterministic fault plan.

    Fault plans (:mod:`repro.mpisim.faults`, ``--fault-plan``) deliberately
    fail a rank at an exact superstep; ``exit`` faults surface as this typed
    error so chaos tests can tell an injected failure from a real bug.
    """


class CollectiveTimeoutError(SPMDError):
    """Raised on a rank whose collective wait timed out (a wedged run).

    The bound is the generous ``DIBELLA_BARRIER_TIMEOUT``; the sanitizer's
    hang watchdog tightens it (``DIBELLA_SANITIZE_TIMEOUT``) and attaches
    the failing rank's last-N collective trace so the divergence point is
    readable from the error alone.
    """


class SanitizerError(SPMDError):
    """Base class for errors raised only under ``DIBELLA_SANITIZE``.

    The sanitizer turns hazards that would otherwise be silent hangs or
    bit-corrupt science (divergent collectives, reused exchange segments)
    into immediate, descriptive failures.  None of these checks run when the
    sanitizer is off.
    """


class SegmentStateError(SanitizerError):
    """Raised by the sanitizer's split-phase segment guards.

    Covers the double-buffer lifecycle hazards: finishing an exchange that
    was never started on this rank (read-before-publish), finishing the same
    handle twice, and reading a slot whose segment was already rewritten or
    poisoned (use-after-release).
    """
