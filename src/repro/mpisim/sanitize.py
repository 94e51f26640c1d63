"""Runtime sanitizer knobs (``--sanitize`` / ``DIBELLA_SANITIZE``).

The sanitizer is the dynamic half of the SPMD correctness toolchain (the
static half is :mod:`repro.analysis` — see ``docs/static-analysis.md``).
When enabled, the runtime:

* verifies **collective congruence** before every collective — a per-op
  digest of (op name with its label, payload dtype + shape rank) is
  compared across ranks, and a divergence raises a descriptive
  :class:`repro.mpisim.errors.CollectiveMismatchError` naming the diverging
  ranks instead of hanging or silently mixing payloads;
* **guards the split-phase handshake** (the exchange ring and the small
  collectives' blocking slot) — read-before-publish, finish-called-twice
  and use-after-release on a slot raise
  :class:`repro.mpisim.errors.SegmentStateError`, and the thread engine
  poisons slot contents once every rank has consumed them so stale readers
  trip on a sentinel instead of on reused data (the process engine gets the
  same property by unlinking consumed segments);
* arms a **hang watchdog** — collective waits time out after
  ``DIBELLA_SANITIZE_TIMEOUT`` seconds (default 60, vs the non-sanitized
  ``DIBELLA_BARRIER_TIMEOUT`` of 600) and the
  :class:`repro.mpisim.errors.CollectiveTimeoutError` every timed-out wait
  raises carries the rank's last-N collective trace.

All checks are observation-only on the happy path: a sanitized run produces
bit-identical science output and communication traces (the congruence
exchange bypasses the byte accounting entirely).

The flag travels *explicitly* — ``spmd_run(..., sanitize=...)`` down to the
collective engines — rather than through ambient globals, because pooled
process workers fork long before any particular run decides to sanitize;
the environment variables below only provide the *defaults*.
"""

from __future__ import annotations

import os

__all__ = [
    "sanitize_default",
    "watchdog_timeout",
    "TRACE_DEPTH",
    "DEFAULT_WATCHDOG_SECONDS",
]

#: How many recent collective ops each rank keeps for the watchdog dump.
TRACE_DEPTH = 16

#: Default hang-watchdog timeout under the sanitizer, in seconds.  Much
#: tighter than DIBELLA_BARRIER_TIMEOUT: a sanitized run wants wedges loud
#: and fast, and the congruence pre-check already synchronises ranks per op
#: so legitimate waits stay short.
DEFAULT_WATCHDOG_SECONDS = 60.0

_FALSE = ("", "0", "false", "no", "off")


def sanitize_default() -> bool:
    """Whether ``DIBELLA_SANITIZE`` asks for sanitized runs by default."""
    return os.environ.get("DIBELLA_SANITIZE", "").strip().lower() not in _FALSE


def watchdog_timeout() -> float:
    """Seconds a sanitized collective may wait before the watchdog fires.

    Read from ``DIBELLA_SANITIZE_TIMEOUT`` at call time (not import time) so
    tests can tighten it per-case; falls back to
    :data:`DEFAULT_WATCHDOG_SECONDS`.
    """
    raw = os.environ.get("DIBELLA_SANITIZE_TIMEOUT", "").strip()
    if not raw:
        return DEFAULT_WATCHDOG_SECONDS
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_WATCHDOG_SECONDS
    return value if value > 0 else DEFAULT_WATCHDOG_SECONDS
