"""Static analysis for the SPMD pipeline: the ``spmdlint`` checker.

SPMD bugs are miserable to debug at runtime — a rank-divergent collective
deadlocks, an unlabelled exchange pairs the wrong supersteps, an unordered
iteration breaks backend bit-identity only sometimes.  This package lints the
source tree for the whole-program properties the runtime cannot check until
it is too late:

========  ==============================================================
Rule      What it catches
========  ==============================================================
SL001     collectives called under rank-dependent control flow
SL002     superstep exchanges / schedules without a phase label
SL003     nondeterminism: unordered iteration, global RNG, wall clock
SL004     counters written but not declared in ``repro.core.counters``
SL005     config knobs missing their CLI flag, env default or README row;
          README knob rows naming no config field
========  ==============================================================

Run it as ``python -m repro.analysis.lint src/`` (or
``scripts/spmdlint.py``); findings print as ``path:line:col: SLxxx
message`` and a non-zero exit code gates CI.  Genuine-but-intended sites
carry an inline suppression with a mandatory reason::

    if comm.rank == 0:
        comm.allreduce(header)  # spmdlint: disable=SL001 every rank reaches this

See ``docs/static-analysis.md`` for the rule catalogue and the companion
runtime sanitizer (``DIBELLA_SANITIZE``).
"""

__all__ = ["Finding", "RULES", "lint_paths", "lint_source"]


def __getattr__(name):
    # Lazy re-export: importing the submodule here would trip runpy's
    # double-import warning under ``python -m repro.analysis.lint``.
    if name in __all__:
        from repro.analysis import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
