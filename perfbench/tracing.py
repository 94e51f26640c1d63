"""Span tracing of the pipeline's layers from outside the program.

The benchmark times calls into each layer's public functions by replacing
them, for the duration of a traced run, with wrappers that record a span
(name, rank, start, end, work items) per call.  Each replacement is made
where the caller looks the function up:

* ``repro.core.stages`` — ``extract_kmers_batch``, ``pack_read_block``,
  ``generate_pairs`` and ``select_seeds_batched``;
* ``repro.core.pipeline`` — ``partition_reads``, ``spmd_run`` and the three
  rank programs (``run_rank_pipeline``, ``run_index_build``,
  ``run_query_batch``);
* ``repro.align.batch`` — ``batched_xdrop_align``, which the stages reach
  through :class:`repro.align.batch.BatchAligner`.

Spans are kept in memory in one list per rank (rank ``-1`` is the driver
code outside any rank program), under a lock, so thread-backend ranks can
record concurrently.  Process-backend ranks are forked from the benchmark
process, so they inherit the wrappers when :func:`install` runs before the
rank pool is spawned; at the end of every rank program such a rank writes
its spans to a per-rank file in the spool directory, and
:meth:`SpanRecorder.drain` folds those files back in.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro.align.batch as align_batch
import repro.core.pipeline as pipeline
import repro.core.stages as stages
from repro.mpisim.runtime import spmd_run

#: Rank id of spans recorded outside any rank program.
DRIVER_RANK = -1

#: Rank programs the pipeline launches through ``spmd_run``.
RANK_PROGRAMS = ("run_rank_pipeline", "run_index_build", "run_query_batch")


@dataclass(frozen=True)
class Span:
    """One timed call into a layer.

    ``items`` counts the work the call handled (tasks, k-mers, pairs,
    bases, job bytes — see :data:`LAYER_FUNCTIONS`); ``extra`` carries a
    second figure where one exists (DP cells for the kernel, the slowest
    rank's stage-timer total for ``spmd_run``).  ``parent`` names the span
    that was open on the same thread when this one started.
    """

    name: str
    rank: int
    start: float
    end: float
    items: float = 0.0
    extra: float = 0.0
    parent: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe per-rank span lists, spooled to files by forked ranks."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.owner_pid = os.getpid()
        self._lock = threading.Lock()
        self._spans: dict[int, list[Span]] = {}
        self._local = threading.local()
        self._spooled = 0

    # -- recording -----------------------------------------------------------

    def _open_spans(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_rank(self) -> int:
        return getattr(self._local, "rank", DRIVER_RANK)

    def set_rank(self, rank: int) -> None:
        """Attribute this thread's following spans to *rank*."""
        self._local.rank = rank

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.setdefault(span.rank, []).append(span)

    def wrap(self, name: str, fn: Callable[..., Any],
             measure: Callable[[tuple, Any], tuple[float, float]] | None = None
             ) -> Callable[..., Any]:
        """*fn* wrapped to record a span; ``measure(args, result)`` gives
        the span's ``(items, extra)``."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans = recorder._open_spans()
            parent = open_spans[-1] if open_spans else ""
            open_spans.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_spans.pop()
            items, extra = measure(args, result) if measure else (0.0, 0.0)
            recorder.record(Span(name, recorder.current_rank(), start, end,
                                 float(items), float(extra), parent))
            return result

        return traced

    # -- per-rank files --------------------------------------------------------

    def spool(self, rank: int) -> None:
        """Write *rank*'s spans to their own file and forget them."""
        with self._lock:
            spans = self._spans.pop(rank, [])
            self._spooled += 1
            serial = self._spooled
        path = self.spool_dir / f"spans-{os.getpid()}-{rank}-{serial}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps([asdict(span) for span in spans]))
        tmp.replace(path)

    def drain(self) -> list[Span]:
        """Every span recorded so far, here or in a spool file; then forget them."""
        with self._lock:
            spans = [span for rank_spans in self._spans.values() for span in rank_spans]
            self._spans.clear()
        for path in sorted(self.spool_dir.glob("spans-*.json")):
            spans.extend(Span(**fields) for fields in json.loads(path.read_text()))
            path.unlink()
        return spans


#: The recorder the installed wrappers write to (``None`` when untraced).
#: Module state, because forked rank processes must find it after
#: unpickling a :class:`RankProgram`.
_ACTIVE: SpanRecorder | None = None


class RankProgram:
    """Picklable stand-in for one of the pipeline's rank programs.

    Pooled jobs are pickled, so the replacement for a rank program must be
    picklable by reference: this object carries only the program's name
    and looks the original up in :mod:`repro.core.stages` when called.
    """

    def __init__(self, name: str):
        self.name = name

    def __call__(self, comm, *args, **kwargs):
        program = getattr(stages, self.name)
        recorder = _ACTIVE
        if recorder is None:
            return program(comm, *args, **kwargs)
        recorder.set_rank(comm.rank)
        try:
            return recorder.wrap(f"rank.{self.name}", program)(comm, *args, **kwargs)
        finally:
            recorder.set_rank(DRIVER_RANK)
            if os.getpid() != recorder.owner_pid:
                recorder.spool(comm.rank)


def _stage_seconds_of_slowest_rank(reports: list) -> float:
    """Largest per-rank sum of stage compute + exchange + overlapped time."""
    totals = [sum(report.stage_compute_seconds.values())
              + sum(report.stage_exchange_seconds.values())
              + sum(report.stage_overlapped_seconds.values())
              for report in reports]
    return max(totals, default=0.0)


_SPMD_RUN_OPTIONS = ("topology", "trace", "backend", "pool", "sanitize", "faults")


def _traced_spmd_run(recorder: SpanRecorder):
    """``spmd_run`` recording its wall, the pickled job size and rank time."""

    def traced(n_ranks, fn, *args, **kwargs):
        job_bytes = 0
        if kwargs.get("pool"):
            # The pooled backend pickles (fn, args, fn kwargs, topology,
            # want_trace, faults) once per run; size the same tuple.
            fn_kwargs = {k: v for k, v in kwargs.items() if k not in _SPMD_RUN_OPTIONS}
            job_bytes = len(pickle.dumps((fn, args, fn_kwargs, kwargs.get("topology"),
                                          kwargs.get("trace") is not None,
                                          kwargs.get("faults"))))
        start = time.perf_counter()
        reports = spmd_run(n_ranks, fn, *args, **kwargs)
        end = time.perf_counter()
        recorder.record(Span("mpisim.spmd_run", recorder.current_rank(), start, end,
                             float(job_bytes), _stage_seconds_of_slowest_rank(reports)))
        return reports

    return traced


def _kernel_measure(args: tuple, results: list) -> tuple[float, float]:
    return len(args[0]), sum(result.cells for result in results)


#: (module, function, span name, measure) for every plain layer wrapper.
LAYER_FUNCTIONS = (
    (align_batch, "batched_xdrop_align", "align.batched_xdrop_align", _kernel_measure),
    (stages, "generate_pairs", "overlap.generate_pairs",
     lambda args, pairs: (len(pairs), 0.0)),
    (stages, "select_seeds_batched", "overlap.select_seeds",
     lambda args, selected: (len(selected), 0.0)),
    (stages, "extract_kmers_batch", "seq.extract_kmers_batch",
     lambda args, extracted: (extracted[0].size, 0.0)),
    (stages, "pack_read_block", "seq.pack_read_block",
     lambda args, block: (int(np.sum(block.lengths)), 0.0)),
    (pipeline, "partition_reads", "io.partition_reads", None),
)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Install every wrapper; returns a function that restores the originals.

    Call before the first process-backend run spawns its rank pool, so the
    forked ranks inherit the wrappers.
    """
    global _ACTIVE
    originals: list[tuple[Any, str, Any]] = []

    def patch(module, attr: str, replacement) -> None:
        originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    for module, attr, name, measure in LAYER_FUNCTIONS:
        patch(module, attr, recorder.wrap(name, getattr(module, attr), measure))
    patch(pipeline, "spmd_run", _traced_spmd_run(recorder))
    for program in RANK_PROGRAMS:
        patch(pipeline, program, RankProgram(program))
    _ACTIVE = recorder

    def uninstall() -> None:
        global _ACTIVE
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)
        _ACTIVE = None

    return uninstall
