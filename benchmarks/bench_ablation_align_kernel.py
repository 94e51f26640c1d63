"""Ablation: alignment kernel choice (x-drop vs banded vs full Smith-Waterman).

Runs the same alignment tasks through the three kernels and compares the DP
cells they evaluate (the cost side of the kernel choice discussed in the
paper's alignment stage).  The x-drop rows run the pipeline's stage-4 entry
point, ``batched_xdrop_align``, on its default tier (compiled C when a
compiler is available, row ``xdrop``) and on the NumPy reference tier (row
``xdrop-numpy``), which must evaluate the same cells to the same scores;
cells/s shows what the compiled tier buys.  The banded and full rows run the
reference kernels one task at a time through ``align_task``.
"""

import time

import numpy as np
from conftest import record_rows

from repro.align import batched_xdrop
from repro.align.batch import AlignmentTask, TaskBatch, align_task, batched_xdrop_align
from repro.align.read_cache import ReadCache
from repro.bench.reporting import format_table


def test_ablation_align_kernel(benchmark, harness, monkeypatch):
    result = harness.run("ecoli30x", "one-seed", n_nodes=1)
    dataset = harness.dataset("ecoli30x")
    sequences = {rid: dataset.reads[rid].sequence for rid in range(len(dataset.reads))}
    # A sample of real alignment tasks from the pipeline run.
    records = []
    for report in result.rank_reports:
        records.extend(report.overlaps)
        if len(records) >= 150:
            break
    tasks = [AlignmentTask(rid_a=o.rid_a, rid_b=o.rid_b,
                           seed_pos_a=int(o.seed_pos_a[0]), seed_pos_b=int(o.seed_pos_b[0]),
                           same_strand=bool(o.seed_same_strand[0]))
             for o in records[:150]]
    batch = TaskBatch(
        rid_a=np.array([t.rid_a for t in tasks], dtype=np.int64),
        rid_b=np.array([t.rid_b for t in tasks], dtype=np.int64),
        seed_pos_a=np.array([t.seed_pos_a for t in tasks], dtype=np.int64),
        seed_pos_b=np.array([t.seed_pos_b for t in tasks], dtype=np.int64),
        same_strand=np.array([t.same_strand for t in tasks], dtype=bool),
    )

    def row(label: str, scores: list[int], cells: int, seconds: float) -> dict:
        return {
            "kernel": label,
            "alignments": len(scores),
            "dp_cells": cells,
            "mean_score": sum(scores) / max(1, len(scores)),
            "mcells_per_s": cells / seconds / 1e6,
        }

    def measure_xdrop(label: str) -> dict:
        cache = ReadCache()
        for rid in batch.rids().tolist():
            cache.put(rid, sequences[rid])
        start = time.perf_counter()
        results = batched_xdrop_align(batch, cache, k=17)
        seconds = time.perf_counter() - start
        return row(label, results.score.tolist(), int(results.cells.sum()), seconds)

    def measure_reference(kernel: str) -> dict:
        start = time.perf_counter()
        results = [align_task(task, sequences, kernel=kernel, k=17) for task in tasks]
        seconds = time.perf_counter() - start
        return row(kernel, [r.score for r in results], sum(r.cells for r in results), seconds)

    def run():
        rows = [measure_xdrop("xdrop")]
        with monkeypatch.context() as patch:
            patch.setattr(batched_xdrop, "native_kernel", lambda: None)
            rows.append(measure_xdrop("xdrop-numpy"))
        rows.extend(measure_reference(kernel) for kernel in ("banded", "full"))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_rows("ablation_align_kernel", format_table(
        rows, title="Ablation: alignment kernel on 150 real tasks (E. coli 30x)"))
    by = {r["kernel"]: r for r in rows}
    # Both x-drop tiers do the same work to the same result.
    assert by["xdrop"]["dp_cells"] == by["xdrop-numpy"]["dp_cells"]
    assert by["xdrop"]["mean_score"] == by["xdrop-numpy"]["mean_score"]
    # Expected shape: the seeded kernels evaluate far fewer cells than full
    # Smith-Waterman; x-drop is the cheapest.
    assert by["xdrop"]["dp_cells"] < by["banded"]["dp_cells"] < by["full"]["dp_cells"]
