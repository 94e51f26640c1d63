"""Ablation: alignment kernel choice (x-drop vs banded vs full Smith-Waterman).

Runs the same alignment tasks through the three kernels and compares the DP
cells they evaluate (the cost side of the kernel choice discussed in the
paper's alignment stage).  The x-drop kernel runs twice: on its default tier
(compiled C when a compiler is available, row ``xdrop``) and on the NumPy
reference tier (row ``xdrop-numpy``), which must evaluate the same cells to
the same scores; cells/s shows what the compiled tier buys.
"""

import time

from conftest import record_rows

from repro.align import batched_xdrop
from repro.align.batch import AlignmentTask, BatchAligner
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

    def measure(label: str, kernel: str) -> dict:
        aligner = BatchAligner(sequences=sequences, kernel=kernel, k=17)
        start = time.perf_counter()
        aligner.align_all(tasks)
        seconds = time.perf_counter() - start
        return {
            "kernel": label,
            "alignments": aligner.stats.alignments,
            "dp_cells": aligner.stats.cells,
            "mean_score": aligner.stats.total_score / max(1, aligner.stats.alignments),
            "mcells_per_s": aligner.stats.cells / seconds / 1e6,
        }

    def run():
        rows = [measure("xdrop", "xdrop")]
        with monkeypatch.context() as patch:
            patch.setattr(batched_xdrop, "native_kernel", lambda: None)
            rows.append(measure("xdrop-numpy", "xdrop"))
        rows.extend(measure(kernel, kernel) for kernel in ("banded", "full"))
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
