"""Stage 4 reaches the x-drop kernel through its module attribute.

``perfbench/tracing.py`` measures the kernel by replacing
``repro.align.batch.batched_xdrop_align`` with a wrapper that counts
``len(args[0])`` tasks and sums ``row.cells`` over the result.  A stage that
bound the function at import time, or aligned by another route, would leave
that wrapper unseen and the benchmark would report no kernel calls at all;
this test installs the same kind of wrapper and checks it sees all of
stage 4's work.
"""

from __future__ import annotations

import threading

import repro.align.batch as align_batch
from repro.core import DibellaPipeline, PipelineConfig
from repro.mpisim.topology import Topology
from repro.seq.kmer import KmerSpec


def test_stage4_calls_the_kernel_through_its_module_attribute(monkeypatch, toy_reads):
    calls: list[tuple[int, int]] = []
    lock = threading.Lock()
    kernel = align_batch.batched_xdrop_align

    def counting(*args, **kwargs):
        results = kernel(*args, **kwargs)
        with lock:
            calls.append((len(args[0]), sum(int(row.cells) for row in results)))
        return results

    monkeypatch.setattr(align_batch, "batched_xdrop_align", counting)
    # The thread backend, unpooled: its ranks run in this process, so they
    # see the wrapper.
    config = PipelineConfig(kmer=KmerSpec(k=15), backend="thread")
    result = DibellaPipeline(config=config, topology=Topology.single_node(2)).run(toy_reads)

    ranks_with_tasks = sum(report.counters["alignment_tasks"] > 0
                           for report in result.rank_reports)
    assert ranks_with_tasks > 0
    assert len(calls) == ranks_with_tasks
    assert sum(tasks for tasks, _ in calls) == result.counters["alignment_tasks"]
    assert sum(cells for _, cells in calls) == result.counters["dp_cells"]
