"""Tiny-size smoke check of the benchmark command, plus a span-recorder stress.

Runs ``perfbench/run.py --size tiny`` once per workload and trace mode and
asserts that the last line is the result object, that the run passed its
correctness checks, that every metric ``BENCHMARK.json`` names for that
mode is printed with its unit, and that no process it started outlives it.  A second check records spans from more
threads than cores and asserts none is lost.  Run from the repository root::

    python3 perfbench/check_smoke.py            # or: python -m pytest perfbench/check_smoke.py

It takes about a minute on 2 cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def processes_tagged(tag: str) -> list[int]:
    """Live processes whose environment carries *tag* (forks inherit it)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if tag.encode() in (entry / "environ").read_bytes():
                pids.append(int(entry.name))
        except OSError:
            continue  # exited meanwhile, or not ours to read
    return pids


def run_tiny(workload: str, trace: int) -> tuple[int, dict]:
    tag = f"PERFBENCH_SMOKE_RUN={os.getpid()}-{workload}-{trace}"
    env = dict(os.environ, PERFBENCH_SMOKE_RUN=tag.split("=", 1)[1])
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    left = processes_tagged(tag)
    assert not left, f"{workload} --trace {trace} left processes running: {left}"
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_printed_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_tiny(workload, trace)
            where = f"{workload} --trace {trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert code == 0 and result["correct"], f"{where}: checks failed"
            assert result["attempted"] >= 1 and result["failed"] == 0, where
            expected = {entry["name"]: entry["unit"] for entry in spec[section]}
            printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert printed == expected, f"{where}: {printed} != {expected}"
            for name, entry in result["metrics"].items():
                assert isinstance(entry["value"], (int, float)), f"{where}: {name}"


def test_span_recorder_keeps_every_span_under_thread_contention():
    """More recording threads than cores, with a short switch interval."""
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracing import SpanRecorder

    n_threads, n_calls = 8, 2000
    spool = ROOT / ".perfbench_tmp" / f"check-{os.getpid()}"
    try:
        recorder = SpanRecorder(spool)
        traced = recorder.wrap("probe", lambda value: value, lambda args, result: (result, 0))

        def rank_body(rank: int) -> None:
            recorder.set_rank(rank)
            for call in range(n_calls):
                traced(call)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=rank_body, args=(rank,))
                       for rank in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        spans = recorder.drain()
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    assert len(spans) == n_threads * n_calls
    for rank in range(n_threads):
        items = sorted(span.items for span in spans if span.rank == rank)
        assert items == list(range(n_calls)), f"rank {rank} lost spans"


if __name__ == "__main__":
    test_span_recorder_keeps_every_span_under_thread_contention()
    test_every_metric_printed_with_its_unit()
    print("perfbench smoke check passed")
