"""Benchmark command: one workload, one seed, one fresh process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oneshot_dense --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload's operation untraced and prints every
end-to-end metric; ``--trace 1`` times it untraced, then again with the span
wrappers of :mod:`perfbench.tracing` installed, and prints every per-layer
metric plus ``trace.overhead_frac``.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
correctness check passed, 1 when one failed, and 2 when the program's
source is missing.  ``METRICS.md`` in this directory defines every metric.

The command measures in a child process and supervises it: it is the
child subreaper of everything the measurement starts, and once the child
has exited it kills and reaps any process still left, so no run outlives
its command.
"""

from __future__ import annotations

import os
import sys

# Noise controls that must precede the NumPy import: single-threaded BLAS,
# and no DIBELLA_* environment defaults leaking into the pipeline config.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
for _var in [name for name in os.environ if name.startswith("DIBELLA_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run; ``setup_s`` reports medians.
SETUP_REPS = 3

#: Marks the measuring child started by :func:`supervise`.
CHILD_ENV = "PERFBENCH_MEASURING_CHILD"

#: ``prctl`` option that makes this process adopt orphaned descendants.
_PR_SET_CHILD_SUBREAPER = 36

#: Fresh-interpreter import of the program, timed inside the child.
_IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                 "import repro.core.service, repro.core.pipeline; "
                 "print(time.perf_counter() - t)")

E2E_UNITS = {
    "op_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wire_mb": "MB",
    "overlap_recall": "fraction",
    "overlap_precision": "fraction",
    "batch_p50_s": "s",
}


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oneshot_dense", "serve_small", "index_sparse"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window (per phase half in a traced run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the smoke check")
    return parser.parse_args(argv)


def host_fingerprint() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(load, 2) for load in os.getloadavg()],
        "machine": platform.machine(),
    }


def time_import() -> float:
    """Seconds a fresh interpreter spends importing the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def _vm_hwm_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live rank process, in MB.

    Read while the pooled ranks are still parked (their peak is final by
    then; once reaped, only the largest child's peak would be left).
    """
    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()
                            if child.name.startswith("spmd-")]
    return sum(_vm_hwm_bytes(pid) for pid in pids) / 1e6


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has exited.

    The process backend starts the tracker before it forks its ranks.  Left
    alone it outlives this process by however long it takes to notice the
    closed pipe, so it is stopped here, once every rank has been joined.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def exit_on_sigterm(main_pid: int) -> None:
    """Turn SIGTERM into ``SystemExit`` here, so the clean-up still runs.

    Forked ranks inherit the handler; in them it keeps the default action.
    """
    def handler(signum, frame):
        if os.getpid() == main_pid:
            raise SystemExit(128 + signum)
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    signal.signal(signal.SIGTERM, handler)


# On a shared virtual machine the hypervisor at times runs other guests on
# this one's cores, for seconds to minutes ("steal" in /proc/stat: up to a
# third of the CPU ticks has been seen).  With 2 ranks on 2 cores one stalled
# rank holds up the other at every collective, so an op that overlaps such a
# spell can take twice as long.  The program can neither cause nor avoid it,
# so every reported time is net of steal (`net_of_steal`), and the op times
# come from the ops that saw about the least steal (`least_stolen`): ops are
# chosen by the host's interference, never by the time measured.

#: Ops whose stolen share exceeds the run's least by more than this are not
#: timed; below a point of the machine's ticks, steal makes no measurable
#: difference to an op, so a run without steal spells times every op.
STEAL_SLACK = 0.01


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the whole machine so far, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(field) for field in stat.readline().split()[1:9]]
    return fields[7], sum(fields)


def stolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the machine's CPU ticks between two readings that were stolen."""
    return (after[0] - before[0]) / max(1, after[1] - before[1])


def net_of_steal(wall: float, steal: float) -> float:
    """*wall* less the stolen time per core (exact when every core is busy)."""
    return wall * (1.0 - steal)


def least_stolen(ops: list) -> list:
    """The *ops* whose stolen share is within STEAL_SLACK of the least one's."""
    least = min(op.steal_frac for op in ops)
    return [op for op in ops if op.steal_frac <= least + STEAL_SLACK]


def timed_ops(workload, seconds: float, on_op=None):
    """Run the op at least once, and again while another fits in *seconds*.

    *on_op* is called after each op (the traced run collects its spans).
    """
    ops, errors = [], []
    start = time.perf_counter()
    while not (ops or errors) or time.perf_counter() - start + ops[-1].wall <= seconds:
        gc.collect()
        before = cpu_ticks()
        try:
            ops.append(workload.op())
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            errors.append(f"{workload.name} op failed: {type(exc).__name__}: {exc}")
            break
        ops[-1].steal_frac = stolen_share(before, cpu_ticks())
        if on_op is not None:
            on_op(ops[-1])
        ops[-1].release()
        log(f"op {len(ops)}: {ops[-1].wall:.3f}s, steal {ops[-1].steal_frac:.4f}")
    return ops, errors


def net_op_wall(op) -> float:
    return net_of_steal(op.wall, op.steal_frac)


def end_to_end(workload, seconds: float) -> tuple[dict[str, float], list, list[str]]:
    imports, program_setup = [], []
    for _ in range(SETUP_REPS):
        before = cpu_ticks()
        wall = time_import()
        imports.append(net_of_steal(wall, stolen_share(before, cpu_ticks())))
    for _ in range(SETUP_REPS):
        gc.collect()
        before = cpu_ticks()
        start = time.perf_counter()
        workload.setup()
        wall = time.perf_counter() - start
        program_setup.append(net_of_steal(wall, stolen_share(before, cpu_ticks())))
    log(f"setup, net of steal: import {imports}, program {program_setup}")
    ops, errors = timed_ops(workload, seconds)
    metrics = {"setup_s": median(imports) + median(program_setup),
               "peak_rss_mb": peak_rss_mb()}
    if ops:
        recall, precision = workload.quality(ops[0])
        kept = least_stolen(ops)
        metrics.update({
            "op_wall_s": median(net_op_wall(op) for op in kept),
            "wire_mb": ops[0].wire_bytes / 1e6,
            "overlap_recall": recall,
            "overlap_precision": precision,
            "batch_p50_s": median(net_of_steal(wall, op.steal_frac)
                                  for op in kept for wall in op.batch_walls),
        })
        log(f"timed ops {sorted(ops.index(op) + 1 for op in kept)} of {len(ops)} "
            f"(least steal); median wall of all: {median(op.wall for op in ops):.4f}s")
    return metrics, ops, errors


def per_layer(workload, seconds: float, spool: Path) -> tuple[dict[str, float], list, list[str]]:
    from perfbench import layers
    from perfbench.tracing import SpanRecorder, install
    from perfbench.workloads import OneshotDense, ServeSmall

    workload.setup()
    untraced, errors = timed_ops(workload, seconds / 2)
    if errors:
        return {}, untraced, errors
    one_rank_wall = 0.0
    if isinstance(workload, OneshotDense):
        gc.collect()
        start = time.perf_counter()
        workload.run_once(1)
        one_rank_wall = time.perf_counter() - start
        log(f"1-rank op: {one_rank_wall:.3f}s")
    workload.teardown()

    recorder = SpanRecorder(spool)
    uninstall = install(recorder)
    per_op = []
    try:
        workload.setup()
        recorder.drain()  # set-up spans belong to no op
        traced, errors = timed_ops(workload, seconds / 2, on_op=lambda op: per_op.append(
            layers.op_layer_metrics(op, recorder.drain(), workload.index_counters(op))))
    finally:
        uninstall()
    if errors:
        return {}, untraced + traced, errors

    metrics = layers.combine(per_op)
    untraced_wall = median(op.wall for op in untraced)
    metrics["trace.overhead_frac"] = (median(map(net_op_wall, least_stolen(traced)))
                                      / median(map(net_op_wall, least_stolen(untraced)))
                                      - 1.0)
    metrics["mpisim.parallel_eff"] = (one_rank_wall / (2 * untraced_wall)
                                      if one_rank_wall else 0.0)
    tail = 0.0
    if isinstance(workload, ServeSmall):
        walls = [wall for op in traced for wall in op.batch_walls]
        pct, tail = layers.tail_latency(walls)
        log(f"batch tail: p{pct:.0f} of {len(walls)} traced batches = {tail:.4f}s")
    metrics["core.service.batch_tail_s"] = tail
    slowest_busy = metrics.pop("core.slowest_rank_busy_s")
    if isinstance(workload, OneshotDense):
        log("stress: core.alignment.busy_s / slowest rank busy = "
            f"{metrics['core.alignment.busy_s'] / slowest_busy:.3f} (expected >= 0.90)")
    else:
        log(f"stress: align.dp_cells = {metrics['align.dp_cells']:.0f}")
    return metrics, untraced + traced, errors


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no program source under {SRC.name}/repro: run from a full checkout")
        return 2
    # The script's own directory would shadow top-level module names.
    sys.path[0:1] = [str(SRC), str(ROOT)]

    from perfbench.layers import UNITS
    from perfbench.workloads import WORKLOADS

    exit_on_sigterm(os.getpid())
    print(json.dumps({"host": host_fingerprint()}), flush=True)
    start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.size)
    log(f"inputs ({args.workload}, seed {args.seed}): {time.perf_counter() - start:.2f}s")

    spool = ROOT / ".perfbench_tmp" / str(os.getpid())
    try:
        if args.trace:
            values, ops, errors = per_layer(workload, args.seconds, spool)
            units = UNITS
        else:
            values, ops, errors = end_to_end(workload, args.seconds)
            units = E2E_UNITS
    finally:
        try:
            workload.teardown()
        finally:
            stop_resource_tracker()
        shutil.rmtree(spool, ignore_errors=True)
        try:
            spool.parent.rmdir()
        except OSError:
            pass  # another run's spool is still there

    failures = errors + (workload.check(ops, args.seed) if ops else [])
    attempted = sum(op.attempted for op in ops) + len(errors)
    failed = sum(op.failed for op in ops) + len(errors)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, entry in metrics.items():
        print(f"{args.workload:>14} {name:<40} {entry['value']:>16.6g} {entry['unit']}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if not failures else 1


def _child_pids() -> list[int]:
    """Live or unreaped processes whose parent is this process."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited meanwhile
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def reap_descendants() -> None:
    """Kill and reap every process left under this one, orphans included.

    A killed process's own children are re-parented here (this process is
    their subreaper), so the sweep repeats until none is left.
    """
    for _ in range(100):
        pids = _child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                cmdline = Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ")
                log(f"stopping left-over process {pid}: {cmdline.decode(errors='replace')[:120]}")
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass  # already gone, or a zombie waiting to be reaped
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
    log("gave up reaping left-over processes")


def supervise(argv: list[str]) -> int:
    """Run the measurement in a child process; stop whatever it leaves behind."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # no prctl: direct children are still reaped below
    child = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv],
                             env=dict(os.environ, **{CHILD_ENV: "1"}))

    def forward(signum, frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        return child.wait()
    finally:
        reap_descendants()


if __name__ == "__main__":
    sys.exit(main() if os.environ.get(CHILD_ENV) else supervise(sys.argv[1:]))
