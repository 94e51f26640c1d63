"""Alternating parent/change benchmark pairs, written as one BENCH_<label>.json.

Usage, from anywhere inside the repository::

    python3 scripts/bench_pairs.py --label int16-xdrop --base HEAD~1 \\
        --workload oneshot_dense:10 --workload serve_small:8 --seconds 8

Each ``--workload NAME:PAIRS`` runs ``PAIRS`` pairs of the benchmark command
(``perfbench/run.py --workload NAME --seed S --seconds SECONDS --trace 0``),
one on the base tree and one on the change tree, at seeds ``--first-seed``
onwards.  Odd pairs run the base first and even pairs the change first, so
a drift of the host over the run weighs on both sides alike.

The base tree is ``git archive <base>`` unpacked into a temporary
directory: a clean copy of the committed files that leaves no state in the
repository's ``.git``.  The change tree is a copy of the working tree's
tracked and unignored files taken at the start (default), so edits made
while the pairs run do not reach them, or, with ``--change REV``, another
unpacked commit.  Both trees
share a temporary compiled-tier cache (``XDG_CACHE_HOME``; the library's
file name is a digest of its source, so the two builds sit side by side),
and each tree's library is built by one untimed tiny run before the first
pair, so no timed run pays for the compile.

The output file holds the host fingerprint, every pair's metrics, and per
metric the median and quartiles of each side and the pairs the change won
(:func:`summarise`).  :func:`validate` checks that layout; the test suite
runs it on every committed ``BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1
SIDES = ("base", "change")
WORKLOADS = ("oneshot_dense", "serve_small", "index_sparse")

#: CPU flags worth recording: the ones that select a compiled-tier kernel.
_CPU_FLAGS = ("sse2", "avx2", "avx512f", "avx512bw")


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _unpack(rev: str, dest: Path) -> None:
    """The committed files of *rev* in *dest*."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def _snapshot(dest: Path) -> None:
    """The working tree's tracked and unignored files, as they are now, in
    *dest*."""
    names = _git("ls-files", "--cached", "--others", "--exclude-standard", "-z")
    for name in filter(None, names.split("\0")):
        source = ROOT / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def host_fingerprint() -> dict:
    """What a reader needs to tell two hosts apart."""
    import numpy

    model, flags = "", set()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            for line in info:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and not model:
                    model = value.strip()
                elif key.strip() == "flags":
                    flags.update(value.split())
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu_model": model,
        "cpu_flags": [flag for flag in _CPU_FLAGS if flag in flags],
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _better(benchmark: dict) -> dict[str, str]:
    """``metric -> "lower" | "higher"`` of every end-to-end metric."""
    return {entry["name"]: entry["better"] for entry in benchmark["end_to_end"]}


def run_once(tree: Path, workload: str, seed: int, seconds: float, env: dict,
             size: str = "full") -> dict:
    """One benchmark run on *tree*: its last output line, parsed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--size", size],
        cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} printed nothing:\n{done.stderr}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, mid, q3 = quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": mid, "q3": q3}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the
    change won, tied and lost (a win is a strictly better value)."""
    summary = {}
    for name in sorted(set(pairs[0]["base"]) & set(pairs[0]["change"])):
        direction = better.get(name, "lower")
        sign = 1 if direction == "higher" else -1
        base = [pair["base"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        delta = [sign * (new - old) for old, new in zip(base, change)]
        summary[name] = {
            "better": direction,
            "base": _quartiles(base),
            "change": _quartiles(change),
            "wins": sum(d > 0 for d in delta),
            "ties": sum(d == 0 for d in delta),
            "losses": sum(d < 0 for d in delta),
            "median_ratio": (median(change) / median(base)) if median(base) else None,
        }
    return summary


def validate(doc: dict) -> list[str]:
    """Every way *doc* departs from the BENCH_*.json layout; empty when none.

    Checks the top-level keys, every pair's metrics and correctness flags,
    and that each summary agrees with the pairs it summarises.
    """
    problems = []
    for key, kind in (("schema", int), ("label", str), ("created", str), ("host", dict),
                      ("base", dict), ("change", dict), ("seconds", (int, float)),
                      ("workloads", dict)):
        if not isinstance(doc.get(key), kind):
            problems.append(f"{key}: missing or not {kind}")
    if problems:
        return problems
    if doc["schema"] != SCHEMA:
        problems.append(f"schema {doc['schema']} is not {SCHEMA}")
    for key in ("machine", "cpu_flags", "cores", "python", "numpy"):
        if key not in doc["host"]:
            problems.append(f"host.{key} missing")
    for side in SIDES:
        if not isinstance(doc[side].get("rev"), str):
            problems.append(f"{side}.rev missing")
    for name, entry in doc["workloads"].items():
        where = f"workloads.{name}"
        if name not in WORKLOADS:
            problems.append(f"{where}: unknown workload")
        pairs = entry.get("pairs")
        if not isinstance(pairs, list) or not pairs:
            problems.append(f"{where}.pairs: missing or empty")
            continue
        for i, pair in enumerate(pairs):
            if not isinstance(pair.get("seed"), int) or pair.get("first") not in SIDES:
                problems.append(f"{where}.pairs[{i}]: seed or first missing")
            for side in SIDES:
                metrics = pair.get(side)
                if not isinstance(metrics, dict) or not metrics or not all(
                        isinstance(value, (int, float)) for value in metrics.values()):
                    problems.append(f"{where}.pairs[{i}].{side}: not a metric -> number map")
                if not isinstance(pair.get(f"{side}_correct"), bool):
                    problems.append(f"{where}.pairs[{i}].{side}_correct: not a bool")
        if any(problem.startswith(f"{where}.pairs") for problem in problems):
            continue
        better = {metric: stats.get("better") for metric, stats
                  in entry.get("metrics", {}).items()}
        if entry.get("metrics") != summarise(pairs, better):
            problems.append(f"{where}.metrics: does not summarise its pairs")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="names the output file BENCH_<label>.json")
    parser.add_argument("--base", default="HEAD", help="base commit (default HEAD)")
    parser.add_argument("--change", default=None,
                        help="change commit (default: the working tree)")
    parser.add_argument("--workload", action="append", required=True,
                        metavar="NAME:PAIRS", help="a workload and its pair count")
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: BENCH_<label>.json at the repo root)")
    args = parser.parse_args(argv)
    # A terminated run still removes its temporary trees.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    plan = []
    for item in args.workload:
        name, _, count = item.partition(":")
        if name not in WORKLOADS or not count.isdigit() or int(count) < 1:
            parser.error(f"--workload wants NAME:PAIRS with NAME in {WORKLOADS}, not {item!r}")
        plan.append((name, int(count)))
    better = _better(json.loads((ROOT / "BENCHMARK.json").read_text()))
    out = args.out or ROOT / f"BENCH_{args.label}.json"

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"base": Path(tmp) / "base"}
        _unpack(args.base, trees["base"])
        trees["change"] = Path(tmp) / "change"
        if args.change is None:
            _snapshot(trees["change"])
            change = {"rev": _git("rev-parse", "HEAD"),
                      "working_tree": True,
                      "dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))}
        else:
            _unpack(args.change, trees["change"])
            change = {"rev": _git("rev-parse", args.change), "working_tree": False}
        env = dict(os.environ, XDG_CACHE_HOME=str(Path(tmp) / "cache"))
        for side in SIDES:
            # Builds the tree's compiled tier into the shared cache, untimed.
            run_once(trees[side], "oneshot_dense", 0, 0.5, env, size="tiny")
        doc = {
            "schema": SCHEMA,
            "label": args.label,
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "host": host_fingerprint(),
            "base": {"rev": _git("rev-parse", args.base)},
            "change": change,
            "seconds": args.seconds,
            "workloads": {},
        }
        for name, count in plan:
            pairs = []
            for i in range(count):
                seed = args.first_seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    result = run_once(trees[side], name, seed, args.seconds, env)
                    pair[side] = {metric: entry["value"]
                                  for metric, entry in result["metrics"].items()}
                    pair[f"{side}_correct"] = bool(result["correct"]) and not result["failed"]
                pairs.append(pair)
                print(f"{name} seed {seed}: " + ", ".join(
                    f"{metric} {pair['base'][metric]:.4g} -> {pair['change'][metric]:.4g}"
                    for metric in ("op_wall_s", "peak_rss_mb")), flush=True)
            doc["workloads"][name] = {"pairs": pairs, "metrics": summarise(pairs, better)}

    problems = validate(doc)
    if problems:
        raise SystemExit("invalid output: " + "; ".join(problems))
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, entry in doc["workloads"].items():
        for metric, stats in entry["metrics"].items():
            print(f"{name} {metric}: {stats['base']['median']:.4g} -> "
                  f"{stats['change']['median']:.4g}, won {stats['wins']}/{len(entry['pairs'])}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
