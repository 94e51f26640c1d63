"""Microbenchmark: the three vectorised hot paths of the overlap stage.

Times, against per-k-mer / per-pair loop oracles on a synthetic 30x
workload:

* :func:`repro.overlap.pairs.generate_pairs` — flat-array pair expansion,
* :meth:`repro.overlap.pairs.OverlapTable.from_pairs` — lexsort
  consolidation into the struct-of-arrays overlap table,
* :func:`repro.overlap.seeds.select_seeds_batched` — cross-pair batched
  seed selection (the min-separation greedy scan),

and asserts each vectorised path beats its loop oracle by the corresponding
``MIN_*_SPEEDUP`` gate — the regression gates for the overlap stage's hot
paths, run by ``scripts/ci.sh``.

Runs standalone (``python benchmarks/bench_overlap_microbench.py``) or under
pytest (``python -m pytest benchmarks/bench_overlap_microbench.py``); the CI
script runs the standalone form.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data.datasets import DatasetSpec, generate_dataset
from repro.data.genome import GenomeSpec
from repro.data.reads import ReadSimSpec
from repro.kmers.hashtable import RetainedKmers, ShardedKmerIndex, shard_code_boundaries
from repro.kmers.reliable import high_frequency_threshold
from repro.overlap.pairs import OverlapTable, PairBatch, generate_pairs
from repro.overlap.seeds import SeedStrategy, select_seeds, select_seeds_batched
from repro.seq.kmer import KmerSpec, extract_kmers_batch

#: Required speedup of the vectorised pair generation over the loop oracle.
MIN_SPEEDUP = 5.0
#: Required speedup of the lexsort consolidation over the dict-grouping oracle.
MIN_CONSOLIDATE_SPEEDUP = 5.0
#: Required speedup of batched seed selection over the per-pair scan oracle.
MIN_SEED_SPEEDUP = 5.0


def synthetic_30x_retained(k: int = 17) -> RetainedKmers:
    """The retained k-mers of one partition of a synthetic 30x workload."""
    spec = DatasetSpec(
        name="microbench30x",
        genome=GenomeSpec(length=8000, repeat_fraction=0.02, repeat_length=300, seed=42),
        reads=ReadSimSpec(coverage=30.0, mean_read_length=1000, min_read_length=400,
                          error_rate=0.10, seed=43),
    )
    dataset = generate_dataset(spec)
    kspec = KmerSpec(k=k)
    codes, read_index, positions, strands = extract_kmers_batch(
        [read.sequence for read in dataset.reads], kspec, with_strand=True
    )
    # One shard, every k-mer stored; reads arrive in RID order.
    index = ShardedKmerIndex(shard_code_boundaries(k, 1), codes,
                             read_index.astype(np.int64), positions, strands)
    return index.retained_shard(0, np.arange(len(dataset.reads)), min_count=2,
                                max_count=high_frequency_threshold(30.0, 0.10, k))


def _reference_generate_pairs(retained: RetainedKmers) -> PairBatch:
    """The original per-k-mer loop (the seed implementation), kept as oracle."""
    if retained.n_kmers == 0:
        return PairBatch.empty()
    chunks: list[list[np.ndarray]] = [[], [], [], [], []]
    counts = retained.counts()
    for index in range(retained.n_kmers):
        c = int(counts[index])
        if c < 2:
            continue
        _, rids, positions, strands = retained.group(index)
        ii, jj = np.triu_indices(c, k=1)
        ra, rb = rids[ii], rids[jj]
        pa, pb = positions[ii], positions[jj]
        same = strands[ii] == strands[jj]
        distinct = ra != rb
        if not distinct.any():
            continue
        ra, rb, pa, pb, same = (ra[distinct], rb[distinct], pa[distinct],
                                pb[distinct], same[distinct])
        swap = ra > rb
        chunks[0].append(np.where(swap, rb, ra))
        chunks[1].append(np.where(swap, ra, rb))
        chunks[2].append(np.where(swap, pb, pa))
        chunks[3].append(np.where(swap, pa, pb))
        chunks[4].append(same)
    if not chunks[0]:
        return PairBatch.empty()
    return PairBatch(*[np.concatenate(c).astype(np.int64) for c in chunks])


def _reference_consolidate(batch: PairBatch) -> int:
    """Per-pair dict grouping (the seed implementation), kept as oracle.

    Reproduces what :meth:`OverlapTable.from_pairs` computes — pairs sorted
    by (rid_a, rid_b), each with its deduplicated seeds sorted by position,
    materialised as per-pair arrays — the way the original loop consolidation
    built its ``OverlapRecord`` objects.  Returns the number of distinct
    pairs for the cross-check.
    """
    groups: dict[tuple[int, int], set[tuple[int, int, int]]] = {}
    for ra, rb, pa, pb, ss in zip(batch.rid_a.tolist(), batch.rid_b.tolist(),
                                  batch.pos_a.tolist(), batch.pos_b.tolist(),
                                  batch.same_strand.tolist()):
        groups.setdefault((ra, rb), set()).add((pa, pb, ss))
    records = []
    for (ra, rb), seeds in sorted(groups.items()):
        ordered = sorted(seeds)
        records.append((
            ra, rb,
            np.array([s[0] for s in ordered], dtype=np.int64),
            np.array([s[1] for s in ordered], dtype=np.int64),
            np.array([bool(s[2]) for s in ordered], dtype=bool),
        ))
    return len(records)


def _reference_select_seeds(table: OverlapTable, strategy: SeedStrategy) -> np.ndarray:
    """Per-pair seed selection loop (scalar :func:`select_seeds` per pair)."""
    selected: list[np.ndarray] = []
    offsets = table.seed_offsets
    for index in range(len(table)):
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        chosen = select_seeds(table.seed_pos_a[lo:hi], table.seed_pos_b[lo:hi],
                              strategy)
        selected.append(chosen + lo)
    if not selected:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(selected))


def _best_of(fn, repeats: int = 3) -> tuple[float, object]:
    """Minimum wall time of *repeats* runs (and the last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_microbench() -> dict[str, float]:
    """Time the vectorised overlap hot paths vs their loop oracles."""
    retained = synthetic_30x_retained()
    t_vec, pairs = _best_of(lambda: generate_pairs(retained))
    t_ref, ref_pairs = _best_of(lambda: _reference_generate_pairs(retained))
    assert len(pairs) == len(ref_pairs), "vectorised and reference disagree on pair count"

    t_consolidate, table = _best_of(lambda: OverlapTable.from_pairs(pairs))
    t_consolidate_ref, ref_n_pairs = _best_of(lambda: _reference_consolidate(pairs))
    assert len(table) == ref_n_pairs, "consolidation oracles disagree on pair count"

    strategy = SeedStrategy.separated_by(1000)
    t_seeds, selected = _best_of(lambda: select_seeds_batched(table, strategy))
    t_seeds_ref, ref_selected = _best_of(lambda: _reference_select_seeds(table, strategy))
    np.testing.assert_array_equal(selected, ref_selected)

    return {
        "retained_kmers": float(retained.n_kmers),
        "retained_occurrences": float(retained.n_occurrences),
        "pairs": float(len(pairs)),
        "overlap_pairs": float(len(table)),
        "selected_seeds": float(selected.size),
        "vectorized_seconds": t_vec,
        "reference_seconds": t_ref,
        "consolidate_seconds": t_consolidate,
        "consolidate_reference_seconds": t_consolidate_ref,
        "seed_select_seconds": t_seeds,
        "seed_select_reference_seconds": t_seeds_ref,
        "speedup": t_ref / max(t_vec, 1e-12),
        "consolidate_speedup": t_consolidate_ref / max(t_consolidate, 1e-12),
        "seed_select_speedup": t_seeds_ref / max(t_seeds, 1e-12),
        "pairs_per_second": len(pairs) / max(t_vec, 1e-12),
        "retained_kmers_per_second": retained.n_kmers / max(t_vec, 1e-12),
    }


#: (metric key, gate constant, label) for every perf gate this bench enforces.
GATES: tuple[tuple[str, float, str], ...] = (
    ("speedup", MIN_SPEEDUP, "pair generation"),
    ("consolidate_speedup", MIN_CONSOLIDATE_SPEEDUP, "consolidation"),
    ("seed_select_speedup", MIN_SEED_SPEEDUP, "seed selection"),
)


def format_report(metrics: dict[str, float]) -> str:
    lines = ["overlap microbenchmark (synthetic 30x, k=17)"]
    lines.append(f"  retained k-mers        : {metrics['retained_kmers']:.0f}")
    lines.append(f"  pairs generated        : {metrics['pairs']:.0f}")
    lines.append(f"  consolidated pairs     : {metrics['overlap_pairs']:.0f}")
    lines.append(f"  selected seeds (d=1000): {metrics['selected_seeds']:.0f}")
    lines.append(f"  vectorized generate    : {metrics['vectorized_seconds'] * 1e3:.2f} ms")
    lines.append(f"  reference loop         : {metrics['reference_seconds'] * 1e3:.2f} ms")
    lines.append(f"  consolidation (lexsort): {metrics['consolidate_seconds'] * 1e3:.2f} ms "
                 f"(loop oracle {metrics['consolidate_reference_seconds'] * 1e3:.2f} ms)")
    lines.append(f"  seed selection (batch) : {metrics['seed_select_seconds'] * 1e3:.2f} ms "
                 f"(loop oracle {metrics['seed_select_reference_seconds'] * 1e3:.2f} ms)")
    for key, gate, label in GATES:
        lines.append(f"  {label:<22} : {metrics[key]:.1f}x (gate: >= {gate:.0f}x)")
    lines.append(f"  throughput             : {metrics['pairs_per_second'] / 1e6:.2f} M pairs/s, "
                 f"{metrics['retained_kmers_per_second'] / 1e6:.2f} M retained k-mers/s")
    return "\n".join(lines)


def test_overlap_microbench():
    """Pytest entry point: every vectorised path must beat its loop oracle."""
    metrics = run_microbench()
    print("\n" + format_report(metrics))
    assert metrics["pairs"] > 0
    for key, gate, label in GATES:
        assert metrics[key] >= gate, f"{label} speedup {metrics[key]:.1f}x below {gate:.0f}x"


if __name__ == "__main__":
    report_metrics = run_microbench()
    print(format_report(report_metrics))
    failed = [
        f"{label} speedup {report_metrics[key]:.1f}x below {gate:.0f}x gate"
        for key, gate, label in GATES
        if report_metrics[key] < gate
    ]
    if failed:
        sys.exit("FAIL: " + "; ".join(failed))
    print("PASS")
