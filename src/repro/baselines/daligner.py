"""A DALIGNER-style single-node overlapper (the Table 2 comparator).

DALIGNER (Myers 2014) finds overlap candidates by *sorting* k-mers rather
than hashing them: reads are split into blocks, the (k-mer, read, position)
tuples of each pair of blocks are sorted and merge-scanned to find shared
k-mers, shared k-mers of a read pair are grouped, and a local alignment is
computed around promising groups.  Its distributed-memory story is a script
that runs block-against-block jobs independently — the approach §11
contrasts with diBELLA's.

This module reproduces that algorithmic skeleton on one node:

* block decomposition of the read set,
* per-block-pair k-mer sort + merge to find shared k-mers,
* per-pair seed grouping with a frequency cutoff (DALIGNER also suppresses
  overly frequent k-mers),
* x-drop seed extension using the same alignment kernel as diBELLA (so the
  Table 2 comparison is between the two *candidate-finding* strategies, not
  between two different aligners).

It is used by ``benchmarks/bench_table2_daligner.py`` to reproduce the shape
of Table 2 (diBELLA single-node runtime within a small factor of DALIGNER's)
and doubles as an independent overlap detector for cross-validating the
pipeline's output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.align.batch import TaskBatch, batched_xdrop_align
from repro.align.batched_xdrop import DEFAULT_XDROP_BAND
from repro.align.read_cache import ReadCache
from repro.align.scoring import ScoringScheme
from repro.seq.kmer import KmerSpec, extract_kmers_with_strand
from repro.seq.records import ReadSet


@dataclass(frozen=True)
class DalignerConfig:
    """Parameters of the DALIGNER-like baseline.

    Attributes
    ----------
    k:
        Seed k-mer length (DALIGNER's default is 14; we keep diBELLA's 17 by
        default so the Table 2 comparison uses identical seeds).
    block_size:
        Number of reads per block; blocks are compared pairwise, which is the
        memory-bounding mechanism DALIGNER's scripting frontend exposes.
    max_kmer_freq:
        Shared k-mers whose total multiplicity within a block pair exceeds
        this are ignored (repeat suppression).
    min_shared_kmers:
        Read pairs sharing fewer seeds than this are not aligned.
    xdrop / band / scoring:
        Alignment kernel parameters (matching diBELLA's defaults).
    """

    k: int = 17
    block_size: int = 512
    max_kmer_freq: int = 64
    min_shared_kmers: int = 1
    xdrop: int = 25
    band: int = DEFAULT_XDROP_BAND
    scoring: ScoringScheme = field(default_factory=ScoringScheme)

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if self.max_kmer_freq < 2:
            raise ValueError("max_kmer_freq must be at least 2")
        if self.min_shared_kmers < 1:
            raise ValueError("min_shared_kmers must be at least 1")


@dataclass
class DalignerResult:
    """Output of a baseline run: overlaps, alignments and timing."""

    overlap_pairs: set[tuple[int, int]]
    n_alignments: int
    total_score: int
    seconds_sort_merge: float
    seconds_alignment: float

    @property
    def total_seconds(self) -> float:
        """Total runtime (sort/merge plus alignment), excluding I/O."""
        return self.seconds_sort_merge + self.seconds_alignment


class DalignerLikeOverlapper:
    """Block sort-merge overlap detection with x-drop alignment."""

    def __init__(self, config: DalignerConfig | None = None):
        self.config = config or DalignerConfig()

    # -- k-mer table construction ------------------------------------------------

    def _block_table(self, reads: ReadSet, rids: list[int]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(codes, rids, positions, strands) of every k-mer in a block, sorted by code."""
        spec = KmerSpec(k=self.config.k)
        code_chunks, rid_chunks, pos_chunks, strand_chunks = [], [], [], []
        for rid in rids:
            codes, positions, strands = extract_kmers_with_strand(reads[rid].sequence, spec)
            code_chunks.append(codes)
            pos_chunks.append(positions)
            strand_chunks.append(strands)
            rid_chunks.append(np.full(codes.size, rid, dtype=np.int64))
        if not code_chunks:
            return (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
        codes = np.concatenate(code_chunks)
        rids_arr = np.concatenate(rid_chunks)
        positions = np.concatenate(pos_chunks)
        strands = np.concatenate(strand_chunks)
        order = np.argsort(codes, kind="stable")
        return codes[order], rids_arr[order], positions[order], strands[order]

    def _merge_blocks(
        self,
        table_a: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        table_b: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        same_block: bool,
    ) -> dict[tuple[int, int], list[tuple[int, int, bool]]]:
        """Merge two sorted k-mer tables; collect seeds per read pair."""
        codes_a, rids_a, pos_a, str_a = table_a
        codes_b, rids_b, pos_b, str_b = table_b
        seeds: dict[tuple[int, int], list[tuple[int, int, bool]]] = {}
        if codes_a.size == 0 or codes_b.size == 0:
            return seeds

        # Shared codes via sorted intersection.
        shared = np.intersect1d(codes_a, codes_b)
        for code in shared:
            lo_a = np.searchsorted(codes_a, code, side="left")
            hi_a = np.searchsorted(codes_a, code, side="right")
            lo_b = np.searchsorted(codes_b, code, side="left")
            hi_b = np.searchsorted(codes_b, code, side="right")
            if (hi_a - lo_a) + (hi_b - lo_b) > self.config.max_kmer_freq:
                continue  # repeat suppression
            for i in range(lo_a, hi_a):
                for j in range(lo_b, hi_b):
                    ra, rb = int(rids_a[i]), int(rids_b[j])
                    if ra == rb:
                        continue
                    if same_block and ra > rb:
                        continue  # avoid double counting within a block
                    key = (min(ra, rb), max(ra, rb))
                    if ra <= rb:
                        seed = (int(pos_a[i]), int(pos_b[j]), bool(str_a[i] == str_b[j]))
                    else:
                        seed = (int(pos_b[j]), int(pos_a[i]), bool(str_a[i] == str_b[j]))
                    seeds.setdefault(key, []).append(seed)
        return seeds

    # -- public API -------------------------------------------------------------------

    def run(self, reads: ReadSet) -> DalignerResult:
        """Detect overlaps and align them, reporting the phase timings."""
        config = self.config
        rids = list(range(len(reads)))
        blocks = [rids[i : i + config.block_size]
                  for i in range(0, len(rids), config.block_size)]

        t0 = time.perf_counter()
        tables = [self._block_table(reads, block) for block in blocks]
        all_seeds: dict[tuple[int, int], list[tuple[int, int, bool]]] = {}
        for bi in range(len(blocks)):
            for bj in range(bi, len(blocks)):
                merged = self._merge_blocks(tables[bi], tables[bj], same_block=(bi == bj))
                for key, seed_list in merged.items():
                    all_seeds.setdefault(key, []).extend(seed_list)
        sort_merge_seconds = time.perf_counter() - t0

        # One alignment per pair, seeded by its first shared k-mer (DALIGNER
        # merges seed groups into one local alignment per diagonal band).
        t1 = time.perf_counter()
        chosen = np.array([(ra, rb, *seed_list[0])
                           for (ra, rb), seed_list in all_seeds.items()
                           if len(seed_list) >= config.min_shared_kmers],
                          dtype=np.int64).reshape(-1, 5)
        tasks = TaskBatch(rid_a=chosen[:, 0], rid_b=chosen[:, 1], seed_pos_a=chosen[:, 2],
                          seed_pos_b=chosen[:, 3], same_strand=chosen[:, 4].astype(bool))
        cache = ReadCache()
        for rid in tasks.rids().tolist():
            cache.put(rid, reads[rid].sequence)
        results = batched_xdrop_align(
            tasks, cache, k=config.k, scoring=config.scoring,
            xdrop=config.xdrop, band=config.band,
        )
        alignment_seconds = time.perf_counter() - t1

        return DalignerResult(
            overlap_pairs=set(zip(tasks.rid_a.tolist(), tasks.rid_b.tolist())),
            n_alignments=len(results),
            total_score=int(results.score.sum()),
            seconds_sort_merge=sort_merge_seconds,
            seconds_alignment=alignment_seconds,
        )
