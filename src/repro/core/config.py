"""Pipeline configuration.

Collects every runtime parameter of the diBELLA pipeline in one frozen
dataclass: the k-mer analysis parameters (§2), the streaming/memory bound
(§4: "diBELLA executes in a streaming fashion with a subset of input data at
a time"), the seed-selection constraints (§5, §8), the alignment kernel
settings (§9), and the runtime, serve and fault-injection knobs.
"""

from __future__ import annotations

import os
from dataclasses import InitVar, dataclass, field

from repro.align.batched_xdrop import DEFAULT_XDROP_BAND, BatchedExtensionConfig
from repro.align.scoring import ScoringScheme
from repro.kmers.reliable import high_frequency_threshold
from repro.mpisim.faults import FaultPlan
from repro.overlap.seeds import SeedStrategy
from repro.seq.kmer import KmerSpec


def _env_flag(name: str, default: bool) -> bool:
    """Parse a boolean environment knob (unset -> *default*)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "", "false", "off", "no")


#: The values each init-only compatibility name accepts (its former
#: default; both settings of ``pool``, since every process run is pooled);
#: see ``PipelineConfig``.
_REMOVED_KNOB_DEFAULTS = {
    "collective": ("flat",), "rank_groups": (None,), "pin_ranks": (False,),
    "double_buffer_stages": (None,), "wire_packing": (True,),
    "alignment_batch_tasks": (None,), "double_buffer": (True,),
    "read_cache_mb": (0.0,), "pool": (False, True),
}


def _env_optional_float(name: str, default: float | None) -> float | None:
    """Parse an optional float knob (unset -> *default*, "0" -> None)."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    value = float(raw)
    return None if value == 0 else value


@dataclass(frozen=True)
class PipelineConfig:
    """All runtime parameters of a diBELLA run.

    Attributes
    ----------
    kmer:
        k-mer length and canonicalisation (defaults to 17-mers, §2).
    seed_mode:
        Seeding front-end of stages 1-3.  ``"reliable"`` (the paper) extracts
        and exchanges *every* canonical k-mer; ``"minimizer"`` keeps only the
        minimum-hash k-mer per window of ``minimizer_window`` consecutive
        k-mers (:mod:`repro.kmers.minimizer`), so the Bloom filter, the HLL
        pre-pass, the hash-table exchange, the retained table and pair
        generation all see an expected ``2/(w+1)`` of the stream — a ~w/2-x
        cut of stage 1-3 wire bytes and table memory at a small recall cost
        (measured in ``docs/seed-sketch.md``).  The
        serve path sketches index build and query batches with the same
        (k, w), and the resident-index tag includes the sketch parameters so
        mismatched build/query modes never share an index.  The default
        honours ``DIBELLA_SEED_MODE`` (CLI ``--seed-mode``).
    minimizer_window:
        Window length w (in k-mers) of the minimizer sketch; ``1`` selects
        every k-mer (sketching off), larger windows trade seed density for
        volume.  Ignored in ``"reliable"`` mode.  The default honours
        ``DIBELLA_MINIMIZER_WINDOW`` (CLI ``--minimizer-window``).
    min_kmer_count:
        Lower bound of the reliable range — k-mers below it are singletons
        and dropped (always 2 in the paper).
    high_freq_threshold:
        Upper bound m of the reliable range; ``None`` means "compute it from
        the data characteristics with the BELLA model" (needs the coverage
        and error-rate hints).
    coverage_hint / error_rate_hint:
        Data-set characteristics used to compute m when it is not given
        explicitly.
    bloom_fp_rate:
        Target false-positive rate when sizing each rank's Bloom-filter
        partition.
    hll_precision:
        Register-index bits of the HyperLogLog sketch used to estimate the
        number of *distinct* k-mers before sizing the Bloom filter (§6,
        eq. 2).  14 gives ~0.8% relative error at 16 KiB per rank.
    batch_reads:
        Number of local reads parsed per streaming superstep in stages 1-2 —
        the memory-bounding knob of §4.  All ranks execute the same number
        of supersteps (the maximum over ranks), padding with empty exchanges.
        The default honours ``DIBELLA_BATCH_READS`` (CLI ``--batch-reads``).
    seed_strategy:
        Which shared seeds to align per overlapping pair (§5's one-seed /
        1 kbp separation / k separation settings).
    xdrop / band / scoring / min_alignment_score:
        Alignment-stage x-drop kernel configuration (§9).
    backend:
        SPMD runtime backend: ``"thread"`` (ranks are threads, zero-copy
        collectives, compute serialised by the GIL) or ``"process"`` (ranks
        are processes exchanging typed buffers via shared memory — real
        multi-core compute).  The process ranks are the rank pool: forked on
        the first run and parked between runs, so a serve rank keeps its
        resident index, the index reads and their read cache, as a thread
        rank does; a one-shot run keeps nothing.  The default honours the
        ``DIBELLA_BACKEND`` environment variable so whole test/CI runs can
        be switched without touching call sites.
    exchange_chunk_mb:
        Memory bound (MiB of wire payload per rank) on each superstep of the
        overlap stage's streamed pair exchange; at most two chunks are in
        flight per rank (the double buffer), so this also bounds the pair
        buffers held in memory.  ``None`` disables chunking (one monolithic
        Alltoallv, the paper's original pattern).  The default honours
        ``DIBELLA_EXCHANGE_CHUNK_MB`` (``0`` disables chunking; CLI
        ``--exchange-chunk-mb``).
    hash_table_shards:
        Number of k-mer code-range shards the occurrence table is cut
        into.  With ``S > 1`` the hash-table/overlap boundary streams one
        contiguous code range at a time through filter → pair generation →
        release, so peak retained-table memory drops to roughly the largest
        shard instead of the whole partition (counter
        ``retained_table_peak_bytes``).  Output is bit-identical for every
        shard count.  The default honours ``DIBELLA_HASH_SHARDS``.
    serve_batch_reads:
        Serve-phase admission bound: the
        :class:`~repro.core.service.AlignmentService` coalesces queued query
        submissions into one drained batch of at most this many reads, so a
        burst of small submissions pays the per-batch SPMD dispatch once.
        The default honours ``DIBELLA_SERVE_BATCH_READS``.
    sanitize:
        Arm the runtime sanitizer for every SPMD run this pipeline launches:
        cross-rank collective congruence checks, split-phase segment
        lifecycle guards, and a hang watchdog (see
        :mod:`repro.mpisim.sanitize` and ``docs/static-analysis.md``).
        Observation-only on the happy path — sanitized runs are
        bit-identical to unsanitized ones.  The default honours
        ``DIBELLA_SANITIZE`` (CLI ``--sanitize``).
    fault_plan:
        Deterministic fault plan injected into this pipeline's SPMD runs
        (grammar in :mod:`repro.mpisim.faults`, e.g.
        ``"kill:rank=2:step=3"``): kill a rank process, stall a collective,
        or fail a rank with a typed error at an exact superstep — the test
        harness behind ``docs/fault-tolerance.md``.  ``kill`` faults need
        ``backend="process"``.  ``None`` (the default) injects nothing; the
        default honours ``DIBELLA_FAULT_PLAN`` (CLI ``--fault-plan``).
    serve_max_retries:
        How many times the :class:`~repro.core.service.AlignmentService`
        retries an index build or query batch whose SPMD run died from a
        rank failure (the evicted pool is respawned and the resident index
        rebuilt; retried batches stay bit-identical).  ``0`` disables
        recovery — the first :class:`~repro.mpisim.errors.RankFailedError`
        propagates.  The default honours ``DIBELLA_SERVE_MAX_RETRIES``
        (CLI ``--serve-max-retries``).
    collective, rank_groups, pin_ranks, double_buffer_stages, wire_packing, alignment_batch_tasks, double_buffer, read_cache_mb, pool:
        Compatibility names of removed second paths: a hierarchical
        collective layout, per-stage double buffering, the ASCII read wire
        format, batched read fetch, the bulk-synchronous superstep
        schedule, a byte bound on the read cache and process ranks forked
        afresh for every run.  They are init-only (not stored, not in
        :func:`dataclasses.fields`) and accept only the values in
        :data:`_REMOVED_KNOB_DEFAULTS` (their former defaults; ``pool``
        accepts ``False`` and ``True``), so callers that spell out every
        knob keep working; any other value raises :class:`ValueError`.
    """

    kmer: KmerSpec = field(default_factory=lambda: KmerSpec(k=17))
    seed_mode: str = field(
        default_factory=lambda: os.environ.get("DIBELLA_SEED_MODE", "reliable")
    )
    minimizer_window: int = field(
        default_factory=lambda: int(os.environ.get("DIBELLA_MINIMIZER_WINDOW", "11"))
    )
    min_kmer_count: int = 2
    high_freq_threshold: int | None = None
    coverage_hint: float | None = None
    error_rate_hint: float | None = None
    bloom_fp_rate: float = 0.05
    hll_precision: int = 14
    batch_reads: int = field(
        default_factory=lambda: int(os.environ.get("DIBELLA_BATCH_READS", "2048"))
    )
    # spmdlint: disable=SL005 composite SeedStrategy object; the CLI exposes it
    # as the named presets of --seed-strategy (the "dk" preset depends on -k),
    # so a scalar env default cannot express it.
    seed_strategy: SeedStrategy = field(default_factory=SeedStrategy.one_seed)
    xdrop: int = 25
    band: int = DEFAULT_XDROP_BAND
    scoring: ScoringScheme = field(default_factory=ScoringScheme)
    min_alignment_score: int = 0
    backend: str = field(
        default_factory=lambda: os.environ.get("DIBELLA_BACKEND", "thread")
    )
    exchange_chunk_mb: float | None = field(
        default_factory=lambda: _env_optional_float("DIBELLA_EXCHANGE_CHUNK_MB", 8.0)
    )
    hash_table_shards: int = field(
        default_factory=lambda: int(os.environ.get("DIBELLA_HASH_SHARDS", "4"))
    )
    serve_batch_reads: int = field(
        default_factory=lambda: int(os.environ.get("DIBELLA_SERVE_BATCH_READS", "4096"))
    )
    sanitize: bool = field(
        default_factory=lambda: _env_flag("DIBELLA_SANITIZE", False)
    )
    fault_plan: str | None = field(
        default_factory=lambda: os.environ.get("DIBELLA_FAULT_PLAN") or None
    )
    serve_max_retries: int = field(
        default_factory=lambda: int(os.environ.get("DIBELLA_SERVE_MAX_RETRIES", "2"))
    )
    collective: InitVar[str] = "flat"
    rank_groups: InitVar[int | None] = None
    pin_ranks: InitVar[bool] = False
    double_buffer_stages: InitVar[tuple[str, ...] | None] = None
    wire_packing: InitVar[bool] = True
    alignment_batch_tasks: InitVar[int | None] = None
    double_buffer: InitVar[bool] = True
    read_cache_mb: InitVar[float] = 0.0
    pool: InitVar[bool] = False

    def __post_init__(self, collective: str, rank_groups: int | None,
                      pin_ranks: bool, double_buffer_stages: tuple[str, ...] | None,
                      wire_packing: bool, alignment_batch_tasks: int | None,
                      double_buffer: bool, read_cache_mb: float,
                      pool: bool) -> None:
        given = {"collective": collective, "rank_groups": rank_groups,
                 "pin_ranks": pin_ranks,
                 "double_buffer_stages": double_buffer_stages,
                 "wire_packing": wire_packing,
                 "alignment_batch_tasks": alignment_batch_tasks,
                 "double_buffer": double_buffer, "read_cache_mb": read_cache_mb,
                 "pool": pool}
        changed = {name: value for name, value in given.items()
                   if (type(value), value) not in
                   [(type(accepted), accepted)
                    for accepted in _REMOVED_KNOB_DEFAULTS[name]]}
        if changed:
            raise ValueError(
                f"removed knobs {changed} accept only their former defaults "
                f"{_REMOVED_KNOB_DEFAULTS}")
        if self.seed_mode not in ("reliable", "minimizer"):
            raise ValueError(f"unknown seed mode {self.seed_mode!r}")
        if self.minimizer_window < 1:
            raise ValueError("minimizer_window must be >= 1")
        if self.min_kmer_count < 1:
            raise ValueError("min_kmer_count must be >= 1")
        if self.high_freq_threshold is not None and self.high_freq_threshold < self.min_kmer_count:
            raise ValueError("high_freq_threshold must be >= min_kmer_count")
        if not (0.0 < self.bloom_fp_rate < 1.0):
            raise ValueError("bloom_fp_rate must be in (0, 1)")
        if not (4 <= self.hll_precision <= 18):
            raise ValueError("hll_precision must be in [4, 18]")
        if self.batch_reads < 1:
            raise ValueError("batch_reads must be >= 1")
        # Fail here, not in stage 4 after stages 1-3 have run.
        BatchedExtensionConfig(xdrop=self.xdrop, band=self.band)
        if self.backend not in ("thread", "process"):
            raise ValueError(f"unknown runtime backend {self.backend!r}")
        if self.exchange_chunk_mb is not None and self.exchange_chunk_mb <= 0:
            raise ValueError("exchange_chunk_mb must be positive (or None to disable)")
        if self.hash_table_shards < 1:
            raise ValueError("hash_table_shards must be >= 1")
        if self.serve_batch_reads < 1:
            raise ValueError("serve_batch_reads must be >= 1")
        if self.serve_max_retries < 0:
            raise ValueError("serve_max_retries must be >= 0 (0 = no recovery)")
        if self.fault_plan is not None:
            # Parse eagerly so a malformed plan fails at configuration time,
            # not at an arbitrary later spmd_run.
            plan = FaultPlan.parse(self.fault_plan)
            if plan.has_kill and self.backend == "thread":
                raise ValueError(
                    "fault plan contains a 'kill' fault but backend='thread': "
                    "ranks are threads of this process, so killing one would "
                    "kill the whole run — use backend='process' (or an 'exit' "
                    "fault)"
                )

    # -- derived parameters ---------------------------------------------------

    @property
    def exchange_chunk_bytes(self) -> int | None:
        """The overlap-exchange chunk bound in bytes (``None`` = unchunked)."""
        if self.exchange_chunk_mb is None:
            return None
        return int(self.exchange_chunk_mb * (1 << 20))

    def resolve_high_freq_threshold(self) -> int:
        """The high-occurrence cutoff m actually used for a run.

        If ``high_freq_threshold`` is set, return it.  Otherwise compute it
        with the BELLA model from the coverage and error-rate hints; missing
        hints fall back to conservative long-read defaults (coverage 30,
        error 0.12), which keeps small test runs working without hints.
        """
        if self.high_freq_threshold is not None:
            return self.high_freq_threshold
        coverage = self.coverage_hint if self.coverage_hint is not None else 30.0
        error_rate = self.error_rate_hint if self.error_rate_hint is not None else 0.12
        return high_frequency_threshold(coverage, error_rate, self.kmer.k)
