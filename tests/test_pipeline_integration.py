"""Integration tests: the full diBELLA pipeline end to end.

These tests exercise the real stack — synthetic reads, the simulated SPMD
runtime, all four stages — and check the scientific invariants the system
must satisfy: detected overlaps against ground truth, consistency of the
global counters, and invariance of the *output* under different rank counts
(the distributed decomposition must not change the answer).
"""

import dataclasses

import numpy as np
import pytest

from repro import native
from repro.cli import main
from repro.core.config import PipelineConfig
from repro.core.counters import SCHEDULE_FLAG_COUNTERS

pytestmark = pytest.mark.slow
from repro.core.pipeline import DibellaPipeline
from repro.core.driver import run_dibella
from repro.core.result import STAGE_NAMES
from repro.core.stages import reset_resident_indexes
from repro.mpisim.topology import Topology
from repro.overlap.seeds import SeedStrategy
from repro.seq.kmer import KmerSpec
from repro.stats.quality import overlap_recall_precision


@pytest.fixture(scope="module")
def micro_run(micro_dataset, micro_config):
    """One pipeline run on the micro data set, shared by the checks below."""
    return run_dibella(micro_dataset.reads, config=micro_config,
                       n_nodes=1, ranks_per_node=2)


class TestEndToEnd:
    def test_finds_true_overlaps(self, micro_dataset, micro_run):
        truth = micro_dataset.true_overlaps(min_overlap=400)
        quality = overlap_recall_precision(micro_run.overlap_pairs(), truth)
        assert quality.n_true > 10
        assert quality.recall > 0.9

    def test_counters_consistent(self, micro_run):
        counters = micro_run.counters
        assert counters["kmers_parsed"] == counters["kmers_received_bloom"]
        assert counters["kmers_parsed"] == counters["kmers_received_hashtable"]
        assert counters["retained_kmers"] <= counters["distinct_keys"]
        assert counters["occurrences_stored"] >= counters["retained_occurrences"]
        assert micro_run.n_alignments == counters["alignment_tasks"]
        assert counters["accepted_alignments"] <= counters["alignments"]

    def test_one_seed_means_one_alignment_per_pair(self, micro_run):
        assert micro_run.n_alignments == micro_run.n_overlap_pairs

    def test_bloom_sized_from_distinct_estimate(self, micro_run):
        # The HLL pre-pass estimates the number of *distinct* k-mers; the
        # Bloom filter is sized from it, not from the instance count.
        estimate = micro_run.counters["hll_distinct_estimate"]
        assert estimate > 0
        # Distinct >= k-mers seen at least twice (the candidate keys), up to
        # the ~1% sketch error; and never more than the parsed instances.
        assert estimate >= 0.9 * micro_run.counters["distinct_keys"]
        assert estimate <= micro_run.counters["kmers_parsed"]

    def test_overlap_tables_match_records(self, micro_run):
        tables = micro_run.overlap_tables()
        assert sum(len(t) for t in tables) == micro_run.n_overlap_pairs
        flat_pairs = {(int(a), int(b)) for t in tables
                      for a, b in zip(t.rid_a, t.rid_b)}
        assert flat_pairs == micro_run.overlap_pairs()

    def test_stage_records_complete(self, micro_run):
        assert [s.name for s in micro_run.stages] == list(STAGE_NAMES)
        for record in micro_run.stages:
            assert record.work_per_rank.shape == (2,)
            assert (record.work_per_rank >= 0).all()
            assert record.load_imbalance() >= 1.0
        assert micro_run.stage("bloom").includes_first_alltoallv
        assert not micro_run.stage("alignment").includes_first_alltoallv

    def test_trace_has_all_phases(self, micro_run):
        phases = set(micro_run.trace.phases())
        assert {"bloom_exchange", "hashtable_exchange", "overlap_exchange",
                "alignment_exchange"} <= phases
        assert micro_run.trace.total_bytes() > 0

    def test_alignment_table_matches_accepted(self, micro_run):
        table = micro_run.alignment_table()
        assert table["rid_a"].size == micro_run.counters["accepted_alignments"]
        assert (table["rid_a"] < table["rid_b"]).all()
        assert (table["score"] >= 0).all()

    def test_summary_and_wall_time(self, micro_run):
        summary = micro_run.summary()
        assert summary["wall_seconds"] > 0
        assert summary["overlap_pairs"] == micro_run.n_overlap_pairs

    def test_stage_wall_seconds(self, micro_run):
        # Measured per-rank walls on every stage record, which Figure 8's
        # load imbalance reads.
        for name in STAGE_NAMES:
            assert micro_run.stage(name).wall_compute_seconds.shape == (2,)
        assert micro_run.stage("alignment").wall_compute_seconds.max() > 0
        assert micro_run.load_imbalance() >= 1.0


class TestKernelTiers:
    def test_numpy_fallback_is_bit_identical(self, micro_dataset, micro_config,
                                              monkeypatch):
        """With the compiled tier unavailable — the x-drop kernel, the Bloom
        filter, the key gate and the k-mer extraction all on NumPy — run()
        gives the same science."""
        # Thread backend: the loader patch must reach the ranks, which a
        # rank pool forked before this test would not see.
        config = dataclasses.replace(micro_config, backend="thread")

        def run():
            return run_dibella(micro_dataset.reads, config=config,
                               n_nodes=1, ranks_per_node=2)

        default = run()
        compiled = native.library() is not None
        assert (default.counters["align_native_ranks"] > 0) == compiled
        # Every micro-set extension fits 16-bit lanes: two per alignment.
        assert default.counters["align_int16_extensions"] == (
            2 * default.counters["alignments"] if compiled else 0)
        monkeypatch.setattr(native, "library", lambda: None)
        fallback = run()
        assert fallback.counters["align_native_ranks"] == 0
        assert fallback.counters["align_int16_extensions"] == 0
        assert fallback.overlap_pairs() == default.overlap_pairs()
        for column, values in default.alignment_table().items():
            np.testing.assert_array_equal(fallback.alignment_table()[column], values)
        science = [name for name in default.counters if name not in SCHEDULE_FLAG_COUNTERS]
        assert ({name: fallback.counters[name] for name in science}
                == {name: default.counters[name] for name in science})

    @staticmethod
    def _per_rank_science(result):
        """Every rank's science counters: the wire payloads of each exchange
        are counted on the receiving rank, so equal per-rank counters mean
        every destination received the same bytes."""
        return [{name: value for name, value in report.counters.items()
                 if name not in SCHEDULE_FLAG_COUNTERS}
                for report in result.rank_reports]

    def test_three_rank_one_shot_is_bit_identical(self, micro_dataset, micro_config,
                                                  monkeypatch):
        """At three ranks (a modulus the owner hash cannot take as a bit
        mask) the compiled routing of stages 1-3 and the read requests,
        and the compiled HyperLogLog, give the NumPy tier's science and
        the same payload bytes on every rank."""
        config = dataclasses.replace(micro_config, backend="thread")

        def run():
            return run_dibella(micro_dataset.reads, config=config,
                               n_nodes=1, ranks_per_node=3)

        default = run()
        monkeypatch.setattr(native, "library", lambda: None)
        fallback = run()
        assert fallback.overlap_pairs() == default.overlap_pairs()
        payloads = [name for name in default.counters if name.endswith("_payload_bytes")]
        assert {"bloom_payload_bytes", "hashtable_payload_bytes"} <= set(payloads)
        assert all(default.counters[name] > 0 for name in payloads)
        assert self._per_rank_science(fallback) == self._per_rank_science(default)

    def test_index_build_is_bit_identical(self, micro_dataset, micro_config,
                                          monkeypatch):
        """The serve phase's index build routes every occurrence with the
        fused compiled packing; the NumPy tier builds the same index on
        every rank (``index_digest``) from the same payload bytes."""
        config = dataclasses.replace(micro_config, backend="thread")

        def build():
            try:
                return DibellaPipeline(config=config, topology=Topology.single_node(3)
                                       ).build_index(micro_dataset.reads)
            finally:
                reset_resident_indexes()

        default = build()
        monkeypatch.setattr(native, "library", lambda: None)
        fallback = build()
        assert default.counters["hashtable_payload_bytes"] > 0
        assert [r.counters["index_digest"] for r in fallback.rank_reports] == [
            r.counters["index_digest"] for r in default.rank_reports]
        assert self._per_rank_science(fallback) == self._per_rank_science(default)


class TestDecompositionInvariance:
    """The distributed decomposition must not change the scientific output."""

    @pytest.mark.parametrize("n_nodes,ranks_per_node", [(1, 1), (1, 3), (2, 2)])
    def test_overlap_pairs_invariant(self, micro_dataset, micro_config,
                                     n_nodes, ranks_per_node):
        baseline = run_dibella(micro_dataset.reads, config=micro_config,
                               n_nodes=1, ranks_per_node=2)
        other = run_dibella(micro_dataset.reads, config=micro_config,
                            n_nodes=n_nodes, ranks_per_node=ranks_per_node)
        assert other.overlap_pairs() == baseline.overlap_pairs()
        assert other.n_retained_kmers == baseline.n_retained_kmers
        assert other.counters["distinct_keys"] == baseline.counters["distinct_keys"]

    def test_task_counts_balanced(self, micro_dataset, micro_config):
        result = run_dibella(micro_dataset.reads, config=micro_config,
                             n_nodes=2, ranks_per_node=2)
        tasks = np.array([r.counters.get("alignments", 0) for r in result.rank_reports])
        assert tasks.sum() == result.n_alignments
        # Algorithm 1 + uniform RIDs: task counts per rank within ~50% of the mean.
        assert tasks.max() <= 1.6 * tasks.mean()


class TestConfigurationEffects:
    def test_more_seeds_means_more_alignments(self, micro_dataset):
        base = PipelineConfig(kmer=KmerSpec(k=15), coverage_hint=12, error_rate_hint=0.08)
        one = run_dibella(micro_dataset.reads, config=base, ranks_per_node=2)
        all_seeds = dataclasses.replace(base, seed_strategy=SeedStrategy.separated_by(15))
        many = run_dibella(micro_dataset.reads, config=all_seeds, ranks_per_node=2)
        assert many.n_alignments > one.n_alignments
        assert many.n_overlap_pairs == one.n_overlap_pairs

    def test_min_alignment_score_filters_output(self, micro_dataset, micro_config):
        from dataclasses import replace
        strict = replace(micro_config, min_alignment_score=150)
        loose = replace(micro_config, min_alignment_score=0)
        strict_run = run_dibella(micro_dataset.reads, config=strict, ranks_per_node=2)
        loose_run = run_dibella(micro_dataset.reads, config=loose, ranks_per_node=2)
        assert (strict_run.counters["accepted_alignments"]
                < loose_run.counters["accepted_alignments"])
        assert strict_run.n_alignments == loose_run.n_alignments

    def test_high_freq_threshold_filters_repeats(self, small_dataset):
        permissive = PipelineConfig(kmer=KmerSpec(k=15), high_freq_threshold=4096,
                                    coverage_hint=15, error_rate_hint=0.10)
        strict = PipelineConfig(kmer=KmerSpec(k=15), high_freq_threshold=8,
                                coverage_hint=15, error_rate_hint=0.10)
        run_perm = run_dibella(small_dataset.reads, config=permissive, ranks_per_node=2)
        run_strict = run_dibella(small_dataset.reads, config=strict, ranks_per_node=2)
        assert run_strict.n_retained_kmers < run_perm.n_retained_kmers
        assert run_strict.n_overlap_pairs <= run_perm.n_overlap_pairs

    def test_streaming_batches_do_not_change_output(self, micro_dataset, micro_config):
        from dataclasses import replace
        big_batches = run_dibella(micro_dataset.reads, config=micro_config, ranks_per_node=2)
        tiny_batches = run_dibella(micro_dataset.reads,
                                   config=replace(micro_config, batch_reads=5),
                                   ranks_per_node=2)
        assert tiny_batches.overlap_pairs() == big_batches.overlap_pairs()
        # More supersteps means more collective calls in the k-mer stages.
        assert (tiny_batches.trace.phase_traffic("bloom_exchange").collective_calls
                >= big_batches.trace.phase_traffic("bloom_exchange").collective_calls)

    @pytest.mark.parametrize("seed_mode", ["reliable", "minimizer"])
    def test_batch_reads_does_not_change_the_science(self, micro_dataset,
                                                     micro_config, seed_mode):
        # The batch size only moves which rank owns a pair (Algorithm 1's
        # odd/even rule reads occurrence order).  Seeds are consolidated per
        # pair and sorted by position, so the seed a pair is aligned from,
        # and with it every alignment, stays put.
        def rows(result):
            table = result.alignment_table()
            columns = ("rid_a", "rid_b", "score", "span_a", "span_b")
            return sorted(zip(*(table[c].tolist() for c in columns)))

        runs = [run_dibella(micro_dataset.reads,
                            config=dataclasses.replace(
                                micro_config, batch_reads=batch_reads,
                                seed_mode=seed_mode),
                            ranks_per_node=3)
                for batch_reads in (3, 8, 10_000)]
        assert rows(runs[0])
        for run in runs[1:]:
            assert run.overlap_pairs() == runs[0].overlap_pairs()
            assert rows(run) == rows(runs[0])

    def test_empty_readset_rejected(self, micro_config):
        from repro.seq.records import ReadSet
        pipeline = DibellaPipeline(config=micro_config, topology=Topology.single_node(2))
        with pytest.raises(ValueError):
            pipeline.run(ReadSet())


class TestConfigValidation:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            PipelineConfig(min_kmer_count=0)
        with pytest.raises(ValueError):
            PipelineConfig(high_freq_threshold=1, min_kmer_count=2)
        with pytest.raises(ValueError):
            PipelineConfig(bloom_fp_rate=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(batch_reads=0)

    def test_removed_collective_knobs_are_compatibility_names(self):
        # The call shape of callers that spell out every knob still works.
        PipelineConfig(collective="flat", rank_groups=None, pin_ranks=False,
                       double_buffer_stages=None, wire_packing=True,
                       alignment_batch_tasks=None, double_buffer=True)
        names = {field.name for field in dataclasses.fields(PipelineConfig)}
        assert not names & {"collective", "rank_groups", "pin_ranks",
                            "double_buffer_stages", "wire_packing",
                            "alignment_batch_tasks", "double_buffer"}
        for knob in ({"collective": "hier"}, {"rank_groups": 2},
                     {"pin_ranks": True}, {"double_buffer_stages": ("bloom",)},
                     {"double_buffer_stages": ()}, {"wire_packing": False},
                     {"wire_packing": 1}, {"alignment_batch_tasks": 64},
                     {"double_buffer": False}, {"double_buffer": 0}):
            with pytest.raises(ValueError, match="accept only their former defaults"):
                PipelineConfig(**knob)
        for argv in (["run", "--collective", "hier"],
                     ["run", "--no-double-buffer"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_pool_is_a_compatibility_name(self):
        """Process ranks always run on the rank pool; ``pool`` stays an
        init-only name that accepts either bool and changes nothing."""
        assert PipelineConfig(pool=True) == PipelineConfig(pool=False) == PipelineConfig()
        assert "pool" not in {field.name for field in dataclasses.fields(PipelineConfig)}
        for value in (1, 0, None, "true"):
            with pytest.raises(ValueError, match="pool"):
                PipelineConfig(pool=value)

    def test_hash_table_shards_is_a_compatibility_name(self):
        """The k-mer index is one table; ``hash_table_shards`` stays an
        init-only name that accepts only its former default 4."""
        assert PipelineConfig(hash_table_shards=4) == PipelineConfig()
        assert "hash_table_shards" not in {
            field.name for field in dataclasses.fields(PipelineConfig)}
        for value in (1, 3, 4.0, True):
            with pytest.raises(ValueError, match="hash_table_shards"):
                PipelineConfig(hash_table_shards=value)

    def test_kernel_parameters_validated_up_front(self):
        # Rejected at construction, not in stage 4 after stages 1-3 ran.
        with pytest.raises(ValueError, match="xdrop must be positive"):
            PipelineConfig(xdrop=0)
        with pytest.raises(ValueError, match="band must be at least 3"):
            PipelineConfig(band=2)

    def test_resolve_high_freq_threshold(self):
        explicit = PipelineConfig(high_freq_threshold=42)
        assert explicit.resolve_high_freq_threshold() == 42
        derived = PipelineConfig(coverage_hint=100, error_rate_hint=0.15)
        default = PipelineConfig()
        assert derived.resolve_high_freq_threshold() > 0
        assert derived.resolve_high_freq_threshold() >= default.resolve_high_freq_threshold()

    def test_replace_revalidates(self):
        """``dataclasses.replace`` derives a config and re-runs every check."""
        config = PipelineConfig()
        strategy = SeedStrategy.separated_by(500)
        assert dataclasses.replace(config, seed_strategy=strategy).seed_strategy == strategy
        assert dataclasses.replace(config, sanitize=True).sanitize is True
        with pytest.raises(ValueError, match="batch_reads"):
            dataclasses.replace(config, batch_reads=0)
        with pytest.raises(ValueError, match="kill"):
            dataclasses.replace(config, backend="thread", fault_plan="kill:rank=1:step=1")


class TestReadOwnerCoverage:
    """An incomplete read partition must fail loudly, not route to garbage."""

    def test_missing_reads_raise_descriptive_error(self, toy_reads):
        from repro.core.stages import _build_read_owner

        with pytest.raises(ValueError, match=r"does not cover 2 of 4 reads"):
            _build_read_owner(toy_reads, [[0], [3]])

    def test_error_names_missing_rids(self, toy_reads):
        from repro.core.stages import _build_read_owner

        with pytest.raises(ValueError, match=r"missing RIDs: 1, 2"):
            _build_read_owner(toy_reads, [[0], [3]])

    def test_full_cover_builds_owner_map(self, toy_reads):
        from repro.core.stages import _build_read_owner

        owner = _build_read_owner(toy_reads, [[0, 2], [1, 3]])
        np.testing.assert_array_equal(owner, [0, 1, 0, 1])

    def test_doubly_assigned_read_raises(self, toy_reads):
        from repro.core.stages import _build_read_owner

        with pytest.raises(ValueError, match="more than one rank"):
            _build_read_owner(toy_reads, [[0, 1], [1, 2, 3]])

    def test_pipeline_program_propagates_the_error(self, toy_reads, micro_config):
        from repro.core.stages import run_rank_pipeline
        from repro.mpisim.errors import RankFailedError
        from repro.mpisim.runtime import spmd_run

        with pytest.raises(RankFailedError, match="does not cover"):
            spmd_run(1, run_rank_pipeline, toy_reads, [[0, 1, 2]],
                     micro_config, 8)
