"""Minimizer sketch mode: extractor properties, pipeline threading, parity.

Three layers of pinning:

* **extractor properties** (hypothesis) — the invariants that make the
  sketch a sound seed set: every w-window of a read contains a selected
  position (coverage), the sketch is a subset of the full canonical k-mer
  stream, it agrees with :func:`extract_kmers_with_strand` on
  canonicalization, the pipeline's batch funnel (``stages._extract_batch_kmers``)
  and the one-read oracle are equivalent, and w=1 degenerates to the full
  stream;
* **pipeline threading** — ``seed_mode="minimizer"`` actually shrinks the
  stage 1-3 exchange volume and the retained table, reports the density
  counters, and still finds overlaps; config/env knob validation;
* **parity** — per seed mode the run is bit-identical across
  {thread, process} backends, and the serve phase (build + query under
  minimizer mode) reproduces the one-shot run's query-vs-index alignments
  and builds content-identical resident indexes on both backends.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import _build_parser, _config
from repro.core import DibellaPipeline, PipelineConfig
from repro.core.driver import run_dibella
from repro.core.stages import (
    _extract_batch_kmers,
    reset_persistent_read_caches,
    reset_resident_indexes,
)
from repro.data.datasets import DatasetSpec, generate_dataset
from repro.data.genome import GenomeSpec
from repro.data.reads import ReadSimSpec
from repro.kmers.minimizer import minimizer_mask, sketch_hash
from repro.mpisim.backend import shutdown_rank_pools
from repro.mpisim.topology import Topology
from repro.seq.kmer import (
    KmerSpec,
    extract_kmers_batch,
    extract_kmers_with_strand,
)
from repro.seq.records import Read, ReadSet

from oracles import sketch_kmers_with_strand

K = 9
SPEC = KmerSpec(k=K)

dna = st.text(alphabet="ACGT", min_size=0, max_size=120)
windows = st.integers(min_value=1, max_value=15)


def sketch_batch(seqs, window):
    """The minimizer sketch of *seqs* through the pipeline's k-mer funnel:
    ``(canonical codes, read index, positions, is_forward)``."""
    readset = ReadSet(Read(name=f"r{i}", sequence=seq) for i, seq in enumerate(seqs))
    config = PipelineConfig(kmer=SPEC, seed_mode="minimizer", minimizer_window=window)
    return _extract_batch_kmers(readset, list(range(len(seqs))), config,
                                with_positions=True)


def _cleanup():
    shutdown_rank_pools()
    reset_persistent_read_caches()
    reset_resident_indexes()


class TestMinimizerMask:
    """Invariants of the raw mask over (hashes, read_index) streams."""

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                             min_size=0, max_size=40),
                    min_size=0, max_size=6),
           windows)
    @settings(max_examples=80, deadline=None)
    def test_coverage_and_per_read_selection(self, reads, window):
        hashes = np.array([h for read in reads for h in read], dtype=np.uint64)
        read_index = np.array(
            [i for i, read in enumerate(reads) for _ in read], dtype=np.int64)
        mask = minimizer_mask(hashes, read_index, window)
        assert mask.shape == hashes.shape
        # Coverage: every intra-read window of `window` consecutive k-mers
        # contains a selected position.
        n = hashes.size
        for start in range(max(0, n - window + 1)):
            if read_index[start] == read_index[start + window - 1]:
                assert mask[start:start + window].any()
        # Every read with at least one k-mer keeps at least one.
        for i, read in enumerate(reads):
            if read:
                assert mask[read_index == i].any()
        if window == 1:
            assert mask.all()

    @given(st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                    min_size=0, max_size=60), windows)
    @settings(max_examples=60, deadline=None)
    def test_selected_are_window_minima(self, hashes, window):
        h = np.asarray(hashes, dtype=np.uint64)
        reads = np.zeros(h.size, dtype=np.int64)
        mask = minimizer_mask(h, reads, window)
        if 0 < h.size < window:
            # Shorter than one window: exactly the read's leftmost global
            # minimum is kept.
            expected = np.zeros(h.size, dtype=bool)
            expected[int(np.argmin(h))] = True
            np.testing.assert_array_equal(mask, expected)
            return
        for pos in np.flatnonzero(mask):
            # A selected k-mer is the leftmost minimum of some full window
            # containing it (single-read stream: every window is intra-read).
            starts = range(max(0, pos - window + 1),
                           min(pos, h.size - window) + 1)
            assert any(start + int(np.argmin(h[start:start + window])) == pos
                       for start in starts), (pos, window, hashes)

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            minimizer_mask(np.zeros(3, dtype=np.uint64),
                           np.zeros(3, dtype=np.int64), 0)
        with pytest.raises(ValueError, match="shape"):
            minimizer_mask(np.zeros(3, dtype=np.uint64),
                           np.zeros(2, dtype=np.int64), 2)


class TestSketchExtraction:
    """The sketch against the full extraction of repro.seq.kmer."""

    @given(st.lists(dna, min_size=0, max_size=6), windows)
    @settings(max_examples=60, deadline=None)
    def test_subset_of_full_canonical_stream(self, seqs, window):
        full_codes, full_ri, full_pos, full_strand = extract_kmers_batch(
            seqs, SPEC, with_strand=True)
        codes, ri, pos, strand = sketch_batch(seqs, window)
        full = {(int(r), int(p)): (int(c), bool(s))
                for r, p, c, s in zip(full_ri, full_pos, full_codes, full_strand)}
        for r, p, c, s in zip(ri, pos, codes, strand):
            # Same canonical code and strand flag as the full extraction at
            # the same (read, position) — the sketch only drops entries.
            assert full[(int(r), int(p))] == (int(c), bool(s))
        if window == 1:
            np.testing.assert_array_equal(codes, full_codes)
            np.testing.assert_array_equal(ri, full_ri)
            np.testing.assert_array_equal(pos, full_pos)
            np.testing.assert_array_equal(strand, full_strand)

    @given(dna, windows)
    @settings(max_examples=60, deadline=None)
    def test_scalar_agrees_with_extract_kmers_with_strand(self, seq, window):
        codes, pos, strand = sketch_kmers_with_strand(seq, SPEC, window)
        full_codes, full_pos, full_strand = extract_kmers_with_strand(seq, SPEC)
        keep = np.isin(full_pos, pos)
        np.testing.assert_array_equal(codes, full_codes[keep])
        np.testing.assert_array_equal(pos, full_pos[keep])
        np.testing.assert_array_equal(strand, full_strand[keep])
        # Coverage on the real extraction: every full window selects.
        n = full_codes.size
        if n:
            selected = np.zeros(n, dtype=bool)
            selected[np.searchsorted(full_pos, pos)] = True
            for start in range(max(0, n - window + 1)):
                assert selected[start:start + window].any()

    @given(st.lists(dna, min_size=0, max_size=6), windows)
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scalar(self, seqs, window):
        codes, ri, pos, strand = sketch_batch(seqs, window)
        for i, seq in enumerate(seqs):
            s_codes, s_pos, s_strand = sketch_kmers_with_strand(seq, SPEC, window)
            sel = ri == i
            np.testing.assert_array_equal(codes[sel], s_codes)
            np.testing.assert_array_equal(pos[sel], s_pos)
            np.testing.assert_array_equal(strand[sel], s_strand)

    def test_strand_invariance(self):
        # A read and its reverse complement share the same canonical codes,
        # so content-based selection picks the same k-mers on both strands.
        rng = np.random.default_rng(11)
        seq = "".join("ACGT"[i] for i in rng.integers(0, 4, size=200))
        comp = {"A": "T", "C": "G", "G": "C", "T": "A"}
        rc = "".join(comp[b] for b in reversed(seq))
        fwd_codes, _, _ = sketch_kmers_with_strand(seq, SPEC, 7)
        rev_codes, _, _ = sketch_kmers_with_strand(rc, SPEC, 7)
        assert set(fwd_codes.tolist()) == set(rev_codes.tolist())

    def test_density_tracks_expected(self):
        rng = np.random.default_rng(7)
        seqs = ["".join("ACGT"[i] for i in rng.integers(0, 4, size=1500))
                for _ in range(8)]
        full, _, _, _ = extract_kmers_batch(seqs, SPEC, with_strand=True)
        for window in (5, 11, 19):
            codes, _, _, _ = sketch_batch(seqs, window)
            density = codes.size / full.size
            # minimap2's expected density of random sequence, 2 / (w + 1).
            assert density == pytest.approx(2.0 / (window + 1), rel=0.25)

    def test_sketch_hash_is_not_the_owner_hash(self):
        from repro.kmers.hashing import mix64
        codes = np.arange(1, 1000, dtype=np.uint64)
        assert not np.array_equal(sketch_hash(codes), mix64(codes))


class TestConfigKnobs:
    def test_defaults_and_validation(self, monkeypatch):
        monkeypatch.delenv("DIBELLA_SEED_MODE", raising=False)
        monkeypatch.delenv("DIBELLA_MINIMIZER_WINDOW", raising=False)
        config = PipelineConfig()
        assert config.seed_mode == "reliable"
        assert config.minimizer_window == 11
        with pytest.raises(ValueError, match="seed mode"):
            PipelineConfig(seed_mode="syncmer")
        with pytest.raises(ValueError, match="minimizer_window"):
            PipelineConfig(minimizer_window=0)

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("DIBELLA_SEED_MODE", "minimizer")
        monkeypatch.setenv("DIBELLA_MINIMIZER_WINDOW", "5")
        config = PipelineConfig()
        assert config.seed_mode == "minimizer"
        assert config.minimizer_window == 5

    def test_seed_mode_flag_keeps_window(self, monkeypatch):
        """``--seed-mode`` alone leaves the window at its environment default."""
        monkeypatch.setenv("DIBELLA_MINIMIZER_WINDOW", "9")
        for command in ("run", "serve"):
            args = _build_parser().parse_args([command, "--seed-mode", "minimizer"])
            config = _config(args)
            assert (config.seed_mode, config.minimizer_window) == ("minimizer", 9)


@pytest.fixture(scope="module")
def sketch_dataset():
    """The seed-sketch acceptance workload: 6 kbp genome at 30x, error 0.05."""
    return generate_dataset(DatasetSpec(
        name="seed-sketch",
        genome=GenomeSpec(length=6000, repeat_fraction=0.02, repeat_length=300,
                          seed=977),
        reads=ReadSimSpec(coverage=30.0, mean_read_length=1000,
                          min_read_length=400, error_rate=0.05, seed=978),
    ))


@pytest.fixture(scope="module")
def sketch_config() -> PipelineConfig:
    return PipelineConfig(kmer=KmerSpec(k=17), coverage_hint=30.0,
                          error_rate_hint=0.05)


class TestPipelineSketching:
    """Minimizer mode through the full pipeline (thread backend, fast)."""

    @pytest.mark.parametrize(
        "dataset,config,window,ranks,volume_cut,table_cut,min_overlap,recall", [
            ("micro_dataset", "micro_config", 5, 3, 1.0, 1.0, None, 0.8),
            # The minimizer mode's acceptance bar (docs/seed-sketch.md): at
            # w=11, >= 3x less stage 1-3 k-mer wire and >= 2x smaller table
            # peak, keeping >= 95% of the baseline's true overlaps.
            ("sketch_dataset", "sketch_config", 11, 4, 3.0, 2.0, 500, 0.95),
        ], ids=["micro", "acceptance-w11"])
    def test_volume_drops_and_overlaps_survive(self, request, dataset, config,
                                               window, ranks, volume_cut,
                                               table_cut, min_overlap, recall):
        data = request.getfixturevalue(dataset)
        base = request.getfixturevalue(config)
        # Pin both modes explicitly: the suite may run with
        # DIBELLA_SEED_MODE=minimizer exported (the CI leg).
        reliable = run_dibella(data.reads,
                               config=replace(base, seed_mode="reliable", minimizer_window=window),
                               ranks_per_node=ranks)
        sketched = run_dibella(data.reads,
                               config=replace(base, seed_mode="minimizer", minimizer_window=window),
                               ranks_per_node=ranks)

        rc, sc = reliable.counters, sketched.counters
        # Reliable mode: nothing dropped, density exactly 1e6 ppm.
        assert rc["kmers_extracted_total"] == rc["kmers_after_sketch"] > 0
        assert rc["sketch_density_ppm"] == 1_000_000
        # Minimizer mode: the sketch is a strict subset with the expected
        # density, and every stage-1-3 volume counter shrinks with it.
        assert 0 < sc["kmers_after_sketch"] < sc["kmers_extracted_total"]
        assert sc["sketch_density_ppm"] < 600_000
        for counter in ("bloom_payload_bytes", "hashtable_payload_bytes",
                        "overlap_payload_bytes", "retained_table_peak_bytes"):
            assert 0 < sc[counter] < rc[counter], counter

        def kmer_wire(c):
            return (c["bloom_payload_bytes"] + c["hashtable_payload_bytes"]
                    + c["overlap_payload_bytes"])

        assert kmer_wire(rc) >= volume_cut * kmer_wire(sc)
        assert (rc["retained_table_peak_bytes"]
                >= table_cut * sc["retained_table_peak_bytes"])
        # The sketched run still recovers the bulk of the baseline overlaps
        # (only the genuine ones, when a ground-truth bound is given).
        reference = reliable.overlap_pairs()
        if min_overlap is not None:
            reference &= set(data.true_overlaps(min_overlap))
        assert reference
        assert len(sketched.overlap_pairs() & reference) >= recall * len(reference)

    def test_window_one_matches_reliable(self, micro_dataset, micro_config):
        """w=1 selects every k-mer: identical science to reliable mode."""
        reliable = run_dibella(micro_dataset.reads,
                               config=replace(micro_config, seed_mode="reliable"),
                               ranks_per_node=2)
        degenerate = run_dibella(
            micro_dataset.reads,
            config=replace(micro_config, seed_mode="minimizer", minimizer_window=1),
            ranks_per_node=2)
        assert degenerate.overlap_pairs() == reliable.overlap_pairs()
        t, d = reliable.alignment_table(), degenerate.alignment_table()
        for column in t:
            np.testing.assert_array_equal(t[column], d[column])
        assert degenerate.counters["sketch_density_ppm"] == 1_000_000

    @pytest.mark.slow
    @pytest.mark.parametrize("seed_mode,window", [("reliable", 11),
                                                  ("minimizer", 5)])
    def test_backend_parity_per_mode(self, micro_dataset, micro_config,
                                     seed_mode, window):
        """{thread, process} x {reliable, minimizer}: bit-identical per mode."""
        config = replace(micro_config, seed_mode=seed_mode, minimizer_window=window)
        try:
            thread = run_dibella(micro_dataset.reads,
                                 config=replace(config, backend="thread"),
                                 ranks_per_node=3)
            process = run_dibella(micro_dataset.reads,
                                  config=replace(config, backend="process"),
                                  ranks_per_node=3)
            assert thread.counters == process.counters
            assert thread.overlap_pairs() == process.overlap_pairs()
            t_table, p_table = thread.alignment_table(), process.alignment_table()
            for column in t_table:
                np.testing.assert_array_equal(t_table[column], p_table[column])
        finally:
            _cleanup()


class TestServeSketching:
    """Build/serve consistency under minimizer mode."""

    @staticmethod
    def _canonical(table: dict[str, np.ndarray]) -> np.ndarray:
        matrix = np.stack([table["rid_a"], table["rid_b"], table["score"],
                           table["span_a"], table["span_b"]], axis=1)
        order = np.lexsort(tuple(matrix[:, col] for col in range(4, -1, -1)))
        return matrix[order]

    def test_served_batch_matches_one_shot_minimizer(self, micro_dataset,
                                                     micro_config):
        config = replace(micro_config, seed_mode="minimizer", minimizer_window=5)
        readset = micro_dataset.reads
        n_index = (3 * len(readset)) // 4
        reads = list(readset)
        topology = Topology.single_node(4)
        try:
            oneshot = DibellaPipeline(config=config, topology=topology).run(readset)
            table = oneshot.alignment_table()
            cross = (table["rid_a"] < n_index) & (table["rid_b"] >= n_index)
            expected = self._canonical({k: v[cross] for k, v in table.items()})

            pipeline = DibellaPipeline(config=config, topology=topology)
            build = pipeline.build_index(ReadSet(reads[:n_index]))
            served = pipeline.run_query_batch(ReadSet(reads[n_index:]))
            got = self._canonical(served.alignment_table())

            np.testing.assert_array_equal(got, expected)
            # Both phases report the sketch: the build sketches the index
            # reads, the query batch sketches with the same (k, w).
            assert build.counters["sketch_density_ppm"] < 600_000
            assert served.counters["sketch_density_ppm"] < 600_000
        finally:
            _cleanup()

    def test_index_tag_separates_seed_modes(self, micro_dataset, micro_config):
        """A reliable-built index must never serve minimizer queries."""
        topology = Topology.single_node(2)
        try:
            reliable = DibellaPipeline(config=micro_config, topology=topology)
            reliable.build_index(micro_dataset.reads)
            sketched = DibellaPipeline(
                config=replace(micro_config, seed_mode="minimizer", minimizer_window=5),
                topology=topology)
            sketched.build_index(micro_dataset.reads)
            assert reliable._index_tag != sketched._index_tag
            assert "minw5" in sketched._index_tag
            windowed = DibellaPipeline(
                config=replace(micro_config, seed_mode="minimizer", minimizer_window=7),
                topology=topology)
            windowed.build_index(micro_dataset.reads)
            assert windowed._index_tag != sketched._index_tag
        finally:
            _cleanup()

    @pytest.mark.slow
    def test_index_digest_matches_across_backends_minimizer(self, micro_dataset,
                                                            micro_config):
        """Minimizer-mode build_index: content-identical on both backends."""
        config = replace(micro_config, seed_mode="minimizer", minimizer_window=5)
        digests = {}
        retained = {}
        try:
            for backend in ("thread", "process"):
                pipeline = DibellaPipeline(config=replace(config, backend=backend),
                                           topology=Topology.single_node(2))
                result = pipeline.build_index(micro_dataset.reads)
                digests[backend] = result.counters["index_digest"]
                retained[backend] = result.counters["index_retained_kmers"]
                assert result.counters["sketch_density_ppm"] < 600_000
        finally:
            _cleanup()
        assert digests["thread"] == digests["process"]
        assert retained["thread"] == retained["process"] > 0

    def test_sketched_index_is_smaller(self, micro_dataset, micro_config):
        try:
            full = DibellaPipeline(config=replace(micro_config, seed_mode="reliable"),
                                   topology=Topology.single_node(2))
            full_build = full.build_index(micro_dataset.reads)
            sketched = DibellaPipeline(
                config=replace(micro_config, seed_mode="minimizer", minimizer_window=5),
                topology=Topology.single_node(2))
            sketch_build = sketched.build_index(micro_dataset.reads)
            assert 0 < sketch_build.counters["index_nbytes"] < \
                full_build.counters["index_nbytes"]
            assert 0 < sketch_build.counters["index_occurrences"] < \
                full_build.counters["index_occurrences"]
        finally:
            _cleanup()
