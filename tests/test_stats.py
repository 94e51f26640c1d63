"""Unit tests for repro.stats."""

import pytest

from repro.data.datasets import DatasetSpec, generate_dataset
from repro.data.genome import GenomeSpec
from repro.data.reads import ReadSimSpec
from repro.stats.histograms import kmer_spectrum
from repro.stats.quality import overlap_recall_precision
from repro.stats.scaling import efficiency_series, speedup_series


class TestScaling:
    def test_strong_scaling_efficiency(self):
        assert efficiency_series({1: 100.0, 4: 25.0})[4] == 1.0
        assert efficiency_series({1: 100.0, 4: 50.0})[4] == 0.5

    def test_speedup_and_efficiency_series(self):
        times = {1: 100.0, 2: 60.0, 4: 40.0}
        speedups = speedup_series(times)
        assert speedups[1] == 1.0
        assert speedups[4] == pytest.approx(2.5)
        eff = efficiency_series(times)
        assert eff[1] == 1.0
        assert eff[4] == pytest.approx(2.5 / 4)

    def test_superlinear_allowed(self):
        eff = efficiency_series({1: 100.0, 2: 40.0})
        assert eff[2] > 1.0

    def test_empty_series(self):
        assert speedup_series({}) == {}
        assert efficiency_series({}) == {}


class TestQuality:
    def test_recall_precision(self):
        truth = {(0, 1): 500, (1, 2): 800, (2, 3): 900}
        detected = {(0, 1), (2, 3), (5, 6)}
        q = overlap_recall_precision(detected, truth)
        assert q.recall == pytest.approx(2 / 3)
        assert q.precision == pytest.approx(2 / 3)

    def test_pair_order_normalised(self):
        q = overlap_recall_precision({(1, 0)}, {(0, 1): 100})
        assert q.recall == 1.0 and q.precision == 1.0

    def test_degenerate(self):
        assert overlap_recall_precision(set(), {}).recall == 1.0
        assert overlap_recall_precision(set(), {}).precision == 1.0


class TestHistograms:
    @pytest.fixture(scope="class")
    def reads(self):
        spec = DatasetSpec(
            name="hist",
            genome=GenomeSpec(length=4000, seed=1),
            reads=ReadSimSpec(coverage=10, mean_read_length=800, min_read_length=300,
                              error_rate=0.12, seed=2),
        )
        return generate_dataset(spec).reads

    def test_kmer_spectrum_singleton_dominated(self, reads):
        spectrum = kmer_spectrum(reads, k=17)
        # Long-read k-mer sets are dominated by erroneous singletons (§6).
        assert spectrum["singleton_fraction"] > 0.5
        assert spectrum["total_kmers"] > spectrum["distinct_kmers"]
        assert spectrum["histogram"].sum() == spectrum["distinct_kmers"]
