"""Unit tests for the BELLA reliable-k-mer model (repro.kmers.reliable)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import PipelineConfig
from repro.kmers.reliable import (
    expected_singleton_fraction,
    high_frequency_threshold,
    optimal_k,
    poisson_quantile,
    probability_correct_kmer,
    probability_shared_kmer,
)

#: ``scipy.stats.poisson.ppf(1 - tail, mean)`` for the tails below, recorded
#: from scipy 1.17; the last six means are the ones the test suite's pipeline
#: configurations produce.
POISSON_TAILS = (1e-2, 1e-3, 1e-5, 1e-7)
SCIPY_POISSON_PPF = {
    1e-06: (0, 0, 0, 1),
    0.001: (0, 0, 1, 2),
    0.05: (1, 2, 3, 4),
    0.3: (2, 3, 5, 6),
    0.5: (3, 4, 6, 7),
    1.0: (4, 5, 8, 10),
    1.7: (5, 7, 10, 12),
    2.5: (7, 9, 12, 14),
    4.0: (9, 11, 15, 18),
    6.3: (13, 15, 20, 23),
    10.0: (18, 21, 26, 30),
    17.0: (27, 31, 37, 42),
    25.0: (37, 42, 49, 55),
    42.0: (58, 63, 72, 80),
    64.0: (83, 90, 101, 110),
    100.0: (124, 132, 145, 156),
    180.0: (212, 223, 240, 254),
    300.0: (341, 355, 377, 394),
    1000.0: (1074, 1099, 1138, 1169),
    5000.0: (5165, 5220, 5304, 5372),
    2.001261803959989: (6, 8, 10, 13),
    3.414496573807416: (8, 10, 14, 17),
    3.435568848842462: (8, 10, 14, 17),
    4.409215617003379: (10, 12, 16, 19),
    6.3113423300654325: (13, 15, 20, 23),
    11.381655246024721: (20, 23, 28, 33),
}

#: ``high_frequency_threshold(coverage, error_rate, k)`` recorded while it
#: still called scipy: the perfbench workloads, the test fixtures and a few
#: extremes.
SCIPY_THRESHOLDS = {
    (3.0, 0.12, 17): 10, (30.0, 0.12, 17): 28, (30.0, 0.10, 17): 34,
    (12.0, 0.08, 15): 28, (15.0, 0.10, 15): 26, (10.0, 0.12, 17): 16,
    (100.0, 0.12, 17): 56, (30.0, 0.15, 17): 20, (30.0, 0.12, 31): 12,
    (5.0, 0.0, 21): 34, (1000.0, 0.0, 17): 2276,
}


class TestProbabilities:
    def test_correct_kmer_probability(self):
        assert probability_correct_kmer(0.0, 17) == 1.0
        assert probability_correct_kmer(0.15, 17) == pytest.approx(0.85**17)

    def test_correct_probability_decreases_with_k(self):
        assert probability_correct_kmer(0.1, 21) < probability_correct_kmer(0.1, 11)

    def test_shared_kmer_probability_monotone_in_overlap(self):
        p_short = probability_shared_kmer(0.15, 17, 500)
        p_long = probability_shared_kmer(0.15, 17, 5000)
        assert p_long > p_short

    def test_shared_kmer_zero_when_overlap_too_short(self):
        assert probability_shared_kmer(0.1, 17, 10) == 0.0

    def test_shared_kmer_high_for_typical_settings(self):
        # The paper's operating point: 17-mers, 10-15% error, >= 2 kbp overlap.
        assert probability_shared_kmer(0.15, 17, 2000) > 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            probability_correct_kmer(1.5, 17)
        with pytest.raises(ValueError):
            probability_correct_kmer(0.1, 0)


class TestOptimalK:
    def test_typical_long_read_value(self):
        # For PacBio-like error rates the paper says "17-mers are typical".
        k = optimal_k(0.12, min_overlap=2000)
        assert 15 <= k <= 23

    def test_lower_error_allows_longer_k(self):
        assert optimal_k(0.01, min_overlap=2000) > optimal_k(0.20, min_overlap=2000)

    def test_extreme_error_falls_back_to_kmin(self):
        assert optimal_k(0.6, min_overlap=300, k_min=9) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_k(0.1, target_probability=1.5)
        with pytest.raises(ValueError):
            optimal_k(0.1, k_min=20, k_max=10)


class TestThresholds:
    def test_threshold_scales_with_coverage(self):
        m30 = high_frequency_threshold(30, 0.12, 17)
        m100 = high_frequency_threshold(100, 0.12, 17)
        assert m100 > m30
        assert m30 >= 4

    def test_reliable_range(self):
        # The pipeline's reliable range is [min_kmer_count, m]: singletons
        # out, and BELLA's high-frequency cutoff as the upper bound.
        config = PipelineConfig(coverage_hint=30, error_rate_hint=0.12)
        assert config.min_kmer_count == 2
        assert config.resolve_high_freq_threshold() == high_frequency_threshold(30, 0.12, 17)

    @pytest.mark.parametrize("mean", sorted(SCIPY_POISSON_PPF))
    def test_poisson_quantile_matches_scipy(self, mean):
        got = tuple(poisson_quantile(1.0 - tail, mean) for tail in POISSON_TAILS)
        assert got == SCIPY_POISSON_PPF[mean]

    @pytest.mark.parametrize("mean", [1.0, 30.0, 300.0])
    def test_poisson_quantile_ends_when_q_is_within_rounding_of_one(self, mean):
        # 1 - 1e-17 rounds to 1.0, which these CDF sums never reach.
        assert poisson_quantile(1.0 - 1e-17, mean) > poisson_quantile(1.0 - 1e-7, mean)

    @pytest.mark.parametrize("config", sorted(SCIPY_THRESHOLDS))
    def test_threshold_matches_scipy(self, config):
        assert high_frequency_threshold(*config) == SCIPY_THRESHOLDS[config]

    def test_validation(self):
        with pytest.raises(ValueError):
            high_frequency_threshold(0, 0.1, 17)
        with pytest.raises(ValueError):
            high_frequency_threshold(30, 0.1, 17, tail_probability=0.0)


class TestCardinalityEstimates:
    def test_singleton_fraction_matches_paper_band(self):
        # §6: "up to 98% of k-mers from long reads are singletons".
        frac = expected_singleton_fraction(30, 0.12, 17)
        assert 0.90 < frac < 0.99

    def test_singleton_fraction_grows_with_error(self):
        assert (expected_singleton_fraction(30, 0.20, 17)
                > expected_singleton_fraction(30, 0.05, 17))

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_singleton_fraction(0, 0.1, 17)


def test_service_and_pipeline_import_without_scipy():
    """The program's import path stays off scipy (its import alone took
    over a second) and networkx (~0.13 s, loaded only by the overlap graph
    module no stage uses)."""
    probe = ("import sys, repro.core.service, repro.core.pipeline; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'networkx')))")
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
