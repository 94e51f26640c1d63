"""The BELLA reliable-k-mer statistical model.

diBELLA inherits BELLA's data-driven parameter choices (§2, §3):

* **k-mer length** — short enough that two truly overlapping reads share at
  least one *error-free* k-mer with high probability, long enough that random
  repeats do not flood the overlap detection.  The probability that a k-mer
  is sequenced without error in one read is ``(1-e)^k``; the probability that
  a specific position gives a correct shared k-mer in *both* reads of an
  overlap is ``(1-e)^(2k)``.
* **high-frequency threshold m** — a unique genomic k-mer is expected to be
  observed approximately ``d · (1-e)^k`` times in a depth-d data set
  (binomially distributed).  k-mers observed far more often than that almost
  certainly come from genomic repeats and are discarded; the threshold is the
  upper tail of that distribution.
* **singleton fraction** — the distinct-k-mer set is dominated by erroneous
  singletons (up to 98% for long reads, §6), which is what makes the
  Bloom-filter pre-pass worthwhile.
"""

from __future__ import annotations

import math


def probability_correct_kmer(error_rate: float, k: int) -> float:
    """Probability that a single k-mer is sequenced with no errors: (1-e)^k."""
    _validate_error_rate(error_rate)
    _validate_k(k)
    return (1.0 - error_rate) ** k


def probability_shared_kmer(error_rate: float, k: int, overlap_length: int) -> float:
    """Probability that two overlapping reads share >= 1 correct k-mer.

    Both copies of a k-mer must be error-free, which happens with probability
    ``(1-e)^(2k)`` per position; an overlap of length ``o`` offers
    ``o - k + 1`` positions.  Positions are treated as independent — the same
    first-order model BELLA uses to pick k.
    """
    _validate_error_rate(error_rate)
    _validate_k(k)
    if overlap_length < k:
        return 0.0
    p_both = (1.0 - error_rate) ** (2 * k)
    n_positions = overlap_length - k + 1
    return 1.0 - (1.0 - p_both) ** n_positions


def optimal_k(
    error_rate: float,
    min_overlap: int = 2000,
    target_probability: float = 0.999,
    k_min: int = 9,
    k_max: int = 31,
) -> int:
    """Largest k whose shared-k-mer probability still meets the target.

    Larger k means fewer repeat-induced spurious matches, so we pick the
    largest k in ``[k_min, k_max]`` for which an overlap of ``min_overlap``
    bases still yields a correct shared k-mer with probability at least
    ``target_probability``.  With PacBio-like error rates (10–15%) and a
    2 kbp minimum overlap this lands at 15–19 — the paper's "17-mers are
    typical".
    """
    if not (0.0 < target_probability < 1.0):
        raise ValueError("target_probability must be in (0, 1)")
    if k_min > k_max:
        raise ValueError("k_min must be <= k_max")
    best = None
    for k in range(k_min, k_max + 1):
        if probability_shared_kmer(error_rate, k, min_overlap) >= target_probability:
            best = k
    if best is None:
        # Even the smallest k fails the target; return k_min as the least-bad
        # choice rather than refusing to run (mirrors BELLA's behaviour of
        # always producing a parameterisation).
        return k_min
    return best


def poisson_quantile(q: float, mean: float) -> int:
    """Smallest ``n`` with ``P(X <= n) >= q`` for ``X ~ Poisson(mean)``.

    Accumulates the CDF term by term with the pmf recurrence
    ``p(n) = p(n - 1) · mean / n``, carried in log space so a large mean
    does not underflow ``p(0) = exp(-mean)``.  Same values as
    ``scipy.stats.poisson.ppf`` without importing scipy.
    """
    n, log_p = 0, -mean
    cdf = math.exp(log_p)
    while cdf < q:
        n += 1
        log_p += math.log(mean / n)
        term = math.exp(log_p)
        if n > mean and cdf + term == cdf:
            break  # the tail no longer moves the sum: q is within rounding of 1
        cdf += term
    return n


def high_frequency_threshold(
    coverage: float,
    error_rate: float,
    k: int,
    tail_probability: float = 1e-5,
    repeat_margin: float = 2.0,
) -> int:
    """The high-occurrence cutoff m for retained k-mers.

    A unique genomic k-mer appears ``Binomial(n≈2·d, p=(1-e)^k / 2)`` times
    (reads come from both strands; canonicalisation folds them together, so
    the expected count is ``d·(1-e)^k``).  We model the count as Poisson with
    that mean — accurate for the small per-position probabilities involved —
    and set m at the ``1 - tail_probability`` quantile, scaled by
    ``repeat_margin`` to avoid discarding k-mers from the expected-coverage
    upper tail.  k-mers with observed count above m are treated as repeats
    and dropped (§2).
    """
    if coverage <= 0:
        raise ValueError("coverage must be positive")
    _validate_error_rate(error_rate)
    _validate_k(k)
    if not (0.0 < tail_probability < 1.0):
        raise ValueError("tail_probability must be in (0, 1)")
    mean_count = coverage * probability_correct_kmer(error_rate, k)
    mean_count = max(mean_count, 1e-6)
    quantile = poisson_quantile(1.0 - tail_probability, mean_count)
    m = int(math.ceil(repeat_margin * max(quantile, 2.0)))
    return max(m, 4)


def expected_singleton_fraction(coverage: float, error_rate: float, k: int) -> float:
    """Expected fraction of *distinct* k-mers that are erroneous singletons.

    Each sequencing error corrupts up to k overlapping k-mers, and a
    corrupted k-mer is almost surely unique in the data set.  The number of
    distinct erroneous k-mers is therefore ≈ G·d·(1 - (1-e)^k) while the
    correct distinct k-mers number ≈ G, giving a singleton fraction of
    roughly ``x / (x + 1)`` with ``x = d·(1 - (1-e)^k)``.  For d=30, e=0.12,
    k=17 this is ≈ 0.96 — matching the paper's "up to 98% of k-mers from
    long reads are singletons" (§6).
    """
    if coverage <= 0:
        raise ValueError("coverage must be positive")
    _validate_error_rate(error_rate)
    _validate_k(k)
    erroneous_per_genome_position = coverage * (1.0 - probability_correct_kmer(error_rate, k))
    return erroneous_per_genome_position / (erroneous_per_genome_position + 1.0)


def _validate_error_rate(error_rate: float) -> None:
    if not (0.0 <= error_rate < 1.0):
        raise ValueError("error_rate must be in [0, 1)")


def _validate_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
