"""Statistics helpers: scaling efficiency, spectra, and quality.

These are the metrics the paper's evaluation section reports:

* strong-scaling efficiency and speedup relative to one node, Figures 4,
  11 and 12,
* k-mer frequency spectra used to validate the synthetic data sets against
  the paper's stated data characteristics,
* overlap recall/precision against the simulator's ground truth (the
  "ground truth is known" quality comparisons BELLA emphasises).
"""

from repro.stats.scaling import (
    efficiency_series,
    speedup_series,
)
from repro.stats.histograms import (
    kmer_spectrum,
)
from repro.stats.quality import overlap_recall_precision, OverlapQuality

__all__ = [
    "efficiency_series",
    "speedup_series",
    "kmer_spectrum",
    "overlap_recall_precision",
    "OverlapQuality",
]
