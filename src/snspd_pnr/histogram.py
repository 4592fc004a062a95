"""Binned arrival-time data shared by the Monte Carlo, simulator, and fitter."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArrivalHistogram:
    """Uniformly binned arrival-time counts with total-count metadata.

    ``bin_edges`` has length len(counts) + 1, strictly increasing with uniform
    width; times are picoseconds.  ``mean_photon_number`` carries the source
    metadata when known.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    total_events: int
    mean_photon_number: float | None = None

    def __post_init__(self) -> None:
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise ValueError("bin_edges must have exactly one more entry than counts")
        widths = np.diff(edges)
        if np.any(widths <= 0.0):
            raise ValueError("bin_edges must be strictly increasing")
        if not np.allclose(widths, widths[0], rtol=1e-9, atol=0.0):
            raise ValueError("bins must have uniform width")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if int(counts.sum()) != int(self.total_events):
            raise ValueError("total_events must equal the sum of counts")

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def bin_centers(self) -> np.ndarray:
        return (self.bin_edges[:-1] + self.bin_edges[1:]) / 2.0

    @classmethod
    def from_events(
        cls, times, bin_width: float = 2.0, mean_photon_number: float | None = None
    ) -> "ArrivalHistogram":
        """Bin raw event times at ``bin_width`` with edges on a width-aligned grid."""
        t = np.asarray(times, dtype=np.float64)
        if t.size == 0:
            raise ValueError("no events to bin")
        t_min, t_max = float(t.min()), float(t.max())  # a NaN propagates to both
        if not (math.isfinite(t_min) and math.isfinite(t_max)):
            raise ValueError("event times must be finite")
        if not (math.isfinite(bin_width) and bin_width > 0.0):
            raise ValueError("bin_width must be positive and finite")
        lo = math.floor(t_min / bin_width) * bin_width
        hi = math.ceil(t_max / bin_width) * bin_width
        if hi <= lo:
            hi = lo + bin_width
        n_bins = int(round((hi - lo) / bin_width))
        edges = lo + bin_width * np.arange(n_bins + 1)
        counts, _ = np.histogram(t, bins=edges)
        return cls(edges, counts, int(counts.sum()), mean_photon_number)
