"""Element-overlap probabilities for a detector of M independent elements.

When n photons land uniformly at random on M elements, the probability that
at least two share an element follows the birthday problem: exact product
form, and a second-order exponential approximation for n much smaller than M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ElementGrid:
    """M independent detection elements (element_length is informational, um)."""

    element_count: int
    element_length: float | None = None

    def __post_init__(self) -> None:
        if int(self.element_count) != self.element_count or self.element_count < 1:
            raise ValueError("element_count must be an integer >= 1")
        if self.element_length is not None and not (
            math.isfinite(self.element_length) and self.element_length > 0.0
        ):
            raise ValueError("element_length must be positive")


def _check_mn(grid: ElementGrid, n) -> tuple[int, int]:
    if int(n) != n or n < 1:
        raise ValueError("photon number n must be an integer >= 1")
    return int(grid.element_count), int(n)


def overlap_exact(grid: ElementGrid, n) -> float:
    """P(any element absorbs more than one of n photons), exact product form.

    1 - prod_{i=0}^{n-1} (M - i) / M; exactly 1 when n exceeds the element
    count (pigeonhole).  Evaluated in integer arithmetic with a single final
    division, so the result is the correctly rounded probability.
    """
    M, n = _check_mn(grid, n)
    if n > M:
        return 1.0
    falling = 1
    for i in range(n):
        falling *= M - i
    denom = M**n
    return (denom - falling) / denom


def overlap_approx(grid: ElementGrid, n) -> float:
    """Second-order approximation 1 - exp(-n(n-1) / (2M))."""
    M, n = _check_mn(grid, n)
    return float(-math.expm1(-n * (n - 1) / (2.0 * M))) + 0.0  # avoid -0.0 at n = 1


def occupied_element_counts(grid: ElementGrid, photon_counts, rng: np.random.Generator) -> np.ndarray:
    """Vectorized occupied-element counts for an array of per-event photon numbers.

    Events are grouped by photon number in ascending order, so the draw order
    (and therefore the output for a fixed generator state) is deterministic.
    """
    counts = np.asarray(photon_counts)
    if counts.ndim != 1:
        raise ValueError("photon_counts must be one-dimensional")
    if np.any(counts < 0):
        raise ValueError("photon counts must be >= 0")
    out = np.zeros(counts.size, dtype=np.int64)
    for n in np.unique(counts):
        if n == 0:
            continue
        idx = np.nonzero(counts == n)[0]
        draws = rng.integers(0, grid.element_count, size=(idx.size, int(n)))
        draws.sort(axis=1)
        out[idx] = 1 + np.count_nonzero(np.diff(draws, axis=1), axis=1)
    return out
