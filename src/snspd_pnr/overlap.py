"""Element-overlap probabilities for a detector of M independent elements.

When n photons land uniformly at random on M elements, the probability that
at least two share an element follows the birthday problem: exact product
form, and a second-order exponential approximation for n much smaller than M.
The number K of distinct elements they occupy follows
``P(K=k | n, M) = C(M,k) S(n,k) k! / M^n`` with S the Stirling numbers of the
second kind; ``occupied_law`` tabulates it exactly, and
``occupied_element_counts`` samples it with one uniform per event, the
inverse-CDF search in row n through the guide table that also draws the
simulator's photon numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .budget import _check_n
from .dist import _GuideTable


@dataclass(frozen=True)
class ElementGrid:
    """M independent detection elements."""

    element_count: int

    def __post_init__(self) -> None:
        if int(self.element_count) != self.element_count or self.element_count < 1:
            raise ValueError(f"element_count: must be an integer >= 1, got {self.element_count}")


def overlap_exact(grid: ElementGrid, n) -> float:
    """P(any element absorbs more than one of n photons), exact product form.

    1 - prod_{i=0}^{n-1} (M - i) / M; exactly 1 when n exceeds the element
    count (pigeonhole).  Evaluated in integer arithmetic with a single final
    division, so the result is the correctly rounded probability.
    """
    M, n = int(grid.element_count), _check_n(n)
    if n > M:
        return 1.0
    falling = 1
    for i in range(n):
        falling *= M - i
    denom = M**n
    return (denom - falling) / denom


def overlap_approx(grid: ElementGrid, n) -> float:
    """Second-order approximation 1 - exp(-n(n-1) / (2M))."""
    M, n = int(grid.element_count), _check_n(n)
    return float(-math.expm1(-n * (n - 1) / (2.0 * M))) + 0.0  # avoid -0.0 at n = 1


# Guide tables are built for the largest n rounded up to a multiple of this,
# so chunks whose largest n differs a little share one cached table.
_LAW_ROWS = 32


def occupied_law(n_hi: int, M: int) -> np.ndarray:
    """``P[n, k] = P(K = k | n photons on M elements)`` for n = 0..n_hi, k = 0..min(n_hi, M).

    ``C(M,k) S(n,k) k! / M^n`` in integer arithmetic with a single division
    per cell, so every entry is the correctly rounded probability.  Row 0 is
    the certain K = 0 of an event without photons.
    """
    if int(n_hi) != n_hi or n_hi < 0 or int(M) != M or M < 1:
        raise ValueError("occupied_law needs integers n_hi >= 0 and M >= 1")
    n_hi, M = int(n_hi), int(M)
    width = min(n_hi, M)
    falling = [1]  # M! / (M-k)! = C(M,k) k!
    for k in range(width):
        falling.append(falling[-1] * (M - k))
    stirling = [1] + [0] * width  # S(0, k)
    law = np.zeros((n_hi + 1, width + 1))
    law[0, 0] = 1.0
    for n in range(1, n_hi + 1):
        stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, width + 1)]
        denom = M**n
        law[n] = [f * s / denom for f, s in zip(falling, stirling)]
    return law


@functools.lru_cache(maxsize=16)
def _occupied_guide(n_hi: int, M: int) -> _GuideTable:
    """Guide table over the rows n = 0..n_hi of ``occupied_law(n_hi, M)``.

    Its guide is G x (n_hi + 1) intp entries, 512 x 33 (135 kB) at n_hi = 32
    and M = 24, next to a float64 CDF of the law's shape.  Each row's answers
    depend on n and M alone, not on n_hi.
    """
    return _GuideTable(occupied_law(n_hi, M))


def occupied_element_counts(grid: ElementGrid, photon_counts, rng: np.random.Generator,
                            out: np.ndarray | None = None, u: np.ndarray | None = None) -> np.ndarray:
    """Number of distinct elements occupied by each event's photons, drawn from ``occupied_law``.

    Takes one ``rng.random`` value per event, so the draw of an event depends
    only on its photon number and its uniform.  Photon counts must be
    non-negative integers; an event without photons occupies no element.
    The counts go into ``out`` (intp) and the uniforms into ``u`` (float64),
    each of the counts' length, when given.
    """
    counts = np.asarray(photon_counts)
    if counts.ndim != 1:
        raise ValueError("photon_counts must be one-dimensional")
    if counts.dtype.kind not in "iu" and not np.all(np.isfinite(counts) & (counts == np.floor(counts))):
        raise ValueError("photon counts must be integers")
    counts = counts.astype(np.int64, copy=False)
    if np.any(counts < 0):
        raise ValueError("photon counts must be >= 0")
    if counts.size == 0:
        return np.zeros(0, dtype=np.int64)
    M = int(grid.element_count)
    n_hi = -(-int(counts.max()) // _LAW_ROWS) * _LAW_ROWS
    return _occupied_guide(n_hi, M).search(rng.random(counts.size, out=u), counts, out)
