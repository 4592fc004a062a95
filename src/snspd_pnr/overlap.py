"""Element-overlap probabilities for a detector of M independent elements.

When n photons land uniformly at random on M elements, the probability that
at least two share an element follows the birthday problem: exact product
form, and a second-order exponential approximation for n much smaller than M.
The number K of distinct elements they occupy follows
``P(K=k | n, M) = C(M,k) S(n,k) k! / M^n`` with S the Stirling numbers of the
second kind; ``occupied_law`` tabulates it exactly, and
``occupied_element_counts`` samples it with one uniform per event through a
Walker/Vose alias table of each row, read with one flat gather per table at
the row-major index of (n, slot).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .budget import _check_n


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


# Alias tables are built for the largest n rounded up to a multiple of this,
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
def _alias_table(n_hi: int, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walker/Vose alias tables of ``occupied_law`` rows 0..n_hi, and each row's slot count.

    Row n has ``slots[n] = max(min(n, M), 1)`` slots, slot j standing for
    k = j + 1: a draw that lands in slot j keeps j + 1 when its fraction is
    below ``cut[n, j]`` and takes ``alias[n, j]`` otherwise.  Row 0 has one
    slot with cut 0 and alias 0, so an event without photons always yields 0.
    Each row depends on n and M alone, not on n_hi.
    """
    law = occupied_law(n_hi, M)
    cut = np.zeros((n_hi + 1, max(law.shape[1] - 1, 1)))
    alias = np.zeros(cut.shape, dtype=np.int64)
    for n in range(1, n_hi + 1):
        slots = min(n, M)
        scaled = [p * slots for p in law[n, 1 : slots + 1].tolist()]
        small = [j for j in range(slots) if scaled[j] < 1.0]
        large = [j for j in range(slots) if scaled[j] >= 1.0]
        while small and large:
            s, big = small.pop(), large.pop()
            cut[n, s], alias[n, s] = scaled[s], big + 1
            scaled[big] -= 1.0 - scaled[s]
            (small if scaled[big] < 1.0 else large).append(big)
        for j in small + large:  # 1 up to rounding
            cut[n, j], alias[n, j] = 1.0, j + 1
    slots = np.maximum(np.minimum(np.arange(n_hi + 1), M), 1)
    for table in (cut, alias, slots):
        table.flags.writeable = False
    return cut, alias, slots


def occupied_element_counts(grid: ElementGrid, photon_counts, rng: np.random.Generator) -> np.ndarray:
    """Number of distinct elements occupied by each event's photons, drawn from ``occupied_law``.

    Takes one ``rng.random`` value per event, so the draw of an event depends
    only on its photon number and its uniform.  Photon counts must be
    non-negative integers; an event without photons occupies no element.
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
    cut, alias, slots = _alias_table(n_hi, M)
    s = slots.take(counts)
    x = rng.random(counts.size)
    x *= s
    j = x.astype(np.int64)
    s -= 1
    np.minimum(j, s, out=j)  # a guard: a 53-bit u < 1 already keeps u * slots below slots
    x -= j
    flat = np.multiply(counts, cut.shape[1], out=s)  # row-major index of (n, j)
    flat += j
    keep = x < cut.take(flat)
    k = alias.take(flat)
    j += 1  # j + 1 where keep, else the alias k: k + keep (j + 1 - k)
    j -= k
    j *= keep
    j += k
    return j
