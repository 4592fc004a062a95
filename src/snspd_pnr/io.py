"""CSV schemas for time tags and histograms.

Time-tag files:   comment headers ``# n_bar=<float>`` and ``# unit=ps``,
                  a column header ``trigger_ps,edge_ps``, one event per row.
Histogram files:  same comment headers, columns ``bin_center_ps,count``.

Floats are written with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .histogram import ArrivalHistogram

TAG_COLUMNS = "trigger_ps,edge_ps"
HIST_COLUMNS = "bin_center_ps,count"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class TimeTagTable:
    """Raw trigger/edge pairs (ps) with optional source metadata."""

    trigger_ps: np.ndarray
    edge_ps: np.ndarray
    n_bar: float | None = None

    @property
    def delta_ps(self) -> np.ndarray:
        return self.edge_ps - self.trigger_ps


def _read_header(line: str, lineno: int, n_bar: float | None) -> float | None:
    """Apply one ``# key=value`` header; returns n_bar, replaced if the header sets it."""
    body = line.lstrip("#").strip()
    if "=" not in body:
        raise ValueError(f"line {lineno}: malformed header {line.strip()!r}")
    key, value = (part.strip() for part in body.split("=", 1))
    if key == "n_bar":
        try:
            return float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: n_bar is not a number: {value!r}") from None
    if key == "unit" and value != "ps":
        raise ValueError(f"line {lineno}: unsupported unit {value!r}, expected ps")
    return n_bar


def read_time_tags(path) -> TimeTagTable:
    """Parse a time-tag CSV; malformed rows raise with their line number."""
    n_bar = None
    triggers: list[float] = []
    edges: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                n_bar = _read_header(line, lineno, n_bar)
                continue
            if line == TAG_COLUMNS:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected two comma-separated values, got {line!r}")
            try:
                triggers.append(float(parts[0]))
                edges.append(float(parts[1]))
            except ValueError:
                raise ValueError(f"line {lineno}: malformed row {line!r}") from None
    if not triggers:
        raise ValueError(f"{path}: no time-tag rows found")
    trigger = np.asarray(triggers, dtype=np.float64)
    edge = np.asarray(edges, dtype=np.float64)
    if np.any(np.diff(trigger) < 0.0):
        warnings.warn("trigger times are not monotonically increasing", stacklevel=2)
    return TimeTagTable(trigger, edge, n_bar)


def write_time_tags(path, table: TimeTagTable) -> None:
    lines = []
    if table.n_bar is not None:
        lines.append(f"# n_bar={_fmt(table.n_bar)}")
    lines.append("# unit=ps")
    lines.append(TAG_COLUMNS)
    for t, e in zip(table.trigger_ps, table.edge_ps):
        lines.append(f"{_fmt(t)},{_fmt(e)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_histogram_csv(path) -> ArrivalHistogram:
    """Parse a histogram CSV and rebuild edges from the uniform bin centers."""
    n_bar = None
    centers: list[float] = []
    counts: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                n_bar = _read_header(line, lineno, n_bar)
                continue
            if line == HIST_COLUMNS:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected two comma-separated values, got {line!r}")
            try:
                centers.append(float(parts[0]))
                counts.append(int(parts[1]))
            except ValueError:
                raise ValueError(f"line {lineno}: malformed row {line!r}") from None
    if len(centers) < 2:
        raise ValueError(f"{path}: need at least two histogram rows to infer the bin width")
    c = np.asarray(centers, dtype=np.float64)
    widths = np.diff(c)
    if np.any(widths <= 0.0) or not np.allclose(widths, widths[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{path}: bin centers must be uniformly spaced and increasing")
    w = float(widths[0])
    edges = (c[0] - w / 2.0) + w * np.arange(c.size + 1)
    counts_arr = np.asarray(counts, dtype=np.int64)
    return ArrivalHistogram(edges, counts_arr, int(counts_arr.sum()), n_bar)


def write_histogram_csv(path, hist: ArrivalHistogram) -> None:
    lines = []
    if hist.mean_photon_number is not None:
        lines.append(f"# n_bar={_fmt(hist.mean_photon_number)}")
    lines.append("# unit=ps")
    lines.append(HIST_COLUMNS)
    for c, k in zip(hist.bin_centers, hist.counts):
        lines.append(f"{_fmt(c)},{int(k)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
