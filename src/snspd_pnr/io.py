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


def _parse_rows(path, columns: str, kinds: tuple) -> tuple[float | None, list[tuple]]:
    """Parse a CSV line by line: headers, blank lines and the ``columns`` line may
    appear anywhere, and a malformed row or an integer beyond int64 raises with its line number."""
    n_bar = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line == columns:
                continue
            if line.startswith("#"):
                n_bar = _read_header(line, lineno, n_bar)
                continue
            parts = line.split(",")
            if len(parts) != len(kinds):
                raise ValueError(f"line {lineno}: expected two comma-separated values, got {line!r}")
            try:
                row = tuple(kind(part) for kind, part in zip(kinds, parts))
            except ValueError:
                raise ValueError(f"line {lineno}: malformed row {line!r}") from None
            if any(kind is int and not -(2**63) <= v < 2**63 for kind, v in zip(kinds, row)):
                raise ValueError(f"line {lineno}: integer outside the 64-bit range in {line!r}")
            rows.append(row)
    return n_bar, rows


def _read_columns(path, columns: str, kinds: tuple) -> tuple[float | None, list[np.ndarray]]:
    """n_bar and one contiguous array per column (dtypes ``kinds``) of a CSV with header ``columns``.

    The header block is read with ``_read_header`` and the rows below it with
    ``np.loadtxt``.  Where ``np.loadtxt`` rejects them (a malformed row, or a
    header, blank or column line among the rows), ``_parse_rows`` reads the file
    instead, which names the malformed line or accepts the file as before.
    """
    n_bar, skip = None, 0
    with open(path, "r", encoding="utf-8") as fh:
        for raw in iter(fh.readline, ""):
            line = raw.strip()
            if line.startswith("#"):
                n_bar = _read_header(line, skip + 1, n_bar)
            elif line and line != columns:
                break
            skip += 1
        else:
            return n_bar, [np.empty(0, dtype=kind) for kind in kinds]
    dtype = [(f"c{i}", kind) for i, kind in enumerate(kinds)]
    try:
        data = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=skip, ndmin=1, encoding="utf-8")
    except ValueError:
        n_bar, rows = _parse_rows(path, columns, kinds)
        data = np.array(rows, dtype=dtype)
    return n_bar, [np.ascontiguousarray(data[name]) for name in data.dtype.names]


def read_time_tags(path) -> TimeTagTable:
    """Parse a time-tag CSV; malformed rows raise with their line number."""
    n_bar, (trigger, edge) = _read_columns(path, TAG_COLUMNS, (float, float))
    if trigger.size == 0:
        raise ValueError(f"{path}: no time-tag rows found")
    if np.any(np.diff(trigger) < 0.0):
        warnings.warn("trigger times are not monotonically increasing", stacklevel=2)
    return TimeTagTable(trigger, edge, n_bar)


def write_time_tags(path, table: TimeTagTable) -> None:
    lines = []
    if table.n_bar is not None:
        lines.append(f"# n_bar={_fmt(table.n_bar)}")
    lines.append("# unit=ps")
    lines.append(TAG_COLUMNS)
    # "%.17g" of a Python float is ``_fmt``'s text; one format call per row, on floats from tolist()
    trigger, edge = (np.asarray(a, dtype=np.float64).tolist() for a in (table.trigger_ps, table.edge_ps))
    lines += map("%.17g,%.17g".__mod__, zip(trigger, edge))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_histogram_csv(path) -> ArrivalHistogram:
    """Parse a histogram CSV and rebuild edges from the uniform bin centers."""
    n_bar, (c, counts_arr) = _read_columns(path, HIST_COLUMNS, (float, int))
    if c.size < 2:
        raise ValueError(f"{path}: need at least two histogram rows to infer the bin width")
    widths = np.diff(c)
    if np.any(widths <= 0.0) or not np.allclose(widths, widths[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{path}: bin centers must be uniformly spaced and increasing")
    w = float(widths[0])
    edges = (c[0] - w / 2.0) + w * np.arange(c.size + 1)
    return ArrivalHistogram(edges, counts_arr, int(counts_arr.sum()), n_bar)


def write_histogram_csv(path, hist: ArrivalHistogram) -> None:
    lines = []
    if hist.mean_photon_number is not None:
        lines.append(f"# n_bar={_fmt(hist.mean_photon_number)}")
    lines.append("# unit=ps")
    lines.append(HIST_COLUMNS)
    lines += map("%.17g,%d".__mod__, zip(hist.bin_centers.tolist(), hist.counts.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
