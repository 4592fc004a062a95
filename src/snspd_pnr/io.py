"""Every CSV the package reads or writes; floats carry 17 significant digits, so values round-trip exactly.

Time tags:      comment headers ``# n_bar=<float>`` and ``# unit=ps``, then ``trigger_ps,edge_ps`` rows.
Histograms:     the same comment headers, then ``bin_center_ps,count`` rows.
Fit residuals:  ``bin_center_ps,count,expected,pearson`` rows, no comment headers.
Sweeps:         ``n_bar,sigma_hist_ps,sigma_err_ps,sigma_model_ps`` rows, no comment headers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .histogram import ArrivalHistogram

TAG_COLUMNS = "trigger_ps,edge_ps"
HIST_COLUMNS = "bin_center_ps,count"
RESIDUAL_COLUMNS = "bin_center_ps,count,expected,pearson"
SWEEP_COLUMNS = "n_bar,sigma_hist_ps,sigma_err_ps,sigma_model_ps"


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
    n_bar, lineno, rows = None, 0, []
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            n_bar, lineno, line = _scan_headers(fh, columns, n_bar, lineno)
            if line is None:
                return n_bar, rows
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


def _scan_headers(fh, columns: str = "", n_bar: float | None = None, lineno: int = 0):
    """Read ``fh``, whose last line read was number ``lineno``, to its next line that is neither blank,
    a ``#`` header nor ``columns``.  Returns n_bar as the headers on the way set it, that line's number
    and the line stripped (None at the end of the file)."""
    for lineno, raw in enumerate(fh, lineno + 1):
        line = raw.strip()
        if line.startswith("#"):
            n_bar = _read_header(line, lineno, n_bar)
        elif line and line != columns:
            return n_bar, lineno, line
    return n_bar, lineno, None


def _read_columns(path, columns: str, kinds: tuple) -> tuple[float | None, list[np.ndarray]]:
    """n_bar and one contiguous array per column (dtypes ``kinds``) of a CSV with header ``columns``.

    The header block is read with ``_scan_headers`` and the rows below it with
    ``np.loadtxt``.  Where ``np.loadtxt`` rejects them (a malformed row, or a
    header, blank or column line among the rows), ``_parse_rows`` reads the file
    instead, which names the malformed line or accepts the file as before.
    """
    with open(path, "r", encoding="utf-8") as fh:
        n_bar, lineno, line = _scan_headers(fh, columns)
    if line is None:
        return n_bar, [np.empty(0, dtype=kind) for kind in kinds]
    dtype = [(f"c{i}", kind) for i, kind in enumerate(kinds)]
    try:
        data = np.loadtxt(path, dtype=dtype, delimiter=",", comments=None, skiprows=lineno - 1, ndmin=1,
                          encoding="utf-8")
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


def ingest_time_tags(source, bin_width: float = 2.0) -> ArrivalHistogram:
    """Read a time-tag CSV and bin trigger-to-edge deltas at ``bin_width`` ps."""
    table = read_time_tags(source)
    return ArrivalHistogram.from_events(table.delta_ps, bin_width, table.n_bar)


def read_histogram_csv(path) -> ArrivalHistogram:
    """Parse a histogram CSV and rebuild edges from the uniform bin centers; counts whose
    total exceeds the 64-bit range are rejected."""
    n_bar, (c, counts_arr) = _read_columns(path, HIST_COLUMNS, (float, int))
    if c.size < 2:
        raise ValueError(f"{path}: need at least two histogram rows to infer the bin width")
    widths = np.diff(c)
    if np.any(widths <= 0.0) or not np.allclose(widths, widths[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{path}: bin centers must be uniformly spaced and increasing")
    w = float(widths[0])
    edges = (c[0] - w / 2.0) + w * np.arange(c.size + 1)
    total = sum(counts_arr.tolist())  # exact: an int64 sum of counts that each fit int64 can wrap
    if total >= 2**63:
        raise ValueError(f"{path}: total count {total} is beyond the 64-bit range")
    return ArrivalHistogram(edges, counts_arr, total, n_bar)


def read_fit_input(path, bin_width: float) -> tuple[str, ArrivalHistogram]:
    """The histogram a fit reads from ``path``, and its format: ``"time_tags"`` (binned at
    ``bin_width`` ps) or ``"histogram"``, chosen by the first line that is neither blank nor a header."""
    with open(path, "r", encoding="utf-8") as fh:
        line = _scan_headers(fh)[2]
    if line == TAG_COLUMNS:
        return "time_tags", ingest_time_tags(path, bin_width)
    if line == HIST_COLUMNS:
        return "histogram", read_histogram_csv(path)
    raise ValueError(f"{path}: no header line found" if line is None else
                     f"{path}: unrecognized header {line!r}; expected {TAG_COLUMNS!r} or {HIST_COLUMNS!r}")


def _write_table(path, lines: list[str], row_format: str, *columns) -> None:
    """Write ``lines``, then ``row_format % row`` per row of ``columns``, taken as Python numbers by ``tolist()``;
    ``%.17g`` writes ``format(float(x), ".17g")``."""
    rows = map(row_format.__mod__, zip(*(np.asarray(c).tolist() for c in columns)))
    Path(path).write_text("\n".join([*lines, *rows]) + "\n", encoding="utf-8")


def _source_lines(n_bar: float | None, columns: str) -> list[str]:
    """The comment headers and column line of a tag or histogram CSV."""
    return ([] if n_bar is None else [f"# n_bar={float(n_bar):.17g}"]) + ["# unit=ps", columns]


def write_time_tags(path, table: TimeTagTable) -> None:
    _write_table(path, _source_lines(table.n_bar, TAG_COLUMNS), "%.17g,%.17g", table.trigger_ps, table.edge_ps)


def write_histogram_csv(path, hist: ArrivalHistogram) -> None:
    _write_table(path, _source_lines(hist.mean_photon_number, HIST_COLUMNS), "%.17g,%d", hist.bin_centers, hist.counts)


def write_fit_residuals(path, hist: ArrivalHistogram, expected) -> None:
    """Counts, ``expected`` counts and Pearson residuals (count - expected) / sqrt(expected), 0 where expected <= 0."""
    m = np.asarray(expected, dtype=np.float64)
    pearson, pos = np.zeros_like(m), m > 0.0
    pearson[pos] = (hist.counts[pos] - m[pos]) / np.sqrt(m[pos])
    _write_table(path, [RESIDUAL_COLUMNS], "%.17g,%d,%.17g,%.17g", hist.bin_centers, hist.counts, m, pearson)


def write_sweep_csv(path, rows) -> None:
    """One row per ``sim.SweepRow``: n_bar, sigma_hist, sigma_error and sigma_model."""
    table = np.array([(r.n_bar, r.sigma_hist, r.sigma_error, r.sigma_model) for r in rows], dtype=np.float64)
    _write_table(path, [SWEEP_COLUMNS], "%.17g,%.17g,%.17g,%.17g", *table.T)
