"""Checks on the CLI's outputs, each against the reference model or a property
the method must have; never against a stored copy of an earlier output.

Every check returns a list of failure messages, empty when the output passes.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import stats

import reference as ref

TRUE_THETA = (289.0, 6.0, 6.0)
THETA_TOLERANCE = (0.02, 0.10, 0.10)  # relative, as in acceptance criterion 5
TRUNCATION_TAIL_MASS = 1e-9           # the package's default mixture truncation
CHI2_TAIL = 1e-6                      # each side of the deviance band
BOOTSTRAP_CR_FACTOR = 1.5             # bootstrap error within this factor of Cramér–Rao
Z_MAX = 5.0                           # simulated spread vs exact, in standard errors
MODEL_WIDTH_RTOL = 1e-8               # analytic column vs reference, relative

_NAMES = ("delta_mu", "sigma_int", "tau")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse JSON that must not contain NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def read_csv(path, columns: str) -> tuple[dict, np.ndarray]:
    """Comment headers ``# key=value``, the column line, then float rows."""
    headers = {}
    with open(path, "r", encoding="utf-8") as fh:
        for skip, line in enumerate(fh, start=1):
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                headers[key.strip()] = value.strip()
                continue
            if line.strip() != columns:
                raise ValueError(f"{path}: expected column line {columns!r}, got {line.strip()!r}")
            break
        else:
            raise ValueError(f"{path}: no column line")
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2, dtype=np.float64)
    return headers, data


def check_theta(theta) -> list[str]:
    out = []
    for name, got, true, tol in zip(_NAMES, theta, TRUE_THETA, THETA_TOLERANCE):
        if not (math.isfinite(got) and abs(got - true) <= tol * true):
            out.append(f"{name} = {got!r} is not within {tol:.0%} of {true}")
    return out


def check_expected(theta, n_bar: float, edges, counts, expected) -> list[str]:
    """The ``expected`` column equals the reference at the reported θ̂, within
    the counts the package's truncated Poisson tail may move."""
    events = int(np.sum(counts))
    want = ref.expected_counts(ref.Model().with_theta(theta), n_bar, edges, events)
    diff = float(np.max(np.abs(np.asarray(expected) - want)))
    limit = events * TRUNCATION_TAIL_MASS
    if not diff <= limit:
        return [f"expected counts differ from the reference at θ̂ by {diff:.3g} counts (limit {limit:.3g})"]
    return []


def check_deviance(counts, expected, n_params: int = 3) -> list[str]:
    """Poisson deviance inside the central 1 - 2e-6 chi-square band."""
    dof = len(counts) - n_params
    dev = ref.poisson_deviance(counts, expected)
    lo, hi = stats.chi2.ppf(CHI2_TAIL, dof), stats.chi2.isf(CHI2_TAIL, dof)
    if not lo <= dev <= hi:
        return [f"deviance {dev:.1f} on {dof} dof is outside [{lo:.1f}, {hi:.1f}]"]
    return []


def check_bootstrap(errors, cramer_rao) -> list[str]:
    out = []
    if errors is None or len(errors) != 3:
        return [f"expected three bootstrap errors, got {errors!r}"]
    for name, e, cr in zip(_NAMES, errors, cramer_rao):
        if not (isinstance(e, float) and math.isfinite(e) and e > 0.0):
            out.append(f"bootstrap error of {name} is {e!r}, not finite and positive")
        elif not 1.0 / BOOTSTRAP_CR_FACTOR <= e / cr <= BOOTSTRAP_CR_FACTOR:
            out.append(f"bootstrap error of {name} is {e / cr:.2f} x its Cramér–Rao error {cr:.4g}")
    return out


def check_sweep(rows, merged_width: dict, unmerged_width: dict) -> list[str]:
    """Simulated widths against the merged reference, analytic column against the merge-off one."""
    out = []
    if sorted(r["n_bar"] for r in rows) != sorted(merged_width):
        return [f"sweep rows cover n_bar {[r['n_bar'] for r in rows]}, expected {sorted(merged_width)}"]
    for r in rows:
        n_bar, err = r["n_bar"], r["sigma_err_ps"]
        if not (math.isfinite(err) and err > 0.0):
            out.append(f"n_bar {n_bar:g}: sigma_err_ps {err!r} is not finite and positive")
            continue
        z = (r["sigma_hist_ps"] - merged_width[n_bar]) / err
        if not abs(z) <= Z_MAX:
            out.append(f"n_bar {n_bar:g}: sigma_hist_ps is {z:+.1f} errors from the merged reference")
        rel = r["sigma_model_ps"] / unmerged_width[n_bar] - 1.0
        if not abs(rel) <= MODEL_WIDTH_RTOL:
            out.append(f"n_bar {n_bar:g}: sigma_model_ps is {rel:.2g} from the merge-off reference")
    return out


def check_geom(per_n, length: float, velocity: float, n_values) -> list[str]:
    out = []
    if [p["n"] for p in per_n] != list(n_values):
        return [f"geom rows cover n {[p['n'] for p in per_n]}, expected {list(n_values)}"]
    for p in per_n:
        n, sigma, se = p["n"], p["sigma_ps"], p["bootstrap_se_ps"]
        if not (math.isfinite(se) and se > 0.0):
            out.append(f"n {n}: bootstrap_se_ps {se!r} is not finite and positive")
            continue
        z = (sigma - ref.midrange_spread(length, velocity, n)) / se
        if not abs(z) <= Z_MAX:
            out.append(f"n {n}: sigma_ps is {z:+.1f} errors from the exact midrange spread")
    return out
