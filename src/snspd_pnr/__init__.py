"""Photon-number-dependent arrival-time statistics for nanowire single-photon detectors.

Models detector response as Poisson-weighted mixtures of exponentially
modified Gaussians whose widths and locations follow photon-number scaling
laws; provides geometric-jitter Monte Carlo, element-overlap probabilities,
pulse-edge calculators, a synthetic time-tag simulator, and a
three-parameter maximum-likelihood histogram fitter.
"""

from ._version import __version__
from .budget import (
    JitterBudget,
    mu_scaling,
    sigma_geom,
    sigma_noise,
    sigma_total,
    tau_at,
)
from .config import ConfigError, FitSettings, RunConfig, SimSettings, load_config
from .dist import (
    EmgParams,
    MixtureModel,
    PhotonSource,
    conditioned_poisson_weights,
    emg_cdf,
    emg_pdf,
    emg_sample,
    mixture_bin_masses,
    mixture_moments,
)
from .fit import (
    FitResult,
    FixedParams,
    SinglePeakFit,
    fit_histogram,
    fit_single_peak,
    ingest_time_tags,
    initial_guess,
    mixture_from_params,
    predict_histogram,
    total_width,
)
from .geom import (
    Estimator,
    GeomMcResult,
    WireGeometry,
    conventional_readout_delay,
    geom_histogram,
    geom_mc,
    geom_sigma_analytic,
)
from .histogram import ArrivalHistogram
from .io import (
    TimeTagTable,
    read_histogram_csv,
    read_time_tags,
    write_histogram_csv,
    write_time_tags,
)
from .overlap import (
    ElementGrid,
    occupied_element_counts,
    overlap_approx,
    overlap_exact,
)
from .pulse import (
    DetectorConfig,
    bandwidth,
    fall_and_reset,
    growth_rate,
    rise_time,
    slew_noise_jitter,
    threshold_crossing,
)
from .sim import (
    MergeModel,
    SimPlan,
    SourceTags,
    SweepRow,
    simulate_tags,
    sweep_total_width,
    write_source_files,
)

__all__ = [
    "__version__",
    "ArrivalHistogram",
    "ConfigError",
    "DetectorConfig",
    "ElementGrid",
    "EmgParams",
    "Estimator",
    "FitResult",
    "FitSettings",
    "FixedParams",
    "GeomMcResult",
    "JitterBudget",
    "MergeModel",
    "MixtureModel",
    "PhotonSource",
    "RunConfig",
    "SimPlan",
    "SimSettings",
    "SinglePeakFit",
    "SourceTags",
    "SweepRow",
    "TimeTagTable",
    "WireGeometry",
    "bandwidth",
    "conditioned_poisson_weights",
    "conventional_readout_delay",
    "emg_cdf",
    "emg_pdf",
    "emg_sample",
    "fall_and_reset",
    "fit_histogram",
    "fit_single_peak",
    "geom_histogram",
    "geom_mc",
    "geom_sigma_analytic",
    "growth_rate",
    "ingest_time_tags",
    "initial_guess",
    "load_config",
    "mixture_bin_masses",
    "mixture_from_params",
    "mixture_moments",
    "mu_scaling",
    "occupied_element_counts",
    "overlap_approx",
    "overlap_exact",
    "predict_histogram",
    "read_histogram_csv",
    "read_time_tags",
    "rise_time",
    "sigma_geom",
    "sigma_noise",
    "sigma_total",
    "simulate_tags",
    "slew_noise_jitter",
    "sweep_total_width",
    "tau_at",
    "threshold_crossing",
    "total_width",
    "write_histogram_csv",
    "write_source_files",
    "write_time_tags",
]
