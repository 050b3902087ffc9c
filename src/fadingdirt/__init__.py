"""Numerical toolkit for capacity bounds on channels whose additive
interference is known at the transmitter but multiplied by fast fading."""

from .bounds_norcsi import (
    ChannelParams,
    RateBound,
    gap_no_rcsi,
    inner_no_rcsi,
    k_star,
    outer_no_rcsi,
)
from .bounds_rcsi import (
    ContinuousOuterParams,
    MassHalfParams,
    StrongFadingParams,
    continuous_interval_params,
    inner_continuous,
    inner_mass_half,
    inner_strong,
    mass_half_params,
    outer_continuous,
    outer_mass_half,
    outer_phase_binomial,
    outer_strong,
    strong_condition_check,
    strong_params,
)
from .errors import ToolkitError
from .fading import (
    Discrete,
    FadingDistribution,
    Gaussian,
    LogNormal,
    Rayleigh,
    TabulatedDensity,
    Uniform,
    binomial_fading,
    entropy_power_alpha,
    geometric_fading,
    normalize_unit_variance,
    parse_distribution,
    sample,
    strong_support,
    unit_rayleigh,
)
from .gauss_mi import CostaAssignment, costa_inflation, costa_rate_exact, mi_monte_carlo
from .gp import (
    GPInstance,
    binary_nonoise_instance,
    evaluate_assignment,
    optimize_alternating,
    optimize_exhaustive,
)
from .harness import GapReport, SweepSpec, emit, run_sweep, verify_claims

__version__ = "0.1.0"
