"""Failure-time analysis for multi-hit shock models.

A system fails at the k-th shock whose gap from the previous shock falls
at or below a random recovery threshold.  The package provides the
analytic failure-time distribution (Laplace transform plus numerical
inversion), closed forms for the exponential and uniform gap cases, the
large-k normal approximation, and a seeded Monte Carlo simulator that
cross-validates every analytic result.
"""

from .closedform import (
    closed_form_family,
    exp_const_cdf,
    exp_const_moments,
    exp_const_pdf,
    unif_const_mean,
    unif_const_variance_published,
)
from .distributions import (
    ArrivalLaw,
    Constant,
    Exponential,
    ProbabilityLaw,
    Uniform,
    lethal_density,
    weighted_laplace,
)
from .gaussian import NormalApprox
from .laplace import (
    GridInversion,
    InversionConfig,
    InversionError,
    TransformEvaluator,
    invert_cdf,
    invert_density,
    invert_grid,
    invert_transform,
    moments_from_transform,
)
from .model import MomentSummary, ShockModel, UnrealizableModelError
from .simulate import (
    CHUNK_SIZE,
    KS_CRITICAL_001,
    SimulationConfig,
    SimulationReport,
    ks_statistic,
    run_batch,
)

__version__ = "0.1.0"
