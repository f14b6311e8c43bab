"""Numerical laboratory for SDEs whose drift is a periodic distribution.

The pipeline: spectral calculus on the torus -> regularized drift products ->
mild solve of the damped Kolmogorov equation -> space transform removing the
rough drift -> Euler-Maruyama for the transformed process -> statistical
studies of the reconstructed (virtual) solution.
"""

__version__ = "0.1.0"

from .spectral import (
    GridSpec,
    SobolevIndex,
    SpectralField,
    TimeField,
    bessel_power,
    cutoff_profile,
    dyadic_cutoff,
    evaluate,
    gradient,
    heat_semigroup,
    mollify,
    sobolev_norm,
)
from .paraproduct import NonConvergent, product
from .drifts import (
    AssumptionViolated,
    DriftSpec,
    InvalidSpec,
    assumption_check,
    generate,
    mollified_sequence,
    pick_kappa,
)
from .kolmogorov import (
    CalibrationFailed,
    PdeConfig,
    calibrate_lambda,
    gradient_sup,
    integral_operator,
    solve_fwd,
    weighted_norm,
)
from .zvonkin import InverseDiverged, TransformContext, phi, psi
from .sde import (
    PathEnsemble,
    SimConfig,
    brownian_increments,
    coefficients,
    simulate_classical,
    simulate_y,
    virtual_x,
)
from .lab import (
    ExperimentConfig,
    StudyReport,
    ks_stat,
    study_lambda,
    study_mollify,
    study_smooth_consistency,
    wasserstein1,
)
