"""Mild solver for the resolvent-type backward equation with rough drift.

The unknown v solves, in mild form on [0, T],

    v(t) = int_0^t P(t-r) (b . grad v)(r) dr + int_0^t P(t-r) (b - lam v)(r) dr,

where P(t) = exp(t (Laplacian/2 - I)) acts diagonally on Fourier modes with
symbol exp(-t a_kappa), a_kappa = 1 + |kappa|^2/2.  Each timestep of the
integral is evaluated exactly in the semigroup factor, with b . grad v + b
frozen at the left node and the killing term -lam v at the right node, so the
kernel singularity never meets the quadrature: exponential Euler for the
Laplacian beside implicit Euler for lambda (Ascher, Ruuth & Wetton, SIAM J.
Numer. Anal. 1995), whose step factors damp at every lambda >= 0.  The frozen
integrand makes the discrete operator strictly causal: node m of its output
depends only on nodes before m, so its fixed point is one march over the time
nodes, which `solve_fwd` performs.  Picard iteration in an exponentially
weighted sup-norm, the contraction argument of the theory, lives in
`theory.picard_sweeps`.  The backward-time solution u is `v.reversed_time()`.

The product b . grad v is `paraproduct.drift_gradient_product`, the
dealiased product on the whole lattice, which the operator forms at every
node at once and the march node by node.  Neither takes a PdeConfig, nor
does the lambda calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .spectral import (
    _F,
    SobolevIndex,
    SpectralField,
    TimeField,
    gradient,
    singular_values_sq,
    sobolev_norm,
)
from .paraproduct import drift_gradient_product

__all__ = [
    "CalibrationFailed",
    "PdeConfig",
    "SolveReport",
    "integral_operator",
    "solve_fwd",
    "weighted_norm",
    "gradient_sup",
    "calibrate_lambda",
    "mild_residual",
]


# the certificate sup |grad u| <= 1/2: below it x + u is inverted by a
# contraction and I + grad u has singular values >= 1/2
GRADIENT_TARGET = 0.5
# lambda doublings calibrate_lambda tries after lambda = 1
MAX_DOUBLINGS = 40


class CalibrationFailed(Exception):
    """Doubling lambda never pushed the gradient below target."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class PdeConfig:
    """Exponents and the residual tolerance.

    beta is the drift's regularity, (delta, p) the working pair: products
    are measured in H^{-beta}_p, the solution in H^{1+delta}_p.  The drift's
    window q is checked by `drifts.assumption_check`, not here.  The march
    and `integral_operator` take the lattice product and no exponent: these
    are the norms of the checks `mild_residual` and
    `paraproduct.ladder_agrees` and of the diagnostic `theory.picard_sweeps`.
    tol, a constant, bounds the mild residual that the checks accept, and
    stops the sweeps.
    """

    beta: float
    delta: float
    p: float
    tol = 1e-9

    def __post_init__(self):
        if not (0.0 < self.beta < 0.5):
            raise ValueError(f"beta={self.beta} outside (0, 1/2)")
        if not (self.beta < self.delta < 1.0 - self.beta):
            raise ValueError(f"delta={self.delta} outside ({self.beta}, {1-self.beta})")
        if not self.p > 1:
            raise ValueError("integrability exponent must exceed 1")

    @property
    def solution_index(self) -> SobolevIndex:
        return SobolevIndex(1.0 + self.delta, self.p)

    @property
    def product_index(self) -> SobolevIndex:
        return SobolevIndex(-self.beta, self.p)


@dataclass(frozen=True)
class SolveReport:
    """How a fixed point was reached: by the march ("march", one pass, no
    sweep differences) or by the Picard sweeps of `theory.picard_sweeps`
    ("picard").  Only a reached fixed point has a report: failures raise."""

    iterations: int
    rho: float
    sup_diffs: tuple
    ratios: tuple
    lam: float
    method: str

    def to_dict(self) -> dict:
        return asdict(self)


# --- the mild integral operator -----------------------------------------------


def _integrand(b: _F, v: _F) -> np.ndarray:
    """g = b . grad v + b at one node or every node, as coefficients."""
    return drift_gradient_product(b, v).coeffs + b.coeffs


def _step_factors(tf: TimeField, lam: float) -> tuple:
    """E/(1 + lam w) and w/(1 + lam w) per mode, E = exp(-dt a), w = (1 - E)/a
    and a the Bessel symbol: the step v_m = E v_{m-1} + w (g_{m-1} - lam v_m)
    with the killing term at the right node.  For lam >= 0 both are positive
    and the first is below 1, so no step amplifies; any other lam is refused,
    as is a drift tf that is not real (`values`), before anything is marched."""
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    tf.values()
    dt = tf.horizon / tf.nodes
    a = tf.grid.bessel_symbol()[None]       # broadcast over components
    w = -np.expm1(-dt * a) / a
    damp = 1.0 + lam * w
    return np.exp(-dt * a) / damp, w / damp


def integral_operator(v: TimeField, b: TimeField, lam: float) -> TimeField:
    """One application of the mild right-hand side on the shared time grid.

    Per mode the step integral int_{t_l}^{t_{l+1}} exp(-(t_m - r) a) g(r) dr is
    taken with g = b . grad v + b frozen at t_l, the killing term -lam I at
    t_{l+1}, and the semigroup factor integrated exactly: the recurrence
    I_m = (E I_{m-1} + w g_{m-1}) / (1 + lam w) with E = exp(-dt a),
    w = (1 - exp(-dt a))/a accumulates all steps.  I(t_0) = 0.  g is formed
    at every node in one product, which refuses a v off b's grid or nodes.
    A drift b that is not real is refused before the recurrence.
    """
    decay, weight = _step_factors(b, lam)
    g = _integrand(b, v)
    out = np.zeros_like(b.coeffs)
    for m in range(1, b.nodes + 1):
        out[m] = decay * out[m - 1] + weight * g[m - 1]
    return TimeField(v.grid, v.horizon, out)


def weighted_norm(tf: TimeField, rho: float, idx: SobolevIndex) -> float:
    """sup_m exp(-rho t_m) ||f(t_m)||_idx."""
    if rho < 0:
        raise ValueError("weight rate must be nonnegative")
    return _weighted_sup(sobolev_norm(tf, idx), tf.times, rho)


def _weighted_sup(node_vals: np.ndarray, times: np.ndarray, rho: float) -> float:
    return float(np.max(np.exp(-rho * times) * node_vals))


# --- the solver and its residual ----------------------------------------------------


def solve_fwd(b: TimeField, lam: float) -> tuple:
    """Fixed point of the mild integral operator, plus a report.

    integral_operator computes node m from nodes < m only, so its fixed point
    is one march v_m = (E v_{m-1} + w g(v_{m-1})) / (1 + lam w) from v_0 = 0.
    The march does the operator's own floating-point operations in the same
    order, so integral_operator(v) equals v exactly.  The report reads one
    pass, with no sweep differences and weight rate 0.  A drift that is not
    real is refused before the march.
    """
    decay, weight = _step_factors(b, lam)
    v = np.zeros_like(b.coeffs)
    for m in range(1, b.nodes + 1):
        vm = SpectralField(b.grid, v[m - 1])
        v[m] = decay * v[m - 1] + weight * _integrand(b.node(m - 1), vm)
    report = SolveReport(iterations=1, rho=0.0, sup_diffs=(), ratios=(),
                         lam=float(lam), method="march")
    return TimeField(b.grid, b.horizon, v), report


def mild_residual(v: TimeField, b: TimeField, lam: float, cfg: PdeConfig,
                  rho: float) -> float:
    """Weighted norm of v - I(v); small for a converged fixed point."""
    return weighted_norm(v - integral_operator(v, b, lam), rho, cfg.solution_index)


# --- the gradient certificate and lambda calibration ---------------------------------


def gradient_sup(u: TimeField) -> float:
    """sup over nodes and grid points of the Jacobian operator norm of u,
    the largest singular value of the d x d matrix grad u; u has d components."""
    d = u.grid.dimension
    if u.components != d:
        raise ValueError(f"u must have {d} components, got {u.components}")
    jac = gradient(u).values()          # (M+1, d*d) + spatial
    per_point = np.moveaxis(jac.reshape(jac.shape[:1] + (d, d, -1)), -1, 1)
    _, smax_sq = singular_values_sq(per_point)      # (M+1, points)
    return float(np.sqrt(smax_sq).max())


def calibrate_lambda(b: TimeField) -> tuple:
    """Double lambda from 1 until gradient_sup(u_lambda) <= GRADIENT_TARGET.

    Returns (lambda, trace) with trace = [(lambda_i, gradient_sup_i), ...].
    The march damps at every lambda (its killing term sits at the right node),
    so only MAX_DOUBLINGS unsuccessful doublings raise CalibrationFailed.
    """
    lam = 1.0
    trace = []
    for _ in range(MAX_DOUBLINGS + 1):
        v, _report = solve_fwd(b, lam)
        g = gradient_sup(v.reversed_time())
        trace.append((lam, g))
        if g <= GRADIENT_TARGET:
            return lam, trace
        lam *= 2.0
    raise CalibrationFailed(
        f"gradient stayed above {GRADIENT_TARGET} after {MAX_DOUBLINGS} doublings "
        f"(last value {trace[-1][1]:.4f})", trace=trace,
    )
