"""Mild solver for the resolvent-type backward equation with rough drift.

The unknown v solves, in mild form on [0, T],

    v(t) = int_0^t P(t-r) (b . grad v)(r) dr + int_0^t P(t-r) (b - lam v)(r) dr,

where P(t) = exp(t (Laplacian/2 - I)) acts diagonally on Fourier modes with
symbol exp(-t a_kappa), a_kappa = 1 + |kappa|^2/2.  Each timestep of the
integral is evaluated exactly in the semigroup factor with the integrand
frozen at the left node, so the kernel singularity never meets the quadrature.
The frozen integrand makes the discrete operator strictly causal: node m of
its output depends only on nodes before m.  Its fixed point is therefore one
exponential-Euler march over the time nodes (Hochbruck & Ostermann,
"Exponential integrators", Acta Numerica 2010), which `solve_fwd` performs.
Picard iteration in an exponentially weighted sup-norm, the contraction
argument of the theory, is kept as the diagnostic `picard_sweeps`.  The
backward-time solution u is the time reversal of v.

The product b . grad v is the fixed dyadic stage of
`paraproduct.drift_gradient_product`, which the operator forms at every node
at once and the march node by node.  Neither takes a PdeConfig, nor does the
lambda calibration; (delta, p) are the norms of the diagnostics only.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, replace

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
    "MaxIterExceeded",
    "CalibrationFailed",
    "PdeConfig",
    "SolveReport",
    "integral_operator",
    "solve_fwd",
    "picard_sweeps",
    "to_backward",
    "weighted_norm",
    "gradient_sup",
    "calibrate_lambda",
    "holder_diagnostic",
    "gamma_bound_check",
    "mild_residual",
]


# the certificate sup |grad u| <= 1/2: below it x + u is inverted by a
# contraction and I + grad u has singular values >= 1/2
GRADIENT_TARGET = 0.5
# lambda doublings calibrate_lambda tries after lambda = 1
MAX_DOUBLINGS = 40
# sweeps the diagnostic picard_sweeps may spend
PICARD_MAX_ITER = 200


class MaxIterExceeded(Exception):
    """Picard sweeps did not contract at this (lambda, rho); raise lambda or refine."""


class CalibrationFailed(Exception):
    """Doubling lambda never pushed the gradient below target."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class PdeConfig:
    """Exponents and the diagnostic tolerance.

    beta is the drift's regularity, (delta, p) the working pair: products
    are measured in H^{-beta}_p, the solution in H^{1+delta}_p.  The drift's
    window q is checked by `drifts.assumption_check`, not here.
    None of them reaches the march or `integral_operator`, whose products run
    at the fixed stage paraproduct.SOLVER_STAGE, so neither takes a
    PdeConfig; they are the norms of the diagnostics (`picard_sweeps`,
    `mild_residual`, `paraproduct.ladder_agrees`).

    tol stops the Picard sweeps of `picard_sweeps` and bounds the mild
    residual that the checks accept for either solver.
    """

    beta: float
    delta: float
    p: float
    tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.beta < 0.5):
            raise ValueError(f"beta={self.beta} outside (0, 1/2)")
        if not (self.beta < self.delta < 1.0 - self.beta):
            raise ValueError(f"delta={self.delta} outside ({self.beta}, {1-self.beta})")
        if not self.p > 1:
            raise ValueError("integrability exponent must exceed 1")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")

    @property
    def solution_index(self) -> SobolevIndex:
        return SobolevIndex(1.0 + self.delta, self.p)

    @property
    def product_index(self) -> SobolevIndex:
        return SobolevIndex(-self.beta, self.p)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolveReport:
    """How a fixed point was reached: by the march ("march", one pass, no
    sweep differences) or by the diagnostic Picard sweeps ("picard").  Only
    a reached fixed point has a report: failures raise."""

    iterations: int
    rho: float
    gain0: float
    weighted_diffs: tuple
    sup_diffs: tuple
    ratios: tuple
    lam: float
    method: str

    def to_dict(self) -> dict:
        d = asdict(self)
        for k in ("weighted_diffs", "sup_diffs", "ratios"):
            d[k] = list(d[k])
        return d


# --- the mild integral operator -----------------------------------------------


def _integrand(b: _F, v: _F, lam: float) -> np.ndarray:
    """g = b . grad v + b - lam v at one node or every node, as coefficients."""
    return drift_gradient_product(b, v).coeffs + b.coeffs - lam * v.coeffs


def _step_factors(tf: TimeField) -> tuple:
    """E = exp(-dt a) and w = (1 - exp(-dt a))/a per mode, a the Bessel symbol."""
    dt = tf.horizon / tf.nodes
    a = tf.grid.bessel_symbol()[None]       # broadcast over components
    return np.exp(-dt * a), -np.expm1(-dt * a) / a


def integral_operator(v: TimeField, b: TimeField, lam: float) -> TimeField:
    """One application of the mild right-hand side on the shared time grid.

    Per mode the step integral int_{t_l}^{t_{l+1}} exp(-(t_m - r) a) g(r) dr is
    taken with g frozen at t_l and the semigroup factor integrated exactly:
    the recurrence I_m = E I_{m-1} + w g_{m-1} with E = exp(-dt a),
    w = (1 - exp(-dt a))/a accumulates all steps.  I(t_0) = 0.  g is formed
    at every node in one product, which refuses a v off b's grid or nodes.
    """
    decay, weight = _step_factors(b)
    g = _integrand(b, v, lam)
    out = np.zeros_like(b.coeffs)
    for m in range(1, b.nodes + 1):
        out[m] = decay * out[m - 1] + weight * g[m - 1]
    return TimeField(v.grid, v.horizon, out)


# --- norms over time grids ------------------------------------------------------


def weighted_norm(tf: TimeField, rho: float, idx: SobolevIndex) -> float:
    """sup_m exp(-rho t_m) ||f(t_m)||_idx."""
    if rho < 0:
        raise ValueError("weight rate must be nonnegative")
    return _weighted_sup(sobolev_norm(tf, idx), tf.times, rho)


def _weighted_sup(node_vals: np.ndarray, times: np.ndarray, rho: float) -> float:
    return float(np.max(np.exp(-rho * times) * node_vals))


# --- the solver and the Picard diagnostic -------------------------------------------


def solve_fwd(b: TimeField, lam: float) -> tuple:
    """Fixed point of the mild integral operator, plus a report.

    integral_operator computes node m from nodes < m only, so its fixed point
    is one march v_m = E v_{m-1} + w g(v_{m-1}) from v_0 = 0.  The march does
    the operator's own floating-point operations in the same order, so
    integral_operator(v) equals v exactly.  The report reads one pass,
    with no sweep differences and weight rate 0.
    """
    decay, weight = _step_factors(b)
    v = np.zeros_like(b.coeffs)
    for m in range(1, b.nodes + 1):
        vm = SpectralField(b.grid, v[m - 1])
        v[m] = decay * v[m - 1] + weight * _integrand(b.node(m - 1), vm, lam)
    # a second pass would change nothing, hence a measured gain of 0
    report = SolveReport(iterations=1, rho=0.0, gain0=0.0,
                         weighted_diffs=(), sup_diffs=(), ratios=(), lam=float(lam),
                         method="march")
    return TimeField(b.grid, b.horizon, v), report


def picard_sweeps(b: TimeField, lam: float, cfg: PdeConfig) -> tuple:
    """The same fixed point by Picard iteration from v = 0: a diagnostic of
    the contraction argument, not used by the pipeline.

    Stops when the successive difference falls below cfg.tol in the plain
    (unweighted) sup-over-nodes H^{1+delta}_p norm.  The weight exp(-rho t)
    never exceeds one, so the weighted stopping criterion of the contraction
    theory holds a fortiori; stopping on the weighted norm alone would be
    deceptive at large rho, where the weight underflows the late nodes and
    declares victory during the Picard transient.  The weight rate rho is
    picked after the second sweep from the measured gain (`_auto_rho`).
    Raises MaxIterExceeded if PICARD_MAX_ITER sweeps are spent first.
    """
    idx = cfg.solution_index
    times = b.times
    v = TimeField.zero(b.grid, b.horizon, b.nodes, components=b.components)
    diff_nodes = []     # per sweep: node norms of v_{k+1} - v_k
    sup_diffs = []
    rho = None
    gain0 = float("nan")

    for k in range(1, PICARD_MAX_ITER + 1):
        v_new = integral_operator(v, b, lam)
        dn = sobolev_norm(v_new - v, idx)
        diff_nodes.append(dn)
        sup_diffs.append(float(dn.max()))
        if k == 2:
            rho, gain0 = _auto_rho(diff_nodes, times, cfg)
        if sup_diffs[-1] < cfg.tol:
            rho_eff = 0.0 if rho is None else float(rho)
            wd = [_weighted_sup(d, times, rho_eff) for d in diff_nodes]
            ratios = [wd[i + 1] / wd[i] for i in range(len(wd) - 1) if wd[i] > 0]
            report = SolveReport(
                iterations=k, rho=rho_eff, gain0=gain0,
                weighted_diffs=tuple(wd), sup_diffs=tuple(sup_diffs),
                ratios=tuple(ratios), lam=float(lam), method="picard",
            )
            return v_new, report
        v = v_new

    raise MaxIterExceeded(
        f"no contraction after {PICARD_MAX_ITER} sweeps at lam={lam}, rho={rho}; "
        f"last sup diff {sup_diffs[-1]:.3e}"
    )


def _auto_rho(diff_nodes, times, cfg: PdeConfig) -> tuple:
    """Weight rate from the measured unweighted gain of one sweep.

    Start at 4 * gain^(2/(1-delta-beta)) (the theoretical rate exponent), then
    double until the measured weighted ratio of the first two sweeps is < 1/2.
    """
    d1, d2 = diff_nodes[0], diff_nodes[1]
    s1 = d1.max()
    if s1 == 0.0:
        return 1.0, 0.0
    gain0 = float(d2.max() / s1)
    exponent = 2.0 / (1.0 - cfg.delta - cfg.beta)
    # exp(-rho t) must stay representable; the cap bounds the reported weight
    # rate (stopping itself uses the unweighted sup, so it stays sound)
    rho_cap = 600.0 / max(float(times[-1]), np.finfo(float).tiny)
    rho = min(max(1.0, 4.0 * gain0 ** exponent), rho_cap)
    while True:
        w1 = _weighted_sup(d1, times, rho)
        w2 = _weighted_sup(d2, times, rho)
        if w1 == 0.0 or w2 / w1 < 0.5 or rho >= rho_cap:
            return float(rho), gain0
        rho = min(rho * 2.0, rho_cap)


def to_backward(v: TimeField) -> TimeField:
    """u(t) = v(T - t): the backward-equation solution on the same nodes."""
    return v.reversed_time()


def mild_residual(v: TimeField, b: TimeField, lam: float, cfg: PdeConfig,
                  rho: float) -> float:
    """Weighted norm of v - I(v); small for a converged fixed point."""
    return weighted_norm(v - integral_operator(v, b, lam), rho, cfg.solution_index)


# --- diagnostics -------------------------------------------------------------------


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
    Raises CalibrationFailed after MAX_DOUBLINGS unsuccessful doublings, or
    once lambda passes nodes/horizon.
    """
    # the killing term is frozen on the left node, so the step integral is
    # only faithful while lam * dt <= 1; past that the scheme amplifies
    lam_cap = b.nodes / b.horizon
    lam = 1.0
    trace = []
    for _ in range(MAX_DOUBLINGS + 1):
        if lam > lam_cap:
            raise CalibrationFailed(
                f"lambda {lam:g} exceeds the time-resolution bound "
                f"{lam_cap:g} (= nodes/horizon) before the gradient target "
                f"{GRADIENT_TARGET} was met; refine the time grid or weaken the drift",
                trace=trace,
            )
        v, _report = solve_fwd(b, lam)
        g = gradient_sup(to_backward(v))
        trace.append((lam, g))
        if g <= GRADIENT_TARGET:
            return lam, trace
        lam *= 2.0
    raise CalibrationFailed(
        f"gradient stayed above {GRADIENT_TARGET} after {MAX_DOUBLINGS} doublings "
        f"(last value {trace[-1][1]:.4f})", trace=trace,
    )


def holder_diagnostic(u: TimeField, gamma: float, idx: SobolevIndex) -> float:
    """max over node pairs of ||u(t)-u(s)||_idx / |t-s|^gamma."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError("holder exponent must lie in (0, 1]")
    times = u.times
    worst = 0.0
    for i in range(u.nodes):
        # ||u(t_j) - u(t_i)|| for every node j at once; only j > i is read
        gaps = sobolev_norm(replace(u, coeffs=u.coeffs - u.coeffs[i]), idx)[i + 1:]
        worst = max(worst, float(np.max(gaps / (times[i + 1:] - times[i]) ** gamma)))
    return worst


def gamma_bound_check(rho: float, theta: float, t_range: tuple = (0.0, np.inf)) -> dict:
    """Check int_s^t exp(-rho r) r^{-theta} dr <= Gamma(1-theta) rho^{theta-1}.

    The integral is computed after the substitution w = r^{1-theta}, which
    removes the endpoint singularity; requires rho >= 1 and 0 <= theta < 1.
    SciPy's quadrature is imported here, on first use, so that importing the
    package does not load it.
    """
    from scipy import integrate, special

    if rho < 1:
        raise ValueError("the bound is stated for rho >= 1")
    if not (0.0 <= theta < 1.0):
        raise ValueError("theta must lie in [0, 1)")
    s, t = t_range
    if not (0.0 <= s < t):
        raise ValueError("need 0 <= s < t")
    pw = 1.0 - theta

    def integrand(w):
        return np.exp(-rho * w ** (1.0 / pw)) / pw

    upper = t ** pw if np.isfinite(t) else np.inf
    value, _err = integrate.quad(integrand, s ** pw, upper)
    bound = special.gamma(pw) * rho ** (theta - 1.0)
    return {"integral": float(value), "bound": float(bound),
            "ok": bool(value <= bound * (1.0 + 1e-9))}
