"""Mild solver for the resolvent-type backward equation with rough drift.

The backward solution u(t) on [0, T], u(T) = 0, is v(tau) = u(T - tau) in
the time tau to the horizon, and v solves, in mild form on [0, T],

    v(tau) = int_0^tau P(tau-r) (b(T-r) . grad v(r) + b(T-r) - lam v(r)) dr,

where P(t) = exp(t (Laplacian/2 - I)) acts diagonally on Fourier modes with
symbol exp(-t a_kappa), a_kappa = 1 + |kappa|^2/2.  So the march reads b at
T - tau: v's node m and b's node M - m are the same physical time.  Each
timestep of the integral is evaluated exactly in the semigroup factor, with
b . grad v + b frozen at the left node and the killing term -lam v at the
right node, so the kernel singularity never meets the quadrature:
exponential Euler for the Laplacian beside implicit Euler for lambda (Ascher,
Ruuth & Wetton, SIAM J. Numer. Anal. 1995), whose step factors damp at every
lambda >= 0.  The frozen integrand makes the discrete operator strictly
causal: node m of its output depends only on nodes before m, so its fixed
point is one march over the time nodes, which `solve_fwd` performs.  Picard
iteration in an exponentially weighted sup-norm, the contraction argument of
the theory, lives in `theory.picard_sweeps`.  u is `v.reversed_time()`.

The product b . grad v is the dealiased product on the whole lattice, the
one `spectral._dealiased_product` forms, on real samples of the 2N lattice
(`_integrand`): b's samples times grad v's, summed over the axes there and
transformed back once per component of v.  The reference ladder of
`paraproduct` only checks it.  The solver and the operator step one node
loop, `_march`, which forms it node by node on the arrays, samples b once
per run of equal drift nodes, and builds one field, the one it returns.
Neither takes a PdeConfig, nor does the lambda calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .spectral import (
    GridSpec,
    SobolevIndex,
    TimeField,
    _check_compatible,
    _from_samples,
    _gradient_coeffs,
    _real_samples,
    _read_only,
    _run_starts,
    _runs,
    gradient,
    singular_values_sq,
    sobolev_norm,
)

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


def _stack_width(grid: GridSpec) -> int:
    """Doublings calibrate_lambda marches in one stack.  A stack of 2, 4 and 8
    lambdas costs, in marches (M = 16, one BLAS thread, medians of 7): 1-D
    N = 64 0.96, 0.98, 1.14; N = 256 1.02, 1.16, 1.48; N = 1024 1.24, 1.72,
    3.5; 2-D N = 16 1.32, 2.45, 4.31; N = 64 2.31, 5.06, 15.2.  The 1-D march
    is bound by per-node overhead, the 2-D one by its FFTs."""
    return min(8, max(1, 1024 // grid.modes_per_axis)) if grid.dimension == 1 else 1


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


def _integrand(grid: GridSpec, b: np.ndarray, v: np.ndarray, fine_b=None) -> np.ndarray:
    """g = b . grad v + b from coefficient arrays at one node or every node:
    b has d components, fine_b their samples on the 2N lattice with an axis
    of one for v's components before them (`spectral._real_samples`, made
    here if not given), and v one block of d per lambda.  Each term
    b_j d_j v_i is the dealiased product: grad v's samples, in (i, j)
    row-major order, times b_j's, summed over j on the samples and taken
    back to the N lattice once per component of v (`spectral._from_samples`);
    b is added once per block."""
    d, n, c = grid.dimension, grid.modes_per_axis, v.shape[-grid.dimension - 1]
    fine_b = _real_samples(np.expand_dims(b, -d - 2), d) if fine_b is None else fine_b
    terms = _real_samples(_gradient_coeffs(v, grid), d).reshape(v.shape[:-d] + (d,) + (2 * n,) * d)
    terms *= fine_b                                 # lead + (c, d) + the 2N lattice
    return (_from_samples(np.add.reduce(terms, axis=-d - 1), n, d)
            + np.concatenate([b] * (c // d), axis=-d - 1))


def _step_factors(tf: TimeField, lam) -> tuple:
    """E/(1 + lam w) and w/(1 + lam w) per mode, E = exp(-dt a), w = (1 - E)/a
    and a the Bessel symbol: the step v_m = E v_{m-1} + w (g_{m-1} - lam v_m)
    with the killing term at the right node, in one block of tf's components
    per lambda of a stack.  For lam >= 0 both are positive and the first is
    below 1, so no step amplifies; an empty stack or any other lam is refused,
    as is a drift tf that is not real (`values`, on one node per run of equal
    nodes, `spectral._runs`) or that has not one component per axis, before
    anything is marched."""
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if lams.ndim != 1 or not lams.size or not np.all((0.0 <= lams) & (lams < np.inf)):
        raise ValueError(f"lam must be one or more lambdas, finite and >= 0, got {lam}")
    if tf.components != tf.grid.dimension:
        raise ValueError(f"drift must have one component per axis, got {tf.components}")
    _runs(tf)[0].values()
    dt = tf.horizon / tf.nodes
    a = tf.grid.bessel_symbol()
    w = -np.expm1(-dt * a) / a
    damp = 1.0 + lams.reshape((-1,) + (1,) * a.ndim) * w
    return tuple(np.repeat(f / damp, tf.components, axis=0) for f in (np.exp(-dt * a), w))


def _march(b: TimeField, lam, v: TimeField | None = None) -> TimeField:
    """I_m = E' I_{m-1} + w' g_{m-1} from I_0 = 0 by `_step_factors`, node by
    node on coefficient arrays: g_{m-1} = b . grad v + b at v's node m-1,
    taken from v or, when v is None, from I itself, and b's node M - m + 1,
    the same physical time.  b's samples on the 2N lattice are made once per
    run of equal drift nodes (`spectral._run_starts`): once per march for a
    static drift."""
    decay, weight = _step_factors(b, lam)
    out = np.zeros((b.nodes + 1,) + decay.shape, dtype=complex)
    src = out if v is None else v.coeffs
    starts = _run_starts(b.coeffs)
    for m, k in enumerate(range(b.nodes, 0, -1), 1):
        if m == 1 or starts[k] != starts[k + 1]:
            fine_b = _real_samples(b.coeffs[k:k + 1], b.grid.dimension)
        out[m] = decay * out[m - 1] + weight * _integrand(b.grid, b.coeffs[k], src[m - 1], fine_b)
    return TimeField(b.grid, b.horizon, _read_only(out))      # taken without a copy


def integral_operator(v: TimeField, b: TimeField, lam: float) -> TimeField:
    """One application of the mild right-hand side on the shared time grid.

    Per mode the step integral int_{t_l}^{t_{l+1}} exp(-(t_m - r) a) g(r) dr is
    taken with g = b . grad v + b frozen at t_l, the killing term -lam I at
    t_{l+1}, and the semigroup factor integrated exactly: the recurrence
    I_m = (E I_{m-1} + w g_{m-1}) / (1 + lam w) with E = exp(-dt a),
    w = (1 - exp(-dt a))/a accumulates all steps.  I(t_0) = 0.  b is read at
    T - t_l, the time of v's node l (`_march`).  lam is one lambda: a stack
    is refused, as the operator acts on one block v.  A v off b's grid,
    horizon, nodes or components is refused, and so is a drift b that is not
    real or has not one component per axis.
    """
    if np.ndim(lam) != 0:
        raise ValueError(f"integral_operator takes one lambda, got lam={lam}")
    _check_compatible(v, b)
    return _march(b, lam, v)


def weighted_norm(tf: TimeField, rho: float, idx: SobolevIndex) -> float:
    """sup_m exp(-rho t_m) ||f(t_m)||_idx."""
    if rho < 0:
        raise ValueError("weight rate must be nonnegative")
    return _weighted_sup(sobolev_norm(tf, idx), tf.times, rho)


def _weighted_sup(node_vals: np.ndarray, times: np.ndarray, rho: float) -> float:
    return float(np.max(np.exp(-rho * times) * node_vals))


# --- the solver and its residual ----------------------------------------------------


def solve_fwd(b: TimeField, lam) -> tuple:
    """Fixed point of the mild integral operator, plus a report.

    integral_operator computes node m from nodes < m only, so its fixed point
    is one march v_m = (E v_{m-1} + w g(v_{m-1})) / (1 + lam w) from v_0 = 0.
    The march does the operator's own floating-point operations in the same
    order, so integral_operator(v) equals v exactly.  A stack of lambdas
    marches at once: v's i-th block of d components is bit for bit the
    solution at lam[i] alone, as every operation acts per component.  The
    report reads one pass, with no sweep differences and weight rate 0, and
    lam (a stack as a tuple).  A drift that is not real or has not one
    component per axis is refused first.
    """
    return _march(b, lam), SolveReport(
        iterations=1, rho=0.0, sup_diffs=(), ratios=(), method="march",
        lam=float(lam) if np.ndim(lam) == 0 else tuple(map(float, lam)))


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
    lambda = 1 marches alone, as a smooth drift stops there; the doublings
    after it march in stacks of `_stack_width`, read in order, so lambdas
    past the accepted one are marched but not traced.  The march damps at
    every lambda (its killing term sits at the right node), so only
    MAX_DOUBLINGS unsuccessful doublings raise CalibrationFailed.
    """
    d, width = b.grid.dimension, _stack_width(b.grid)
    lams = [2.0 ** k for k in range(MAX_DOUBLINGS + 1)]
    trace = []
    for stack in [lams[:1]] + [lams[i:i + width] for i in range(1, len(lams), width)]:
        v, _report = solve_fwd(b, stack)
        for i, lam in enumerate(stack):
            g = gradient_sup(TimeField(b.grid, b.horizon, v.coeffs[::-1, i * d:(i + 1) * d]))
            trace.append((lam, g))
            if g <= GRADIENT_TARGET:
                return lam, trace
    raise CalibrationFailed(
        f"gradient stayed above {GRADIENT_TARGET} after {MAX_DOUBLINGS} doublings "
        f"(last value {trace[-1][1]:.4f})", trace=trace,
    )
