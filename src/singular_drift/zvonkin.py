"""Space transform phi(t, x) = x + u(t, x) and its pointwise inverse.

Once the backward solution u carries the certificate sup |grad u| <= 1/2 the
map x -> phi(t, x) is a diffeomorphism for every t: the inverse psi solves the
fixed point x = y - u(t, x), contracting at rate <= 1/2 from the initial guess
x = y.  Between time nodes u is interpolated linearly in its coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralField, TimeField, _points, evaluate, gradient
from .kolmogorov import GRADIENT_TARGET, gradient_sup

__all__ = [
    "InverseDiverged",
    "TransformContext",
    "make_context",
    "phi",
    "psi",
    "transform_jacobian",
    "lipschitz_probe",
    "time_continuity_probe",
]


class InverseDiverged(Exception):
    """Fixed-point iteration for psi ran out of iterations."""


# sweeps psi may spend; at contraction rate 1/2 about 40 reach 1e-12
INVERSE_MAX_ITER = 80


@dataclass(frozen=True)
class TransformContext:
    """Backward solution u plus the data needed to invert x + u(t, x).

    gradient_bound is the measured certificate sup |grad u|; `make_context`
    refuses values above 1/2 because the contraction estimate would be void.
    grad u is not stored: `transform_jacobian` derives it from u per call.
    """

    u: TimeField
    gradient_bound: float
    inverse_tol: float = 1e-12

    @property
    def horizon(self) -> float:
        return self.u.horizon

    def u_at(self, t: float) -> SpectralField:
        return self.u.at_time(t, rule="linear")


def make_context(u: TimeField, inverse_tol: float = 1e-12) -> TransformContext:
    """Certify and package a backward solution for transform work; u must
    have one component per axis."""
    bound = gradient_sup(u)
    if not bound <= GRADIENT_TARGET + 1e-12:
        raise ValueError(
            f"gradient certificate failed: sup |grad u| = {bound:.6f} > {GRADIENT_TARGET:g}; "
            f"raise lambda before building the transform"
        )
    if not inverse_tol > 0:
        raise ValueError("inverse tolerance must be positive")
    return TransformContext(u=u, gradient_bound=float(bound), inverse_tol=float(inverse_tol))


def phi(ctx: TransformContext, t: float, x) -> np.ndarray:
    """Forward transform x + u(t, x) on an (m, d) batch of points."""
    return np.asarray(x, dtype=float) + evaluate(ctx.u_at(t), x)


def psi(ctx: TransformContext, t: float, y) -> np.ndarray:
    """Inverse transform by the contraction x_{k+1} = y - u(t, x_k), x_0 = y,
    on an (m, d) batch of points.

    Each point iterates until its update is below inverse_tol; points that
    converge are frozen while the rest continue.  Raises ValueError on a
    non-finite point (its NaN move compares false against the tolerance,
    so it would be dropped as converged) and InverseDiverged if INVERSE_MAX_ITER
    sweeps are spent first.
    """
    pts = _points(y, ctx.u.grid.dimension)
    if not np.all(np.isfinite(pts)):
        raise ValueError("psi is defined on finite points; got NaN or infinity")
    u_t = ctx.u_at(t)
    if not np.any(u_t.coeffs):
        return pts.copy()
    x = pts.copy()
    active = np.arange(pts.shape[0])
    tol_sq = ctx.inverse_tol ** 2
    for _ in range(INVERSE_MAX_ITER):
        ux = evaluate(u_t, x[active])
        nxt = pts[active] - ux
        move_sq = np.sum((nxt - x[active]) ** 2, axis=1)
        x[active] = nxt
        keep = move_sq >= tol_sq
        active = active[keep]
        if active.size == 0:
            return x
    raise InverseDiverged(
        f"{active.size} point(s) still moving after {INVERSE_MAX_ITER} "
        f"iterations (gradient bound {ctx.gradient_bound:.4f})"
    )


def transform_jacobian(ctx: TransformContext, t: float, x) -> np.ndarray:
    """grad u(t, x) as (m, d, d) matrices, J[i, j] = d_j u_i, on an (m, d)
    batch of points: the spectral gradient of u(t), derived per call.  At
    node times that is the node's gradient bit for bit."""
    d = ctx.u.grid.dimension
    vals = evaluate(gradient(ctx.u_at(t)), x)     # (m, d*d)
    return vals.reshape(-1, d, d)


def lipschitz_probe(ctx: TransformContext, samples: int = 1000, seed: int = 0) -> float:
    """Largest observed |psi(t,y1)-psi(t,y2)| / |y1-y2| over random triples.

    The contraction estimate makes psi Lipschitz with constant at most 2; the
    probe makes that observable.
    """
    d = ctx.u.grid.dimension
    span = ctx.u.grid.period
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        t = rng.uniform(0.0, ctx.horizon)
        pair = rng.uniform(0.0, span, size=(2, d))
        gap = np.linalg.norm(pair[1] - pair[0])
        if gap < 1e-9:
            continue
        px = psi(ctx, t, pair)
        worst = max(worst, float(np.linalg.norm(px[1] - px[0]) / gap))
    return worst


def time_continuity_probe(ctx: TransformContext, gamma: float = 0.25,
                          samples: int = 400, seed: int = 0) -> float:
    """Largest |psi(t1,y)-psi(t2,y)| / |t1-t2|^gamma over random triples."""
    d = ctx.u.grid.dimension
    span = ctx.u.grid.period
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        t1, t2 = rng.uniform(0.0, ctx.horizon, size=2)
        if abs(t2 - t1) < 1e-9:
            continue
        y = rng.uniform(0.0, span, size=(1, d))
        p1 = psi(ctx, t1, y)
        p2 = psi(ctx, t2, y)
        worst = max(worst, float(np.linalg.norm(p2 - p1) / abs(t2 - t1) ** gamma))
    return worst
