"""Space transform phi(t, x) = x + u(t, x) and its pointwise inverse.

Once the backward solution u carries the certificate sup |grad u| <= 1/2 the
map x -> phi(t, x) is a diffeomorphism for every t: the inverse psi solves the
fixed point x = y - u(t, x), contracting at rate <= 1/2 from the initial guess
x = y.  Between time nodes u is interpolated linearly in its coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralField, TimeField, evaluate, gradient
from .kolmogorov import gradient_sup

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

    gradient_bound is the measured certificate sup |grad u|; construction
    refuses values above 1/2 because the contraction estimate would be void.
    jacobian holds grad u per node (components ordered (i, axis) row-major).
    """

    u: TimeField
    jacobian: TimeField
    gradient_bound: float
    inverse_tol: float = 1e-12

    @property
    def horizon(self) -> float:
        return self.u.horizon

    def u_at(self, t: float) -> SpectralField:
        return self.u.at_time(t, rule="linear")

    def jacobian_at(self, t: float) -> SpectralField:
        return self.jacobian.at_time(t, rule="linear")


def make_context(u: TimeField, inverse_tol: float = 1e-12) -> TransformContext:
    """Certify and package a backward solution for transform work."""
    d = u.grid.dimension
    if u.components != d:
        raise ValueError(f"u must have {d} components, got {u.components}")
    bound = gradient_sup(u)
    if not bound <= 0.5 + 1e-12:
        raise ValueError(
            f"gradient certificate failed: sup |grad u| = {bound:.6f} > 1/2; "
            f"raise lambda before building the transform"
        )
    if not inverse_tol > 0:
        raise ValueError("inverse tolerance must be positive")
    jac_nodes = [gradient(u.node(m)) for m in range(u.nodes + 1)]
    jac = TimeField.from_nodes(jac_nodes, u.horizon)
    return TransformContext(u=u, jacobian=jac, gradient_bound=float(bound),
                            inverse_tol=float(inverse_tol))


def _as_batch(x, d: int):
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] != d:
        raise ValueError(f"points must have {d} coordinates")
    return pts, single


def phi(ctx: TransformContext, t: float, x) -> np.ndarray:
    """Forward transform x + u(t, x); accepts one point or a batch."""
    return np.asarray(x, dtype=float) + evaluate(ctx.u_at(t), x)


def psi(ctx: TransformContext, t: float, y) -> np.ndarray:
    """Inverse transform by the contraction x_{k+1} = y - u(t, x_k), x_0 = y.

    Each point iterates until its update is below inverse_tol; points that
    converge are frozen while the rest continue.  Raises InverseDiverged if
    INVERSE_MAX_ITER sweeps are spent first.
    """
    pts, single = _as_batch(y, ctx.u.grid.dimension)
    u_t = ctx.u_at(t)
    if not np.any(u_t.coeffs):
        return pts[0].copy() if single else pts.copy()
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
            return x[0] if single else x
    raise InverseDiverged(
        f"{active.size} point(s) still moving after {INVERSE_MAX_ITER} "
        f"iterations (gradient bound {ctx.gradient_bound:.4f})"
    )


def transform_jacobian(ctx: TransformContext, t: float, x) -> np.ndarray:
    """grad u(t, x) as (d, d) matrices, J[i, j] = d_j u_i; batch-aware."""
    d = ctx.u.grid.dimension
    pts, single = _as_batch(x, d)
    vals = evaluate(ctx.jacobian_at(t), pts)        # (m, d*d)
    jac = vals.reshape(pts.shape[0], d, d)
    return jac[0] if single else jac


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
        y = rng.uniform(0.0, span, size=d)
        p1 = psi(ctx, t1, y)
        p2 = psi(ctx, t2, y)
        worst = max(worst, float(np.linalg.norm(p2 - p1) / abs(t2 - t1) ** gamma))
    return worst
