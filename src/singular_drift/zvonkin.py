"""Space transform phi(t, x) = x + u(t, x) and its pointwise inverse.

Once the backward solution u carries the certificate sup |grad u| <= 1/2 the
map x -> phi(t, x) is a diffeomorphism for every t: the inverse psi solves the
fixed point x = y - u(t, x), a contraction at rate <= 1/2 from the initial
guess x = y, which psi accelerates by a safeguarded Anderson(1) step (the
secant method in 1-D) at no extra evaluation of u.  Between time nodes u and
its gradient, formed once per transform, are interpolated linearly in their
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import TimeField, _points, evaluate, gradient
from .kolmogorov import GRADIENT_TARGET, gradient_sup

__all__ = [
    "INVERSE_TOL",
    "InverseDiverged",
    "TransformContext",
    "phi",
    "psi",
    "transform_jacobian",
]


class InverseDiverged(Exception):
    """Fixed-point iteration for psi ran out of iterations."""


# sweeps psi may spend: at contraction rate 1/2 about 40 reach 1e-12, and each
# dropped Anderson step costs one sweep before a contraction step, so 80 cover
# the contraction even if every other step is dropped
INVERSE_MAX_ITER = 80
# psi's default tolerance on the residual |y - phi(x)|, the one every simulation uses
INVERSE_TOL = 1e-9


@dataclass(frozen=True)
class TransformContext:
    """Backward solution u, certified, plus the data needed to invert
    x + u(t, x): u must have one component per axis.

    gradient_bound is not a parameter: the context measures the certificate
    sup |grad u| (`gradient_sup`) itself, on construction and on every
    `dataclasses.replace`, and refuses values above 1/2, for which the
    contraction estimate would be void.  It refuses an inverse_tol that is
    not finite and positive.  grad u is formed once, on first use, and kept
    (`jacobian`).
    """

    u: TimeField
    inverse_tol: float = INVERSE_TOL
    gradient_bound: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.inverse_tol < np.inf:
            raise ValueError(f"inverse tolerance must be finite and positive, "
                             f"got {self.inverse_tol}")
        bound = gradient_sup(self.u)
        if not bound <= GRADIENT_TARGET + 1e-12:
            raise ValueError(
                f"gradient certificate failed: sup |grad u| = {bound:.6f} > {GRADIENT_TARGET:g}; "
                f"raise lambda before building the transform"
            )
        object.__setattr__(self, "gradient_bound", float(bound))

    @property
    def horizon(self) -> float:
        return self.u.horizon

    @cached_property
    def jacobian(self) -> TimeField:
        """grad u at every node, components ordered (i, j) -> d_j u_i: formed
        on first use and kept, as the context is immutable."""
        return gradient(self.u)


def phi(ctx: TransformContext, t: float, x) -> np.ndarray:
    """Forward transform x + u(t, x) on an (m, d) batch of points."""
    return np.asarray(x, dtype=float) + evaluate(ctx.u.at_time(t), x)


def psi(ctx: TransformContext, t: float, y) -> np.ndarray:
    """Inverse transform: the fixed point x = y - u(t, x) from x_0 = y, on an
    (m, d) batch of points, by a safeguarded Anderson(1) iteration (Walker &
    Ni, SIAM J. Numer. Anal. 2011).

    Sweep k evaluates u once per point: g_k = y - u(t, x_k) and the residual
    f_k = g_k - x_k.  A point with |f_k| < inverse_tol is frozen at the plain
    step g_k, so the contraction's a posteriori bound holds, the error is at
    most q/(1-q) inverse_tol with q the gradient bound.  Any other point steps
    to x_{k+1} = g_k - gamma_k (g_k - g_{k-1}), where gamma_k = f_k.df/|df|^2
    and df = f_k - f_{k-1} (the secant method in 1-D).  The first sweep takes
    the plain step g_0 (gamma = 0).  So does a point whose accelerated iterate
    shrank the residual by less than the factor q that a contraction step
    guarantees: that iterate is dropped, and the point takes the plain step
    from the iterate before it.  Every kept iterate thus gains a factor q or
    is a contraction step, and a dropped one costs one sweep, so the
    iteration converges wherever the contraction does.

    Each point's iterates depend on that point alone, so a batch's rows do
    not depend on the batch.  Raises ValueError on a non-finite point (its
    NaN residual compares false against the tolerance, so it would be
    dropped as converged) and InverseDiverged if INVERSE_MAX_ITER sweeps are
    spent first.
    """
    pts = _points(y, ctx.u.grid.dimension)
    if not np.all(np.isfinite(pts)):
        raise ValueError("psi is defined on finite points; got NaN or infinity")
    u_t = ctx.u.at_time(t)
    tol_sq, q_sq = ctx.inverse_tol ** 2, ctx.gradient_bound ** 2
    out = np.empty_like(pts)
    # per moving point: its row, y, the iterate x, the last kept sweep (g, f),
    # and whether x is an accelerated iterate that must shrink |f|^2 by q_sq
    row, y, x = np.arange(pts.shape[0]), pts, pts
    for sweep in range(INVERSE_MAX_ITER):
        g = y - evaluate(u_t, x)
        f = g - x
        r = np.sum(f * f, axis=1)
        if sweep == 0:
            nxt, g_kept, f_kept, accelerated = g, g, f, np.zeros(r.shape, dtype=bool)
        else:
            drop = accelerated & (r > q_sq * np.sum(f_kept * f_kept, axis=1))
            df = f - f_kept
            dd = np.sum(df * df, axis=1)
            gamma = np.divide(np.sum(f * df, axis=1), dd, out=np.zeros_like(dd),
                              where=dd > 0)
            nxt = np.where(drop[:, None], g_kept, g - gamma[:, None] * (g - g_kept))
            g_kept = np.where(drop[:, None], g_kept, g)
            f_kept = np.where(drop[:, None], f_kept, f)
            accelerated = ~drop
        done = r < tol_sq
        out[row[done]] = g[done]
        moving = np.flatnonzero(~done)
        if moving.size == 0:
            return out
        row, y, x = row[moving], y[moving], nxt[moving]
        g_kept, f_kept, accelerated = g_kept[moving], f_kept[moving], accelerated[moving]
    raise InverseDiverged(
        f"{row.size} point(s) still moving after {INVERSE_MAX_ITER} "
        f"iterations (gradient bound {ctx.gradient_bound:.4f})"
    )


def transform_jacobian(ctx: TransformContext, t: float, x) -> np.ndarray:
    """grad u(t, x) as (m, d, d) matrices, J[i, j] = d_j u_i, on an (m, d)
    batch of points: the context's node gradients, interpolated linearly in
    time.  At node times that is the gradient of u(t) bit for bit; between
    them the two differ by rounding."""
    d = ctx.u.grid.dimension
    vals = evaluate(ctx.jacobian.at_time(t), x)     # (m, d*d)
    return vals.reshape(-1, d, d)
