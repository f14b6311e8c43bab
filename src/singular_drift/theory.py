"""The estimates of the existence proof, made observable: the contraction of
the mild operator in exp(-rho t)-weighted H^{1+delta}_p norms, the kernel
integral's Gamma-function bound, psi's Lipschitz and time-Hoelder bounds, and
the smooth/rough product bound.  No run needs them, so no pipeline module
imports this one; the acceptance criteria, the tests and `cli diagnostics` do.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .spectral import SobolevIndex, SpectralField, TimeField, sobolev_norm
from .paraproduct import product
from .kolmogorov import PdeConfig, SolveReport, _weighted_sup, integral_operator
from .zvonkin import TransformContext, psi

__all__ = [
    "MaxIterExceeded",
    "picard_sweeps",
    "holder_diagnostic",
    "gamma_bound_check",
    "lipschitz_probe",
    "time_continuity_probe",
    "product_bound_ratio",
]


# sweeps the diagnostic picard_sweeps may spend
PICARD_MAX_ITER = 200


class MaxIterExceeded(Exception):
    """Picard sweeps did not contract at this (lambda, rho); raise lambda or refine."""


def picard_sweeps(b: TimeField, lam: float, cfg: PdeConfig) -> tuple:
    """The fixed point of `kolmogorov.integral_operator` by Picard iteration
    from v = 0: the contraction argument of the theory, which the pipeline's
    march (`kolmogorov.solve_fwd`) does not need.

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

    for k in range(1, PICARD_MAX_ITER + 1):
        v_new = integral_operator(v, b, lam)
        dn = sobolev_norm(v_new - v, idx)
        diff_nodes.append(dn)
        sup_diffs.append(float(dn.max()))
        if k == 2:
            rho = _auto_rho(diff_nodes, times, cfg)
        if sup_diffs[-1] < cfg.tol:
            rho_eff = 0.0 if rho is None else float(rho)
            wd = [_weighted_sup(d, times, rho_eff) for d in diff_nodes]
            ratios = [wd[i + 1] / wd[i] for i in range(len(wd) - 1) if wd[i] > 0]
            report = SolveReport(
                iterations=k, rho=rho_eff, sup_diffs=tuple(sup_diffs),
                ratios=tuple(ratios), lam=float(lam), method="picard",
            )
            return v_new, report
        v = v_new

    raise MaxIterExceeded(
        f"no contraction after {PICARD_MAX_ITER} sweeps at lam={lam}, rho={rho}; "
        f"last sup diff {sup_diffs[-1]:.3e}"
    )


def _auto_rho(diff_nodes, times, cfg: PdeConfig) -> float:
    """Weight rate from the measured unweighted gain of one sweep.

    Start at 4 * gain^(2/(1-delta-beta)) (the theoretical rate exponent), then
    double until the measured weighted ratio of the first two sweeps is < 1/2.
    """
    d1, d2 = diff_nodes[0], diff_nodes[1]
    s1 = d1.max()
    if s1 == 0.0:
        return 1.0
    gain = float(d2.max() / s1)
    exponent = 2.0 / (1.0 - cfg.delta - cfg.beta)
    # exp(-rho t) must stay representable; the cap bounds the reported weight
    # rate (stopping itself uses the unweighted sup, so it stays sound)
    rho_cap = 600.0 / max(float(times[-1]), np.finfo(float).tiny)
    rho = min(max(1.0, 4.0 * gain ** exponent), rho_cap)
    while True:
        w1 = _weighted_sup(d1, times, rho)
        w2 = _weighted_sup(d2, times, rho)
        if w1 == 0.0 or w2 / w1 < 0.5 or rho >= rho_cap:
            return float(rho)
        rho = min(rho * 2.0, rho_cap)


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
    module does not load it.
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


def product_bound_ratio(f: SpectralField, g: SpectralField, beta: float,
                        delta: float, p: float, q: float) -> float:
    """||fg||_{H^{-beta}_p} / (||f||_{H^delta_p} ||g||_{H^{-beta}_q}).

    The smooth/rough product estimate says this is bounded by a constant for
    0 < beta < delta and q > max(p, d/delta); the ratio makes the constant
    observable.
    """
    nf = sobolev_norm(f, SobolevIndex(delta, p))
    ng = sobolev_norm(g, SobolevIndex(-beta, q))
    if nf == 0.0 or ng == 0.0:
        return 0.0
    fg = product(f, g, 2.0 * (1.0 + nf * ng), SobolevIndex(-beta, p))
    return sobolev_norm(fg, SobolevIndex(-beta, p)) / (nf * ng)
