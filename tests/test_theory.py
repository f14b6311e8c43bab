"""The observable estimates of the theory: Picard contraction, the Hoelder and
Gamma-kernel bounds, the probes of psi, and the product constant."""

import numpy as np
import pytest

import singular_drift.theory as theory
from singular_drift.spectral import SobolevIndex, SpectralField, TimeField, refine
from singular_drift.kolmogorov import PdeConfig, mild_residual, solve_fwd
from singular_drift.zvonkin import TransformContext
from singular_drift.theory import (
    MaxIterExceeded,
    gamma_bound_check,
    holder_diagnostic,
    lipschitz_probe,
    picard_sweeps,
    product_bound_ratio,
    time_continuity_probe,
)

from conftest import random_field, sine_time_field

CFG = PdeConfig(beta=0.25, delta=0.5, p=2.5)


# --- the contraction of the mild operator ----------------------------------------------


def test_picard_contracts_and_residual_is_small(rough_drift64):
    v, report = picard_sweeps(rough_drift64, 4.0, CFG)
    assert report.method == "picard"
    assert all(r < 1.0 for r in report.ratios[2:])
    assert report.sup_diffs[-1] < CFG.tol
    res = mild_residual(v, rough_drift64, 4.0, CFG, 0.0)
    assert res <= 2.0 * CFG.tol


def test_solver_raises_when_budget_exhausted(rough_drift64, monkeypatch):
    monkeypatch.setattr(theory, "PICARD_MAX_ITER", 1)
    with pytest.raises(MaxIterExceeded):
        picard_sweeps(rough_drift64, 4.0, CFG)


def test_march_agrees_with_picard(march_case):
    # the operator is causal, so Picard is exact at the first m nodes after m
    # sweeps; it stops earlier on its tolerance when M is large
    b, cfg = march_case
    v, _ = solve_fwd(b, 4.0)
    v_picard, report = picard_sweeps(b, 4.0, cfg)
    assert report.method == "picard"
    assert np.max(np.abs(v.coeffs - v_picard.coeffs)) <= 1e-10


def test_holder_diagnostic_linear_motion(grid64):
    # nodes t_m * sin(x): ||u(t)-u(s)||_{L^2} = |t-s| sqrt(pi), so the
    # gamma = 1 quotient is exactly sqrt(pi)
    times = np.linspace(0.0, 1.0, 5)
    nodes = [SpectralField.from_grid(
        grid64, (t * np.sin(grid64.axis_points()))[None]) for t in times]
    u = TimeField.from_nodes(nodes, 1.0)
    got = holder_diagnostic(u, 1.0, SobolevIndex(0.0, 2.0))
    assert abs(got - np.sqrt(np.pi)) < 1e-12
    with pytest.raises(ValueError):
        holder_diagnostic(u, 0.0, SobolevIndex(0.0, 2.0))


# --- the gamma bound -------------------------------------------------------------------


def test_gamma_bound_check_values():
    out = gamma_bound_check(2.0, 0.5)
    assert out["ok"]
    assert out["integral"] <= out["bound"] * (1 + 1e-9)
    # theta = 0 closed form: integral = 1/rho, bound = Gamma(1)/rho
    out0 = gamma_bound_check(4.0, 0.0)
    assert abs(out0["integral"] - 0.25) < 1e-9
    assert abs(out0["bound"] - 0.25) < 1e-12


def test_gamma_bound_check_domain():
    with pytest.raises(ValueError):
        gamma_bound_check(0.5, 0.25)
    with pytest.raises(ValueError):
        gamma_bound_check(2.0, 1.0)
    with pytest.raises(ValueError):
        gamma_bound_check(2.0, 0.25, t_range=(3.0, 2.0))


# --- the inverse transform -------------------------------------------------------------


def test_lipschitz_probe_bound(sine_ctx):
    # psi' = 1/(1 + 0.4 cos x) peaks at 1/0.6; the contraction bound is 2
    lp = lipschitz_probe(sine_ctx, samples=400, seed=3)
    assert lp <= 1.0 / 0.6 + 1e-9
    assert lp > 1.0


def test_time_continuity_probe(grid64):
    # u(t) = 0.2 t sin(x): |psi(t1,y) - psi(t2,y)| <= 2 |u(t1)-u(t2)|_sup
    nodes = [sine_time_field(grid64, 0.2 * t, 1).node(0)
             for t in np.linspace(0.0, 1.0, 5)]
    u = TimeField.from_nodes(nodes, 1.0)
    ctx = TransformContext(u, inverse_tol=1e-12)
    worst = time_continuity_probe(ctx, gamma=1.0, samples=200, seed=4)
    assert 0.0 < worst <= 0.4 + 1e-9


# --- the observable product constant ---------------------------------------------------


def test_product_bound_ratio_zero_factor(grid64, sine_field):
    zero = SpectralField.zero(grid64)
    assert product_bound_ratio(zero, sine_field, 0.25, 0.5, 2.0, 3.0) == 0.0


def test_product_bound_ratio_positive_and_stable(grid64):
    beta, delta, p, q = 0.25, 0.5, 2.5, 3.0
    drifts = []
    for seed in range(10):
        f = random_field(grid64, 2.0, 100 + seed)
        g = random_field(grid64, 0.3, 200 + seed)
        r = product_bound_ratio(f, g, beta, delta, p, q)
        assert np.isfinite(r) and r > 0
        r2 = product_bound_ratio(refine(f), refine(g), beta, delta, p, q)
        drifts.append(abs(r2 - r) / r)
    assert max(drifts) < 0.05
