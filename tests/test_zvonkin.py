"""Space transform and its inverse against scalar root-finding oracles."""

import numpy as np
import pytest
from scipy.optimize import brentq

import singular_drift.zvonkin as zvonkin
from singular_drift.drifts import DriftSpec
from singular_drift.lab import ExperimentConfig, prepare_transform
from singular_drift.spectral import GridSpec, TimeField, evaluate, gradient
from singular_drift.zvonkin import (
    InverseDiverged,
    make_context,
    phi,
    psi,
    transform_jacobian,
)

from conftest import node_gradient_jacobian, random_time_field, sine_time_field


def test_make_context_certifies_gradient(grid64):
    u = sine_time_field(grid64, 0.4, 4)
    ctx = make_context(u)
    assert abs(ctx.gradient_bound - 0.4) < 1e-12
    bad = sine_time_field(grid64, 0.9, 4)
    with pytest.raises(ValueError, match="gradient certificate"):
        make_context(bad)


def test_make_context_validates_components(grid64):
    u = sine_time_field(grid64, 0.1, 2)
    two = TimeField(grid64, 1.0, np.concatenate([u.coeffs, u.coeffs], axis=1))
    with pytest.raises(ValueError, match="components"):
        make_context(two)
    with pytest.raises(ValueError):
        make_context(u, inverse_tol=0.0)


def test_phi_closed_form(sine_ctx):
    x = np.array([[0.3], [1.7], [4.0]])
    got = phi(sine_ctx, 0.5, x)
    assert np.max(np.abs(got - (x + 0.4 * np.sin(x)))) < 1e-12


def test_psi_matches_scalar_root_finder(sine_ctx):
    rng = np.random.default_rng(8)
    ys = rng.uniform(0.0, 2 * np.pi, size=12)
    got = psi(sine_ctx, 0.25, ys[:, None])[:, 0]
    for y, x_hat in zip(ys, got):
        x_star = brentq(lambda x: x + 0.4 * np.sin(x) - y, y - 1.0, y + 1.0,
                        xtol=1e-14)
        assert abs(x_hat - x_star) < 5e-12


def test_round_trip(sine_ctx):
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.0, 2 * np.pi, size=(200, 1))
    ts = rng.uniform(0.0, 1.0, size=200)
    worst = 0.0
    for t, p in zip(ts, pts):
        back = phi(sine_ctx, t, psi(sine_ctx, t, p[None]))
        worst = max(worst, float(np.abs(back - p).max()))
    assert worst <= 2e-12


def test_transform_rejects_single_point(sine_ctx):
    # points form an (m, d) batch; one point is a one-row batch
    for fn in (phi, psi, transform_jacobian):
        with pytest.raises(ValueError, match="batch"):
            fn(sine_ctx, 0.0, np.array([1.0]))
        assert fn(sine_ctx, 0.0, np.array([[1.0]])).shape[0] == 1


def test_psi_zero_transform_shortcut(grid64):
    ctx = make_context(sine_time_field(grid64, 0.0, 2))
    y = np.array([[1.0], [2.0]])
    assert np.array_equal(psi(ctx, 0.5, y), y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_psi_refuses_non_finite_points(grid64, sine_ctx, bad):
    # refused before the zero-transform shortcut too, which would return it
    zero = make_context(sine_time_field(grid64, 0.0, 2))
    y = np.array([[1.0], [bad]])
    for ctx in (sine_ctx, zero):
        with pytest.raises(ValueError, match="finite"):
            psi(ctx, 0.5, y)


def test_psi_budget_exhaustion_raises(grid64, monkeypatch):
    monkeypatch.setattr(zvonkin, "INVERSE_MAX_ITER", 1)
    ctx = make_context(sine_time_field(grid64, 0.4, 2))
    with pytest.raises(InverseDiverged):
        psi(ctx, 0.0, np.array([[1.0]]))


def test_transform_jacobian_closed_form(sine_ctx):
    x = np.array([[0.0], [np.pi / 3]])
    jac = transform_jacobian(sine_ctx, 0.5, x)
    want = 0.4 * np.cos(x[:, 0])
    assert np.max(np.abs(jac[:, 0, 0] - want)) < 1e-12


@pytest.mark.parametrize("d, modes, amplitude", [(1, 64, 0.1), (2, 16, 0.06)])
def test_transform_jacobian_is_the_gradient_of_u(d, modes, amplitude):
    # differentiating u(t) and interpolating the node gradients agree
    # bitwise at node times and to rounding between them
    grid = GridSpec(d, modes)
    ctx = make_context(random_time_field(grid, 4, amplitude, seed=3 + d))
    x = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=(40, d))
    for t in ctx.u.times:
        assert np.array_equal(transform_jacobian(ctx, t, x),
                              node_gradient_jacobian(ctx, t, x))
    worst = 0.0
    for t in (0.1, 0.3, 0.61, 0.999):
        got = transform_jacobian(ctx, t, x)
        want = node_gradient_jacobian(ctx, t, x)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert 0.0 < np.max(np.abs(want)) and worst <= 1e-14


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP item 3: gradient_sup certifies sup |grad u| <= 1/2 "
                          "at grid nodes only")
def test_certificate_holds_between_grid_nodes():
    # prepare_transform accepts lambda 2 with 0.4646 at the nodes; on a 4x
    # refined grid grad u reaches 0.5249
    cfg = ExperimentConfig(name="t", drift=DriftSpec(family="random-fourier", seed=42,
                                                     beta=0.25, eta=0.3, amplitude=0.25),
                           modes=64, pde_nodes=32, steps=32, paths=64, seed=5)
    u = prepare_transform(cfg)["u"]
    fine = (np.arange(4 * cfg.modes) * cfg.period / (4 * cfg.modes))[:, None]
    worst = max(float(np.max(np.abs(evaluate(gradient(u.node(m)), fine))))
                for m in range(u.nodes + 1))
    assert worst <= 0.5
