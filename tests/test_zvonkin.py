"""Space transform and its inverse against scalar root-finding oracles."""

import numpy as np
import pytest
from scipy.optimize import brentq

import singular_drift.zvonkin as zvonkin
from singular_drift.spectral import TimeField
from singular_drift.zvonkin import (
    InverseDiverged,
    TransformContext,
    lipschitz_probe,
    make_context,
    phi,
    psi,
    time_continuity_probe,
    transform_jacobian,
)

from conftest import sine_time_field


@pytest.fixture(scope="module")
def sine_ctx():
    """u(t, x) = 0.4 sin(x), constant in time: phi = x + 0.4 sin x."""
    grid = None
    from singular_drift.spectral import GridSpec
    grid = GridSpec(1, 64, 2.0 * np.pi)
    return make_context(sine_time_field(grid, 0.4, 4))


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
    ctx = make_context(u)
    worst = time_continuity_probe(ctx, gamma=1.0, samples=200, seed=4)
    assert 0.0 < worst <= 0.4 + 1e-9
