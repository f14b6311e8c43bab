"""Space transform and its inverse against scalar root-finding oracles."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import brentq

import singular_drift.zvonkin as zvonkin
from singular_drift.drifts import DriftSpec
from singular_drift.lab import ExperimentConfig, prepare_transform
from singular_drift.kolmogorov import gradient_sup
from singular_drift.spectral import GridSpec, SpectralField, TimeField, evaluate, gradient
from singular_drift.zvonkin import (
    INVERSE_TOL,
    InverseDiverged,
    TransformContext,
    phi,
    psi,
    transform_jacobian,
)

from conftest import random_field, random_time_field, sine_time_field


def test_context_certifies_gradient(grid64):
    u = sine_time_field(grid64, 0.4, 4)
    ctx = TransformContext(u)
    assert abs(ctx.gradient_bound - 0.4) < 1e-12
    assert ctx.inverse_tol == INVERSE_TOL
    bad = sine_time_field(grid64, 0.9, 4)
    with pytest.raises(ValueError, match="gradient certificate"):
        TransformContext(bad)


def test_context_gradient_bound_cannot_be_set(sine_ctx):
    # the bound is measured from u, never given, so psi's safeguard and its
    # q/(1-q) bound never run on a void certificate
    with pytest.raises(ValueError, match="gradient_bound"):
        dataclasses.replace(sine_ctx, gradient_bound=0.9)
    with pytest.raises(TypeError, match="gradient_bound"):
        TransformContext(sine_ctx.u, gradient_bound=0.9)
    steep = sine_time_field(GridSpec(1, 64), 0.9, 4)
    with pytest.raises(ValueError, match="gradient certificate"):
        dataclasses.replace(sine_ctx, u=steep)


def test_context_validates_components(grid64):
    u = sine_time_field(grid64, 0.1, 2)
    two = TimeField(grid64, 1.0, np.concatenate([u.coeffs, u.coeffs], axis=1))
    with pytest.raises(ValueError, match="components"):
        TransformContext(two)
    with pytest.raises(ValueError):
        TransformContext(u, inverse_tol=0.0)


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
def test_context_refuses_a_bad_inverse_tolerance(sine_ctx, bad):
    # checked by the context itself, so a replaced tolerance is refused too
    with pytest.raises(ValueError, match="inverse tolerance"):
        dataclasses.replace(sine_ctx, inverse_tol=bad)
    assert dataclasses.replace(sine_ctx, inverse_tol=1e-12).inverse_tol == 1e-12


def test_phi_closed_form(sine_ctx):
    x = np.array([[0.3], [1.7], [4.0]])
    got = phi(sine_ctx, 0.5, x)
    assert np.max(np.abs(got - (x + 0.4 * np.sin(x)))) < 1e-12


def steep_context(node: SpectralField, target: float = 0.49, tol: float = 1e-12):
    """A time-constant u with the node field's shape, scaled so that the
    certificate sup |grad u| at the grid nodes reads `target`."""
    u = TimeField.from_nodes([node] * 3, 1.0)
    return TransformContext(u * (target / gradient_sup(u)), inverse_tol=tol)


def triangle_wave(grid: GridSpec) -> SpectralField:
    """Band-limited triangle wave: |u'| is nearly constant and flips sign at
    every kink, so a secant through a kink misjudges the slope at the root."""
    x = grid.axis_points()
    k = np.arange(1, grid.modes_per_axis // 2, 2)
    vals = np.sum(np.sin(np.outer(x, k)) * (-1.0) ** (k // 2) / k ** 2, axis=1)
    return SpectralField.from_grid(grid, vals[None])


def contraction_reference(ctx, t, y, tol):
    """The plain contraction x <- y - u(t, x) from x = y, every point until
    its move is below tol; returns the points and the point-sweeps spent."""
    u_t = ctx.u.at_time(t)
    x, active, sweeps = y.copy(), np.arange(len(y)), 0
    for _ in range(200):
        nxt = y[active] - evaluate(u_t, x[active])
        sweeps += active.size
        moving = np.sum((nxt - x[active]) ** 2, axis=1) >= tol ** 2
        x[active] = nxt
        active = active[moving]
        if active.size == 0:
            return x, sweeps
    raise AssertionError("the contraction reference did not converge")


def counted_evaluate(monkeypatch):
    """Route psi's `evaluate` through a recorder of (points, values) per call."""
    calls = []

    def recording(f, x):
        vals = evaluate(f, x)
        calls.append((np.array(x), vals))
        return vals

    monkeypatch.setattr(zvonkin, "evaluate", recording)
    return calls


def test_psi_matches_scalar_root_finder(sine_ctx):
    rng = np.random.default_rng(8)
    ys = rng.uniform(0.0, 2 * np.pi, size=12)
    got = psi(sine_ctx, 0.25, ys[:, None])[:, 0]
    for y, x_hat in zip(ys, got):
        x_star = brentq(lambda x: x + 0.4 * np.sin(x) - y, y - 1.0, y + 1.0,
                        xtol=1e-14)
        assert abs(x_hat - x_star) < 5e-12


@pytest.mark.parametrize("seed", range(6))
def test_psi_matches_scalar_root_finder_on_steep_rough_fields(seed):
    # sup |u'| reads 0.49 at the nodes: the contraction's slowest admissible rate
    ctx = steep_context(random_field(GridSpec(1, 64), eta=0.3, seed=seed))
    u_t = ctx.u.at_time(0.25)
    ys = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=20)
    got = psi(ctx, 0.25, ys[:, None])[:, 0]
    reach = float(np.max(np.abs(u_t.values()))) + 0.1
    for y, x_hat in zip(ys, got):
        x_star = brentq(lambda x: x + evaluate(u_t, [[x]])[0, 0] - y,
                        y - reach, y + reach, xtol=1e-14)
        assert abs(x_hat - x_star) <= 5e-12


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


def test_transform_refuses_a_nan_time(sine_ctx):
    # a NaN time fails every comparison, so it must be refused by name
    for fn in (phi, psi, transform_jacobian):
        with pytest.raises(ValueError, match="outside"):
            fn(sine_ctx, np.nan, np.array([[1.0]]))


def test_psi_zero_transform_returns_y(grid64):
    # the first sweep's plain step is y - 0 with a zero residual
    ctx = TransformContext(sine_time_field(grid64, 0.0, 2))
    y = np.array([[1.0], [2.0]])
    assert np.array_equal(psi(ctx, 0.5, y), y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_psi_refuses_non_finite_points(grid64, sine_ctx, bad):
    # refused up front, on the zero transform too
    zero = TransformContext(sine_time_field(grid64, 0.0, 2))
    y = np.array([[1.0], [bad]])
    for ctx in (sine_ctx, zero):
        with pytest.raises(ValueError, match="finite"):
            psi(ctx, 0.5, y)


def test_psi_budget_exhaustion_raises(grid64, monkeypatch):
    monkeypatch.setattr(zvonkin, "INVERSE_MAX_ITER", 1)
    ctx = TransformContext(sine_time_field(grid64, 0.4, 2))
    with pytest.raises(InverseDiverged):
        psi(ctx, 0.0, np.array([[1.0]]))


def test_psi_matches_the_contraction_in_2d():
    grid = GridSpec(2, 16)
    u = random_time_field(grid, 4, 0.1, seed=11)
    ctx = TransformContext(u * (0.45 / gradient_sup(u)), inverse_tol=1e-14)
    y = np.random.default_rng(12).uniform(0.0, 2 * np.pi, size=(300, 2))
    for t in (0.0, 0.37, 1.0):
        want, _ = contraction_reference(ctx, t, y, 1e-14)
        assert np.max(np.abs(psi(ctx, t, y) - want)) <= 1e-13


def test_psi_spends_fewer_sweeps_than_the_contraction(monkeypatch):
    ctx = steep_context(random_field(GridSpec(1, 256), eta=0.3, seed=7), tol=1e-9)
    y = np.random.default_rng(13).uniform(0.0, 2 * np.pi, size=(2000, 1))
    _, plain = contraction_reference(ctx, 0.5, y, 1e-9)
    calls = counted_evaluate(monkeypatch)
    psi(ctx, 0.5, y)
    accelerated = sum(len(x) for x, _ in calls)
    assert accelerated <= 0.75 * plain


@pytest.mark.parametrize("node", [
    random_field(GridSpec(1, 256), eta=0.3, seed=7),
    triangle_wave(GridSpec(1, 64)),
], ids=["steep-rough", "triangle-wave"])
def test_psi_rows_do_not_depend_on_the_batch(node):
    ctx = steep_context(node, tol=1e-9)
    y = np.random.default_rng(15).uniform(0.0, 2 * np.pi, size=(300, 1))
    whole = psi(ctx, 0.5, y)
    for i in range(len(y)):
        assert np.array_equal(whole[i], psi(ctx, 0.5, y[i:i + 1])[0])
    assert np.array_equal(whole[:137], psi(ctx, 0.5, y[:137]))


def test_psi_falls_back_to_the_plain_step(monkeypatch):
    # on the triangle wave some accelerated iterates shrink the residual by
    # less than the certified factor q; each must be dropped for the plain
    # step from the iterate before it, and every point still converges
    ctx = steep_context(triangle_wave(GridSpec(1, 64)))
    q_sq = ctx.gradient_bound ** 2
    calls = counted_evaluate(monkeypatch)
    ys = np.random.default_rng(14).uniform(0.0, 2 * np.pi, size=60)
    fallbacks = 0
    for y in ys:
        calls.clear()
        x_hat = psi(ctx, 0.5, np.array([[y]]))[0, 0]
        x = np.array([c[0][0, 0] for c in calls])
        g = y - np.array([c[1][0, 0] for c in calls])
        r = (g - x) ** 2
        for k in range(1, len(x) - 1):
            plain = np.any(x[k] == g[:k])
            if not plain and not r[k] <= q_sq * r[k - 1]:
                fallbacks += 1
                assert x[k + 1] == g[k - 1]
        assert abs(x_hat + evaluate(ctx.u.at_time(0.5), [[x_hat]])[0, 0] - y) <= 1e-12
    assert fallbacks > 0


def test_transform_jacobian_closed_form(sine_ctx):
    x = np.array([[0.0], [np.pi / 3]])
    jac = transform_jacobian(sine_ctx, 0.5, x)
    want = 0.4 * np.cos(x[:, 0])
    assert np.max(np.abs(jac[:, 0, 0] - want)) < 1e-12


@pytest.mark.parametrize("d, modes, amplitude", [(1, 64, 0.1), (2, 16, 0.06)])
def test_transform_jacobian_is_the_gradient_of_u(d, modes, amplitude):
    # sigma's grad u is the derivative of the same u(t) that phi and psi
    # read, bit for bit, at node times and between them
    grid = GridSpec(d, modes)
    ctx = TransformContext(random_time_field(grid, 4, amplitude, seed=3 + d))
    x = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=(40, d))
    for t in (*ctx.u.times, 0.1, 0.3, 0.61, 0.999):
        want = evaluate(gradient(ctx.u.at_time(t)), x).reshape(-1, d, d)
        assert np.array_equal(transform_jacobian(ctx, t, x), want)
        assert 0.0 < np.max(np.abs(want))


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
