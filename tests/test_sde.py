"""Simulation: reproducible noise streams, exact trivial cases, invariants."""

import numpy as np
import pytest

from singular_drift.spectral import GridSpec, SpectralField, TimeField, evaluate
from singular_drift.zvonkin import TransformContext, make_context
from singular_drift.sde import (
    EllipticityError,
    PathEnsemble,
    SimConfig,
    brownian_increments,
    coefficients,
    load_ensemble,
    save_ensemble,
    simulate_classical,
    simulate_y,
    virtual_residual,
    virtual_x,
)

from conftest import sine_time_field


def zero_ctx(grid, steps=8):
    return make_context(sine_time_field(grid, 0.0, steps))


def small_sim(**over):
    kw = dict(x0=(0.3,), horizon=1.0, steps=16, paths=64, seed=11, lam=1.0)
    kw.update(over)
    return SimConfig(**kw)


# --- configuration -----------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"steps": 0},
    {"paths": 0},
    {"horizon": 0.0},
    {"seed": -1},
    {"seed": 1.5},
    {"base_steps": 24},          # not a multiple of steps
    {"base_steps": 8},           # smaller than steps
])
def test_sim_config_rejects_bad_values(kwargs):
    base = dict(x0=(0.0,), horizon=1.0, steps=16, paths=4, seed=0, lam=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        SimConfig(**base)


def test_sim_config_roundtrip():
    cfg = small_sim(base_steps=32)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg


# --- noise streams -------------------------------------------------------------------


def test_increments_deterministic_and_path_keyed():
    cfg = small_sim(paths=32)
    a = brownian_increments(cfg)
    b = brownian_increments(cfg)
    assert np.array_equal(a, b)
    # the stream of path p is independent of how many paths are drawn
    head = brownian_increments(small_sim(paths=8))
    assert np.array_equal(a[:8], head)
    other = brownian_increments(small_sim(paths=32, seed=12))
    assert not np.array_equal(a, other)


def test_increment_moments():
    cfg = small_sim(paths=4000, steps=4)
    dw = brownian_increments(cfg)
    dt = cfg.dt
    n = dw.size
    assert abs(dw.mean()) < 4.0 * np.sqrt(dt / n)
    assert abs(dw.var() - dt) < 4.0 * dt * np.sqrt(2.0 / n)


def test_nested_refinement_preserves_path():
    fine = brownian_increments(small_sim(steps=32, paths=16))
    coarse = brownian_increments(small_sim(steps=8, paths=16, base_steps=32))
    assert np.allclose(coarse, fine.reshape(16, 8, 4, 1).sum(axis=2), atol=0, rtol=0)


# --- coefficients ----------------------------------------------------------------------


def test_coefficients_zero_transform(grid64):
    ctx = zero_ctx(grid64)
    mu, sigma = coefficients(ctx, 3.0, 0.5, np.array([[0.7], [1.4]]))
    assert np.max(np.abs(mu)) == 0.0
    assert np.array_equal(sigma, np.tile(np.eye(1), (2, 1, 1)))


def test_coefficients_closed_form(grid64):
    # u = 0.4 sin x: mu(y) = (lam+1) 0.4 sin(psi(y)), sigma = 1 + 0.4 cos(psi(y))
    ctx = make_context(sine_time_field(grid64, 0.4, 4))
    y = np.array([1.2])
    mu, sigma = coefficients(ctx, 2.0, 0.0, y)
    from singular_drift.zvonkin import psi
    x = psi(ctx, 0.0, y)
    assert abs(mu[0] - 3.0 * 0.4 * np.sin(x[0])) < 1e-10
    assert abs(sigma[0, 0] - (1.0 + 0.4 * np.cos(x[0]))) < 1e-10


def test_coefficients_ellipticity_floor(grid64):
    # bypass the certificate to build sigma = 1 + 0.9 cos x, which dips to 0.1
    from singular_drift.spectral import gradient
    u = sine_time_field(grid64, 0.9, 2)
    jac = TimeField.from_nodes(
        [gradient(u.node(m)) for m in range(u.nodes + 1)], u.horizon)
    ctx = TransformContext(u=u, jacobian=jac, gradient_bound=0.9)
    with pytest.raises(EllipticityError):
        coefficients(ctx, 1.0, 0.0, np.array([[3.0]]))


# --- simulators --------------------------------------------------------------------------


def test_zero_drift_paths_are_brownian(grid64):
    ctx = zero_ctx(grid64, steps=4)
    cfg = small_sim(paths=32)
    ens = virtual_x(ctx, simulate_y(ctx, cfg))
    dw = brownian_increments(cfg)
    ref = np.empty((32, 17, 1))
    ref[:, 0] = 0.3
    for m in range(16):
        ref[:, m + 1] = ref[:, m] + dw[:, m]
    assert np.array_equal(np.asarray(ens.states), ref)


def test_simulate_y_validates_geometry(grid64):
    ctx = zero_ctx(grid64)
    with pytest.raises(ValueError):
        simulate_y(ctx, small_sim(x0=(0.0, 0.0)))
    with pytest.raises(ValueError):
        simulate_y(ctx, small_sim(horizon=2.0))


def test_simulate_classical_constant_drift(grid64):
    c = 0.5
    coeffs = np.zeros((1, 64), dtype=complex)
    coeffs[0, 0] = c
    b = TimeField.from_nodes([SpectralField(grid64, coeffs)] * 17, 1.0)
    cfg = small_sim(paths=16)
    ens = simulate_classical(b, cfg)
    dw = brownian_increments(cfg)
    ref = np.empty((16, 17, 1))
    ref[:, 0] = 0.3
    for m in range(16):
        ref[:, m + 1] = ref[:, m] + c * cfg.dt + dw[:, m]
    assert np.max(np.abs(np.asarray(ens.states) - ref)) < 1e-15


def test_simulation_reproducible_across_runs(grid64):
    ctx = make_context(sine_time_field(grid64, 0.3, 8))
    cfg = small_sim(paths=48)
    a = simulate_y(ctx, cfg)
    b = simulate_y(ctx, cfg)
    assert np.array_equal(np.asarray(a.states), np.asarray(b.states))
    # 3000 paths span two blocks of the path partition; the head is unchanged
    wide = simulate_y(ctx, small_sim(paths=3000))
    assert np.array_equal(np.asarray(wide.states)[:48], np.asarray(a.states))


def test_virtual_x_inverts_transform(grid64):
    ctx = make_context(sine_time_field(grid64, 0.3, 8))
    cfg = small_sim(paths=24)
    ys = simulate_y(ctx, cfg)
    xs = virtual_x(ctx, ys)
    # phi(x) recovers y at every node within the inversion tolerance
    from singular_drift.zvonkin import phi
    for m, t in enumerate(cfg.times):
        back = phi(ctx, t, xs.states[:, m])
        assert np.max(np.abs(back - ys.states[:, m])) < 1e-9


def test_virtual_residual_small_on_virtual_ensemble(grid64):
    ctx = make_context(sine_time_field(grid64, 0.3, 16))
    cfg = small_sim(paths=24)
    xs = virtual_x(ctx, simulate_y(ctx, cfg))
    res = virtual_residual(ctx, cfg.lam, xs)
    assert res < 1e-8


def test_path_ensemble_accessors(grid64):
    ctx = zero_ctx(grid64, steps=4)
    cfg = small_sim(paths=8)
    ens = simulate_y(ctx, cfg)
    assert np.array_equal(ens.terminal(), ens.states[:, -1, :])
    assert np.array_equal(ens.at_time(0.5), ens.states[:, 8, :])
    with pytest.raises(ValueError):
        PathEnsemble(states=np.zeros((8, 3, 1)), config=cfg, label="bad",
                     provenance={})


# --- snapshot format ------------------------------------------------------------------------


def test_ensemble_roundtrip(tmp_path, grid64):
    ctx = zero_ctx(grid64, steps=4)
    cfg = small_sim(paths=8)
    ens = simulate_y(ctx, cfg, label="unit")
    p = save_ensemble(ens, tmp_path / "e.bin")
    back = load_ensemble(p)
    assert np.array_equal(np.asarray(back.states), np.asarray(ens.states))
    assert back.config == cfg
    assert back.label == "unit"
    assert back.provenance["block"] == ens.provenance["block"]


def test_load_ensemble_rejects_garbage(tmp_path):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="not an ensemble"):
        load_ensemble(bad)
