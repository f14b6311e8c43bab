"""Simulation: reproducible noise streams, exact trivial cases, invariants."""

import math

import numpy as np
import pytest

import singular_drift.sde as sde
from singular_drift.drifts import DriftSpec, generate
from singular_drift.spectral import GridSpec, SpectralField, TimeField, evaluate
from singular_drift.kolmogorov import gradient_sup, solve_fwd
from singular_drift.zvonkin import TransformContext, phi, psi, transform_jacobian
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
    virtual_x,
)

from conftest import random_time_field, sine_time_field


def zero_ctx(grid, steps=8):
    return TransformContext(sine_time_field(grid, 0.0, steps))


def small_sim(**over):
    kw = dict(x0=(0.3,), horizon=1.0, steps=16, paths=64, seed=11, lam=1.0)
    kw.update(over)
    return SimConfig(**kw)


def ctx_2d():
    """u(t) = (1 - t/2) (0.2 sin(x1 + x2), 0.15 cos(x1 - x2)) on N=16, 4 nodes."""
    grid = GridSpec(2, 16)
    x1, x2 = np.meshgrid(grid.axis_points(), grid.axis_points(), indexing="ij")
    vals = np.stack([0.2 * np.sin(x1 + x2), 0.15 * np.cos(x1 - x2)])
    nodes = [SpectralField.from_grid(grid, (1.0 - 0.5 * t) * vals)
             for t in np.linspace(0.0, 1.0, 5)]
    return TransformContext(TimeField.from_nodes(nodes, 1.0))


# --- configuration -----------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"steps": 0},
    {"paths": 0},
    {"horizon": 0.0},
    {"seed": -1},
    {"seed": 1.5},
    {"base_steps": 24},          # not a multiple of steps
    {"base_steps": 8},           # smaller than steps
    {"lam": -0.5},
    {"lam": math.inf},
    {"lam": math.nan},
    {"x0": (math.nan,)},         # would run all-NaN paths
    {"x0": (0.0, math.inf)},
    {"horizon": math.inf},       # would make a NaN step
    {"seed": math.inf},          # int() raised OverflowError
])
def test_sim_config_rejects_bad_values(kwargs):
    base = dict(x0=(0.0,), horizon=1.0, steps=16, paths=4, seed=0, lam=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        SimConfig(**base)


@pytest.mark.parametrize("field", ["steps", "paths", "base_steps"])
def test_sim_config_counts_are_integers(field):
    # a fractional count is refused by name; an integral float is stored as
    # an int, so the noise arrays can be shaped by it
    base = dict(x0=(0.0,), horizon=1.0, steps=4, paths=3, seed=0, lam=1.0, base_steps=8)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimConfig(**{**base, field: base[field] + 0.5})
    cfg = SimConfig(**{**base, field: float(base[field])})
    assert type(getattr(cfg, field)) is int and getattr(cfg, field) == base[field]
    assert brownian_increments(cfg).shape == (3, 4, 1)


def test_sim_config_roundtrip():
    cfg = small_sim(base_steps=32)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    # an integral float seed is stored, and so written, as an int
    assert type(small_sim(seed=5.0).to_dict()["seed"]) is int
    assert small_sim(seed=5.0).to_dict()["seed"] == 5


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


def test_increments_cached_read_only_and_equal_to_a_direct_draw():
    cfg = small_sim(paths=32)
    a = brownian_increments(cfg)
    b = brownian_increments(small_sim(paths=32))     # an equal config
    assert np.array_equal(a, b)
    assert not a.flags.writeable and not b.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0, 0] = 1.0
    direct = sde._block_normals(cfg.seed, 0, cfg.paths, cfg.steps, 1) * np.sqrt(cfg.dt)
    assert np.array_equal(a, direct)


@pytest.mark.parametrize("seed, lo, hi, d", [(11, 0, 5, 1), (2 ** 40 + 3, 3, 9, 2)])
def test_block_normals_are_the_per_path_generators_draws(seed, lo, hi, d):
    # one generator reset per path draws what a generator built for each
    # path draws (the stream rule), bit for bit
    steps = 6
    uni = np.stack([np.random.Generator(np.random.Philox(key=(seed, p))).random((steps, 2))
                    for p in range(lo, hi)])
    radial = np.sqrt(-2.0 * np.log1p(-uni[..., 0]))
    angle = 2.0 * np.pi * uni[..., 1]
    want = np.stack([radial * np.cos(angle), radial * np.sin(angle)][:d], axis=-1)
    assert np.array_equal(sde._block_normals(seed, lo, hi, steps, d), want)


def test_increments_redrawn_after_another_config():
    a = brownian_increments(small_sim(paths=32))
    other = brownian_increments(small_sim(paths=32, seed=12))
    assert not np.array_equal(a, other)
    again = brownian_increments(small_sim(paths=32))
    # one entry: the other seed's draw dropped the first, so this draw is fresh
    assert again is not a
    assert np.array_equal(again, a)


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
    x = np.array([[0.7], [1.4]])
    mu, sigma = coefficients(ctx, 3.0, 0.5, x, x)
    assert np.max(np.abs(mu)) == 0.0
    assert np.array_equal(sigma, np.tile(np.eye(1), (2, 1, 1)))


def test_coefficients_closed_form(grid64):
    # u = 0.4 sin x: mu = (lam+1) 0.4 sin(x), sigma = 1 + 0.4 cos(x) at X = x
    ctx = TransformContext(sine_time_field(grid64, 0.4, 4))
    x = np.array([[1.2]])
    y = phi(ctx, 0.0, x)
    mu, sigma = coefficients(ctx, 2.0, 0.0, y, x)
    assert abs(mu[0, 0] - 3.0 * 0.4 * np.sin(x[0, 0])) < 1e-10
    assert abs(sigma[0, 0, 0] - (1.0 + 0.4 * np.cos(x[0, 0]))) < 1e-10
    with pytest.raises(ValueError, match="batch"):
        coefficients(ctx, 2.0, 0.0, y[0], x[0])


def test_coefficients_ellipticity_floor(grid64):
    # the certificate reads grad u at the grid nodes only: u = a sin(31 x + pi/64)
    # scaled to read 1/2 there has |u'| = 0.5/cos(pi/64) between them, so at
    # x = (pi - pi/64)/31 sigma = 1 + u' = 0.4994 is below the floor 1/2
    node = SpectralField.from_grid(grid64, np.sin(31 * grid64.axis_points() + np.pi / 64)[None])
    u = TimeField.from_nodes([node] * 3, 1.0)
    ctx = TransformContext(u * (0.5 / gradient_sup(u)))
    assert ctx.gradient_bound <= 0.5 + 1e-12
    x = np.array([[(np.pi - np.pi / 64) / 31]])
    assert 1.0 + transform_jacobian(ctx, 0.0, x)[0, 0, 0] == pytest.approx(0.4994, abs=1e-4)
    with pytest.raises(EllipticityError):
        coefficients(ctx, 1.0, 0.0, x, x)


def test_coefficients_refuse_nan_points(grid64):
    # a blown-up Y puts NaN into sigma; the floor test must not pass it
    ctx = TransformContext(sine_time_field(grid64, 0.4, 4))
    x = np.array([[1.0], [np.nan]])
    with pytest.raises(EllipticityError):
        coefficients(ctx, 1.0, 0.0, x, x)


@pytest.mark.parametrize("case", ["1d", "2d"])
def test_identity_drift_matches_the_evaluated_drift(grid64, case):
    # mu = (lam+1)(y - X) stands for (lam+1) u(t, X) at X = psi(t, y): psi
    # stops within tol of its fixed point, so the two differ by at most
    # (lam+1) q tol
    tol, lam = 1e-9, 3.0
    if case == "1d":
        ctx = TransformContext(random_time_field(grid64, 4, 0.1, seed=4), inverse_tol=tol)
    else:
        ctx = TransformContext(ctx_2d().u, inverse_tol=tol)
    d = ctx.u.grid.dimension
    y = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, size=(500, d))
    worst = 0.0
    for t in (0.0, 0.3, 0.5, 1.0):
        x = psi(ctx, t, y)
        mu, _ = coefficients(ctx, lam, t, y, x)
        evaluated = (lam + 1.0) * evaluate(ctx.u.at_time(t), x)
        worst = max(worst, float(np.max(np.linalg.norm(mu - evaluated, axis=1))))
    assert 0.0 < worst <= (lam + 1.0) * ctx.gradient_bound * tol


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


def test_simulate_classical_validates_geometry(grid64):
    # a horizon-2 config on a horizon-1 drift would hold the last drift node
    # past T; simulate_classical refuses it as simulate_y does
    b = sine_time_field(grid64, 0.5, 8)
    with pytest.raises(ValueError, match="dimension"):
        simulate_classical(b, small_sim(x0=(0.0, 0.0)))
    with pytest.raises(ValueError, match="horizon"):
        simulate_classical(b, small_sim(horizon=2.0))


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


@pytest.mark.parametrize("changes, steps, fields", [(0, 8, 1), (2, 8, 3), (2, 7, 3)],
                         ids=["static", "piecewise", "piecewise-off-node"])
def test_simulate_classical_takes_the_node_at_or_before_each_step(
        grid64, monkeypatch, changes, steps, fields):
    # a drift on 4 nodes, at a step count that is a multiple of the nodes and
    # at one that is not: step m reads node floor(t_m / T * M), and one field
    # is built per distinct node, so a static drift finds its band once
    spec = DriftSpec(family="random-fourier", seed=3, beta=0.25, eta=0.3, amplitude=0.25,
                     changes=changes)
    b = generate(spec, grid64, 1.0, 4)
    cfg = small_sim(steps=steps, paths=16)
    dw = brownian_increments(cfg)
    ref = np.empty((16, steps + 1, 1))
    ref[:, 0] = 0.3
    for m in range(steps):
        node = int(np.floor(m * cfg.dt / b.horizon * b.nodes))
        drift = evaluate(SpectralField(grid64, b.coeffs[node]), ref[:, m])
        ref[:, m + 1] = ref[:, m] + drift * cfg.dt + dw[:, m]
    built = []
    monkeypatch.setattr(sde, "SpectralField", lambda *a: built.append(a) or SpectralField(*a))
    assert np.array_equal(np.asarray(simulate_classical(b, cfg).states), ref)
    assert len(built) == fields


def test_virtual_x_follows_a_drift_that_switches_on(grid64):
    # b = 1.5 cos x from T/2 on and 0 before, so the classical X is x0 + W on
    # [0, T/2].  The virtual X must meet it there on shared noise, up to the
    # O(dt) of a switch the march sees one step early; a march that read the
    # drift in reversed time stayed about 0.63 away at every step count
    coeffs = np.zeros((1, 64), dtype=complex)
    coeffs[0, 1] = coeffs[0, -1] = 0.75
    on, off = SpectralField(grid64, coeffs), SpectralField(grid64, 0.0 * coeffs)
    gaps = []
    for steps in (32, 64):
        b = TimeField.from_nodes([off] * (steps // 2) + [on] * (steps // 2 + 1), 1.0)
        v, _ = solve_fwd(b, 2.0)
        ctx = TransformContext(v.reversed_time())
        cfg = SimConfig(x0=(0.0,), horizon=1.0, steps=steps, paths=4000, seed=3, lam=2.0)
        x = virtual_x(ctx, simulate_y(ctx, cfg)).at_time(0.5)
        gaps.append(float(np.mean(np.abs(x - simulate_classical(b, cfg).at_time(0.5)))))
    assert gaps[1] < 0.05
    assert 0.35 <= gaps[1] / gaps[0] <= 0.65


def test_simulation_reproducible_across_runs(grid64):
    cases = [(TransformContext(sine_time_field(grid64, 0.3, 8)), {}),
             (ctx_2d(), dict(x0=(0.3, -0.2), steps=8))]
    for ctx, over in cases:
        cfg = small_sim(paths=48, **over)
        a = simulate_y(ctx, cfg)
        b = simulate_y(ctx, cfg)
        assert np.array_equal(np.asarray(a.states), np.asarray(b.states))
        # a 3000-path batch leaves the first 48 paths unchanged
        wide = simulate_y(ctx, small_sim(paths=3000, **over))
        assert np.array_equal(np.asarray(wide.states)[:48], np.asarray(a.states))


def test_virtual_x_inverts_transform(grid64):
    ctx = TransformContext(sine_time_field(grid64, 0.3, 8))
    cfg = small_sim(paths=24)
    ys = simulate_y(ctx, cfg)
    xs = virtual_x(ctx, ys)
    # phi(x) recovers y at every node within the inversion tolerance
    from singular_drift.zvonkin import phi
    for m, t in enumerate(cfg.times):
        back = phi(ctx, t, xs.states[:, m])
        assert np.max(np.abs(back - ys.states[:, m])) < 1e-9


def test_psi_solved_once_per_node(grid64, monkeypatch):
    ctx = TransformContext(sine_time_field(grid64, 0.3, 8))
    calls = []

    def counted(*args):
        calls.append(args)
        return psi(*args)

    monkeypatch.setattr(sde, "psi", counted)
    cfg = small_sim(paths=3000, steps=4)       # one batch of every path per node
    ys = simulate_y(ctx, cfg)
    assert len(calls) == cfg.steps      # none at node 0, where X_0 = x0
    virtual_x(ctx, ys)
    assert len(calls) == cfg.steps


@pytest.mark.parametrize("case", ["1d", "2d"])
def test_virtual_x_is_the_x_the_steps_used(grid64, case):
    if case == "1d":
        ctx, cfg = TransformContext(sine_time_field(grid64, 0.3, 8)), small_sim(paths=3000)
    else:
        ctx, cfg = ctx_2d(), small_sim(x0=(0.3, -0.2), steps=8, paths=200)
    ys = simulate_y(ctx, cfg)
    y, x = np.asarray(ys.states), np.asarray(virtual_x(ctx, ys).states)
    dw = brownian_increments(cfg)
    # node 0 starts from x0, so psi(0, Y_0) meets it only within psi's bound
    x0 = np.tile(cfg.x0, (cfg.paths, 1))
    assert np.array_equal(x[:, 0], x0)
    assert np.array_equal(y[:, 0], phi(ctx, 0.0, x0))
    q = ctx.gradient_bound
    assert np.max(np.abs(psi(ctx, 0.0, y[:, 0]) - x0)) <= q / (1.0 - q) * ctx.inverse_tol
    for m, t in enumerate(cfg.times):
        if m > 0:
            assert np.max(np.abs(x[:, m] - psi(ctx, t, y[:, m]))) <= 1e-14
        if m == cfg.steps:
            break
        mu, sigma = coefficients(ctx, cfg.lam, t, y[:, m], x[:, m])
        rebuilt = y[:, m] + mu * cfg.dt + np.einsum("pij,pj->pi", sigma, dw[:, m])
        assert np.array_equal(rebuilt, y[:, m + 1])


def test_virtual_x_needs_a_virtual_solution(tmp_path, grid64):
    ctx = zero_ctx(grid64, steps=4)
    cfg = small_sim(paths=8)
    b = TimeField.zero(grid64, 1.0, 4)
    with pytest.raises(ValueError, match="no virtual solution"):
        virtual_x(ctx, simulate_classical(b, cfg))
    loaded = load_ensemble(save_ensemble(simulate_y(ctx, cfg), tmp_path / "e.bin"))
    assert loaded.virtual is None
    with pytest.raises(ValueError, match="no virtual solution"):
        virtual_x(ctx, loaded)


def test_path_ensemble_accessors(grid64):
    ctx = zero_ctx(grid64, steps=4)
    cfg = small_sim(paths=8)
    ens = simulate_y(ctx, cfg)
    assert np.array_equal(ens.terminal(), ens.states[:, -1, :])
    assert np.array_equal(ens.at_time(0.5), ens.states[:, 8, :])
    # like TimeField.at_time: the ends are reached within roundoff, and a time
    # past them is refused rather than clamped to an end node
    h = cfg.horizon
    assert np.array_equal(ens.at_time(h * (1 + 1e-13)), ens.terminal())
    assert np.array_equal(ens.at_time(-1e-13), ens.states[:, 0, :])
    for t in (-0.01, h + 0.01, np.nan):
        with pytest.raises(ValueError, match="outside"):
            ens.at_time(t)
    with pytest.raises(ValueError):
        PathEnsemble(states=np.zeros((8, 3, 1)), config=cfg, label="bad",
                     provenance={})
    assert ens.virtual.shape == ens.states.shape and not ens.virtual.flags.writeable
    with pytest.raises(ValueError, match="virtual shape"):
        PathEnsemble(states=ens.states, config=cfg, label="bad", provenance={},
                     virtual=np.zeros((8, 3, 1)))


# --- snapshot format ------------------------------------------------------------------------


def test_ensemble_roundtrip(tmp_path, grid64):
    ctx = zero_ctx(grid64, steps=4)
    cfg = small_sim(paths=8)
    ens = simulate_y(ctx, cfg)
    p = save_ensemble(ens, tmp_path / "e.bin")
    assert (tmp_path / "e.bin.json").exists()
    back = load_ensemble(p)
    assert np.array_equal(np.asarray(back.states), np.asarray(ens.states))
    assert back.config == cfg
    assert back.label == "transformed"
    assert back.provenance["y0"] == ens.provenance["y0"]


def test_load_ensemble_rejects_garbage(tmp_path, grid64):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="junk.bin: its sidecar junk.bin.json is missing"):
        load_ensemble(bad)
    p = save_ensemble(simulate_y(zero_ctx(grid64, steps=4), small_sim(paths=8)),
                      tmp_path / "e.bin")
    p.write_bytes(p.read_bytes()[:-8])     # one state short of the sidecar's shape
    with pytest.raises(ValueError, match=r"e.bin: .* do not hold shape \(8, 17, 1\)"):
        load_ensemble(p)
