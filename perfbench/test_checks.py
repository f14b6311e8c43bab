"""Each benchmark check passes on real output and rejects a corrupted copy.

    PYTHONPATH=src python3 -m pytest perfbench -q

Outputs come from the package at a small scale (N=64, M=32 in 1-D; N=16,
M=8 in 2-D) so the file runs in seconds.
"""

from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def sd():
    return workloads.import_package(ROOT)


def _run(sd, cfg):
    bundle = sd.lab.prepare_transform(cfg)
    sim = sd.sde.SimConfig(x0=cfg.x0, horizon=cfg.horizon, steps=cfg.steps,
                           paths=cfg.paths, seed=cfg.seed, lam=bundle["lam"])
    y = sd.sde.simulate_y(bundle["ctx"], sim)
    x = sd.sde.virtual_x(bundle["ctx"], y)
    return bundle, np.array(y.states), np.array(x.states)


@pytest.fixture(scope="module")
def run_1d(sd):
    cfg = sd.lab.ExperimentConfig(
        name="t", drift=sd.drifts.DriftSpec(**workloads.ROUGH_1D), modes=64,
        pde_nodes=32, steps=32, paths=64, seed=5)
    return cfg, *_run(sd, cfg)


@pytest.fixture(scope="module")
def run_2d(sd):
    cfg = sd.lab.ExperimentConfig(
        name="t", drift=sd.drifts.DriftSpec(**workloads.ROUGH_2D), dimension=2,
        x0=(0.0, 0.0), modes=16, pde_nodes=8, steps=8, q=5.0, paths=32, seed=5)
    return cfg, *_run(sd, cfg)


def _ok(found, name):
    (c,) = [c for c in found if c["name"] == name]
    return c["ok"]


def _paths(sd, cfg, bundle, y, x, u=None, seed=None, rule=None):
    return checks.path_checks(
        bundle["u"].coeffs if u is None else u, cfg.period, bundle["lam"], y, x,
        cfg.seed if seed is None else seed, cfg.horizon,
        sd.sde.STREAM_RULE if rule is None else rule)


def test_own_fourier_sum_matches_grid_values(sd):
    grid = sd.spectral.GridSpec(2, 16)
    rng = np.random.default_rng(0)
    f = sd.spectral.SpectralField.from_grid(grid, rng.standard_normal((2, 16, 16)))
    vals = f.values().reshape(2, -1).T
    own = checks.fourier_sum(f.coeffs, grid.grid_points(), grid.period)
    assert np.allclose(own, vals, atol=1e-12)


def test_certificate_rejects_u_scaled_past_one_half(run_1d, run_2d):
    for cfg, bundle, _y, _x in (run_1d, run_2d):
        u = bundle["u"].coeffs
        assert _ok(checks.certificate_checks(u, cfg.period), "certificate.grid_nodes")
        scaled = (0.6 / bundle["ctx"].gradient_bound) * u
        bad = checks.certificate_checks(scaled, cfg.period)
        assert not _ok(bad, "certificate.grid_nodes")
        if cfg.dimension == 1:
            assert not _ok(bad, "certificate.off_grid_x4")


def test_grid_certificate_agrees_with_package(run_1d, run_2d):
    for cfg, bundle, _y, _x in (run_1d, run_2d):
        own = checks.jacobian_sup(bundle["u"].coeffs, cfg.period, 1)
        assert abs(own - bundle["ctx"].gradient_bound) < 1e-12


def test_calibration_checks_reject_a_bad_trace(run_1d):
    _cfg, bundle, _y, _x = run_1d
    lam, trace = bundle["lam"], bundle["trace"]
    assert len(trace) >= 2 and checks.all_ok(checks.calibration_checks(lam, trace))
    early_ok = [(trace[0][0], 0.4)] + list(trace[1:])
    assert not checks.all_ok(checks.calibration_checks(lam, early_ok))
    last_high = list(trace[:-1]) + [(trace[-1][0], 0.51)]
    assert not checks.all_ok(checks.calibration_checks(lam, last_high))
    assert not checks.all_ok(checks.calibration_checks(2 * lam, trace))


def test_residual_check_rejects_a_perturbed_solution(sd, run_1d):
    _cfg, bundle, _y, _x = run_1d
    v = bundle["u"].reversed_time()
    args = (bundle["b"], bundle["lam"], bundle["pde"], 0.0)
    tol = bundle["pde"].tol
    assert checks.residual_check(sd.kolmogorov.mild_residual(v, *args), tol)["ok"]
    coeffs = np.array(v.coeffs)
    coeffs[5, 0, 3] += 1e-6
    coeffs[5, 0, -3] += 1e-6
    bad = sd.spectral.TimeField(v.grid, v.horizon, coeffs)
    assert not checks.residual_check(sd.kolmogorov.mild_residual(bad, *args), tol)["ok"]


def test_round_trip_rejects_an_inexact_inverse(sd, run_1d, monkeypatch):
    _cfg, bundle, _y, _x = run_1d
    ctx = bundle["ctx"]
    assert checks.round_trip_check(workloads.round_trip(sd, ctx, 3))["ok"]
    exact = sd.zvonkin.psi
    monkeypatch.setattr(sd.zvonkin, "psi", lambda c, t, y: exact(c, t, y) + 1e-9)
    assert not checks.round_trip_check(workloads.round_trip(sd, ctx, 3))["ok"]


def test_path_checks_reject_corrupted_ensembles(sd, run_1d, run_2d):
    for cfg, bundle, y, x in (run_1d, run_2d):
        assert checks.all_ok(_paths(sd, cfg, bundle, y, x))

        y_bad = y.copy()
        y_bad[7, 3, 0] += 1e-6              # one perturbed state of Y
        found = _paths(sd, cfg, bundle, y_bad, x)
        assert not _ok(found, "paths.phi_x_equals_y")
        assert not _ok(found, "paths.euler_step")

        x_bad = x.copy()
        x_bad[2, 4, 0] += 1e-6              # one perturbed state of X
        assert not _ok(_paths(sd, cfg, bundle, y, x_bad), "paths.phi_x_equals_y")

        wrong_seed = _paths(sd, cfg, bundle, y, x, seed=cfg.seed + 1)
        assert not _ok(wrong_seed, "paths.euler_step")

        u_big = bundle["u"].coeffs * (1.2 / bundle["ctx"].gradient_bound)
        assert not _ok(_paths(sd, cfg, bundle, y, x, u=u_big), "paths.sigma_min")

    changed = _paths(sd, cfg, bundle, y, x, rule=sd.sde.STREAM_RULE + " (v2)")
    assert not _ok(changed, "paths.stream_rule_documented")


def test_own_noise_matches_the_package(sd, run_1d):
    cfg, bundle, _y, _x = run_1d
    sim = sd.sde.SimConfig(x0=cfg.x0, horizon=cfg.horizon, steps=cfg.steps,
                           paths=cfg.paths, seed=cfg.seed, lam=bundle["lam"])
    own = checks.brownian_increments(cfg.seed, cfg.paths, cfg.steps, 1, cfg.horizon)
    assert np.allclose(own, sd.sde.brownian_increments(sim), rtol=0, atol=1e-12)


def test_kendall_exact_p_value():
    tau, p = checks.kendall_decreasing([2, 4, 8, 16, 32], [5.0, 4.0, 3.0, 2.0, 1.0])
    assert tau == -1.0 and p == pytest.approx(1 / 120)
    tau, p = checks.kendall_decreasing([2, 4, 8, 16, 32], [1.0, 2.0, 3.0, 4.0, 5.0])
    assert tau == 1.0 and p == 1.0


def _mollify_case():
    rng = np.random.default_rng(1)
    virtual = rng.standard_normal(512)
    shifts = [0.4, 0.2, 0.1, 0.05, 0.01]
    classical = [virtual + s for s in shifts]
    floor_pair = (virtual + 0.01, virtual + 0.03)     # floor W1 = 0.02
    rows = [{"w1_t1": checks.wasserstein1(c, virtual)} for c in classical]
    return rows, classical, virtual, floor_pair


def test_mollify_checks_reject_corrupted_studies():
    rows, classical, virtual, floor_pair = _mollify_case()
    n_list = (2, 4, 8, 16, 32)
    floor = checks.wasserstein1(*floor_pair)
    assert checks.all_ok(checks.mollify_checks(rows, floor, n_list, classical, virtual,
                                               floor_pair))

    reversed_ladder = checks.mollify_checks(rows[::-1], floor, n_list, classical[::-1],
                                            virtual, floor_pair)
    assert not _ok(reversed_ladder, "mollify.kendall_decreasing_5pct")

    bad_rows = [dict(r) for r in rows]
    bad_rows[2]["w1_t1"] *= 1.01
    mismatch = checks.mollify_checks(bad_rows, floor, n_list, classical, virtual, floor_pair)
    assert not _ok(mismatch, "mollify.w1_rows_recomputed")

    tight = (virtual, virtual + 0.001)
    far = checks.mollify_checks(rows, checks.wasserstein1(*tight), n_list, classical,
                                virtual, tight)
    assert not _ok(far, "mollify.finest_within_3_floors")
    assert not _ok(checks.mollify_checks(rows, 2 * floor, n_list, classical, virtual,
                                         floor_pair), "mollify.floor_recomputed")


def test_tracer_records_nested_calls_and_restores(sd, run_1d):
    cfg = run_1d[0]
    original = sd.kolmogorov.solve_fwd
    tracer = Tracer()
    tracer.install()
    try:
        assert sd.lab.solve_fwd is not original
        with tracer.span("bench.round"):
            sd.lab.prepare_transform(cfg)
    finally:
        tracer.uninstall()
    assert sd.kolmogorov.solve_fwd is original and sd.lab.solve_fwd is original
    s = tracer.summary()
    assert s["calls"]["kolmogorov.solve_fwd"] == s["solves_in_calibration"] + 1
    assert s["stages_in_product"] >= 2 * s["calls"]["paraproduct.product"]
    total = s["seconds"]["bench.round"]
    assert sum(s["self_seconds"].values()) == pytest.approx(total, rel=1e-9)
