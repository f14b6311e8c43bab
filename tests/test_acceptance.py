"""Acceptance suite at desk scale: d=1, N=256, M=128, T=1, 10^4 paths.

Each criterion prints one [PASS]/[FAIL] line (visible under pytest -s) and
asserts the same condition.  Expensive pipeline stages are module fixtures so
the suite runs end to end in a few minutes.
"""

import numpy as np
import pytest

from singular_drift.spectral import (
    GridSpec,
    SobolevIndex,
    SpectralField,
    TimeField,
    heat_semigroup,
    refine,
    sobolev_norm,
)
from singular_drift.paraproduct import product
from singular_drift.drifts import (
    DriftSpec,
    KappaRegion,
    generate,
    mollified_sequence,
    pick_kappa,
    _power_profile,
    _unit_phases,
)
from singular_drift.kolmogorov import (
    PdeConfig,
    calibrate_lambda,
    gradient_sup,
    mild_residual,
    solve_fwd,
)
from singular_drift.zvonkin import make_context, phi, psi
from singular_drift.theory import (
    gamma_bound_check,
    lipschitz_probe,
    picard_sweeps,
    product_bound_ratio,
)
from singular_drift.sde import SimConfig, brownian_increments, simulate_y, virtual_x
from singular_drift.lab import (
    ExperimentConfig,
    study_lambda,
    study_mollify,
    study_smooth_consistency,
)

# --- desk-scale constants ----------------------------------------------------------

DIM, N, M, T, PATHS = 1, 256, 128, 1.0, 10_000
BETA, Q = 0.25, 3.0
ROUGH_SPEC = DriftSpec(family="random-fourier", seed=42, beta=BETA, eta=0.3,
                       amplitude=0.25)
SMOOTH_SPEC = DriftSpec(family="smooth-test", seed=1, beta=BETA, amplitude=0.2)


def verdict(num, summary, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {summary} ({detail})"
    print(line)
    assert ok, line


# --- shared pipeline fixtures --------------------------------------------------------


@pytest.fixture(scope="module")
def grid():
    return GridSpec(DIM, N)


@pytest.fixture(scope="module")
def pde():
    delta, p = pick_kappa(KappaRegion(BETA, Q, DIM))
    return PdeConfig(beta=BETA, delta=delta, p=p)


@pytest.fixture(scope="module")
def rough_drift(grid):
    return generate(ROUGH_SPEC, grid, T, M)


@pytest.fixture(scope="module")
def calibration(rough_drift):
    return calibrate_lambda(rough_drift)


@pytest.fixture(scope="module")
def solution(rough_drift, calibration):
    lam, _ = calibration
    v, report = solve_fwd(rough_drift, lam)
    return lam, v, report


@pytest.fixture(scope="module")
def transform(solution):
    _, v, _ = solution
    return make_context(v.reversed_time())


def _random_rough(grid, eta, seed, band=None):
    rng = np.random.Generator(np.random.Philox(key=seed))
    coeffs = _power_profile(grid, eta) * _unit_phases(rng, grid.spatial_shape)
    if band is not None:
        coeffs = coeffs * (np.sqrt(grid.kappa_sq()) <= band)
    return SpectralField(grid, coeffs[None])


# --- criteria --------------------------------------------------------------------------


def test_criterion_01_multiplier_calculus(grid):
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((1,) + grid.spatial_shape)
    f = SpectralField.from_grid(grid, vals)
    parseval = abs(np.sqrt(grid.spacing * np.sum(f.values() ** 2))
                   - sobolev_norm(f, SobolevIndex(0.0, 2.0)))
    inverse = float(np.max(np.abs(
        SpectralField.from_grid(grid, f.values()).coeffs - f.coeffs)))
    sg = heat_semigroup(heat_semigroup(f, 0.3), 0.4)
    semigroup = float(np.max(np.abs(sg.coeffs - heat_semigroup(f, 0.7).coeffs)))

    # P(t) as e^{-t} times convolution with the wrapped Gaussian kernel
    t = 0.25
    x = grid.axis_points()
    kern = np.zeros(N)
    for shift in range(-40, 41):
        kern += np.exp(-((x - np.pi) + 2 * np.pi * shift) ** 2 / (2 * t))
    kern = np.roll(kern, -N // 2) / np.sqrt(2 * np.pi * t)
    conv = np.exp(-t) * grid.spacing * np.real(
        np.fft.ifft(np.fft.fft(kern) * np.fft.fft(f.values()[0])))
    kernel = float(np.max(np.abs(conv - heat_semigroup(f, t).values()[0])))

    ok = parseval < 1e-10 and inverse < 1e-10 and semigroup < 1e-10 and kernel < 1e-8
    verdict(1, "multiplier calculus", ok,
            f"parseval {parseval:.1e}, inverse {inverse:.1e}, "
            f"semigroup {semigroup:.1e}, kernel conv {kernel:.1e}")


def test_criterion_02_smoothing_rate(rough_drift, pde):
    idx = SobolevIndex(1.0 + pde.delta, 2.0)
    w = rough_drift.node(0)
    ts = np.geomspace(1e-3, 1e-1, 9)
    norms = [sobolev_norm(heat_semigroup(w, t), idx) for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(norms), 1)[0])
    target = -(1.0 + pde.delta + BETA) / 2.0
    ok = abs(slope - target) <= 0.1
    verdict(2, "heat-semigroup smoothing rate", ok,
            f"slope {slope:.4f} vs {target:.4f} +- 0.1")


def test_criterion_03_product_oracle(grid, pde):
    # band-limited pair: the regularized product must equal the exact
    # coefficient convolution
    f = _random_rough(grid, 0.3, 31, band=16)
    g = _random_rough(grid, 1.2, 32, band=16)
    got = product(f, g, 1e-10, pde.product_index)
    a = np.fft.fftshift(f.coeffs[0])
    b = np.fft.fftshift(g.coeffs[0])
    brute = np.fft.ifftshift(np.convolve(a, b)[N // 2 : 3 * N // 2])
    conv_err = float(np.max(np.abs(got.coeffs[0] - brute)))

    # the observable product constant stays finite and moves < 5% under N -> 2N
    drifts = []
    for seed in range(100):
        fr = _random_rough(grid, 2.0, 1000 + seed)
        gr = _random_rough(grid, 0.3, 2000 + seed)
        r = product_bound_ratio(fr, gr, BETA, pde.delta, pde.p, Q)
        r2 = product_bound_ratio(refine(fr), refine(gr), BETA, pde.delta, pde.p, Q)
        if not (np.isfinite(r) and np.isfinite(r2) and r > 0):
            drifts.append(np.inf)
            continue
        drifts.append(abs(r2 - r) / r)
    worst = float(np.max(drifts))
    ok = conv_err < 1e-10 and worst < 0.05
    verdict(3, "regularized product oracle", ok,
            f"convolution err {conv_err:.1e}, worst ratio drift {worst:.2%} "
            f"over 100 pairs")


def test_criterion_04_pde_oracle(grid):
    c, lam = 0.7, 2.0
    errs = {}
    for steps in (M, 2 * M):
        coeffs = np.zeros((1,) + grid.spatial_shape, dtype=complex)
        coeffs[0, 0] = c
        b = TimeField.from_nodes([SpectralField(grid, coeffs)] * (steps + 1), T)
        v, _ = solve_fwd(b, lam)
        times = np.linspace(0.0, T, steps + 1)
        exact = c * (1.0 - np.exp(-(1.0 + lam) * times)) / (1.0 + lam)
        errs[steps] = max(abs(float(np.real(v.node(m).coeffs[0, 0])) - exact[m])
                          for m in range(steps + 1))
    ratio = errs[2 * M] / errs[M]
    ok = errs[M] <= 3.0 / M and 0.4 <= ratio <= 0.6
    verdict(4, "constant-drift PDE oracle", ok,
            f"max node error {errs[M]:.2e} <= {3.0 / M:.2e}, "
            f"dt-halving ratio {ratio:.3f}")


def test_criterion_05_contraction(rough_drift, pde, solution):
    # the pipeline solves by one march; the Picard sweeps of the contraction
    # argument run here as a diagnostic of the same operator.  Both residuals
    # are unweighted: the auto-tuned weight exp(-rho t) underflows late nodes
    lam, v, _ = solution
    v_picard, report = picard_sweeps(rough_drift, lam, pde)
    ratios = report.ratios[2:]
    ratios_ok = len(ratios) > 0 and all(r < 1.0 for r in ratios)
    res_picard = mild_residual(v_picard, rough_drift, lam, pde, 0.0)
    res_march = mild_residual(v, rough_drift, lam, pde, 0.0)
    ok = ratios_ok and max(res_picard, res_march) <= 2.0 * pde.tol
    verdict(5, "Picard contraction", ok,
            f"{report.iterations} sweeps, ratios<1 from sweep 3: {ratios_ok}, "
            f"residuals picard {res_picard:.1e} march {res_march:.1e} "
            f"<= {2.0 * pde.tol:.1e}")


def test_criterion_06_gradient_bound(calibration):
    lam, trace = calibration
    final = trace[-1][1]
    tail = trace[-4:]                       # the last three doublings
    lams = np.log([t[0] for t in tail])
    grads = np.log([t[1] for t in tail])
    slope = float(np.polyfit(lams, grads, 1)[0])
    target = -0.125
    ok = final <= 0.5 and abs(slope - target) <= 0.2
    verdict(6, "gradient bound and lambda scaling", ok,
            f"lambda {lam:g}, gradient_sup {final:.4f} <= 0.5, "
            f"trace slope {slope:.4f} vs {target} +- 0.2")


def test_criterion_07_zvonkin_inverse(transform):
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.0, T, size=1000)
    xs = rng.uniform(0.0, 2 * np.pi, size=(1000, 1))
    worst = 0.0
    for t, x in zip(ts, xs):
        back = psi(transform, t, phi(transform, t, x[None]))
        worst = max(worst, float(np.abs(back - x).max()))
    lip = lipschitz_probe(transform, samples=1000, seed=0)
    ok = worst <= 2e-12 and lip <= 2.0 + 1e-6
    verdict(7, "Zvonkin inverse", ok,
            f"round-trip {worst:.1e} <= 2e-12, lipschitz probe {lip:.4f} <= 2")


def _sup_grid_gap(coarse, fine):
    """sup over the coarse nodes and the grid of |coarse(t_m) - fine(t_m)|,
    fine having twice as many time steps."""
    worst = 0.0
    for m in range(coarse.nodes + 1):
        dv = coarse.node(m) - fine.node(2 * m)
        worst = max(worst, float(np.sqrt(np.sum(dv.values() ** 2, axis=0)).max()))
    return worst


def test_criterion_08_time_self_convergence(grid, rough_drift, solution):
    # the rough drift is time-independent, so the M, 2M and 4M drifts carry
    # identical nodes and the gaps are pure time-discretization error; the
    # bounds are criterion 4's first-order ones
    lam, v, _ = solution
    b2, b4 = (generate(ROUGH_SPEC, grid, T, k * M) for k in (2, 4))
    assert all(np.array_equal(b4.node(m).coeffs, rough_drift.node(0).coeffs)
               for m in range(b4.nodes + 1))
    v2, _ = solve_fwd(b2, lam)
    v4, _ = solve_fwd(b4, lam)
    g1, g2 = _sup_grid_gap(v, v2), _sup_grid_gap(v2, v4)
    ratio = g2 / g1
    ok = g1 <= 3.0 / M and 0.4 <= ratio <= 0.6
    verdict(8, "time self-convergence on the rough drift", ok,
            f"sup-grid gap M vs 2M {g1:.2e} <= {3.0 / M:.2e}, "
            f"2M vs 4M {g2:.2e}, ratio {ratio:.3f} in [0.4, 0.6]")


def test_criterion_09_stability(rough_drift, pde, solution):
    lam, v, _ = solution
    u = v.reversed_time()
    idx = pde.solution_index
    n_list = (2, 4, 8, 16, 32)
    v_gaps, g_gaps = [], []
    for b_n in mollified_sequence(rough_drift, n_list):
        v_n, _ = solve_fwd(b_n, lam)
        v_gaps.append(max(sobolev_norm(v_n.node(m) - v.node(m), idx)
                          for m in range(v.nodes + 1)))
        g_gaps.append(gradient_sup(v_n.reversed_time() - u))
    v_dec = all(b < a for a, b in zip(v_gaps, v_gaps[1:]))
    g_dec = all(b < a for a, b in zip(g_gaps, g_gaps[1:]))
    ok = v_dec and g_dec
    verdict(9, "stability along mollification", ok,
            f"||v_n - v|| {['%.3f' % g for g in v_gaps]} strictly down: {v_dec}; "
            f"sup|grad u_n - grad u| strictly down: {g_dec}")


def test_criterion_10_trivial_sde(grid):
    zero = DriftSpec(family="smooth-test", seed=1, beta=BETA, amplitude=0.0)
    b0 = generate(zero, grid, T, M)
    v0, _ = solve_fwd(b0, 1.0)
    ctx = make_context(v0.reversed_time())
    x0 = 0.3
    sim = SimConfig(x0=(x0,), horizon=T, steps=M, paths=PATHS, seed=77, lam=1.0)
    ens = virtual_x(ctx, simulate_y(ctx, sim))
    states = np.asarray(ens.states)

    dw = brownian_increments(sim)
    ref = np.empty_like(states)
    ref[:, 0] = x0
    for m in range(M):
        ref[:, m + 1] = ref[:, m] + dw[:, m]
    exact = bool(np.array_equal(states, ref))

    term = ens.terminal()[:, 0]
    mean_dev = abs(term.mean() - x0) / np.sqrt(T / PATHS)
    var_dev = abs(term.var(ddof=1) - T) / (T * np.sqrt(2.0 / (PATHS - 1)))
    ok = exact and mean_dev <= 4.0 and var_dev <= 4.0
    verdict(10, "zero-drift SDE", ok,
            f"paths == x0 + W bit-exact: {exact}, mean dev {mean_dev:.2f} SE, "
            f"covariance dev {var_dev:.2f} SE")


def test_criterion_11_smooth_consistency():
    cfg = ExperimentConfig(name="acceptance-consistency", drift=SMOOTH_SPEC,
                           modes=N, pde_nodes=M, horizon=T, paths=PATHS,
                           steps=M, seed=1234, steps_list=(250, 500, 1000))
    rep = study_smooth_consistency(cfg)
    ratios = [row["dev_ratio"] for row in rep.levels[1:]]
    w1 = rep.levels[-1]["w1_terminal"]
    ok = all(0.5 <= r <= 0.9 for r in ratios) and w1 <= 3.0 * rep.floor
    verdict(11, "smooth-drift route consistency", ok,
            f"deviation ratios {['%.3f' % r for r in ratios]} in [0.5, 0.9], "
            f"terminal W1 {w1:.2e} <= 3 x floor {rep.floor:.2e}")


def test_criterion_12_mollified_convergence():
    specs = [ROUGH_SPEC,
             DriftSpec(family="derivative-of-continuous", seed=7, beta=BETA,
                       eta=0.3, amplitude=0.25),
             SMOOTH_SPEC]
    details = []
    ok = True
    for spec in specs:
        cfg = ExperimentConfig(name=f"acceptance-mollify-{spec.family}",
                               drift=spec, modes=N, pde_nodes=M, horizon=T,
                               paths=PATHS, steps=M, seed=1234)
        rep = study_mollify(cfg)
        ok = ok and rep.trend["decreasing_at_5pct"]
        details.append(f"{spec.family}: tau {rep.trend['tau']:+.2f} "
                       f"p {rep.trend['p_one_sided']:.4f}")
    verdict(12, "mollified convergence in law", ok, "; ".join(details))


def test_criterion_13_lambda_invariance(calibration):
    lam, _ = calibration
    cfg = ExperimentConfig(name="acceptance-lambda", drift=ROUGH_SPEC,
                           modes=N, pde_nodes=M, horizon=T, paths=PATHS,
                           steps=M, seed=1234, lam=lam,
                           lambda_list=(lam, 2.0 * lam))
    rep = study_lambda(cfg)
    row = rep.levels[0]
    w1 = row["w1_t1"]
    ok = w1 <= 3.0 * rep.floor
    verdict(13, "lambda invariance of the virtual law", ok,
            f"W1(lambda={row['lambda_a']:g}, lambda={row['lambda_b']:g}) = "
            f"{w1:.2e} <= 3 x floor {rep.floor:.2e}")


def test_criterion_14_gamma_bound():
    worst = 0.0
    ok = True
    for theta in (0.0, 0.25, 0.5, 0.75):
        for rho in (1.0, 2.0, 4.0, 8.0):
            out = gamma_bound_check(rho, theta)
            ok = ok and out["ok"]
            worst = max(worst, out["integral"] / out["bound"])
    verdict(14, "weighted kernel integral bound", ok,
            f"integral/bound <= {worst:.6f} over theta x rho grid")
