"""Symmetries of the continuous problem as checks that need no reference
solution (metamorphic relations).

A reflection, a shift by whole cells or, in 2-D, a swap of the axes maps a
drift and its solution u alike; a drift that agrees on [T, 2T] with another
on [0, T] has the same u there; and a path run over [0, 2T] on the same
drift and noise repeats the [0, T] run.  Time and path restriction hold bit
for bit.  Reflection, the cell shift and the axis swap hold to about 1e-16
relative (the FFTs round mirrored or permuted arrays differently), so they
are checked to 1e-14.  Small sizes keep the module under a second: 1-D on
N = 64 with 16 nodes, 2-D on N = 16 with 8.
"""

import numpy as np
import pytest

from singular_drift.drifts import DriftSpec, generate
from singular_drift.kolmogorov import calibrate_lambda, solve_fwd
from singular_drift.sde import SimConfig, simulate_classical
from singular_drift.spectral import GridSpec, SpectralField, TimeField, evaluate
from singular_drift.zvonkin import TransformContext, psi

REL_TOL = 1e-14
LAM = 4.0


def rough_drift(d: int, **over) -> TimeField:
    spec = dict(family="random-fourier", seed=42, beta=0.25, eta=0.3,
                amplitude=0.25 if d == 1 else 0.05)
    spec.update(over)
    return generate(DriftSpec(**spec), GridSpec(d, 64 if d == 1 else 16), 1.0,
                    16 if d == 1 else 8)


def solve(b: TimeField, lam: float = LAM) -> TimeField:
    return solve_fwd(b, lam)[0].reversed_time()


def defect(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.sum(np.abs(got - want)) / np.sum(np.abs(want)))


def reflected(tf: TimeField) -> TimeField:
    """f(x) -> -f(-x): the coefficient of kappa moves to -kappa, negated."""
    neg = -np.arange(tf.grid.modes_per_axis) % tf.grid.modes_per_axis
    c = tf.coeffs[..., neg] if tf.grid.dimension == 1 else tf.coeffs[..., neg[:, None], neg]
    return TimeField(tf.grid, tf.horizon, -c)


def cell_shifted(tf: TimeField) -> TimeField:
    """f(x) -> f(x - h) along every axis, h = 2 pi/N one cell: a phase per mode
    that keeps the N/2 planes real."""
    h = tf.grid.spacing
    return TimeField(tf.grid, tf.horizon, tf.coeffs * np.exp(-1j * h * sum(tf.grid.kappa_mesh())))


def axes_swapped(tf: TimeField) -> TimeField:
    """(f0, f1)(x, y) -> (f1, f0)(y, x)."""
    return TimeField(tf.grid, tf.horizon, np.swapaxes(tf.coeffs[:, ::-1], -1, -2))


def sampled_shift(tf: TimeField, a: float) -> TimeField:
    """f(x) -> f(x - a) along every axis, by collocating f read at the grid
    nodes less a."""
    pts = tf.grid.grid_points() - a
    shape = (tf.components,) + tf.grid.spatial_shape
    return TimeField.from_nodes([SpectralField.from_grid(tf.grid, evaluate(tf.node(m), pts).T
                                                         .reshape(shape))
                                 for m in range(tf.nodes + 1)], tf.horizon)


RELATIONS = [
    pytest.param(1, reflected, id="reflection-1d"),
    pytest.param(2, reflected, id="reflection-2d"),
    pytest.param(1, cell_shifted, id="cell-shift-1d"),
    pytest.param(2, cell_shifted, id="cell-shift-2d"),
    pytest.param(2, axes_swapped, id="axis-swap-2d"),
]


@pytest.mark.parametrize("d, relation", RELATIONS)
def test_solution_follows_the_drift(d, relation):
    b = rough_drift(d)
    assert defect(solve(relation(b)).coeffs, relation(solve(b)).coeffs) <= REL_TOL


@pytest.mark.parametrize("d, relation", RELATIONS)
def test_calibration_does_not_see_the_symmetry(d, relation):
    # the certificate is a sup over the grid nodes, which each relation maps
    # onto themselves, so lambda is the same and the trace moves by rounding
    b = rough_drift(d)
    lam, trace = calibrate_lambda(b)
    lam_r, trace_r = calibrate_lambda(relation(b))
    assert lam_r == lam and len(trace_r) == len(trace)
    assert defect(np.array(trace_r), np.array(trace)) <= REL_TOL


@pytest.mark.parametrize("d", [1, 2])
def test_psi_of_the_reflected_transform(d):
    # phi_r(x) = x - u(-x) = -phi(-x), so psi_r(-y) = -psi(y); each stops
    # within q/(1-q) tol of its root, so together within tol/(1-q) for q <= 1/2
    b = rough_drift(d)
    lam, _ = calibrate_lambda(b)
    ctx, ctx_r = TransformContext(solve(b, lam)), TransformContext(solve(reflected(b), lam))
    q = max(ctx.gradient_bound, ctx_r.gradient_bound)
    y = np.random.default_rng(31).uniform(-1.0, 7.0, size=(200, d))
    for t in (0.0, 0.37, 0.5):
        gap = np.max(np.abs(psi(ctx_r, t, -y) + psi(ctx, t, y)))
        assert gap <= ctx.inverse_tol / (1.0 - q)


def test_time_restriction():
    # b_2T is another drift on [0, T) and b_T on [T, 2T], at the same dt: the
    # backward solution on [T, 2T] is u_T, bit for bit
    b = rough_drift(1, changes=2)
    other = rough_drift(1, seed=9)
    b_2t = TimeField(b.grid, 2.0 * b.horizon, np.concatenate([other.coeffs[:-1], b.coeffs]))
    assert np.array_equal(solve(b_2t).coeffs[b.nodes:], solve(b).coeffs)


def test_path_restriction():
    # step m draws from positions (2m, 2m+1) of each path's stream, so the
    # run over [0, 2T] in 2M steps repeats the [0, T] run in M steps on its
    # first M, when the drift agrees on [0, T]
    spec = DriftSpec(family="smooth-test", seed=1, beta=0.25, amplitude=0.2, changes=2)
    grid = GridSpec(1, 64)
    b = generate(spec, grid, 1.0, 16)
    b_2t = TimeField(grid, 2.0, np.concatenate([b.coeffs, b.coeffs[:0:-1]]))
    cfg = SimConfig(x0=(0.3,), horizon=1.0, steps=16, paths=300, seed=7, lam=0.0)
    cfg_2t = SimConfig(x0=(0.3,), horizon=2.0, steps=32, paths=300, seed=7, lam=0.0)
    short, long = simulate_classical(b, cfg).states, simulate_classical(b_2t, cfg_2t).states
    assert np.array_equal(long[:, :cfg.steps + 1], short)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 22: the N/2 planes break translation "
                                       "equivariance below one cell")
def test_sub_cell_shift():
    worst = 0.0
    for d in (1, 2):
        b = rough_drift(d)
        for a in (0.123, b.grid.spacing / 2.0):
            worst = max(worst, defect(solve(sampled_shift(b, a)).coeffs,
                                      sampled_shift(solve(b), a).coeffs))
    assert worst <= REL_TOL
