"""Mild solver against closed-form oracles, plus calibration and the certificate."""

import numpy as np
import pytest

from singular_drift import kolmogorov, spectral
from singular_drift.paraproduct import dealiased_multiply
from singular_drift.spectral import (
    GridSpec,
    SobolevIndex,
    SpectralField,
    TimeField,
    gradient,
)
from singular_drift.drifts import DriftSpec, generate
from singular_drift.kolmogorov import (
    CalibrationFailed,
    PdeConfig,
    _stack_width,
    calibrate_lambda,
    gradient_sup,
    integral_operator,
    solve_fwd,
    weighted_norm,
)

from conftest import random_field, random_time_field, record_solves, sine_time_field

CFG = PdeConfig(beta=0.25, delta=0.5, p=2.5)


def constant_drift(grid, c, steps, horizon=1.0):
    coeffs = np.zeros((1,) + grid.spatial_shape, dtype=complex)
    coeffs[(0,) + (0,) * grid.dimension] = c
    node = SpectralField(grid, coeffs)
    return TimeField.from_nodes([node] * (steps + 1), horizon)


# --- configuration -------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"beta": 0.6},
    {"delta": 0.2},                       # below beta
    {"delta": 0.8},                       # above 1 - beta
    {"p": 1.0},
    {"beta": 0.5},                        # upper end of (0, 1/2)
    {"beta": 0.0},
])
def test_pde_config_rejects_bad_values(kwargs):
    base = {"beta": 0.25, "delta": 0.5, "p": 2.5}
    base.update(kwargs)
    with pytest.raises(ValueError):
        PdeConfig(**base)


def test_pde_config_indices():
    assert CFG.solution_index == SobolevIndex(1.5, 2.5)
    assert CFG.product_index == SobolevIndex(-0.25, 2.5)


# --- the integrand b . grad v + b ------------------------------------------------------


def test_integrand_trig_oracle(grid64):
    # sin(x) * d/dx cos(2x) = -2 sin x sin 2x = cos 3x - cos x, plus b = sin x
    x = grid64.axis_points()
    b = SpectralField.from_grid(grid64, np.sin(x)[None])
    v = SpectralField.from_grid(grid64, np.cos(2 * x)[None])
    out = kolmogorov._integrand(grid64, b.coeffs, v.coeffs)
    want = SpectralField.from_grid(grid64, (np.cos(3 * x) - np.cos(x) + np.sin(x))[None])
    assert np.max(np.abs(out - want.coeffs)) < 1e-13


def test_integrand_2d_oracle(grid64_2d):
    # b = (sin y, 0) and v = (cos x, sin 2x): b . grad v = (-sin y sin x,
    # 2 sin y cos 2x), and b is added once, to the block of d components
    x = grid64_2d.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    b = SpectralField.from_grid(grid64_2d, np.stack([np.sin(yy), np.zeros_like(yy)]))
    v = SpectralField.from_grid(grid64_2d, np.stack([np.cos(xx), np.sin(2 * xx)]))
    out = kolmogorov._integrand(grid64_2d, b.coeffs, v.coeffs)
    want = SpectralField.from_grid(grid64_2d, np.stack([
        -np.sin(yy) * np.sin(xx) + np.sin(yy), 2.0 * np.sin(yy) * np.cos(2 * xx)]))
    assert np.max(np.abs(out - want.coeffs)) < 1e-13


@pytest.mark.parametrize("dim", [1, 2])
def test_integrand_is_the_lattice_product(dim):
    # each term b_j * d_j v_i is the dealiased product on the whole lattice:
    # rough factors fill the modes past |k| = 24 that a dyadic stage would
    # drop.  The integrand sums over j on the 2N-lattice samples and takes the
    # sum back once, so in 2-D it matches the sum of the per-term products,
    # (0 + t_i0) + t_i1, to rounding rather than bit for bit; in 1-D there is
    # one term and the two agree exactly.  Then b_(i mod d) is added
    grid = GridSpec(dim, 64)
    b = SpectralField(grid, np.concatenate([random_field(grid, 0.3, 30 + j).coeffs
                                            for j in range(dim)]))
    v = SpectralField(grid, np.concatenate([random_field(grid, 1.2, 40 + i).coeffs
                                            for i in range(2)]))
    grad = gradient(v)
    want = np.zeros_like(v.coeffs)
    for i in range(2):
        for j in range(dim):
            want[i] += dealiased_multiply(b.component(j),
                                          grad.component(i * dim + j)).coeffs[0]
        want[i] += b.coeffs[i % dim]
    got = kolmogorov._integrand(grid, b.coeffs, v.coeffs)
    if dim == 1:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_solver_refuses_a_drift_without_one_component_per_axis(grid64):
    # b . grad u pairs b_j with d_j u: a 1-D drift of two components has no
    # axis for its second, so both entry points refuse it by name
    b = TimeField(grid64, 1.0, np.zeros((9, 2, 64), dtype=complex))
    with pytest.raises(ValueError, match="one component per axis"):
        solve_fwd(b, 1.0)
    with pytest.raises(ValueError, match="one component per axis"):
        integral_operator(TimeField(grid64, 1.0, np.zeros((9, 2, 64), dtype=complex)), b, 1.0)


# --- the integral operator -------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.0, 2.0])
def test_integral_operator_single_mode_exact(grid64, lam):
    # time-constant integrand b = c e^{ikx} + conj(c) e^{-ikx}: the frozen-node
    # quadrature is exact per mode, so I(0)(t) = c (1 - e^{-t a_k}) / a_k at
    # lam = 0; at lam > 0 the right-node killing term gives the recurrence
    # I_m = E' I_{m-1} + w' c, with closed form c w' (1 - E'^m) / (1 - E')
    k, c, steps = 3, 0.8 - 0.2j, 16
    coeffs = np.zeros((1, 64), dtype=complex)
    coeffs[0, k], coeffs[0, -k] = c, np.conj(c)
    b = TimeField.from_nodes(
        [SpectralField(grid64, coeffs)] * (steps + 1), 1.0)
    v0 = TimeField.zero(grid64, 1.0, steps)
    out = integral_operator(v0, b, lam)
    a_k = 1.0 + 0.5 * k ** 2
    times = np.linspace(0.0, 1.0, steps + 1)
    if lam == 0.0:
        want = c * (1.0 - np.exp(-times * a_k)) / a_k
    else:
        dt = 1.0 / steps
        w = (1.0 - np.exp(-dt * a_k)) / a_k
        decay, weight = np.exp(-dt * a_k) / (1.0 + lam * w), w / (1.0 + lam * w)
        m = np.arange(steps + 1)
        want = c * weight * (1.0 - decay ** m) / (1.0 - decay)
    got = out.coeffs[:, 0, k]
    assert np.max(np.abs(got - want)) < 1e-14
    assert np.array_equal(out.coeffs[:, 0, -k], np.conj(got))
    other = np.delete(out.coeffs, [k, 64 - k], axis=2)
    assert np.max(np.abs(other)) == 0.0


def test_solver_refuses_a_drift_that_is_not_real(grid64):
    # a lone mode c_3 = 1 has no Hermitian partner: its march gives grid
    # values with imaginary parts up to 0.18, so both entry points refuse it
    coeffs = np.zeros((1, 64), dtype=complex)
    coeffs[0, 3] = 1.0
    b = TimeField.from_nodes([SpectralField(grid64, coeffs)] * 65, 1.0)
    with pytest.raises(ValueError, match="not real"):
        solve_fwd(b, 1.0)
    with pytest.raises(ValueError, match="not real"):
        integral_operator(TimeField.zero(grid64, 1.0, 64), b, 1.0)


@pytest.mark.parametrize("node", [0, 32, 64], ids=["first", "middle", "last"])
def test_solver_refuses_a_drift_with_one_node_not_real(grid64, node):
    # the reality check reads one node per run of equal nodes: a lone mode
    # added at the first, a middle or the last node of a static drift makes
    # a run of its own, and the march refuses it
    coeffs = np.tile(SpectralField.from_grid(grid64, np.sin(grid64.axis_points())).coeffs,
                     (65, 1, 1))
    coeffs[node, 0, 3] += 1.0
    with pytest.raises(ValueError, match="not real"):
        solve_fwd(TimeField(grid64, 1.0, coeffs), 1.0)


@pytest.mark.parametrize("lam", [
    -0.5, -100.0, np.inf, np.nan,
    pytest.param([2.0, -1.0], id="stack-negative"),
    pytest.param([1.0, np.nan], id="stack-nan"),
    pytest.param([], id="stack-empty"),
    pytest.param([[1.0]], id="stack-nested"),
])
def test_solver_refuses_lambdas_the_theory_excludes(grid64, lam):
    # the step factors damp only for 0 <= lam < inf; a negative lambda used
    # to amplify, inf to zero every step, and NaN to fail at the certificate.
    # A stack is refused for any one such lambda, and so are an empty stack
    # and one that is not a flat list
    b = constant_drift(grid64, 1.0, 8)
    with pytest.raises(ValueError, match="lam"):
        solve_fwd(b, lam)
    with pytest.raises(ValueError, match="lam"):
        integral_operator(TimeField.zero(grid64, 1.0, 8), b, lam)


def test_integral_operator_rejects_mismatched_grids(grid64):
    b = constant_drift(grid64, 1.0, 8)
    v = TimeField.zero(grid64, 1.0, 16)
    with pytest.raises(ValueError):
        integral_operator(v, b, 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_integral_operator_refuses_a_lambda_stack(dim):
    # the operator acts on one block v, so a stack of lambdas has no blocks to
    # act on; it once returned two blocks in 1-D and failed to broadcast in 2-D
    b = rough_drift(dim, 16, 4)
    v = random_time_field(b.grid, 4, 0.3, seed=8)
    with pytest.raises(ValueError, match="lam"):
        integral_operator(v, b, [2.0, 4.0])


# --- the fixed point ---------------------------------------------------------------------


def test_constant_drift_oracle(grid64):
    # v(t) = c (1 - e^{-(1+lam)t}) / (1+lam) solves the damped equation with
    # constant drift; the solver must hit it within the left-rule error 3/M
    c, lam, steps = 0.7, 2.0, 32
    b = constant_drift(grid64, c, steps)
    v, report = solve_fwd(b, lam)
    assert report.method == "march" and report.iterations == 1
    times = np.linspace(0.0, 1.0, steps + 1)
    exact = c * (1.0 - np.exp(-(1.0 + lam) * times)) / (1.0 + lam)
    err = max(abs(float(np.real(v.node(m).coeffs[0, 0])) - exact[m])
              for m in range(steps + 1))
    assert err <= 3.0 / steps


def test_constant_drift_error_halves_with_dt(grid64):
    c, lam = 0.7, 2.0
    errs = []
    for steps in (32, 64):
        b = constant_drift(grid64, c, steps)
        v, _ = solve_fwd(b, lam)
        times = np.linspace(0.0, 1.0, steps + 1)
        exact = c * (1.0 - np.exp(-(1.0 + lam) * times)) / (1.0 + lam)
        errs.append(max(abs(float(np.real(v.node(m).coeffs[0, 0])) - exact[m])
                        for m in range(steps + 1)))
    assert 0.4 <= errs[1] / errs[0] <= 0.6


def test_march_is_exact_fixed_point(march_case):
    b, _ = march_case
    v, report = solve_fwd(b, 4.0)
    assert v.components == b.grid.dimension
    assert report.method == "march" and report.iterations == 1
    assert np.max(np.abs((integral_operator(v, b, 4.0) - v).coeffs)) == 0.0


def rough_drift(dim, n, steps, changes=0):
    """The rough drift of rough_drift64 (1-D) and march_case (2-D) on the
    lattice (dim, n), switching `changes` times."""
    spec = DriftSpec(family="random-fourier", seed=42, beta=0.25, eta=0.3,
                     amplitude=0.25 if dim == 1 else 0.1, changes=changes)
    return generate(spec, GridSpec(dim, n), 1.0, steps)


def all_nodes_operator(v, b, lam):
    """The mild operator in another order of evaluation: the integrand at
    every node in one `_integrand` call, with b in the march's time (b's node
    M - l beside v's node l), then the recurrence over the nodes."""
    decay, weight = kolmogorov._step_factors(b, lam)
    g = kolmogorov._integrand(b.grid, b.coeffs[::-1], v.coeffs)
    out = np.zeros_like(v.coeffs)
    for m in range(1, b.nodes + 1):
        out[m] = decay * out[m - 1] + weight * g[m - 1]
    return out


@pytest.mark.parametrize("changes", [0, 2], ids=["static", "time-dependent"])
@pytest.mark.parametrize("dim, n, steps", [(1, 64, 32), (2, 16, 16)])
def test_integral_operator_matches_the_all_nodes_order(dim, n, steps, changes):
    # the node loop forms b . grad v + b one node at a time; forming it at
    # every node at once gives the same bits.  v is not the fixed point, and
    # a drift that switches shows which of its nodes each step reads
    b = rough_drift(dim, n, steps, changes)
    v = random_time_field(b.grid, steps, 0.3, seed=8)
    out = integral_operator(v, b, 4.0)
    assert np.array_equal(out.coeffs, all_nodes_operator(v, b, 4.0))
    assert not np.array_equal(out.coeffs, v.coeffs)


def march_every_node(b, lam):
    """The march with b's 2N-lattice samples made again at every node."""
    decay, weight = kolmogorov._step_factors(b, lam)
    out = np.zeros((b.nodes + 1,) + decay.shape, dtype=complex)
    for m in range(1, b.nodes + 1):
        g = kolmogorov._integrand(b.grid, b.coeffs[b.nodes - m + 1], out[m - 1])
        out[m] = decay * out[m - 1] + weight * g
    return out


@pytest.mark.parametrize("changes, runs", [(0, 1), (3, 4), (16, 17)],
                         ids=["static", "changes-3", "every-node"])
@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
def test_the_march_samples_each_run_of_drift_nodes_once_exactly(dim, n, changes, runs):
    # the march makes b's samples once per run of equal nodes; one that makes
    # them at every node gives the same bits, on a stack of two lambdas
    b = rough_drift(dim, n, 16, changes)
    assert np.unique(spectral._run_starts(b.coeffs)).size == runs
    v, _ = solve_fwd(b, [2.0, 4.0])
    assert np.array_equal(v.coeffs, march_every_node(b, [2.0, 4.0]))


def test_the_march_reads_the_drift_still_to_come(grid64):
    # b = 1.5 cos x on [0, T/2) and 0 from node M/2 on: the backward equation
    # from u(T) = 0 sees only the drift after t, and the step ending at t_j
    # reads b(t_{j+1}), so u(t_j) is exactly 0 for j >= M/2 - 1 and not before
    steps = 16
    coeffs = np.zeros((1, 64), dtype=complex)
    coeffs[0, 1] = coeffs[0, -1] = 0.75
    on, off = SpectralField(grid64, coeffs), SpectralField(grid64, 0.0 * coeffs)
    b = TimeField.from_nodes([on] * (steps // 2) + [off] * (steps // 2 + 1), 1.0)
    v, _ = solve_fwd(b, 2.0)
    u = v.reversed_time().coeffs
    assert not np.any(u[steps // 2 - 1:])
    assert np.all(np.max(np.abs(u[:steps // 2 - 1]), axis=(1, 2)) > 0.0)


@pytest.mark.parametrize("dim, n, steps, lams", [
    (1, 64, 32, (2.0, 4.0, 8.0, 16.0)),
    (1, 256, 64, (2.0, 4.0, 8.0, 16.0)),
    (2, 16, 16, (2.0, 4.0)),
])
def test_a_stack_matches_separate_solves(dim, n, steps, lams):
    # every operation of the march acts on each component by itself, so each
    # lambda's block of a stacked march is its own march bit for bit
    b = rough_drift(dim, n, steps)
    v, report = solve_fwd(b, list(lams))
    assert v.components == len(lams) * dim and report.lam == lams
    for i, lam in enumerate(lams):
        alone, _ = solve_fwd(b, lam)
        assert np.array_equal(v.coeffs[:, i * dim:(i + 1) * dim], alone.coeffs)


def test_the_march_builds_one_field_whatever_its_nodes(monkeypatch):
    # the march steps coefficient arrays, so a solve builds the fields it
    # returns and no field per node: the same count at M = 16 and M = 64
    drifts = [rough_drift(1, 64, steps) for steps in (16, 64)]
    built, init = [], spectral._Field.__post_init__
    monkeypatch.setattr(spectral._Field, "__post_init__",
                        lambda self: built.append(type(self)) or init(self))
    counts = []
    for b in drifts:
        built.clear()
        solve_fwd(b, 2.0)
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_zero_drift_gives_zero_solution(grid64):
    b = TimeField.zero(grid64, 1.0, 8)
    v, report = solve_fwd(b, 2.0)
    assert not np.any(v.coeffs)
    assert report.iterations == 1


# --- norms and reversal --------------------------------------------------------------------


def test_weighted_norm_manual(grid64):
    # nodes m*sin(x): ||node m||_{L^2} = m sqrt(pi); weight e^{-rho t_m}
    nodes = [SpectralField.from_grid(
        grid64, (m * np.sin(grid64.axis_points()))[None]) for m in range(5)]
    tf = TimeField.from_nodes(nodes, 1.0)
    rho = 3.0
    times = np.linspace(0.0, 1.0, 5)
    want = max(np.exp(-rho * times[m]) * m * np.sqrt(np.pi) for m in range(5))
    got = weighted_norm(tf, rho, SobolevIndex(0.0, 2.0))
    assert abs(got - want) < 1e-12
    with pytest.raises(ValueError):
        weighted_norm(tf, -1.0, SobolevIndex(0.0, 2.0))


def test_to_backward_reverses_nodes(grid64):
    nodes = [SpectralField.constant(grid64, float(m)) for m in range(4)]
    v = TimeField.from_nodes(nodes, 1.0)
    u = v.reversed_time()
    for m in range(4):
        assert u.node(m).coeffs[0, 0] == v.node(3 - m).coeffs[0, 0]


def test_gradient_sup_closed_form(grid64):
    u = sine_time_field(grid64, 0.4, 4)
    assert abs(gradient_sup(u) - 0.4) < 1e-12


def test_gradient_sup_2d_singular_value(grid64_2d):
    # u = (a sin y, 0): the only Jacobian entry is a cos y, so the operator
    # norm over the grid is a
    x = grid64_2d.axis_points()
    _, yy = np.meshgrid(x, x, indexing="ij")
    vals = np.stack([0.3 * np.sin(yy), np.zeros_like(yy)])
    node = SpectralField.from_grid(grid64_2d, vals)
    u = TimeField.from_nodes([node, node], 1.0)
    assert abs(gradient_sup(u) - 0.3) < 1e-12


# --- calibration ------------------------------------------------------------------------


def test_calibrate_lambda_smooth_drift(grid64):
    b = generate(DriftSpec(family="smooth-test", seed=1, beta=0.25,
                           amplitude=0.2), grid64, 1.0, 16)
    lam, trace = calibrate_lambda(b)
    assert lam == 1.0
    assert trace[-1][1] <= 0.5
    assert [t[0] for t in trace] == [2.0 ** i for i in range(len(trace))]


def coarse_strong_drift(grid):
    # strong drift and only 4 time steps: lambda must pass nodes/horizon = 4
    return generate(DriftSpec(family="random-fourier", seed=42, beta=0.25,
                              eta=0.3, amplitude=1.0), grid, 1.0, 4)


def test_calibrate_lambda_on_coarse_time_grid(grid64):
    # the right-node killing term damps at every lambda, so calibration
    # doubles on past lambda * dt = 1 until the target is met
    lam, trace = calibrate_lambda(coarse_strong_drift(grid64))
    assert lam == 256.0
    assert [t[0] for t in trace] == [2.0 ** i for i in range(len(trace))]
    assert trace[-1][1] <= 0.5
    assert all(g > 0.5 for _, g in trace[:-1])


def plain_doubling(b):
    """The reference calibration: one march per lambda, doubling from 1."""
    lam, trace = 1.0, []
    while True:
        v, _ = solve_fwd(b, lam)
        trace.append((lam, gradient_sup(v.reversed_time())))
        if trace[-1][1] <= 0.5:
            return lam, trace
        lam *= 2.0


@pytest.mark.parametrize("drift", ["smooth", "rough-1d", "coarse-strong", "rough-2d"])
def test_calibrate_lambda_matches_a_plain_doubling_loop(grid64, monkeypatch, drift):
    # lambda 1, 8, 256 and 16: lambda = 1 marches alone, then the doublings
    # in stacks of _stack_width (8, 4, 8 and 1 lambdas here) up to the stack
    # that holds the accepted lambda; lambda and trace are the loop's
    b = {"smooth": lambda: generate(DriftSpec(family="smooth-test", seed=1, beta=0.25,
                                              amplitude=0.2), grid64, 1.0, 16),
         "rough-1d": lambda: rough_drift(1, 256, 64),
         "coarse-strong": lambda: coarse_strong_drift(grid64),
         "rough-2d": lambda: rough_drift(2, 16, 16)}[drift]()
    want = plain_doubling(b)
    seen = record_solves(monkeypatch)
    assert calibrate_lambda(b) == want
    accepted, width = len(want[1]) - 1, _stack_width(b.grid)
    assert seen == [[1.0]] + [[2.0 ** k for k in range(i, i + width)]
                              for i in range(1, accepted + 1, width)]


@pytest.mark.parametrize("doublings", [2, 5])
def test_calibrate_lambda_fails_after_max_doublings(grid64, monkeypatch, doublings):
    # the drift needs lambda 2^8; a stack holds 8 doublings at N = 64, so
    # the limit cuts the first stack short and no later lambda is marched
    monkeypatch.setattr(kolmogorov, "MAX_DOUBLINGS", doublings)
    seen = record_solves(monkeypatch)
    with pytest.raises(CalibrationFailed, match=f"after {doublings} doublings") as exc:
        calibrate_lambda(coarse_strong_drift(grid64))
    lams = [2.0 ** k for k in range(doublings + 1)]
    assert [lam for lam, _ in exc.value.trace] == lams
    assert all(g > 0.5 for _, g in exc.value.trace)
    assert _stack_width(grid64) > doublings and seen == [lams[:1], lams[1:]]


def test_calibrate_lambda_2d_rough_drift():
    # the trace reads 0.918, 0.832, 0.707, 0.553, 0.394 at lambda 1..16: the
    # target is met at lambda 16 = M/T, which the damping march reaches
    b = generate(DriftSpec(family="random-fourier", seed=42, beta=0.25, eta=0.3,
                           amplitude=0.1), GridSpec(2, 16), 1.0, 16)
    _, trace = calibrate_lambda(b)
    assert trace[-1][1] <= 0.5
