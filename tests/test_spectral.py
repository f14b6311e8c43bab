"""Spectral calculus against closed-form oracles."""

import json

import math
import warnings

import numpy as np
import pytest

import singular_drift.spectral as spectral
from singular_drift.spectral import (
    GridSpec,
    SobolevIndex,
    SpectralField,
    TimeField,
    bessel_power,
    cutoff_profile,
    dyadic_cutoff,
    evaluate,
    gradient,
    heat_semigroup,
    load_time_field,
    lp_grid_norm,
    coarsen,
    mollify,
    refine,
    save_time_field,
    sobolev_norm,
)

from singular_drift.drifts import DriftSpec, generate
from singular_drift.paraproduct import dealiased_multiply, drift_gradient_product

from conftest import random_field, random_time_field, single_mode


# --- grid and field construction -------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 64)
    with pytest.raises(ValueError):
        GridSpec(1, 48)          # not a power of two
    with pytest.raises(ValueError):
        GridSpec(1, 4)           # too small
    # the torus is [0, 2 pi)^d, so the wavenumbers are the integers exactly
    for n in 2 ** np.arange(3, 11):
        assert np.array_equal(GridSpec(1, int(n)).kappa_axis(), np.fft.fftfreq(n, 1.0 / n))


@pytest.mark.parametrize("dim", [1, 2])
def test_lattice_symbols_are_shared_and_read_only(dim):
    # memoized per (d, N): equal grids hand out the same arrays, and no
    # caller can write into them
    n = 16
    grid, twin = GridSpec(dim, n), GridSpec(dim, n)

    def symbols(g):
        return g.kappa_axis(), *g.kappa_mesh(), g.kappa_sq(), g.bessel_symbol()

    for a, b in zip(symbols(grid), symbols(twin)):
        assert a is b
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # and they are the values the lattice defines, bit for bit
    ax = np.fft.fftfreq(n, 1.0 / n)
    mesh = np.meshgrid(*([ax] * dim), indexing="ij")
    sq = np.zeros((n,) * dim)
    for k in mesh:
        sq = sq + k * k
    for a, want in zip(symbols(grid), (ax, *mesh, sq, 1.0 + 0.5 * sq)):
        assert a.dtype == want.dtype and np.array_equal(a, want)


def test_known_coefficients_of_sine(grid64):
    x = grid64.axis_points()
    f = SpectralField.from_grid(grid64, np.sin(x)[None])
    expected = np.zeros(64, dtype=complex)
    expected[1] = -0.5j
    expected[-1] = 0.5j
    assert np.allclose(f.coeffs[0], expected, atol=1e-15)


def test_from_grid_values_roundtrip(grid64):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((1, 64))
    f = SpectralField.from_grid(grid64, vals)
    assert np.max(np.abs(f.values() - vals)) < 1e-13


def test_constant_field(grid64):
    f = SpectralField.constant(grid64, 2.5)
    assert np.max(np.abs(f.values() - 2.5)) < 1e-14


def test_values_reject_asymmetric_coeffs(grid64):
    coeffs = np.zeros((1, 64), dtype=complex)
    coeffs[0, 1] = 1.0           # no Hermitian partner
    f = SpectralField(grid64, coeffs)
    with pytest.raises(ValueError, match="imaginary residue"):
        f.values()


def test_from_grid_refuses_complex_samples(grid64):
    # every field is real: a nonzero imaginary part is refused, not kept
    x = grid64.axis_points()
    with pytest.raises(ValueError, match="imaginary"):
        SpectralField.from_grid(grid64, np.exp(1j * x)[None])
    # complex samples with zero imaginary parts are real samples
    f = SpectralField.from_grid(grid64, (np.sin(x) + 0j)[None])
    g = SpectralField.from_grid(grid64, np.sin(x)[None])
    assert np.array_equal(f.coeffs, g.coeffs)
    assert np.isrealobj(f.values()) and np.isrealobj(evaluate(f, x[:3, None]))


def test_field_arithmetic_is_linear(grid64, sine_field):
    g = 2.0 * sine_field
    h = g - sine_field
    assert np.allclose(h.coeffs, sine_field.coeffs)
    s = sine_field + sine_field
    assert np.allclose(s.coeffs, g.coeffs)


def test_field_arithmetic_refuses_mismatched_operands(grid64, sine_field):
    pair = SpectralField.constant(grid64, [1.0, 2.0])
    for op in (lambda f, g: f + g, lambda f, g: f - g):
        with pytest.raises(ValueError, match="components"):
            op(sine_field, pair)
    short = TimeField.from_nodes([sine_field] * 3, 1.0)
    long = TimeField.from_nodes([sine_field] * 3, 2.0)
    with pytest.raises(ValueError, match="not compatible"):
        short - long


# --- multiplier operators ---------------------------------------------------------


def test_heat_semigroup_single_mode(grid64):
    # P(t) e^{ikx} = e^{-t(1+k^2/2)} e^{ikx}
    f = single_mode(grid64, 3)
    out = heat_semigroup(f, 0.7)
    assert abs(out.coeffs[0, 3] - np.exp(-0.7 * (1 + 4.5))) < 1e-15


def test_heat_semigroup_law(grid64, sine_field):
    a = heat_semigroup(heat_semigroup(sine_field, 0.3), 0.4)
    b = heat_semigroup(sine_field, 0.7)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-14
    ident = heat_semigroup(sine_field, 0.0)
    assert np.array_equal(ident.coeffs, sine_field.coeffs)
    with pytest.raises(ValueError):
        heat_semigroup(sine_field, -0.1)


def test_heat_semigroup_matches_kernel_convolution(grid64):
    # P(t) = e^{-t} * convolution with the wrapped Gaussian of variance t
    rng = np.random.default_rng(1)
    f = SpectralField.from_grid(grid64, rng.standard_normal((1, 64)))
    t = 0.25
    x = grid64.axis_points()
    kern = np.zeros(64)
    for shift in range(-40, 41):
        kern += np.exp(-((x - np.pi) + 2 * np.pi * shift) ** 2 / (2 * t))
    kern = np.roll(kern, -32) / np.sqrt(2 * np.pi * t)
    conv = grid64.spacing * np.real(
        np.fft.ifft(np.fft.fft(kern) * np.fft.fft(f.values()[0])))
    direct = heat_semigroup(f, t).values()[0]
    assert np.max(np.abs(np.exp(-t) * conv - direct)) < 1e-12


def test_bessel_power_single_mode(grid64):
    f = single_mode(grid64, 5)
    out = bessel_power(f, -0.5)
    assert abs(out.coeffs[0, 5] - (1 + 12.5) ** (-0.25)) < 1e-15


def test_bessel_power_inverse_pair(grid64, sine_field):
    back = bessel_power(bessel_power(sine_field, 0.8), -0.8)
    assert np.max(np.abs(back.coeffs - sine_field.coeffs)) < 1e-14


def test_mollify_limits(grid64, sine_field):
    near_id = mollify(sine_field, 1e6)
    assert np.max(np.abs(near_id.coeffs - sine_field.coeffs)) < 1e-9
    # heavier smoothing shrinks every nonzero mode strictly
    soft = mollify(sine_field, 1.0)
    hard = mollify(sine_field, 0.5)
    assert abs(hard.coeffs[0, 1]) < abs(soft.coeffs[0, 1]) < 0.5
    with pytest.raises(ValueError):
        mollify(sine_field, 0.0)


def test_cutoff_profile_shape():
    assert cutoff_profile(0.0) == 1.0
    assert cutoff_profile(1.0) == 1.0
    assert cutoff_profile(1.5) == 0.0
    assert cutoff_profile(2.0) == 0.0
    r = np.linspace(1.0, 1.5, 50)
    vals = cutoff_profile(r)
    assert np.all(np.diff(vals) <= 1e-15)          # monotone down
    assert 0.0 < cutoff_profile(1.25) < 1.0


def test_dyadic_cutoff_passband(grid64):
    f = single_mode(grid64, 4)
    assert np.array_equal(dyadic_cutoff(f, 2).coeffs, f.coeffs)   # 4 <= 2^2
    assert np.max(np.abs(dyadic_cutoff(f, 1).coeffs)) < 1e-15     # 4 >= 3/2*2^1


def test_gradient_closed_form(grid64):
    x = grid64.axis_points()
    f = SpectralField.from_grid(grid64, np.sin(3 * x)[None])
    g = gradient(f)
    assert np.max(np.abs(g.values()[0] - 3 * np.cos(3 * x))) < 1e-12


def test_gradient_zeroes_nyquist(grid64):
    f = single_mode(grid64, 32)           # k = -N/2 slot
    g = gradient(f)
    assert np.max(np.abs(g.coeffs)) == 0.0


def test_gradient_2d_component_order(grid64_2d):
    x = grid64_2d.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    f = SpectralField.from_grid(grid64_2d, np.sin(xx + 2 * yy)[None])
    g = gradient(f)
    assert g.components == 2
    vals = g.values()
    assert np.max(np.abs(vals[0] - np.cos(xx + 2 * yy))) < 1e-11
    assert np.max(np.abs(vals[1] - 2 * np.cos(xx + 2 * yy))) < 1e-11


# --- lattice changes ----------------------------------------------------------------


def _random_real_field(grid, seed, components=1):
    """Real samples, so every mode is loaded, the Nyquist planes included."""
    rng = np.random.default_rng(seed)
    return SpectralField.from_grid(grid, rng.standard_normal((components,) + grid.spatial_shape))


def test_refine_coarsen_roundtrip(grid64):
    f = _random_real_field(grid64, 11, components=2)
    fine = refine(f)
    assert fine.grid == GridSpec(1, 128)
    back = coarsen(fine)
    assert back.grid == grid64
    assert np.array_equal(back.coeffs, f.coeffs)


def test_refine_coarsen_roundtrip_2d(grid64_2d):
    f = _random_real_field(grid64_2d, 12)
    assert np.array_equal(coarsen(refine(f)).coeffs, f.coeffs)


def test_refine_preserves_point_values(grid64):
    # the refined field is the same trigonometric polynomial on coarse nodes
    f = _random_real_field(grid64, 5)
    assert np.max(np.abs(refine(f).values()[0][::2] - f.values()[0])) < 1e-12


def test_refine_keeps_real_fields_real(grid64):
    # including a loaded Nyquist mode, the worst case for symmetry
    coeffs = np.zeros((1, 64), dtype=complex)
    coeffs[0, 32] = 0.7                            # k = -N/2
    coeffs[0, 1] = -0.5j
    coeffs[0, -1] = 0.5j
    fine = refine(SpectralField(grid64, coeffs))
    vals = fine.values()                           # raises if symmetry broke
    assert vals.shape == (1, 128)


@pytest.mark.parametrize("dim, modes", [
    (1, 64),
    pytest.param(2, 16, marks=pytest.mark.xfail(
        strict=True, reason="2-D evaluate reads the (-N/2, -N/2) corner mode c as "
        "c cos(N/2 (x + y)), refine as c cos(N/2 x) cos(N/2 y)")),
])
def test_refine_twice_matches_evaluate_on_4n_grid(dim, modes):
    # the r-fold padded grid of an off-grid bound, here r = 4; the two
    # interpolants agree on every grid node and differ only off them
    grid = GridSpec(dim, modes)
    f = _random_real_field(grid, 7, components=dim)
    fine = refine(refine(f))
    assert fine.grid.modes_per_axis == 4 * modes
    pts = fine.grid.grid_points()
    want = evaluate(f, pts).T.reshape((dim,) + fine.grid.spatial_shape)
    assert np.max(np.abs(fine.values() - want)) < 1e-12


# --- norms ------------------------------------------------------------------------


def test_parseval_exact(grid64):
    rng = np.random.default_rng(2)
    f = SpectralField.from_grid(grid64, rng.standard_normal((1, 64)))
    quad = np.sqrt(grid64.spacing * np.sum(f.values() ** 2))
    spec = sobolev_norm(f, SobolevIndex(0.0, 2.0))
    assert abs(quad - spec) < 1e-12 * max(quad, 1.0)


def test_sobolev_norm_analytic_sine(grid64, sine_field):
    # ||sin||_{H^s_2}^2 = 2pi * 2 * (1.5)^s * |1/2|^2 = pi (1.5)^s
    for s in (-0.25, 0.0, 1.5):
        want = np.sqrt(np.pi * 1.5 ** s)
        got = sobolev_norm(sine_field, SobolevIndex(s, 2.0))
        assert abs(got - want) < 1e-12


def test_lp_grid_norm_constant(grid64):
    f = SpectralField.constant(grid64, -3.0)
    assert abs(lp_grid_norm(f, 4.0) - 3.0 * (2 * np.pi) ** 0.25) < 1e-12
    assert abs(lp_grid_norm(f, np.inf) - 3.0) < 1e-14


def test_sobolev_norm_p2_agrees_with_quadrature(grid64):
    # the Parseval shortcut and the grid quadrature are two routes to one norm
    rng = np.random.default_rng(3)
    f = SpectralField.from_grid(grid64, rng.standard_normal((1, 64)))
    idx = SobolevIndex(-0.25, 2.0)
    direct = lp_grid_norm(bessel_power(f, -0.25), 2.0)
    assert abs(sobolev_norm(f, idx) - direct) < 1e-12


def test_sobolev_index_validation():
    with pytest.raises(ValueError):
        SobolevIndex(0.5, 1.0)


# --- pointwise evaluation ----------------------------------------------------------


def test_evaluate_closed_form_offgrid(grid64):
    x = grid64.axis_points()
    f = SpectralField.from_grid(grid64, (np.sin(x) + 0.3 * np.cos(5 * x))[None])
    pts = np.array([[0.123], [2.71], [5.5], [0.0]])
    want = np.sin(pts[:, 0]) + 0.3 * np.cos(5 * pts[:, 0])
    got = evaluate(f, pts)[:, 0]
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("shape", [(1,), (5, 1, 1), (5, 2), (5,)],
                         ids=["one-point", "three-axes", "wrong-d", "flat"])
def test_evaluate_rejects_non_batch_points(sine_field, shape):
    # points form an (m, d) batch; one point is a one-row batch
    with pytest.raises(ValueError, match="batch"):
        evaluate(sine_field, np.ones(shape))


def test_evaluate_matches_grid_values(grid64):
    rng = np.random.default_rng(4)
    f = SpectralField.from_grid(grid64, rng.standard_normal((1, 64)))
    pts = grid64.grid_points()
    got = evaluate(f, pts)[:, 0]
    assert np.max(np.abs(got - f.values()[0])) < 1e-12


def test_evaluate_multicomponent(grid64):
    x = grid64.axis_points()
    f = SpectralField.from_grid(grid64, np.stack([np.sin(x), np.cos(2 * x)]))
    pts = np.array([[0.3], [4.0]])
    got = evaluate(f, pts)
    want = np.stack([np.sin(pts[:, 0]), np.cos(2 * pts[:, 0])], axis=1)
    assert np.max(np.abs(got - want)) < 1e-12


def test_evaluate_2d(grid64_2d):
    x = grid64_2d.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    f = SpectralField.from_grid(grid64_2d, (np.sin(xx) * np.cos(yy))[None])
    pts = np.array([[0.4, 1.1], [3.0, 0.2]])
    want = np.sin(pts[:, 0]) * np.cos(pts[:, 1])
    assert np.max(np.abs(evaluate(f, pts)[:, 0] - want)) < 1e-11


@pytest.mark.parametrize("dim, modes, comps, band", [
    pytest.param(1, 8, 1, None, id="1-8-1"),
    pytest.param(1, 64, 1, None, id="1-64-1"),
    pytest.param(1, 256, 1, None, id="1-256-1"),
    pytest.param(1, 64, 2, None, id="1-64-2"),
    pytest.param(1, 64, 2, 3, id="1-64-2-band3"),
    pytest.param(2, 32, 2, None, id="2-32-2"),
])
def test_evaluate_heads_independent_of_batch_size(dim, modes, comps, band):
    grid = GridSpec(dim, modes)
    rng = np.random.default_rng(5)
    f = SpectralField.from_grid(grid, rng.standard_normal((comps,) + grid.spatial_shape))
    if band is not None:
        # a narrow band: the evaluation band follows the coefficients, never the points
        f = SpectralField(grid, f.coeffs * (np.abs(grid.kappa_axis()) <= band))
    # more than 4096 points, so a chunked evaluation would split the batch
    p = rng.uniform(0.0, grid.period, size=(5000, dim))
    full = evaluate(f, p)
    for n in range(1, 65):
        assert np.array_equal(evaluate(f, p[:n]), full[:n]), n


def _direct_sum(f, x):
    """sum_k c_k exp(i kappa_k x) by one phase-matrix product per component."""
    phases = np.exp(1j * np.outer(x[:, 0], f.grid.kappa_axis()))
    return (phases @ f.coeffs.T).real


def _corner_mode(grid):
    c = np.zeros((1, grid.modes_per_axis), dtype=complex)
    c[0, grid.modes_per_axis // 2] = 0.7       # 0.7 cos(N/2 x): only k = -N/2
    return SpectralField(grid, c)


@pytest.mark.parametrize("case, modes", [
    *[pytest.param(case, 64, id=case) for case in ("band-5", "smooth-test", "full-band",
                                                   "zero", "constant", "corner-mode")],
    pytest.param("full-band", 8, id="full-band-8"),
    pytest.param("full-band", 256, id="full-band-256"),   # the rough benchmark drift's band
])
def test_evaluate_band_matches_direct_sum(case, modes):
    grid = GridSpec(1, modes)
    fields = {
        "band-5": lambda: random_field(grid, 0.3, 8, band=5),
        "smooth-test": lambda: generate(DriftSpec(family="smooth-test", seed=1, beta=0.25,
                                                  amplitude=0.2), grid, 1.0, 2).node(0),
        "full-band": lambda: random_field(grid, 0.3, 9),
        "zero": lambda: SpectralField.zero(grid),
        "constant": lambda: SpectralField.constant(grid, 1.3),
        "corner-mode": lambda: _corner_mode(grid),     # falls back to the full lattice
    }
    f = fields[case]()
    x = np.random.default_rng(6).uniform(-1.0, 7.0, size=(200, 1))
    err = np.max(np.abs(evaluate(f, x) - _direct_sum(f, x)))
    assert err <= 1e-14 * np.sum(np.abs(f.coeffs))


@pytest.mark.parametrize("modes", [8, 64, 256])
@pytest.mark.parametrize("band", [5, None], ids=["band-5", "full-band"])
def test_evaluate_fold_is_exact_for_non_hermitian_coeffs(modes, band):
    # the fold a_k = c_k + conj(c_-k) keeps the real part of the full sum for
    # any coefficients: perturbed off Hermitian symmetry by 1e-12 relative,
    # well inside _REAL_TOL, they are accepted and still read exactly
    grid = GridSpec(1, modes)
    rng = np.random.default_rng(11)
    c = random_field(grid, 0.3, 9, band=band).coeffs
    c = c * (1.0 + 1e-12 * (rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape)))
    f = SpectralField(grid, c)
    x = rng.uniform(-1.0, 7.0, size=(200, 1))
    err = np.max(np.abs(evaluate(f, x) - _direct_sum(f, x)))
    assert err <= 1e-14 * np.sum(np.abs(c))


@pytest.mark.parametrize("modes", [8, 64, 256])
def test_evaluate_fold_keeps_a_complex_corner_mode(modes):
    # c_-N/2 has no +N/2 partner: its fold conj(c_-N/2) z^{N/2} has the real
    # part of c_-N/2 z^{-N/2}, so a complex c_-N/2 (1e-11 relative, inside
    # _REAL_TOL) keeps the sign of its sin(N/2 x) term
    grid = GridSpec(1, modes)
    c = random_field(grid, 0.3, 9).coeffs.copy()
    c[0, modes // 2] += 1e-11j * np.sum(np.abs(c))
    f = SpectralField(grid, c)
    x = np.random.default_rng(12).uniform(-1.0, 7.0, size=(200, 1))
    err = np.max(np.abs(evaluate(f, x) - _direct_sum(f, x)))
    assert err <= 1e-14 * np.sum(np.abs(c))


def test_evaluate_band_of_a_nan_field_is_full(grid64):
    # no finite tail meets the bound, so the band is the whole lattice and
    # the NaN reaches every value instead of being cut off with the tail
    c = random_field(grid64, 0.3, 8, band=5).coeffs.copy()
    c[0, 20] = c[0, -20] = np.nan
    assert np.all(np.isnan(evaluate(SpectralField(grid64, c), np.zeros((3, 1)))))


def _table_points(modes, rng):
    """Random points in one period, points half a table row off a row (the
    largest Taylor offset) and points out to |x| = 50.  All lie on the grid
    2^-30 Z, so `_direct_sum`'s products k x are exact: a rounded k x puts an
    error of about |k x| u on each mode, 3e-14 sum |c_k| at |x| = 50 and
    N = 1024, which would be the reference's own."""
    rows = spectral._TABLE_OVERSAMPLE * modes
    half = (rng.integers(0, rows, 100) + 0.5) * (2.0 * np.pi / rows)
    x = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, 100), half,
                        rng.uniform(-50.0, 50.0, 100)])
    return np.round(x * 2.0 ** 30)[:, None] / 2.0 ** 30


@pytest.mark.parametrize("modes", [64, 256, 1024])
def test_evaluate_table_matches_direct_sum(modes):
    # a full band reads its Taylor table; the Cody-Waite offset keeps the
    # error at the level of a point in [0, 2 pi) out to |x| = 50
    f = random_field(GridSpec(1, modes), 0.3, 9)
    assert f._eval_tables[0] is not None
    x = _table_points(modes, np.random.default_rng(13))
    err = np.max(np.abs(evaluate(f, x) - _direct_sum(f, x)))
    assert err <= 1e-14 * np.sum(np.abs(f.coeffs))


@pytest.mark.parametrize("past", [0, 1], ids=["horner", "table"])
def test_evaluate_band_at_the_kernel_switch_matches_direct_sum(past):
    # the widest band Horner's rule sums, and the narrowest the table reads
    grid = GridSpec(1, 256)
    band = spectral._TABLE_MIN_MODES - 1 + past
    f = random_field(grid, 0.3, 9, band=band)
    assert len(f._eval_bands[0]) == band + 1
    assert (f._eval_tables[0] is not None) == bool(past)
    x = _table_points(256, np.random.default_rng(14))
    err = np.max(np.abs(evaluate(f, x) - _direct_sum(f, x)))
    assert err <= 1e-14 * np.sum(np.abs(f.coeffs))


@pytest.mark.parametrize("modes", [8, 64, 256, 1024])
def test_taylor_depth_bounds_the_remainder_by_the_unit_roundoff(modes):
    # (K pi/F)^{p+1}/(p+1)! <= 2^-53 at the smallest such depth, for every
    # band K <= N/2 of a table on F = 8N rows; 12 terms always suffice
    rows = spectral._TABLE_OVERSAMPLE * modes
    for k_max in range(modes // 2 + 1):
        depth = spectral._taylor_depth(k_max, rows)
        r = k_max * np.pi / rows
        assert r ** depth / math.factorial(depth) <= 2.0 ** -53
        assert depth == 1 or r ** (depth - 1) / math.factorial(depth - 1) > 2.0 ** -53
        assert depth <= 12


def test_evaluate_table_reads_nan_and_far_points_without_warning():
    # a NaN point has no table row: it gets a NaN value and no warning (pytest
    # turns warnings into errors), and a point past the table's reach gets
    # Horner's value, in any batch
    f = random_field(GridSpec(1, 64), 0.3, 9)
    far = spectral._TABLE_REACH * 2.0 * np.pi / (spectral._TABLE_OVERSAMPLE * 64) + 3.0
    x = np.array([[0.4], [np.nan], [far], [1.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate(f, x)
    assert np.isnan(got[1, 0]) and not np.any(np.isnan(got[[0, 2, 3], 0]))
    horner = spectral._horner_eval(f._eval_bands[0], np.array([far, far]))[0]
    assert got[2, 0] == horner
    assert np.array_equal(evaluate(f, x[:2]), got[:2], equal_nan=True)
    assert np.array_equal(evaluate(f, x[2:3]), got[2:3])


@pytest.mark.parametrize("field", [
    random_field(GridSpec(1, 64), 0.3, 9, band=5),
    random_field(GridSpec(1, 64), 0.3, 9),
    random_field(GridSpec(2, 16), 0.3, 9),
], ids=["horner", "table", "2d"])
def test_evaluate_reads_non_finite_points_as_nan(field):
    # a NaN or infinite coordinate reads NaN in its row and raises no warning
    # (pytest turns warnings into errors); every other row is the value it
    # has in a batch without the bad row, bit for bit
    d = field.grid.dimension
    good = np.random.default_rng(16).uniform(0.0, 2.0 * np.pi, size=(5, d))
    want = evaluate(field, good)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.insert(good, 2, [bad] + [0.5] * (d - 1), axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate(field, x)
        assert np.all(np.isnan(got[2]))
        assert np.array_equal(np.delete(got, 2, axis=0), want)


def test_evaluate_full_band_takes_the_table(monkeypatch):
    # a wide band never reaches Horner's rule, a narrow one always does
    grid = GridSpec(1, 256)
    wide, narrow = random_field(grid, 0.3, 9), random_field(grid, 0.3, 9, band=5)
    assert wide._eval_tables[0].shape == (8 * 256, 12)
    assert narrow._eval_tables == [None]

    def refuse(a, x):
        raise AssertionError("Horner's rule ran on a wide band")

    monkeypatch.setattr(spectral, "_horner_eval", refuse)
    evaluate(wide, np.linspace(0.0, 7.0, 50)[:, None])
    with pytest.raises(AssertionError, match="Horner"):
        evaluate(narrow, np.zeros((2, 1)))


@pytest.mark.parametrize("dim", [1, 2])
def test_evaluate_refuses_non_hermitian_coeffs(dim):
    f = single_mode(GridSpec(dim, 16), 3)
    with pytest.raises(ValueError, match="Hermitian residue"):
        evaluate(f, np.zeros((4, dim)))


def test_evaluate_periodicity(grid64, sine_field):
    a = evaluate(sine_field, np.array([[0.7]]))
    b = evaluate(sine_field, np.array([[0.7 + 2 * np.pi]]))
    assert abs(a - b).max() < 1e-11


# --- time fields -------------------------------------------------------------------


def test_time_field_interpolation(grid64):
    f0 = SpectralField.constant(grid64, 0.0)
    f1 = SpectralField.constant(grid64, 1.0)
    tf = TimeField.from_nodes([f0, f1], 1.0)
    mid = tf.at_time(0.25)
    assert abs(mid.coeffs[0, 0] - 0.25) < 1e-15
    assert abs(tf.at_time(1.0).coeffs[0, 0] - 1.0) == 0.0
    for t in (1.5, np.nan):
        with pytest.raises(ValueError, match="outside"):
            tf.at_time(t)
    # at a node time the field is the node, and the node is the
    # interpolation's coefficients bit for bit
    tf = random_time_field(grid64, 4, 0.1, seed=2)
    for m, t in enumerate(tf.times):
        nxt = tf.coeffs[min(m + 1, tf.nodes)]
        assert np.array_equal(tf.at_time(t).coeffs, tf.node(m).coeffs)
        assert np.array_equal(tf.node(m).coeffs, 1.0 * tf.coeffs[m] + 0.0 * nxt)


def test_time_field_reversal(grid64):
    nodes = [SpectralField.constant(grid64, float(m)) for m in range(4)]
    tf = TimeField.from_nodes(nodes, 1.0)
    rev = tf.reversed_time()
    for m in range(4):
        assert rev.node(m).coeffs[0, 0] == tf.node(3 - m).coeffs[0, 0]


def test_time_field_validation(grid64):
    # an infinite horizon would put every finite time at node 0
    for horizon in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="horizon"):
            TimeField(grid64, horizon, np.zeros((2, 1, 64), dtype=complex))
    with pytest.raises(ValueError):
        TimeField(grid64, 1.0, np.zeros((1, 1, 64), dtype=complex))


_OPERATORS = {
    "bessel_power": lambda f: bessel_power(f, -0.5),
    "heat_semigroup": lambda f: heat_semigroup(f, 0.01),
    "mollify": lambda f: mollify(f, 8.0),
    "dyadic_cutoff": lambda f: dyadic_cutoff(f, 3),
    "gradient": gradient,
    "refine": refine,
    "coarsen": coarsen,
    "dealiased_multiply": lambda f: dealiased_multiply(f, f),
    "drift_gradient_product": lambda f: drift_gradient_product(f, f),
}


def _changing_drift(dim, modes):
    spec = DriftSpec(family="random-fourier", seed=42, beta=0.25, amplitude=0.25,
                     changes=3)
    return generate(spec, GridSpec(dim, modes), 1.0, 6)


@pytest.mark.parametrize("name", sorted(_OPERATORS))
@pytest.mark.parametrize("dim, modes", [(1, 64), (2, 16)])
def test_operators_act_on_every_node_at_once(name, dim, modes):
    b = _changing_drift(dim, modes)
    op = _OPERATORS[name]
    whole = op(b)
    per_node = [op(b.node(m)) for m in range(b.nodes + 1)]
    assert type(whole) is TimeField and whole.horizon == b.horizon
    assert whole.grid == per_node[0].grid
    assert np.array_equal(whole.coeffs, np.stack([f.coeffs for f in per_node]))
    assert np.array_equal(whole.values(), np.stack([f.values() for f in per_node]))


@pytest.mark.parametrize("dim, modes", [(1, 64), (2, 16)])
def test_norms_of_a_time_field_are_per_node(dim, modes):
    b = _changing_drift(dim, modes)
    for norm in (lambda f: sobolev_norm(f, SobolevIndex(-0.25, 2.0)),
                 lambda f: lp_grid_norm(f, np.inf)):
        assert np.array_equal(norm(b), [norm(b.node(m)) for m in range(b.nodes + 1)])
    # p != 2 takes the final root elementwise over the nodes, which may round
    # differently from the scalar root of a single field
    for norm in (lambda f: sobolev_norm(f, SobolevIndex(-0.25, 3.0)),
                 lambda f: lp_grid_norm(gradient(f), 4.0 / 3.0)):
        ref = np.array([norm(b.node(m)) for m in range(b.nodes + 1)])
        assert np.allclose(norm(b), ref, rtol=1e-14, atol=0.0)


def test_time_field_values_refuse_one_non_hermitian_node(grid64):
    coeffs = np.zeros((3, 1, 64), dtype=complex)
    coeffs[0, 0, 0] = 1e12       # a large real node
    coeffs[1, 0, 1] = 1.0        # node 1 has no Hermitian partner
    # relative to the whole field the residue is 1e-12, below the guard's
    # tolerance; relative to node 1 it is 1
    with pytest.raises(ValueError, match="imaginary residue"):
        TimeField(grid64, 1.0, coeffs).values()


# --- snapshots ---------------------------------------------------------------------


def test_time_field_snapshot_roundtrip(tmp_path, rough_drift64):
    p = save_time_field(rough_drift64, tmp_path / "b.bin",
                        extra={"tag": 7})
    back = load_time_field(p)
    assert np.array_equal(back.coeffs, rough_drift64.coeffs)
    assert back.horizon == rough_drift64.horizon
    meta = (tmp_path / "b.bin.json").read_text()
    assert '"tag": 7' in meta
    assert json.loads(meta)["real_flag"] is True


@pytest.mark.parametrize("flag", [False, None])
def test_load_time_field_refuses_sidecar_not_marked_real(tmp_path, rough_drift64, flag):
    p = save_time_field(rough_drift64, tmp_path / "b.bin")
    side = tmp_path / "b.bin.json"
    meta = json.loads(side.read_text())
    if flag is None:
        del meta["real_flag"]
    else:
        meta["real_flag"] = flag
    side.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="real"):
        load_time_field(p)


def test_load_time_field_refuses_another_period(tmp_path, rough_drift64):
    p = save_time_field(rough_drift64, tmp_path / "b.bin")
    side = tmp_path / "b.bin.json"
    meta = json.loads(side.read_text())
    assert meta["L"] == 2.0 * np.pi
    side.write_text(json.dumps({**meta, "L": 1.0}))
    with pytest.raises(ValueError, match="L = 1.0"):
        load_time_field(p)


def test_load_time_field_refuses_non_hermitian_coefficients(tmp_path, rough_drift64):
    coeffs = np.array(rough_drift64.coeffs)
    coeffs[-1, 0, 5] += 0.1j     # breaks c_{-k} = conj(c_k) at the last node only
    tf = TimeField(rough_drift64.grid, rough_drift64.horizon, coeffs)
    p = save_time_field(tf, tmp_path / "b.bin")
    assert json.loads((tmp_path / "b.bin.json").read_text())["real_flag"] is True
    with pytest.raises(ValueError, match="not real"):
        load_time_field(p)
