"""Regularized products against convolution and trigonometric oracles."""

import numpy as np
import pytest

from singular_drift.spectral import GridSpec, SobolevIndex, SpectralField, evaluate
from singular_drift.paraproduct import (
    SOLVER_STAGE,
    NonConvergent,
    _pad_coeffs,
    _truncate_coeffs,
    dealiased_multiply,
    drift_gradient_product,
    ladder_agrees,
    product,
    product_bound_ratio,
)
from singular_drift.drifts import _power_profile, _unit_phases

from conftest import single_mode

IDX = SobolevIndex(-0.25, 2.0)


def _random_field(grid, eta, seed, band=None):
    rng = np.random.Generator(np.random.Philox(key=seed))
    coeffs = _power_profile(grid, eta) * _unit_phases(rng, grid.spatial_shape)
    if band is not None:
        keep = np.sqrt(grid.kappa_sq()) <= band
        coeffs = coeffs * keep
    return SpectralField(grid, coeffs[None])


def _brute_convolution(f, g):
    """Full linear convolution of the coefficient sequences, truncated to the
    lattice; valid when the product bandwidth fits (band_f + band_g < N/2)."""
    n = f.grid.modes_per_axis
    a = np.fft.fftshift(f.coeffs[0])              # index i holds k = i - N/2
    b = np.fft.fftshift(g.coeffs[0])
    full = np.convolve(a, b)                      # index j holds k = j - N
    out = np.fft.ifftshift(full[n // 2 : 3 * n // 2])
    return SpectralField(f.grid, out[None], f.real_flag and g.real_flag)


# --- zero padding ------------------------------------------------------------------


def test_pad_truncate_roundtrip(grid64):
    f = _random_field(grid64, 0.3, 11)
    fine = _pad_coeffs(f)
    back = _truncate_coeffs(fine, grid64)
    assert np.max(np.abs(back - f.coeffs)) < 1e-15


def test_pad_preserves_point_values(grid64):
    # the padded field is the same trigonometric polynomial on coarse nodes
    rng = np.random.default_rng(5)
    f = SpectralField.from_grid(grid64, rng.standard_normal((1, 64)))
    fine_grid = GridSpec(1, 128, grid64.period)
    fine = SpectralField(fine_grid, _pad_coeffs(f), f.real_flag)
    assert np.max(np.abs(fine.values()[0][::2] - f.values()[0])) < 1e-12


def test_pad_keeps_real_fields_real(grid64):
    # including a loaded Nyquist mode, the worst case for symmetry
    coeffs = np.zeros((1, 64), dtype=complex)
    coeffs[0, 32] = 0.7                            # k = -N/2
    coeffs[0, 1] = -0.5j
    coeffs[0, -1] = 0.5j
    f = SpectralField(grid64, coeffs)
    fine = SpectralField(GridSpec(1, 128, grid64.period), _pad_coeffs(f), True)
    vals = fine.values()                           # raises if symmetry broke
    assert vals.shape == (1, 128)


def test_pad_truncate_roundtrip_2d(grid64_2d):
    rng = np.random.Generator(np.random.Philox(key=12))
    coeffs = _power_profile(grid64_2d, 0.5) * _unit_phases(rng, grid64_2d.spatial_shape)
    f = SpectralField(grid64_2d, coeffs[None])
    back = _truncate_coeffs(_pad_coeffs(f), grid64_2d)
    assert np.max(np.abs(back - f.coeffs)) < 1e-15


# --- dealiased multiplication --------------------------------------------------------


def test_dealiased_multiply_trig_identity(grid64):
    x = grid64.axis_points()
    s = SpectralField.from_grid(grid64, np.sin(x)[None])
    prod = dealiased_multiply(s, s)
    want = SpectralField.from_grid(grid64, (0.5 * (1 - np.cos(2 * x)))[None])
    assert np.max(np.abs(prod.coeffs - want.coeffs)) < 1e-14


def test_dealiased_multiply_drops_aliases(grid64):
    x = grid64.axis_points()
    f = SpectralField.from_grid(grid64, np.cos(20 * x)[None])
    g = SpectralField.from_grid(grid64, np.cos(21 * x)[None])
    # cos20x cos21x = (cos x + cos 41x)/2; mode 41 does not fit on N=64
    prod = dealiased_multiply(f, g)
    assert abs(prod.coeffs[0, 1] - 0.25) < 1e-14
    assert abs(prod.coeffs[0, -1] - 0.25) < 1e-14
    assert np.max(np.abs(prod.coeffs[0, 2:-1])) < 1e-14   # alias 41 -> 23 absent
    naive = SpectralField.from_grid(grid64, (f.values() * g.values()))
    assert abs(naive.coeffs[0, 23]) > 0.2                 # the alias it avoids


def test_dealiased_multiply_2d(grid64_2d):
    x = grid64_2d.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    f = SpectralField.from_grid(grid64_2d, (np.sin(xx) * np.sin(yy))[None])
    prod = dealiased_multiply(f, f)
    want = SpectralField.from_grid(
        grid64_2d, (0.25 * (1 - np.cos(2 * xx)) * (1 - np.cos(2 * yy)))[None])
    assert np.max(np.abs(prod.coeffs - want.coeffs)) < 1e-14


def test_dealiased_multiply_rejects_mismatch(grid64, grid64_2d):
    f = single_mode(grid64, 1)
    g = single_mode(GridSpec(1, 128, grid64.period), 1)
    with pytest.raises(ValueError):
        dealiased_multiply(f, g)
    two = SpectralField(grid64, np.zeros((2, 64), dtype=complex))
    with pytest.raises(ValueError):
        dealiased_multiply(two, f)


# --- the regularized product ----------------------------------------------------------


def test_product_bandlimited_equals_convolution(grid64):
    f = _random_field(grid64, 0.3, 21, band=8)
    g = _random_field(grid64, 1.2, 22, band=8)
    got = product(f, g, 1e-10, IDX)
    want = _brute_convolution(f, g)
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-12


def test_product_bandlimited_ladder_terminates_exactly(grid64):
    # once the cutoff covers the band the stages repeat: any tol works
    f = _random_field(grid64, 0.3, 23, band=8)
    g = _random_field(grid64, 0.8, 24, band=8)
    tight = product(f, g, 1e-14, IDX)
    loose = product(f, g, 1.0, IDX)
    assert np.array_equal(tight.coeffs, loose.coeffs)


def test_product_commutes(grid64):
    f = _random_field(grid64, 0.3, 25, band=12)
    g = _random_field(grid64, 1.0, 26, band=12)
    fg = product(f, g, 1e-10, IDX)
    gf = product(g, f, 1e-10, IDX)
    assert np.max(np.abs(fg.coeffs - gf.coeffs)) < 1e-14


def test_product_full_lattice_raises_at_tiny_tol(grid64):
    # near-critical spectra fill every octave; the dyadic tail cannot reach
    # 1e-12 before the cutoff covers the lattice
    f = _random_field(grid64, 0.3, 27)
    g = _random_field(grid64, 0.3, 28)
    with pytest.raises(NonConvergent, match="does not stabilize"):
        product(f, g, 1e-12, IDX)


def test_product_rejects_bad_tol(grid64, sine_field):
    with pytest.raises(ValueError):
        product(sine_field, sine_field, 0.0, IDX)


def test_drift_gradient_product_trig_oracle(grid64):
    # sin(x) * d/dx cos(2x) = -2 sin x sin 2x = cos 3x - cos x
    x = grid64.axis_points()
    b = SpectralField.from_grid(grid64, np.sin(x)[None])
    u = SpectralField.from_grid(grid64, np.cos(2 * x)[None])
    out = drift_gradient_product(b, u)
    want = SpectralField.from_grid(grid64, (np.cos(3 * x) - np.cos(x))[None])
    assert np.max(np.abs(out.coeffs - want.coeffs)) < 1e-13


def test_drift_gradient_product_2d_oracle(grid64_2d):
    # b = (sin y, 0), u = cos x: b . grad u = -sin y sin x
    x = grid64_2d.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    bc = np.stack([np.sin(yy), np.zeros_like(yy)])
    b = SpectralField.from_grid(grid64_2d, bc)
    u = SpectralField.from_grid(grid64_2d, np.cos(xx)[None])
    out = drift_gradient_product(b, u)
    want = SpectralField.from_grid(grid64_2d, (-np.sin(yy) * np.sin(xx))[None])
    assert np.max(np.abs(out.coeffs - want.coeffs)) < 1e-13


def test_drift_gradient_product_checks_components(grid64, sine_field):
    b2 = SpectralField(grid64, np.zeros((2, 64), dtype=complex))
    with pytest.raises(ValueError):
        drift_gradient_product(b2, sine_field)


def test_ladder_disagrees_when_the_drift_sits_past_the_stage():
    # b = A cos(20x) is cut by the stage-4 low-pass (1 up to |k| = 16, 0 from
    # 24) and dropped by stage 3, so with a large enough A the ladder refines
    # past stage 4 and returns the full product at stage 6
    grid = GridSpec(1, 128, 2.0 * np.pi)
    x = grid.axis_points()
    b = SpectralField.from_grid(grid, (1e3 * np.cos(20 * x))[None])
    u = SpectralField.from_grid(grid, (0.01 * np.sin(x))[None])
    assert SOLVER_STAGE == 4
    assert not ladder_agrees(b, u, IDX)
    assert ladder_agrees(b, 1e-6 * u, IDX)


# --- the observable product constant ---------------------------------------------------


def test_product_bound_ratio_zero_factor(grid64, sine_field):
    zero = SpectralField.zero(grid64)
    assert product_bound_ratio(zero, sine_field, 0.25, 0.5, 2.0, 3.0) == 0.0


def test_product_bound_ratio_positive_and_stable(grid64):
    beta, delta, p, q = 0.25, 0.5, 2.5, 3.0
    fine_grid = GridSpec(1, 128, grid64.period)
    drifts = []
    for seed in range(10):
        f = _random_field(grid64, 2.0, 100 + seed)
        g = _random_field(grid64, 0.3, 200 + seed)
        r = product_bound_ratio(f, g, beta, delta, p, q)
        assert np.isfinite(r) and r > 0
        f2 = SpectralField(fine_grid, _pad_coeffs(f), f.real_flag)
        g2 = SpectralField(fine_grid, _pad_coeffs(g), g.real_flag)
        r2 = product_bound_ratio(f2, g2, beta, delta, p, q)
        drifts.append(abs(r2 - r) / r)
    assert max(drifts) < 0.05
