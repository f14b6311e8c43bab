"""Regularized products against convolution and trigonometric oracles."""

import numpy as np
import pytest

from singular_drift.spectral import (
    GridSpec,
    SobolevIndex,
    SpectralField,
    gradient,
    sobolev_norm,
)
from singular_drift.paraproduct import (
    NonConvergent,
    dealiased_multiply,
    ladder_agrees,
    product,
)
from conftest import random_field, single_mode

IDX = SobolevIndex(-0.25, 2.0)


def _brute_convolution(f, g):
    """Full linear convolution of the coefficient sequences, truncated to the
    lattice; valid when the product bandwidth fits (band_f + band_g < N/2)."""
    n = f.grid.modes_per_axis
    a = np.fft.fftshift(f.coeffs[0])              # index i holds k = i - N/2
    b = np.fft.fftshift(g.coeffs[0])
    full = np.convolve(a, b)                      # index j holds k = j - N
    out = np.fft.ifftshift(full[n // 2 : 3 * n // 2])
    return SpectralField(f.grid, out[None])


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


def test_dealiased_multiply_pairs_components(grid64):
    f = SpectralField(grid64, np.concatenate([random_field(grid64, 0.3, 31).coeffs,
                                              random_field(grid64, 0.8, 32).coeffs]))
    g = SpectralField(grid64, np.concatenate([random_field(grid64, 1.2, 33).coeffs,
                                              random_field(grid64, 0.5, 34).coeffs]))
    both = dealiased_multiply(f, g)
    for i in range(2):
        one = dealiased_multiply(f.component(i), g.component(i))
        assert np.array_equal(both.component(i).coeffs, one.coeffs)


def test_dealiased_multiply_rejects_mismatch(grid64, grid64_2d):
    f = single_mode(grid64, 1)
    g = single_mode(GridSpec(1, 128), 1)
    with pytest.raises(ValueError):
        dealiased_multiply(f, g)
    two = SpectralField(grid64, np.zeros((2, 64), dtype=complex))
    with pytest.raises(ValueError):
        dealiased_multiply(two, f)


# --- the regularized product ----------------------------------------------------------


def test_product_bandlimited_equals_convolution(grid64):
    f = random_field(grid64, 0.3, 21, band=8)
    g = random_field(grid64, 1.2, 22, band=8)
    got = product(f, g, 1e-10, IDX)
    want = _brute_convolution(f, g)
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-12


def test_product_bandlimited_ladder_terminates_exactly(grid64):
    # once the cutoff covers the band the stages repeat: any tol works
    f = random_field(grid64, 0.3, 23, band=8)
    g = random_field(grid64, 0.8, 24, band=8)
    tight = product(f, g, 1e-14, IDX)
    loose = product(f, g, 1.0, IDX)
    assert np.array_equal(tight.coeffs, loose.coeffs)


def test_product_commutes(grid64):
    f = random_field(grid64, 0.3, 25, band=12)
    g = random_field(grid64, 1.0, 26, band=12)
    fg = product(f, g, 1e-10, IDX)
    gf = product(g, f, 1e-10, IDX)
    assert np.max(np.abs(fg.coeffs - gf.coeffs)) < 1e-14


def test_product_full_lattice_raises_at_tiny_tol(grid64):
    # near-critical spectra fill every octave; the dyadic tail cannot reach
    # 1e-12 before the cutoff covers the lattice
    f = random_field(grid64, 0.3, 27)
    g = random_field(grid64, 0.3, 28)
    with pytest.raises(NonConvergent, match="does not stabilize"):
        product(f, g, 1e-12, IDX)


def test_product_rejects_bad_tol(grid64, sine_field):
    with pytest.raises(ValueError):
        product(sine_field, sine_field, 0.0, IDX)


def test_ladder_disagrees_with_the_lattice_product_in_its_blind_spot():
    # b = A cos(28x) lies outside the stage-3 and stage-4 low-passes, so the
    # ladder stops on their agreeing zeros, while the lattice product
    # b * d/dx(0.01 sin x) reads 5.94 in H^{-1/4}_2, past the tolerance 2.04
    grid = GridSpec(1, 64)
    x = grid.axis_points()
    b = SpectralField.from_grid(grid, (1e3 * np.cos(28 * x))[None])
    u = SpectralField.from_grid(grid, (0.01 * np.sin(x))[None])
    assert not ladder_agrees(b, u, IDX)
    assert ladder_agrees(b, 1e-6 * u, IDX)
    # A cos(20x) is dropped by stage 3 and partly kept by stage 4, so the two
    # differ and the ladder refines until it covers the mode: it finds the
    # lattice product
    grid = GridSpec(1, 128)
    x = grid.axis_points()
    b = SpectralField.from_grid(grid, (1e3 * np.cos(20 * x))[None])
    u = SpectralField.from_grid(grid, (0.01 * np.sin(x))[None])
    assert ladder_agrees(b, u, IDX)


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP item 2: the ladder stops once two stages agree, "
                          "so it cannot see energy that stages 3 and 4 both drop")
def test_ladder_sees_energy_past_two_agreeing_stages():
    # b = A cos(28x) lies outside the stage-3 and stage-4 low-passes (zero from
    # |k| = 12 and 24), so both stages read 0 and the ladder returns stage 4
    # (norm 7e-14); stages 5-7 and the full-lattice product read 5.297
    grid = GridSpec(1, 64)
    x = grid.axis_points()
    b = SpectralField.from_grid(grid, (1e3 * np.cos(28 * x))[None])
    g = gradient(SpectralField.from_grid(grid, (0.01 * np.sin(x))[None]))
    idx = SobolevIndex(-0.25, 2.5)
    try:
        got = product(b, g, 1.0, idx)
    except NonConvergent:
        return
    assert sobolev_norm(got - dealiased_multiply(b, g), idx) < 1.0

