"""Regularized products of rough periodic fields.

The product of f and g is defined as the limit of S^j f * S^j g, where S^j is
the smooth dyadic low-pass at radius 2^j.  Each stage is multiplied exactly on
a 2x zero-padded grid (no aliasing).  The solver uses one fixed stage,
SOLVER_STAGE.  The reference `product` advances the stage index until the
successive difference measured in a negative-order Bessel norm drops below a
tolerance; if the lattice runs out of scales first the product does not
stabilize at this resolution and NonConvergent is raised.
"""

from __future__ import annotations

import numpy as np

from .spectral import (
    GridSpec,
    SobolevIndex,
    SpectralField,
    dyadic_cutoff,
    gradient,
    sobolev_norm,
)

__all__ = [
    "NonConvergent",
    "SOLVER_STAGE",
    "dealiased_multiply",
    "product",
    "drift_gradient_product",
    "ladder_agrees",
    "product_bound_ratio",
]

_FIRST_STAGE = 3  # the cutoff radius 2^3 already covers the smallest grids' core

# The solver's product stage: low-pass at |k| <= 16, zero from |k| >= 24.
# The adaptive ladder, at the tolerance the solver gave it (see
# ladder_agrees), stopped here on every solver product measured, so fixing
# it changed no result and saves a multiply and a Bessel norm per term.
SOLVER_STAGE = 4


class NonConvergent(Exception):
    """Dyadic stages exhausted the lattice before the tail fell below tol."""


def _pad_indices(grid: GridSpec) -> np.ndarray:
    """Fine-lattice index of each coarse wavenumber (fine grid is 2N)."""
    n = grid.modes_per_axis
    return grid.wavenumbers() % (2 * n)


def _pad_coeffs(f: SpectralField) -> np.ndarray:
    """Embed coefficients into the 2N lattice (exact for band-limited fields).

    The coarse Nyquist plane k = -N/2 has no +N/2 partner, so its weight is
    split evenly between the two fine slots.  This is the canonical real
    zero-pad: values at coarse grid points and the conjugate symmetry of real
    fields are both preserved exactly.
    """
    g = f.grid
    n = g.modes_per_axis
    fi = _pad_indices(g)
    fine = np.zeros((f.components,) + (2 * n,) * g.dimension, dtype=complex)
    comp = np.arange(f.components)
    if g.dimension == 1:
        fine[np.ix_(comp, fi)] = f.coeffs
    else:
        fine[np.ix_(comp, fi, fi)] = f.coeffs
    for axis in range(1, g.dimension + 1):
        minus = [slice(None)] * fine.ndim
        plus = [slice(None)] * fine.ndim
        minus[axis] = 3 * n // 2      # slot of k = -N/2 on the doubled lattice
        plus[axis] = n // 2           # slot of k = +N/2
        fine[tuple(minus)] *= 0.5
        fine[tuple(plus)] = fine[tuple(minus)]
    return fine

def _truncate_coeffs(fine: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Project 2N-lattice coefficients back onto the coarse lattice.

    The +N/2 hyperplanes (absent from the coarse lattice) are folded onto the
    -N/2 slots; on coarse grid points the two modes agree, and for real fields
    the fold keeps Hermitian symmetry intact.
    """
    n = grid.modes_per_axis
    d = grid.dimension
    fi = _pad_indices(grid)
    full_dst = np.arange(n)
    nyq = np.array([n // 2])
    comps = np.arange(fine.shape[0])
    out = np.zeros((fine.shape[0],) + grid.spatial_shape, dtype=complex)
    for mask in range(2 ** d):
        src, dst = [], []
        for ax in range(d):
            if (mask >> ax) & 1:
                src.append(nyq)       # fine +N/2 plane
                dst.append(nyq)       # coarse -N/2 slot
            else:
                src.append(fi)
                dst.append(full_dst)
        out[np.ix_(comps, *dst)] += fine[np.ix_(comps, *src)]
    return out


def dealiased_multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product computed alias-free on the 2x oversampled grid."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    if f.components != 1 or g.components != 1:
        raise ValueError("dealiased product is defined for scalar fields")
    grid = f.grid
    n2 = (2 * grid.modes_per_axis) ** grid.dimension
    axes = tuple(range(1, grid.dimension + 1))
    vf = np.fft.ifftn(_pad_coeffs(f) * n2, axes=axes)
    vg = np.fft.ifftn(_pad_coeffs(g) * n2, axes=axes)
    fine = np.fft.fftn(vf * vg, axes=axes) / n2
    coeffs = _truncate_coeffs(fine, grid)
    return SpectralField(grid, coeffs, f.real_flag and g.real_flag)


def _stage(f: SpectralField, g: SpectralField, j: int) -> SpectralField:
    return dealiased_multiply(dyadic_cutoff(f, j), dyadic_cutoff(g, j))


def product(f: SpectralField, g: SpectralField, tol: float, idx: SobolevIndex) -> SpectralField:
    """Regularized product lim_j S^j f * S^j g.

    Returns the first stage whose successive difference in the idx norm falls
    below tol.  Raises NonConvergent once the cutoff covers the whole lattice
    (the stages can no longer change) while the difference is still >= tol.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    kmax = f.grid.max_kappa()
    j = _FIRST_STAGE
    prev = _stage(f, g, j)
    while True:
        j += 1
        cur = _stage(f, g, j)
        diff = sobolev_norm(cur - prev, idx)
        if diff < tol:
            return cur
        if 2.0 ** j >= kmax:
            raise NonConvergent(
                f"dyadic tail {diff:.3e} still above tol {tol:.3e} at stage {j} "
                f"(lattice covered; the product does not stabilize at this resolution)"
            )
        prev = cur


def _drift_gradient(b: SpectralField, u: SpectralField, mult) -> SpectralField:
    """sum_j mult(b_j, d_j u_i), componentwise in u; b has one component per axis."""
    d = b.grid.dimension
    if b.components != d:
        raise ValueError(f"drift must have {d} components, got {b.components}")
    grad = gradient(u)  # components ordered (i, axis) row-major
    out = np.zeros_like(u.coeffs)
    flag = b.real_flag and u.real_flag
    for i in range(u.components):
        for ax in range(d):
            term = mult(b.component(ax), grad.component(i * d + ax))
            out[i] += term.coeffs[0]
            flag = flag and term.real_flag
    return SpectralField(u.grid, out, flag)


def drift_gradient_product(b: SpectralField, u: SpectralField) -> SpectralField:
    """Regularized b . grad(u), each term S^J b_j * S^J d_j u_i at J = SOLVER_STAGE."""
    return _drift_gradient(b, u, lambda f, g: _stage(f, g, SOLVER_STAGE))


def ladder_agrees(b: SpectralField, u: SpectralField, idx: SobolevIndex) -> bool:
    """Whether the reference ladder stops at SOLVER_STAGE for b . grad(u).

    Each term goes through `product` at the tolerance the adaptive solver
    used, 2 (1 + ||grad u||_{L^2}) in the idx norm, and the sum is compared
    bitwise with drift_gradient_product.  False means the ladder refines past
    the solver's stage here; NonConvergent from the ladder propagates.
    """
    grid = u.grid
    grad_l2 = np.sqrt(grid.period ** grid.dimension
                      * np.sum(grid.kappa_sq()[None] * np.abs(u.coeffs) ** 2))
    tol = 2.0 * (1.0 + grad_l2)
    ladder = _drift_gradient(b, u, lambda f, g: product(f, g, tol, idx))
    return bool(np.array_equal(ladder.coeffs, drift_gradient_product(b, u).coeffs))


def product_bound_ratio(f: SpectralField, g: SpectralField, beta: float,
                        delta: float, p: float, q: float,
                        tol: float | None = None) -> float:
    """||fg||_{H^{-beta}_p} / (||f||_{H^delta_p} ||g||_{H^{-beta}_q}).

    The smooth/rough product estimate says this is bounded by a constant for
    0 < beta < delta and q > max(p, d/delta); the ratio makes the constant
    observable.
    """
    nf = sobolev_norm(f, SobolevIndex(delta, p))
    ng = sobolev_norm(g, SobolevIndex(-beta, q))
    if nf == 0.0 or ng == 0.0:
        return 0.0
    if tol is None:
        tol = 2.0 * (1.0 + nf * ng)
    fg = product(f, g, tol, SobolevIndex(-beta, p))
    return sobolev_norm(fg, SobolevIndex(-beta, p)) / (nf * ng)
