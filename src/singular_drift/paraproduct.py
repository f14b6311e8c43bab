"""Regularized products of rough periodic fields.

The product of f and g is defined as the limit of S^j f * S^j g, where S^j is
the smooth dyadic low-pass at radius 2^j.  On an N-point lattice the limit is
reached once the low-pass covers the lattice, so it is the dealiased product
of the pair, multiplied exactly on a 2x zero-padded grid (no aliasing).
`dealiased_multiply` forms it for fields by `spectral._dealiased_product`,
the product on coefficient arrays whose two halves (`_real_samples`,
`_from_samples`) the solver's march takes for b . grad u; the solver does
not import this module.  The reference `product`
advances the stage index until the successive difference measured in a
negative-order Bessel norm drops below a tolerance; if the lattice runs out
of scales first the product does not stabilize at this resolution and
NonConvergent is raised.  `ladder_agrees` checks that the ladder finds the
solver's product.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .spectral import (
    _F,
    SobolevIndex,
    SpectralField,
    _check_compatible,
    _dealiased_product,
    dyadic_cutoff,
    gradient,
    sobolev_norm,
)

__all__ = [
    "NonConvergent",
    "dealiased_multiply",
    "product",
    "ladder_agrees",
]

_FIRST_STAGE = 3  # the cutoff radius 2^3 already covers the smallest grids' core


class NonConvergent(Exception):
    """Dyadic stages exhausted the lattice before the tail fell below tol."""


def dealiased_multiply(f: _F, g: _F) -> _F:
    """Pointwise product, alias-free: refine both factors to the 2N lattice,
    multiply their samples there, coarsen the product back.  Component by
    component and at every leading index of two compatible fields."""
    _check_compatible(f, g)
    return replace(f, coeffs=_dealiased_product(f.coeffs, g.coeffs, f.grid.dimension))


def _stage(f: _F, g: _F, j: int) -> _F:
    return dealiased_multiply(dyadic_cutoff(f, j), dyadic_cutoff(g, j))


def product(f: SpectralField, g: SpectralField, tol: float, idx: SobolevIndex) -> SpectralField:
    """Regularized product lim_j S^j f * S^j g.

    Returns the first stage whose successive difference in the idx norm falls
    below tol.  Raises NonConvergent once the cutoff covers the whole lattice
    (the stages can no longer change) while the difference is still >= tol.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    kmax = f.grid.modes_per_axis // 2 * np.sqrt(f.grid.dimension)    # largest |kappa|
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


def ladder_agrees(b: SpectralField, u: SpectralField, idx: SobolevIndex) -> bool:
    """Whether the reference ladder finds the solver's product of b . grad(u).

    Each term b_j * d_j u_i goes through `product` at the tolerance
    2 (1 + ||grad u||_{L^2}) in the idx norm and must lie within it of the
    term's lattice product.  False flags the ladder's blind spot, two agreeing
    stages that both miss energy the lattice holds.  NonConvergent propagates.
    """
    grid, d = u.grid, u.grid.dimension
    grad_l2 = np.sqrt(grid.period ** d
                      * np.sum(grid.kappa_sq()[None] * np.abs(u.coeffs) ** 2))
    tol = 2.0 * (1.0 + grad_l2)
    grad = gradient(u)                      # components ordered (i, axis) row-major
    terms = [(b.component(j), grad.component(i * d + j))
             for i in range(u.components) for j in range(d)]
    return all(sobolev_norm(product(f, g, tol, idx) - dealiased_multiply(f, g), idx) < tol
               for f, g in terms)
