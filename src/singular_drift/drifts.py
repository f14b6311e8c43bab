"""Rough drift generators and the admissibility window they must satisfy.

Drifts are d-component periodic fields of negative regularity -beta living in
an intersection of two Bessel spaces H^{-beta}_{q~} and H^{-beta}_q with
q~ = d/(1-beta) and q in (d/(1-beta), d/beta).  The generators are seeded and
bit-reproducible; the admissibility check measures the norms on the grid and
once more on the doubled grid so quadrature artifacts are visible.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .spectral import (
    GridSpec,
    SobolevIndex,
    SpectralField,
    TimeField,
    gradient,
    mollify,
    refine,
    sobolev_norm,
)

__all__ = [
    "InvalidSpec",
    "AssumptionViolated",
    "EmptyRegion",
    "DriftSpec",
    "KappaRegion",
    "AssumptionReport",
    "generate",
    "assumption_check",
    "pick_kappa",
    "mollified_sequence",
]

FAMILIES = ("random-fourier", "derivative-of-continuous", "smooth-test")


class InvalidSpec(Exception):
    """Drift family or parameters outside their domain."""


class AssumptionViolated(Exception):
    """The (beta, q) window or a norm bound failed."""


class EmptyRegion(Exception):
    """No admissible (delta, p) pair for this (beta, q)."""


@dataclass(frozen=True)
class DriftSpec:
    """Declarative description of a drift; generation is a pure function of it."""

    family: str
    seed: int
    beta: float
    eta: float = 0.3          # coefficient decay exponent |kappa|^{-eta}
    amplitude: float = 1.0
    changes: int = 0          # change points: 0 is static, k >= 1 is piecewise constant

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not (0.0 < self.beta < 0.5):
            raise InvalidSpec(f"beta must lie in (0, 1/2), got {self.beta}")
        if not 0.0 < self.eta < np.inf:
            raise InvalidSpec(f"decay exponent eta must be positive and finite, got {self.eta}")
        if not 0.0 <= self.amplitude < np.inf:
            raise InvalidSpec(f"amplitude must be nonnegative and finite, got {self.amplitude}")
        if int(self.changes) != self.changes or self.changes < 0:
            raise InvalidSpec("changes must be a nonnegative integer")
        object.__setattr__(self, "changes", int(self.changes))
        if int(self.seed) != self.seed or self.seed < 0:
            raise InvalidSpec("seed must be a nonnegative integer")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "DriftSpec":
        return DriftSpec(**d)


# --- random coefficient machinery -------------------------------------------


def _unit_phases(rng, shape):
    """Hermitian-symmetric unit-modulus phases on the lattice.

    The FFT of real white noise is Hermitian with uniform phases; dividing out
    the modulus leaves unit-circle factors (self-conjugate modes become +-1).
    """
    w = np.fft.fftn(rng.standard_normal(shape))
    mag = np.abs(w)
    mag[mag == 0.0] = 1.0   # probability-zero guard
    return w / mag


def _power_profile(grid: GridSpec, eta: float) -> np.ndarray:
    """|kappa|^{-eta} with the kappa=0 slot zeroed."""
    ks = grid.kappa_sq()
    prof = np.zeros_like(ks)
    nz = ks > 0
    prof[nz] = ks[nz] ** (-0.5 * eta)
    return prof


def _segment_field(spec: DriftSpec, grid: GridSpec, rng) -> SpectralField:
    d = grid.dimension
    if spec.family == "random-fourier":
        prof = _power_profile(grid, spec.eta)
        coeffs = np.stack(
            [spec.amplitude * prof * _unit_phases(rng, grid.spatial_shape) for _ in range(d)]
        )
        return SpectralField(grid, coeffs)
    if spec.family == "derivative-of-continuous":
        # b = grad F for a continuous random scalar F with one extra decay order
        prof = _power_profile(grid, spec.eta + 1.0)
        f = SpectralField(grid, (spec.amplitude * prof * _unit_phases(rng, grid.spatial_shape))[None])
        return gradient(f)
    # smooth-test: b_i(x) = amplitude * sin(x_i), one lattice mode per axis
    coeffs = np.zeros((d,) + grid.spatial_shape, dtype=complex)
    for ax in range(d):
        plus = [0] * d
        minus = [0] * d
        plus[ax] = 1
        minus[ax] = -1
        coeffs[(ax,) + tuple(plus)] = -0.5j * spec.amplitude
        coeffs[(ax,) + tuple(minus)] = 0.5j * spec.amplitude
    return SpectralField(grid, coeffs)


def generate(spec: DriftSpec, grid: GridSpec, horizon: float, steps: int) -> TimeField:
    """Drift sampled on the time grid t_m = m*horizon/steps.

    Piecewise drifts hold each coefficient draw on an equal subinterval and
    switch right-continuously at the change points.
    """
    if steps < 1:
        raise InvalidSpec("time grid needs at least one step")
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    segments = spec.changes + 1
    draws = np.stack([_segment_field(spec, grid, rng).coeffs for _ in range(segments)])
    # node m lies in segment floor(segments * m / steps), the last node in the last
    seg = np.minimum((np.arange(steps + 1) / steps * segments).astype(int), segments - 1)
    return TimeField(grid, horizon, draws[seg])


# --- admissibility ------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    beta: float
    q: float
    q_tilde: float
    sup_norm_q: float
    sup_norm_q_tilde: float
    sup_norm: float                     # intersection norm, sup over nodes
    node_norms: tuple
    refined_sup_norm: float             # same norm measured on the doubled grid
    refinement_change: float            # relative change under N -> 2N

    def to_dict(self) -> dict:
        d = asdict(self)
        d["node_norms"] = list(self.node_norms)
        return d


def assumption_check(b: TimeField, beta: float, q: float) -> AssumptionReport:
    """Verify the admissibility window and measure the drift norms.

    Requires beta in (0, 1/2) and q in (d/(1-beta), d/beta); the drift norm is
    sup_t max(||b(t)||_{H^{-beta}_{q~}}, ||b(t)||_{H^{-beta}_q}).  Raises
    AssumptionViolated when the window or finiteness fails.
    """
    d = b.grid.dimension
    if not (0.0 < beta < 0.5):
        raise AssumptionViolated(f"beta={beta} outside (0, 1/2)")
    lo, hi = d / (1.0 - beta), d / beta
    if not (lo < q < hi):
        raise AssumptionViolated(f"q={q} outside ({lo:.6g}, {hi:.6g}) for d={d}")
    q_tilde = d / (1.0 - beta)
    idx_q = SobolevIndex(-beta, q)
    idx_qt = SobolevIndex(-beta, q_tilde)

    norms_q, norms_qt = sobolev_norm(b, idx_q), sobolev_norm(b, idx_qt)
    node_norms = np.maximum(norms_q, norms_qt)
    fine = refine(b)
    refined = np.maximum(sobolev_norm(fine, idx_q), sobolev_norm(fine, idx_qt))
    sup_norm = float(np.max(node_norms))
    refined_sup = float(np.max(refined))
    if not np.isfinite(sup_norm):
        raise AssumptionViolated("drift norm is not finite")
    change = abs(refined_sup - sup_norm) / sup_norm if sup_norm > 0 else 0.0
    return AssumptionReport(
        beta=beta,
        q=q,
        q_tilde=q_tilde,
        sup_norm_q=float(np.max(norms_q)),
        sup_norm_q_tilde=float(np.max(norms_qt)),
        sup_norm=sup_norm,
        node_norms=tuple(node_norms.tolist()),
        refined_sup_norm=refined_sup,
        refinement_change=float(change),
    )


# --- the (delta, p) selection window -------------------------------------------


@dataclass(frozen=True)
class KappaRegion:
    """Admissible auxiliary exponents {(delta, p): beta < delta < 1-beta, d/delta < p < q}."""

    beta: float
    q: float
    dimension: int

    def __post_init__(self):
        if not (0.0 < self.beta < 0.5):
            raise EmptyRegion(f"beta={self.beta} leaves no delta window")
        if self.dimension not in (1, 2):
            raise EmptyRegion(f"unsupported dimension {self.dimension}")
        if not self.q > 1:
            raise EmptyRegion(f"q={self.q} must exceed 1")

    def contains(self, delta: float, p: float) -> bool:
        return (self.beta < delta < 1.0 - self.beta) and (self.dimension / delta < p < self.q)

    def is_empty(self) -> bool:
        # largest admissible p window opens at d/delta with delta -> 1-beta
        return self.q <= self.dimension / (1.0 - self.beta)


def pick_kappa(region: KappaRegion) -> tuple:
    """Canonical (delta, p) and p at the midpoint of (d/delta, q).

    delta is the midpoint 1/2 of its window (beta, 1-beta) when that leaves
    p room (q > 2d); otherwise the midpoint of (d/q, 1-beta), the deltas for
    which d/delta < q.  Raises EmptyRegion when no pair exists.
    """
    if region.is_empty():
        raise EmptyRegion(
            f"no (delta, p) with q={region.q} <= d/(1-beta)={region.dimension/(1-region.beta):.6g}"
        )
    delta = 0.5 * (region.beta + (1.0 - region.beta))  # = 1/2
    if region.q <= region.dimension / delta:
        # q <= 2d gives d/q >= 1/2 > beta, so d/q is the window's lower end
        delta = 0.5 * (region.dimension / region.q + 1.0 - region.beta)
    lo = region.dimension / delta
    p = 0.5 * (lo + region.q)
    # belt and braces: keep strictly inside the open interval
    p = min(max(p, np.nextafter(lo, np.inf)), np.nextafter(region.q, -np.inf))
    assert region.contains(delta, p)
    return delta, p


def mollified_sequence(b: TimeField, n_list) -> list:
    """Smooth approximations of b at the given mollification levels."""
    return [mollify(b, n) for n in n_list]
