"""Periodic spectral calculus on the torus [0, 2 pi)^d.

Fields are stored by their Fourier coefficients c_kappa with the convention
f(x) = sum_kappa c_kappa exp(i kappa.x), kappa = k in the FFT-ordered integer
lattice {-N/2, ..., N/2-1}^d.  All fractional-smoothness operators (Bessel
powers, heat semigroup, mollifiers) are diagonal multipliers in this basis;
the reference operator is A = I - Laplacian/2 with symbol 1 + |kappa|^2/2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from pathlib import Path
from typing import TypeVar

import numpy as np

__all__ = [
    "GridSpec",
    "SpectralField",
    "SobolevIndex",
    "TimeField",
    "bessel_power",
    "heat_semigroup",
    "gradient",
    "refine",
    "coarsen",
    "dyadic_cutoff",
    "mollify",
    "sobolev_norm",
    "lp_grid_norm",
    "singular_values_sq",
    "evaluate",
    "cutoff_profile",
    "save_time_field",
    "load_time_field",
]

_REAL_TOL = 1e-10  # relative imaginary residue allowed in grid values
_BAND_TOL = 2.0 ** -53  # unit roundoff: the relative tail a 1-D evaluation drops
# every 1-D band is read from a Taylor table of 8N rows, so |k dx| <= pi/16
# for every |k| <= N/2 and 12 Taylor terms reach the unit roundoff at any N.
# A table beats Horner's rule at every band: 2048 points at N = 256 (2-core
# Xeon) take 49 against 100 us at 2 folded modes, and 72 against 190 us at
# 11 with the slope
_TABLE_OVERSAMPLE = 8
# 2 pi = hi + lo to about 2^-88 relative (fdlibm's pio2_1 and pio2_1t, times 4):
# hi has 31 significant bits, so i hi is exact for every row index |i| <= 2^20
# that a point within _TABLE_REACH rows of 0 reads, and a point's offset from
# its row is read without the rounding of 2 pi
_TWO_PI_HI = float.fromhex("0x1.921fb544p+2")
_TWO_PI_LO = float.fromhex("0x1.0b4611a626331p-32")
_TABLE_REACH = 2.0 ** 20


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _is_count(n, least: int = 0) -> bool:
    """Whether n is an integer >= least; NaN and inf are not (int() raises)."""
    return float(n).is_integer() and n >= least


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on the torus [0, 2 pi)^d: d axes, N modes per axis, kappa = k.
    Its lattice symbols are memoized per (d, N), as read-only arrays."""

    dimension: int
    modes_per_axis: int
    period = 2.0 * np.pi    # a constant: a torus of period L rescales to this one

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        n = self.modes_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"modes_per_axis must be a power of two >= 8, got {n}")

    @property
    def spatial_shape(self) -> tuple:
        return (self.modes_per_axis,) * self.dimension

    @property
    def n_modes(self) -> int:
        return self.modes_per_axis ** self.dimension

    @property
    def spacing(self) -> float:
        return self.period / self.modes_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dimension

    @cache
    def kappa_axis(self) -> np.ndarray:
        """Wavenumbers along one axis in FFT order: the integers as floats."""
        return _read_only(np.fft.fftfreq(self.modes_per_axis, 1.0 / self.modes_per_axis))

    @cache
    def kappa_mesh(self) -> tuple:
        """One |shape|-broadcastable kappa array per axis."""
        ax = self.kappa_axis()
        return tuple(_read_only(k) for k in np.meshgrid(*([ax] * self.dimension), indexing="ij"))

    @cache
    def kappa_sq(self) -> np.ndarray:
        return _read_only(sum(k * k for k in self.kappa_mesh()))

    @cache
    def bessel_symbol(self) -> np.ndarray:
        """Symbol of A = I - Laplacian/2 on the lattice."""
        return _read_only(1.0 + 0.5 * self.kappa_sq())

    @cache
    def gradient_symbol(self) -> np.ndarray:
        """i kappa_axis for each axis, stacked: shape (d,) + spatial.  The
        Nyquist row on the differentiated axis is zeroed (its i kappa image
        has no Hermitian partner on the lattice)."""
        mults = np.stack([1j * k for k in self.kappa_mesh()])
        for axis in range(self.dimension):
            mults[(axis,) + (slice(None),) * axis + (self.modes_per_axis // 2,)] = 0.0
        return _read_only(mults)

    def axis_points(self) -> np.ndarray:
        n = self.modes_per_axis
        return np.arange(n) * self.spacing

    def grid_points(self) -> np.ndarray:
        """All grid nodes, shape (N^d, d), row-major."""
        ax = self.axis_points()
        if self.dimension == 1:
            return ax[:, None]
        mesh = np.meshgrid(*([ax] * self.dimension), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class SobolevIndex:
    """Regularity/integrability pair (s, p) for the Bessel scale."""

    s: float
    p: float

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError(f"integrability exponent must exceed 1, got {self.p}")


class _Field:
    """What a field and a field over time share: a grid and read-only
    coefficients of shape lead + (components,) + grid.spatial_shape, with
    `_lead` leading axes (none for a field, the node axis for a field over
    time).  The coefficients are a copy of the array given, unless that
    array owns its data and is read-only already: so the solver's march
    hands its array over without holding it twice.  The operators of this
    module act on the trailing component and spatial axes, so they apply to
    every leading index at once and return the input's own type.
    """

    _lead = 0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        d = self.grid.dimension
        if c.ndim != self._lead + 1 + d or c.shape[-d:] != self.grid.spatial_shape:
            lead = "(M+1, components)" if self._lead else "(components,)"
            raise ValueError(f"coeffs must have shape {lead}+{self.grid.spatial_shape}")
        owned = c.base is None and not c.flags.writeable
        object.__setattr__(self, "coeffs", c if owned else _read_only(c.copy()))

    @property
    def components(self) -> int:
        return self.coeffs.shape[-self.grid.dimension - 1]

    def values(self) -> np.ndarray:
        """Real grid samples, shape lead + (components,) + spatial; refuses
        samples whose imaginary residue, relative at each leading index,
        shows the coefficients are not Hermitian there."""
        v = np.fft.ifftn(self.coeffs * self.grid.n_modes, axes=_spatial_axes(self))
        per = _field_axes(self)
        scale = np.maximum(np.max(np.abs(v), axis=per), 1.0)
        resid = np.max(np.max(np.abs(v.imag), axis=per) / scale)
        if resid > _REAL_TOL:
            raise ValueError(
                f"field is not real: grid values have imaginary residue {resid:.3e}"
            )
        return v.real

    def component(self, i: int):
        return replace(self, coeffs=self.coeffs[_on(-self.grid.dimension - 1, slice(i, i + 1))])

    # --- arithmetic (linear ops preserve Hermitian symmetry) ---------------

    def __add__(self, other):
        _check_compatible(self, other)
        return replace(self, coeffs=self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_compatible(self, other)
        return replace(self, coeffs=self.coeffs - other.coeffs)

    def __mul__(self, scalar: float):
        return replace(self, coeffs=self.coeffs * float(scalar))

    __rmul__ = __mul__


_F = TypeVar("_F", bound=_Field)


def _spatial_axes(f: _Field) -> tuple:
    return tuple(range(-f.grid.dimension, 0))


def _on(axis: int, index) -> tuple:
    """An index that applies `index` to the trailing axis `axis` (negative)."""
    return (Ellipsis, index) + (slice(None),) * (-1 - axis)


def _run_starts(stack: np.ndarray) -> np.ndarray:
    """For each entry of a stack along its first axis, the first entry of its
    run of equal entries: entry m compares equal to entry _run_starts(stack)[m]
    in every element, so what is computed from one entry serves the whole
    run.  An entry holding a NaN starts a run of its own."""
    changed = np.any(stack[1:] != stack[:-1], axis=tuple(range(1, stack.ndim)))
    return np.maximum.accumulate(np.arange(len(stack)) * np.append(True, changed))


def _field_axes(f: _Field) -> tuple:
    """The component and spatial axes: everything one field holds."""
    return tuple(range(-f.grid.dimension - 1, 0))


def _check_compatible(f: _Field, g: _Field):
    def frame(h):
        return (type(h), h.coeffs.shape) + tuple(
            getattr(h, x.name) for x in fields(h) if x.name != "coeffs")

    if frame(f) != frame(g):
        raise ValueError("fields are not compatible: their type, grid, horizon, "
                         "nodes or components differ")


@dataclass(frozen=True)
class SpectralField(_Field):
    """Real band-limited field given by FFT-ordered Fourier coefficients.

    coeffs has shape (components,) + grid.spatial_shape, complex128, with
    Hermitian symmetry: every field is real, so grid values are real up to
    roundoff and `values` refuses coefficients whose samples are not.
    """

    grid: GridSpec
    coeffs: np.ndarray

    # --- construction -----------------------------------------------------

    @staticmethod
    def zero(grid: GridSpec, components: int = 1) -> "SpectralField":
        return SpectralField(grid, np.zeros((components,) + grid.spatial_shape, dtype=complex))

    @staticmethod
    def constant(grid: GridSpec, values) -> "SpectralField":
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        c = np.zeros((vals.size,) + grid.spatial_shape, dtype=complex)
        c[(slice(None),) + (0,) * grid.dimension] = vals
        return SpectralField(grid, c)

    @staticmethod
    def from_grid(grid: GridSpec, values) -> "SpectralField":
        """Collocate grid samples; values shape (components,)+spatial or spatial.

        The samples must be real: a real array, or a complex one with zero
        imaginary parts.  Any other complex input is refused.
        """
        v = np.asarray(values)
        if np.iscomplexobj(v) and np.any(v.imag):
            raise ValueError("grid samples have a nonzero imaginary part; fields are real")
        if v.ndim == grid.dimension:
            v = v[None]
        axes = tuple(range(1, grid.dimension + 1))
        coeffs = np.fft.fftn(v, axes=axes) / grid.n_modes
        return SpectralField(grid, coeffs)

    @cached_property
    def _eval_bands(self):
        """`evaluate`'s band per component, folded (None in 2-D; kept per field,
        its coefficients being read-only): a_k = c_k + conj(c_-k) for k = 0..K
        (`_bands`; K >= N/2 - 1 is the full lattice), but a_0 = c_0 and
        a_{N/2} = conj(c_-N/2).  Refuses coefficients with c_k != conj(c_-k)
        beyond _REAL_TOL relative to max(sum |c|, 1)."""
        n, axes = self.grid.modes_per_axis, _spatial_axes(self)
        neg = -np.arange(n) % n
        mirror = self.coeffs[:, neg] if len(axes) == 1 else self.coeffs[:, neg[:, None], neg]
        mag = np.abs(self.coeffs)
        resid = np.max(np.max(np.abs(self.coeffs - np.conj(mirror)), axis=axes)
                       / np.maximum(np.sum(mag, axis=axes), 1.0))
        if resid > _REAL_TOL:
            raise ValueError(f"field is not real: coefficients have Hermitian residue {resid:.3e}")
        if len(axes) == 2:
            return None
        a = self.coeffs + np.conj(mirror)
        a[:, 0], a[:, n // 2] = self.coeffs[:, 0], np.conj(self.coeffs[:, n // 2])
        return [r[:k + 1 if k < n // 2 - 1 else n // 2 + 1] for r, k in zip(a, _bands(mag))]

    @cached_property
    def _eval_tables(self):
        """1-D `evaluate`'s Taylor table per component (`_taylor_table`), built
        on first use and kept with the bands."""
        return [_taylor_table(a, self.grid.modes_per_axis) for a in self._eval_bands]


def _apply_multiplier(f: _F, mult: np.ndarray) -> _F:
    """Multiply coefficients by a lattice symbol (broadcast over the leading
    and component axes)."""
    return replace(f, coeffs=f.coeffs * mult)


# --- smooth dyadic cutoff profile ------------------------------------------


def _smooth_step(t):
    """C^inf step: 0 for t<=0, 1 for t>=1, strictly increasing between."""
    t = np.asarray(t, dtype=float)
    shape = t.shape
    t = np.atleast_1d(t)
    e0 = np.zeros_like(t)
    pos = t > 0
    e0[pos] = np.exp(-1.0 / t[pos])
    e1 = np.zeros_like(t)
    neg = t < 1
    e1[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return (e0 / (e0 + e1)).reshape(shape)


def cutoff_profile(r):
    """Radial profile: 1 for r <= 1, 0 for r >= 3/2, smooth monotone between."""
    r = np.asarray(r, dtype=float)
    out = _smooth_step(3.0 - 2.0 * r)
    if out.ndim == 0:
        return float(out)
    return out


# --- Fourier-multiplier operators -------------------------------------------


def bessel_power(f: _F, s: float) -> _F:
    """Apply A^{s/2} = (I - Laplacian/2)^{s/2}."""
    return _apply_multiplier(f, f.grid.bessel_symbol() ** (0.5 * s))


def heat_semigroup(f: _F, t: float) -> _F:
    """Apply P(t) = exp(t*(Laplacian/2 - I)); P(0) is the identity."""
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    return _apply_multiplier(f, np.exp(-t * f.grid.bessel_symbol()))


def mollify(f: _F, n: float) -> _F:
    """Gaussian spectral mollifier exp(-|kappa|^2/(2 n^2)); n -> inf is identity."""
    if not n > 0:
        raise ValueError("mollifier level must be positive")
    return _apply_multiplier(f, np.exp(-f.grid.kappa_sq() / (2.0 * n * n)))


def dyadic_cutoff(f: _F, j: int) -> _F:
    """Low-pass S^j: multiply by the smooth profile at radius |kappa|/2^j."""
    return _apply_multiplier(f, cutoff_profile(np.sqrt(f.grid.kappa_sq()) / float(2 ** j)))


def _gradient_coeffs(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """`gradient` on a coefficient array."""
    d = grid.dimension
    grad = c[_on(-d - 1, None)] * grid.gradient_symbol()
    return grad.reshape(c.shape[:-d - 1] + (c.shape[-d - 1] * d,) + c.shape[-d:])


def gradient(f: _F) -> _F:
    """Spectral gradient by the lattice's `gradient_symbol`, components
    ordered (comp0 d/dx_0, ..., comp0 d/dx_{d-1}, comp1 d/dx_0, ...)."""
    return replace(f, coeffs=_gradient_coeffs(f.coeffs, f.grid))


# --- lattice changes ----------------------------------------------------------


def _refine_coeffs(c: np.ndarray, axes) -> np.ndarray:
    """`refine` on the given trailing axes (negative) of a coefficient array."""
    for axis in axes:
        n, h = c.shape[axis], c.shape[axis] // 2
        fine = np.zeros(c.shape[:axis] + (2 * n,) + c.shape[axis:][1:], dtype=complex)
        fine[_on(axis, slice(h))] = c[_on(axis, slice(h))]           # k = 0 .. N/2-1
        fine[_on(axis, slice(3 * h, None))] = c[_on(axis, slice(h, None))]  # k = -N/2 .. -1
        fine[_on(axis, 3 * h)] *= 0.5
        fine[_on(axis, h)] = fine[_on(axis, 3 * h)]                  # k = +N/2
        c = fine
    return c


def _coarsen_coeffs(c: np.ndarray, axes) -> np.ndarray:
    """`coarsen` on the given trailing axes (negative) of a coefficient array."""
    for axis in axes:
        h = c.shape[axis] // 4
        coarse = np.concatenate([c[_on(axis, slice(h))], c[_on(axis, slice(3 * h, None))]], axis)
        coarse[_on(axis, h)] += c[_on(axis, h)]
        c = coarse
    return c


def _real_samples(c: np.ndarray, d: int) -> np.ndarray:
    """The unscaled samples on the 2N lattice of the real fields whose N-lattice
    coefficients fill the d trailing axes of c: the last axis's modes
    k = 0 .. N/2, the +N/2 plane half the coarse -N/2 plane as `refine`
    splits it, are refined and inverse transformed on every other axis, then
    taken to the samples by one irfft, which pads the rest of the half
    spectrum with zeros."""
    h = c.shape[-1] // 2
    half = np.concatenate([c[..., :h], 0.5 * c[..., h:h + 1]], axis=-1)
    for axis in range(-d, -1):
        half = np.fft.ifft(_refine_coeffs(half, [axis]), axis=axis, norm="forward")
    return np.fft.irfft(half, 4 * h, axis=-1, norm="forward")


def _from_samples(p: np.ndarray, n: int, d: int) -> np.ndarray:
    """The N-lattice coefficients of the real samples p on the 2N lattice in
    their d trailing axes, as `coarsen` takes them from the full spectrum:
    an rfft of the last axis, kept to k = 0 .. N/2, an fft and `coarsen` on
    every other axis, and on the last the fine +N/2 and -N/2 planes folded
    onto -N/2.  The negative half is rebuilt by Hermitian symmetry,
    c(-k) = conj(c(k)) with the leading axes mirrored."""
    h = n // 2
    f = np.fft.rfft(p, axis=-1, norm="forward")[..., :h + 1]
    for axis in range(-d, -1):
        f = _coarsen_coeffs(np.fft.fft(f, axis=axis, norm="forward"), [axis])
    neg = np.conj(f[..., h:0:-1])                   # k = N/2, ..., 1 at -k0
    for axis in range(-d, -1):
        neg = np.take(neg, -np.arange(n) % n, axis=axis)
    neg[..., 0] += f[..., h]                        # the fold: fine -N/2 + fine +N/2
    return np.concatenate([f[..., :h], neg], axis=-1)


def _dealiased_product(f: np.ndarray, g: np.ndarray, d: int) -> np.ndarray:
    """The alias-free product of two coefficient arrays of one shape, real
    fields on an N lattice in their d trailing axes: `refine` both to the 2N
    lattice, multiply their samples there, `coarsen` the product back, on
    real-to-complex transforms (`_real_samples`, `_from_samples`)."""
    prod = _real_samples(f, d)
    prod *= _real_samples(g, d)
    return _from_samples(prod, f.shape[-1], d)


def refine(f: _F) -> _F:
    """The same band-limited field on the 2N lattice.

    Built one axis at a time.  The k = -N/2 plane has no +N/2 partner on the
    coarse lattice, so its weight is split evenly between the fine -N/2 and
    +N/2 planes: values at the coarse nodes and Hermitian symmetry are kept
    exactly.
    """
    g = f.grid
    return replace(f, grid=GridSpec(g.dimension, 2 * g.modes_per_axis),
                   coeffs=_refine_coeffs(f.coeffs, range(-g.dimension, 0)))


def coarsen(f: _F) -> _F:
    """Project a field on the 2N lattice onto the N lattice.

    Built one axis at a time.  The fine +N/2 plane, absent from the coarse
    lattice, is folded onto -N/2: the two modes agree at the coarse nodes,
    and for real fields the fold keeps Hermitian symmetry.  coarsen(refine(f))
    is f bit for bit.
    """
    g = f.grid
    return replace(f, grid=GridSpec(g.dimension, g.modes_per_axis // 2),
                   coeffs=_coarsen_coeffs(f.coeffs, range(-g.dimension, 0)))


# --- norms ------------------------------------------------------------------


def singular_values_sq(m: np.ndarray) -> tuple:
    """Smallest and largest squared singular values of stacked (..., d, d)
    matrices, d <= 2, in closed form."""
    if m.shape[-1] == 1:
        s = m[..., 0, 0] ** 2
        return s, s
    fro2 = np.sum(m ** 2, axis=(-2, -1))
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    disc = np.sqrt(np.maximum(fro2 ** 2 - 4.0 * det ** 2, 0.0))
    return 0.5 * (fro2 - disc), 0.5 * (fro2 + disc)


def _per_field(norms: np.ndarray):
    """A float for a field, one value per leading index for a field over time."""
    return float(norms) if norms.ndim == 0 else norms


def lp_grid_norm(f: _Field, p: float):
    """Rectangle-rule L^p norm of the pointwise Euclidean magnitude: a float
    for a field, one norm per node for a field over time."""
    mag = np.sqrt(np.sum(np.abs(f.values()) ** 2, axis=-f.grid.dimension - 1))
    if np.isinf(p):
        return _per_field(mag.max(axis=_spatial_axes(f)))
    return _per_field((np.sum(mag ** p, axis=_spatial_axes(f)) * f.grid.cell_volume)
                      ** (1.0 / p))


def sobolev_norm(f: _Field, idx: SobolevIndex):
    """Bessel-potential norm ||A^{s/2} f||_{L^p}: a float for a field, one
    norm per node for a field over time.

    p = 2 goes through Parseval exactly; other p use the grid quadrature.
    """
    if idx.p == 2:
        w = f.grid.bessel_symbol() ** idx.s
        total = np.sum(w * np.abs(f.coeffs) ** 2, axis=_field_axes(f))
        return _per_field(np.sqrt(total * f.grid.period ** f.grid.dimension))
    return lp_grid_norm(bessel_power(f, idx.s), idx.p)


# --- pointwise evaluation ----------------------------------------------------


def evaluate(f: SpectralField, x) -> np.ndarray:
    """Fourier summation at arbitrary points, one kernel per dimension.

    d = 1: one kernel for every band.  Each component's band |k| <= K,
    folded onto k = 0..K, is read from its Taylor table on the 8N lattice
    (`_table_eval`), whatever K.  The error is the dropped tail, at most
    u sum |c_k|, plus the Taylor remainder, at most u sum |c_k|, plus the
    rounding of the table's irfft, about u sum |c_k| log2(8N).  d = 2: per
    component one matrix product (zgemm) of the axis-0 phase matrix with the
    coefficient plane, summed row-wise against the axis-1 phase matrix.  The
    band and the kernel depend on the coefficients alone and each point gets
    the same operations whatever the batch size, so the first n rows of a
    batch equal an n-point call bit for bit.

    x: a batch of shape (m, d); one point is a one-row batch.  Returns
    (m, components), real; a point with a NaN or infinite coordinate reads
    NaN, and the kernels see 0 in its place.  Refuses coefficients that are
    not Hermitian (`SpectralField._eval_bands`).
    """
    pts = _points(x, f.grid.dimension)
    finite = np.isfinite(pts)
    # per row only when needed: on a 2-D batch that test costs 10x this one
    bad = None if finite.all() else ~finite.all(axis=1)
    if bad is not None:
        pts = np.where(bad[:, None], 0.0, pts)
    bands = f._eval_bands
    # one point runs as a two-row batch: numpy's in-place complex product and
    # BLAS's matrix-vector path both round a lone row differently
    rows = np.repeat(pts, 2, axis=0) if len(pts) == 1 else pts
    if f.grid.dimension == 1:
        per_comp = [_table_eval(t, a, rows[:, 0]) for a, t in zip(bands, f._eval_tables)]
    else:
        e0, e1 = _phase_matrix(f.grid, rows[:, 0]), _phase_matrix(f.grid, rows[:, 1])
        per_comp = [np.sum((e0 @ c) * e1, axis=1) for c in f.coeffs]
    out = np.stack(per_comp, axis=1)[:len(pts)].real
    if bad is not None:
        out[bad] = np.nan
    return out


def _value_and_slope(f: SpectralField, x: np.ndarray) -> tuple:
    """(u(x), u'(x)) of a one-component 1-D field at the finite points x, shape
    (m,), from one read of the kernel `evaluate` takes for the field: u(x) is
    `evaluate`'s bit for bit, and u' is its derivative, the N/2 mode's slope
    included (`_nyquist_slope`).  One point runs as a two-row batch, as in
    `evaluate`."""
    rows = np.repeat(x, 2) if len(x) == 1 else x
    u, du = _table_eval(f._eval_tables[0], f._eval_bands[0], rows, True)
    return u[:len(x)], du[:len(x)]


def _nyquist_slope(f: SpectralField, x: np.ndarray) -> np.ndarray:
    """Re(i N/2 a_{N/2} e^{i N/2 x}) at the points x, shape (m,): the slope of
    the N/2 mode that 1-D `evaluate` reads as Re(a_{N/2} e^{i N/2 x}) and that
    `gradient` zeroes (`GridSpec.gradient_symbol`); 0 where the field's band
    stops short of N/2.  So `_value_and_slope`'s u' minus this is `gradient`'s
    reading of u'."""
    half, a = f.grid.modes_per_axis // 2, f._eval_bands[0]
    if len(a) <= half:
        return np.zeros_like(x)
    return -half * abs(a[half]) * np.sin(half * x + np.angle(a[half]))


def _points(x, d: int) -> np.ndarray:
    """x as a float (m, d) batch; any other shape is refused."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points must form an (m, {d}) batch, got shape {pts.shape}")
    return pts


def _bands(mag: np.ndarray) -> np.ndarray:
    """Per component of the (components, N) magnitudes, the smallest K with
    sum_{|k|>K} |c_k| <= u sum_k |c_k|, u = _BAND_TOL; none (a NaN) gives N/2.
    Tails are reverse cumulative sums over the shells |k| = r, never a
    difference of two large sums."""
    half = mag.shape[-1] // 2
    shells = np.concatenate((mag[:, :1], mag[:, 1:half] + mag[:, :half:-1],
                             mag[:, half:half + 1], np.zeros((mag.shape[0], 1))), axis=1)
    rev = np.cumsum(shells[:, ::-1], axis=1)[:, ::-1]    # rev[:, r] = sum over |k| >= r
    ok = rev[:, 1:] <= _BAND_TOL * rev[:, :1]            # tail beyond K = 0 .. N/2
    return np.where(ok.any(axis=1), ok.argmax(axis=1), half)


def _horner_eval(a: np.ndarray, x: np.ndarray, slope: bool = False):
    """Re sum_{k=0}^{K} a_k z^k, z = exp(i x), by Horner's rule on a folded band
    (`SpectralField._eval_bands`): on |z| = 1 it equals Re sum_{|k|<=K} c_k z^k
    for any coefficients.  The error is the dropped tail, at most u sum |c_k|,
    plus Horner's rounding, about 2(K+1) u sum |c_k|: the recurrence is
    backward-stable on the unit circle and needs no (points, modes) matrix.
    With slope, returns (value, d/dx value): a second accumulator carries
    p'(z) for p(z) = sum a_k z^k, and d/dx Re p(z) = Re(i z p'(z)); the value
    is the same bit for bit.  `_table_eval` takes it for the points past its
    table's reach only."""
    z = np.exp(1j * x)
    acc = np.full(x.shape, a[-1], dtype=complex)
    der = np.zeros_like(acc) if slope else None
    for ak in a[-2::-1]:
        if slope:
            der *= z
            der += acc
        acc *= z
        acc += ak
    return (acc.real, -(z * der).imag) if slope else acc.real


def _taylor_depth(k_max: int, rows: int) -> int:
    """The number of Taylor terms p+1 of a table with `rows` rows for the band
    k = 0..k_max: the smallest with (k_max pi/rows)^{p+1}/(p+1)! <= u, the
    remainder's relative bound at a point half a row from the nearest."""
    r, term, depth = k_max * np.pi / rows, 1.0, 0
    while term > _BAND_TOL:
        depth += 1
        term *= r / depth
    return depth


def _taylor_table(a: np.ndarray, n: int) -> np.ndarray:
    """T[j, i] = Re sum_{k=0}^{K} a_k (ik)^j e^{ik x_i} / j! for the orders
    j = 0..p, p+1 = `_taylor_depth`(K, F), on the F = 8N rows x_i = 2 pi i/F,
    for the folded band a of an N-lattice field (Anderson & Dahleh, SIAM J.
    Sci. Comput. 1996).  The table is one batched irfft's own (order, row)
    output, so each order is a contiguous row.  Its spectrum is as wide as
    the band: irfft(..., n=F) pads the modes past K with zeros.  With
    norm="forward" it returns Re(b_0) + 2 Re sum_{k>=1} b_k e^{ik x_i}, so
    the modes k >= 1 enter halved."""
    rows, k = _TABLE_OVERSAMPLE * n, np.arange(len(a))
    spec = np.empty((_taylor_depth(len(a) - 1, rows), len(a)), dtype=complex)
    spec[0] = a
    for j in range(1, len(spec)):
        spec[j] = spec[j - 1] * (1j * k / j)
    spec[:, 1:] *= 0.5
    return np.fft.irfft(spec, n=rows, axis=1, norm="forward")


def _table_eval(table: np.ndarray, a: np.ndarray, x: np.ndarray, slope: bool = False):
    """Re sum_{k=0}^{K} a_k e^{ikx} from the (order, row) Taylor table of the
    band a (`_taylor_table`): each point reads the row i = rint(x F/2 pi) of
    every order and sums its Taylor series in dx = x - 2 pi i/F, |dx| <= pi/F,
    by Horner's rule, one contiguous gathered row per level.  The offset is
    reduced Cody-Waite style, (x - i hi) - i lo with 2 pi/F = hi + lo
    (`_TWO_PI_HI`): the first difference is exact, so dx carries no multiple
    of 2 pi's rounding.  The points are finite (`evaluate`); those
    _TABLE_REACH rows or more from 0 take `_horner_eval` on the band instead,
    as a batch of two rows at least, and a batch with none such (an empty
    one too) skips that split.  With slope, returns (value, d/dx value) from
    the same gathered rows: a second Horner accumulator carries the series'
    derivative in dx, and the value is the same bit for bit."""
    depth, rows = table.shape
    near = np.abs(x) < _TABLE_REACH * (2.0 * np.pi / rows)
    far = None if near.all() else np.flatnonzero(~near)
    xn = x if far is None else np.where(near, x, 0.0)
    i = np.rint(xn * (rows / (2.0 * np.pi)))
    dx = (xn - i * (_TWO_PI_HI / rows)) - i * (_TWO_PI_LO / rows)
    terms = np.take(table, i.astype(np.intp) & (rows - 1), axis=1)
    acc = terms[-1].copy()
    der = np.zeros_like(acc) if slope else None
    for j in range(depth - 2, -1, -1):
        if slope:
            der *= dx
            der += acc
        acc *= dx
        acc += terms[j]
    if far is not None:
        hx = _horner_eval(a, np.resize(x[far], max(far.size, 2)), slope)
        for out, h in zip((acc, der), hx if slope else (hx,)):
            out[far] = h[:far.size]
    return (acc, der) if slope else acc


def _phase_matrix(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """E[m, j] = exp(i kappa_j x_m) over the FFT-ordered axis.

    Built from powers of z = exp(i x): columns k = 1..N/2 by a cumulative
    product, negative k by conjugation (|z| = 1).
    """
    n = grid.modes_per_axis
    half = n // 2
    z = np.exp(1j * x)
    pos = np.tile(z[:, None], (1, half))
    np.multiply.accumulate(pos, axis=1, out=pos)   # pos[:, j] = z^{j+1}
    e = np.empty((x.size, n), dtype=complex)
    e[:, 0] = 1.0
    e[:, 1:half] = pos[:, : half - 1]
    e[:, half] = np.conj(pos[:, half - 1])         # k = -N/2
    e[:, half + 1 :] = np.conj(pos[:, half - 2 :: -1])
    return e


# --- time-indexed fields ------------------------------------------------------


@dataclass(frozen=True)
class TimeField(_Field):
    """Uniform time grid t_m = m*T/M, one real spectral field per node.

    coeffs shape: (M+1, components) + spatial, Hermitian at every node.  The
    spectral operators act on every node at once.
    """

    grid: GridSpec
    horizon: float
    coeffs: np.ndarray

    _lead = 1

    def __post_init__(self):
        super().__post_init__()
        if self.coeffs.shape[0] < 2:
            raise ValueError("need at least two time nodes")
        if not 0.0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")

    @property
    def nodes(self) -> int:
        """Number of steps M (node count is M+1)."""
        return self.coeffs.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.nodes + 1)

    def node(self, m: int) -> SpectralField:
        """The field at node m, built per call: a caller that evaluates one
        node repeatedly keeps the field, so its evaluation band is found once."""
        return SpectralField(self.grid, self.coeffs[m])

    @staticmethod
    def from_nodes(fields, horizon: float) -> "TimeField":
        grid = fields[0].grid
        return TimeField(grid, horizon, np.stack([f.coeffs for f in fields]))

    @staticmethod
    def zero(grid: GridSpec, horizon: float, steps: int, components: int = 1) -> "TimeField":
        shape = (steps + 1, components) + grid.spatial_shape
        return TimeField(grid, horizon, np.zeros(shape, dtype=complex))

    def at_time(self, t: float) -> SpectralField:
        """Field at time t, its coefficients interpolated linearly between the
        nodes; at a node time it is `node`, bit for bit.  A time whose
        position t M/T lies within rounding of an integer m, 4 eps m (`times`
        and m T/steps come within 2 eps m), is node m's."""
        eps = 1e-12 * max(self.horizon, 1.0)
        if not -eps <= t <= self.horizon + eps:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        pos = np.clip(t, 0.0, self.horizon) / self.horizon * self.nodes
        m = int(np.rint(pos))
        if abs(pos - m) <= 4.0 * np.finfo(float).eps * m:
            return self.node(m)
        m, w = int(pos), pos - int(pos)
        return SpectralField(self.grid, (1.0 - w) * self.coeffs[m] + w * self.coeffs[m + 1])

    def reversed_time(self) -> "TimeField":
        return replace(self, coeffs=self.coeffs[::-1])


def _runs(tf: TimeField) -> tuple:
    """(the first node of each run of equal nodes of tf (`_run_starts`), as a
    TimeField of two nodes at least, as a TimeField holds; for each node of
    tf, the index of its run's node there), so that what is computed per
    node is computed once per run."""
    firsts, run = np.unique(_run_starts(tf.coeffs), return_inverse=True)
    return replace(tf, coeffs=tf.coeffs[np.resize(firsts, max(firsts.size, 2))]), run


# --- snapshot format ----------------------------------------------------------
#
# A snapshot is an array's little-endian bytes plus a JSON sidecar <name>.json
# that says how to read them (sde.save_ensemble writes one too).  A time field's
# payload is '<c16' in (node, component, FFT-ordered lattice) row-major order; its
# sidecar carries the geometry and "real_flag": true, which the reader requires
# (every field is real).


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def _write_snapshot(path, array: np.ndarray, dtype: str, meta: dict) -> Path:
    """Write array's bytes as dtype to path and meta to its sidecar."""
    path = Path(path)
    path.write_bytes(np.ascontiguousarray(array, dtype=dtype).tobytes())
    _sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True))
    return path


def _read_sidecar(path: Path) -> dict:
    """The sidecar of the snapshot at path; a missing one raises ValueError."""
    if not _sidecar_path(path).exists():
        raise ValueError(f"{path}: its sidecar {_sidecar_path(path).name} is missing")
    return json.loads(_sidecar_path(path).read_text())


def _read_snapshot(path, dtype: str, shape) -> tuple:
    """(sidecar, payload as dtype in the shape shape(sidecar)) of the snapshot at
    path; a missing sidecar or a payload of another size raises ValueError."""
    path = Path(path)
    meta = _read_sidecar(path)
    raw, shape = path.read_bytes(), tuple(shape(meta))
    if len(raw) != np.dtype(dtype).itemsize * int(np.prod(shape)):
        raise ValueError(f"{path}: {len(raw)} bytes do not hold shape {shape} as {dtype}")
    return meta, np.frombuffer(raw, dtype=dtype).reshape(shape)


def save_time_field(tf: TimeField, path, description: str = "",
                    extra: dict | None = None) -> Path:
    meta = {
        "d": tf.grid.dimension,
        "N": tf.grid.modes_per_axis,
        "L": tf.grid.period,
        "components": tf.components,
        "real_flag": True,
        "description": description,
        "time": {"horizon": tf.horizon, "steps": tf.nodes},
    }
    if extra:
        meta["manifest"] = extra
    return _write_snapshot(path, tf.coeffs, "<c16", meta)


def load_time_field(path) -> TimeField:
    meta, coeffs = _read_snapshot(path, "<c16", lambda m: (m["time"]["steps"] + 1,
                                  m["components"]) + GridSpec(m["d"], m["N"]).spatial_shape)
    if meta.get("real_flag") is not True:
        raise ValueError(f"{path}: sidecar does not mark the field real; fields are real")
    if meta.get("L") != GridSpec.period:
        raise ValueError(f"{path}: sidecar period L = {meta.get('L')!r}, not 2 pi")
    tf = TimeField(GridSpec(meta["d"], meta["N"]), meta["time"]["horizon"], coeffs)
    tf.values()     # a snapshot is outside input: refuse one that is not real at a node
    return tf


def load_time_field_meta(path) -> dict:
    return _read_sidecar(Path(path))
