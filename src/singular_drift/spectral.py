"""Periodic spectral calculus on [0, L)^d.

Fields are stored by their Fourier coefficients c_kappa with the convention
f(x) = sum_kappa c_kappa exp(i kappa.x), kappa = 2*pi*k/L, k in the FFT-ordered
lattice {-N/2, ..., N/2-1}^d.  All fractional-smoothness operators (Bessel
powers, heat semigroup, mollifiers) are diagonal multipliers in this basis;
the reference operator is A = I - Laplacian/2 with symbol 1 + |kappa|^2/2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

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


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: d axes, N modes per axis, period L."""

    dimension: int
    modes_per_axis: int
    period: float = 2.0 * np.pi

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        n = self.modes_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"modes_per_axis must be a power of two >= 8, got {n}")
        if not self.period > 0:
            raise ValueError("period must be positive")

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

    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers along one axis in FFT order."""
        n = self.modes_per_axis
        return np.rint(np.fft.fftfreq(n) * n).astype(int)

    def kappa_axis(self) -> np.ndarray:
        return 2.0 * np.pi * self.wavenumbers() / self.period

    def kappa_mesh(self) -> list:
        """One |shape|-broadcastable kappa array per axis."""
        ax = self.kappa_axis()
        if self.dimension == 1:
            return [ax]
        return list(np.meshgrid(*([ax] * self.dimension), indexing="ij"))

    def kappa_sq(self) -> np.ndarray:
        out = np.zeros(self.spatial_shape)
        for k in self.kappa_mesh():
            out = out + k * k
        return out

    def bessel_symbol(self) -> np.ndarray:
        """Symbol of A = I - Laplacian/2 on the lattice."""
        return 1.0 + 0.5 * self.kappa_sq()

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

    def max_kappa(self) -> float:
        """Largest |kappa| representable on the lattice."""
        return float(np.sqrt(self.kappa_sq().max()))


@dataclass(frozen=True)
class SobolevIndex:
    """Regularity/integrability pair (s, p) for the Bessel scale."""

    s: float
    p: float

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError(f"integrability exponent must exceed 1, got {self.p}")


@dataclass(frozen=True)
class SpectralField:
    """Real band-limited field given by FFT-ordered Fourier coefficients.

    coeffs has shape (components,) + grid.spatial_shape, complex128, with
    Hermitian symmetry: every field is real, so grid values are real up to
    roundoff and `values` refuses coefficients whose samples are not.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != self.grid.dimension + 1:
            raise ValueError(
                f"coeffs must have shape (components,)+{self.grid.spatial_shape}"
            )
        if c.shape[1:] != self.grid.spatial_shape:
            raise ValueError(
                f"coeff shape {c.shape[1:]} does not match grid {self.grid.spatial_shape}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

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

    # --- evaluation -------------------------------------------------------

    def values(self) -> np.ndarray:
        """Real grid samples, shape (components,)+spatial; refuses samples
        whose imaginary residue shows the coefficients are not Hermitian."""
        axes = tuple(range(1, self.grid.dimension + 1))
        v = np.fft.ifftn(self.coeffs * self.grid.n_modes, axes=axes)
        scale = max(np.max(np.abs(v)), 1.0)
        resid = np.max(np.abs(v.imag)) / scale
        if resid > _REAL_TOL:
            raise ValueError(
                f"field is not real: grid values have imaginary residue {resid:.3e}"
            )
        return v.real

    def component(self, i: int) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs[i : i + 1])

    # --- arithmetic (linear ops preserve Hermitian symmetry) ---------------

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_compatible(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_compatible(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        s = float(scalar)
        return SpectralField(self.grid, self.coeffs * s)

    __rmul__ = __mul__


def _check_compatible(f: SpectralField, g: SpectralField):
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    if f.components != g.components:
        raise ValueError(f"fields have {f.components} and {g.components} components")


def _apply_multiplier(f: SpectralField, mult: np.ndarray) -> SpectralField:
    """Multiply coefficients by a lattice symbol (broadcast over components)."""
    return SpectralField(f.grid, f.coeffs * mult[None])


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


def bessel_power(f: SpectralField, s: float) -> SpectralField:
    """Apply A^{s/2} = (I - Laplacian/2)^{s/2}."""
    return _apply_multiplier(f, f.grid.bessel_symbol() ** (0.5 * s))


def heat_semigroup(f: SpectralField, t: float) -> SpectralField:
    """Apply P(t) = exp(t*(Laplacian/2 - I)); P(0) is the identity."""
    if t < 0:
        raise ValueError("semigroup time must be nonnegative")
    return _apply_multiplier(f, np.exp(-t * f.grid.bessel_symbol()))


def mollify(f: SpectralField, n: float) -> SpectralField:
    """Gaussian spectral mollifier exp(-|kappa|^2/(2 n^2)); n -> inf is identity."""
    if not n > 0:
        raise ValueError("mollifier level must be positive")
    return _apply_multiplier(f, np.exp(-f.grid.kappa_sq() / (2.0 * n * n)))


def dyadic_cutoff(f: SpectralField, j: int) -> SpectralField:
    """Low-pass S^j: multiply by the smooth profile at radius |kappa|/2^j."""
    r = np.sqrt(f.grid.kappa_sq()) / float(2 ** j)
    return _apply_multiplier(f, cutoff_profile(r))


def gradient(f: SpectralField) -> SpectralField:
    """Spectral gradient.

    Output has components ordered (comp0 d/dx_0, ..., comp0 d/dx_{d-1},
    comp1 d/dx_0, ...).  The Nyquist row on the differentiated axis is zeroed
    (its i*kappa image has no Hermitian partner on the lattice).
    """
    g = f.grid
    n = g.modes_per_axis
    out = np.empty((f.components * g.dimension,) + g.spatial_shape, dtype=complex)
    mesh = g.kappa_mesh()
    for axis in range(g.dimension):
        mult = 1j * mesh[axis]
        sel = [slice(None)] * g.dimension
        sel[axis] = n // 2
        mult[tuple(sel)] = 0.0
        for c in range(f.components):
            out[c * g.dimension + axis] = f.coeffs[c] * mult
    return SpectralField(g, out)


# --- lattice changes ----------------------------------------------------------


def refine(f: SpectralField) -> SpectralField:
    """The same band-limited field on the 2N lattice.

    Built one axis at a time.  The k = -N/2 plane has no +N/2 partner on the
    coarse lattice, so its weight is split evenly between the fine -N/2 and
    +N/2 planes: values at the coarse nodes and Hermitian symmetry are kept
    exactly.
    """
    g = f.grid
    n, h = g.modes_per_axis, g.modes_per_axis // 2
    c = f.coeffs
    for axis in range(1, g.dimension + 1):
        src = np.moveaxis(c, axis, 0)
        fine = np.zeros((2 * n,) + src.shape[1:], dtype=complex)
        fine[:h] = src[:h]              # k = 0 .. N/2-1
        fine[3 * h:] = src[h:]          # k = -N/2 .. -1
        fine[3 * h] *= 0.5
        fine[h] = fine[3 * h]           # k = +N/2
        c = np.moveaxis(fine, 0, axis)
    return SpectralField(GridSpec(g.dimension, 2 * n, g.period), c)


def coarsen(f: SpectralField) -> SpectralField:
    """Project a field on the 2N lattice onto the N lattice.

    Built one axis at a time.  The fine +N/2 plane, absent from the coarse
    lattice, is folded onto -N/2: the two modes agree at the coarse nodes,
    and for real fields the fold keeps Hermitian symmetry.  coarsen(refine(f))
    is f bit for bit.
    """
    g = f.grid
    h = g.modes_per_axis // 4
    c = f.coeffs
    for axis in range(1, g.dimension + 1):
        src = np.moveaxis(c, axis, 0)
        coarse = np.concatenate([src[:h], src[3 * h:]])
        coarse[h] += src[h]
        c = np.moveaxis(coarse, 0, axis)
    return SpectralField(GridSpec(g.dimension, g.modes_per_axis // 2, g.period), c)


# --- norms ------------------------------------------------------------------


def singular_values_sq(m: np.ndarray) -> tuple:
    """Smallest and largest squared singular values of stacked (n, d, d)
    matrices, d <= 2, in closed form."""
    if m.shape[-1] == 1:
        s = m[:, 0, 0] ** 2
        return s, s
    fro2 = np.sum(m ** 2, axis=(1, 2))
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    disc = np.sqrt(np.maximum(fro2 ** 2 - 4.0 * det ** 2, 0.0))
    return 0.5 * (fro2 - disc), 0.5 * (fro2 + disc)


def lp_grid_norm(f: SpectralField, p: float) -> float:
    """Rectangle-rule L^p norm of the pointwise Euclidean magnitude."""
    v = f.values()
    mag = np.sqrt(np.sum(np.abs(v) ** 2, axis=0))
    if np.isinf(p):
        return float(mag.max())
    return float((np.sum(mag ** p) * f.grid.cell_volume) ** (1.0 / p))


def sobolev_norm(f: SpectralField, idx: SobolevIndex) -> float:
    """Bessel-potential norm ||A^{s/2} f||_{L^p}.

    p = 2 goes through Parseval exactly; other p use the grid quadrature.
    """
    if idx.p == 2:
        w = f.grid.bessel_symbol() ** idx.s
        total = np.sum(w[None] * np.abs(f.coeffs) ** 2)
        return float(np.sqrt(total * f.grid.period ** f.grid.dimension))
    return lp_grid_norm(bessel_power(f, idx.s), idx.p)


# --- pointwise evaluation ----------------------------------------------------


def evaluate(f: SpectralField, x) -> np.ndarray:
    """Direct Fourier summation at arbitrary points, one kernel per dimension.

    d = 1: Horner's rule on each component (`_horner_eval`).  d = 2: per
    component one matrix product (zgemm) of the axis-0 phase matrix with the
    coefficient plane, summed row-wise against the axis-1 phase matrix.  Each
    point gets the same operations whatever the batch size, so the first n
    rows of a batch equal an n-point call bit for bit.

    x: a batch of shape (m, d); one point is a one-row batch.  Returns
    (m, components), real.
    """
    pts = _points(x, f.grid.dimension)
    m = pts.shape[0]
    # one point runs as a two-row batch: numpy's in-place complex product and
    # BLAS's matrix-vector path both round a lone row differently
    rows = np.repeat(pts, 2, axis=0) if m == 1 else pts
    if f.grid.dimension == 1:
        per_comp = [_horner_eval(f.grid, c, rows[:, 0]) for c in f.coeffs]
    else:
        e0, e1 = _phase_matrix(f.grid, rows[:, 0]), _phase_matrix(f.grid, rows[:, 1])
        per_comp = [np.sum((e0 @ c) * e1, axis=1) for c in f.coeffs]
    out = np.stack(per_comp, axis=1)[:m]
    return out.real


def _points(x, d: int) -> np.ndarray:
    """x as a float (m, d) batch; any other shape is refused."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"points must form an (m, {d}) batch, got shape {pts.shape}")
    return pts


def _horner_eval(grid: GridSpec, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c_k z^k for z = exp(i 2 pi x / L) by Horner's rule (d=1 scalar).

    Avoids materializing the (points, modes) phase matrix; on the unit circle
    the recurrence is backward-stable.
    """
    n = grid.modes_per_axis
    half = n // 2
    c = np.fft.fftshift(coeffs)                 # order k = -N/2 .. N/2-1
    z = np.exp(2j * np.pi / grid.period * x)
    acc = np.full(x.shape, c[-1], dtype=complex)
    for j in range(n - 2, -1, -1):
        acc *= z
        acc += c[j]
    return acc * np.exp(-2j * np.pi * half / grid.period * x)


def _phase_matrix(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """E[m, j] = exp(i kappa_j x_m) over the FFT-ordered axis.

    Built from powers of z = exp(i 2 pi x / L): columns k = 1..N/2 by a
    cumulative product, negative k by conjugation (|z| = 1).
    """
    n = grid.modes_per_axis
    half = n // 2
    z = np.exp(2j * np.pi / grid.period * x)
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
class TimeField:
    """Uniform time grid t_m = m*T/M, one real spectral field per node.

    coeffs shape: (M+1, components) + spatial, Hermitian at every node.
    """

    grid: GridSpec
    horizon: float
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != self.grid.dimension + 2 or c.shape[2:] != self.grid.spatial_shape:
            raise ValueError("coeffs must have shape (M+1, components)+spatial")
        if c.shape[0] < 2:
            raise ValueError("need at least two time nodes")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def nodes(self) -> int:
        """Number of steps M (node count is M+1)."""
        return self.coeffs.shape[0] - 1

    @property
    def components(self) -> int:
        return self.coeffs.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.nodes + 1)

    def node(self, m: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[m])

    @staticmethod
    def from_nodes(fields, horizon: float) -> "TimeField":
        grid = fields[0].grid
        return TimeField(grid, horizon, np.stack([f.coeffs for f in fields]))

    @staticmethod
    def zero(grid: GridSpec, horizon: float, steps: int, components: int = 1) -> "TimeField":
        shape = (steps + 1, components) + grid.spatial_shape
        return TimeField(grid, horizon, np.zeros(shape, dtype=complex))

    def at_time(self, t: float, rule: str = "linear") -> SpectralField:
        """Field at an off-node time; 'linear' interpolates coefficients,
        'left' takes the latest node at or before t."""
        eps = 1e-12 * max(self.horizon, 1.0)
        if t < -eps or t > self.horizon + eps:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        pos = np.clip(t, 0.0, self.horizon) / self.horizon * self.nodes
        m = int(np.floor(pos))
        if m >= self.nodes:
            return self.node(self.nodes)
        if rule == "left":
            return self.node(m)
        if rule != "linear":
            raise ValueError(f"unknown interpolation rule {rule!r}")
        w = pos - m
        c = (1.0 - w) * self.coeffs[m] + w * self.coeffs[m + 1]
        return SpectralField(self.grid, c)

    def reversed_time(self) -> "TimeField":
        return TimeField(self.grid, self.horizon, self.coeffs[::-1])

    def __sub__(self, other: "TimeField") -> "TimeField":
        if (self.grid != other.grid or self.horizon != other.horizon
                or self.coeffs.shape != other.coeffs.shape):
            raise ValueError("time fields are not compatible")
        return TimeField(self.grid, self.horizon, self.coeffs - other.coeffs)


# --- snapshot format ----------------------------------------------------------
#
# Binary payload of a time field: little-endian f64 pairs (re, im), node-major,
# then component-major, then row-major over the FFT-ordered lattice; complex128
# '<c16' has exactly that layout.  Sidecar JSON carries the geometry and
# "real_flag": true, which the reader requires (every field is real).


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def save_time_field(tf: TimeField, path, description: str = "",
                    extra: dict | None = None) -> Path:
    path = Path(path)
    path.write_bytes(np.ascontiguousarray(tf.coeffs.astype("<c16")).tobytes())
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
    _sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True))
    return path


def load_time_field(path) -> TimeField:
    path = Path(path)
    meta = json.loads(_sidecar_path(path).read_text())
    if meta.get("real_flag") is not True:
        raise ValueError(f"{path}: sidecar does not mark the field real; fields are real")
    grid = GridSpec(meta["d"], meta["N"], meta["L"])
    steps = meta["time"]["steps"]
    raw = np.frombuffer(path.read_bytes(), dtype="<c16")
    shape = (steps + 1, meta["components"]) + grid.spatial_shape
    return TimeField(grid, meta["time"]["horizon"],
                     raw.reshape(shape).astype(np.complex128))


def load_time_field_meta(path) -> dict:
    return json.loads(_sidecar_path(Path(path)).read_text())
