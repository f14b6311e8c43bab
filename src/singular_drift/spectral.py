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
    "dyadic_cutoff",
    "mollify",
    "sobolev_norm",
    "lp_grid_norm",
    "singular_values_sq",
    "evaluate",
    "cutoff_profile",
    "save_field",
    "load_field",
    "save_time_field",
    "load_time_field",
]

_REAL_TOL = 1e-10  # relative imaginary residue allowed in a real_flag field


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
    """Band-limited field given by FFT-ordered Fourier coefficients.

    coeffs has shape (components,) + grid.spatial_shape, complex128.  When
    real_flag is set the coefficients carry Hermitian symmetry and grid values
    are real up to roundoff.
    """

    grid: GridSpec
    coeffs: np.ndarray
    real_flag: bool = True

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
    def from_grid(grid: GridSpec, values, real_flag: bool | None = None) -> "SpectralField":
        """Collocate grid samples; values shape (components,)+spatial or spatial."""
        v = np.asarray(values)
        if v.ndim == grid.dimension:
            v = v[None]
        axes = tuple(range(1, grid.dimension + 1))
        coeffs = np.fft.fftn(v, axes=axes) / grid.n_modes
        if real_flag is None:
            real_flag = bool(np.isrealobj(values)) or bool(
                np.max(np.abs(np.asarray(values).imag)) == 0.0
            )
        return SpectralField(grid, coeffs, real_flag=real_flag)

    # --- evaluation -------------------------------------------------------

    def values(self) -> np.ndarray:
        """Grid samples, shape (components,)+spatial; real array if real_flag."""
        axes = tuple(range(1, self.grid.dimension + 1))
        v = np.fft.ifftn(self.coeffs * self.grid.n_modes, axes=axes)
        if self.real_flag:
            scale = max(np.max(np.abs(v)), 1.0)
            resid = np.max(np.abs(v.imag)) / scale
            if resid > _REAL_TOL:
                raise ValueError(
                    f"field marked real but grid values have imaginary residue {resid:.3e}"
                )
            return v.real
        return v

    def component(self, i: int) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs[i : i + 1], self.real_flag)

    # --- arithmetic (linear ops preserve Hermitian symmetry) ---------------

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs,
                             self.real_flag and other.real_flag)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs,
                             self.real_flag and other.real_flag)

    def __mul__(self, scalar: float) -> "SpectralField":
        s = float(scalar)
        return SpectralField(self.grid, self.coeffs * s, self.real_flag)

    __rmul__ = __mul__


def _check_same_grid(f: SpectralField, g: SpectralField):
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")


def _apply_multiplier(f: SpectralField, mult: np.ndarray, real_ok: bool = True) -> SpectralField:
    """Multiply coefficients by a lattice symbol (broadcast over components)."""
    return SpectralField(f.grid, f.coeffs * mult[None], f.real_flag and real_ok)


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


def gradient(f: SpectralField, zero_nyquist: bool = True) -> SpectralField:
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
        if zero_nyquist:
            sel = [slice(None)] * g.dimension
            sel[axis] = n // 2
            mult = mult.copy()
            mult[tuple(sel)] = 0.0
        for c in range(f.components):
            out[c * g.dimension + axis] = f.coeffs[c] * mult
    return SpectralField(g, out, f.real_flag)


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

_EVAL_CHUNK = 4096


def evaluate(f: SpectralField, x) -> np.ndarray:
    """Direct Fourier summation at arbitrary points.

    x: shape (d,) for one point or (m, d) for a batch.  Returns (components,)
    or (m, components); real when real_flag is set.
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != f.grid.dimension:
        raise ValueError(f"points must have {f.grid.dimension} coordinates")
    m = pts.shape[0]
    out = np.empty((m, f.components), dtype=complex)
    for lo in range(0, m, _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, m)
        chunk = pts[lo:hi]
        if f.grid.dimension == 1 and f.components == 1:
            out[lo:hi, 0] = _horner_eval(f.grid, f.coeffs[0], chunk[:, 0])
        elif f.grid.dimension == 1:
            e = _phase_matrix(f.grid, chunk[:, 0])
            out[lo:hi] = e @ f.coeffs.reshape(f.components, -1).T
        else:
            e0 = _phase_matrix(f.grid, chunk[:, 0])
            e1 = _phase_matrix(f.grid, chunk[:, 1])
            out[lo:hi] = np.einsum("mk,ckl,ml->mc", e0, f.coeffs, e1, optimize=True)
    if f.real_flag:
        out = out.real
    if np.asarray(x).ndim == 1:
        return out[0]
    return out


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
    """Uniform time grid t_m = m*T/M, one spectral field per node.

    coeffs shape: (M+1, components) + spatial.
    """

    grid: GridSpec
    horizon: float
    coeffs: np.ndarray
    real_flag: bool = True

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
        return SpectralField(self.grid, self.coeffs[m], self.real_flag)

    @staticmethod
    def from_nodes(fields, horizon: float) -> "TimeField":
        grid = fields[0].grid
        coeffs = np.stack([f.coeffs for f in fields])
        flag = all(f.real_flag for f in fields)
        return TimeField(grid, horizon, coeffs, real_flag=flag)

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
        return SpectralField(self.grid, c, self.real_flag)

    def reversed_time(self) -> "TimeField":
        return TimeField(self.grid, self.horizon, self.coeffs[::-1], self.real_flag)

    def __sub__(self, other: "TimeField") -> "TimeField":
        if self.grid != other.grid or self.coeffs.shape != other.coeffs.shape:
            raise ValueError("time fields are not compatible")
        return TimeField(self.grid, self.horizon, self.coeffs - other.coeffs,
                         self.real_flag and other.real_flag)


# --- snapshot format ----------------------------------------------------------
#
# Binary payload: little-endian f64 pairs (re, im), component-major then
# row-major over the FFT-ordered lattice; complex128 '<c16' has exactly that
# layout.  Sidecar JSON carries the geometry.


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def save_field(f: SpectralField, path, description: str = "") -> Path:
    path = Path(path)
    path.write_bytes(np.ascontiguousarray(f.coeffs.astype("<c16")).tobytes())
    meta = {
        "d": f.grid.dimension,
        "N": f.grid.modes_per_axis,
        "L": f.grid.period,
        "components": f.components,
        "real_flag": f.real_flag,
        "description": description,
    }
    _sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True))
    return path


def load_field(path) -> SpectralField:
    path = Path(path)
    meta = json.loads(_sidecar_path(path).read_text())
    grid = GridSpec(meta["d"], meta["N"], meta["L"])
    raw = np.frombuffer(path.read_bytes(), dtype="<c16")
    shape = (meta["components"],) + grid.spatial_shape
    return SpectralField(grid, raw.reshape(shape).astype(np.complex128),
                         real_flag=meta["real_flag"])


def save_time_field(tf: TimeField, path, description: str = "",
                    extra: dict | None = None) -> Path:
    path = Path(path)
    path.write_bytes(np.ascontiguousarray(tf.coeffs.astype("<c16")).tobytes())
    meta = {
        "d": tf.grid.dimension,
        "N": tf.grid.modes_per_axis,
        "L": tf.grid.period,
        "components": tf.components,
        "real_flag": tf.real_flag,
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
    grid = GridSpec(meta["d"], meta["N"], meta["L"])
    steps = meta["time"]["steps"]
    raw = np.frombuffer(path.read_bytes(), dtype="<c16")
    shape = (steps + 1, meta["components"]) + grid.spatial_shape
    return TimeField(grid, meta["time"]["horizon"],
                     raw.reshape(shape).astype(np.complex128),
                     real_flag=meta["real_flag"])


def load_time_field_meta(path) -> dict:
    return json.loads(_sidecar_path(Path(path)).read_text())
