"""Euler-Maruyama simulation of the transformed equation.

The process Y solves dY = mu(t, Y) dt + sigma(t, Y) dW with

    mu(t, y)    = (lam + 1) u(t, psi(t, y)),
    sigma(t, y) = grad u(t, psi(t, y)) + I,

started from y0 = x0 + u(0, x0); X = psi(t, Y) is the virtual solution of the
rough-drift equation.  Brownian increments come from counter-based streams so
two simulations sharing a seed see identical noise regardless of path count,
mollification level, or lambda (exact common random numbers).  Simulation is
serial: one Euler-Maruyama loop walks a fixed partition of the path axis,
block after block, so the bytes are a pure function of the SimConfig.

Stream rule: path p owns Philox(key=(seed, p)); step m consumes the uniform
doubles at positions (2m, 2m+1) through a Box-Muller pair, of which the first
d normals are used.  Refinement keeps the Brownian path by drawing at
base_steps and summing adjacent fine increments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .spectral import TimeField, evaluate, singular_values_sq
from .zvonkin import TransformContext, psi

__all__ = [
    "EllipticityError",
    "SimConfig",
    "PathEnsemble",
    "brownian_increments",
    "coefficients",
    "simulate_y",
    "virtual_x",
    "simulate_classical",
    "virtual_residual",
    "save_ensemble",
    "load_ensemble",
]

_PATH_BLOCK = 2048       # fixed partition of the path axis; bounds the noise and work arrays
_ENSEMBLE_MAGIC = b"SDE1"

STREAM_RULE = ("philox2x64 key=(seed,path); step m uses uniform doubles "
               "(2m,2m+1) via box-muller, first d normals")


class EllipticityError(RuntimeError):
    """The diffusion matrix lost its lower singular-value floor of 1/2."""


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description; everything downstream is a pure function of it."""

    x0: tuple
    horizon: float
    steps: int
    paths: int
    seed: int
    lam: float
    base_steps: int | None = None   # noise resolution for nested refinement

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(c) for c in np.atleast_1d(self.x0)))
        if self.steps < 1 or self.paths < 1:
            raise ValueError("steps and paths must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.seed < 0 or int(self.seed) != self.seed:
            raise ValueError("seed must be a nonnegative integer")
        base = self.base_steps
        if base is not None and (base < self.steps or base % self.steps != 0):
            raise ValueError("base_steps must be a multiple of steps")

    @property
    def dimension(self) -> int:
        return len(self.x0)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "SimConfig":
        d = dict(d)
        d["x0"] = tuple(d["x0"])
        return SimConfig(**d)


@dataclass(frozen=True)
class PathEnsemble:
    """States on the uniform step grid, shape (paths, steps+1, d)."""

    states: np.ndarray
    config: SimConfig
    label: str
    provenance: dict

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.float64)
        expect = (self.config.paths, self.config.steps + 1, self.config.dimension)
        if s.shape != expect:
            raise ValueError(f"states shape {s.shape} != {expect}")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "states", s)

    def terminal(self) -> np.ndarray:
        return self.states[:, -1, :]

    def at_time(self, t: float) -> np.ndarray:
        """Marginal at the nearest step node."""
        m = int(round(t / self.config.horizon * self.config.steps))
        m = min(max(m, 0), self.config.steps)
        return self.states[:, m, :]


# --- noise -----------------------------------------------------------------


def _block_normals(seed: int, lo: int, hi: int, steps: int) -> np.ndarray:
    """Standard normal pairs for paths [lo, hi), shape (hi-lo, steps, 2)."""
    uni = np.empty((hi - lo, steps, 2))
    for i, p in enumerate(range(lo, hi)):
        key = np.array([seed, p], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        uni[i] = gen.random((steps, 2))
    radial = np.sqrt(-2.0 * np.log1p(-uni[..., 0]))   # 1-u in (0,1] avoids log 0
    angle = 2.0 * np.pi * uni[..., 1]
    return np.stack([radial * np.cos(angle), radial * np.sin(angle)], axis=-1)


def _block_increments(cfg: SimConfig, lo: int, hi: int) -> np.ndarray:
    base = cfg.base_steps or cfg.steps
    d = cfg.dimension
    z = _block_normals(cfg.seed, lo, hi, base)[..., :d]
    fine = z * np.sqrt(cfg.horizon / base)
    if base == cfg.steps:
        return fine
    k = base // cfg.steps
    return fine.reshape(hi - lo, cfg.steps, k, d).sum(axis=2)


def brownian_increments(cfg: SimConfig) -> np.ndarray:
    """All increments (paths, steps, d); bit-identical to what simulation uses."""
    out = np.empty((cfg.paths, cfg.steps, cfg.dimension))
    for lo in range(0, cfg.paths, _PATH_BLOCK):
        hi = min(lo + _PATH_BLOCK, cfg.paths)
        out[lo:hi] = _block_increments(cfg, lo, hi)
    return out


# --- coefficients of the transformed equation --------------------------------


def coefficients(ctx: TransformContext, lam: float, t: float, y) -> tuple:
    """Drift and diffusion of Y at (t, y); y is (m, d) or (d,).

    mu = (lam+1) u(t, psi(t,y)), sigma = grad u(t, psi(t,y)) + I.  The lower
    singular-value floor 1/2 is asserted on every evaluation.
    """
    d = ctx.u.grid.dimension
    pts = np.atleast_2d(np.asarray(y, dtype=float))
    x = psi(ctx, t, pts)
    u_val = evaluate(ctx.u_at(t), x)
    mu = (lam + 1.0) * u_val
    jac = evaluate(ctx.jacobian_at(t), x).reshape(-1, d, d)
    sigma = jac + np.eye(d)[None]
    smin_sq, _ = singular_values_sq(sigma)
    floor = 0.25 * (1.0 - 1e-6)
    if np.any(smin_sq < floor):
        raise EllipticityError(
            f"min singular value {np.sqrt(smin_sq.min()):.6f} fell below 1/2"
        )
    if np.asarray(y).ndim == 1:
        return mu[0], sigma[0]
    return mu, sigma


# --- simulators ----------------------------------------------------------------


def _euler(cfg: SimConfig, start: np.ndarray, step) -> np.ndarray:
    """Euler-Maruyama states (paths, steps+1, d) of state <- step(m, state, dW_m).

    Every path starts at start.  The blocks of the fixed path partition run one
    after another, each drawing its own increments.
    """
    out = np.empty((cfg.paths, cfg.steps + 1, cfg.dimension))
    for lo in range(0, cfg.paths, _PATH_BLOCK):
        hi = min(lo + _PATH_BLOCK, cfg.paths)
        dw = _block_increments(cfg, lo, hi)
        state = np.tile(start, (hi - lo, 1))
        out[lo:hi, 0] = state
        for m in range(cfg.steps):
            state = step(m, state, dw[:, m])
            out[lo:hi, m + 1] = state
    return out


def simulate_y(ctx: TransformContext, cfg: SimConfig, label: str = "transformed") -> PathEnsemble:
    """Explicit Euler-Maruyama for Y from y0 = x0 + u(0, x0)."""
    if cfg.dimension != ctx.u.grid.dimension:
        raise ValueError("config dimension does not match the transform")
    if cfg.horizon != ctx.horizon:
        raise ValueError("config horizon does not match the transform")
    x0 = np.asarray(cfg.x0)
    y0 = x0 + evaluate(ctx.u_at(0.0), x0[None])[0]
    dt = cfg.dt

    def step(m, y, dw):
        mu, sigma = coefficients(ctx, cfg.lam, m * dt, y)
        return y + mu * dt + np.einsum("pij,pj->pi", sigma, dw)

    states = _euler(cfg, y0, step)
    prov = {"stream": STREAM_RULE, "base_steps": cfg.base_steps or cfg.steps,
            "block": _PATH_BLOCK, "y0": list(np.atleast_1d(y0))}
    return PathEnsemble(states=states, config=cfg, label=label, provenance=prov)


def virtual_x(ctx: TransformContext, ens: PathEnsemble, label: str = "virtual") -> PathEnsemble:
    """X_m = psi(t_m, Y_m) nodewise; psi is solved fresh at every node."""
    cfg = ens.config
    out = np.empty_like(np.asarray(ens.states))
    for m, t in enumerate(cfg.times):
        out[:, m] = psi(ctx, t, ens.states[:, m])
    prov = dict(ens.provenance)
    prov["transformed_from"] = ens.label
    return PathEnsemble(states=out, config=cfg, label=label, provenance=prov)


def simulate_classical(b: TimeField, cfg: SimConfig, label: str = "classical") -> PathEnsemble:
    """Euler-Maruyama for dX = b(t, X) dt + dW (unit diffusion).

    Meant for smooth(ed) drifts; b is looked up at the latest drift node at or
    before t, matching piecewise-constant time dependence.
    """
    if cfg.dimension != b.grid.dimension:
        raise ValueError("config dimension does not match the drift")
    dt = cfg.dt
    x0 = np.asarray(cfg.x0)
    # drift nodes looked up once per step; sim and drift grids need not match
    fields = [b.at_time(min(m * dt, b.horizon), rule="left") for m in range(cfg.steps)]
    states = _euler(cfg, x0, lambda m, x, dw: x + evaluate(fields[m], x) * dt + dw)
    prov = {"stream": STREAM_RULE, "base_steps": cfg.base_steps or cfg.steps,
            "block": _PATH_BLOCK}
    return PathEnsemble(states=states, config=cfg, label=label, provenance=prov)


def virtual_residual(ctx: TransformContext, lam: float, ens: PathEnsemble,
                     increments: np.ndarray | None = None) -> float:
    """Largest defect of the discrete virtual-solution identity along ens.

    Checks X_m against x0 + u(0,x0) - u(t_m, X_m)
    + (lam+1) sum_{l<m} u(t_l, X_l) dt + sum_{l<m} (grad u(t_l, X_l) + I) dW_l
    with left-node sums, sharing the ensemble's own increments.
    """
    cfg = ens.config
    d = cfg.dimension
    if increments is None:
        increments = brownian_increments(cfg)
    dt = cfg.dt
    x0 = np.asarray(cfg.x0)
    head = x0 + evaluate(ctx.u_at(0.0), x0[None])[0]
    acc = np.zeros((cfg.paths, d))
    worst = 0.0
    for m, t in enumerate(cfg.times):
        x_m = ens.states[:, m]
        u_m = evaluate(ctx.u_at(t), x_m)
        rhs = head[None] - u_m + acc
        defect = np.linalg.norm(x_m - rhs, axis=1)
        worst = max(worst, float(defect.max()))
        if m == cfg.steps:
            break
        jac = evaluate(ctx.jacobian_at(t), x_m).reshape(-1, d, d)
        sigma = jac + np.eye(d)[None]
        acc = acc + (lam + 1.0) * u_m * dt \
            + np.einsum("pij,pj->pi", sigma, increments[:, m])
    return worst


# --- ensemble container format ---------------------------------------------------
#
# Single file: magic, u64 little-endian header length, JSON header
# (config, label, provenance, shape), then the state array as little-endian f64.


def save_ensemble(ens: PathEnsemble, path) -> Path:
    path = Path(path)
    header = {
        "config": ens.config.to_dict(),
        "label": ens.label,
        "provenance": ens.provenance,
        "shape": list(ens.states.shape),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_ENSEMBLE_MAGIC)
        fh.write(np.array(len(blob), dtype="<u8").tobytes())
        fh.write(blob)
        fh.write(np.ascontiguousarray(ens.states.astype("<f8")).tobytes())
    return path


def load_ensemble(path) -> PathEnsemble:
    raw = Path(path).read_bytes()
    if raw[:4] != _ENSEMBLE_MAGIC:
        raise ValueError("not an ensemble file")
    hlen = int(np.frombuffer(raw[4:12], dtype="<u8")[0])
    header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    states = np.frombuffer(raw[12 + hlen :], dtype="<f8").reshape(header["shape"])
    cfg = SimConfig.from_dict(header["config"])
    return PathEnsemble(states=states.astype(np.float64), config=cfg,
                        label=header["label"], provenance=header["provenance"])
