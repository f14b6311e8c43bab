"""Euler-Maruyama simulation of the transformed equation.

The process Y solves dY = mu(t, Y) dt + sigma(t, Y) dW with

    mu(t, y)    = (lam + 1) u(t, psi(t, y)),
    sigma(t, y) = grad u(t, psi(t, y)) + I,

started from y0 = x0 + u(0, x0); X = psi(t, Y) is the virtual solution of the
rough-drift equation.  The Euler loop advances the pair (Y_m, X_m): each step
evaluates mu and sigma at X_m and solves X_{m+1} = psi(t_{m+1}, Y_{m+1}), so
psi is solved once per node, and `virtual_x` hands back the X the steps used.

Brownian increments come from counter-based streams so two simulations
sharing a seed see identical noise regardless of path count, mollification
level, or lambda (exact common random numbers).  Simulation is serial: each
Euler-Maruyama step advances every path in one batch, and off-grid evaluation
rounds each point the same in any batch, so the bytes are a pure function of
the SimConfig.

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

from .spectral import TimeField, _read_only, evaluate, singular_values_sq
from .kolmogorov import GRADIENT_TARGET
from .zvonkin import TransformContext, psi, transform_jacobian

__all__ = [
    "EllipticityError",
    "SimConfig",
    "PathEnsemble",
    "brownian_increments",
    "coefficients",
    "simulate_y",
    "virtual_x",
    "simulate_classical",
    "save_ensemble",
    "load_ensemble",
]

_PATH_BLOCK = 2048       # partition of the path axis in brownian_increments; bounds Box-Muller
_ENSEMBLE_MAGIC = b"SDE1"
_last_noise: dict = {}   # brownian_increments' one entry: key -> read-only increments

STREAM_RULE = ("philox2x64 key=(seed,path); step m uses uniform doubles "
               "(2m,2m+1) via box-muller, first d normals")


class EllipticityError(RuntimeError):
    """The diffusion matrix lost its lower singular-value floor 1 - GRADIENT_TARGET."""


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
        for name in ("steps", "paths", "base_steps"):
            n = getattr(self, name)
            if n is not None and not float(n).is_integer():
                raise ValueError(f"{name} must be an integer, got {n!r}")
            object.__setattr__(self, name, n if n is None else int(n))
        if self.steps < 1 or self.paths < 1:
            raise ValueError("steps and paths must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.seed < 0 or int(self.seed) != self.seed:
            raise ValueError("seed must be a nonnegative integer")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
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
        return SimConfig(**d)


@dataclass(frozen=True)
class PathEnsemble:
    """States on the uniform step grid, shape (paths, steps+1, d).

    virtual, set only by simulate_y, holds X = psi(t, Y) at the same nodes;
    it is None for every other ensemble.
    """

    states: np.ndarray
    config: SimConfig
    label: str
    provenance: dict
    virtual: np.ndarray | None = None

    def __post_init__(self):
        expect = (self.config.paths, self.config.steps + 1, self.config.dimension)
        for name in ("states",) if self.virtual is None else ("states", "virtual"):
            s = np.array(getattr(self, name), dtype=np.float64)
            if s.shape != expect:
                raise ValueError(f"{name} shape {s.shape} != {expect}")
            object.__setattr__(self, name, _read_only(s))

    def terminal(self) -> np.ndarray:
        return self.states[:, -1, :]

    def at_time(self, t: float) -> np.ndarray:
        """Marginal at the nearest step node; t outside [0, horizon] is refused."""
        horizon = self.config.horizon
        eps = 1e-12 * max(horizon, 1.0)
        if t < -eps or t > horizon + eps:
            raise ValueError(f"time {t} outside [0, {horizon}]")
        return self.states[:, int(round(t / horizon * self.config.steps)), :]


# --- noise -----------------------------------------------------------------


def _block_normals(seed: int, lo: int, hi: int, steps: int, d: int) -> np.ndarray:
    """The first d normals of each Box-Muller pair for paths [lo, hi), shape
    (hi-lo, steps, d)."""
    uni = np.empty((hi - lo, steps, 2))
    for i, p in enumerate(range(lo, hi)):
        key = np.array([seed, p], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        uni[i] = gen.random((steps, 2))
    radial = np.sqrt(-2.0 * np.log1p(-uni[..., 0]))   # 1-u in (0,1] avoids log 0
    angle = 2.0 * np.pi * uni[..., 1]
    z = np.empty((hi - lo, steps, d))
    for j, trig in enumerate((np.cos, np.sin)[:d]):
        np.multiply(radial, trig(angle), out=z[..., j])
    return z


def brownian_increments(cfg: SimConfig) -> np.ndarray:
    """All increments (paths, steps, d), summed from base_steps draws; read-only.

    The noise is a pure function of the key below, so the last draw is handed
    back for an equal key (the runs of a study on one seed share it) and
    dropped before any other draw.  Box-Muller runs over a fixed partition of
    the path axis and writes each block in place into the output, so its
    temporaries stay bounded at any path count.
    """
    base = cfg.base_steps or cfg.steps
    d = cfg.dimension
    key = (cfg.seed, cfg.paths, cfg.steps, base, d, cfg.horizon)
    hit = _last_noise.get(key)
    if hit is not None:
        return hit
    _last_noise.clear()
    k = base // cfg.steps
    out = np.empty((cfg.paths, cfg.steps, d))
    for lo in range(0, cfg.paths, _PATH_BLOCK):
        hi = min(lo + _PATH_BLOCK, cfg.paths)
        z = _block_normals(cfg.seed, lo, hi, base, d)
        z *= np.sqrt(cfg.horizon / base)
        if k == 1:
            out[lo:hi] = z
        else:
            np.sum(z.reshape(hi - lo, cfg.steps, k, d), axis=2, out=out[lo:hi])
    _last_noise[key] = _read_only(out)
    return out


# --- coefficients of the transformed equation --------------------------------


def coefficients(ctx: TransformContext, lam: float, t: float, x) -> tuple:
    """Drift (m, d) and diffusion (m, d, d) of Y at time t, where X = psi(t, Y)
    sits at the (m, d) batch x.

    mu = (lam+1) u(t, x), sigma = grad u(t, x) + I.  The lower singular-value
    floor 1 - GRADIENT_TARGET, which the gradient certificate guarantees, is
    asserted on every evaluation; a NaN singular value fails it.
    """
    d = ctx.u.grid.dimension
    mu = (lam + 1.0) * evaluate(ctx.u_at(t), x)
    sigma = transform_jacobian(ctx, t, x) + np.eye(d)[None]
    smin_sq, _ = singular_values_sq(sigma)
    floor = (1.0 - GRADIENT_TARGET) ** 2 * (1.0 - 1e-6)
    if not np.all(smin_sq >= floor):      # NaN fails too
        raise EllipticityError(
            f"min singular value {np.sqrt(smin_sq.min()):.6f} fell below "
            f"{1.0 - GRADIENT_TARGET:g}"
        )
    return mu, sigma


# --- simulators ----------------------------------------------------------------


def _euler(cfg: SimConfig, state0: np.ndarray, step) -> np.ndarray:
    """Euler-Maruyama nodes (..., paths, steps+1, d) of state <- step(m, state, dW_m)
    from the states state0 (..., paths, d); each step advances every path at once."""
    dw = brownian_increments(cfg)
    out = np.empty(state0.shape[:-1] + (cfg.steps + 1, cfg.dimension))
    out[..., 0, :] = state = state0
    for m in range(cfg.steps):
        state = step(m, state, dw[:, m])
        out[..., m + 1, :] = state
    return out


def simulate_y(ctx: TransformContext, cfg: SimConfig, label: str = "transformed") -> PathEnsemble:
    """Explicit Euler-Maruyama for Y from y0 = x0 + u(0, x0), carrying X.

    The state is the pair (Y_m, X_m) with X_m = psi(t_m, Y_m): a step takes mu
    and sigma at X_m, forms Y_{m+1} and solves psi once at t_{m+1}.  X is kept
    in the ensemble's `virtual` field.
    """
    if cfg.dimension != ctx.u.grid.dimension:
        raise ValueError("config dimension does not match the transform")
    if cfg.horizon != ctx.horizon:
        raise ValueError("config horizon does not match the transform")
    x0 = np.asarray(cfg.x0)
    y0 = x0 + evaluate(ctx.u_at(0.0), x0[None])[0]
    times = cfg.times
    dt = cfg.dt

    def pair(m, y):
        return np.stack([y, psi(ctx, times[m], y)])

    def step(m, yx, dw):
        mu, sigma = coefficients(ctx, cfg.lam, times[m], yx[1])
        return pair(m + 1, yx[0] + mu * dt + np.einsum("pij,pj->pi", sigma, dw))

    y, x = _euler(cfg, pair(0, np.tile(y0, (cfg.paths, 1))), step)
    prov = {"stream": STREAM_RULE, "base_steps": cfg.base_steps or cfg.steps,
            "y0": list(np.atleast_1d(y0))}
    return PathEnsemble(states=y, config=cfg, label=label, provenance=prov, virtual=x)


def virtual_x(ctx: TransformContext, ens: PathEnsemble, label: str = "virtual") -> PathEnsemble:
    """The virtual solution X = psi(t, Y) that simulate_y carried along ens.

    These are the points at which the Euler steps evaluated mu and sigma; psi
    is not solved again, so ctx (the transform ens was simulated with) is not
    read.  Raises ValueError for an ensemble without X (classical or loaded
    from disk).
    """
    if ens.virtual is None:
        raise ValueError(f"ensemble {ens.label!r} carries no virtual solution; "
                         f"it was not made by simulate_y")
    prov = dict(ens.provenance)
    prov["transformed_from"] = ens.label
    return PathEnsemble(states=ens.virtual, config=ens.config, label=label, provenance=prov)


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
    states = _euler(cfg, np.tile(x0, (cfg.paths, 1)),
                    lambda m, x, dw: x + evaluate(fields[m], x) * dt + dw)
    prov = {"stream": STREAM_RULE, "base_steps": cfg.base_steps or cfg.steps}
    return PathEnsemble(states=states, config=cfg, label=label, provenance=prov)


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
