"""Euler-Maruyama simulation of the transformed equation.

The process Y solves dY = mu(t, Y) dt + sigma(t, Y) dW with

    mu(t, y)    = (lam + 1) u(t, psi(t, y)) = (lam + 1) (y - psi(t, y)),
    sigma(t, y) = grad u(t, psi(t, y)) + I,

started from y0 = phi(0, x0); X = psi(t, Y) is the virtual solution of the
rough-drift equation.  The Euler loop advances the pair (Y_m, X_m) from
(y0, x0): each step takes mu from the identity Y = X + u(t, X), evaluates sigma
at X_m and solves X_{m+1} = psi(t_{m+1}, Y_{m+1}), so psi is solved once per
step, and `virtual_x` hands back the X the steps used.

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

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .spectral import (SpectralField, TimeField, _is_count, _read_only, _read_snapshot,
                       _write_snapshot, evaluate, singular_values_sq)
from .kolmogorov import GRADIENT_TARGET
from .zvonkin import TransformContext, phi, psi, transform_jacobian

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
_last_noise: dict = {}   # brownian_increments' one entry: key -> read-only base draw

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
            if n is not None and not _is_count(n, 1):
                raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
            object.__setattr__(self, name, n if n is None else int(n))
        if not np.all(np.isfinite(self.x0)):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        if not 0.0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if not _is_count(self.seed):
            raise ValueError("seed must be a nonnegative integer")
        object.__setattr__(self, "seed", int(self.seed))
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
        if not -eps <= t <= horizon + eps:
            raise ValueError(f"time {t} outside [0, {horizon}]")
        return self.states[:, int(round(t / horizon * self.config.steps)), :]


# --- noise -----------------------------------------------------------------


def _block_normals(seed: int, lo: int, hi: int, steps: int, d: int) -> np.ndarray:
    """The first d normals of each Box-Muller pair for paths [lo, hi), shape
    (hi-lo, steps, d).  One generator serves the block: its Philox state is
    set to what Philox(key=(seed, p)) starts from (counter 0, empty buffer)
    before path p draws, so the draw is the per-path generators' bit for bit
    without building one per path."""
    uni = np.empty((hi - lo, steps, 2))
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    key = np.array([seed, 0], dtype=np.uint64)
    start = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for i, p in enumerate(range(lo, hi)):
        key[1] = p
        bits.state = start      # the setter copies the values
        gen.random(out=uni[i])
    radial = np.sqrt(-2.0 * np.log1p(-uni[..., 0]))   # 1-u in (0,1] avoids log 0
    angle = 2.0 * np.pi * uni[..., 1]
    z = np.empty((hi - lo, steps, d))
    for j, trig in enumerate((np.cos, np.sin)[:d]):
        np.multiply(radial, trig(angle), out=z[..., j])
    return z


def brownian_increments(cfg: SimConfig) -> np.ndarray:
    """All increments (paths, steps, d), summed from base_steps draws; read-only.

    The base draw is a pure function of the key below, so the last one is kept
    for an equal key (the runs of a study on one seed share it, at every step
    count that nests in it) and dropped before any other draw.  Box-Muller runs
    over a fixed partition of the path axis and writes each block in place
    into the draw, so its temporaries stay bounded at any path count.
    """
    base = cfg.base_steps or cfg.steps
    d = cfg.dimension
    key = (cfg.seed, cfg.paths, base, d, cfg.horizon)
    z = _last_noise.get(key)
    if z is None:
        _last_noise.clear()
        z = np.empty((cfg.paths, base, d))
        for lo in range(0, cfg.paths, _PATH_BLOCK):
            hi = min(lo + _PATH_BLOCK, cfg.paths)
            np.multiply(_block_normals(cfg.seed, lo, hi, base, d),
                        np.sqrt(cfg.horizon / base), out=z[lo:hi])
        _last_noise[key] = z = _read_only(z)
    if base == cfg.steps:
        return z
    return _read_only(np.sum(z.reshape(cfg.paths, cfg.steps, base // cfg.steps, d), axis=2))


# --- coefficients of the transformed equation --------------------------------


def coefficients(ctx: TransformContext, lam: float, t: float, y, x) -> tuple:
    """Drift (m, d) and diffusion (m, d, d) of Y at time t, for the (m, d)
    batch y and its inverse x = psi(t, y).

    mu = (lam+1)(y - x), which is (lam+1) u(t, x) by y = x + u(t, x) up to
    (lam+1) q tol, q the gradient bound and tol psi's; sigma = grad u(t, x) + I.
    The lower singular-value floor 1 - GRADIENT_TARGET, which the gradient
    certificate guarantees, is asserted on every evaluation; a NaN singular
    value fails it.
    """
    d = ctx.u.grid.dimension
    mu = (lam + 1.0) * np.subtract(y, x)
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


def _check_frame(cfg: SimConfig, tf: TimeField, what: str):
    """Refuse a config whose dimension or horizon is not the field's."""
    for name, want in (("dimension", tf.grid.dimension), ("horizon", tf.horizon)):
        if getattr(cfg, name) != want:
            raise ValueError(f"config {name} does not match the {what}")


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


def simulate_y(ctx: TransformContext, cfg: SimConfig) -> PathEnsemble:
    """Explicit Euler-Maruyama for Y from y0 = phi(0, x0), carrying X.

    The state is the pair (Y_m, X_m) with X_m = psi(t_m, Y_m), started from
    (y0, x0): a step takes mu and sigma at (Y_m, X_m), forms Y_{m+1} and solves
    psi once at t_{m+1}.  X is kept in the ensemble's `virtual` field.
    """
    _check_frame(cfg, ctx.u, "transform")
    x0 = np.asarray(cfg.x0)
    y0 = phi(ctx, 0.0, x0[None])[0]
    times = cfg.times
    dt = cfg.dt

    def step(m, yx, dw):
        mu, sigma = coefficients(ctx, cfg.lam, times[m], yx[0], yx[1])
        y = yx[0] + mu * dt + np.einsum("pij,pj->pi", sigma, dw)
        return np.stack([y, psi(ctx, times[m + 1], y)])

    y, x = _euler(cfg, np.stack([np.tile(v, (cfg.paths, 1)) for v in (y0, x0)]), step)
    prov = {"stream": STREAM_RULE, "base_steps": cfg.base_steps or cfg.steps,
            "y0": list(np.atleast_1d(y0))}
    return PathEnsemble(states=y, config=cfg, label="transformed", provenance=prov, virtual=x)


def virtual_x(ctx: TransformContext, ens: PathEnsemble) -> PathEnsemble:
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
    return PathEnsemble(states=ens.virtual, config=ens.config, label="virtual", provenance=prov)


def simulate_classical(b: TimeField, cfg: SimConfig) -> PathEnsemble:
    """Euler-Maruyama for dX = b(t, X) dt + dW (unit diffusion).

    Meant for smooth(ed) drifts; b is looked up at the latest drift node at or
    before t, matching piecewise-constant time dependence.  One field is built
    per drift node, and a node equal to the one before shares its field, so a
    static drift finds its evaluation band once.  A config off the drift's
    dimension or horizon is refused.
    """
    _check_frame(cfg, b, "drift")
    dt, h = cfg.dt, b.horizon
    x0 = np.asarray(cfg.x0)
    fields = [SpectralField(b.grid, b.coeffs[0])]
    for prev, c in zip(b.coeffs, b.coeffs[1:]):
        fields.append(fields[-1] if np.array_equal(c, prev) else SpectralField(b.grid, c))
    # the node at or before each step's time; the step counts need not match
    node = [int(np.floor(m * dt / h * b.nodes)) for m in range(cfg.steps)]
    states = _euler(cfg, np.tile(x0, (cfg.paths, 1)),
                    lambda m, x, dw: x + evaluate(fields[node[m]], x) * dt + dw)
    prov = {"stream": STREAM_RULE, "base_steps": cfg.base_steps or cfg.steps}
    return PathEnsemble(states=states, config=cfg, label="classical", provenance=prov)


# --- ensemble snapshot --------------------------------------------------------


def save_ensemble(ens: PathEnsemble, path) -> Path:
    """Write the states as '<f8' in a spectral snapshot whose sidecar holds the
    config, label, provenance and shape; X (`virtual`) is not saved."""
    meta = {"config": ens.config.to_dict(), "label": ens.label,
            "provenance": ens.provenance, "shape": list(ens.states.shape)}
    return _write_snapshot(path, ens.states, "<f8", meta)


def load_ensemble(path) -> PathEnsemble:
    meta, states = _read_snapshot(path, "<f8", lambda m: m["shape"])
    return PathEnsemble(states=states, config=SimConfig.from_dict(meta["config"]),
                        label=meta["label"], provenance=meta["provenance"])
