"""The three benchmark workloads: inputs, one measured round, checks, fingerprints.

Each workload fixes its drift (the drift seed is part of its definition, so
the time of the solver and of the calibration does not depend on the run's
seed); the run's seed keys the Brownian paths and the points the checks draw.
A round calls the package through its module attributes, so a traced run sees
every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks

PACKAGE = "singular_drift"
MODULES = ("spectral", "paraproduct", "drifts", "kolmogorov", "zvonkin", "sde", "lab")

ROUGH_1D = dict(family="random-fourier", seed=42, beta=0.25, eta=0.3, amplitude=0.25)
SMOOTH_1D = dict(family="smooth-test", seed=1, beta=0.25, amplitude=0.2)
ROUGH_2D = dict(family="random-fourier", seed=42, beta=0.25, eta=0.3, amplitude=0.05)


def import_package(root: Path):
    """Import the package from <root>/src and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    pkg = importlib.import_module(PACKAGE)
    where = Path(pkg.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"{PACKAGE} imported from {where}, not from {src}")
    for name in MODULES:
        setattr(pkg, name, importlib.import_module(f"{PACKAGE}.{name}"))
    return pkg


def cpu_seconds() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def sha256(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()


@dataclasses.dataclass
class Round:
    """Timings of one round and the outputs its checks need."""

    total_s: float
    cpu_s: float
    transform_s: float
    path_steps: int
    path_s: float
    out: dict


@contextlib.contextmanager
def capture(module, names):
    """Time and keep the results of calls to module.<name> while active."""
    calls = []
    saved = {n: getattr(module, n) for n in names}

    def timed(name, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            calls.append((name, time.perf_counter() - t0, result))
            return result
        return call

    for n, fn in saved.items():
        setattr(module, n, timed(n, fn))
    try:
        yield calls
    finally:
        for n, fn in saved.items():
            setattr(module, n, fn)


class Workload:
    """One workload; why each was chosen is in BENCHMARK.json and README.md."""

    name = ""
    ops = 3         # prepare_transform, simulate_y, virtual_x

    def setup(self, sd, seed: int) -> dict:
        cfg = self.config(sd, seed)
        b = sd.drifts.generate(cfg.drift, cfg.grid(), cfg.horizon, cfg.pde_nodes)
        return {"cfg": cfg, "b": b, "seed": seed}

    def config(self, sd, seed: int):
        raise NotImplementedError

    def run_round(self, sd, inp) -> Round:
        """prepare_transform, then simulate_y and virtual_x over cfg.paths."""
        cfg = inp["cfg"]
        c0, t0 = cpu_seconds(), time.perf_counter()
        bundle = sd.lab.prepare_transform(cfg, drift=inp["b"])
        t1 = time.perf_counter()
        sim = sd.sde.SimConfig(x0=cfg.x0, horizon=cfg.horizon, steps=cfg.steps,
                               paths=cfg.paths, seed=cfg.seed, lam=bundle["lam"])
        y = sd.sde.simulate_y(bundle["ctx"], sim)
        x = sd.sde.virtual_x(bundle["ctx"], y)
        t2 = time.perf_counter()
        return Round(total_s=t2 - t0, cpu_s=cpu_seconds() - c0, transform_s=t1 - t0,
                     path_steps=cfg.paths * cfg.steps, path_s=t2 - t1,
                     out={"bundle": bundle, "y": np.asarray(y.states),
                          "x": np.asarray(x.states), "sim": sim})

    def checks(self, sd, inp, out) -> list:
        bundle = out["bundle"]
        cfg = inp["cfg"]
        u = bundle["u"].coeffs
        found = checks.certificate_checks(u, cfg.period)
        found += checks.path_checks(u, cfg.period, bundle["lam"], out["y"], out["x"],
                                    out["sim"].seed, cfg.horizon, sd.sde.STREAM_RULE)
        return found

    def fingerprint(self, out) -> dict:
        bundle = out["bundle"]
        report = bundle["solve_report"]
        term = out["x"][:, -1]
        return {
            "lambda": bundle["lam"],
            "lambda_trace": [list(t) for t in bundle["trace"]],
            "gradient_sup": bundle["ctx"].gradient_bound,
            "sweeps": report.iterations,
            "rho": report.rho,
            "terminal_mean": term.mean(axis=0).tolist(),
            "terminal_sd": term.std(axis=0, ddof=1).tolist(),
            "sha256_x": sha256(out["x"]),
            "sha256_y": sha256(out["y"]),
        }


def _config_1d(sd, seed, drift, pde_nodes, paths):
    return sd.lab.ExperimentConfig(name="perfbench", drift=sd.drifts.DriftSpec(**drift),
                                   modes=256, pde_nodes=pde_nodes, horizon=1.0, q=3.0,
                                   steps=pde_nodes, paths=paths, seed=seed)


class Rough1d(Workload):
    name = "rough-1d"

    def config(self, sd, seed):
        # M=64 time nodes (and steps, which must match them): the same lambda
        # trace as M=128 (1, 2, 4, 8) at well under half the cost, so that a run
        # holds several rounds to take the median of
        return _config_1d(sd, seed, ROUGH_1D, pde_nodes=64, paths=2048)

    def checks(self, sd, inp, out):
        bundle = out["bundle"]
        found = checks.calibration_checks(bundle["lam"], bundle["trace"])
        found += super().checks(sd, inp, out)
        v = bundle["u"].reversed_time()
        residual = sd.kolmogorov.mild_residual(v, bundle["b"], bundle["lam"],
                                              bundle["pde"], 0.0)
        found.append(checks.residual_check(residual, bundle["pde"].tol))
        found.append(checks.round_trip_check(round_trip(sd, bundle["ctx"], inp["seed"])))
        return found


def round_trip(sd, ctx, seed: int, times: int = 64, per_time: int = 16) -> float:
    """Largest |psi(t, phi(t, x)) - x| over points drawn from the seed, with
    the inverse iterated to 1e-12 rather than the simulation's tolerance."""
    tight = dataclasses.replace(ctx, inverse_tol=1e-12)
    rng = np.random.default_rng(seed)
    d = ctx.u.grid.dimension
    worst = 0.0
    for t in rng.uniform(0.0, ctx.horizon, size=times):
        x = rng.uniform(0.0, ctx.u.grid.period, size=(per_time, d))
        back = sd.zvonkin.psi(tight, t, sd.zvonkin.phi(tight, t, x))
        worst = max(worst, float(np.abs(back - x).max()))
    return worst


class Smooth1dMollify(Workload):
    name = "smooth-1d-mollify"
    ops = 1         # study_mollify

    def config(self, sd, seed):
        return _config_1d(sd, seed, SMOOTH_1D, pde_nodes=128, paths=2048)

    def run_round(self, sd, inp):
        cfg = inp["cfg"]
        names = ("prepare_transform", "simulate_y", "virtual_x", "simulate_classical")
        c0, t0 = cpu_seconds(), time.perf_counter()
        with capture(sd.lab, names) as calls:
            report = sd.lab.study_mollify(cfg)
        total = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        by_name = {}
        for name, secs, result in calls:
            by_name.setdefault(name, []).append((secs, result))
        (prep_s, bundle), = by_name["prepare_transform"]
        (ys, y), = by_name["simulate_y"]
        (xs, x), = by_name["virtual_x"]
        classical = [np.asarray(r.states) for _s, r in by_name["simulate_classical"]]
        return Round(total_s=total, cpu_s=cpu, transform_s=prep_s,
                     path_steps=cfg.paths * cfg.steps, path_s=ys + xs,
                     out={"bundle": bundle, "report": report, "y": np.asarray(y.states),
                          "x": np.asarray(x.states), "sim": y.config,
                          "classical": classical})

    def checks(self, sd, inp, out):
        cfg = inp["cfg"]
        report = out["report"]
        classical = out["classical"]
        levels = len(cfg.n_list)
        found = super().checks(sd, inp, out)
        found += checks.mollify_checks(
            report.levels, report.floor, cfg.n_list,
            [c[:, -1] for c in classical[:levels]], out["x"][:, -1],
            (classical[levels][:, -1], classical[levels + 1][:, -1]))
        return found

    def fingerprint(self, out):
        fp = super().fingerprint(out)
        report = out["report"]
        fp["kendall_tau"] = report.trend["tau"]
        fp["w1_terminal"] = [row["w1_t1"] for row in report.levels]
        fp["floor"] = report.floor
        return fp


class Rough2d(Workload):
    name = "rough-2d"

    def config(self, sd, seed):
        return sd.lab.ExperimentConfig(
            name="perfbench", drift=sd.drifts.DriftSpec(**ROUGH_2D), dimension=2,
            x0=(0.0, 0.0), modes=32, pde_nodes=16, horizon=1.0, q=5.0, steps=16,
            paths=1024, seed=seed)


WORKLOADS = {w.name: w for w in (Rough1d(), Smooth1dMollify(), Rough2d())}
