"""Statistical studies: convergence in law along mollified drifts, invariance
of the virtual solution under the damping parameter, and consistency with the
direct simulation when the drift is smooth.

Every study is a pure function of an ExperimentConfig; results land in
results/<digest>/ with a JSON report, RFC-4180 CSV tables, the drift and
solution snapshots, and a manifest of file digests, so reruns are
byte-reproducible (wall-clock timings live only in the report).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .spectral import GridSpec, TimeField, _is_count, save_time_field
from .drifts import (DriftSpec, _check_window, assumption_check, generate,
                     mollified_sequence, pick_kappa)
from .paraproduct import ladder_agrees
from .kolmogorov import PdeConfig, calibrate_lambda, solve_fwd
from .zvonkin import TransformContext
from .sde import PathEnsemble, SimConfig, simulate_classical, simulate_y, virtual_x

__all__ = [
    "ExperimentConfig",
    "StudyReport",
    "wasserstein1",
    "ks_stat",
    "kendall_trend",
    "environment_fingerprint",
    "config_digest",
    "prepare_transform",
    "save_solution",
    "study_mollify",
    "study_lambda",
    "study_smooth_consistency",
    "REPORT_TIMES",
]

REPORT_TIMES = (0.25, 0.5, 0.75, 1.0)   # fractions of the horizon


# --- sample statistics ----------------------------------------------------------


def wasserstein1(a, b) -> float:
    """Exact 1-d W1 between empirical laws.

    Equal sample counts: mean absolute difference of the sorted samples.
    Unequal counts na, nb: the quantile functions are constant between the
    merged breaks k/L, L = lcm(na, nb), so W1 sums width * |a_i - b_j| over L.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    if a.size == b.size:
        return float(np.mean(np.abs(a - b)))
    L = math.lcm(a.size, b.size)
    ends_a = np.arange(1, a.size + 1) * (L // a.size)
    ends_b = np.arange(1, b.size + 1) * (L // b.size)
    ends = np.union1d(ends_a, ends_b)
    gaps = np.abs(a[np.searchsorted(ends_a, ends)] - b[np.searchsorted(ends_b, ends)])
    return float(np.sum(np.diff(ends, prepend=0) * gaps) / L)


def ks_stat(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def kendall_trend(levels, values) -> dict:
    """Kendall tau-b of values against levels, with a one-sided test for a
    decreasing trend.

    p_one_sided is P(S <= s_obs) under the null of no association, S being
    concordant minus discordant pairs.  Without ties it is exact, from the
    counts of permutations by inversions; with ties it is the tie-corrected
    normal approximation.  p_method says which ("exact" or "normal").
    """
    x = np.asarray(levels, dtype=float).ravel()
    y = np.asarray(values, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("levels and values must have the same length")
    n = x.size
    if n < 2:
        raise ValueError("Kendall's tau needs at least two points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("levels and values must be finite")
    i, j = np.triu_indices(n, 1)
    dx, dy = np.sign(x[j] - x[i]), np.sign(y[j] - y[i])
    tot = n * (n - 1) // 2
    xtie, ytie = int(np.sum(dx == 0)), int(np.sum(dy == 0))
    if xtie == tot or ytie == tot:
        raise ValueError("Kendall's tau is undefined when levels or values are all equal")
    pair_signs = dx * dy
    dis = int(np.sum(pair_signs < 0))
    con_minus_dis = int(np.sum(pair_signs))
    tau = con_minus_dis / math.sqrt(tot - xtie) / math.sqrt(tot - ytie)
    tau = min(1.0, max(-1.0, tau))
    if xtie == 0 and ytie == 0:
        p_one, method = sum(_inversion_counts(n)[dis:]) / math.factorial(n), "exact"
    else:
        x0, x1 = _tie_sums(x)
        y0, y1 = _tie_sums(y)
        m = n * (n - 1.0)
        var = ((m * (2 * n + 5) - x1 - y1) / 18 + (2 * xtie * ytie) / m
               + x0 * y0 / (9 * m * (n - 2)))
        z = con_minus_dis / math.sqrt(var)
        p_one, method = 0.5 * math.erfc(-z / math.sqrt(2.0)), "normal"
    return {"tau": tau, "p_one_sided": p_one, "p_method": method,
            "decreasing_at_5pct": bool(tau < 0 and p_one < 0.05)}


def _inversion_counts(n: int) -> list:
    """M(n, k) for k = 0..n(n-1)/2: the permutations of n items with k
    inversions (Kendall, Rank Correlation Methods, 1970), as Python ints."""
    counts = [1]
    for j in range(1, n):
        # item j+1 goes into one of j+1 slots and adds 0..j inversions
        prefix = [0, *itertools.accumulate(counts)]
        counts = [prefix[min(k + 1, len(counts))] - prefix[max(k - j, 0)]
                  for k in range(len(counts) + j)]
    return counts


def _tie_sums(a: np.ndarray) -> tuple:
    """Sums of t(t-1)(t-2) and t(t-1)(2t+5) over the tie groups of sizes t."""
    t = np.unique(a, return_counts=True)[1]
    return int(np.sum(t * (t - 1) * (t - 2))), int(np.sum(t * (t - 1) * (2 * t + 5)))


# --- configuration ---------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a study needs; studies are pure functions of this record."""

    name: str
    drift: DriftSpec
    dimension: int = 1
    modes: int = 256
    horizon: float = 1.0
    pde_nodes: int = 128
    q: float = 3.0
    lam: float | None = None        # None: calibrate by doubling
    x0: tuple = (0.0,)
    steps: int = 128
    paths: int = 10000
    seed: int = 1234
    n_list: tuple = (2, 4, 8, 16, 32)
    lambda_list: tuple | None = None
    steps_list: tuple = (250, 500, 1000)
    out_dir: str | None = None
    note: str = ""                  # free-form; never feeds seeds or results
    period = GridSpec.period        # a constant, not a field: the torus is fixed

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(c) for c in self.x0))
        if self.lambda_list is not None:
            object.__setattr__(self, "lambda_list",
                               tuple(float(l) for l in self.lambda_list))
        if len(self.x0) != self.dimension:
            raise ValueError("x0 must have `dimension` coordinates")
        if not _is_count(self.pde_nodes, 1):
            raise ValueError(f"pde_nodes must be an integer >= 1, got {self.pde_nodes!r}")
        object.__setattr__(self, "pde_nodes", int(self.pde_nodes))
        n = self.n_list
        if (len(n) < 2 or not all(_is_count(k, 1) for k in n)
                or any(a >= b for a, b in zip(n, n[1:]))):
            raise ValueError("n_list must hold at least two positive, strictly "
                             "increasing integer mollifier levels")
        object.__setattr__(self, "n_list", tuple(int(k) for k in n))
        steps = self.steps_list
        if (not steps or not all(_is_count(k, 1) for k in steps)
                or len(set(steps)) != len(steps) or any(max(steps) % k for k in steps)):
            raise ValueError("steps_list must hold distinct positive step counts "
                             "that each divide the largest")
        object.__setattr__(self, "steps_list", tuple(int(k) for k in steps))
        if self.lam is not None and not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be None or positive and finite, got {self.lam}")
        lams = self.lambda_list
        if lams is not None and (len(lams) < 2 or len(set(lams)) != len(lams)
                                 or not all(0.0 < lam < math.inf for lam in lams)):
            raise ValueError("lambda_list must hold at least two distinct, positive, "
                             "finite lambdas")
        # refused now, not after calibration (which starts at lambda = 1)
        self.grid()
        _check_window(self.drift.beta, self.q, self.dimension)
        self.sim(1.0 if self.lam is None else self.lam)
        object.__setattr__(self, "seed", int(self.seed))    # checked by sim

    def grid(self) -> GridSpec:
        return GridSpec(self.dimension, self.modes)

    def sim(self, lam: float, **over) -> SimConfig:
        """The SimConfig of a run at lam; over replaces any of its fields."""
        kw = dict(x0=self.x0, horizon=self.horizon, steps=self.steps, paths=self.paths,
                  seed=self.seed, lam=lam)
        kw.update(over)
        return SimConfig(**kw)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["drift"] = self.drift.to_dict()
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        d = dict(d)
        d["drift"] = DriftSpec.from_dict(d["drift"])
        return ExperimentConfig(**d)


def config_digest(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def environment_fingerprint() -> dict:
    import scipy    # here, not at module level: only its version is needed

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "package": __version__,
    }


@dataclass
class StudyReport:
    study: str
    digest: str
    config: dict
    environment: dict
    pipeline: dict            # assumption norms, exponents, lambda trace, solver stats
    levels: list              # per-level dict rows
    trend: dict
    floor: float
    timings: dict
    notes: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


# --- shared pipeline -------------------------------------------------------------


def prepare_transform(cfg: ExperimentConfig, drift: TimeField | None = None) -> dict:
    """Drift -> admissibility -> exponents -> (calibrated) solve -> transform.

    Returns a bundle with the drift b, PdeConfig, lambda, trace, backward u,
    TransformContext, the solver report, and ladder_agrees: whether the
    reference ladder finds the solver's lattice product b . grad u on the
    pair the march's last step multiplies: b(t_1) and v(t_{M-1}) = u(t_1),
    the same physical time.  The PdeConfig always carries pick_kappa's
    canonical (delta, p) and the default tol, the context the default inverse
    tolerance `zvonkin.INVERSE_TOL`.
    """
    t0 = time.perf_counter()
    b = drift if drift is not None else generate(cfg.drift, cfg.grid(), cfg.horizon,
                                                 cfg.pde_nodes)
    report = assumption_check(b, cfg.drift.beta, cfg.q)
    delta, p = pick_kappa(cfg.drift.beta, cfg.q, b.grid.dimension)
    pde = PdeConfig(beta=cfg.drift.beta, delta=delta, p=p)
    if cfg.lam is None:
        lam, trace = calibrate_lambda(b)
    else:
        lam, trace = float(cfg.lam), []
    ctx, solve_report = _transform_at(b, lam)
    return {
        "b": b,
        "assumption": report,
        "pde": pde,
        "lam": lam,
        "trace": trace,
        "u": ctx.u,
        "ctx": ctx,
        "solve_report": solve_report,
        "ladder_agrees": ladder_agrees(b.node(1), ctx.u.node(1), pde.product_index),
        "prepare_seconds": time.perf_counter() - t0,
    }


def save_solution(bundle: dict, path) -> Path:
    """Write a bundle's u with the lambda it solves, as `cli simulate --u` reads it."""
    return save_time_field(bundle["u"], path, description="backward solution", extra={
        "lambda": bundle["lam"], "solver": bundle["solve_report"].to_dict()})


def _transform_at(b: TimeField, lam: float) -> tuple:
    """Solve at lam and build the certified transform: (context, solver report)."""
    v, solve_report = solve_fwd(b, lam)
    return TransformContext(v.reversed_time()), solve_report


def _marginal(ens: PathEnsemble, frac: float) -> np.ndarray:
    return ens.at_time(frac * ens.config.horizon)[:, 0]


def _pipeline_summary(bundle, cfg: ExperimentConfig) -> dict:
    rep = bundle["assumption"]
    solve = bundle["solve_report"]
    return {
        "drift_norm": rep.sup_norm,
        "drift_norm_refinement_change": rep.refinement_change,
        "beta": cfg.drift.beta,
        "q": cfg.q,
        "delta": bundle["pde"].delta,
        "p": bundle["pde"].p,
        "lambda": bundle["lam"],
        "lambda_trace": [list(t) for t in bundle["trace"]],
        "solver": solve.method,
        "ladder_agrees": bundle["ladder_agrees"],
        "gradient_bound": bundle["ctx"].gradient_bound,
    }


# --- studies -----------------------------------------------------------------------


def study_mollify(cfg: ExperimentConfig) -> StudyReport:
    """W1 between the virtual solution and classical solutions driven by
    mollified drifts, along an increasing mollification ladder."""
    timings = {}
    bundle = prepare_transform(cfg)
    timings["prepare"] = bundle["prepare_seconds"]

    sim = cfg.sim(bundle["lam"])
    t0 = time.perf_counter()
    x_virtual = virtual_x(bundle["ctx"], simulate_y(bundle["ctx"], sim))
    timings["virtual"] = time.perf_counter() - t0

    smoothed = mollified_sequence(bundle["b"], cfg.n_list)
    levels = []
    t0 = time.perf_counter()
    for n, b_n in zip(cfg.n_list, smoothed):
        x_n = simulate_classical(b_n, sim)
        row = {"level": int(n)}
        for frac in REPORT_TIMES:
            row[f"w1_t{frac:g}"] = wasserstein1(_marginal(x_n, frac), _marginal(x_virtual, frac))
        term_n, term_v = _marginal(x_n, 1.0), _marginal(x_virtual, 1.0)
        # both routes share the Brownian paths: E|X_n(T) - X(T)| bounds W1 from
        # above, with a CLT interval
        gap = np.abs(term_n - term_v)
        row["coupling_t1"] = float(gap.mean())
        row["coupling_t1_halfwidth"] = float(1.96 * gap.std(ddof=1) / math.sqrt(gap.size))
        row["ks_terminal"] = ks_stat(term_n, term_v)
        levels.append(row)
    timings["classical_ladder"] = time.perf_counter() - t0

    # sampling floor: same law, fresh noise, cheapest honest reference; the
    # base run goes first, while the study seed's draw is still the kept one
    t0 = time.perf_counter()
    x_base = simulate_classical(smoothed[-1], sim)
    x_floor = simulate_classical(smoothed[-1], replace(sim, seed=cfg.seed + 10_000))
    floor = wasserstein1(_marginal(x_floor, 1.0), _marginal(x_base, 1.0))
    timings["floor"] = time.perf_counter() - t0

    trend = kendall_trend(list(cfg.n_list), [row[f"w1_t{1.0:g}"] for row in levels])
    return _finish("mollify", cfg, bundle, levels, trend, floor, timings)


def study_lambda(cfg: ExperimentConfig) -> StudyReport:
    """Invariance of the virtual solution's law under the damping parameter."""
    timings = {}
    bundle = prepare_transform(cfg)
    timings["prepare"] = bundle["prepare_seconds"]
    lam0 = bundle["lam"]
    lams = list(cfg.lambda_list) if cfg.lambda_list else [lam0, 2.0 * lam0]

    marginals = {}
    contexts = {}
    t0 = time.perf_counter()
    for lam in lams:
        if lam == lam0:
            contexts[lam] = bundle["ctx"]
        else:
            contexts[lam], _ = _transform_at(bundle["b"], lam)
        sim = cfg.sim(lam)
        x = virtual_x(contexts[lam], simulate_y(contexts[lam], sim))
        marginals[lam] = {frac: _marginal(x, frac) for frac in REPORT_TIMES}
    timings["simulations"] = time.perf_counter() - t0

    # floor: re-run the first listed lambda, with its own transform, on fresh noise
    t0 = time.perf_counter()
    first = lams[0]
    sim_floor = cfg.sim(first, seed=cfg.seed + 10_000)
    x_floor = virtual_x(contexts[first], simulate_y(contexts[first], sim_floor))
    floor = wasserstein1(_marginal(x_floor, 1.0), marginals[first][1.0])
    timings["floor"] = time.perf_counter() - t0

    levels = []
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            row = {"lambda_a": lams[i], "lambda_b": lams[j]}
            for frac in REPORT_TIMES:
                row[f"w1_t{frac:g}"] = wasserstein1(marginals[lams[i]][frac],
                                                    marginals[lams[j]][frac])
            row["within_3_floors"] = bool(row[f"w1_t{1.0:g}"] <= 3.0 * floor)
            levels.append(row)

    return _finish("lambda", cfg, bundle, levels, {}, floor, timings)


def study_smooth_consistency(cfg: ExperimentConfig) -> StudyReport:
    """Direct vs virtual route for a smooth drift on shared Brownian paths.

    Runs the pair at each step count in cfg.steps_list with nested noise, so
    the pathwise deviation is measured along one Brownian path per seed.
    """
    if cfg.drift.family != "smooth-test":
        raise ValueError("consistency study expects the smooth-test family")
    timings = {}
    bundle = prepare_transform(cfg)
    timings["prepare"] = bundle["prepare_seconds"]
    lam = bundle["lam"]
    base = max(cfg.steps_list)

    levels = []
    deviations = []
    finest = None
    t0 = time.perf_counter()
    for steps in sorted(cfg.steps_list):
        sim = cfg.sim(lam, steps=steps, base_steps=base)
        x_direct = simulate_classical(bundle["b"], sim)
        x_virt = virtual_x(bundle["ctx"], simulate_y(bundle["ctx"], sim))
        dev = float(np.max(np.linalg.norm(
            np.asarray(x_direct.states) - np.asarray(x_virt.states), axis=2)))
        w1_term = wasserstein1(_marginal(x_direct, 1.0), _marginal(x_virt, 1.0))
        levels.append({"steps": steps, "pathwise_dev": dev, "w1_terminal": w1_term})
        deviations.append(dev)
        if steps == base:
            finest = (x_direct, x_virt, sim)
    timings["pairs"] = time.perf_counter() - t0

    for i in range(1, len(levels)):
        levels[i]["dev_ratio"] = deviations[i] / deviations[i - 1]

    t0 = time.perf_counter()
    x_d, x_v, sim_base = finest
    sim_floor = replace(sim_base, seed=cfg.seed + 10_000)
    x_floor = simulate_classical(bundle["b"], sim_floor)
    floor = wasserstein1(_marginal(x_floor, 1.0), _marginal(x_d, 1.0))
    timings["floor"] = time.perf_counter() - t0

    return _finish("consistency", cfg, bundle, levels, {}, floor, timings)


# --- persistence --------------------------------------------------------------------


def _finish(study: str, cfg: ExperimentConfig, bundle, levels: list, trend: dict,
            floor: float, timings: dict) -> StudyReport:
    """Assemble a study's report and persist it when cfg.out_dir is set."""
    report = StudyReport(
        study=study, digest=config_digest(cfg), config=cfg.to_dict(),
        environment=environment_fingerprint(),
        pipeline=_pipeline_summary(bundle, cfg),
        levels=levels, trend=trend, floor=floor, timings=timings, notes=cfg.note,
    )
    _persist(cfg, report, bundle)
    return report


def _persist(cfg: ExperimentConfig, report: StudyReport, bundle) -> Path | None:
    if cfg.out_dir is None:
        return None
    root = Path(cfg.out_dir) / report.digest
    root.mkdir(parents=True, exist_ok=True)

    (root / "report.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))

    csv_path = root / "levels.csv"
    if report.levels:
        cols = sorted({k for row in report.levels for k in row})
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols, lineterminator="\r\n")
            writer.writeheader()
            for row in report.levels:
                writer.writerow(row)

    save_time_field(bundle["b"], root / "drift.bin", description="drift",
                    extra={"seed": cfg.drift.seed, "spec": cfg.drift.to_dict()})
    save_solution(bundle, root / "u.bin")

    manifest = {
        "study": report.study,
        "digest": report.digest,
        "seeds": {"master": cfg.seed, "drift": cfg.drift.seed},
        "environment": report.environment,
        "files": {},
    }
    for f in sorted(root.iterdir()):
        if f.name == "manifest.json":
            continue
        manifest["files"][f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return root
