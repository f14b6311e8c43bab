"""Command-line front end.

All subcommands consume the same JSON experiment config (see
ExperimentConfig.from_dict); binary artifacts are snapshots, little-endian bytes
with a JSON sidecar.  solve-pde, calibrate and simulate build their transform with
lab.prepare_transform, as the studies do; simulation is serial.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .spectral import GridSpec, SpectralField, TimeField, heat_semigroup, \
    load_time_field, load_time_field_meta, save_time_field
from .paraproduct import dealiased_multiply
from .drifts import assumption_check, generate
from .zvonkin import TransformContext, phi, psi
from .sde import SimConfig, brownian_increments, save_ensemble, simulate_y, virtual_x
from .lab import (
    ExperimentConfig,
    config_digest,
    prepare_transform,
    save_solution,
    study_lambda,
    study_mollify,
    study_smooth_consistency,
)


def _load_config(path: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(json.loads(Path(path).read_text()))


def _drift_snapshot(drift_path: str | None):
    """The --drift snapshot, or None to let prepare_transform generate it."""
    return load_time_field(drift_path) if drift_path else None


def cmd_gen_drift(args) -> int:
    cfg = _load_config(args.config)
    b = generate(cfg.drift, cfg.grid(), cfg.horizon, cfg.pde_nodes)
    rep = assumption_check(b, cfg.drift.beta, cfg.q)
    save_time_field(b, args.out, description="drift",
                    extra={"spec": cfg.drift.to_dict(), "digest": config_digest(cfg),
                           "assumption": rep.to_dict()})
    print(f"drift written to {args.out}; sup intersection norm {rep.sup_norm:.6g} "
          f"(refinement change {rep.refinement_change:.3%})")
    return 0


def cmd_solve_pde(args) -> int:
    cfg = _load_config(args.config)
    bundle = prepare_transform(cfg, _drift_snapshot(args.drift))
    save_solution(bundle, args.out)
    u, lam, report = bundle["u"], bundle["lam"], bundle["solve_report"]
    print(f"solved by {report.method} over {u.nodes} steps at lambda={lam:g}; "
          f"u written to {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    cfg = _load_config(args.config)
    bundle = prepare_transform(replace(cfg, lam=None), _drift_snapshot(args.drift))
    lam, trace = bundle["lam"], bundle["trace"]
    out = Path(args.out)
    out.write_text(json.dumps({"lambda": lam,
                               "trace": [list(t) for t in trace]}, indent=2))
    trace_path = args.trace or str(out.with_suffix(".csv"))
    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["lambda", "gradient_sup"])
        writer.writerows(trace)
    print(f"accepted lambda={lam:g} after {len(trace)} solves; trace at {trace_path}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    if args.u:
        lam = load_time_field_meta(args.u).get("manifest", {}).get("lambda", cfg.lam)
        if lam is None:
            raise SystemExit("lambda is neither in the config nor the u sidecar")
        if cfg.lam not in (None, lam):
            raise SystemExit(f"the config's lam {cfg.lam:g} differs from the lambda "
                             f"{lam:g} at which {args.u} was solved")
        ctx = TransformContext(load_time_field(args.u))
    else:
        bundle = prepare_transform(cfg, _drift_snapshot(args.drift))
        ctx, lam = bundle["ctx"], bundle["lam"]
    ens = virtual_x(ctx, simulate_y(ctx, cfg.sim(float(lam))))
    save_ensemble(ens, args.out)
    term = ens.terminal()[:, 0]
    print(f"{cfg.paths} paths written to {args.out}; terminal mean "
          f"{term.mean():.6g}, sd {term.std():.6g}")
    return 0


def _run_study(fn, args) -> int:
    cfg = _load_config(args.config)
    if args.out_dir:
        cfg = replace(cfg, out_dir=args.out_dir)
    report = fn(cfg)
    print(json.dumps({"study": report.study, "digest": report.digest,
                      "floor": report.floor, "trend": report.trend,
                      "levels": report.levels}, indent=2))
    return 0


def cmd_diagnostics(args) -> int:
    """Quick self-checks; prints one pass/fail line each."""
    from .theory import gamma_bound_check

    ok_all = True

    def check(name, ok, detail=""):
        nonlocal ok_all
        ok_all = ok_all and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))

    grid = GridSpec(1, 64)
    x = grid.axis_points()
    f = SpectralField.from_grid(grid, np.sin(x)[None] + 0.3 * np.cos(2 * x)[None])
    # semigroup law
    a = heat_semigroup(heat_semigroup(f, 0.1), 0.2)
    bb = heat_semigroup(f, 0.3)
    err = np.max(np.abs(a.coeffs - bb.coeffs))
    check("semigroup law P(s)P(t)=P(s+t)", err < 1e-12, f"err {err:.2e}")
    # dealiased product against the exact identity sin^2 = (1-cos 2x)/2
    s = SpectralField.from_grid(grid, np.sin(x)[None])
    prod = dealiased_multiply(s, s)
    target = SpectralField.from_grid(grid, (0.5 * (1 - np.cos(2 * x)))[None])
    err = np.max(np.abs(prod.coeffs - target.coeffs))
    check("dealiased product sin*sin", err < 1e-12, f"err {err:.2e}")
    # gamma bound spot check
    res = gamma_bound_check(2.0, 0.5)
    check("gamma tail bound", res["ok"],
          f"integral {res['integral']:.6g} <= bound {res['bound']:.6g}")
    # inverse round trip on a synthetic transform
    coeffs = np.zeros((3, 1, 64), dtype=complex)
    coeffs[:, 0, 1] = -0.05j
    coeffs[:, 0, -1] = 0.05j   # 0.1 sin(x)
    u = TimeField(grid, 1.0, coeffs)
    ctx = TransformContext(u, inverse_tol=1e-12)
    y = np.linspace(0.0, 2 * np.pi, 17)[:, None]
    back = phi(ctx, 0.5, psi(ctx, 0.5, y))
    err = np.max(np.abs(back - y))
    check("psi/phi round trip", err < 2e-12, f"err {err:.2e}")
    # keyed noise determinism
    sim = SimConfig(x0=(0.0,), horizon=1.0, steps=16, paths=8, seed=7, lam=1.0)
    # a repeat of one config hands back the kept draw, so compare two draws
    head = brownian_increments(sim)
    same = np.array_equal(head, brownian_increments(replace(sim, paths=16))[:8])
    check("keyed brownian streams deterministic", same)
    print("diagnostics " + ("passed" if ok_all else "FAILED"))
    return 0 if ok_all else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="singular-drift",
        description="numerical laboratory for SDEs with distributional drift",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-drift", help="sample a drift and write the snapshot")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_drift)

    p = sub.add_parser("solve-pde", help="solve the damped equation, write u")
    p.add_argument("--config", required=True)
    p.add_argument("--drift", default=None, help="optional drift snapshot")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_solve_pde)

    p = sub.add_parser("calibrate", help="double lambda until the gradient certifies")
    p.add_argument("--config", required=True)
    p.add_argument("--drift", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="CSV trace path")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("simulate", help="simulate the transformed process")
    p.add_argument("--config", required=True)
    p.add_argument("--drift", default=None)
    p.add_argument("--u", default=None, help="optional backward-solution snapshot")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    for name, fn in (("study-mollify", study_mollify),
                     ("study-lambda", study_lambda),
                     ("study-consistency", study_smooth_consistency)):
        p = sub.add_parser(name, help=f"run the {name.split('-', 1)[1]} study")
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", default=None)
        p.set_defaults(fn=lambda a, _f=fn: _run_study(_f, a))

    p = sub.add_parser("diagnostics", help="fast numerical self-checks")
    p.set_defaults(fn=cmd_diagnostics)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
