"""One round of one workload, in a process of its own; started by run.py.

Prints ``ready <monotonic time>`` once its inputs exist, so that the parent
can time set-up from process start, then one JSON line with the round's
times, its fingerprint and, with --check, the checks of its outputs.  With
--setup-only it exits after the ready line.  With --trace 1 it runs the round
twice in the same process, untraced and then traced, and adds the per-layer
metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import signal
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"


def alternate_cpus(period: float = 0.05):
    """Move this process to the next CPU it may use every `period` seconds.

    On a shared VM each vCPU drifts in speed on its own for tens of seconds,
    and a process tends to stay on one vCPU, so whole processes came out
    10-25% apart.  Taking turns on every allowed CPU averages their speeds
    inside each process.  Only this process's own affinity changes.  It is
    started after the package import, so set-up is not averaged.
    """
    if not hasattr(os, "sched_getaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    turn = itertools.cycle(cpus)

    # Only the calling thread moves, and a new thread inherits its creator's
    # CPU set: a thread the program starts gets every CPU back at once.
    # Native threads started before this call (OpenBLAS) keep every CPU.
    def free_thread(*_):
        os.sched_setaffinity(0, cpus)
        sys.setprofile(None)

    threading.setprofile(free_thread)
    signal.signal(signal.SIGALRM, lambda *_: os.sched_setaffinity(0, {next(turn)}))
    signal.setitimer(signal.ITIMER_REAL, period, period)


def parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check", action="store_true")
    return ap.parse_args(argv)


def layer_metrics(summary: dict, overhead_pct: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from the traced round."""
    calls, secs, points = summary["calls"], summary["seconds"], summary["points"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("paraproduct.product", "paraproduct.dealiased_multiply",
                 "kolmogorov.integral_operator", "kolmogorov.solve_fwd",
                 "zvonkin.psi", "spectral.evaluate"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in ("paraproduct.product", "paraproduct.dealiased_multiply",
                 "kolmogorov.integral_operator", "kolmogorov.solve_fwd",
                 "kolmogorov.calibrate_lambda", "kolmogorov.gradient_sup",
                 "drifts.generate", "drifts.assumption_check", "drifts.mollified_sequence",
                 "zvonkin.make_context", "zvonkin.psi", "spectral.evaluate",
                 "sde.simulate_y", "sde.virtual_x", "sde.coefficients",
                 "sde.simulate_classical", "lab.bootstrap_ci", "lab.wasserstein1",
                 "lab.ks_stat", "lab.prepare_transform", "lab.study_mollify"):
        m[f"{name}.s"] = (secs.get(name, 0.0), "s")
    m["paraproduct.product.stages_per_call"] = (
        ratio(summary["stages_in_product"], calls.get("paraproduct.product", 0)), "count/call")
    m["kolmogorov.calibrate_lambda.solves"] = (summary["solves_in_calibration"], "count")
    m["zvonkin.psi.points"] = (points.get("zvonkin.psi", 0), "count")
    m["zvonkin.psi.iterations_per_point"] = (
        ratio(summary["points_in_psi"], points.get("zvonkin.psi", 0)), "count/point")
    m["spectral.evaluate.points"] = (points.get("spectral.evaluate", 0), "count")
    for layer in ("spectral", "paraproduct", "drifts", "kolmogorov", "zvonkin", "sde",
                  "lab", "bench"):
        m[f"{layer}.self_s"] = (summary["self_seconds"].get(layer, 0.0), "s")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = parse(argv)
    try:
        return run(args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)     # no alarm may outlive its handler


def run(args) -> int:
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    sd = workloads.import_package(ROOT)
    alternate_cpus()
    if tracer:
        tracer.install()            # set-up spans: drift generation
    inp = wl.setup(sd, args.seed)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    result = {"attempted": wl.ops, "failed": 0}
    try:
        if tracer:
            # the same round untraced, then traced: the overhead is the difference
            tracer.uninstall()
            plain = wl.run_round(sd, inp)
            result["attempted"] += wl.ops
            tracer.install()
            with tracer.span("bench.round"):
                rnd = wl.run_round(sd, inp)
            tracer.uninstall()
        else:
            rnd = wl.run_round(sd, inp)
    except Exception:       # the failure is counted and reported, not hidden
        traceback.print_exc()
        result["failed"] = result["attempted"]
        print(json.dumps(result), flush=True)
        return 0

    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(total_s=rnd.total_s, cpu_s=rnd.cpu_s, transform_s=rnd.transform_s,
                  path_steps=rnd.path_steps, path_s=rnd.path_s,
                  fingerprint=wl.fingerprint(rnd.out))
    if args.check:
        result["checks"] = wl.checks(sd, inp, rnd.out)
    if tracer:
        result.setdefault("checks", []).append(
            {"name": "trace.same_outputs", "value": 0.0, "limit": None,
             "ok": wl.fingerprint(plain.out) == result["fingerprint"]})
        overhead = 100.0 * (rnd.total_s / plain.total_s - 1.0)
        result["metrics"] = layer_metrics(tracer.summary(), overhead)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.json.gz",
                     extra={"workload": wl.name, "seed": args.seed})
    print(json.dumps(result, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
