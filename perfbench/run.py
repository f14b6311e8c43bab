"""Benchmark of the singular_drift pipeline.

    python3 perfbench/run.py --workload rough-1d --seed 1234 --seconds 50 --trace 0

Runs from the root of a checkout and imports the package from ./src.  Each
round of a workload runs in a worker process of its own, so that set-up
covers the import, the peak resident set belongs to that workload alone, and
the run's median is taken over processes: on a shared VM the speed of a
process varies more between processes than between rounds of one process.
With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
round and the tracing overhead against an untraced one.  --workload all runs
every workload in turn and prints one such line for each.

The exit code is 0 only when a result was printed.  A run writes its full
record (checks, fingerprints) to perfbench/out/, and a traced run also its
spans.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("rough-1d", "smooth-1d-mollify", "rough-2d")
SETUP_REPEATS = 3           # set-up is timed at least this many times; the median is reported
WORKER_TIMEOUT = 170.0      # seconds, for all the processes of one run


class RunFailed(Exception):
    pass


def spawn(args: list, deadline: float) -> tuple:
    """Run the worker; returns (set-up seconds, last stdout line)."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"worker {' '.join(args)} ran out of time")
    if proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = stdout.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("ready ")]
    if not ready:
        raise RunFailed("worker never reported its inputs ready")
    return ready[0] - t0, lines[-1]


def fits(walls: list, seconds: float) -> bool:
    """Whether the workers so far plus half a typical one fit in `seconds`."""
    return sum(walls) + 0.5 * statistics.median(walls) <= seconds


def run_one(workload: str, seed: int, seconds: int, trace: int, names: dict) -> dict:
    """One run: rounds in fresh workers for about `seconds` (at least one
    round), the first of them checked; then the medians."""
    deadline = time.monotonic() + WORKER_TIMEOUT
    base = ["--workload", workload, "--seed", str(seed)]
    records, setups, walls = [], [], []
    if trace:
        setup_s, line = spawn(base + ["--trace", "1", "--check"], deadline)
        records.append(json.loads(line))
    else:
        # another worker starts only while half a worker more still fits, so a
        # run overshoots `seconds` by at most half a worker's time
        while not records or fits(walls, seconds):
            t0 = time.monotonic()
            setup_s, line = spawn(base + ([] if records else ["--check"]), deadline)
            walls.append(time.monotonic() - t0)
            setups.append(setup_s)
            records.append(json.loads(line))
        while len(setups) < SETUP_REPEATS:
            setups.append(spawn(base + ["--setup-only"], deadline)[0])
    done = [r for r in records if not r["failed"]]
    found = records[0].get("checks", [])
    found.append({"name": "rounds.identical_outputs", "value": float(len(done)),
                  "limit": None,
                  "ok": all(r["fingerprint"] == done[0]["fingerprint"] for r in done)})
    if trace:
        metrics = records[0].get("metrics", {})
    elif done:
        med = statistics.median
        metrics = {
            "setup_s": {"value": med(setups), "unit": "s"},
            "transform_s": {"value": med(r["transform_s"] for r in done), "unit": "s"},
            "path_steps_per_s": {"value": med(r["path_steps"] / r["path_s"] for r in done),
                                 "unit": "1/s"},
            "total_s": {"value": med(r["total_s"] for r in done), "unit": "s"},
            "cpu_s": {"value": med(r["cpu_s"] for r in done), "unit": "s"},
            "peak_rss_mib": {"value": med(r["peak_rss_mib"] for r in done), "unit": "MiB"},
        }
    else:
        metrics = {}
    expected = names["per_layer" if trace else "end_to_end"]
    missing = sorted(set(expected) - set(metrics))
    if missing:
        raise RunFailed(f"no value for {', '.join(missing)}")
    record = {"workload": workload, "seed": seed, "trace": trace, "setups_s": setups,
              "rounds": records, "checks": found, "metrics": metrics,
              "correct": bool(records[0].get("checks")) and all(c["ok"] for c in found),
              "attempted": sum(r["attempted"] for r in records),
              "failed": sum(r["failed"] for r in records)}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    for c in found:
        if not c["ok"] or c.get("figure"):
            mark = "figure" if c.get("figure") else "FAILED"
            print(f"  {mark:6s} {c['name']}: {c['value']:.6g} (limit {c['limit']})",
                  file=sys.stderr)
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": {k: metrics[k] for k in expected}}


def metric_names() -> dict:
    """The end-to-end and per-layer metric names that BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: [m["name"] for m in spec[kind]] for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")
    try:
        names = metric_names()
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_one(name, args.seed, args.seconds, args.trace, names)
        except RunFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        for key, m in result["metrics"].items():
            print(f"{name} {key} {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
