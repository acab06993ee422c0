"""Benchmark of the wg-biharm assemble -> solve -> error-report pipeline.

    python3 perfbench/run.py --workload study-brick-k3 --seed 1 --trace 0

Run from the root of a checkout.  Each run starts fresh worker processes
(bench.py): SETUP_PROCESSES that only set up, for the median set-up time,
then one that runs the workload's pipeline in a closed loop (one client,
one pass at a time) until ``--seconds`` have passed since the run began,
and at least three passes.  Every level of every pass is checked for
correctness.  A fixed computation, the yardstick, is timed before and
after each level.  ``wall_rel`` sums over levels the median over passes of
the level's wall time in units of the mean of its two yardstick times.
BLAS and OpenMP run on BLAS_THREADS threads.

The last stdout line is one JSON object with ``correct``, ``attempted``
and ``failed`` (levels checked and levels failed, so fail_frac is
failed / attempted) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of one extra traced pass with
``--trace 1``.  The line before it holds the details: the environment,
the seed, sample counts, medians and tail percentiles, per-level times and
any failure messages.  A traced run also writes its spans to
perfbench/out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SEED_IGNORED, WORKLOADS  # noqa: E402

SETUP_PROCESSES = 4
BLAS_THREADS = 1
# The whole run, every worker included, ends within this many seconds.
HARD_LIMIT_S = 170.0
# Metric names and units are those BENCHMARK.json declares.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class RunError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, mode, start, deadline):
    """Start one bench.py process, wait for it, return its JSON result."""
    remaining = start + HARD_LIMIT_S - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "bench.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--spawned-at", repr(time.monotonic()),
           "--deadline", repr(deadline)]
    if args.levels:
        cmd += ["--levels", args.levels]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise RunError(f"{mode} worker did not finish in time") from err
    if proc.returncode != 0:
        raise RunError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n,
            "value": sorted(samples)[n - 11]}


def summary(samples):
    return {"median": statistics.median(samples), "tail": tail(samples),
            "count": len(samples), "samples": samples}


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest():
    """SHA-256 of the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure(args):
    start = time.monotonic()
    deadline = start + args.seconds
    setups = [run_worker(args, "setup", start, deadline)
              for _ in range(SETUP_PROCESSES)]
    main = run_worker(args, "trace" if args.trace else "run", start,
                      deadline)
    workload = WORKLOADS[args.workload]
    untraced = [p for p in main["passes"] if not p.get("traced")]
    walls = [p["wall_s"] for p in untraced]
    yardsticks = [lv["yardstick_s"] for p in untraced for lv in p["levels"]]
    setup_times = [s["setup_s"] for s in setups] + [main["setup_s"]]
    levels = [lv for p in main["passes"] for lv in p["levels"]]
    failed = [lv for lv in levels if lv["failures"]]
    level_times = {}
    level_rel = {}
    for p in untraced:
        for lv in p["levels"]:
            level_times.setdefault(str(lv["n"]), []).append(lv["seconds"])
            level_rel.setdefault(str(lv["n"]), []).append(
                lv["seconds"] / lv["yardstick_s"])
    level_rel = {n: statistics.median(r) for n, r in level_rel.items()}

    detail = {
        "workload": workload.name,
        "levels": list(args.levels_tuple or workload.levels),
        "seed": args.seed,
        "seed_note": None if workload.seeded else SEED_IGNORED,
        "load": "closed loop, one client, one pipeline pass at a time",
        "env": {**main["env"], "blas_threads_set": BLAS_THREADS,
                "commit": commit(), "src_sha256": source_digest(),
                "repeat_count": len(untraced),
                "setup_processes": SETUP_PROCESSES + 1,
                "run_seconds": args.seconds},
        "wall_s": summary(walls),
        "yardstick_s": summary(yardsticks),
        "wall_rel": sum(level_rel.values()),
        "level_wall_rel": level_rel,
        "setup_s": summary(setup_times),
        "level_wall_s": {n: statistics.median(t)
                         for n, t in level_times.items()},
        "peak_rss_mib": main["peak_rss_mib"],
        "attempted": len(levels),
        "failed": len(failed),
        "fail_frac": len(failed) / len(levels),
        "failures": [{"n": lv["n"], "why": lv["failures"]}
                     for lv in failed][:10],
    }
    if args.trace:
        values = main["layers"]
        declared = SPEC["per_layer"]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"detail": detail, "layers": values,
                       "spans": main["spans"]}, fh, indent=1)
        detail["trace_file"] = path.relative_to(ROOT).as_posix()
    else:
        values = {"wall_rel": detail["wall_rel"],
                  "setup_s": detail["setup_s"]["median"],
                  "peak_rss_mib": main["peak_rss_mib"]}
        declared = SPEC["end_to_end"]
    result = {
        "correct": not failed,
        "attempted": len(levels),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    return detail, result


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Benchmark the wg-biharm pipeline on one workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="drives the brick-mesh jitter only")
    ap.add_argument("--seconds", type=float, default=55.0,
                    help="measuring time of the run, set-up included")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--levels",
                    help="comma-separated mesh levels instead of the "
                         "workload's own (the self-test uses tiny ones)")
    args = ap.parse_args(argv)
    args.levels_tuple = (tuple(int(x) for x in args.levels.split(","))
                         if args.levels else None)
    if not (ROOT / "src" / "wg_biharm" / "__init__.py").is_file():
        print(f"no wg_biharm sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        detail, result = measure(args)
    except RunError as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
