"""Benchmark of the three alignment routes of wassalign.

    python3 perfbench/run.py --workload {align_lp,cli_register,mixture1d} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.  Each
workload runs in a fresh worker process with one BLAS thread, as a single
client in a closed loop.  With --trace 0 the last line of standard output
holds the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of a traced run.  Spans of a traced run are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("align_lp", "cli_register", "mixture1d")
# set-up is measured this many times per run (the measured run included); the median is reported
SETUPS = 3
WORKER_TIMEOUT_S = 170


def _worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(args, setup_only: bool, workdir: str, deadline: float) -> dict:
    env = _worker_env()
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), "1" if setup_only else "0", workdir]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past its time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "wassalign", "__init__.py")):
        print("error: src/wassalign not found; run from the root of a wassalign checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(_run_worker(args, True, workdir, deadline)["setup_s"])
        res = _run_worker(args, False, workdir, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])

    for line in res["unexpected"]:
        print(f"check failed: {line}", file=sys.stderr)
    if args.trace:
        metrics = res["layers"]
    else:
        ops = res["attempted"]
        metrics = {
            "ops_per_s": _metric(ops / res["elapsed_s"], "1/s"),
            "latency_p50_s": _metric(statistics.median(res["latencies"]), "s"),
            "cpu_s_per_op": _metric(res["cpu_s"] / ops, "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "known_fault": res["fault_messages"],
        "timed_s": res["elapsed_s"],
        "check_s": res["check_s"],
    }))
    print(json.dumps({
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
