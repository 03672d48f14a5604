"""convexspectra end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or "all" to run each in turn.  Run from the root
of a checkout.  Each workload runs in a fresh worker process (worker.py) as
a closed loop with one caller.  Set-up time is taken from fresh processes
too: interpreter start to the first timed operation, median over
SETUP_SAMPLES processes (the measuring one included).  The last
stdout line of a workload is one JSON object: correct, attempted, failed and
the metrics, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
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
WORKLOADS = ("cli_catalog", "curved_zeros", "oracle_crosscheck")
SETUP_SAMPLES = 5
# one BLAS/OpenMP thread: a single caller, and no contention with the loop
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEADLINE_S = 170.0

E2E_UNITS = {"tasks_per_s": "1/s", "task_p50_ms": "ms", "task_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("points_per_s", "points/s"), ("samples_per_s", "samples/s"),
                         ("ms_per_point", "ms/point"), ("ms_per_call", "ms/call"),
                         ("evals_per_zero", "evals/zero"), ("ms", "ms")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_worker(env, workdir, args, extra, timeout) -> tuple[dict, float]:
    """Start one worker and wait for it; returns (its JSON, monotonic start)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir, *extra]
    os.makedirs(workdir, exist_ok=True)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def run_workload(args, env) -> int:
    out = os.path.join(HERE, "out")
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        for k in range(SETUP_SAMPLES - 1):
            res, t0 = run_worker(env, os.path.join(out, f"setup-{os.getpid()}-{k}"), args,
                                 ["--setup-only"], deadline - time.monotonic())
            setups.append(res["first_op_at"] - t0)
        res, t0 = run_worker(env, os.path.join(out, f"run-{os.getpid()}"), args, [],
                             deadline - time.monotonic())
        setups.append(res["first_op_at"] - t0)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    if res["unexpected"]:
        print("unexpected failures:\n  " + "\n  ".join(res["unexpected"]), file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "threads": THREADS,
        "rounds": res["rounds"], "round_s": res["round_s"],
        "ops_per_round": res["ops_per_round"], "tail_percentile": res["tail_percentile"],
        "beyond_tail": res["beyond_tail"], "tasks_per_s": res["tasks_per_s"],
        "setup_samples_s": setups,
        "known_faults": res["known_faults"], **({"trace": res["trace_summary"]}
                                                 if args.trace else {})}))
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
    else:
        values = {k: res[k] for k in ("tasks_per_s", "task_p50_ms", "task_tail_ms", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "convexspectra", "__init__.py")):
        print(f"no convexspectra package under {src}", file=sys.stderr)
        return 2
    # one CPU for this process and the workers it starts: a process that
    # migrates between CPUs runs up to a third slower for seconds at a time
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    print(json.dumps({"pinned_cpu": cpus[-1], "of_cpus": len(cpus)}))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               **{v: str(THREADS) for v in THREAD_VARS})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        status = max(status, run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                          env))
    return status


if __name__ == "__main__":
    sys.exit(main())
