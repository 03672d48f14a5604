"""One benchmark process: set up a workload, run it as a closed loop, check it.

One caller sends one operation at a time and waits for it.  The loop runs
whole rounds of the workload's operations until the timed operations add up
to --seconds, and at least MIN_ROUNDS rounds.  Outputs are checked after the
timed phase; the references they are checked against are computed then as
well, so neither is timed nor counted in set-up.  run.py starts this file
with the package's src/ on PYTHONPATH and the thread pools pinned; the last
stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import convexspectra
    want = os.path.realpath(os.path.join(ROOT, "src", "convexspectra"))
    if os.path.dirname(os.path.realpath(convexspectra.__file__)) != want:
        print(f"convexspectra imported from {convexspectra.__file__}, not {want}",
              file=sys.stderr)
        return 2

    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    wl = workloads.build(args.workload, args.seed, args.workdir)
    wl.warmup()
    first_op_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_op_at": first_op_at}))
        return 0

    records = []  # (operation index, seconds, collected output)
    round_s = []
    min_rounds = workloads.MIN_ROUNDS[args.workload]
    while sum(round_s) < args.seconds or len(round_s) < min_rounds:
        round_s.append(0.0)
        for i, op in enumerate(wl.ops):
            if tracer:
                tracer.begin_op(op.kind)
            t0 = time.perf_counter()
            raw = op.run()
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            round_s[-1] += dt
            records.append((i, dt, op.collect(raw)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # identical output means an identical verdict, so each distinct output of
    # an operation is checked once
    verdicts: dict[tuple[int, bytes], str | None] = {}
    failed = 0
    unexpected = []
    for i, _, out in records:
        key = (i, pickle.dumps(out))
        if key not in verdicts:
            verdicts[key] = wl.ops[i].check(out)
        why = verdicts[key]
        if why is not None:
            failed += 1
            if wl.ops[i].kind not in workloads.FAULT_CLASSES:
                unexpected.append(f"{wl.ops[i].name}: {why}")
    faults = sorted({f"{wl.ops[i].name}: {why}" for (i, _), why in verdicts.items()
                     if why is not None and wl.ops[i].kind in workloads.FAULT_CLASSES})

    lat_ms = 1e3 * np.array([dt for _, dt, _ in records])
    pct = workloads.TAIL_PERCENTILE[args.workload]
    result = {
        "first_op_at": first_op_at,
        "attempted": len(records),
        "failed": failed,
        "correct": not unexpected,
        "unexpected": sorted(set(unexpected))[:20],
        "known_faults": faults,
        "rounds": len(records) // len(wl.ops),
        "round_s": [round(t, 3) for t in round_s],
        "ops_per_round": len(wl.ops),
        "tail_percentile": pct,
        "beyond_tail": int(np.sum(lat_ms > np.percentile(lat_ms, pct))),
        # median over rounds, so that a slow spell of the machine in one
        # round does not move it
        "tasks_per_s": len(wl.ops) / float(np.median(round_s)),
        "task_p50_ms": float(np.median(lat_ms)),
        "task_tail_ms": float(np.percentile(lat_ms, pct)),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        layers, summary = spans.layer_metrics(tracer)
        result["layers"] = layers
        result["trace_summary"] = {k: v for k, v in summary.items() if k != "self_ms_by_span"}
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans.dump(tracer, os.path.join(HERE, "out", f"trace-{args.workload}.json"), summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
