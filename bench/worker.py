"""One workload in a fresh interpreter; started by run.py, not by hand.

Prints `READY <time.monotonic()>` once its set-up is done, just before the
first timed operation. With --setup-only it stops there. Otherwise it runs
whole rounds until --seconds have passed, checks the outputs and prints
`RESULT <json>`.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads   # imports v2xmac
    src = Path(args.src).resolve()
    if src not in Path(workloads.v2xmac.__file__).resolve().parents:
        raise SystemExit(f"v2xmac was imported from {workloads.v2xmac.__file__}, "
                         f"not from {src}")
    from tracing import Tracer, add_totals

    work_dir = Path(args.work_dir)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, work_dir, sys.executable, bool(args.trace))
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer().install() if args.trace else None
    round_s, problems, failures = [], [], []
    attempted = 0
    start = time.monotonic()
    while True:
        ops = workload.operations()
        outputs = []
        t0 = time.perf_counter()
        for label, op in ops:
            try:
                outputs.append((label, op()))
            except Exception:   # a failed operation is counted, not fatal
                outputs.append((label, None))
                failures.append(f"{label}: {traceback.format_exc(limit=3)}")
        round_s.append(time.perf_counter() - t0)
        attempted += len(ops)
        problems += workload.check_round(outputs)
        if time.monotonic() - start >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    problems += workload.final_checks()

    totals = None
    if tracer is not None:
        totals = add_totals(tracer.totals(), workload.extra_totals())
    result = {"round_s": round_s, "attempted": attempted, "failed": len(failures),
              "failures": failures, "problems": problems, "totals": totals}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
