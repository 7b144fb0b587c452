"""Run one pass of a workload in this fresh process and print one JSON line.

    python3 perfbench/worker.py --workload twist-law --seed 1 --pass 0 [--trace]

A fresh process per pass keeps every case from being timed twice in one
process, so a cache can only hit where one pass's own inputs share work.
Set-up (interpreter, ``import rrcalc``, seeded input generation) ends
when the first case starts; `ready` reports that instant on the
system-wide monotonic clock, which the parent compares with its spawn
time.  An exception inside a case is recorded as a failed case.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from collections import Counter
from time import perf_counter

import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="stop before the first case")
    parser.add_argument("--inject", choices=("wrong", "raise"), help="spoil one case (self-check)")
    args = parser.parse_args()

    sys.path.insert(0, str(workloads.SRC))
    import rrcalc

    context = {"traced": args.trace}
    trace = None
    if args.trace and args.workload != "suite":
        import tracer

        trace = tracer.install()
    cases = workloads.generate(args.workload, args.seed, args.pass_index)
    if args.inject:
        cases = workloads.inject(cases, args.inject)
    ready = perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    times, errors = [], []
    for index, case in enumerate(cases):
        start = perf_counter()
        try:
            result = workloads.execute(case, rrcalc, context)
            elapsed = perf_counter() - start
            problem = None if workloads.verdict(case, result) else "wrong result"
        except Exception as exc:  # a raising case is a failed case, not a stopped run
            elapsed = perf_counter() - start
            problem = f"{type(exc).__name__}: {exc}"
        times.append(elapsed)
        if problem:
            errors.append(f"case {index} ({case['kind']}): {problem}")
    verdict_s = perf_counter() - ready

    who = resource.RUSAGE_CHILDREN if args.workload == "suite" else resource.RUSAGE_SELF
    seen, shared = set(), 0
    for case in cases:
        keys = set(workloads.share_keys(case))
        shared += bool(keys & seen)
        seen |= keys
    report = {
        "ready": ready,
        "verdict_s": verdict_s,
        "times": times,
        "failed": len(errors),
        "errors": errors[:5],
        "rss_kb": resource.getrusage(who).ru_maxrss,
        "kinds": Counter(case["kind"] for case in cases),
        "shared": shared / len(cases),
        "size_class": workloads.size_class(cases),
        "inputs": repr([{k: v for k, v in c.items() if k != "expected"} for c in cases]),
    }
    if trace is not None:
        report["trace"] = {"metrics": trace.metrics(), "outermost": trace.outermost}
    elif args.trace:
        report["trace"] = context.get("child_trace")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
