"""Self-checks of the benchmark itself: oracles, wrapper coverage, determinism.

    python3 perfbench/selfcheck.py [--seed 1] [--workload twist-law ...]

For each workload:

* oracle: one deliberately wrong expected value, and separately one case
  whose input makes rrcalc raise, must each count as a failed case while
  every other case still runs;
* coverage: in a traced pass, the outermost calls of one wrapped function
  must equal the count the case list implies (run.COVERAGE);
* determinism: two traced passes with the same seed must give identical
  counts and ratios, and another seed must change the inputs but not the
  size class (the suite workload has no seeded inputs).

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import sys

import run
import tracer
import workloads


def check_workload(workload: str, seed: int) -> list[tuple[bool, str]]:
    results = []
    plain, _ = run.run_worker(workload, seed, 0)
    cases = len(plain["times"])
    for mode in ("wrong", "raise"):
        spoiled, _ = run.run_worker(workload, seed, 0, "--inject", mode)
        ok = spoiled["failed"] >= 1 and len(spoiled["times"]) == cases
        results.append(
            (
                ok,
                f"oracle ({mode}): failed_ratio {spoiled['failed']}/{len(spoiled['times'])} "
                f"> 0 with all {cases} cases run; first: {spoiled['errors'][:1]}",
            )
        )

    first, _ = run.run_worker(workload, seed, 0, "--trace")
    second, _ = run.run_worker(workload, seed, 0, "--trace")
    name, expected = run.COVERAGE[workload]
    seen, wanted = first["trace"]["outermost"].get(name, 0), expected(first["kinds"])
    results.append((seen == wanted, f"coverage: outermost {name} calls {seen} == {wanted}"))
    differ = [
        m
        for m in tracer.DETERMINISTIC
        if first["trace"]["metrics"][m] != second["trace"]["metrics"][m]
    ]
    results.append(
        (
            not differ and first["failed"] == second["failed"] == 0,
            f"determinism: {len(tracer.DETERMINISTIC)} counts and ratios repeat for seed {seed}"
            + (f"; differ: {differ}" if differ else ""),
        )
    )
    other, _ = run.run_worker(workload, seed + 1, 0)
    same_size = other["size_class"] == plain["size_class"]
    changed = other["inputs"] != plain["inputs"]
    results.append(
        (
            same_size and (changed or workload == "suite"),
            f"seed {seed + 1}: inputs {'changed' if changed else 'unchanged'}, "
            f"size class {'kept' if same_size else 'CHANGED'}",
        )
    )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    failures = 0
    for workload in args.workload:
        for ok, text in check_workload(workload, args.seed):
            failures += not ok
            print(f"{workload:<13} {'ok  ' if ok else 'FAIL'} {text}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
