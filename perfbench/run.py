"""rrcalc benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload twist-law --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; rrcalc is imported from `src/`.
Each pass of a workload runs in a fresh worker process (worker.py), one
at a time, so there is one caller in a closed loop.  Untraced, passes
repeat with fresh seeded inputs until --seconds is used up, and the
metrics are medians over passes and cases.  Traced (--trace 1), pass 0
runs once untraced and once under the outside-in tracer, so every count
is exact and repeats for the same seed.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it name every metric with its unit and
sample count.  The exit code is 0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKER_TIMEOUT_S = 170
MIN_SETUPS = 10  # set-up is sampled at least this often per run

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "case_p50_ms": "ms",
    "case_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Which traced counts must equal which counts known from the case list.
COVERAGE = {
    "twist-law": ("theories.law", lambda kinds: kinds["law"] + kinds["group_law"]),
    "grr-products": ("applications.verify_grr", lambda kinds: kinds["grr"]),
    "diagonal": ("theories.diagonal_class", lambda kinds: 2 * kinds["diagonal"]),
    "suite": ("acceptance.run_criterion", lambda kinds: 10 * kinds["suite"]),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_worker(workload: str, seed: int, pass_index: int, *extra: str) -> tuple[dict, float]:
    """One pass in a fresh process: (its report, the spawn instant)."""
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    command += ["--pass", str(pass_index), *extra]
    spawned = perf_counter()
    child = subprocess.run(
        command, cwd=workloads.ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if child.returncode != 0 or not child.stdout.strip():
        raise BenchError(f"worker for {workload} pass {pass_index} failed:\n{child.stderr}")
    return json.loads(child.stdout.strip().splitlines()[-1]), spawned


def tail(times: list[float]) -> tuple[float, str]:
    """p90 when at least 100 samples; else the highest percentile with 10 beyond it.

    Below 21 samples that percentile would not lie above the median, so
    the maximum stands in for the tail.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], f"max of {n} cases (too few for a tail with 10 beyond it)"
    index = min(math.ceil(0.9 * n) - 1, n - 11)
    beyond = n - index - 1
    return ordered[index], f"p{100 * (index + 1) / n:.0f} of {n} cases ({beyond} beyond it)"


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """Untraced passes until the time is used up; end-to-end metrics and report lines."""
    start = perf_counter()
    passes, walls, setups = [], [], []
    while True:
        report, spawned = run_worker(workload, seed, len(passes))
        walls.append(perf_counter() - spawned)
        setups.append(report["ready"] - spawned)
        passes.append(report)
        if perf_counter() - start + statistics.median(walls) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        report, spawned = run_worker(workload, seed, len(passes), "--setup-only")
        setups.append(report["ready"] - spawned)

    times = [t for p in passes for t in p["times"]]
    attempted = len(times)
    failed = sum(p["failed"] for p in passes)
    p90, p90_note = tail(times)
    values = {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(p["verdict_s"] for p in passes),
        "case_p50_ms": 1000 * statistics.median(times),
        "case_p90_ms": 1000 * p90,
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} process set-ups (interpreter, import rrcalc, inputs)",
        "verdict_s": f"median of {len(passes)} passes, first case start to last verdict",
        "case_p50_ms": f"median of {attempted} cases",
        "case_p90_ms": p90_note,
        "peak_rss_mb": f"max over {len(passes)} case processes",
    }
    lines = [
        f"workload {workload}: seed {seed}, {len(passes)} passes of "
        f"{len(passes[0]['times'])} cases, closed loop, one caller",
    ]
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<13} {values[name]:.6g} {unit:<3} {notes[name]}")
    lines.append(f"  failed_ratio  {failed / attempted:.6g} 1   {failed} of {attempted} cases")
    lines.append(
        f"  shared        {statistics.median(p['shared'] for p in passes):.3g} of cases "
        "reuse an earlier case's key input in their process"
    )
    lines += [f"  error: {e}" for p in passes for e in p["errors"]][:10]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END},
    }
    return result, lines


def trace(workload: str, seed: int) -> tuple[dict, list[str]]:
    """Pass 0 untraced, then traced: per-layer metrics, coverage check, predictions."""
    plain, _ = run_worker(workload, seed, 0)
    traced, _ = run_worker(workload, seed, 0, "--trace")
    if traced.get("trace") is None:
        raise BenchError(f"traced pass of {workload} returned no trace")
    values = dict(traced["trace"]["metrics"])
    values["trace.verdict_s"] = traced["verdict_s"]
    values["trace.overhead_ratio"] = traced["verdict_s"] / plain["verdict_s"]
    attempted = len(plain["times"]) + len(traced["times"])
    failed = plain["failed"] + traced["failed"]

    name, expected = COVERAGE[workload]
    seen = traced["trace"]["outermost"].get(name, 0)
    wanted = expected(traced["kinds"])
    covered = seen == wanted
    lines = [f"workload {workload}: seed {seed}, pass 0 traced ({len(traced['times'])} cases)"]
    for metric, unit in tracer.METRICS.items():
        lines.append(f"  {metric:<40} {values[metric]:.6g} {unit}")
    lines.append(
        f"  wrapper coverage: outermost {name} calls {seen}, case list implies {wanted}: "
        + ("ok" if covered else "MISMATCH")
    )
    lines += [f"  prediction: {text}" for text in predictions(workload, values)]
    lines += [f"  error: {e}" for e in plain["errors"] + traced["errors"]][:10]
    result = {
        "correct": failed == 0 and covered,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in tracer.METRICS.items()},
    }
    return result, lines


def predictions(workload: str, values: dict) -> list[str]:
    """The layer predictions stated for this workload, each marked holds / does not hold."""

    def mark(ok: bool) -> str:
        return "holds" if ok else "does not hold"

    out = []
    if workload == "twist-law":
        share = values["series.self_s"] / values["trace.verdict_s"]
        out.append(f"series self time is {share:.0%} of traced time, >= 50%: {mark(share >= 0.5)}")
    if workload in ("grr-products", "diagonal"):
        calls = values["series.reversion.calls"]
        out.append(f"series.reversion.calls = {calls}, bypassed: {mark(calls == 0)}")
    if workload == "grr-products":
        own = {m: v for m, v in values.items() if m.endswith(".self_s") and m.count(".") == 2}
        top = max(own, key=own.get)
        out.append(f"largest self time is {top}: {mark(top == 'rings.mul.self_s')}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (workloads.SRC / "rrcalc" / "__init__.py").is_file():
        print(f"error: no rrcalc sources under {workloads.SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name], lines = trace(name, args.seed)
            else:
                results[name], lines = measure(name, args.seed, args.seconds)
            print("\n".join(lines), flush=True)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, result in results.items()
                for metric, entry in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
