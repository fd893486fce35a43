#!/usr/bin/env python3
"""Validate bench JSON reports and gate throughput regressions.

Replaces the ad-hoc inline Python that used to live in the CI workflow.
Handles the schema_version-1 report kinds:

- kernel_throughput (bench_kernel_throughput): full-System events/sec for
  the serial / multithreaded / migration / zipf profiles.
- generator_throughput (bench_generator_throughput): raw workload-generator
  accesses/sec, one next/ entry per generator kind (the front-end the
  serial profile is bound by).
- trace_replay (bench_trace_replay): .altr trace-pipeline records/sec —
  raw block read, record decode, a full trace-replay simulation, and the
  equivalent direct synthetic simulation.
- region (bench_ablation_region): full-System simulated events/sec across
  the directory schemes (baseline, allarm, region at several region
  sizes); the degenerate region/r64 row guards the shared hot path.

Two checks per report:

1. Schema: the report must declare the expected bench kind and workload
   list, positive event counts and rates, and zero event heap fallbacks
   (the allocation-free kernel guarantee; generator reports carry a
   constant 0).

2. Regression gate versus a committed baseline
   (bench/baseline/BENCH_kernel.json or BENCH_generator.json by default).
   Two complementary checks, because a relative gate cannot distinguish
   "slower machine" from "everything got slower":

   - Relative: each workload's current/baseline rate ratio is normalized
     by the MEDIAN ratio across workloads.  This cancels uniform
     machine-speed differences and does not let one improved workload
     make its untouched peers look regressed (a geomean normalization
     would); a workload more than --max-regression slower than its peers
     fails.
   - Absolute floor: the median ratio itself must stay above
     --min-median-ratio (default 0.5).  This catches a regression large
     enough to drag the majority of workloads down (which the median
     normalization alone would cancel) while still tolerating CI runners
     up to 2x slower than the baseline machine.

   Remaining blind spot: a slowdown of every workload that stays above
   the absolute floor and moves them all about equally.  Run with
   --absolute on the machine that recorded the baseline to check raw
   events_per_sec with no normalization.

Refresh the baselines by re-running the same commands CI uses:

    ./build/bench_kernel_throughput --accesses 2000 --reps 5 \
        --out bench/baseline/BENCH_kernel.json
    ./build/bench_generator_throughput --accesses 2000000 --reps 5 \
        --out bench/baseline/BENCH_generator.json
    ./build/bench_trace_replay --accesses 2000 --reps 5 \
        --out bench/baseline/BENCH_trace_replay.json
    ./build/bench_ablation_region --accesses 2000 --reps 5 \
        --out bench/baseline/BENCH_region.json

Exit status: 0 on pass, 1 on any schema or regression failure.
"""

import argparse
import json
import statistics
import sys

KERNEL_WORKLOADS = ["serial", "multithreaded", "migration", "zipf"]
GENERATOR_KINDS = ["sweep", "uniform", "zipf", "chunk", "creep", "profile"]
GENERATOR_WORKLOADS = [f"{kind}/next" for kind in GENERATOR_KINDS]
TRACE_WORKLOADS = ["read", "decode", "replay", "synthetic"]
REGION_WORKLOADS = [
    "baseline/r4096",
    "allarm/r4096",
    "region/r4096",
    "region/r1024",
    "region/r64",
]
EXPECTED = {
    "kernel_throughput": {
        "workloads": KERNEL_WORKLOADS,
        "default_baseline": "bench/baseline/BENCH_kernel.json",
    },
    "generator_throughput": {
        "workloads": GENERATOR_WORKLOADS,
        "default_baseline": "bench/baseline/BENCH_generator.json",
    },
    "trace_replay": {
        "workloads": TRACE_WORKLOADS,
        "default_baseline": "bench/baseline/BENCH_trace_replay.json",
    },
    "region": {
        "workloads": REGION_WORKLOADS,
        "default_baseline": "bench/baseline/BENCH_region.json",
    },
}


def fail(message: str) -> None:
    print(f"check_bench: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_report(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")


def check_schema(report: dict, path: str, expected_workloads: list) -> None:
    if report.get("bench") not in EXPECTED:
        fail(f"{path}: unknown bench kind {report.get('bench')!r}")
    if report.get("schema_version") != 1:
        fail(f"{path}: unsupported schema_version {report.get('schema_version')}")
    workloads = report.get("workloads")
    if not isinstance(workloads, list):
        fail(f"{path}: missing workloads array")
    names = [w.get("name") for w in workloads]
    if names != expected_workloads:
        fail(f"{path}: workloads {names}, expected {expected_workloads}")
    for w in workloads:
        for field in ("events", "wall_seconds", "events_per_sec", "ns_per_event"):
            value = w.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                fail(f"{path}: workload {w.get('name')}: bad {field}={value!r}")
        if w.get("event_heap_fallbacks") != 0:
            fail(
                f"{path}: workload {w.get('name')}: "
                f"{w.get('event_heap_fallbacks')} event heap fallbacks "
                "(allocation-free kernel regressed)"
            )
    if not isinstance(report.get("geomean_events_per_sec"), (int, float)):
        fail(f"{path}: missing geomean_events_per_sec")
    if not isinstance(report.get("accesses_per_thread"), int):
        fail(f"{path}: missing accesses_per_thread")


def rates(report: dict) -> dict:
    return {w["name"]: float(w["events_per_sec"]) for w in report["workloads"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "report",
        help="BENCH_kernel.json / BENCH_generator.json produced by this run",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed reference report (default: the bench kind's file "
        "under bench/baseline/)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.10,
        help="fail when any workload regresses more than this fraction "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--min-median-ratio",
        type=float,
        default=0.5,
        help="fail when the median current/baseline rate ratio falls below "
        "this (absolute floor under the normalization; default: %(default)s)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="compare raw events_per_sec instead of median-normalized "
        "ratios (use on the machine that recorded the baseline)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="schema validation only (e.g. sanitizer builds, where "
        "throughput numbers are meaningless)",
    )
    args = parser.parse_args()

    report = load_report(args.report)
    kind = report.get("bench")
    if kind not in EXPECTED:
        fail(f"{args.report}: unknown bench kind {kind!r}")
    expected_workloads = EXPECTED[kind]["workloads"]
    check_schema(report, args.report, expected_workloads)

    if args.no_baseline:
        print(f"check_bench: {kind} schema OK (baseline comparison skipped)")
        return

    baseline_path = args.baseline or EXPECTED[kind]["default_baseline"]
    baseline = load_report(baseline_path)
    if baseline.get("bench") != kind:
        fail(
            f"{baseline_path}: bench kind {baseline.get('bench')!r} does not "
            f"match report kind {kind!r}"
        )
    check_schema(baseline, baseline_path, expected_workloads)

    if report["accesses_per_thread"] != baseline["accesses_per_thread"]:
        fail(
            f"budget mismatch: report ran accesses_per_thread="
            f"{report['accesses_per_thread']}, baseline recorded "
            f"{baseline['accesses_per_thread']} — shares are not comparable. "
            "Re-record the baseline or rerun the bench at the baseline budget."
        )

    current, reference = rates(report), rates(baseline)
    ratios = {name: current[name] / reference[name] for name in expected_workloads}
    if not args.absolute:
        # Median normalization cancels uniform machine-speed differences
        # without letting one improved workload drag its untouched peers'
        # shares below the threshold (a geomean normalization would).
        norm = statistics.median(ratios.values())
        print(f"check_bench: median raw ratio vs baseline = {norm:.3f}")
        if norm < args.min_median_ratio:
            fail(
                f"median rate ratio {norm:.3f} is below the "
                f"{args.min_median_ratio} floor — the majority of workloads "
                "regressed (or this runner is drastically slower than the "
                "baseline machine; re-record the baseline if so)"
            )
        ratios = {name: r / norm for name, r in ratios.items()}
        mode = "median-normalized"
    else:
        mode = "absolute events/sec"

    failures = []
    for name in expected_workloads:
        ratio = ratios[name]
        status = "OK"
        if ratio < 1.0 - args.max_regression:
            status = "REGRESSED"
            failures.append(name)
        print(
            f"check_bench: {name:<14} {mode} ratio vs baseline = "
            f"{ratio:.3f}  [{status}]"
        )

    if failures:
        fail(
            f"{', '.join(failures)} regressed more than "
            f"{args.max_regression:.0%} vs {baseline_path}"
        )
    print(
        "check_bench: OK — geomean "
        f"{report['geomean_events_per_sec']:,.0f} events/s "
        f"(baseline {baseline['geomean_events_per_sec']:,.0f})"
    )


if __name__ == "__main__":
    main()
