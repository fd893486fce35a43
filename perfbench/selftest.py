#!/usr/bin/env python3
"""Self-test of the benchmark.

Usage (from anywhere):

    python3 perfbench/selftest.py [--binary PATH]

Builds the benchmark (unless --binary names a built allarm_perfbench) and
checks, at a tiny budget:

  * every workload, untraced and traced, exits 0, passes every check and
    prints exactly the metrics BENCHMARK.json lists, each with its unit,
    both in its table and in its final JSON line;
  * a tampered replay trace and a tampered report digest make the checks
    fail (exit 1, "correct": false, failures counted);
  * a bad output path is reported with a message and exit 2, and a bad
    work directory with a message and exit 1 - never a crash;
  * run.py, given only BENCHMARK.json and perfbench/, exits non-zero
    without printing a result.

Scratch files go to .bench_build/selftest in the checkout.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
TINY = ["--accesses", "200", "--seconds", "0.2"]

failures = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def invoke(cmd, cwd=ROOT):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check_contract(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    expect(set(spec) == keys, "BENCHMARK.json has exactly the contract keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)), "metric and workload names unique")
    expect(all(len(w["why"]) <= 200 for w in spec["workloads"]),
           "every workload's why fits 200 characters")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
           "every bound is in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and
           setup[0]["better"] == "lower" and
           setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is present, in s, lower-better, with the largest bound")


def check_run(binary, workload, trace, expected):
    timeline = os.path.join(SCRATCH, workload + ".trace.json")
    proc = invoke([binary, "--workload", workload, "--seed", "7",
                   "--trace", str(trace), "--timeline", timeline,
                   "--work-dir", os.path.join(SCRATCH, "work")] + TINY)
    tag = "%s trace=%d" % (workload, trace)
    expect(proc.returncode == 0, tag + " exits 0 (got %d: %s)" %
           (proc.returncode, proc.stderr.strip()[-300:]))
    res = result_of(proc)
    expect(res is not None, tag + " ends with a JSON result")
    if res is None:
        return
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           tag + " result has exactly the contract keys")
    expect(res["correct"] is True and res["failed"] == 0 and
           res["attempted"] >= 1, tag + " passes every check")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    expect(got == expected, tag + " prints exactly the listed metrics "
           "with their units (missing %s, extra %s)" %
           (sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
    table = proc.stdout.splitlines()
    for name, unit in expected.items():
        row = [l.split() for l in table if l.split()[:1] == [name]]
        expect(len(row) == 1 and row[0][2] == unit,
               tag + " table shows %s in %s" % (name, unit))
    expect("checks: all passed" in proc.stdout, tag + " reports its checks")
    expect(any(l.startswith("digest " + workload + " ") for l in table),
           tag + " prints its report digest")
    if trace == 1:
        with open(timeline) as f:
            events = json.load(f)["traceEvents"]
        expect(any(e.get("name") == "bench.batch" for e in events),
               tag + " writes a Chrome trace with the benchmark's spans")
    else:
        expect(any(l.split()[:1] == ["failed_frac"] for l in table),
               tag + " table shows failed_frac")


def check_negative(binary):
    work = ["--work-dir", os.path.join(SCRATCH, "work")]
    for workload, tamper in (("region-replay", "trace"),
                             ("fig3-grid", "digest"),
                             ("ocean-solo", "digest")):
        proc = invoke([binary, "--workload", workload, "--seed", "7",
                       "--trace", "0", "--tamper", tamper] + work + TINY)
        res = result_of(proc)
        tag = "%s with a tampered %s" % (workload, tamper)
        expect(proc.returncode == 1, tag + " exits 1 (got %d)" %
               proc.returncode)
        expect(res is not None and res["correct"] is False and
               res["failed"] > 0, tag + " reports incorrect, failures counted")
        expect("CHECK FAILED" in proc.stdout, tag + " names the failed check")


def check_bad_paths(binary):
    missing = os.path.join(SCRATCH, "no-such-dir", "t.json")
    fifo = os.path.join(SCRATCH, "fifo")
    if not os.path.exists(fifo):
        os.mkfifo(fifo)
    for label, path in (("missing directory", missing),
                        ("directory", SCRATCH), ("fifo", fifo)):
        proc = invoke([binary, "--workload", "ocean-solo", "--seed", "1",
                       "--trace", "1", "--timeline", path] + TINY)
        expect(proc.returncode == 2 and "cannot write" in proc.stderr and
               result_of(proc) is None,
               "timeline path that is a %s: message and exit 2 (got %d)" %
               (label, proc.returncode))
    blocker = os.path.join(SCRATCH, "plain-file")
    with open(blocker, "w") as f:
        f.write("not a directory\n")
    proc = invoke([binary, "--workload", "ocean-solo", "--seed", "1",
                   "--trace", "0", "--work-dir", blocker] + TINY)
    expect(proc.returncode == 1 and "error" in proc.stderr,
           "work directory that is a file: message and exit 1 (got %d)" %
           proc.returncode)
    proc = invoke([binary, "--workload", "nope", "--seed", "1",
                   "--seconds", "1", "--trace", "0"])
    expect(proc.returncode == 2 and "usage" in proc.stderr,
           "unknown workload: usage and exit 2")


def check_stripped_checkout():
    stripped = os.path.join(SCRATCH, "stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke(["python3", "perfbench/run.py", "--workload", "fig3-grid",
                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=stripped)
    expect(proc.returncode != 0 and result_of(proc) is None,
           "run.py without the simulator sources fails without a result")
    shutil.rmtree(stripped, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", help="built allarm_perfbench to test")
    args = parser.parse_args()
    binary = args.binary
    if binary is None:
        sys.path.insert(0, HERE)
        import run
        run.build()
        binary = run.BINARY
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_contract(spec)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        check_run(binary, workload, 0, e2e)
        check_run(binary, workload, 1, layers)
    check_negative(binary)
    check_bad_paths(binary)
    check_stripped_checkout()

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
