#!/usr/bin/env bash
# Interleaved A/B of the event kernel between two builds.
#
# Runs OLD_BUILD/bench_kernel_throughput and NEW_BUILD/bench_kernel_throughput
# in PAIRS interleaved pairs (default 6), alternating which build runs first
# so drift on a noisy host lands on both sides.  Prints, per workload, each
# side's median events/s with its quartiles, the median ratio new/old and
# how many pairs the new build won.  Any further arguments are passed to
# both benches unchanged (for example --accesses 2000 --reps 3).
#
# A speed comparison only means something when both builds simulated the
# same events: the script exits 1 if any workload's `events` count differs
# between the builds (or between runs), 0 otherwise.
#
# Usage: scripts/ab.sh OLD_BUILD NEW_BUILD [PAIRS] [BENCH_ARGS...]
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: scripts/ab.sh OLD_BUILD NEW_BUILD [PAIRS] [BENCH_ARGS...]" >&2
  exit 2
fi
OLD=$1/bench_kernel_throughput
NEW=$2/bench_kernel_throughput
shift 2
PAIRS=6
if [[ $# -gt 0 && $1 =~ ^[0-9]+$ ]]; then
  PAIRS=$1
  shift
fi
for bin in "$OLD" "$NEW"; do
  if [[ ! -x $bin ]]; then
    echo "ab.sh: no bench_kernel_throughput at $bin" >&2
    exit 2
  fi
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

run() {  # run SIDE PAIR
  local bin=$OLD
  [[ $1 == new ]] && bin=$NEW
  "$bin" "${@:3}" --out "$WORK/$1-$2.json" > /dev/null
}

for ((p = 0; p < PAIRS; ++p)); do
  if ((p % 2 == 0)); then
    run old "$p" "$@"; run new "$p" "$@"
  else
    run new "$p" "$@"; run old "$p" "$@"
  fi
  echo "pair $((p + 1))/$PAIRS done" >&2
done

python3 - "$WORK" "$PAIRS" <<'EOF'
import json, statistics, sys

work, pairs = sys.argv[1], int(sys.argv[2])
runs = {side: [json.load(open(f"{work}/{side}-{p}.json"))
               for p in range(pairs)] for side in ("old", "new")}

def rows(run):
    return {w["name"]: w for w in run["workloads"]}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print("meta old:", json.dumps(runs["old"][0].get("meta")))
print("meta new:", json.dumps(runs["new"][0].get("meta")))
print(f"{'workload':<14} {'events':>10} {'old Mev/s (q1-q3)':>22} "
      f"{'new Mev/s (q1-q3)':>22} {'new/old':>8} {'new wins':>9}")
mismatch = False
for name in rows(runs["old"][0]):
    events = {rows(r)[name]["events"] for side in runs.values() for r in side}
    rate = {side: [rows(r)[name]["events_per_sec"] / 1e6 for r in rs]
            for side, rs in runs.items()}
    wins = sum(n > o for o, n in zip(rate["old"], rate["new"]))
    oq, nq = quartiles(rate["old"]), quartiles(rate["new"])
    cell = lambda q: f"{q[1]:.2f} ({q[0]:.2f}-{q[2]:.2f})"
    shown = str(events.pop()) if len(events) == 1 else "DIFFER"
    print(f"{name:<14} {shown:>10} {cell(oq):>22} {cell(nq):>22} "
          f"{nq[1] / oq[1]:>8.3f} {wins:>6}/{pairs}")
    if shown == "DIFFER":
        mismatch = True
if mismatch:
    print("ab.sh: event counts differ between builds; the comparison is void",
          file=sys.stderr)
    sys.exit(1)
EOF
