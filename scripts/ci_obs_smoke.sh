#!/usr/bin/env bash
# CI smoke for the observability layer (also runs fine locally):
#
#  1. byte-identity  - the default sweep report is byte-identical whether
#                      instrumentation is dormant (no flags) or active but
#                      redirected (--timeline + --profile writing elsewhere,
#                      the --profile run re-reported with profile off);
#  2. sweep timeline - --timeline writes valid Chrome trace-event JSON with
#                      the sweep/sink/journal/sim span categories;
#  3. sim timeline   - a single allarm_sim run with --timeline writes
#                      valid JSON carrying the sim category;
#  4. profile        - --profile adds a hist section with p50/p95/p99 for
#                      every latency metric, in both the CLI report and a
#                      service report requesting "profile": true;
#  5. service        - a service batch run with --timeline emits service
#                      spans and writes parseable health.json/metrics.prom;
#  6. failpoints     - obs.timeline and service.metrics faults degrade
#                      loudly (logged) without corrupting the run's results.
#
# Usage: scripts/ci_obs_smoke.sh [path-to-sweep] [path-to-allarm_serve] \
#                                [path-to-allarm_sim]
set -euo pipefail

SWEEP=${1:-./build/sweep}
SERVE=${2:-./build/allarm_serve}
SIM=${3:-./build/allarm_sim}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Validates a timeline file: well-formed Chrome trace JSON whose complete
# events cover at least the categories passed as arguments.
check_timeline() {
    python3 - "$@" <<'EOF'
import json, sys
path, want = sys.argv[1], set(sys.argv[2:])
doc = json.load(open(path))
events = doc["traceEvents"]
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "no complete events in " + path
for e in spans:
    assert {"name", "cat", "ts", "dur", "pid", "tid"} <= e.keys(), e
cats = {e["cat"] for e in spans}
missing = want - cats
assert not missing, f"{path}: missing categories {missing} (have {cats})"
print(f"OK: {path}: {len(spans)} spans, categories {sorted(cats)}")
EOF
}

echo "== 1/6 default report bytes are unchanged by instrumentation =="
"$SWEEP" --grid quick --seeds 2 --accesses 400 --jobs 2 \
    --out "$WORK/ref.json" --csv "$WORK/ref.csv"
"$SWEEP" --grid quick --seeds 2 --accesses 400 --jobs 2 \
    --out "$WORK/instr.json" --csv "$WORK/instr.csv" \
    --timeline "$WORK/instr-timeline.json"
cmp "$WORK/ref.json" "$WORK/instr.json"
cmp "$WORK/ref.csv" "$WORK/instr.csv"
# A --profile run re-merged without --profile must also match: the journal
# carries histograms, the default report never shows them.
"$SWEEP" --grid quick --seeds 2 --accesses 400 --jobs 2 --profile \
    --journal "$WORK/prof.journal" --out "$WORK/prof.json"
"$SWEEP" --grid quick --seeds 2 --accesses 400 --jobs 2 \
    --merge "$WORK/prof.journal" --out "$WORK/prof-replay.json"
cmp "$WORK/ref.json" "$WORK/prof-replay.json"
echo "OK: default reports byte-identical with instrumentation on"

echo "== 2/6 sweep timeline is valid Chrome trace JSON =="
"$SWEEP" --grid quick --seeds 2 --accesses 400 --jobs 2 \
    --journal "$WORK/tl.journal" --out "$WORK/tl.json" \
    --timeline "$WORK/sweep-timeline.json"
check_timeline "$WORK/sweep-timeline.json" sweep sink journal sim
echo "OK: sweep timeline validated"

echo "== 3/6 allarm_sim timeline carries the sim category =="
"$SIM" --benchmark ocean-cont --accesses 2000 --mode allarm \
    --timeline "$WORK/sim-timeline.json" > /dev/null
check_timeline "$WORK/sim-timeline.json" sim
echo "OK: allarm_sim timeline validated"

echo "== 4/6 --profile exports hist.* quantiles =="
"$SWEEP" --grid quick --seeds 2 --accesses 400 --jobs 2 --profile \
    --out "$WORK/hist.json"
python3 - "$WORK/hist.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for cell in doc["cells"]:
    hist = cell["hist"]
    assert "access_latency_ns" in hist, hist.keys()
    for name, h in hist.items():
        assert {"p50", "p95", "p99", "max", "count"} <= h.keys(), (name, h)
        assert h["p50"] <= h["p95"] <= h["p99"] <= h["max"], (name, h)
print(f"OK: hist sections on {len(doc['cells'])} cells")
EOF
echo "OK: profile quantiles exported"

echo "== 5/6 service batch with --timeline, health + metrics parse =="
SPOOL="$WORK/spool"
printf '{"grid": "quick", "seeds": 2, "accesses": 400, "profile": true}' \
    > "$WORK/req.json"
"$SERVE" --root "$SPOOL" --enqueue "$WORK/req.json" --as probe
"$SERVE" --root "$SPOOL" --exit-when-idle --workers 2 --poll-ms 50 \
    --timeline "$WORK/serve-timeline.json"
check_timeline "$WORK/serve-timeline.json" service sweep sim journal
python3 - "$SPOOL" <<'EOF'
import json, sys
root = sys.argv[1]
health = json.load(open(root + "/health.json"))
for key in ("pid", "uptime_s", "queue_depth", "requests", "jobs_per_s",
            "pool", "totals", "active", "last_error"):
    assert key in health, key
assert health["totals"]["jobs_executed"] > 0, health["totals"]
samples = 0
for line in open(root + "/metrics.prom"):
    line = line.strip()
    if not line or line.startswith("#"):
        continue
    name, value = line.rsplit(" ", 1)
    float(value)  # Every sample line must end in a number.
    assert name.startswith("allarm_"), line
    samples += 1
assert samples >= 10, f"only {samples} metric samples"
print(f"OK: health.json keys present, {samples} prom samples parse")
EOF
report="$SPOOL/requests/probe/report.json"
grep -q '"hist"' "$report" \
    || { echo "FAIL: service report missing hist section"; exit 1; }
echo "OK: service observability validated"

echo "== 6/6 observability write faults degrade loudly, results intact =="
RC=0
"$SWEEP" --grid quick --seeds 2 --accesses 400 --jobs 2 \
    --out "$WORK/fault.json" --timeline "$WORK/fault-timeline.json" \
    --failpoints "obs.timeline=err@1" 2> "$WORK/fault.log" || RC=$?
[ "$RC" -eq 0 ] || { echo "FAIL: timeline fault changed exit code ($RC)"; exit 1; }
grep -q "failpoint obs.timeline" "$WORK/fault.log" \
    || { echo "FAIL: timeline fault never logged"; cat "$WORK/fault.log"; exit 1; }
cmp "$WORK/ref.json" "$WORK/fault.json"
test ! -s "$WORK/fault-timeline.json" \
    || { echo "FAIL: faulted timeline file present and non-empty"; exit 1; }
SPOOL="$WORK/spool-fault"
"$SERVE" --root "$SPOOL" --enqueue "$WORK/req.json" --as survivor
"$SERVE" --root "$SPOOL" --exit-when-idle --workers 2 --poll-ms 50 \
    --failpoints "service.metrics=err@1" 2> "$WORK/metrics-fault.log"
[ "$(cat "$SPOOL/requests/survivor/state")" = "done" ] \
    || { echo "FAIL: metrics fault took down the request"; exit 1; }
grep -q "failpoint service.metrics" "$WORK/metrics-fault.log" \
    || { echo "FAIL: metrics fault never logged"; exit 1; }
echo "OK: faults loud, results untouched"

echo "ALL OBS SMOKES PASSED"
