#!/usr/bin/env bash
# Run the benchmark suites and serialize the results to JSON files at the
# repo root:
#
#   BENCH_hotpath.json   — data-structure micro-benchmarks (signatures,
#                          event queue, end-to-end counter)
#   BENCH_pipeline.json  — pipeline-level benchmark (sequential vs parallel
#                          schedule exploration)
#   BENCH_obs.json       — observability-layer overhead (obs-off vs obs-on
#                          end to end, plus metric/span primitive costs)
#   BENCH_stm.json       — sim-vs-STM wall-clock comparison on Table-2
#                          workloads (real threads; host-speed numbers)
#   BENCH_scale.json     — 64/128/256-core scale sweep (per-event cost,
#                          256-context serializability-checked run, calendar
#                          queue vs BinaryHeap reference ratio)
#   BENCH_oltp.json      — open-loop OLTP driver: p50/p99/p999 commit
#                          latency + goodput per skew/mix point on both
#                          backends, and the million-transaction streaming
#                          run with its RSS bound
#   BENCH_policy.json    — adaptive contention management: every policy on
#                          contended workload points (Mp3d + two OLTP
#                          skew/mix points) on both backends, with the
#                          per-point best-static winner and Adaptive's gap
#
# Usage:
#   scripts/bench.sh                      # full run (~2-3 min), overwrites both files
#   LTSE_BENCH_QUICK=1 scripts/bench.sh   # CI smoke: tiny workloads, same JSON shape
#   LTSE_BENCH_DIR=out scripts/bench.sh   # write the JSON files elsewhere
#
# Each JSON carries baseline AND optimized timings for each path plus the
# derived speedups, so numbers are comparable across PRs: commit the files
# after a full run on a quiet machine and diff the "speedups" objects.
# Note: the explore_parallel speedup needs a multicore host — on one CPU it
# only measures pool overhead (the JSON records "cpus" for this reason).
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${LTSE_BENCH_DIR:-$PWD}"
# cargo runs benches with the package directory as cwd; anchor relative
# paths to the repo root.
case "$outdir" in /*) ;; *) outdir="$PWD/$outdir" ;; esac

for bench in hotpath pipeline obs stm scale oltp policy; do
    out="$outdir/BENCH_$bench.json"
    LTSE_BENCH_JSON="$out" cargo bench --bench "$bench"
    echo "bench results written to $out"
done

# Gate the explore_parallel speedup, but only where the hardware can deliver
# one: on a single-CPU host the parallel explorer measures pure pool
# overhead, so a ratio below 1.0 is expected and meaningless. nproc (not the
# JSON "cpus" field) decides the gate — it respects affinity masks, i.e. the
# parallelism the worker pool could actually use.
cpus=$(nproc 2>/dev/null || echo 1)
if [ "$cpus" -ge 2 ]; then
    python3 - "$outdir/BENCH_pipeline.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
s = doc["speedups"]["explore_parallel"]
assert s is not None and s >= 1.0, (
    f"explore_parallel speedup {s} < 1.0 on a {doc['cpus']}-CPU host: "
    "the persistent worker pool should beat sequential exploration here")
print(f"ok: explore_parallel {s:.2f}x on {doc['cpus']} CPUs")
PYEOF
else
    echo "note: $cpus CPU detected — skipping the explore_parallel >= 1.0 gate"          "(single-core hosts measure pool overhead only)"
fi

# Gate per-event cost at scale: the calendar queue and the event-path work
# must keep 256-core per-event cost within 5% of the 64-core baseline.
# Timing ratios need a quiet multicore host to be meaningful; on one CPU the
# sweep still runs (the JSON is produced above) but the gate is skipped with
# a note, mirroring the explore_parallel policy.
if [ "$cpus" -ge 2 ]; then
    python3 - "$outdir/BENCH_scale.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
s = doc["speedups"]["per_event_64_vs_256"]
assert s is not None and s >= 0.95, (
    f"per_event_64_vs_256 {s} < 0.95: per-event cost regressed at 256 cores")
q = doc["speedups"].get("queue_calendar_vs_heap")
print(f"ok: per_event_64_vs_256 {s:.2f}x (gate >= 0.95), "
      f"queue calendar/heap {q if q is None else f'{q:.2f}x'}")
PYEOF
else
    echo "note: $cpus CPU detected — skipping the per_event_64_vs_256 >= 0.95 gate"          "(single-core timing ratios are noise-bound; BENCH_scale.json still records them)"
fi

# Gate the adaptive contention manager: on every *simulated* point (cycle-
# denominated, deterministic on any host) Adaptive must stay within 5% of
# the best static policy. The wall-clock STM points get the same gate only
# on a multicore host — single-CPU STM goodput is scheduler noise, so there
# the JSON records the ratios but the gate is skipped with a note.
python3 - "$outdir/BENCH_policy.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc["quick"]:
    print("note: quick mode — policy gates are full-scale only "
          "(BENCH_policy.json still records the ratios)")
    sys.exit(0)
sim = [p for p in doc["points"] if p["backend"] == "sim"]
assert sim, "policy bench produced no sim points"
for p in sim:
    assert p["adaptive_vs_best"] >= 0.95, (
        f"{p['point']}/sim: adaptive at {p['adaptive_vs_best']:.3f} of the "
        f"best policy ({p['best_static_policy']}) — gate is >= 0.95")
winners = doc["summary"]["static_winners"]
assert len(winners) >= 2, f"policy sweep found only one static winner: {winners}"
print(f"ok: adaptive within 5% of best on all {len(sim)} sim points; "
      f"static winners: {', '.join(winners)}")
PYEOF
if [ "$cpus" -ge 2 ]; then
    python3 - "$outdir/BENCH_policy.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc["quick"]:
    sys.exit(0)
stm = [p for p in doc["points"] if p["backend"] == "stm"]
for p in stm:
    assert p["adaptive_vs_best"] >= 0.95, (
        f"{p['point']}/stm: adaptive goodput at {p['adaptive_vs_best']:.3f} of "
        f"the best static policy ({p['best_static_policy']}) — gate is >= 0.95")
print(f"ok: adaptive within 5% of best static goodput on {len(stm)} stm points")
PYEOF
else
    echo "note: $cpus CPU detected — skipping the stm adaptive >= 0.95 goodput gate"          "(single-CPU wall-clock goodput is noise-bound; BENCH_policy.json still records it)"
fi
