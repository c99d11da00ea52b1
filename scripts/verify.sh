#!/usr/bin/env bash
# Repo verification: tier-1 build + tests, then a determinism smoke of the
# parallel experiment runner (quick-scale repro on 1 vs. 4 workers must
# produce byte-identical stdout).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: cargo build --release =="
cargo build --release

echo "== tier 1: cargo test -q =="
cargo test -q

echo "== exploration smoke: bounded schedule search with the oracle =="
# A capped budget keeps this under ~30 s while still covering every
# exploration test (serializability, shrinking, victimization, preemption).
t_exp0=$(date +%s%N)
LTSE_EXPLORE_SCHEDULES=300 cargo test -q --release --test integration_explore
t_exp1=$(date +%s%N)
echo "ok: exploration smoke in $(( (t_exp1 - t_exp0) / 1000000 )) ms"

echo "== policy smoke: every contention policy under the oracle =="
# Serializability + seeded-fault detection under all five contention
# policies (including Adaptive), pinned-Adaptive byte-identity, and the
# serial-escalation path. A reduced schedule budget keeps this quick.
t_pol0=$(date +%s%N)
LTSE_EXPLORE_SCHEDULES=150 cargo test -q --release --test integration_policy
t_pol1=$(date +%s%N)
echo "ok: policy smoke in $(( (t_pol1 - t_pol0) / 1000000 )) ms"

echo "== scale smoke: 64-256-context runs with serializability checks =="
# The scaled_cmp configurations (64/128/256 cores, square mesh, one bank per
# core) run Mp3d end to end under the differential serializability oracle.
t_sc0=$(date +%s%N)
cargo test -q --release --test integration_scale
t_sc1=$(date +%s%N)
echo "ok: scale smoke in $(( (t_sc1 - t_sc0) / 1000000 )) ms"

echo "== stm smoke: differential STM-vs-oracle run =="
# A reduced case budget keeps this under ~30 s while still running real
# multi-threaded STM transactions through the serializability oracle.
t_stm0=$(date +%s%N)
LTSE_STM_CASES=60 cargo test -q --release --test integration_stm
t_stm1=$(date +%s%N)
echo "ok: stm differential smoke in $(( (t_stm1 - t_stm0) / 1000000 )) ms"

echo "== bench smoke: hotpath + pipeline + obs + stm + scale + oltp + policy suites in quick mode =="
# Asserts both suites run and emit valid JSON with the expected shape; no
# timing thresholds — CI machines are too noisy for that.
bench_dir=$(mktemp -d)
trap 'rm -rf "$bench_dir"' EXIT
LTSE_BENCH_QUICK=1 LTSE_BENCH_DIR="$bench_dir" scripts/bench.sh 2>&1 | tail -5
python3 - "$bench_dir" <<'EOF'
import json, os, sys
d = sys.argv[1]
expected_speedups = {
    "hotpath": {"sig_membership_bitselect", "sig_membership_bloom", "event_queue_churn"},
    "pipeline": {"explore_parallel"},
    "obs": {"obs_off_vs_on"},
    "stm": {"stm_vs_sim_berkeleydb", "stm_vs_sim_raytrace", "stm_vs_sim_mp3d"},
    "scale": {"per_event_64_vs_128", "per_event_64_vs_256", "queue_calendar_vs_heap"},
}
min_cases = {"hotpath": 7, "pipeline": 2, "obs": 4, "stm": 6, "scale": 6}
for bench, speedups in expected_speedups.items():
    with open(os.path.join(d, f"BENCH_{bench}.json")) as f:
        doc = json.load(f)
    assert doc["bench"] == bench, doc
    assert doc["quick"] is True, "smoke must run in quick mode"
    n = len(doc["cases"])
    assert n >= min_cases[bench], f"{bench}: expected >={min_cases[bench]} cases, got {n}"
    for c in doc["cases"]:
        assert c["best_ms"] > 0 and c["mean_ms"] >= c["best_ms"], c
    assert set(doc["speedups"]) == speedups, doc["speedups"]
    print(f"ok: BENCH_{bench} json well-formed, {n} cases")

# BENCH_scale.json additionally records the simulated-run facts: the sweep
# must cover 64/128/256 cores and include the serializability-checked
# 256-context run.
with open(os.path.join(d, "BENCH_scale.json")) as f:
    doc = json.load(f)
assert doc["cpus"] >= 1, doc
runs = doc["runs"]
sweep_cores = {r["n_cores"] for r in runs if not r["checked"]}
assert sweep_cores == {64, 128, 256}, sweep_cores
checked = [r for r in runs if r["checked"]]
assert checked and all(r["n_ctxs"] == 256 for r in checked), runs
for r in runs:
    assert r["commits"] > 0 and r["events"] > 0 and r["cycles"] > 0, r
print(f"ok: BENCH_scale runs cover {sorted(sweep_cores)} cores + checked 256-ctx run")

# BENCH_oltp.json has its own shape: skew/mix point rows on both backends
# with the latency SLOs, plus the streaming million-transaction section
# (reduced to 20k transactions in quick mode, same structure).
with open(os.path.join(d, "BENCH_oltp.json")) as f:
    doc = json.load(f)
assert doc["bench"] == "oltp" and doc["quick"] is True, doc
points = doc["points"]
assert len(points) >= 6, f"expected >=3 points x 2 backends, got {len(points)}"
backends = {p["backend"] for p in points}
assert backends == {"sim", "stm"}, backends
for p in points:
    assert p["committed"] == p["txs"] > 0, p
    assert p["p50"] <= p["p99"] <= p["p999"], p
    assert p["latency_unit"] in ("cycles", "ns"), p
by_point = {}
for p in points:
    by_point.setdefault(p["point"], set()).add(p["kv_fingerprint"])
for name, fps in by_point.items():
    assert len(fps) == 1, f"{name}: backends disagree on final KV state: {fps}"
mtx = doc["mtx"]
assert mtx["sim"]["committed"] == mtx["stm"]["committed"] == mtx["txs_total"], mtx
assert mtx["kv_match"] is True, mtx
growth = mtx["sim"]["rss_growth_kb"]
assert growth is None or growth < 64 * 1024, f"mtx RSS growth {growth} KiB"
print(f"ok: BENCH_oltp {len(points)} point rows + mtx section "
      f"({mtx['txs_total']} txs, rss growth {growth} KiB, kv states match)")

# BENCH_policy.json: every contention policy on every contended point on
# both backends, with the per-point winner analysis. Structure only here —
# the ratio gates are full-scale and live in scripts/bench.sh.
with open(os.path.join(d, "BENCH_policy.json")) as f:
    doc = json.load(f)
assert doc["bench"] == "policy" and doc["quick"] is True, doc
rows = doc["rows"]
all_policies = {"requester_stalls", "requester_aborts", "size_matters", "karma", "adaptive"}
# 5 policies x (1 mp3d sim point + 2 oltp points x 2 backends).
assert len(rows) == 5 * 5, f"expected 25 rows, got {len(rows)}"
assert {r["policy"] for r in rows} == all_policies
assert {r["backend"] for r in rows} == {"sim", "stm"}
for r in rows:
    assert r["score"] >= 0 and r["committed"] > 0 and r["completed"] is True, r
pts = doc["points"]
assert len(pts) == 5, f"expected 5 (point, backend) summaries, got {len(pts)}"
for p in pts:
    assert p["best_static_policy"] in all_policies - {"adaptive"}, p
    assert p["adaptive_vs_best"] >= 0.0, p
summ = doc["summary"]
assert summ["static_winners"] and summ["distinct_static_winners"] >= 1, summ
assert isinstance(summ["adaptive_ok"], bool), summ
print(f"ok: BENCH_policy {len(rows)} rows, {len(pts)} point summaries, "
      f"winners: {', '.join(summ['static_winners'])}")
EOF

echo "== determinism smoke: repro --quick, 1 vs. 4 workers =="
repro=target/release/repro
out1=$(mktemp) out4=$(mktemp)
trap 'rm -f "$out1" "$out4"; rm -rf "$bench_dir"' EXIT

t_start=$(date +%s%N)
"$repro" --quick --jobs 1 all >"$out1" 2>/dev/null
t_mid=$(date +%s%N)
"$repro" --quick --jobs 4 all >"$out4" 2>/dev/null
t_end=$(date +%s%N)

if ! cmp -s "$out1" "$out4"; then
    echo "FAIL: quick repro stdout differs between --jobs 1 and --jobs 4" >&2
    diff "$out1" "$out4" | head -40 >&2
    exit 1
fi
echo "ok: stdout byte-identical across worker counts ($(wc -c <"$out1") bytes)"

# Golden output: the quick evaluation's exact bytes (FNV-1a of the whole
# stdout, Table 1 included). Host-speed changes must leave it alone.
golden=ef7dc19653afc49c
digest=$(python3 -c '
import sys
h = 0xcbf29ce484222325
for b in open(sys.argv[1], "rb").read():
    h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
print(f"{h:016x}")' "$out1")
if [ "$digest" != "$golden" ]; then
    echo "FAIL: quick repro stdout digest $digest, expected $golden" >&2
    exit 1
fi
echo "ok: quick repro stdout matches the golden digest $golden"

# LTSE_JOBS env-var path: must also match.
LTSE_JOBS=4 "$repro" --quick all >"$out4" 2>/dev/null
if ! cmp -s "$out1" "$out4"; then
    echo "FAIL: LTSE_JOBS=4 stdout differs from --jobs 1" >&2
    exit 1
fi
echo "ok: LTSE_JOBS env path matches"

ms1=$(( (t_mid - t_start) / 1000000 ))
ms4=$(( (t_end - t_mid) / 1000000 ))
echo "wall: ${ms1} ms on 1 worker, ${ms4} ms on 4 workers"
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 4 ]; then
    # Expect real parallel speedup when the hardware can provide it.
    if [ "$ms4" -gt $(( ms1 * 3 / 4 )) ]; then
        echo "WARN: <1.33x speedup on $cores cores (${ms1} -> ${ms4} ms)" >&2
    fi
else
    echo "note: only $cores core(s) available; skipping speedup check"
fi

echo "== stm backend smoke: repro --quick --backend stm table2 =="
"$repro" --quick --backend stm table2 >"$out4" 2>/dev/null
if ! grep -q "^STM backend:" "$out4"; then
    echo "FAIL: --backend stm did not print the comparison table" >&2
    head -5 "$out4" >&2
    exit 1
fi
stm_rows=$(wc -l <"$out4")
if [ "$stm_rows" -ne 7 ]; then
    echo "FAIL: expected 7 lines (title + header + 5 benchmarks), got $stm_rows" >&2
    exit 1
fi
echo "ok: stm backend ran all 5 Table-2 workloads against the simulator"

echo "== oltp smoke: repro --quick oltp on both backends =="
# Sim rows are cycle-denominated and must be byte-deterministic run to run;
# the stm comparison additionally cross-checks the final KV state between
# backends (a mismatch fails the run).
oltp1=$(mktemp) oltp2=$(mktemp)
trap 'rm -f "$out1" "$out4" "$oltp1" "$oltp2"; rm -rf "$bench_dir"' EXIT
"$repro" --quick oltp >"$oltp1" 2>/dev/null
"$repro" --quick --jobs 4 oltp >"$oltp2" 2>/dev/null
if ! cmp -s "$oltp1" "$oltp2"; then
    echo "FAIL: repro oltp stdout differs run to run" >&2
    diff "$oltp1" "$oltp2" | head -20 >&2
    exit 1
fi
if ! grep -q "^OLTP open-loop driver:" "$oltp1" || ! grep -q "p999" "$oltp1"; then
    echo "FAIL: repro oltp did not print the SLO table" >&2
    head -5 "$oltp1" >&2
    exit 1
fi
"$repro" --quick --backend stm oltp >"$oltp2" 2>/dev/null
oltp_stm_rows=$(grep -c " stm " "$oltp2" || true)
if [ "$oltp_stm_rows" -ne 3 ]; then
    echo "FAIL: expected 3 stm rows in the oltp comparison, got $oltp_stm_rows" >&2
    cat "$oltp2" >&2
    exit 1
fi
echo "ok: oltp deterministic on sim, 3 skew/mix points cross-checked on stm"

echo "== policy sweep smoke: repro --quick policy =="
# Every contention policy on every contended point, both backends in one
# table (25 rows). The stm rows are wall-clock, so no byte-identity check —
# shape and completeness only.
"$repro" --quick policy >"$oltp1" 2>/dev/null
if ! grep -q "^Policy sweep:" "$oltp1"; then
    echo "FAIL: repro policy did not print the sweep table" >&2
    head -5 "$oltp1" >&2
    exit 1
fi
policy_rows=$(grep -c "adaptive\|karma\|requester_\|size_matters" "$oltp1" || true)
if [ "$policy_rows" -ne 25 ]; then
    echo "FAIL: expected 25 policy rows (5 policies x 5 points), got $policy_rows" >&2
    cat "$oltp1" >&2
    exit 1
fi
if grep -q " NO " "$oltp1"; then
    echo "FAIL: some policy runs did not complete their fixed work" >&2
    grep " NO " "$oltp1" >&2
    exit 1
fi
echo "ok: policy sweep ran 5 policies x 5 (point, backend) combinations"

echo "== stats-json smoke: emit, validate schema, cross-jobs byte-identity =="
stats_dir=$(mktemp -d)
trap 'rm -f "$out1" "$out4" "$oltp1" "$oltp2"; rm -rf "$bench_dir" "$stats_dir"' EXIT

# The export must not disturb stdout, and its bytes must not depend on the
# worker count.
"$repro" --quick --jobs 1 --stats-json "$stats_dir/stats_j1.json" table1 >"$out4" 2>/dev/null
"$repro" --quick table1 >"$out1" 2>/dev/null
if ! cmp -s "$out1" "$out4"; then
    echo "FAIL: --stats-json changed stdout" >&2
    exit 1
fi
"$repro" --quick --jobs 4 --stats-json "$stats_dir/stats_j4.json" table1 >/dev/null 2>&1
if ! cmp -s "$stats_dir/stats_j1.json" "$stats_dir/stats_j4.json"; then
    echo "FAIL: stats-json differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi
python3 - "$stats_dir/stats_j1.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "ltse.stats.v1", doc.get("schema")
rows = doc["experiments"]
assert len(rows) == 13, f"expected 13 experiment rows, got {len(rows)}"
for row in rows:
    obs, tm = row["obs"], row["tm"]
    assert all(row["reconciled"].values()), (row["experiment"], row["reconciled"])
    assert sum(obs["stalls"].values()) == tm["stalls"], row["experiment"]
    assert sum(obs["aborts"].values()) == tm["aborts"], row["experiment"]
    assert obs["spans"]["committed"] == tm["commits"], row["experiment"]
slo = doc["oltp_slo"]
assert len(slo) == 3, f"expected 3 oltp_slo rows, got {len(slo)}"
for row in slo:
    lat = row["latency_cycles"]
    assert lat["p50"] <= lat["p99"] <= lat["p999"], row
    assert row["committed"] > 0 and row["goodput_tx_per_mcycle"] > 0, row
print(f"ok: stats-json schema-tagged, {len(rows)} rows + {len(slo)} SLO rows, "
      "all attributions reconcile")
EOF
echo "ok: stats-json deterministic across jobs"

echo "== stm stats-json smoke: per-cause abort counters reconcile =="
"$repro" --quick --backend stm --stats-json "$stats_dir/stats_stm.json" oltp >/dev/null 2>&1
python3 - "$stats_dir/stats_stm.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "ltse.stats.v1" and doc["backend"] == "stm", doc
rows = doc["experiments"]
assert len(rows) == 3, f"expected 3 stm rows, got {len(rows)}"
for row in rows:
    stm = row["stm"]
    assert all(row["reconciled"].values()), (row["benchmark"], row["reconciled"])
    assert stm["aborts_locked"] + stm["aborts_stale"] == stm["aborts"], row
print(f"ok: stm stats-json {len(rows)} rows, per-cause aborts reconcile")
EOF

echo "== verify OK =="
