//! Scale-out sweep for the PR 8 work: 64/128/256-core simulations on the
//! `MemConfig::scaled_cmp` configurations (one L2 bank per core, square
//! mesh, calendar window sized from the context count).
//!
//! Each `sweep/cores_N` case times one full Mp3d run (system construction
//! included — it is part of what a user pays per configuration). The
//! `checked/cores_256_serializability` case runs the 256-context system
//! with the differential serializability oracle enabled and asserts the
//! checks pass before any timing is reported — this is the acceptance
//! criterion that the 64-context ceiling is actually gone, not merely that
//! the config validates.
//!
//! The headline metric is **ns per dispatched event**: wall time grows with
//! core count because bigger systems dispatch more events, so per-event
//! cost is the number that exposes super-linear hot paths (O(cores) scans,
//! allocation storms). The `speedups` map reports the 64-core baseline
//! divided by each larger config — ≈1.0 means flat per-event cost — plus
//! `queue_calendar_vs_heap`: the calendar event queue against a plain
//! `BinaryHeap` on the same synthetic churn.
//!
//! Output matches the other bench targets: human lines on stderr, one JSON
//! document on stdout or to `LTSE_BENCH_JSON` (what `scripts/bench.sh`
//! stores as `BENCH_scale.json`).
//!
//! Environment: `LTSE_BENCH_QUICK=1` (tiny workloads, 2 iters),
//! `LTSE_BENCH_ITERS=N`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use logtm_se::{Cycle, MemConfig, RunReport, System, SystemBuilder};
use ltse_bench::harness;
use ltse_sim::EventQueue;
use ltse_workloads::{Benchmark, SyncMode};

struct CaseResult {
    group: &'static str,
    name: &'static str,
    mean_ms: f64,
    best_ms: f64,
    iters: usize,
}

fn time_case<T>(
    out: &mut Vec<CaseResult>,
    group: &'static str,
    name: &'static str,
    iters: usize,
    mut f: impl FnMut() -> T,
) {
    black_box(f()); // warmup
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        best = best.min(dt);
    }
    let mean_ms = total / iters as f64 * 1e3;
    let best_ms = best * 1e3;
    eprintln!(
        "{:<44} mean {mean_ms:>9.3} ms   best {best_ms:>9.3} ms   ({iters} iters)",
        format!("{group}/{name}")
    );
    out.push(CaseResult {
        group,
        name,
        mean_ms,
        best_ms,
        iters,
    });
}

/// One row of the sweep: simulated-run facts recorded next to the timings.
struct SweepRow {
    n_cores: u16,
    n_ctxs: u32,
    cycles: u64,
    events: u64,
    commits: u64,
    aborts: u64,
    checked: bool,
}

const SWEEP_CORES: [u16; 3] = [64, 128, 256];
const SEED: u64 = 42;

fn build_system(n_cores: u16, checked: bool) -> System {
    let mem = MemConfig::scaled_cmp(n_cores, 1);
    let n_ctxs = mem.n_ctxs();
    let mut s = SystemBuilder::paper_default()
        .mem_config(mem)
        .seed(SEED)
        .check_serializability(checked)
        .build();
    for p in Benchmark::Mp3d.programs(SyncMode::Tm, n_ctxs, units_per_thread()) {
        s.add_thread(p);
    }
    s
}

fn units_per_thread() -> u64 {
    if quick() { 1 } else { 4 }
}

fn quick() -> bool {
    std::env::var("LTSE_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// The next re-push delay of the synthetic event-queue churn, in the
/// 256-context shape: ~64 events in flight, one re-push per pop, mostly
/// 1–64-cycle hops and 1 in 97 up to 60k cycles ahead. Both queue
/// implementations draw the same xorshift sequence, so they do identical
/// work.
fn next_delay(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    if *x % 97 == 0 { 1 + *x % 60_000 } else { 1 + *x % 64 }
}

/// The churn on the calendar `EventQueue` at the 4096-bucket width
/// 256-context systems use.
fn queue_churn_calendar(ops: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::with_buckets(4096);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..64 {
        q.push_after(Cycle(i % 7 + 1), i);
    }
    for _ in 0..ops {
        let (t, v) = q.pop().expect("queue never drains");
        acc = acc.wrapping_add(t.as_u64() ^ v);
        q.push_after(Cycle(next_delay(&mut x)), v);
    }
    acc
}

/// The same churn on a plain `BinaryHeap` keyed by `(time, seq)`: the
/// reference the calendar queue must beat.
fn queue_churn_heap(ops: u64) -> u64 {
    let mut q: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let mut seq = 0u64;
    for i in 0..64 {
        q.push(Reverse((i % 7 + 1, seq, i)));
        seq += 1;
    }
    for _ in 0..ops {
        let Reverse((t, _, v)) = q.pop().expect("queue never drains");
        acc = acc.wrapping_add(t ^ v);
        q.push(Reverse((t + next_delay(&mut x), seq, v)));
        seq += 1;
    }
    acc
}

fn run_once(n_cores: u16, checked: bool) -> RunReport {
    let mut s = build_system(n_cores, checked);
    let report = s.run().expect("scaled run");
    if checked {
        let errs = s.finish_checks();
        assert!(
            errs.is_empty(),
            "serializability violations at {n_cores} cores: {}",
            errs.join("; ")
        );
    }
    report
}

fn main() {
    let quick = quick();
    let iters = harness::iters(if quick { 2 } else { 5 });
    let cpus = harness::detected_cpus();
    let mut out: Vec<CaseResult> = Vec::new();
    let mut rows: Vec<SweepRow> = Vec::new();

    // ---- the 64/128/256-core sweep --------------------------------------
    for (n_cores, name) in SWEEP_CORES
        .into_iter()
        .zip(["cores_64", "cores_128", "cores_256"])
    {
        let r = run_once(n_cores, false);
        assert!(r.tm.commits > 0, "{n_cores}-core run committed nothing");
        rows.push(SweepRow {
            n_cores,
            n_ctxs: n_cores as u32,
            cycles: r.cycles.as_u64(),
            events: r.events_dispatched,
            commits: r.tm.commits,
            aborts: r.tm.aborts,
            checked: false,
        });
        time_case(&mut out, "sweep", name, iters, || run_once(n_cores, false));
    }

    // ---- 256 contexts under the serializability oracle ------------------
    // `run_once(_, true)` panics on any violation, so a finished timing run
    // doubles as the correctness gate.
    let r = run_once(256, true);
    rows.push(SweepRow {
        n_cores: 256,
        n_ctxs: 256,
        cycles: r.cycles.as_u64(),
        events: r.events_dispatched,
        commits: r.tm.commits,
        aborts: r.tm.aborts,
        checked: true,
    });
    time_case(&mut out, "checked", "cores_256_serializability", iters, || {
        run_once(256, true)
    });

    // ---- calendar queue vs heap reference --------------------------------
    // Same churn, same pop order; the ratio lands in
    // `speedups.queue_calendar_vs_heap` (>1 = the calendar queue wins).
    let qops: u64 = if quick { 200_000 } else { 2_000_000 };
    assert_eq!(
        queue_churn_calendar(qops),
        queue_churn_heap(qops),
        "calendar and heap churn must pop identically"
    );
    time_case(&mut out, "queue", "calendar", iters, || queue_churn_calendar(qops));
    time_case(&mut out, "queue", "heap_ref", iters, || queue_churn_heap(qops));
    let queue_ratio = {
        let c = out.iter().find(|c| c.group == "queue" && c.name == "calendar");
        let h = out.iter().find(|c| c.group == "queue" && c.name == "heap_ref");
        c.zip(h)
            .filter(|(c, _)| c.best_ms > 0.0)
            .map(|(c, h)| h.best_ms / c.best_ms)
    };

    // ---- per-event scaling ----------------------------------------------
    // best_ms over events from the recorded (deterministic) run: the event
    // count is a pure function of (config, seed), so pairing it with the
    // best timing of the same config is sound.
    let ns_per_event = |name: &str, n_cores: u16| -> Option<f64> {
        let c = out.iter().find(|c| c.group == "sweep" && c.name == name)?;
        let row = rows.iter().find(|r| r.n_cores == n_cores && !r.checked)?;
        (row.events > 0).then(|| c.best_ms * 1e6 / row.events as f64)
    };
    let base = ns_per_event("cores_64", 64);
    let pairs = [
        (
            "per_event_64_vs_128",
            base.zip(ns_per_event("cores_128", 128)).map(|(b, o)| b / o),
        ),
        (
            "per_event_64_vs_256",
            base.zip(ns_per_event("cores_256", 256)).map(|(b, o)| b / o),
        ),
        ("queue_calendar_vs_heap", queue_ratio),
    ];
    for (pname, s) in pairs {
        if let Some(s) = s {
            eprintln!("scaling {pname:<32} {s:.2}x (1.0 = flat per-event cost)");
        }
    }

    // ---- JSON ----------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"scale\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"cpus\": {cpus},\n"));
    json.push_str(&format!("  \"units_per_thread\": {},\n", units_per_thread()));
    json.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n_cores\": {}, \"n_ctxs\": {}, \"cycles\": {}, \"events\": {}, \
             \"commits\": {}, \"aborts\": {}, \"checked\": {}}}{}\n",
            r.n_cores,
            r.n_ctxs,
            r.cycles,
            r.events,
            r.commits,
            r.aborts,
            r.checked,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"cases\": [\n");
    for (i, c) in out.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"mean_ms\": {:.6}, \"best_ms\": {:.6}, \"iters\": {}}}{}\n",
            c.group,
            c.name,
            c.mean_ms,
            c.best_ms,
            c.iters,
            if i + 1 < out.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"speedups\": {\n");
    for (i, (pname, s)) in pairs.iter().enumerate() {
        json.push_str(&format!(
            "    \"{pname}\": {}{}\n",
            s.map_or("null".to_string(), |v| format!("{v:.3}")),
            if i + 1 < pairs.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");

    match std::env::var("LTSE_BENCH_JSON") {
        Ok(path) if !path.is_empty() => {
            std::fs::write(&path, &json).expect("write LTSE_BENCH_JSON file");
            eprintln!("wrote {path}");
        }
        _ => print!("{json}"),
    }
}
