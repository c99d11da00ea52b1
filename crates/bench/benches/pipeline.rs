//! Pipeline-level benchmark: parallel schedule exploration.
//!
//! Unlike `hotpath` (micro-benchmarks of individual data structures), the
//! case here times a whole pipeline stage — a full exploration — and the
//! parallel path is measured **against its sequential baseline in the same
//! run**: `explore/jobs_1` vs `explore/jobs_N` explores a contended-counter
//! system sequentially vs fanned out over the worker pool, with the reports
//! asserted identical before any timing is reported.
//!
//! Output:
//!
//! * human-readable lines on **stderr**;
//! * a single JSON document on **stdout**, or to the file named by
//!   `LTSE_BENCH_JSON` if set (what `scripts/bench.sh` uses to produce
//!   `BENCH_pipeline.json`).
//!
//! Environment:
//!
//! * `LTSE_BENCH_QUICK=1` — CI smoke mode: tiny workloads, 2 iterations,
//!   still full JSON structure (no timing thresholds are asserted anywhere).
//! * `LTSE_BENCH_ITERS=N` — override the per-case iteration count.

use std::hint::black_box;
use std::time::Instant;

use logtm_se::{
    explore, explore_jobs, Cycle, ExploreConfig, ExploreReport, ScheduleChooser, System,
    SystemBuilder, TxScript, WordAddr,
};
use ltse_bench::harness;
use ltse_sim::parallel::effective_jobs;

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

/// best-time ratio `baseline / optimized` (higher = optimized is faster).
fn speedup(out: &[CaseResult], group: &str, baseline: &str, optimized: &str) -> Option<f64> {
    let b = out.iter().find(|c| c.group == group && c.name == baseline)?;
    let o = out.iter().find(|c| c.group == group && c.name == optimized)?;
    (o.best_ms > 0.0).then(|| b.best_ms / o.best_ms)
}

// ------------------------------------------------------------ explore model

/// Candidate window / reorder horizon, as in the explore integration tests.
const WINDOW: usize = 4;
const HORIZON: Cycle = Cycle(8);

fn contended_counters() -> System {
    let mut s = SystemBuilder::small_for_tests()
        .seed(7)
        .check_serializability(true)
        .build();
    s.poke_word(WordAddr(0), 5);
    for _ in 0..4 {
        s.add_thread(Box::new(TxScript::counter(WordAddr(0), 3)));
    }
    s
}

fn check_one(chooser: &mut ScheduleChooser) -> Result<(), String> {
    let mut s = contended_counters();
    s.run_explored(chooser, WINDOW, HORIZON)
        .map_err(|e| format!("run error: {e}"))?;
    let errs = s.finish_checks();
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("; "))
    }
}

fn report_key(r: &ExploreReport) -> (usize, usize, u64, bool) {
    (
        r.schedules_run,
        r.distinct_schedules,
        r.fingerprint,
        r.failure.is_some(),
    )
}

fn main() {
    let quick = std::env::var("LTSE_BENCH_QUICK").is_ok_and(|v| v == "1");
    let iters = harness::iters(if quick { 2 } else { 10 });
    let mut out: Vec<CaseResult> = Vec::new();

    // ---- schedule exploration: sequential vs worker pool ----------------
    let budget = if quick { 96 } else { 512 };
    let cfg = ExploreConfig {
        seed: 0xA11CE,
        ..ExploreConfig::with_budget(budget)
    };
    let cpus = harness::detected_cpus();
    let jobs = effective_jobs(None).clamp(2, 8);
    if cpus < 2 {
        eprintln!(
            "note: {cpus} CPU available — explore/jobs_{jobs} cannot beat jobs_1 here \
             (it measures pure pool overhead); run on a multicore host for the speedup"
        );
    }
    // Correctness gate before timing anything: the parallel explorer must
    // produce the identical report.
    let seq = explore(&cfg, |c| check_one(c));
    let par = explore_jobs(&cfg, jobs, check_one);
    assert_eq!(
        report_key(&seq),
        report_key(&par),
        "explore_jobs({jobs}) diverged from sequential explore"
    );
    time_case(&mut out, "explore", "jobs_1", iters, || {
        explore_jobs(&cfg, 1, check_one)
    });
    let name: &'static str = Box::leak(format!("jobs_{jobs}").into_boxed_str());
    time_case(&mut out, "explore", name, iters, || {
        explore_jobs(&cfg, jobs, check_one)
    });

    // ---- JSON ----------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"pipeline\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"cpus\": {cpus},\n"));
    json.push_str(&format!("  \"explore_jobs\": {jobs},\n"));
    json.push_str("  \"cases\": [\n");
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
    let pairs = [("explore_parallel", speedup(&out, "explore", "jobs_1", name))];
    for (i, (pname, s)) in pairs.iter().enumerate() {
        json.push_str(&format!(
            "    \"{pname}\": {}{}\n",
            s.map_or("null".to_string(), |v| format!("{v:.3}")),
            if i + 1 < pairs.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");

    for (pname, s) in pairs {
        if let Some(s) = s {
            eprintln!("speedup {pname:<32} {s:.2}x");
        }
    }

    match std::env::var("LTSE_BENCH_JSON") {
        Ok(path) if !path.is_empty() => {
            std::fs::write(&path, &json).expect("write LTSE_BENCH_JSON file");
            eprintln!("wrote {path}");
        }
        _ => print!("{json}"),
    }
}
