//! `paper_eval`: the cold, full-scale `repro all` evaluation, run in-process
//! through the `ltse_bench::experiments` functions in `repro` order on a
//! 2-worker runner pool. Closed loop: each worker starts its next
//! simulation run only after the previous one completes.

use std::time::{Duration, Instant};

use logtm_se::SystemBuilder;
use ltse_bench::experiments::*;
use ltse_bench::render;
use ltse_bench::runner::{self, SweepError};
use ltse_workloads::Benchmark;

use crate::host::{Clock, Span};
use crate::{median, peak_rss_mb, ratio, setup_seconds, Outcome};

/// Runner pool workers.
const JOBS: usize = 2;

/// What one evaluation pass produced.
#[derive(Default)]
struct Pass {
    /// Every rendered table, in `repro all` order.
    text: String,
    /// Each experiment's span, in `EXPERIMENTS` order.
    spans: Vec<(&'static str, Span)>,
    runs: u64,
    failed_runs: u64,
    /// Summed per-run time of every pool worker.
    busy: Duration,
    problems: Vec<String>,
    /// Σ aborts and Σ commits over Table 3's BerkeleyDB rows (every
    /// signature).
    table3_bdb: (u64, u64),
    /// Work units and cycles of the virtualization baseline run.
    virt_baseline: (u64, u64),
}

impl Pass {
    /// Runs one experiment, renders it, and drains the runner's timings.
    fn step<T>(
        &mut self,
        clock: &mut Clock,
        name: &'static str,
        experiment: impl FnOnce() -> Result<Vec<T>, SweepError>,
        render: impl FnOnce(&[T]) -> String,
    ) -> Vec<T> {
        let (rows, span) = clock.time(experiment);
        self.spans.push((name, span));
        for t in runner::take_timings() {
            self.runs += t.runs as u64;
            self.failed_runs += t.failed as u64;
            self.busy += Duration::from_secs_f64(t.mean_run_ms * t.runs as f64 / 1e3);
        }
        match rows {
            Ok(rows) => {
                self.text.push_str(&render(&rows));
                self.text.push('\n');
                rows
            }
            Err(e) => {
                self.problems.push(format!("{name}: {e}"));
                Vec::new()
            }
        }
    }

    /// Measured and calibrated seconds of the whole pass.
    fn wall(&self, clock: &Clock) -> (f64, f64) {
        self.spans.iter().fold((0.0, 0.0), |(r, c), (_, s)| {
            (r + s.raw, c + clock.calibrated(s))
        })
    }
}

fn scale(seed: u64) -> ExperimentScale {
    ExperimentScale {
        base_seed: seed,
        ..ExperimentScale::full()
    }
}

/// One full evaluation, every experiment of `repro all` in order. Table 1
/// (a rendering of the machine configuration that lives in the `repro`
/// binary, not the library) is the one part not reproduced.
fn pass(seed: u64, clock: &mut Clock) -> Pass {
    let scale = scale(seed);
    let mut p = Pass::default();
    p.step(clock, "table2", || table2(&scale), render::render_table2);
    p.step(clock, "figure4", || figure4(&scale), render::render_figure4);
    let t3 = p.step(clock, "table3", || table3(&scale), render::render_table3);
    p.table3_bdb = t3
        .iter()
        .filter(|r| r.benchmark == Benchmark::BerkeleyDb)
        .fold((0, 0), |(a, c), r| (a + r.aborts, c + r.transactions));
    p.step(
        clock,
        "victimization",
        || victimization(&scale),
        render::render_victimization,
    );
    p.text
        .push_str(&logtm_se::substrates::tm::virt_compare::render_table4());
    p.text.push('\n');
    p.step(
        clock,
        "sweep",
        || signature_sweep(&scale),
        render::render_sweep,
    );
    p.step(
        clock,
        "sticky",
        || sticky_ablation(&scale),
        render::render_sticky,
    );
    p.step(
        clock,
        "logfilter",
        || log_filter_ablation(&scale),
        render::render_log_filter,
    );
    let virt = p.step(
        clock,
        "virt",
        || virtualization_overhead(&scale),
        render::render_virt,
    );
    p.virt_baseline = virt
        .iter()
        .find(|r| r.quantum.is_none())
        .map_or((0, 0), |r| (r.units, r.cycles.as_u64()));
    p.step(
        clock,
        "snooping",
        || snooping_comparison(&scale),
        render::render_snooping,
    );
    p.step(
        clock,
        "policies",
        || contention_policies(&scale),
        render::render_policies,
    );
    p.step(
        clock,
        "multicmp",
        || multi_cmp_comparison(&scale),
        render::render_multi_cmp,
    );
    p.step(
        clock,
        "nesting",
        || nesting_ablation(&scale),
        render::render_nesting,
    );
    p.step(clock, "smt", || smt_comparison(&scale), render::render_smt);
    p
}

/// FNV-1a, 64-bit: a stable digest of the rendered tables.
fn digest(text: &str) -> String {
    let h = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// Runs the workload: evaluation passes while the next one fits in
/// `budget` (at least one; exactly one with `trace`). Every pass times each
/// experiment for calibration, so a traced pass does no extra work: the
/// per-layer numbers are those spans plus the runner's own timings.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    out.info.insert(
        "input",
        format!("repro all at full scale, base_seed {seed}, {JOBS} runner workers"),
    );
    // Everything `repro all` does before its first sweep: size the pool,
    // build the scale, and read the machine configuration Table 1 prints.
    // It takes nanoseconds, so each timed sample is a batch, whose mean
    // the clock's own cost does not swamp.
    const BATCH: u32 = 1_000;
    let setup = setup_seconds(|| {
        for _ in 0..BATCH {
            runner::set_jobs(Some(JOBS));
            std::hint::black_box((
                scale(std::hint::black_box(seed)),
                *SystemBuilder::paper_default().mem_config_view(),
            ));
        }
    }) / f64::from(BATCH);
    let mut clock = Clock::new(JOBS);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let p = pass(seed, &mut clock);
        let last = Duration::from_secs_f64(p.wall(&clock).0);
        passes.push(p);
        if trace || start.elapsed() + last > budget {
            break;
        }
    }
    let peak_rss = peak_rss_mb();

    let first = &passes[0];
    let digest0 = digest(&first.text);
    out.info.insert("tables_digest", digest0.clone());
    for (i, p) in passes.iter().enumerate() {
        out.attempted += p.runs;
        out.failed += p.failed_runs;
        out.problems.extend(p.problems.iter().cloned());
        if p.runs == 0 {
            out.problems.push(format!("pass {i}: no simulation runs"));
        }
        let d = digest(&p.text);
        if d != digest0 {
            out.problems.push(format!(
                "pass {i}: tables digest {d} differs from pass 0's {digest0}"
            ));
        }
    }

    let walls: Vec<(f64, f64)> = passes.iter().map(|p| p.wall(&clock)).collect();
    let eval_s = median(&walls.iter().map(|w| w.1).collect::<Vec<_>>());
    out.info.insert(
        "eval_s_raw",
        median(&walls.iter().map(|w| w.0).collect::<Vec<_>>()).to_string(),
    );
    out.set("eval_s", eval_s);
    out.set("tx_per_s", first.runs as f64 / eval_s);
    let (units, cycles) = first.virt_baseline;
    out.set("units_per_kcycle", ratio(units as f64 * 1e3, cycles as f64));
    let (aborts, commits) = first.table3_bdb;
    out.set(
        "abort_ratio",
        ratio(aborts as f64, (aborts + commits) as f64),
    );
    out.set("setup_s", setup);
    out.set("peak_rss_mb", peak_rss);
    if trace {
        let (raw, calibrated) = walls[0];
        for (name, span) in &first.spans {
            out.set(&format!("runner.{name}_s"), clock.calibrated(span));
        }
        out.set("runner.runs", first.runs as f64);
        out.set("runner.failed_runs", first.failed_runs as f64);
        out.set("runner.busy_s", first.busy.as_secs_f64() * calibrated / raw);
        out.set(
            "runner.busy_share",
            first.busy.as_secs_f64() / (raw * JOBS as f64),
        );
        out.set("trace.overhead_share", 0.0);
    }
    out
}
