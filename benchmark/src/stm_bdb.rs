//! `stm_bdb`: the BerkeleyDB programs of `sim_bdb` on the TL2 STM with
//! real OS threads. Closed loop: each thread starts its next unit only
//! after the previous one completes. No simulator layer runs here.

use std::time::{Duration, Instant};

use ltse_stm::{StmBuilder, StmReport, StmSystem};
use ltse_workloads::{Benchmark, SyncMode};

use crate::host::{Clock, Span};
use crate::trace::{LayerTimes, OpClass, Sink, Traced};
use crate::{median, peak_rss_mb, ratio, repeat_for, setup_seconds, Outcome};

/// OS threads.
const THREADS: u32 = 2;
/// BerkeleyDB units per thread.
const UNITS: u64 = 4_000;

/// One STM run.
struct Run {
    wall: Span,
    /// The emulated cycle measured just before the run.
    cycle_ns: f64,
    report: Result<StmReport, String>,
    violations: Vec<String>,
    layers: Option<LayerTimes>,
}

/// Builds the STM (its word table included) and adds every thread: what
/// `setup_s` times.
fn setup(seed: u64, checked: bool, sink: Option<&Sink>) -> StmSystem {
    let mut system = StmBuilder::new()
        .seed(seed)
        .check_serializability(checked)
        .build();
    for program in Benchmark::BerkeleyDb.programs(SyncMode::Tm, THREADS, UNITS) {
        system.add_thread(match sink {
            Some(sink) => Traced::wrap(program, sink, true),
            None => program,
        });
    }
    system
}

fn one(clock: &mut Clock, seed: u64, traced: bool, checked: bool) -> Run {
    let sink = Sink::default();
    let cycle_ns = spin_cycle_ns();
    let mut system = setup(seed, checked, traced.then_some(&sink));
    let (report, wall) = clock.time(|| system.run());
    let report = report.map_err(|e| format!("stm_bdb run failed: {e:?}"));
    let violations = system.finish_checks();
    drop(system);
    let layers = traced.then(|| *sink.lock().expect("trace sink"));
    Run {
        wall,
        cycle_ns,
        report,
        violations,
        layers,
    }
}

fn check(run: &Run, commits: Option<u64>, what: &str) -> Vec<String> {
    let mut problems: Vec<String> = run
        .violations
        .iter()
        .map(|v| format!("{what}: serializability: {v}"))
        .collect();
    let r = match &run.report {
        Ok(r) => r,
        Err(e) => {
            problems.push(format!("{what}: {e}"));
            return problems;
        }
    };
    let units = u64::from(THREADS) * UNITS;
    if r.work_units != units {
        problems.push(format!(
            "{what}: {} work units, expected {units}",
            r.work_units
        ));
    }
    if r.threads_completed != THREADS as usize {
        problems.push(format!(
            "{what}: {}/{THREADS} threads completed",
            r.threads_completed
        ));
    }
    if let Some(c) = commits.filter(|&c| c != r.commits) {
        problems.push(format!(
            "{what}: {} commits, the checked run had {c}",
            r.commits
        ));
    }
    problems
}

/// Host nanoseconds per `spin_loop` iteration: the STM executes
/// `Op::Work(n)` as `n` such iterations, so this is its emulated cycle.
/// Measured next to each run, so that a change of clock speed between runs
/// cancels out of `units_per_kcycle`.
fn spin_cycle_ns() -> f64 {
    const SPINS: u32 = 1 << 17;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..SPINS {
                std::hint::spin_loop();
            }
            start.elapsed().as_secs_f64() * 1e9 / f64::from(SPINS)
        })
        .collect();
    median(&samples)
}

/// Runs the workload: timed runs (or alternating untraced/traced runs with
/// `trace`) for `budget`, then one untimed serializability-checked run.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    out.info.insert(
        "input",
        format!("BerkeleyDB, {THREADS} OS threads x {UNITS} units, TL2 STM"),
    );
    let setup_s = setup_seconds(|| setup(seed, false, None));
    let mut clock = Clock::new(THREADS as usize);
    let start = Instant::now();
    let (runs, traced): (Vec<Run>, Vec<Run>) = if trace {
        repeat_for(start, budget, 2, || {
            (
                one(&mut clock, seed, false, false),
                one(&mut clock, seed, true, false),
            )
        })
        .into_iter()
        .unzip()
    } else {
        (
            repeat_for(start, budget, 3, || one(&mut clock, seed, false, false)),
            Vec::new(),
        )
    };
    let peak_rss = peak_rss_mb();
    let checked = one(&mut clock, seed, false, true);

    // Commit counts are fixed by the programs, so every run must match the
    // checked run's.
    let commits = checked.report.as_ref().ok().map(|r| r.commits);
    out.run(check(&checked, None, "checked run"));
    for r in &runs {
        out.run(check(r, commits, "timed run"));
    }
    for r in &traced {
        out.run(check(r, commits, "traced run"));
    }

    let ok: Vec<(&Run, &StmReport)> = runs
        .iter()
        .filter_map(|r| Some((r, r.report.as_ref().ok()?)))
        .collect();
    let per_run = |f: &dyn Fn(&Run, &StmReport) -> f64| {
        median(&ok.iter().map(|(r, s)| f(r, s)).collect::<Vec<_>>())
    };
    out.set("eval_s", per_run(&|r, _| clock.calibrated(&r.wall)));
    out.info
        .insert("eval_s_raw", per_run(&|r, _| r.wall.raw).to_string());
    out.set(
        "tx_per_s",
        per_run(&|r, s| s.commits as f64 / clock.calibrated(&r.wall)),
    );
    out.set(
        "units_per_kcycle",
        per_run(&|r, s| s.work_units as f64 * 1e3 / (r.wall.raw * 1e9 / r.cycle_ns)),
    );
    out.set(
        "abort_ratio",
        per_run(&|_, s| ratio(s.aborts as f64, (s.commits + s.aborts) as f64)),
    );
    out.set("setup_s", setup_s);
    out.info.insert(
        "spin_cycle_ns",
        format!("{:.3}", per_run(&|r, _| r.cycle_ns)),
    );
    out.set("peak_rss_mb", peak_rss);
    if trace {
        // Counters come from the untraced runs: tracing changes the
        // interleaving, and with it the aborts.
        let counter = |f: fn(&StmReport) -> u64| per_run(&|_, s| f(s) as f64);
        out.set("stm.commits", counter(|s| s.commits));
        out.set("stm.aborts", counter(|s| s.aborts));
        out.set("stm.aborts_locked", counter(|s| s.aborts_locked));
        out.set("stm.aborts_stale", counter(|s| s.aborts_stale));
        out.set("stm.serial_fallbacks", counter(|s| s.serial_fallbacks));
        out.set("stm.tx_reads", counter(|s| s.tx_reads));
        out.set("stm.tx_writes", counter(|s| s.tx_writes));
        out.set(
            "stm.max_retry_streak",
            counter(|s| u64::from(s.max_retry_streak)),
        );
        layer_metrics(
            &mut out,
            &clock,
            &ok.iter()
                .map(|(r, _)| clock.calibrated(&r.wall))
                .collect::<Vec<_>>(),
            &traced,
        );
    }
    out
}

fn layer_metrics(out: &mut Outcome, clock: &Clock, untraced_walls: &[f64], traced: &[Run]) {
    // Host times in calibrated seconds, each scaled like its run's wall.
    let layers: Vec<(LayerTimes, f64)> = traced
        .iter()
        .filter_map(|r| Some((r.layers?, clock.scale(&r.wall))))
        .collect();
    let of = |f: &dyn Fn(&LayerTimes) -> f64| {
        median(&layers.iter().map(|(l, _)| f(l)).collect::<Vec<_>>())
    };
    let secs = |f: &dyn Fn(&LayerTimes) -> Duration| {
        median(
            &layers
                .iter()
                .map(|(l, scale)| f(l).as_secs_f64() * scale)
                .collect::<Vec<_>>(),
        )
    };
    out.set("workloads.next_op_s", secs(&|l| l.next_op));
    out.set("workloads.ops", of(&|l| l.ops as f64));
    for class in OpClass::ALL {
        out.set(class.metric(), secs(&|l| l.class[class as usize]));
    }
    out.set(
        "stm.tm_overhead_share",
        of(&|l| {
            let tm: Duration = l.classes().filter(|(c, _)| c.is_tm()).map(|(_, d)| d).sum();
            let all: Duration = l.classes().map(|(_, d)| d).sum::<Duration>() + l.next_op;
            ratio(tm.as_secs_f64(), all.as_secs_f64())
        }),
    );
    let walls: Vec<f64> = traced.iter().map(|r| clock.calibrated(&r.wall)).collect();
    out.set(
        "trace.overhead_share",
        median(&walls) / median(untraced_walls) - 1.0,
    );
}
