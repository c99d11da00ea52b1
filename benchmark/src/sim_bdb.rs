//! `sim_bdb`: one long simulator run of the paper's BerkeleyDB model in TM
//! mode on the Table-1 machine (32 contexts) with 2 Kb bit-select
//! signatures, on one OS thread. Closed loop: each simulated thread starts
//! its next unit only after the previous one completes.

use std::time::{Duration, Instant};

use logtm_se::{RunReport, SignatureKind, System, SystemBuilder};
use ltse_workloads::{Benchmark, SyncMode};

use crate::host::{Clock, Span};
use crate::trace::{LayerTimes, Sink, Traced};
use crate::{median, peak_rss_mb, ratio, repeat_for, setup_seconds, Outcome};

/// Simulated threads: every context of the paper's machine.
const THREADS: u32 = 32;
/// BerkeleyDB units (transactions of the database model) per thread.
const UNITS: u64 = 400;

/// One simulator run.
struct Run {
    wall: Span,
    report: Result<RunReport, String>,
    /// `finish_checks` findings (serializability-checked runs only).
    violations: Vec<String>,
    /// Host time the tracing wrapper saw (traced runs only).
    layers: Option<LayerTimes>,
}

fn builder(seed: u64) -> SystemBuilder {
    SystemBuilder::paper_default()
        .signature(SignatureKind::paper_bs_2kb())
        .seed(seed)
}

/// Builds the machine and adds every thread: what `setup_s` times.
fn setup(builder: &SystemBuilder, sink: Option<&Sink>) -> System {
    let mut system = builder.build();
    for program in Benchmark::BerkeleyDb.programs(SyncMode::Tm, THREADS, UNITS) {
        system.add_thread(match sink {
            Some(sink) => Traced::wrap(program, sink, false),
            None => program,
        });
    }
    system
}

fn one(clock: &mut Clock, builder: &SystemBuilder, traced: bool) -> Run {
    let sink = Sink::default();
    let mut system = setup(builder, traced.then_some(&sink));
    let (report, wall) = clock.time(|| system.run());
    let report = report.map_err(|e| format!("sim_bdb run failed: {e:?}"));
    let violations = system.finish_checks();
    drop(system); // flushes the wrappers into `sink`
    let layers = traced.then(|| *sink.lock().expect("trace sink"));
    Run {
        wall,
        report,
        violations,
        layers,
    }
}

/// Every simulated statistic the benchmark reads: all of them must repeat
/// exactly for one seed, whatever is timed, traced or checked.
fn counters(r: &RunReport) -> Vec<(&'static str, u64)> {
    let (m, t) = (&r.mem, &r.tm);
    vec![
        ("cycles", r.cycles.as_u64()),
        ("sim.events", r.events_dispatched),
        ("threads_completed", r.threads_completed as u64),
        ("work_units", t.work_units),
        ("mem.l1_hits", m.l1_hits.get()),
        ("mem.l1_misses", m.l1_misses.get()),
        ("mem.l2_hits", m.l2_hits.get()),
        ("mem.dram_accesses", m.dram_accesses.get()),
        ("mem.forwards", m.forwards.get()),
        ("mem.nacks", m.nacks.get()),
        ("mem.invalidations", m.invalidations.get()),
        ("mem.messages", m.messages.get()),
        ("mem.l1_tx_evictions_hw", m.l1_tx_evictions_hw.get()),
        ("sig.true_conflicts", t.true_conflicts_signalled.get()),
        ("sig.false_conflicts", t.false_conflicts_signalled.get()),
        ("tm.commits", t.commits),
        ("tm.aborts", t.aborts),
        ("tm.stalls", t.stalls),
        ("tm.log_writes", t.log_writes),
        ("tm.wasted_cycles", t.wasted_cycles),
        ("tm.serial_escalations", t.serial_escalations),
    ]
}

/// Output checks for one run, against the reference run's counters.
fn check(run: &Run, reference: Option<&[(&'static str, u64)]>, what: &str) -> Vec<String> {
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
    if r.tm.work_units != u64::from(THREADS) * UNITS {
        problems.push(format!(
            "{what}: {} work units, expected {}",
            r.tm.work_units,
            u64::from(THREADS) * UNITS
        ));
    }
    if r.threads_completed != THREADS as usize {
        problems.push(format!(
            "{what}: {}/{THREADS} threads completed",
            r.threads_completed
        ));
    }
    if let Some(reference) = reference {
        for ((name, got), (_, want)) in counters(r).iter().zip(reference) {
            if got != want {
                problems.push(format!("{what}: {name} = {got}, reference run had {want}"));
            }
        }
    }
    problems
}

/// Runs the workload: timed runs (or alternating untraced/traced runs with
/// `trace`) for `budget`, then one untimed serializability-checked run.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    out.info.insert(
        "input",
        format!("BerkeleyDB, {THREADS} threads x {UNITS} units, BS_2kb, TM mode"),
    );
    let plain = builder(seed);
    let setup_s = setup_seconds(|| setup(&plain, None));
    let mut clock = Clock::new(1);
    let start = Instant::now();
    let (runs, traced): (Vec<Run>, Vec<Run>) = if trace {
        let observed = plain.clone().observe(true);
        repeat_for(start, budget, 2, || {
            (
                one(&mut clock, &plain, false),
                one(&mut clock, &observed, true),
            )
        })
        .into_iter()
        .unzip()
    } else {
        (
            repeat_for(start, budget, 3, || one(&mut clock, &plain, false)),
            Vec::new(),
        )
    };
    let peak_rss = peak_rss_mb();
    let checked = one(
        &mut clock,
        &plain.clone().check_serializability(true),
        false,
    );

    // The checked run is the reference every other run must repeat exactly.
    let reference = checked.report.as_ref().ok().map(counters);
    out.run(check(&checked, None, "checked run"));
    for r in &runs {
        out.run(check(r, reference.as_deref(), "timed run"));
    }
    for r in &traced {
        out.run(check(r, reference.as_deref(), "traced run"));
    }

    let walls: Vec<f64> = runs.iter().map(|r| clock.calibrated(&r.wall)).collect();
    out.info.insert(
        "eval_s_raw",
        median(&runs.iter().map(|r| r.wall.raw).collect::<Vec<_>>()).to_string(),
    );
    let Ok(report) = &checked.report else {
        return out;
    };
    let commits = report.tm.commits as f64;
    out.set("eval_s", median(&walls));
    out.set(
        "tx_per_s",
        median(&walls.iter().map(|w| commits / w).collect::<Vec<_>>()),
    );
    out.set("units_per_kcycle", report.throughput_per_kcycle());
    out.set(
        "abort_ratio",
        ratio(
            report.tm.aborts as f64,
            (report.tm.commits + report.tm.aborts) as f64,
        ),
    );
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", peak_rss);
    if trace {
        layer_metrics(&mut out, &clock, report, &walls, &traced);
    }
    out
}

fn layer_metrics(
    out: &mut Outcome,
    clock: &Clock,
    report: &RunReport,
    untraced_walls: &[f64],
    traced: &[Run],
) {
    for (name, value) in counters(report)
        .into_iter()
        .filter(|(n, _)| n.contains('.'))
    {
        out.set(name, value as f64);
    }
    let (m, t) = (&report.mem, &report.tm);
    out.set(
        "mem.l1_hit_ratio",
        ratio(
            m.l1_hits.get() as f64,
            (m.l1_hits.get() + m.l1_misses.get()) as f64,
        ),
    );
    let (tc, fc) = (
        t.true_conflicts_signalled.get(),
        t.false_conflicts_signalled.get(),
    );
    out.set("sig.false_share", ratio(fc as f64, (tc + fc) as f64));

    // Host times in calibrated seconds, each scaled like its run's wall.
    let walls: Vec<f64> = traced.iter().map(|r| clock.calibrated(&r.wall)).collect();
    let next_op: Vec<f64> = traced
        .iter()
        .filter_map(|r| Some(r.layers?.next_op.as_secs_f64() * clock.scale(&r.wall)))
        .collect();
    out.set("workloads.next_op_s", median(&next_op));
    out.set(
        "workloads.ops",
        traced.iter().find_map(|r| r.layers).map_or(0, |l| l.ops) as f64,
    );
    out.set("core.run_s", median(&walls));
    out.set(
        "core.engine_s",
        median(
            &walls
                .iter()
                .zip(&next_op)
                .map(|(w, n)| w - n)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "sim.ns_per_event",
        median(untraced_walls) * 1e9 / report.events_dispatched.max(1) as f64,
    );
    out.set(
        "trace.overhead_share",
        median(&walls) / median(untraced_walls) - 1.0,
    );
    if let Some(obs) = traced
        .iter()
        .find_map(|r| r.report.as_ref().ok()?.obs.as_ref())
    {
        let c = obs.cycles_total();
        out.set("tm.useful_cycles", c.useful as f64);
        out.set("tm.stalled_cycles", c.stalled as f64);
        out.set("tm.aborted_cycles", c.aborted as f64);
        out.set("tm.logwalk_cycles", c.log_walk as f64);
    }
}
