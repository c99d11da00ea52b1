//! `ltse-benchmark` — the repository benchmark.
//!
//! ```text
//! ltse-benchmark --workload paper_eval|sim_bdb|stm_bdb --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload, checks its outputs, and prints one JSON document on
//! stdout: the metrics (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`), the attempted/failed run counts, and every failed check.
//! `run.py` builds this binary, adds the host fingerprint, and prints the
//! final result line. See `README.md` for what each workload and metric
//! means.

#![forbid(unsafe_code)]

mod host;
mod paper_eval;
mod sim_bdb;
mod stm_bdb;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use host::Clock;

/// Every end-to-end metric, with its unit, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("eval_s", "s"),
    ("tx_per_s", "1/s"),
    ("units_per_kcycle", "1/kcycle"),
    ("abort_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The runner's per-experiment spans, in `repro all` order.
pub const EXPERIMENTS: [&str; 13] = [
    "table2",
    "figure4",
    "table3",
    "victimization",
    "sweep",
    "sticky",
    "logfilter",
    "virt",
    "snooping",
    "policies",
    "multicmp",
    "nesting",
    "smt",
];

/// Every per-layer metric's name and unit, in `BENCHMARK.json` order. A
/// workload that bypasses a layer (or cannot see it from outside) reports
/// 0 for that layer's metrics.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = EXPERIMENTS
        .iter()
        .map(|e| (format!("runner.{e}_s"), "s"))
        .collect();
    let rest: &[(&str, &str)] = &[
        ("runner.runs", "count"),
        ("runner.failed_runs", "count"),
        ("runner.busy_s", "s"),
        ("runner.busy_share", "ratio"),
        ("workloads.next_op_s", "s"),
        ("workloads.ops", "count"),
        ("core.run_s", "s"),
        ("core.engine_s", "s"),
        ("sim.events", "count"),
        ("sim.ns_per_event", "ns"),
        ("mem.l1_hits", "count"),
        ("mem.l1_misses", "count"),
        ("mem.l1_hit_ratio", "ratio"),
        ("mem.l2_hits", "count"),
        ("mem.dram_accesses", "count"),
        ("mem.forwards", "count"),
        ("mem.nacks", "count"),
        ("mem.invalidations", "count"),
        ("mem.messages", "count"),
        ("mem.l1_tx_evictions_hw", "count"),
        ("sig.true_conflicts", "count"),
        ("sig.false_conflicts", "count"),
        ("sig.false_share", "ratio"),
        ("tm.commits", "count"),
        ("tm.aborts", "count"),
        ("tm.stalls", "count"),
        ("tm.log_writes", "count"),
        ("tm.wasted_cycles", "cycles"),
        ("tm.serial_escalations", "count"),
        ("tm.useful_cycles", "cycles"),
        ("tm.stalled_cycles", "cycles"),
        ("tm.aborted_cycles", "cycles"),
        ("tm.logwalk_cycles", "cycles"),
        ("stm.work_s", "s"),
        ("stm.read_s", "s"),
        ("stm.rmw_s", "s"),
        ("stm.write_s", "s"),
        ("stm.begin_s", "s"),
        ("stm.commit_s", "s"),
        ("stm.failed_s", "s"),
        ("stm.backoff_s", "s"),
        ("stm.tm_overhead_share", "ratio"),
        ("stm.commits", "count"),
        ("stm.aborts", "count"),
        ("stm.aborts_locked", "count"),
        ("stm.aborts_stale", "count"),
        ("stm.serial_fallbacks", "count"),
        ("stm.tx_reads", "count"),
        ("stm.tx_writes", "count"),
        ("stm.max_retry_streak", "count"),
        ("trace.overhead_share", "ratio"),
    ];
    m.extend(rest.iter().map(|&(n, u)| (n.to_string(), u)));
    m
}

/// What one workload invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Runs attempted (simulation runs, STM runs, evaluation sweeps' runs).
    pub attempted: u64,
    /// Attempted runs that errored or failed an output check.
    pub failed: u64,
    /// Every failed check, as a message.
    pub problems: Vec<String>,
    /// Metric values by name; units come from the metric tables.
    pub metrics: BTreeMap<String, f64>,
    /// Extra facts for the result document (input sizes, digests).
    pub info: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Records one attempted run; `problems` empty means it passed.
    pub fn run(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// The median of `xs` (mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Repeats `once` until `budget` has elapsed since `start`, at least `min`
/// times. Every call's result is kept.
pub fn repeat_for<T>(
    start: Instant,
    budget: Duration,
    min: usize,
    mut once: impl FnMut() -> T,
) -> Vec<T> {
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        out.push(once());
    }
    out
}

/// Set-up repetitions per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 201;

/// Times `setup` [`SETUP_REPS`] times and returns the median in calibrated
/// seconds. What it builds is dropped outside the timed spans.
pub fn setup_seconds<T>(mut setup: impl FnMut() -> T) -> f64 {
    let mut clock = Clock::new(1);
    let (samples, batch) = clock.time(|| {
        (0..SETUP_REPS)
            .map(|_| {
                let start = Instant::now();
                let built = std::hint::black_box(setup());
                let took = start.elapsed();
                drop(built);
                took.as_secs_f64()
            })
            .collect::<Vec<f64>>()
    });
    median(&samples) * clock.scale(&batch)
}

/// The process's peak resident set so far, in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: ltse-benchmark --workload paper_eval|sim_bdb|stm_bdb --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, threads] = args.as_slice() {
        if flag == "--probe" {
            let threads = threads
                .parse()
                .unwrap_or_else(|_| usage("--probe needs a thread count"));
            println!("{}", host::probe_here(threads));
            return;
        }
    }
    let flag = |name: &str| -> String {
        let i = args
            .iter()
            .position(|a| a == name)
            .unwrap_or_else(|| usage(&format!("missing {name}")));
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{name} needs a value")))
    };
    let workload = flag("--workload");
    let seed: u64 = flag("--seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed must be an integer"));
    let seconds: u64 = flag("--seconds")
        .parse()
        .unwrap_or_else(|_| usage("--seconds must be an integer"));
    let trace = match flag("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let budget = Duration::from_secs(seconds.max(1));

    let outcome = match workload.as_str() {
        "paper_eval" => paper_eval::run(seed, budget, trace),
        "sim_bdb" => sim_bdb::run(seed, budget, trace),
        "stm_bdb" => stm_bdb::run(seed, budget, trace),
        other => usage(&format!("unknown workload `{other}`")),
    };

    let names: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                if value.is_finite() { value } else { 0.0 },
                json_str(unit)
            )
        })
        .collect();
    let info: Vec<String> = outcome
        .info
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let problems: Vec<String> = outcome.problems.iter().map(|p| json_str(p)).collect();
    println!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"problems\":[{}],\"info\":{{{}}},\"metrics\":{{{}}}}}",
        json_str(&workload),
        u8::from(trace),
        outcome.failed == 0 && outcome.problems.is_empty() && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        problems.join(","),
        info.join(","),
        metrics.join(","),
    );
}
