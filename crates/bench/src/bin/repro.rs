//! `repro` — regenerates every table and figure of the LogTM-SE paper.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--csv] [--jobs N] [--stats-json PATH]
//!       [--backend sim|stm] <subcommand>
//!
//! Subcommands:
//!   table1         System model parameters (paper Table 1)
//!   table2         Benchmarks and transaction footprints (Table 2)
//!   figure4        Speedup over locks, all signatures (Figure 4)
//!   table3         Signature size vs. conflict detection (Table 3)
//!   victimization  Transactional victimization counts (Result 4)
//!   table4         Virtualization-technique comparison (Table 4)
//!   sweep          Ablation A1: signature size sweep
//!   sticky         Ablation A2: sticky states on/off
//!   logfilter      Ablation A3: log-filter size
//!   virt           Ablation A4: context-switch overhead
//!   snooping       §7: directory vs. snooping coherence
//!   policies       Contention managers (future-work hook)
//!   multicmp       §7: multiple-CMP partitioning
//!   nesting        Partial aborts: flat vs. nested (§3.2)
//!   smt            16×2 SMT vs. 32×1 cores, sibling-conflict cost
//!   oltp           Open-loop OLTP driver: latency SLOs by skew/mix point
//!   policy         Adaptive contention management: every policy on
//!                  contended workloads, both backends
//!   all            Everything above except oltp and policy, in order
//! ```
//!
//! `--quick` runs at reduced scale (for smoke tests); `--csv` emits
//! machine-readable CSV for `table2`, `figure4`, and `table3`. Any other
//! `--flag`, a flag missing its value, or a worker count that is not a
//! positive integer (`--jobs 0`, `LTSE_JOBS=abc`) is a usage error
//! (exit 2).
//!
//! Every experiment fans its independent simulation runs out over a worker
//! pool. `--jobs N` (or the `LTSE_JOBS` environment variable, which
//! `--jobs` overrides) sets the worker count; the default is one worker per
//! available core. Results are
//! collected in submission order, so **stdout is byte-identical regardless
//! of worker count**. Wall-clock/throughput lines (inherently
//! nondeterministic) go to stderr; a run that panics or errors is reported
//! per label on stderr and flips the exit code to 1 without killing the
//! other runs of the sweep.
//!
//! `--stats-json PATH` additionally writes the machine-readable telemetry
//! document (`ltse.stats.v1`): one observability-enabled run per sweep
//! experiment with cause-attributed stall/abort/NACK breakdowns that
//! provably reconcile with the aggregate counters. The document is produced
//! sequentially outside the pool, so its bytes are identical across `--jobs`
//! values, and stdout is unchanged.
//!
//! `--backend stm` targets the real-concurrency TL2 STM backend instead of
//! the cycle-level simulator: it runs every Table-2 workload on both
//! engines and prints a side-by-side comparison (simulated cycles vs. real
//! wall clock), and `oltp` runs every skew/mix point on both engines with
//! a final-KV-state cross-check. Because the STM numbers are wall-clock
//! from real OS threads, those tables are *not* byte-deterministic and the
//! runs bypass the worker pool; only the `table2`, `oltp`,
//! and `all` subcommands are meaningful there. `--stats-json` on the STM
//! branch writes the STM telemetry document: per-cause abort counters
//! (locked/stale/serial-fallback) mapped onto the obs layer with a
//! `reconciled` block. The default (`--backend sim`, or no flag) leaves
//! every other invocation byte-for-byte unchanged.
//!
//! `oltp` (simulator by default) reports open-loop commit-latency SLOs
//! (p50/p99/p999, simulated cycles) and goodput for three Zipfian
//! skew/read-mix points. It is deliberately *not* part of `all`, keeping
//! that stdout byte-identical with earlier releases; its sim output is
//! itself fully deterministic.
//!
//! `policy` runs the adaptive contention-management sweep: every
//! contention policy (including `Adaptive`) over contended workload
//! points — Mp3d plus two OLTP skew/mix points — on **both** backends in
//! one table. Its STM rows are wall-clock and therefore not
//! byte-deterministic, so like `oltp` it stays out of `all`.

use logtm_se::{MemConfig, SystemBuilder};
use ltse_bench::experiments::ExperimentScale;
use ltse_bench::runner::{self, SweepError};
use ltse_bench::render;
use ltse_bench::*;
use ltse_workloads::BackendKind;

fn table1_text() -> String {
    let b = SystemBuilder::paper_default();
    let m: MemConfig = *b.mem_config_view();
    let lat = m.latency;
    format!(
        "Table 1: system model parameters\n\
         Processor cores       {} cores, {}-way SMT ({} thread contexts)\n\
         L1 cache              {} sets x {} ways, 64-byte blocks, {} cycle hit\n\
         L2 cache              {} banks x {} sets x {} ways, 64-byte blocks, {} cycle access\n\
         Memory                {} cycle latency\n\
         L2 directory          full bit-vector sharer list + exclusive pointer, {} cycle latency\n\
         Interconnect          {}x{} grid, {}-cycle links\n\
         Sticky states         {}\n",
        m.n_cores,
        m.smt_per_core,
        m.n_ctxs(),
        m.l1.sets,
        m.l1.ways,
        lat.l1_hit.as_u64(),
        m.n_banks,
        m.l2_bank.sets,
        m.l2_bank.ways,
        lat.l2_access.as_u64(),
        lat.dram.as_u64(),
        lat.directory.as_u64(),
        m.grid_width,
        m.grid_height,
        lat.link.as_u64(),
        m.sticky_enabled,
    )
}

/// Prints a rendered table to stdout, or the sweep's per-run failures to
/// stderr. Returns whether the experiment succeeded.
fn emit<T>(result: Result<Vec<T>, SweepError>, render: impl FnOnce(&[T]) -> String) -> bool {
    match result {
        Ok(rows) => {
            print!("{}", render(&rows));
            true
        }
        Err(e) => {
            eprint!("{e}");
            false
        }
    }
}

/// Drains the runner's timing registry to stderr (timings are wall-clock
/// and therefore excluded from the deterministic stdout).
fn report_timings() {
    for timing in runner::take_timings() {
        eprintln!("[timing] {timing}");
    }
}

const USAGE: &str =
    "usage: repro [--quick] [--csv] [--jobs N] [--stats-json PATH] [--backend sim|stm] <subcommand>";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The parsed command line.
struct Cli {
    quick: bool,
    csv: bool,
    jobs: Option<usize>,
    stats_json: Option<String>,
    backend: BackendKind,
    cmd: String,
}

/// Parses the arguments in one pass. Valued flags accept both `--flag V`
/// and `--flag=V`; anything unrecognised is a usage error rather than
/// silently ignored (a mistyped `--quick` must not run at full scale).
fn parse_args(args: &[String]) -> Cli {
    let mut cli = Cli {
        quick: false,
        csv: false,
        jobs: None,
        stats_json: None,
        backend: BackendKind::Sim,
        cmd: String::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--csv" => cli.csv = true,
            a if a.starts_with("--") => {
                let (flag, inline) = match a.split_once('=') {
                    Some((f, v)) => (f, Some(v.to_string())),
                    None => (a, None),
                };
                let value = || {
                    inline
                        .or_else(|| it.next().cloned())
                        .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")))
                };
                match flag {
                    "--jobs" => cli.jobs = Some(parse_jobs("--jobs", &value())),
                    "--stats-json" => cli.stats_json = Some(value()),
                    "--backend" => {
                        cli.backend = value()
                            .parse()
                            .unwrap_or_else(|e: String| usage_error(&format!("--backend: {e}")))
                    }
                    _ => usage_error(&format!("unknown flag `{a}`")),
                }
            }
            a if cli.cmd.is_empty() => cli.cmd = a.to_string(),
            a => usage_error(&format!("unexpected argument `{a}`")),
        }
    }
    if cli.cmd.is_empty() {
        cli.cmd = "all".to_string();
    }
    // `--jobs` overrides the environment; a malformed `LTSE_JOBS` is the
    // same usage error as a malformed `--jobs`, not a silent default.
    if cli.jobs.is_none() {
        if let Some(v) = std::env::var_os("LTSE_JOBS") {
            cli.jobs = Some(parse_jobs("LTSE_JOBS", &v.to_string_lossy()));
        }
    }
    cli
}

/// A worker count from `source` (`--jobs` or `LTSE_JOBS`): a positive
/// integer, or a usage error.
fn parse_jobs(source: &str, v: &str) -> usize {
    v.trim()
        .parse()
        .ok()
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| usage_error(&format!("{source} requires a positive integer, got `{v}`")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        quick,
        csv,
        jobs,
        stats_json,
        backend,
        cmd,
    } = parse_args(&args);
    runner::set_jobs(jobs);
    let scale = if quick {
        ExperimentScale::quick()
    } else {
        ExperimentScale::full()
    };
    let cmd = cmd.as_str();

    // The STM backend has exactly one table: the sim-vs-stm differential
    // comparison over the Table-2 workloads. It runs sequentially (real
    // wall clock — no pool) and exits here so the simulator-only stats-json
    // export below never engages.
    if backend == BackendKind::Stm {
        let mut ok = match cmd {
            "table2" | "all" => emit(stm_compare(&scale), |r| render::render_stm(r)),
            "oltp" => emit(oltp_compare(&scale), |r| render::render_oltp(r)),
            other => {
                eprintln!("subcommand `{other}` is simulator-only; --backend stm supports: table2 oltp all");
                std::process::exit(2);
            }
        };
        if let Some(path) = &stats_json {
            match ltse_bench::stats_json::stats_json_stm(&scale) {
                Ok(doc) => {
                    if let Err(e) = std::fs::write(path, &doc) {
                        eprintln!("error: cannot write stats-json to `{path}`: {e}");
                        ok = false;
                    } else {
                        eprintln!("[stats-json] wrote {} bytes to {path}", doc.len());
                    }
                }
                Err(e) => {
                    eprintln!("error: stm stats-json run failed: {e}");
                    ok = false;
                }
            }
        }
        report_timings();
        std::process::exit(if ok { 0 } else { 1 });
    }

    let run_one = |name: &str| -> bool {
        let ok = match name {
            "table1" => {
                print!("{}", table1_text());
                true
            }
            "table2" if csv => emit(table2(&scale), |r| render::csv_table2(r)),
            "table2" => emit(table2(&scale), |r| render::render_table2(r)),
            "figure4" if csv => emit(figure4(&scale), |r| render::csv_figure4(r)),
            "figure4" => emit(figure4(&scale), |r| render::render_figure4(r)),
            "table3" if csv => emit(table3(&scale), |r| render::csv_table3(r)),
            "table3" => emit(table3(&scale), |r| render::render_table3(r)),
            "victimization" => {
                emit(victimization(&scale), |r| render::render_victimization(r))
            }
            "table4" => {
                print!("{}", logtm_se::substrates::tm::virt_compare::render_table4());
                true
            }
            "sweep" => emit(signature_sweep(&scale), |r| render::render_sweep(r)),
            "sticky" => emit(sticky_ablation(&scale), |r| render::render_sticky(r)),
            "logfilter" => {
                emit(log_filter_ablation(&scale), |r| render::render_log_filter(r))
            }
            "virt" => emit(virtualization_overhead(&scale), |r| render::render_virt(r)),
            "snooping" => emit(snooping_comparison(&scale), |r| render::render_snooping(r)),
            "policies" => emit(contention_policies(&scale), |r| render::render_policies(r)),
            "multicmp" => emit(multi_cmp_comparison(&scale), |r| render::render_multi_cmp(r)),
            "nesting" => emit(nesting_ablation(&scale), |r| render::render_nesting(r)),
            "smt" => emit(smt_comparison(&scale), |r| render::render_smt(r)),
            "oltp" => emit(
                oltp_experiment(&scale, BackendKind::Sim),
                |r| render::render_oltp(r),
            ),
            "policy" => emit(policy_sweep(&scale), |r| render::render_policy_sweep(r)),
            other => {
                eprintln!("unknown subcommand: {other}");
                eprintln!("known: table1 table2 figure4 table3 victimization table4 sweep sticky logfilter virt snooping policies multicmp nesting smt oltp policy all");
                std::process::exit(2);
            }
        };
        report_timings();
        ok
    };

    let mut all_ok = true;
    if cmd == "all" {
        for name in [
            "table1",
            "table2",
            "figure4",
            "table3",
            "victimization",
            "table4",
            "sweep",
            "sticky",
            "logfilter",
            "virt",
            "snooping",
            "policies",
            "multicmp",
            "nesting",
            "smt",
        ] {
            all_ok &= run_one(name);
            println!();
        }
    } else {
        all_ok = run_one(cmd);
    }
    // Telemetry export: one observability-enabled run per experiment,
    // executed sequentially outside the pool, so the emitted bytes are
    // identical whatever `--jobs` says. Written to the given file; stdout
    // stays byte-identical to a flag-less invocation.
    if let Some(path) = &stats_json {
        match ltse_bench::stats_json::stats_json(&scale) {
            Ok(doc) => {
                if let Err(e) = std::fs::write(path, &doc) {
                    eprintln!("error: cannot write stats-json to `{path}`: {e}");
                    all_ok = false;
                } else {
                    eprintln!("[stats-json] wrote {} bytes to {path}", doc.len());
                }
            }
            Err(e) => {
                eprintln!("error: stats-json run failed: {e}");
                all_ok = false;
            }
        }
    }
    if !all_ok {
        std::process::exit(1);
    }
}
