//! `repro --stats-json` — machine-readable telemetry export.
//!
//! One observability-enabled run per experiment of the paper's evaluation,
//! serialized as a versioned JSON document ([`STATS_SCHEMA`]). Each row
//! carries the aggregate `TmStats` counters *and* the obs layer's
//! cause-attributed breakdowns side by side, plus a `reconciled` block
//! asserting that the per-cause counts sum back to the aggregates — the
//! contract downstream tooling can rely on.
//!
//! Determinism is load-bearing: the runs here execute sequentially, outside
//! the worker pool, and every map in the document iterates in sorted order,
//! so the emitted bytes are identical whatever `--jobs` says.

use logtm_se::{
    ContentionPolicy, CoherenceKind, Cycle, ObsReport, RunReport, SignatureKind, SystemBuilder,
    TmBackend,
};
use ltse_sim::config::seed_sequence;
use ltse_stm::StmBuilder;
use ltse_workloads::{run_oltp, BackendKind, Benchmark, OltpOutcome, SyncMode};

use crate::experiments::{oltp_config, ExperimentScale, OLTP_POINTS};

/// Schema tag of the emitted document; bump on any breaking shape change.
pub const STATS_SCHEMA: &str = "ltse.stats.v1";

/// One representative observability run per experiment: the experiment
/// name, the benchmark it runs, and the builder knobs that distinguish it.
struct ObsCase {
    experiment: &'static str,
    benchmark: Benchmark,
    signature: SignatureKind,
    configure: fn(SystemBuilder) -> SystemBuilder,
}

fn ident(b: SystemBuilder) -> SystemBuilder {
    b
}

/// The 13 sweep experiments of the `repro` binary (everything except the
/// static `table1`/`table4` texts), each reduced to one representative
/// configuration. Kept in `repro all` output order.
fn cases() -> Vec<ObsCase> {
    vec![
        ObsCase {
            experiment: "table2",
            benchmark: Benchmark::BerkeleyDb,
            signature: SignatureKind::Perfect,
            configure: ident,
        },
        ObsCase {
            experiment: "figure4",
            benchmark: Benchmark::Cholesky,
            signature: SignatureKind::paper_bs_2kb(),
            configure: ident,
        },
        ObsCase {
            experiment: "table3",
            benchmark: Benchmark::Radiosity,
            signature: SignatureKind::paper_bs_64(),
            configure: ident,
        },
        ObsCase {
            experiment: "victimization",
            benchmark: Benchmark::Raytrace,
            signature: SignatureKind::paper_bs_2kb(),
            configure: ident,
        },
        ObsCase {
            experiment: "sweep",
            benchmark: Benchmark::Mp3d,
            signature: SignatureKind::paper_bs_64(),
            configure: ident,
        },
        ObsCase {
            experiment: "sticky",
            benchmark: Benchmark::BerkeleyDb,
            signature: SignatureKind::paper_bs_2kb(),
            configure: |b| b.sticky(false),
        },
        ObsCase {
            experiment: "logfilter",
            benchmark: Benchmark::Cholesky,
            signature: SignatureKind::paper_bs_2kb(),
            configure: |b| b.log_filter_entries(0),
        },
        ObsCase {
            experiment: "virt",
            benchmark: Benchmark::Radiosity,
            signature: SignatureKind::paper_bs_2kb(),
            configure: |b| b.preemption(Cycle(5_000), false),
        },
        ObsCase {
            experiment: "snooping",
            benchmark: Benchmark::Raytrace,
            signature: SignatureKind::paper_bs_2kb(),
            configure: |b| b.coherence(CoherenceKind::SnoopingMesi),
        },
        ObsCase {
            experiment: "policies",
            benchmark: Benchmark::Mp3d,
            signature: SignatureKind::paper_bs_2kb(),
            configure: |b| b.contention(ContentionPolicy::SizeMatters),
        },
        ObsCase {
            experiment: "multicmp",
            benchmark: Benchmark::BerkeleyDb,
            signature: SignatureKind::paper_bs_2kb(),
            configure: |b| b.chips(2),
        },
        ObsCase {
            experiment: "nesting",
            benchmark: Benchmark::Cholesky,
            signature: SignatureKind::paper_bs_2kb(),
            configure: ident,
        },
        ObsCase {
            experiment: "smt",
            benchmark: Benchmark::Radiosity,
            signature: SignatureKind::paper_bs_2kb(),
            configure: ident,
        },
    ]
}

fn run_case(case: &ObsCase, scale: &ExperimentScale, seed: u64) -> Result<RunReport, String> {
    let builder = SystemBuilder::paper_default()
        .signature(case.signature)
        .seed(seed)
        .warmup_units(scale.warmup_units)
        .observe(true);
    let mut system = (case.configure)(builder).build();
    for program in case
        .benchmark
        .programs(SyncMode::Tm, scale.threads, scale.units_per_thread)
    {
        system.add_thread(program);
    }
    system
        .run()
        .map_err(|e| format!("{}/{}: {e:?}", case.experiment, case.benchmark))
}

// ---------------------------------------------------------------------
// Hand-rolled JSON (the workspace deliberately has no serde dependency).
// All keys and enum-derived strings are quote-free ASCII, so plain
// formatting is safe.
// ---------------------------------------------------------------------

fn push_kv(out: &mut String, key: &str, value: u64, trailing: bool) {
    out.push_str(&format!("\"{key}\":{value}"));
    if trailing {
        out.push(',');
    }
}

fn obs_json(o: &ObsReport) -> String {
    let mut s = String::new();
    s.push('{');
    s.push_str("\"stalls\":{");
    push_kv(&mut s, "coherence_nack", o.stalls_coherence, true);
    push_kv(&mut s, "sibling_nack", o.stalls_sibling, true);
    push_kv(&mut s, "summary_conflict", o.stalls_summary, false);
    s.push_str("},\"aborts\":{");
    push_kv(&mut s, "conflict_resolution", o.aborts_conflict, true);
    push_kv(&mut s, "summary_stall_limit", o.aborts_summary_limit, true);
    push_kv(&mut s, "sticky_overflow", o.aborts_sticky_overflow, true);
    push_kv(&mut s, "parked_by_summary_handler", o.aborts_parked, false);
    s.push_str("},\"nacks\":{");
    push_kv(&mut s, "in_cache", o.nacks_in_cache, true);
    push_kv(&mut s, "sticky", o.nacks_sticky, true);
    push_kv(&mut s, "judged_true", o.nacks_judged_true, true);
    push_kv(&mut s, "judged_false", o.nacks_judged_false, true);
    push_kv(&mut s, "unjudged", o.metrics.get("nacks_unjudged"), false);
    s.push_str("},\"cycles\":{");
    let c = o.cycles_total();
    push_kv(&mut s, "useful", c.useful, true);
    push_kv(&mut s, "stalled", c.stalled, true);
    push_kv(&mut s, "aborted", c.aborted, true);
    push_kv(&mut s, "log_walk", c.log_walk, false);
    s.push_str("},\"spans\":{");
    push_kv(&mut s, "committed", o.spans_committed, true);
    push_kv(&mut s, "aborted", o.spans_aborted, true);
    push_kv(&mut s, "dropped", o.spans_dropped, true);
    push_kv(&mut s, "retained", o.spans.len() as u64, false);
    s.push_str("},\"metrics\":{");
    let mut first = true;
    for (name, value) in o.metrics.iter() {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!("\"{name}\":{value}"));
    }
    s.push_str("},\"nack_pairs\":[");
    for (i, &(nacker, requester, count)) in o.nack_pairs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("[{nacker},{requester},{count}]"));
    }
    s.push_str("]}");
    s
}

fn row_json(case: &ObsCase, seed: u64, r: &RunReport) -> String {
    let o = r.obs.as_ref().expect("stats-json runs enable observe");
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"experiment\":\"{}\",\"benchmark\":\"{}\",\"signature\":\"{}\",\"seed\":{seed},",
        case.experiment, case.benchmark, case.signature
    ));
    s.push_str(&format!(
        "\"cycles\":{},\"measured_cycles\":{},",
        r.cycles.as_u64(),
        r.measured_cycles.as_u64()
    ));
    s.push_str("\"tm\":{");
    push_kv(&mut s, "commits", r.tm.commits, true);
    push_kv(&mut s, "aborts", r.tm.aborts, true);
    push_kv(&mut s, "partial_aborts", r.tm.partial_aborts, true);
    push_kv(&mut s, "stalls", r.tm.stalls, true);
    push_kv(&mut s, "sibling_stalls", r.tm.sibling_stalls, true);
    push_kv(&mut s, "wasted_cycles", r.tm.wasted_cycles, true);
    push_kv(&mut s, "work_units", r.tm.work_units, false);
    s.push_str("},\"obs\":");
    s.push_str(&obs_json(o));
    let recon = [
        ("stalls", o.stall_total() == r.tm.stalls),
        ("sibling_stalls", o.stalls_sibling == r.tm.sibling_stalls),
        ("aborts", o.abort_total() == r.tm.aborts),
        (
            "partial_aborts",
            o.metrics.get("partial_aborts") == r.tm.partial_aborts,
        ),
        ("spans", o.spans_committed == r.tm.commits),
    ];
    s.push_str(",\"reconciled\":{");
    for (i, (name, ok)) in recon.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{name}\":{ok}"));
    }
    s.push_str("}}");
    s
}

/// One `oltp_slo` row: commit-latency percentiles and goodput for a
/// skew/mix point on the simulator. Every value is cycle-denominated or an
/// integer count, so the section is byte-deterministic like the rest of
/// the document.
fn oltp_slo_row_json(
    point: &str,
    theta_permille: u32,
    read_pct: u8,
    out: &OltpOutcome,
) -> String {
    let cycles = out.report.sim_cycles.unwrap_or(0);
    let goodput = if cycles > 0 {
        out.committed_txs as f64 * 1e6 / cycles as f64
    } else {
        0.0
    };
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"point\":\"{point}\",\"backend\":\"sim\",\"theta_permille\":{theta_permille},\"read_pct\":{read_pct},"
    ));
    push_kv(&mut s, "committed", out.committed_txs, true);
    push_kv(&mut s, "aborts", out.report.aborts, true);
    push_kv(&mut s, "cycles", cycles, true);
    s.push_str("\"latency_cycles\":{");
    push_kv(&mut s, "p50", out.latency_permille(500).unwrap_or(0), true);
    push_kv(&mut s, "p99", out.latency_permille(990).unwrap_or(0), true);
    push_kv(&mut s, "p999", out.latency_permille(999).unwrap_or(0), false);
    s.push_str(&format!(
        "}},\"goodput_tx_per_mcycle\":{goodput:.3},\"kv_fingerprint\":\"{:016x}\"}}",
        out.kv_fingerprint
    ));
    s
}

/// Runs one observability-enabled simulation per experiment and renders the
/// full document, including the `oltp_slo` latency/goodput rows. Errors
/// name the failing case.
pub fn stats_json(scale: &ExperimentScale) -> Result<String, String> {
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n\"schema\":\"{STATS_SCHEMA}\",\n\"threads\":{},\n\"units_per_thread\":{},\n\"warmup_units\":{},\n\"experiments\":[\n",
        scale.threads, scale.units_per_thread, scale.warmup_units
    ));
    let cases = cases();
    for (i, case) in cases.iter().enumerate() {
        let report = run_case(case, scale, seed)?;
        out.push_str(&row_json(case, seed, &report));
        if i + 1 < cases.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\n\"oltp_slo\":[\n");
    for (i, (point, theta_permille, read_pct)) in OLTP_POINTS.into_iter().enumerate() {
        let cfg = oltp_config(scale, theta_permille, read_pct);
        let o = run_oltp(BackendKind::Sim, &cfg, false).map_err(|e| format!("oltp/{point}: {e}"))?;
        out.push_str(&oltp_slo_row_json(point, theta_permille, read_pct, &o));
        if i + 1 < OLTP_POINTS.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n}\n");
    Ok(out)
}

/// The `--backend stm --stats-json` document: per-cause STM abort counters
/// mapped onto the obs layer, with a `reconciled` block proving the causes
/// sum back to the aggregates. Wall-clock execution on real threads means
/// the *counter values* vary run to run; the reconciliation invariants must
/// hold on every run.
pub fn stats_json_stm(scale: &ExperimentScale) -> Result<String, String> {
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n\"schema\":\"{STATS_SCHEMA}\",\n\"backend\":\"stm\",\n\"threads\":{},\n\"units_per_thread\":{},\n\"experiments\":[\n",
        scale.threads, scale.units_per_thread
    ));
    let benchmarks = [Benchmark::BerkeleyDb, Benchmark::Raytrace, Benchmark::Mp3d];
    for (i, benchmark) in benchmarks.into_iter().enumerate() {
        let mut system = StmBuilder::new().seed(seed).build();
        for program in benchmark.programs(SyncMode::Tm, scale.threads, scale.units_per_thread) {
            system.add_thread(program);
        }
        TmBackend::run_backend(&mut system).map_err(|e| format!("stm/{benchmark}: {e}"))?;
        let r = *system.report().expect("finished run has a report");
        let obs = system.obs_report().expect("finished run has an obs view");
        let mut s = String::new();
        s.push_str(&format!("{{\"benchmark\":\"{benchmark}\",\"stm\":{{"));
        push_kv(&mut s, "commits", r.commits, true);
        push_kv(&mut s, "aborts", r.aborts, true);
        push_kv(&mut s, "aborts_locked", r.aborts_locked, true);
        push_kv(&mut s, "aborts_stale", r.aborts_stale, true);
        push_kv(&mut s, "serial_commits", r.serial_commits, true);
        push_kv(&mut s, "serial_fallbacks", r.serial_fallbacks, true);
        push_kv(&mut s, "mini_commits", r.mini_commits, true);
        push_kv(&mut s, "mini_aborts", r.mini_aborts, true);
        push_kv(&mut s, "work_units", r.work_units, false);
        s.push_str("},\"obs\":");
        s.push_str(&obs_json(&obs));
        let recon = [
            ("aborts", obs.abort_total() == r.aborts),
            ("abort_causes", r.aborts_locked + r.aborts_stale == r.aborts),
            ("spans", obs.spans_committed == r.commits),
            (
                "cause_metrics",
                obs.metrics.get("stm_aborts_locked") == r.aborts_locked
                    && obs.metrics.get("stm_aborts_stale") == r.aborts_stale
                    && obs.metrics.get("stm_serial_fallbacks") == r.serial_fallbacks,
            ),
        ];
        s.push_str(",\"reconciled\":{");
        for (j, (name, ok)) in recon.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{name}\":{ok}"));
        }
        s.push_str("}}");
        out.push_str(&s);
        if i + 1 < benchmarks.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            threads: 4,
            units_per_thread: 2,
            seeds: 1,
            base_seed: 0xC0FFEE,
            warmup_units: 2,
        }
    }

    #[test]
    fn document_is_schema_tagged_and_reconciled() {
        let doc = stats_json(&tiny_scale()).expect("all cases run");
        assert!(doc.contains(&format!("\"schema\":\"{STATS_SCHEMA}\"")));
        for case in cases() {
            assert!(
                doc.contains(&format!("\"experiment\":\"{}\"", case.experiment)),
                "{} row missing",
                case.experiment
            );
        }
        assert!(
            !doc.contains("false}") && !doc.contains("false,"),
            "some reconciliation check failed:\n{doc}"
        );
    }

    #[test]
    fn document_is_deterministic() {
        let scale = tiny_scale();
        assert_eq!(stats_json(&scale), stats_json(&scale));
    }

    #[test]
    fn covers_all_13_sweep_experiments() {
        assert_eq!(cases().len(), 13);
    }

    #[test]
    fn document_has_oltp_slo_rows() {
        let doc = stats_json(&tiny_scale()).expect("all cases run");
        assert!(doc.contains("\"oltp_slo\":["));
        for (point, _, _) in OLTP_POINTS {
            assert!(
                doc.contains(&format!("\"point\":\"{point}\"")),
                "{point} SLO row missing"
            );
        }
        assert!(doc.contains("\"p999\":"), "p999 column missing");
        assert!(doc.contains("\"goodput_tx_per_mcycle\":"));
    }

    #[test]
    fn stm_document_reconciles_per_cause_aborts() {
        let doc = stats_json_stm(&tiny_scale()).expect("stm cases run");
        assert!(doc.contains(&format!("\"schema\":\"{STATS_SCHEMA}\"")));
        assert!(doc.contains("\"backend\":\"stm\""));
        assert!(doc.contains("\"aborts_locked\":"));
        assert!(doc.contains("\"stm_serial_fallbacks\":"));
        assert!(
            !doc.contains("false}") && !doc.contains("false,"),
            "an stm reconciliation check failed:\n{doc}"
        );
    }
}
