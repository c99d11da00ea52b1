//! The experiment implementations.
//!
//! Every experiment builds its full list of independent simulation runs as
//! labelled [`RunSpec`]s and fans them out through [`crate::runner`] — the
//! parallel, deterministic, panic-isolated pool. Results come back in
//! submission order, so every table below is byte-identical regardless of
//! worker count; a diverging configuration surfaces as a labelled entry in
//! the returned [`SweepError`] instead of killing the sweep.

use logtm_se::{ContentionPolicy, CoherenceKind, Cycle, SignatureKind, SystemBuilder};
use ltse_sim::config::seed_sequence;
use ltse_sim::parallel::RunSpec;
use ltse_sim::stats::SampleSet;
use ltse_workloads::{
    run_benchmark, run_oltp, run_oltp_with, run_on_backend, BackendKind, Benchmark, OltpConfig,
    PolicyTune, RunParams, SyncMode,
};

use crate::runner::{sweep, sweep_ok, FailedRun, SweepError};

/// How big each experiment runs: the trade-off between statistical quality
/// and wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Worker threads (the paper's machine has 32 contexts).
    pub threads: u32,
    /// Units of work per thread.
    pub units_per_thread: u64,
    /// Seeds per datapoint (95 % CIs need several; the paper perturbs each
    /// simulation pseudo-randomly, §6.1).
    pub seeds: usize,
    /// Base seed for the seed sequence.
    pub base_seed: u64,
    /// Total units of work run (and discarded) before measurement starts —
    /// the paper's warmed "representative execution samples" (§6.2).
    pub warmup_units: u64,
}

impl ExperimentScale {
    /// Full scale for the `repro` binary (minutes of wall clock).
    pub fn full() -> Self {
        ExperimentScale {
            threads: 32,
            units_per_thread: 24,
            seeds: 5,
            base_seed: 0xC0FFEE,
            warmup_units: 96,
        }
    }

    /// Reduced scale for timing benches and smoke tests (seconds).
    pub fn quick() -> Self {
        ExperimentScale {
            threads: 8,
            units_per_thread: 6,
            seeds: 3,
            base_seed: 0xC0FFEE,
            warmup_units: 8,
        }
    }
}

fn params(
    scale: &ExperimentScale,
    benchmark: Benchmark,
    mode: SyncMode,
    signature: SignatureKind,
    seed: u64,
) -> RunParams {
    RunParams {
        benchmark,
        mode,
        signature,
        threads: scale.threads,
        units_per_thread: scale.units_per_thread,
        seed,
        small_machine: false,
        sticky: true,
        log_filter_entries: 16,
        coherence: CoherenceKind::DirectoryMesi,
        warmup_units: 0,
    }
}

// ---------------------------------------------------------------------
// Contention-manager comparison (the paper's future-work hook)
// ---------------------------------------------------------------------

/// One datapoint of the contention-policy comparison.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The policy.
    pub policy: logtm_se::ContentionPolicy,
    /// Cycles to complete the fixed work.
    pub cycles: Cycle,
    /// Aborts.
    pub aborts: u64,
    /// Stalls.
    pub stalls: u64,
    /// Cycles inside transactions that ultimately aborted.
    pub wasted_cycles: u64,
    /// Whether the run finished its fixed work (the naive
    /// requester-aborts manager can livelock under heavy contention —
    /// exactly why LogTM's default stalls).
    pub completed: bool,
}

/// Compares the three contention managers on the two most contended
/// benchmarks. Hitting the cycle watchdog is a *result* here (the
/// livelock-prone manager demonstrably livelocking), not a failure, so
/// these runs handle the simulator error internally.
pub fn contention_policies(scale: &ExperimentScale) -> Result<Vec<PolicyRow>, SweepError> {
    use logtm_se::ContentionPolicy;
    let scale = *scale;
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let mut specs = Vec::new();
    for benchmark in [Benchmark::BerkeleyDb, Benchmark::Raytrace] {
        for policy in [
            ContentionPolicy::RequesterStalls,
            ContentionPolicy::RequesterAborts,
            ContentionPolicy::SizeMatters,
        ] {
            specs.push(RunSpec::new(
                format!("contention/{benchmark}/{policy:?}"),
                move || {
                    let mut system = SystemBuilder::paper_default()
                        .signature(SignatureKind::paper_bs_2kb())
                        .contention(policy)
                        .seed(seed)
                        .limits(ltse_sim::config::SimLimits {
                            max_cycles: Cycle(10_000_000),
                            max_events: 1_000_000_000,
                        })
                        .build();
                    for program in
                        benchmark.programs(SyncMode::Tm, scale.threads, scale.units_per_thread)
                    {
                        system.add_thread(program);
                    }
                    let completed = system.run().is_ok();
                    let r = system.report();
                    PolicyRow {
                        benchmark,
                        policy,
                        cycles: r.cycles,
                        aborts: r.tm.aborts,
                        stalls: r.tm.stalls,
                        wasted_cycles: r.tm.wasted_cycles,
                        completed,
                    }
                },
            ));
        }
    }
    sweep_ok("contention_policies", specs)
}

// ---------------------------------------------------------------------
// SMT: 32 contexts as 16×2 SMT vs. 32×1 single-threaded cores
// ---------------------------------------------------------------------

/// One datapoint of the SMT comparison.
#[derive(Debug, Clone)]
pub struct SmtRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// `"16x2 SMT"` or `"32x1"`.
    pub machine: &'static str,
    /// Cycles to complete the fixed work.
    pub cycles: Cycle,
    /// Stalls caused by the SMT sibling sharing the L1 (zero without SMT).
    pub sibling_stalls: u64,
    /// All stalls.
    pub stalls: u64,
}

/// Compares 32 threads on the paper's 16-core × 2-SMT machine against the
/// same threads on 32 single-threaded cores. LogTM-SE's pitch is that SMT
/// costs only replicated signatures (cheap); the residual difference is L1
/// sharing and same-core conflict checks — both measured here.
pub fn smt_comparison(scale: &ExperimentScale) -> Result<Vec<SmtRow>, SweepError> {
    let scale = *scale;
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let mut specs = Vec::new();
    for benchmark in [Benchmark::Mp3d, Benchmark::BerkeleyDb] {
        for (machine, n_cores, smt, grid) in
            [("16x2 SMT", 16u16, 2u8, (4usize, 4usize)), ("32x1", 32, 1, (6, 6))]
        {
            specs.push(RunSpec::new(format!("smt/{benchmark}/{machine}"), move || {
                let mut mem = logtm_se::MemConfig::paper_cmp();
                mem.n_cores = n_cores;
                mem.smt_per_core = smt;
                mem.grid_width = grid.0;
                mem.grid_height = grid.1;
                let mut system = SystemBuilder::paper_default()
                    .mem_config(mem)
                    .signature(SignatureKind::paper_bs_2kb())
                    .seed(seed)
                    .build();
                for program in benchmark.programs(SyncMode::Tm, 32, scale.units_per_thread) {
                    system.add_thread(program);
                }
                let r = system.run()?;
                Ok::<_, logtm_se::RunError>(SmtRow {
                    benchmark,
                    machine,
                    cycles: r.cycles,
                    sibling_stalls: r.tm.sibling_stalls,
                    stalls: r.tm.stalls,
                })
            }));
        }
    }
    sweep("smt_comparison", specs)
}

// ---------------------------------------------------------------------
// Nesting ablation: what partial aborts buy (§3.2)
// ---------------------------------------------------------------------

/// One datapoint of the nesting ablation.
#[derive(Debug, Clone)]
pub struct NestingRow {
    /// `"flat"` or `"nested"`.
    pub shape: &'static str,
    /// Cycles to complete the fixed work.
    pub cycles: Cycle,
    /// Outermost aborts.
    pub aborts: u64,
    /// Partial (inner-frame) aborts.
    pub partial_aborts: u64,
    /// Cycles invested in transactions that ultimately aborted.
    pub wasted_cycles: u64,
}

/// A synthetic producer whose expensive private phase precedes a contended
/// shared phase. Flat transactions lose the private work on every conflict;
/// closed nesting confines aborts to the cheap inner frame (§3.2's
/// motivation for partial aborts).
pub fn nesting_ablation(scale: &ExperimentScale) -> Result<Vec<NestingRow>, SweepError> {
    use logtm_se::{Op, ProgCtx, ThreadProgram, WordAddr};

    struct Producer {
        nested: bool,
        me: u64,
        remaining: u64,
        step: u8,
    }
    impl ThreadProgram for Producer {
        fn next_op(&mut self, _t: &mut ProgCtx) -> Op {
            let hot = |i: u64| WordAddr((i % 2) * 8);
            match self.step {
                0 => {
                    if self.remaining == 0 {
                        return Op::Done;
                    }
                    self.step = 1;
                    Op::TxBegin
                }
                // Expensive private phase: read + write a private slab.
                1 => {
                    self.step = 2;
                    Op::FetchAdd(WordAddr(4096 + self.me * 64), 1)
                }
                2 => {
                    self.step = 3;
                    Op::Work(2_500)
                }
                3 => {
                    self.step = 4;
                    if self.nested {
                        Op::TxBegin // inner frame around the contended phase
                    } else {
                        Op::Work(1)
                    }
                }
                // Contended phase: opposite-order hot pair ⇒ deadlocks.
                4 => {
                    self.step = 5;
                    Op::FetchAdd(hot(self.me), 1)
                }
                5 => {
                    self.step = 6;
                    Op::Work(80)
                }
                6 => {
                    self.step = 7;
                    Op::FetchAdd(hot(self.me + 1), 1)
                }
                7 => {
                    self.step = 8;
                    if self.nested {
                        Op::TxCommit // inner
                    } else {
                        Op::Work(1)
                    }
                }
                8 => {
                    self.step = 9;
                    Op::TxCommit // outer
                }
                _ => {
                    self.step = 0;
                    self.remaining -= 1;
                    Op::WorkUnitDone
                }
            }
        }
        fn on_tx_abort(&mut self, _t: &mut ProgCtx) {
            self.step = 0;
        }
        fn on_partial_abort(&mut self, _t: &mut ProgCtx, remaining_depth: usize) -> bool {
            debug_assert_eq!(remaining_depth, 1);
            self.step = 3; // retry from the inner begin; private work kept
            true
        }
    }

    let scale = *scale;
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let specs = [("flat", false), ("nested", true)]
        .into_iter()
        .map(|(shape, nested)| {
            RunSpec::new(format!("nesting/{shape}"), move || {
                let mut system = SystemBuilder::paper_default()
                    .signature(SignatureKind::paper_bs_2kb())
                    .seed(seed)
                    .build();
                for t in 0..scale.threads.min(16) as u64 {
                    system.add_thread(Box::new(Producer {
                        nested,
                        me: t,
                        remaining: scale.units_per_thread,
                        step: 0,
                    }));
                }
                let r = system.run()?;
                Ok::<_, logtm_se::RunError>(NestingRow {
                    shape,
                    cycles: r.cycles,
                    aborts: r.tm.aborts,
                    partial_aborts: r.tm.partial_aborts,
                    wasted_cycles: r.tm.wasted_cycles,
                })
            })
        })
        .collect();
    sweep("nesting_ablation", specs)
}

// ---------------------------------------------------------------------
// §7: the multiple-CMP system
// ---------------------------------------------------------------------

/// One datapoint of the §7 multiple-CMP comparison.
#[derive(Debug, Clone)]
pub struct MultiCmpRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Chips the 16 cores are partitioned over.
    pub chips: u8,
    /// Cycles to complete the fixed work.
    pub cycles: Cycle,
    /// Messages that crossed a chip boundary.
    pub interchip_messages: u64,
    /// Total protocol messages.
    pub messages: u64,
}

/// Compares the single-CMP baseline against 2- and 4-chip partitions of
/// the same 16-core machine (paper §7 "Multiple CMPs": inter-chip directory
/// coherence over point-to-point links).
pub fn multi_cmp_comparison(scale: &ExperimentScale) -> Result<Vec<MultiCmpRow>, SweepError> {
    let scale = *scale;
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let mut specs = Vec::new();
    for benchmark in [Benchmark::Mp3d, Benchmark::BerkeleyDb] {
        for chips in [1u8, 2, 4] {
            specs.push(RunSpec::new(
                format!("multi_cmp/{benchmark}/chips={chips}"),
                move || {
                    let mut system = SystemBuilder::paper_default()
                        .signature(SignatureKind::paper_bs_2kb())
                        .chips(chips)
                        .seed(seed)
                        .build();
                    for program in
                        benchmark.programs(SyncMode::Tm, scale.threads, scale.units_per_thread)
                    {
                        system.add_thread(program);
                    }
                    let r = system.run()?;
                    Ok::<_, logtm_se::RunError>(MultiCmpRow {
                        benchmark,
                        chips,
                        cycles: r.cycles,
                        interchip_messages: r.mem.interchip_messages.get(),
                        messages: r.mem.messages.get(),
                    })
                },
            ));
        }
    }
    sweep("multi_cmp_comparison", specs)
}

// ---------------------------------------------------------------------
// §7: the snooping-CMP variant
// ---------------------------------------------------------------------

/// One datapoint of the §7 directory-vs-snooping comparison.
#[derive(Debug, Clone)]
pub struct SnoopRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Which coherence substrate.
    pub coherence: CoherenceKind,
    /// Signature configuration.
    pub signature: SignatureKind,
    /// Cycles to complete the fixed work.
    pub cycles: Cycle,
    /// Interconnect messages (the bandwidth proxy; the paper picks the
    /// directory for "less bandwidth demand").
    pub messages: u64,
    /// False-positive percentage — the paper conjectures snooping "may
    /// need larger signatures to achieve comparable false positive rates"
    /// because every broadcast consults every signature.
    pub false_positive_pct: Option<f64>,
    /// Stalls (NACKed requests).
    pub stalls: u64,
}

/// Compares the paper's §5 directory CMP with its §7 snooping CMP on two
/// benchmarks, at a large and a small signature.
pub fn snooping_comparison(scale: &ExperimentScale) -> Result<Vec<SnoopRow>, SweepError> {
    let scale = *scale;
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let mut specs = Vec::new();
    for benchmark in [Benchmark::Mp3d, Benchmark::Raytrace] {
        for coherence in [CoherenceKind::DirectoryMesi, CoherenceKind::SnoopingMesi] {
            for signature in [SignatureKind::paper_bs_2kb(), SignatureKind::paper_bs_64()] {
                let mut p = params(&scale, benchmark, SyncMode::Tm, signature, seed);
                p.coherence = coherence;
                specs.push(RunSpec::new(
                    format!("snooping/{benchmark}/{coherence}/{}", signature.label()),
                    move || {
                        let r = run_benchmark(&p)?;
                        Ok::<_, logtm_se::RunError>(SnoopRow {
                            benchmark,
                            coherence,
                            signature,
                            cycles: r.cycles,
                            messages: r.mem.messages.get(),
                            false_positive_pct: r.tm.false_positive_pct(),
                            stalls: r.tm.stalls,
                        })
                    },
                ));
            }
        }
    }
    sweep("snooping_comparison", specs)
}

// ---------------------------------------------------------------------
// Figure 4: speedup over locks
// ---------------------------------------------------------------------

/// One bar of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Bar {
    /// Bar label ("Lock", "P", "BS", "CBS", "DBS", "BS_64").
    pub label: String,
    /// Mean speedup normalized to the lock baseline.
    pub speedup: f64,
    /// Half-width of the 95 % confidence interval, or `None` when only one
    /// seed ran (the t-interval is undefined for a single sample).
    pub ci95: Option<f64>,
}

/// One benchmark's bars.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Bars in the paper's order.
    pub bars: Vec<Fig4Bar>,
}

/// Regenerates Figure 4: execution-time speedups of LogTM-SE (perfect and
/// realistic signatures) relative to the lock-based versions.
///
/// Every (benchmark, configuration, seed) cell is one pool job returning
/// its throughput; normalization happens after the sweep so the math sees
/// results in submission order.
pub fn figure4(scale: &ExperimentScale) -> Result<Vec<Fig4Row>, SweepError> {
    let scale = *scale;
    let seeds = seed_sequence(scale.base_seed, scale.seeds);
    let mut specs = Vec::new();
    for benchmark in Benchmark::all() {
        for &s in &seeds {
            let p = params(&scale, benchmark, SyncMode::Lock, SignatureKind::Perfect, s);
            specs.push(RunSpec::new(
                format!("figure4/{benchmark}/lock/seed={s}"),
                move || run_benchmark(&p).map(|r| r.throughput_per_kcycle()),
            ));
        }
        for kind in SignatureKind::figure4_set() {
            for &s in &seeds {
                let p = params(&scale, benchmark, SyncMode::Tm, kind, s);
                specs.push(RunSpec::new(
                    format!("figure4/{benchmark}/tm/{}/seed={s}", kind.label()),
                    move || run_benchmark(&p).map(|r| r.throughput_per_kcycle()),
                ));
            }
        }
    }
    let throughputs = sweep("figure4", specs)?;

    let mut it = throughputs.into_iter();
    let rows = Benchmark::all()
        .into_iter()
        .map(|benchmark| {
            // Paired per-seed throughputs: lock baseline first.
            let lock_thr: Vec<f64> = it.by_ref().take(seeds.len()).collect();
            let lock_mean = lock_thr.iter().sum::<f64>() / lock_thr.len() as f64;

            let mut bars = vec![{
                let ratios: SampleSet = lock_thr.iter().map(|t| t / lock_mean).collect();
                let (speedup, ci95) = ratios.mean_ci95().expect("one run per seed");
                Fig4Bar {
                    label: "Lock".into(),
                    speedup,
                    ci95,
                }
            }];

            for kind in SignatureKind::figure4_set() {
                let ratios: SampleSet =
                    it.by_ref().take(seeds.len()).map(|t| t / lock_mean).collect();
                let (speedup, ci95) = ratios.mean_ci95().expect("one run per seed");
                let label = match kind {
                    SignatureKind::Perfect => "P".to_string(),
                    SignatureKind::BitSelect { bits: 2048 } => "BS".to_string(),
                    SignatureKind::CoarseBitSelect { bits: 2048, .. } => "CBS".to_string(),
                    SignatureKind::DoubleBitSelect { bits: 2048 } => "DBS".to_string(),
                    SignatureKind::BitSelect { bits: 64 } => "BS_64".to_string(),
                    other => other.label(),
                };
                bars.push(Fig4Bar {
                    label,
                    speedup,
                    ci95,
                });
            }
            Fig4Row { benchmark, bars }
        })
        .collect();
    Ok(rows)
}

// ---------------------------------------------------------------------
// Table 2: benchmarks, units, set sizes
// ---------------------------------------------------------------------

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Input label.
    pub input: &'static str,
    /// Unit-of-work label.
    pub unit: &'static str,
    /// Units completed.
    pub units: u64,
    /// Transactions measured (commits).
    pub transactions: u64,
    /// Read-set blocks: average.
    pub read_avg: f64,
    /// Read-set blocks: maximum.
    pub read_max: u64,
    /// Read-set blocks: 95th percentile (tail analysis beyond the paper).
    pub read_p95: u64,
    /// Write-set blocks: average.
    pub write_avg: f64,
    /// Write-set blocks: maximum.
    pub write_max: u64,
}

/// Regenerates Table 2 from perfect-signature TM runs.
pub fn table2(scale: &ExperimentScale) -> Result<Vec<Table2Row>, SweepError> {
    let scale = *scale;
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let specs = Benchmark::all()
        .into_iter()
        .map(|benchmark| {
            let p = params(&scale, benchmark, SyncMode::Tm, SignatureKind::Perfect, seed);
            RunSpec::new(format!("table2/{benchmark}"), move || {
                let r = run_benchmark(&p)?;
                Ok::<_, logtm_se::RunError>(Table2Row {
                    benchmark,
                    input: benchmark.input_label(),
                    unit: benchmark.unit_label(),
                    units: r.tm.work_units,
                    transactions: r.tm.commits,
                    read_avg: r.tm.read_set.mean().unwrap_or(0.0),
                    read_max: r.tm.read_set.max().unwrap_or(0),
                    read_p95: r.tm.read_set_hist.percentile(95).unwrap_or(0),
                    write_avg: r.tm.write_set.mean().unwrap_or(0.0),
                    write_max: r.tm.write_set.max().unwrap_or(0),
                })
            })
        })
        .collect();
    sweep("table2", specs)
}

// ---------------------------------------------------------------------
// Table 3: impact of signature size on conflict detection
// ---------------------------------------------------------------------

/// One configuration row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// The benchmark (the paper shows Raytrace and BerkeleyDB).
    pub benchmark: Benchmark,
    /// Signature configuration.
    pub signature: SignatureKind,
    /// Committed transactions.
    pub transactions: u64,
    /// Aborts.
    pub aborts: u64,
    /// Stalls (NACKed requests).
    pub stalls: u64,
    /// False positives as a percentage of all conflicts signalled
    /// (`None` when no conflicts were signalled).
    pub false_positive_pct: Option<f64>,
}

/// Signature set of Table 3: perfect, the three 2 Kb schemes, and the same
/// schemes at 64 bits.
pub fn table3_signatures() -> Vec<SignatureKind> {
    vec![
        SignatureKind::Perfect,
        SignatureKind::BitSelect { bits: 2048 },
        SignatureKind::CoarseBitSelect {
            bits: 2048,
            blocks_per_macroblock: 16,
        },
        SignatureKind::DoubleBitSelect { bits: 2048 },
        SignatureKind::BitSelect { bits: 64 },
        SignatureKind::CoarseBitSelect {
            bits: 64,
            blocks_per_macroblock: 16,
        },
        SignatureKind::DoubleBitSelect { bits: 64 },
    ]
}

/// Regenerates Table 3 for the paper's two focus benchmarks.
pub fn table3(scale: &ExperimentScale) -> Result<Vec<Table3Row>, SweepError> {
    let scale = *scale;
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let mut specs = Vec::new();
    for benchmark in [Benchmark::Raytrace, Benchmark::BerkeleyDb] {
        for signature in table3_signatures() {
            let p = params(&scale, benchmark, SyncMode::Tm, signature, seed);
            specs.push(RunSpec::new(
                format!("table3/{benchmark}/{}", signature.label()),
                move || {
                    let r = run_benchmark(&p)?;
                    Ok::<_, logtm_se::RunError>(Table3Row {
                        benchmark,
                        signature,
                        transactions: r.tm.commits,
                        aborts: r.tm.aborts,
                        stalls: r.tm.stalls,
                        false_positive_pct: r.tm.false_positive_pct(),
                    })
                },
            ));
        }
    }
    sweep("table3", specs)
}

// ---------------------------------------------------------------------
// Result 4: victimization
// ---------------------------------------------------------------------

/// One row of the victimization summary (§6.3 Result 4).
#[derive(Debug, Clone)]
pub struct VictimRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Committed transactions.
    pub transactions: u64,
    /// Exact transactional blocks victimized from L1 or L2.
    pub victimizations: u64,
    /// Broadcast rebuilds after L2 directory loss.
    pub broadcasts: u64,
}

/// Regenerates Result 4: how often transactional data is victimized.
/// Raytrace gets extra units so its rare huge transactions appear.
pub fn victimization(scale: &ExperimentScale) -> Result<Vec<VictimRow>, SweepError> {
    let scale = *scale;
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let specs = Benchmark::all()
        .into_iter()
        .map(|benchmark| {
            let mut p = params(&scale, benchmark, SyncMode::Tm, SignatureKind::Perfect, seed);
            if benchmark == Benchmark::Raytrace {
                p.units_per_thread = scale.units_per_thread * 4;
            }
            RunSpec::new(format!("victimization/{benchmark}"), move || {
                let r = run_benchmark(&p)?;
                Ok::<_, logtm_se::RunError>(VictimRow {
                    benchmark,
                    transactions: r.tm.commits,
                    victimizations: r.mem.tx_victimizations_exact(),
                    broadcasts: r.mem.lost_dir_broadcasts.get(),
                })
            })
        })
        .collect();
    sweep("victimization", specs)
}

// ---------------------------------------------------------------------
// Ablation A1: signature size sweep
// ---------------------------------------------------------------------

/// One datapoint of the signature-size sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Signature configuration.
    pub signature: SignatureKind,
    /// Speedup vs. the lock baseline (single seed).
    pub speedup: f64,
    /// False-positive percentage.
    pub false_positive_pct: Option<f64>,
    /// Aborts.
    pub aborts: u64,
}

fn sweep_signatures(bits: usize) -> [SignatureKind; 3] {
    [
        SignatureKind::BitSelect { bits },
        SignatureKind::DoubleBitSelect { bits },
        SignatureKind::CoarseBitSelect {
            bits,
            blocks_per_macroblock: 16,
        },
    ]
}

/// Sweeps BS/DBS/CBS sizes from 64 b to 4 Kb on Raytrace and BerkeleyDB —
/// the extension of Figure 4 / Table 3 the paper's sizing discussion
/// implies. The lock baseline and every TM cell run as independent pool
/// jobs; speedups are computed after the sweep.
pub fn signature_sweep(scale: &ExperimentScale) -> Result<Vec<SweepRow>, SweepError> {
    let scale = *scale;
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let mut specs = Vec::new();
    for benchmark in [Benchmark::Raytrace, Benchmark::BerkeleyDb] {
        let p = params(&scale, benchmark, SyncMode::Lock, SignatureKind::Perfect, seed);
        specs.push(RunSpec::new(format!("sig_sweep/{benchmark}/lock"), move || {
            run_benchmark(&p).map(|r| (r.throughput_per_kcycle(), None, 0))
        }));
        for bits in [64usize, 128, 256, 512, 1024, 2048, 4096] {
            for signature in sweep_signatures(bits) {
                let p = params(&scale, benchmark, SyncMode::Tm, signature, seed);
                specs.push(RunSpec::new(
                    format!("sig_sweep/{benchmark}/{}", signature.label()),
                    move || {
                        run_benchmark(&p).map(|r| {
                            (r.throughput_per_kcycle(), r.tm.false_positive_pct(), r.tm.aborts)
                        })
                    },
                ));
            }
        }
    }
    let stats = sweep("signature_sweep", specs)?;

    let mut it = stats.into_iter();
    let mut rows = Vec::new();
    for benchmark in [Benchmark::Raytrace, Benchmark::BerkeleyDb] {
        let (lock, _, _) = it.next().expect("lock baseline present");
        for bits in [64usize, 128, 256, 512, 1024, 2048, 4096] {
            for signature in sweep_signatures(bits) {
                let (thr, false_positive_pct, aborts) = it.next().expect("tm cell present");
                rows.push(SweepRow {
                    benchmark,
                    signature,
                    speedup: thr / lock,
                    false_positive_pct,
                    aborts,
                });
            }
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------
// Ablation A2: sticky states on/off
// ---------------------------------------------------------------------

/// One sticky-ablation datapoint.
#[derive(Debug, Clone)]
pub struct StickyRow {
    /// Workload label.
    pub workload: String,
    /// Whether sticky states were enabled.
    pub sticky: bool,
    /// Cycles to complete the fixed work (or the watchdog bound if the run
    /// livelocked).
    pub cycles: Cycle,
    /// Aborts (victimization without sticky forces conservative aborts).
    pub aborts: u64,
    /// Exact transactional victimizations.
    pub victimizations: u64,
    /// Whether the run finished its fixed work. Without sticky states a
    /// transaction whose footprint exceeds L1 capacity must overflow,
    /// every overflow must abort, and the workload livelocks — the
    /// paper's §3.1 claim, demonstrated.
    pub completed: bool,
}

/// Ablation A2: what sticky states buy. Without them, every victimization
/// of transactional data conservatively aborts the transaction, as
/// cache-resident HTMs must on overflow.
///
/// Note the asymmetry this ablation deliberately skirts: a transaction
/// whose footprint *exceeds* L1 capacity (Raytrace's 550-block tail)
/// cannot ever commit without sticky states — it livelocks, which is
/// precisely the paper's motivation. The overflow microbenchmark here uses
/// near-capacity (not over-capacity) read sets, so evictions are caused by
/// SMT-sibling cache pressure and retries can succeed.
pub fn sticky_ablation(scale: &ExperimentScale) -> Result<Vec<StickyRow>, SweepError> {
    let scale = *scale;
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let mut specs: Vec<RunSpec<Result<StickyRow, logtm_se::RunError>>> = Vec::new();

    // Overflow microbenchmark: 200-block transactional read sets on cores
    // whose two SMT contexts share a 512-block L1. With sticky states this
    // victimizes freely and completes; without them it livelocks (bounded
    // here by a 5M-cycle watchdog) — hitting the watchdog is the result,
    // not a failure.
    for sticky in [true, false] {
        specs.push(RunSpec::new(
            format!("sticky/overflow-micro/sticky={sticky}"),
            move || {
                let mut system = SystemBuilder::paper_default()
                    .signature(SignatureKind::Perfect)
                    .sticky(sticky)
                    .seed(seed)
                    .limits(ltse_sim::config::SimLimits {
                        max_cycles: Cycle(5_000_000),
                        max_events: 500_000_000,
                    })
                    .build();
                for t in 0..16u64 {
                    system.add_thread(Box::new(ltse_workloads::CsProgram::new(
                        ltse_workloads::HotColdArray::new(
                            logtm_se::WordAddr(8 * ((1 << 20) + t * 64)), // private hot block
                            logtm_se::WordAddr(8 * ((2 << 20) + t * 4096)),
                            256,
                            200,
                            logtm_se::WordAddr(8 * (3 << 20)),
                            scale.units_per_thread.max(4),
                        ),
                        SyncMode::Tm,
                        t << 32,
                    )));
                }
                let completed = system.run().is_ok();
                let r = system.report();
                Ok(StickyRow {
                    workload: "overflow-micro".into(),
                    sticky,
                    cycles: r.cycles,
                    aborts: r.tm.aborts,
                    victimizations: r.mem.tx_victimizations_exact(),
                    completed,
                })
            },
        ));
    }

    // Mp3d: tiny footprints — sticky should cost/buy nothing.
    for sticky in [true, false] {
        let mut p = params(&scale, Benchmark::Mp3d, SyncMode::Tm, SignatureKind::Perfect, seed);
        p.sticky = sticky;
        specs.push(RunSpec::new(format!("sticky/mp3d/sticky={sticky}"), move || {
            let r = run_benchmark(&p)?;
            Ok(StickyRow {
                workload: Benchmark::Mp3d.name().into(),
                sticky,
                cycles: r.cycles,
                aborts: r.tm.aborts,
                victimizations: r.mem.tx_victimizations_exact(),
                completed: true,
            })
        }));
    }
    sweep("sticky_ablation", specs)
}

// ---------------------------------------------------------------------
// Ablation A3: log-filter size
// ---------------------------------------------------------------------

/// One log-filter datapoint.
#[derive(Debug, Clone)]
pub struct LogFilterRow {
    /// Filter entries (0 = disabled).
    pub entries: usize,
    /// Undo records actually written.
    pub log_writes: u64,
    /// Redundant writes suppressed by the filter.
    pub suppressed: u64,
    /// Cycles to complete the fixed work.
    pub cycles: Cycle,
}

/// Ablation A3: the log filter's effect on redundant logging. The driver
/// is a repeated-writer microbenchmark (each transaction stores 24 times
/// over 6 blocks — the re-write pattern the filter exists for).
pub fn log_filter_ablation(scale: &ExperimentScale) -> Result<Vec<LogFilterRow>, SweepError> {
    let scale = *scale;
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let specs = [0usize, 1, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|entries| {
            RunSpec::new(format!("log_filter/entries={entries}"), move || {
                let mut system = SystemBuilder::paper_default()
                    .signature(SignatureKind::Perfect)
                    .log_filter_entries(entries)
                    .seed(seed)
                    .build();
                for t in 0..scale.threads as u64 {
                    system.add_thread(Box::new(ltse_workloads::CsProgram::new(
                        ltse_workloads::RepeatedWriter::new(
                            logtm_se::WordAddr(8 * ((4 << 20) + t * 64)),
                            6,
                            24,
                            logtm_se::WordAddr(8 * (5 << 20)),
                            scale.units_per_thread,
                        ),
                        SyncMode::Tm,
                        t << 32,
                    )));
                }
                let r = system.run()?;
                Ok::<_, logtm_se::RunError>(LogFilterRow {
                    entries,
                    log_writes: r.tm.log_writes,
                    suppressed: r.tm.log_writes_suppressed,
                    cycles: r.cycles,
                })
            })
        })
        .collect();
    sweep("log_filter_ablation", specs)
}

// ---------------------------------------------------------------------
// Ablation A4: virtualization overhead (context switching)
// ---------------------------------------------------------------------

/// One virtualization-overhead datapoint.
#[derive(Debug, Clone)]
pub struct VirtRow {
    /// Preemption quantum, or `None` for the no-preemption baseline.
    pub quantum: Option<Cycle>,
    /// Whether in-transaction victims were deferred (paper §4.1, citation \[29\]).
    pub defer_in_tx: bool,
    /// Cycles to complete the fixed work.
    pub cycles: Cycle,
    /// Units of work completed (differs between baseline and
    /// oversubscribed runs — compare cycles **per unit**).
    pub units: u64,
    /// Context switches that interrupted a transaction.
    pub tx_deschedules: u64,
    /// Summary signatures pushed to contexts.
    pub summary_installs: u64,
    /// Aborts.
    pub aborts: u64,
}

/// Ablation A4: cost of context switching under LogTM-SE's summary
/// signatures, with and without preemption deferral. BerkeleyDB with more
/// threads than contexts forces the OS to multiplex mid-transaction (Mp3d
/// would conflate the story with its per-step barrier, whose interaction
/// with oversubscription is a scheduling pathology of its own).
pub fn virtualization_overhead(scale: &ExperimentScale) -> Result<Vec<VirtRow>, SweepError> {
    let scale = *scale;
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let n_ctxs = 32u32; // the paper machine's thread contexts
    let threads = n_ctxs * 3 / 2; // oversubscribe 1.5× the CONTEXTS

    let run_with = move |threads: u32,
                         preemption: Option<(Cycle, bool)>|
          -> Result<logtm_se::RunReport, logtm_se::RunError> {
        let mut builder = SystemBuilder::paper_default()
            .signature(SignatureKind::paper_bs_2kb())
            .seed(seed);
        if let Some((q, defer)) = preemption {
            builder = builder.preemption(q, defer);
        }
        let mut system = builder.build();
        for program in
            Benchmark::BerkeleyDb.programs(SyncMode::Tm, threads, scale.units_per_thread)
        {
            system.add_thread(program);
        }
        system.run()
    };

    let row_from = |r: logtm_se::RunReport, quantum: Option<Cycle>, defer: bool| VirtRow {
        quantum,
        defer_in_tx: defer,
        cycles: r.cycles,
        units: r.tm.work_units,
        tx_deschedules: r.os.tx_deschedules,
        summary_installs: r.os.summary_installs,
        aborts: r.tm.aborts,
    };

    // Baseline: exactly as many threads as contexts, no preemption; same
    // total units as the oversubscribed runs do per thread.

    let mut specs = vec![RunSpec::new("virtualization/baseline", move || {
        run_with(n_ctxs, None).map(|r| row_from(r, None, false))
    })];
    for quantum in [Cycle(20_000), Cycle(5_000)] {
        for defer in [true, false] {
            specs.push(RunSpec::new(
                format!("virtualization/q={}/defer={defer}", quantum.as_u64()),
                move || run_with(threads, Some((quantum, defer))).map(|r| row_from(r, Some(quantum), defer)),
            ));
        }
    }
    sweep("virtualization_overhead", specs)
}

// ---------------------------------------------------------------------
// STM backend: real-concurrency TL2 vs. the cycle-level simulator
// ---------------------------------------------------------------------

/// One Table-2 workload run on both TM backends.
///
/// The simulator columns are deterministic (simulated cycles); the STM
/// columns are real wall clock from real OS threads and therefore vary run
/// to run. The two throughput numbers live in incomparable units — the
/// point of the row is that *the same program stream* completes the same
/// units of work and commits on both engines, not that the numbers race.
#[derive(Debug, Clone)]
pub struct StmRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Worker threads on both backends.
    pub threads: u32,
    /// Units of work completed (identical on both backends by construction).
    pub units: u64,
    /// Simulator: total simulated cycles.
    pub sim_cycles: u64,
    /// Simulator: committed transactions.
    pub sim_commits: u64,
    /// Simulator: aborts.
    pub sim_aborts: u64,
    /// Simulator throughput: units per 1000 simulated cycles.
    pub sim_units_per_kcycle: f64,
    /// STM: wall-clock milliseconds (nondeterministic).
    pub stm_wall_ms: f64,
    /// STM: committed top-level transactions.
    pub stm_commits: u64,
    /// STM: aborted attempts (each one retried).
    pub stm_aborts: u64,
    /// STM throughput: units per wall-clock millisecond (nondeterministic).
    pub stm_units_per_ms: f64,
}

/// Runs every Table-2 workload in TM mode on the cycle-level simulator and
/// on the TL2 STM backend, side by side.
///
/// Unlike the sweep experiments this runs sequentially and bypasses the
/// worker pool: the STM side measures real wall clock on real threads, so
/// sharing cores with sibling runs would corrupt the one number the
/// experiment exists to report.
pub fn stm_compare(scale: &ExperimentScale) -> Result<Vec<StmRow>, SweepError> {
    let seed = seed_sequence(scale.base_seed, 1)[0];
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    let mut runs = 0usize;
    for benchmark in Benchmark::all() {
        let p = params(scale, benchmark, SyncMode::Tm, SignatureKind::Perfect, seed);
        runs += 2;
        let run = |kind: BackendKind| {
            run_on_backend(kind, &p).map_err(|reason| FailedRun {
                label: format!("stm_compare/{benchmark}/{kind}"),
                reason,
            })
        };
        let (sim, stm) = match (run(BackendKind::Sim), run(BackendKind::Stm)) {
            (Ok(sim), Ok(stm)) => (sim, stm),
            (sim, stm) => {
                failures.extend(sim.err());
                failures.extend(stm.err());
                continue;
            }
        };
        if sim.work_units != stm.work_units {
            failures.push(FailedRun {
                label: format!("stm_compare/{benchmark}"),
                reason: format!(
                    "work-unit mismatch: sim completed {} units, stm {}",
                    sim.work_units, stm.work_units
                ),
            });
            continue;
        }
        let sim_cycles = sim.sim_cycles.unwrap_or(0);
        let stm_wall_ms = stm.wall.as_secs_f64() * 1e3;
        rows.push(StmRow {
            benchmark,
            threads: p.threads,
            units: sim.work_units,
            sim_cycles,
            sim_commits: sim.commits,
            sim_aborts: sim.aborts,
            sim_units_per_kcycle: if sim_cycles > 0 {
                sim.work_units as f64 * 1e3 / sim_cycles as f64
            } else {
                0.0
            },
            stm_wall_ms,
            stm_commits: stm.commits,
            stm_aborts: stm.aborts,
            stm_units_per_ms: if stm_wall_ms > 0.0 {
                stm.work_units as f64 / stm_wall_ms
            } else {
                0.0
            },
        });
    }
    if failures.is_empty() {
        Ok(rows)
    } else {
        Err(SweepError {
            experiment: "stm_compare",
            runs,
            failures,
        })
    }
}

/// One row of the `oltp` experiment: a skew/mix point run on one backend.
#[derive(Debug, Clone)]
pub struct OltpRow {
    /// Point name (`uniform_read95`, …).
    pub point: &'static str,
    /// Which engine produced the row.
    pub backend: BackendKind,
    /// Zipfian theta × 1000 (integers keep the rendering deterministic).
    pub theta_permille: u32,
    /// Read percentage of the op mix.
    pub read_pct: u8,
    /// Committed transactions (equals the configured total on success).
    pub committed: u64,
    /// Aborts-then-retries observed along the way.
    pub aborts: u64,
    /// Simulated cycles (sim rows only).
    pub sim_cycles: Option<u64>,
    /// Wall-clock milliseconds of the run (only meaningful on stm rows).
    pub wall_ms: f64,
    /// p50 commit latency: cycles on sim, nanoseconds on stm.
    pub p50: u64,
    /// p99 commit latency.
    pub p99: u64,
    /// p999 commit latency.
    pub p999: u64,
    /// Order-independent digest of the final KV state.
    pub kv_fingerprint: u64,
}

/// The skew/mix points every OLTP artifact reports:
/// `(name, theta_permille, read_pct)`.
pub const OLTP_POINTS: [(&str, u32, u8); 3] = [
    ("uniform_read95", 0, 95),
    ("zipf80_read80", 800, 80),
    ("zipf99_read50", 990, 50),
];

/// The open-loop OLTP configuration for one skew/mix point at experiment
/// scale.
pub fn oltp_config(scale: &ExperimentScale, theta_permille: u32, read_pct: u8) -> OltpConfig {
    OltpConfig {
        threads: scale.threads,
        txs_per_thread: scale.units_per_thread * 25,
        keys: 4096,
        theta: theta_permille as f64 / 1000.0,
        read_pct,
        ops_min: 2,
        ops_max: 8,
        mean_gap: 200,
        seed: scale.base_seed,
    }
}

fn oltp_row(
    point: &'static str,
    kind: BackendKind,
    theta_permille: u32,
    read_pct: u8,
    cfg: &OltpConfig,
) -> Result<OltpRow, FailedRun> {
    let out = run_oltp(kind, cfg, false).map_err(|reason| FailedRun {
        label: format!("oltp/{point}/{kind}"),
        reason,
    })?;
    Ok(OltpRow {
        point,
        backend: kind,
        theta_permille,
        read_pct,
        committed: out.committed_txs,
        aborts: out.report.aborts,
        sim_cycles: out.report.sim_cycles,
        wall_ms: out.report.wall.as_secs_f64() * 1e3,
        p50: out.latency_permille(500).unwrap_or(0),
        p99: out.latency_permille(990).unwrap_or(0),
        p999: out.latency_permille(999).unwrap_or(0),
        kv_fingerprint: out.kv_fingerprint,
    })
}

/// `repro oltp`: the open-loop OLTP skew/mix points on one backend.
///
/// Runs sequentially (open-loop latency distributions shouldn't share the
/// host with sibling runs, and on stm they're wall-clock). Sim rows are
/// fully deterministic — cycles in, cycles out.
pub fn oltp_experiment(
    scale: &ExperimentScale,
    kind: BackendKind,
) -> Result<Vec<OltpRow>, SweepError> {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for (point, theta_permille, read_pct) in OLTP_POINTS {
        let cfg = oltp_config(scale, theta_permille, read_pct);
        match oltp_row(point, kind, theta_permille, read_pct, &cfg) {
            Ok(row) => rows.push(row),
            Err(f) => failures.push(f),
        }
    }
    if failures.is_empty() {
        Ok(rows)
    } else {
        Err(SweepError {
            experiment: "oltp",
            runs: OLTP_POINTS.len(),
            failures,
        })
    }
}

/// `repro --backend stm oltp`: every skew/mix point on both engines, with
/// the final-KV-state cross-check (commutative writes must converge to one
/// state regardless of interleaving — a backend pair that disagrees has a
/// lost update).
pub fn oltp_compare(scale: &ExperimentScale) -> Result<Vec<OltpRow>, SweepError> {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    let mut runs = 0usize;
    for (point, theta_permille, read_pct) in OLTP_POINTS {
        let cfg = oltp_config(scale, theta_permille, read_pct);
        runs += 2;
        let sim = oltp_row(point, BackendKind::Sim, theta_permille, read_pct, &cfg);
        let stm = oltp_row(point, BackendKind::Stm, theta_permille, read_pct, &cfg);
        let (sim, stm) = match (sim, stm) {
            (Ok(sim), Ok(stm)) => (sim, stm),
            (sim, stm) => {
                failures.extend(sim.err());
                failures.extend(stm.err());
                continue;
            }
        };
        if sim.kv_fingerprint != stm.kv_fingerprint {
            failures.push(FailedRun {
                label: format!("oltp/{point}"),
                reason: format!(
                    "final KV state diverged: sim {:016x}, stm {:016x}",
                    sim.kv_fingerprint, stm.kv_fingerprint
                ),
            });
            continue;
        }
        rows.push(sim);
        rows.push(stm);
    }
    if failures.is_empty() {
        Ok(rows)
    } else {
        Err(SweepError {
            experiment: "oltp",
            runs,
            failures,
        })
    }
}

// ---------------------------------------------------------------------
// Adaptive contention management: the policy sweep
// ---------------------------------------------------------------------

/// One datapoint of the `policy_sweep` experiment: one contended workload
/// point, on one backend, under one contention policy.
#[derive(Debug, Clone)]
pub struct PolicySweepRow {
    /// Workload point name (`mp3d_tm`, `oltp_zipf99_read50`, …).
    pub workload: &'static str,
    /// Which engine ran the point.
    pub backend: BackendKind,
    /// The contention policy under test.
    pub policy: ContentionPolicy,
    /// Goodput, higher is better: committed units per simulated megacycle
    /// on `sim` (deterministic), committed transactions per wall-clock
    /// second on `stm`.
    pub score: f64,
    /// Committed outermost transactions.
    pub committed: u64,
    /// Aborts along the way.
    pub aborts: u64,
    /// Serial-token escalations (`sim` rows; the STM reports fallbacks in
    /// its own stats and 0 here).
    pub serial_escalations: u64,
    /// Whether the run finished its fixed work inside the watchdogs
    /// (completed-as-data: a policy that livelocks is a result).
    pub completed: bool,
}

/// The OLTP skew/mix points of the policy sweep:
/// `(name, theta_permille, read_pct)`. One uncontended point (where doing
/// nothing clever should win) and one hot-key point (where it cannot).
pub const POLICY_OLTP_POINTS: [(&str, u32, u8); 2] = [
    ("oltp_uniform_read95", 0, 95),
    ("oltp_zipf99_read50", 990, 50),
];

/// Consecutive-abort threshold for serial escalation used throughout the
/// sweep (`TmConfig::escalate_after` on sim, `max_retries` on stm), so both
/// serial fallbacks are exercised under every policy.
pub const POLICY_ESCALATE_AFTER: u32 = 12;

/// The open-loop OLTP configuration for one policy-sweep point: a smaller,
/// hotter key space and tighter arrival gap than the `oltp` experiment, so
/// the policies actually differentiate.
pub fn policy_oltp_config(
    scale: &ExperimentScale,
    theta_permille: u32,
    read_pct: u8,
) -> OltpConfig {
    OltpConfig {
        threads: scale.threads,
        txs_per_thread: scale.units_per_thread * 25,
        keys: 512,
        theta: theta_permille as f64 / 1000.0,
        read_pct,
        ops_min: 2,
        ops_max: 8,
        mean_gap: 100,
        seed: scale.base_seed,
    }
}

fn policy_tune(policy: ContentionPolicy) -> PolicyTune {
    PolicyTune {
        contention: Some(policy),
        escalate_after: Some(POLICY_ESCALATE_AFTER),
        ..PolicyTune::default()
    }
}

/// `repro policy`: every [`ContentionPolicy`] on contended workloads, on
/// both backends — where does each static policy win, and is `Adaptive`
/// ever far from the per-point best?
///
/// Sim rows (the Mp3d point and the OLTP points on `sim`) are deterministic
/// and fan out through the parallel runner. STM rows run real threads
/// sequentially (wall-clock goodput shouldn't share the host), like the
/// `oltp` experiment.
pub fn policy_sweep(scale: &ExperimentScale) -> Result<Vec<PolicySweepRow>, SweepError> {
    let scale = *scale;
    let seed = seed_sequence(scale.base_seed, 1)[0];

    // Mp3d at fixed work: the paper's most contended Table 2 benchmark.
    let mut specs = Vec::new();
    for policy in ContentionPolicy::ALL {
        specs.push(
            RunSpec::new(format!("policy/mp3d/{}", policy.name()), move || {
                let mut system = SystemBuilder::paper_default()
                    .signature(SignatureKind::paper_bs_2kb())
                    .contention(policy)
                    .escalate_after(Some(POLICY_ESCALATE_AFTER))
                    .seed(seed)
                    .limits(ltse_sim::config::SimLimits {
                        max_cycles: Cycle(10_000_000),
                        max_events: 1_000_000_000,
                    })
                    .build();
                for program in
                    Benchmark::Mp3d.programs(SyncMode::Tm, scale.threads, scale.units_per_thread)
                {
                    system.add_thread(program);
                }
                let completed = system.run().is_ok();
                let r = system.report();
                let cycles = r.cycles.as_u64().max(1);
                PolicySweepRow {
                    workload: "mp3d_tm",
                    backend: BackendKind::Sim,
                    policy,
                    score: r.tm.work_units as f64 * 1e6 / cycles as f64,
                    committed: r.tm.commits,
                    aborts: r.tm.aborts,
                    serial_escalations: r.tm.serial_escalations,
                    completed,
                }
            })
        );
    }
    let mut rows = sweep_ok("policy_sweep", specs)?;

    // The OLTP points, sim then stm, every policy.
    let mut failures = Vec::new();
    let mut runs = ContentionPolicy::ALL.len();
    for (point, theta_permille, read_pct) in POLICY_OLTP_POINTS {
        let cfg = policy_oltp_config(&scale, theta_permille, read_pct);
        for kind in [BackendKind::Sim, BackendKind::Stm] {
            for policy in ContentionPolicy::ALL {
                runs += 1;
                let out = match run_oltp_with(kind, &cfg, false, &policy_tune(policy)) {
                    Ok(out) => out,
                    Err(reason) => {
                        failures.push(FailedRun {
                            label: format!("policy/{point}/{kind}/{}", policy.name()),
                            reason,
                        });
                        continue;
                    }
                };
                let score = match kind {
                    BackendKind::Sim => {
                        let cycles = out.report.sim_cycles.unwrap_or(0).max(1);
                        out.committed_txs as f64 * 1e6 / cycles as f64
                    }
                    BackendKind::Stm => out.goodput_tx_per_sec(),
                };
                rows.push(PolicySweepRow {
                    workload: point,
                    backend: kind,
                    policy,
                    score,
                    committed: out.committed_txs,
                    aborts: out.report.aborts,
                    serial_escalations: 0,
                    completed: out.committed_txs == cfg.total_txs(),
                });
            }
        }
    }
    if failures.is_empty() {
        Ok(rows)
    } else {
        Err(SweepError {
            experiment: "policy_sweep",
            runs,
            failures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            threads: 4,
            units_per_thread: 2,
            seeds: 2,
            base_seed: 7,
            warmup_units: 0,
        }
    }

    #[test]
    fn figure4_produces_six_bars_per_benchmark() {
        let rows = figure4(&tiny()).expect("sweep");
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert_eq!(row.bars.len(), 6);
            assert_eq!(row.bars[0].label, "Lock");
            assert!((row.bars[0].speedup - 1.0).abs() < 0.5, "lock ≈ 1.0");
            for bar in &row.bars {
                assert!(bar.speedup > 0.0, "{} {}", row.benchmark, bar.label);
            }
        }
    }

    #[test]
    fn table2_rows_have_footprints() {
        let rows = table2(&tiny()).expect("sweep");
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.transactions > 0, "{}", row.benchmark);
            assert!(row.read_avg > 0.0);
            assert!(row.read_max as f64 >= row.read_avg);
        }
    }

    #[test]
    fn table3_has_rows_for_both_benchmarks() {
        let rows = table3(&tiny()).expect("sweep");
        assert_eq!(rows.len(), 2 * table3_signatures().len());
        // Perfect signatures can never produce false positives.
        for row in rows.iter().filter(|r| r.signature == SignatureKind::Perfect) {
            assert!(matches!(row.false_positive_pct, None | Some(0.0)));
        }
    }

    #[test]
    fn stm_compare_completes_the_same_units_on_both_backends() {
        let scale = tiny();
        let rows = stm_compare(&scale).expect("both backends run clean");
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert_eq!(
                row.units,
                scale.threads as u64 * scale.units_per_thread,
                "{}",
                row.benchmark
            );
            assert!(row.sim_cycles > 0, "{}", row.benchmark);
            assert!(row.sim_commits > 0 && row.stm_commits > 0, "{}", row.benchmark);
            assert!(row.stm_wall_ms >= 0.0 && row.stm_units_per_ms >= 0.0);
        }
    }

    #[test]
    fn policy_sweep_covers_every_point_policy_and_backend() {
        let scale = ExperimentScale {
            threads: 4,
            units_per_thread: 1,
            seeds: 1,
            base_seed: 7,
            warmup_units: 0,
        };
        let rows = policy_sweep(&scale).expect("sweep");
        // One Mp3d sim point plus two OLTP points on two backends, each
        // under all five policies.
        assert_eq!(rows.len(), ContentionPolicy::ALL.len() * (1 + 2 * 2));
        for row in &rows {
            assert!(row.score >= 0.0);
            assert!(
                row.completed,
                "{}/{}/{}",
                row.workload,
                row.backend.name(),
                row.policy.name()
            );
        }
        // Sim rows are deterministic: re-running the sweep reproduces the
        // exact score bits (stm rows are wall-clock and exempt).
        let again = policy_sweep(&scale).expect("sweep");
        assert_eq!(rows.len(), again.len());
        for (a, b) in rows.iter().zip(&again) {
            if a.backend == BackendKind::Sim {
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "{}/{}",
                    a.workload,
                    a.policy.name()
                );
                assert_eq!(a.committed, b.committed);
                assert_eq!(a.aborts, b.aborts);
            }
        }
    }

    #[test]
    fn log_filter_zero_suppresses_nothing() {
        let rows = log_filter_ablation(&tiny()).expect("sweep");
        let zero = rows.iter().find(|r| r.entries == 0).unwrap();
        let sixteen = rows.iter().find(|r| r.entries == 16).unwrap();
        assert_eq!(zero.suppressed, 0, "disabled filter suppresses nothing");
        assert!(zero.log_writes >= sixteen.log_writes);
    }
}
