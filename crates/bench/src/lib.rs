//! Experiment harness: every table and figure of the paper's evaluation,
//! regenerated as structured data plus aligned-text rendering.
//!
//! The `repro` binary is the command-line front end; the `benches/` timing
//! targets reuse the same experiment functions at reduced scale. See
//! DESIGN.md's experiment index for the mapping from paper artifact to
//! function. All sweeps fan out through [`runner`], a deterministic
//! parallel pool with per-run panic isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod render;
pub mod runner;
pub mod stats_json;

pub use experiments::{
    contention_policies, figure4, log_filter_ablation, multi_cmp_comparison, nesting_ablation,
    oltp_compare, oltp_config, oltp_experiment, policy_oltp_config, policy_sweep, signature_sweep,
    smt_comparison, snooping_comparison, sticky_ablation, stm_compare, table2, table3,
    victimization, virtualization_overhead, ExperimentScale, Fig4Bar, Fig4Row, LogFilterRow,
    MultiCmpRow, NestingRow, OltpRow, PolicyRow, PolicySweepRow, SmtRow, SnoopRow, StickyRow,
    StmRow, SweepRow, Table2Row, Table3Row, VictimRow, VirtRow, OLTP_POINTS, POLICY_OLTP_POINTS,
};
