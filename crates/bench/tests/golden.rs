//! Golden output: the quick-scale evaluation, rendered in-process in
//! `repro all` order, must keep its exact bytes. Host-speed work on the
//! simulator (lookup tables, hashers, set representations) must leave the
//! simulated model bit-for-bit unchanged, and this digest is the tripwire.
//!
//! Table 1 is a rendering of the machine configuration that lives in the
//! `repro` binary, so it is the one block left out; `scripts/verify.sh`
//! checks the full `repro --quick --jobs 1 all` stdout against its own
//! digest.

use ltse_bench::experiments::*;
use ltse_bench::render;
use ltse_bench::runner::SweepError;

/// FNV-1a digest of the rendered quick-scale evaluation (Table 1 excluded).
/// Changing it means the simulated model changed: that needs its own
/// justification, never a host-speed change.
const QUICK_EVAL_DIGEST: u64 = 0xe712_b5e2_00a8_82a8;

/// FNV-1a, 64-bit.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Appends one rendered experiment followed by the blank line `repro all`
/// prints after each table.
fn push<T>(
    out: &mut String,
    rows: Result<Vec<T>, SweepError>,
    render: impl FnOnce(&[T]) -> String,
) {
    let rows = rows.unwrap_or_else(|e| panic!("sweep failed: {e}"));
    out.push_str(&render(&rows));
    out.push('\n');
}

fn quick_evaluation() -> String {
    let s = ExperimentScale::quick();
    let mut out = String::new();
    push(&mut out, table2(&s), render::render_table2);
    push(&mut out, figure4(&s), render::render_figure4);
    push(&mut out, table3(&s), render::render_table3);
    push(&mut out, victimization(&s), render::render_victimization);
    out.push_str(&logtm_se::substrates::tm::virt_compare::render_table4());
    out.push('\n');
    push(&mut out, signature_sweep(&s), render::render_sweep);
    push(&mut out, sticky_ablation(&s), render::render_sticky);
    push(&mut out, log_filter_ablation(&s), render::render_log_filter);
    push(&mut out, virtualization_overhead(&s), render::render_virt);
    push(&mut out, snooping_comparison(&s), render::render_snooping);
    push(&mut out, contention_policies(&s), render::render_policies);
    push(&mut out, multi_cmp_comparison(&s), render::render_multi_cmp);
    push(&mut out, nesting_ablation(&s), render::render_nesting);
    push(&mut out, smt_comparison(&s), render::render_smt);
    out
}

#[test]
fn quick_evaluation_output_is_unchanged() {
    let text = quick_evaluation();
    let digest = fnv1a(&text);
    assert_eq!(
        digest, QUICK_EVAL_DIGEST,
        "quick-scale evaluation output changed (digest {digest:016x}); rendered text:\n{text}"
    );
}
