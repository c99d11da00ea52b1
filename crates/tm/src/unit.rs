//! [`TmUnit`]: the TM state of every hardware thread context, and the
//! [`ConflictOracle`] implementation the coherence protocol calls into.

use ltse_mem::{AccessKind, Asid, BlockAddr, ConflictOracle, CtxId, WordAddr, WORDS_PER_BLOCK};
use ltse_sig::SigOp;
use ltse_sim::Cycle;

use crate::adapt::{resolve, select_policy, weighs_work, ConflictHistory, NackContext};
use crate::config::TmConfig;
use crate::conflict::{ContentionPolicy, Resolution};
use crate::ctx::{AbortCosts, NestKind, ThreadTmState};
use crate::stats::TmStats;

/// Log regions: each thread's log lives at a disjoint thread-private base
/// far above any workload data (blocks below stay workload-addressable).
const LOG_REGION_BASE_BLOCK: u64 = 1 << 40;
/// Blocks reserved per thread log (1 GiB of log space each — "no structures
/// that explicitly limit transaction size"). The stride includes a prime
/// offset so different threads' log bases spread over L2 banks and sets;
/// a power-of-two stride would alias every log onto one L2 set and make
/// every log write an artificial L2 conflict miss.
const LOG_REGION_STRIDE_BLOCKS: u64 = (1 << 24) + 16411;

/// Result of the TM-layer checks that precede a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreAccessCheck {
    /// No TM-level obstacle; issue the access to the memory system.
    Clear,
    /// The per-context **summary signature** matched: a descheduled
    /// transaction may hold this block. The access must trap (stall and
    /// retry; the OS will eventually run the descheduled thread to commit).
    SummaryConflict,
    /// Another thread context *on the same core* has a signature conflict
    /// (SMT sharing the L1 means coherence never sees these, §2).
    SiblingConflict {
        /// The conflicting same-core context.
        nacker: CtxId,
    },
}

/// A log append the system must charge memory timing for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogWrite {
    /// The log word the undo record starts at (charge a store to its
    /// block).
    pub addr: WordAddr,
}

/// Outcome of a commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Whether this was the outermost commit (transaction fully done).
    pub outermost: bool,
    /// Local commit cost.
    pub cycles: Cycle,
    /// Whether the OS must recompute the process summary signature (the
    /// thread had been context-switched during this transaction, §4.1).
    pub needs_summary_update: bool,
}

/// The TM state of every hardware thread context in the machine.
///
/// A *slot* holds the installed thread's [`ThreadTmState`] (or `None` for an
/// idle context). The OS model moves states between slots — that mobility is
/// LogTM-SE's virtualization story.
#[derive(Debug)]
pub struct TmUnit {
    config: TmConfig,
    smt_per_core: u8,
    slots: Vec<Option<ThreadTmState>>,
    /// Stats of threads that were destroyed/descheduled-forever, so nothing
    /// is lost from aggregates.
    retired_stats: TmStats,
    /// Software thread id holding the global serialization token (bounded-
    /// retry escalation, [`TmConfig::escalate_after`]). Keyed by thread id,
    /// not context, so the token survives migration between contexts. The
    /// holder is exempt from conflict-resolution aborts; any transactional
    /// requester it NACKs aborts instead, which breaks every wait cycle
    /// through the holder.
    serial_holder: Option<u32>,
}

impl TmUnit {
    /// Creates a unit with `n_ctxs` single-threaded cores (context *i* is
    /// core *i*), each slot pre-populated with a thread of ASID 0.
    pub fn new(config: TmConfig, n_ctxs: u32) -> Self {
        Self::with_smt(config, n_ctxs, 1)
    }

    /// Creates a unit for `n_ctxs` contexts with `smt_per_core` contexts
    /// per core (matching the memory system's layout), each slot
    /// pre-populated with a thread of ASID 0.
    ///
    /// # Panics
    ///
    /// Panics if `smt_per_core == 0` or doesn't divide `n_ctxs`.
    pub fn with_smt(config: TmConfig, n_ctxs: u32, smt_per_core: u8) -> Self {
        let mut unit = Self::empty_with_smt(config, n_ctxs, smt_per_core);
        for i in 0..n_ctxs {
            unit.install_thread(
                i,
                ThreadTmState::new(
                    i,
                    Asid(0),
                    &config,
                    Self::log_base_for_thread(i),
                    0x5EED_0000 + i as u64,
                ),
            );
        }
        unit
    }

    /// Creates a unit with every context idle (no threads installed); the
    /// system layer installs [`ThreadTmState`]s as threads are created.
    ///
    /// # Panics
    ///
    /// Panics if `smt_per_core == 0` or doesn't divide `n_ctxs`.
    pub fn empty_with_smt(config: TmConfig, n_ctxs: u32, smt_per_core: u8) -> Self {
        assert!(smt_per_core > 0, "need at least one context per core");
        assert_eq!(
            n_ctxs % smt_per_core as u32,
            0,
            "contexts must fill whole cores"
        );
        TmUnit {
            config,
            smt_per_core,
            slots: (0..n_ctxs).map(|_| None).collect(),
            retired_stats: TmStats::new(),
            serial_holder: None,
        }
    }

    // ---- bounded-retry escalation ---------------------------------------

    /// The software thread currently holding the serialization token.
    pub fn serial_holder(&self) -> Option<u32> {
        self.serial_holder
    }

    /// Tries to acquire the serialization token for the thread on `ctx`
    /// (idempotent for the current holder). Returns whether the thread now
    /// holds it.
    pub fn try_acquire_serial(&mut self, ctx: CtxId) -> bool {
        let Some(tid) = self.thread(ctx).map(|t| t.thread_id) else {
            return false;
        };
        match self.serial_holder {
            None => {
                self.serial_holder = Some(tid);
                if let Some(t) = self.thread_mut(ctx) {
                    t.stats.serial_escalations += 1;
                }
                true
            }
            Some(h) => h == tid,
        }
    }

    /// Whether the thread on `ctx` holds the serialization token.
    pub fn holds_serial(&self, ctx: CtxId) -> bool {
        match (self.serial_holder, self.thread(ctx)) {
            (Some(h), Some(t)) => h == t.thread_id,
            _ => false,
        }
    }

    /// Releases the token if the thread on `ctx` holds it (outermost
    /// commit, or the rare liveness-abort of an escalated transaction).
    fn release_serial_if_held(&mut self, ctx: CtxId) {
        if self.holds_serial(ctx) {
            self.serial_holder = None;
        }
    }

    /// The thread-private log base for software thread `thread_id`.
    pub fn log_base_for_thread(thread_id: u32) -> WordAddr {
        BlockAddr(LOG_REGION_BASE_BLOCK + thread_id as u64 * LOG_REGION_STRIDE_BLOCKS).first_word()
    }

    /// Whether `block` is inside any thread's log region.
    pub fn is_log_block(block: BlockAddr) -> bool {
        block.0 >= LOG_REGION_BASE_BLOCK
    }

    /// The configuration.
    pub fn config(&self) -> &TmConfig {
        &self.config
    }

    /// Number of hardware contexts.
    pub fn n_ctxs(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Immutable access to the thread installed on `ctx`.
    pub fn thread(&self, ctx: CtxId) -> Option<&ThreadTmState> {
        self.slots[ctx as usize].as_ref()
    }

    /// Mutable access to the thread installed on `ctx`.
    pub fn thread_mut(&mut self, ctx: CtxId) -> Option<&mut ThreadTmState> {
        self.slots[ctx as usize].as_mut()
    }

    /// Removes the thread state from `ctx` (OS deschedule). The log filter
    /// is cleared (it holds virtual addresses and is only an optimization).
    pub fn take_thread(&mut self, ctx: CtxId) -> Option<ThreadTmState> {
        let mut t = self.slots[ctx as usize].take()?;
        t.clear_filter();
        Some(t)
    }

    /// Installs a thread state on an idle context (OS schedule/migrate).
    ///
    /// # Panics
    ///
    /// Panics if the context already has a thread installed.
    pub fn install_thread(&mut self, ctx: CtxId, mut state: ThreadTmState) {
        assert!(
            self.slots[ctx as usize].is_none(),
            "context {ctx} already occupied"
        );
        state.apply_pending_remaps();
        self.slots[ctx as usize] = Some(state);
    }

    /// Permanently retires a thread state, folding its stats into the
    /// aggregate.
    pub fn retire_thread(&mut self, state: ThreadTmState) {
        self.retired_stats.merge(&state.stats);
    }

    /// Whether `ctx` is inside a transaction.
    pub fn in_tx(&self, ctx: CtxId) -> bool {
        self.thread(ctx).is_some_and(|t| t.in_tx())
    }

    /// Invariant probe for the correctness tooling: residual-state check
    /// for the thread on `ctx`, meaningful right after an outermost commit
    /// or a full abort. Empty when clean (or when no thread is installed).
    /// See [`ThreadTmState::post_outer_violations`].
    pub fn post_tx_violations(&self, ctx: CtxId) -> Vec<String> {
        self.thread(ctx)
            .map(|t| t.post_outer_violations())
            .unwrap_or_default()
    }

    /// The core hosting `ctx`.
    pub fn core_of(&self, ctx: CtxId) -> ltse_mem::CoreId {
        ltse_mem::core_of_ctx(ctx, self.smt_per_core)
    }

    // ---- lifecycle pass-throughs (see [`ThreadTmState`]) -----------------

    /// Begins a transaction on `ctx`; returns the header's log address.
    ///
    /// # Panics
    ///
    /// Panics if no thread is installed on `ctx`.
    pub fn begin_tx(&mut self, ctx: CtxId, kind: NestKind, now: Cycle) -> WordAddr {
        self.slot_mut(ctx).begin(kind, now)
    }

    /// Records a completed access in `ctx`'s signatures.
    pub fn record_access(&mut self, ctx: CtxId, kind: AccessKind, block: BlockAddr) {
        self.slot_mut(ctx).record_access(sig_op(kind), block);
    }

    /// Log-filter-gated undo logging for a store; see
    /// [`ThreadTmState::log_store_if_needed`].
    pub fn log_store_if_needed(
        &mut self,
        ctx: CtxId,
        block: BlockAddr,
        read_old: impl FnOnce() -> [u64; WORDS_PER_BLOCK as usize],
    ) -> Option<LogWrite> {
        self.slot_mut(ctx)
            .log_store_if_needed(block, read_old)
            .map(|addr| LogWrite { addr })
    }

    /// Commits the innermost transaction on `ctx`.
    pub fn commit_tx(&mut self, ctx: CtxId, now: Cycle) -> CommitOutcome {
        let config = self.config;
        let t = self.slot_mut(ctx);
        let was_in_summary = t.in_summary;
        let (outermost, cycles) = t.commit(&config, now);
        if outermost {
            t.in_summary = false;
        }
        if outermost {
            self.release_serial_if_held(ctx);
        }
        CommitOutcome {
            outermost,
            cycles,
            needs_summary_update: outermost && was_in_summary,
        }
    }

    /// Fully aborts the transaction on `ctx`, restoring memory via
    /// `restore`.
    pub fn abort_tx(
        &mut self,
        ctx: CtxId,
        now: Cycle,
        restore: &mut dyn FnMut(WordAddr, &[u64; 8]),
    ) -> AbortCosts {
        let config = self.config;
        self.release_serial_if_held(ctx);
        self.slot_mut(ctx).abort_all(&config, now, restore)
    }

    /// Partially aborts the innermost nested frame on `ctx`.
    pub fn abort_innermost(
        &mut self,
        ctx: CtxId,
        restore: &mut dyn FnMut(WordAddr, &[u64; 8]),
    ) -> Cycle {
        let config = self.config;
        self.slot_mut(ctx).abort_innermost(&config, restore)
    }

    /// Enters an escape action on `ctx`.
    pub fn escape_begin(&mut self, ctx: CtxId) {
        self.slot_mut(ctx).escape_begin();
    }

    /// Leaves an escape action on `ctx`.
    pub fn escape_end(&mut self, ctx: CtxId) {
        self.slot_mut(ctx).escape_end();
    }

    // ---- pre-access checks ----------------------------------------------

    /// TM-layer checks before a memory access is issued: the summary
    /// signature (every reference, §4.1) and same-core sibling signatures
    /// (SMT conflicts never reach the coherence protocol, §2).
    pub fn pre_access(&self, ctx: CtxId, kind: AccessKind, block: BlockAddr) -> PreAccessCheck {
        let Some(me) = self.thread(ctx) else {
            return PreAccessCheck::Clear;
        };
        let op = sig_op(kind);
        if me.check_summary(op, block) {
            return PreAccessCheck::SummaryConflict;
        }
        let my_core = self.core_of(ctx);
        for sib in self.ctxs_on_core(my_core) {
            if sib == ctx {
                continue;
            }
            if let Some(other) = self.thread(sib) {
                if other.asid == me.asid && other.check_conflict(op, block) {
                    return PreAccessCheck::SiblingConflict { nacker: sib };
                }
            }
        }
        PreAccessCheck::Clear
    }

    /// Applies LogTM conflict resolution after a NACK: selects the
    /// effective contention policy (per-conflict for `Adaptive`), resolves
    /// it through [`crate::adapt::resolve`], applies the serialization-token
    /// overrides, updates the nacker's `possible_cycle` flag and both sides'
    /// conflict histories, bumps the requester's stall count, and returns
    /// what the requester must do.
    pub fn on_nack(&mut self, requester: CtxId, nacker: Option<CtxId>) -> Resolution {
        let serial = self.serial_holder;
        let holds_serial = |t: &ThreadTmState| serial == Some(t.thread_id);
        // Policies that never weigh invested work skip the undo-log walk.
        let weigh = weighs_work(self.config.contention);
        let work = |t: &ThreadTmState| {
            if weigh {
                t.log().total_undo_records()
            } else {
                0
            }
        };
        let (req_stamp, req_flag, req_work, history, req_serial) = match self.thread(requester) {
            Some(t) => (
                t.stamp(),
                t.possible_cycle(),
                work(t),
                t.history,
                holds_serial(t),
            ),
            None => (None, false, 0, ConflictHistory::default(), false),
        };
        let (nk_stamp, nk_work, nk_serial) = match nacker.and_then(|n| self.thread(n)) {
            Some(t) => (t.stamp(), work(t), holds_serial(t)),
            None => (None, 0, false),
        };
        // The history consulted is the one *before* this NACK, so a pinned
        // adaptive run observes exactly the state a static run would.
        let effective = select_policy(
            self.config.contention,
            self.config.adaptive_pin,
            &history,
            req_work,
        );
        let (mut resolution, nacker_flags) = resolve(
            effective,
            &NackContext {
                requester: req_stamp,
                requester_possible_cycle: req_flag,
                nacker: nk_stamp,
                requester_work: req_work,
                nacker_work: nk_work,
                history,
            },
        );
        // A size-aware manager's sparing rule can deadlock when the bigger
        // transaction is also the younger one (the only abort that could
        // break the cycle is the one being spared). Escalate after a
        // bounded number of spared deadlock-possible stalls.
        let spared = effective == ContentionPolicy::SizeMatters
            && resolution == Resolution::Stall
            && req_flag
            && matches!((req_stamp, nk_stamp), (Some(req), Some(nk)) if nk.older_than(req));
        if let Some(t) = self.thread_mut(requester) {
            if spared {
                t.spared_stalls += 1;
                if t.spared_stalls > 100 {
                    t.spared_stalls = 0;
                    resolution = Resolution::Abort;
                }
            }
            t.stats.stalls += 1;
            // Recorded for every NACK; an abort resolution resets the stall
            // streak again in `abort_all`.
            t.history.on_stall();
        }
        if let Some(t) = nacker.and_then(|n| self.thread_mut(n)) {
            if nacker_flags {
                t.set_possible_cycle();
            }
            t.history.on_nack_caused();
        }
        // Serialization-token overrides (these outrank every policy): the
        // holder never aborts on a conflict, and any transactional requester
        // the holder NACKs aborts immediately. Every wait cycle through the
        // single holder has an edge *into* the holder, so that edge's
        // requester aborting keeps escalation deadlock-free even under
        // stall-happy policies.
        if req_serial {
            Resolution::Stall
        } else if nk_serial && req_stamp.is_some() {
            Resolution::Abort
        } else {
            resolution
        }
    }

    /// Zeroes every installed thread's statistics (and the retired-thread
    /// aggregate) — the warm-up boundary for steady-state measurement.
    pub fn reset_stats(&mut self) {
        self.retired_stats = TmStats::new();
        for slot in self.slots.iter_mut().flatten() {
            slot.reset_stats();
        }
    }

    /// Aggregated statistics over all installed threads plus retired ones.
    pub fn aggregate_stats(&self) -> TmStats {
        let mut agg = self.retired_stats.clone();
        for slot in self.slots.iter().flatten() {
            agg.merge(&slot.stats);
        }
        agg
    }

    fn ctxs_on_core(&self, core: ltse_mem::CoreId) -> std::ops::Range<CtxId> {
        let base = core as u32 * self.smt_per_core as u32;
        base..base + self.smt_per_core as u32
    }

    fn slot_mut(&mut self, ctx: CtxId) -> &mut ThreadTmState {
        self.slots[ctx as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("no thread installed on context {ctx}"))
    }
}

fn sig_op(kind: AccessKind) -> SigOp {
    match kind {
        AccessKind::Load => SigOp::Read,
        AccessKind::Store => SigOp::Write,
    }
}

impl ConflictOracle for TmUnit {
    fn check_core(
        &self,
        core: ltse_mem::CoreId,
        kind: AccessKind,
        block: BlockAddr,
        requester_ctx: u32,
    ) -> Option<u32> {
        // The ASID travels with the request (paper §2): resolve it from the
        // requester's installed thread. A context with no thread (or no
        // transaction) can still request; conflicts are judged against the
        // target's signatures only.
        let req_asid = self.thread(requester_ctx).map(|t| t.asid)?;
        let op = sig_op(kind);
        for ctx in self.ctxs_on_core(core) {
            if ctx == requester_ctx {
                continue;
            }
            let Some(t) = self.thread(ctx) else { continue };
            if t.asid != req_asid {
                continue; // cross-process aliasing never NACKs (§2)
            }
            if t.check_conflict(op, block) {
                return Some(ctx);
            }
        }
        None
    }

    fn block_is_transactional_hw(&self, core: ltse_mem::CoreId, block: BlockAddr) -> bool {
        self.ctxs_on_core(core)
            .filter_map(|c| self.thread(c))
            .any(|t| t.covers_hw(block))
    }

    fn block_is_transactional_exact(&self, core: ltse_mem::CoreId, block: BlockAddr) -> bool {
        self.ctxs_on_core(core)
            .filter_map(|c| self.thread(c))
            .any(|t| t.covers_exact(block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltse_sig::SignatureKind;

    fn unit() -> TmUnit {
        TmUnit::with_smt(TmConfig::default_with(SignatureKind::Perfect), 8, 2)
    }

    #[test]
    fn core_of_matches_division_for_every_smt_width() {
        for smt in [1u8, 2, 4, 3] {
            let n_ctxs = 64 * u32::from(smt);
            let u =
                TmUnit::empty_with_smt(TmConfig::default_with(SignatureKind::Perfect), n_ctxs, smt);
            for ctx in 0..n_ctxs {
                assert_eq!(u.core_of(ctx), (ctx / u32::from(smt)) as ltse_mem::CoreId);
                assert!(u.ctxs_on_core(u.core_of(ctx)).contains(&ctx));
            }
        }
    }

    #[test]
    fn oracle_detects_remote_conflict() {
        let mut tm = unit();
        tm.begin_tx(2, NestKind::Closed, Cycle(0)); // core 1, slot 0
        tm.record_access(2, AccessKind::Store, BlockAddr(5));
        // A store from ctx 0 (core 0) to block 5: core 1 must NACK.
        assert_eq!(
            tm.check_core(1, AccessKind::Store, BlockAddr(5), 0),
            Some(2)
        );
        // Reads also conflict with the write-set.
        assert_eq!(tm.check_core(1, AccessKind::Load, BlockAddr(5), 0), Some(2));
        // Unrelated block: no conflict.
        assert_eq!(tm.check_core(1, AccessKind::Store, BlockAddr(6), 0), None);
    }

    #[test]
    fn oracle_ignores_own_context() {
        let mut tm = unit();
        tm.begin_tx(0, NestKind::Closed, Cycle(0));
        tm.record_access(0, AccessKind::Store, BlockAddr(5));
        // Request by ctx 0 checked against its own core must not self-NACK.
        assert_eq!(tm.check_core(0, AccessKind::Store, BlockAddr(5), 0), None);
    }

    #[test]
    fn sibling_conflict_detected_on_same_core() {
        let mut tm = unit();
        tm.begin_tx(1, NestKind::Closed, Cycle(0)); // core 0 slot 1
        tm.record_access(1, AccessKind::Store, BlockAddr(9));
        match tm.pre_access(0, AccessKind::Load, BlockAddr(9)) {
            PreAccessCheck::SiblingConflict { nacker } => assert_eq!(nacker, 1),
            other => panic!("expected sibling conflict, got {other:?}"),
        }
        // Read-read sharing on the same core is fine.
        let mut tm2 = unit();
        tm2.begin_tx(1, NestKind::Closed, Cycle(0));
        tm2.record_access(1, AccessKind::Load, BlockAddr(9));
        assert_eq!(
            tm2.pre_access(0, AccessKind::Load, BlockAddr(9)),
            PreAccessCheck::Clear
        );
    }

    #[test]
    fn asid_mismatch_never_conflicts() {
        let mut tm = unit();
        // Put ctx 2's thread in a different address space.
        tm.thread_mut(2).unwrap().asid = Asid(7);
        tm.begin_tx(2, NestKind::Closed, Cycle(0));
        tm.record_access(2, AccessKind::Store, BlockAddr(5));
        assert_eq!(
            tm.check_core(1, AccessKind::Store, BlockAddr(5), 0),
            None,
            "cross-process signature hits are filtered by ASID"
        );
    }

    #[test]
    fn deadlock_cycle_aborts_younger() {
        let mut tm = unit();
        // ctx 0 (old, ts 10) and ctx 2 (young, ts 20) — different cores.
        tm.begin_tx(0, NestKind::Closed, Cycle(10));
        tm.begin_tx(2, NestKind::Closed, Cycle(20));
        // Old requests; young NACKs → young sets possible_cycle.
        assert_eq!(tm.on_nack(0, Some(2)), Resolution::Stall);
        assert!(tm.thread(2).unwrap().possible_cycle());
        // Young requests; old NACKs → young aborts.
        assert_eq!(tm.on_nack(2, Some(0)), Resolution::Abort);
        // Old never aborts in this exchange.
        assert_eq!(tm.on_nack(0, Some(2)), Resolution::Stall);
        assert_eq!(tm.thread(0).unwrap().stats.stalls, 2);
    }

    #[test]
    fn take_install_moves_state_between_contexts() {
        let mut tm = unit();
        tm.begin_tx(0, NestKind::Closed, Cycle(0));
        tm.record_access(0, AccessKind::Store, BlockAddr(77));
        let state = tm.take_thread(0).unwrap();
        assert!(tm.thread(0).is_none());
        // Migrate to context 5 (different core).
        tm.slots[5] = None; // make room (retire the default thread)
        tm.install_thread(5, state);
        assert!(tm.in_tx(5));
        // Conflicts now detected at the new core (2 = ctx 5's core); the
        // requester is ctx 1, which still has a live thread in the same
        // address space.
        assert_eq!(
            tm.check_core(2, AccessKind::Store, BlockAddr(77), 1),
            Some(5)
        );
    }

    #[test]
    fn transactional_blocks_visible_to_eviction_logic() {
        let mut tm = unit();
        tm.begin_tx(4, NestKind::Closed, Cycle(0)); // core 2
        tm.record_access(4, AccessKind::Load, BlockAddr(31));
        assert!(tm.block_is_transactional_hw(2, BlockAddr(31)));
        assert!(tm.block_is_transactional_exact(2, BlockAddr(31)));
        assert!(!tm.block_is_transactional_hw(0, BlockAddr(31)));
        // After commit, nothing is transactional.
        tm.commit_tx(4, Cycle(5));
        assert!(!tm.block_is_transactional_hw(2, BlockAddr(31)));
    }

    #[test]
    fn aggregate_stats_include_retired_threads() {
        let mut tm = unit();
        tm.begin_tx(0, NestKind::Closed, Cycle(0));
        tm.commit_tx(0, Cycle(1));
        let t = tm.take_thread(0).unwrap();
        tm.retire_thread(t);
        assert_eq!(tm.aggregate_stats().commits, 1);
    }

    #[test]
    fn commit_signals_summary_update_only_after_switch() {
        let mut tm = unit();
        tm.begin_tx(0, NestKind::Closed, Cycle(0));
        let out = tm.commit_tx(0, Cycle(1));
        assert!(!out.needs_summary_update);

        tm.begin_tx(0, NestKind::Closed, Cycle(2));
        tm.thread_mut(0).unwrap().in_summary = true; // OS marked it
        let out = tm.commit_tx(0, Cycle(3));
        assert!(out.outermost);
        assert!(out.needs_summary_update);
        assert!(!tm.thread(0).unwrap().in_summary);
    }

    #[test]
    fn log_bases_are_disjoint() {
        let a = TmUnit::log_base_for_thread(0);
        let b = TmUnit::log_base_for_thread(1);
        assert!(b.0 - a.0 >= LOG_REGION_STRIDE_BLOCKS * WORDS_PER_BLOCK);
        assert!(TmUnit::is_log_block(a.block()));
        assert!(!TmUnit::is_log_block(BlockAddr(12345)));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_install_panics() {
        let mut tm = unit();
        let t = tm.take_thread(0).unwrap();
        tm.install_thread(1, t); // ctx 1 still has its default thread
    }
}
