//! Online contention management (the "trap to a contention manager" the
//! paper leaves open).
//!
//! LogTM-SE resolves conflicts with a fixed requester-stalls policy plus
//! randomized-exponential backoff. This module decouples three levers so
//! they can be configured — or driven adaptively — per run:
//!
//! * **Backoff families** ([`BackoffKind`]): randomized-exponential (the
//!   paper's default), linear, and capped-constant windows, all drawing
//!   exactly one value from the caller's deterministic per-thread RNG.
//! * **Conflict history** ([`ConflictHistory`]): a light, always-on
//!   per-thread record of NACKs suffered/caused, abort streaks, and wasted
//!   cycles. It is maintained identically under *every* policy (so pinning
//!   the adaptive manager to a static policy is byte-identical to running
//!   that policy), and it works with the observability layer off.
//! * **Contention managers** ([`resolve`]): the per-NACK decision procedure
//!   behind [`resolve_nack_with`](crate::conflict::resolve_nack_with), one
//!   `match` arm per [`ContentionPolicy`] variant, including the age-based
//!   `Karma` manager and the history-driven `Adaptive` selector
//!   ([`select_policy`]).
//!
//! Adaptive selection is a pure function of the requester's history and
//! invested work — it consumes **no** RNG draws, so explore-mode schedules
//! see identical randomness under every policy.

use ltse_sim::rng::Xoshiro256StarStar;
use ltse_sim::Cycle;

use crate::conflict::{ContentionPolicy, Resolution, TxStamp};

/// The shape of the post-abort (and partial-abort, and stall-escalation)
/// backoff window. Every family draws one uniform value from the window it
/// computes, so switching families never changes how many RNG values a
/// thread consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackoffKind {
    /// The paper's default: the k-th consecutive abort waits
    /// `U(0, base << min(k, cap_shift))`.
    #[default]
    RandExp,
    /// Linear growth: `U(0, base * (k + 1))`, capped at the same
    /// `base << cap_shift` ceiling as `RandExp`.
    Linear,
    /// Capped-constant: `U(0, base)` regardless of the streak — minimal
    /// added latency, no protection against repeated collisions.
    Constant,
}

impl BackoffKind {
    /// Every variant, for exhaustive sweeps and reflection tests.
    pub const ALL: [BackoffKind; 3] = [
        BackoffKind::RandExp,
        BackoffKind::Linear,
        BackoffKind::Constant,
    ];

    /// The CLI/JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            BackoffKind::RandExp => "randexp",
            BackoffKind::Linear => "linear",
            BackoffKind::Constant => "constant",
        }
    }
}

/// Backoff delay for the `attempt`-th consecutive retry (0-based) under the
/// chosen family. Draws exactly one value from `rng` whenever the window is
/// nonzero; a zero `base` yields `Cycle::ZERO` without touching the RNG.
pub fn backoff_cycles(
    kind: BackoffKind,
    rng: &mut Xoshiro256StarStar,
    base: Cycle,
    cap_shift: u32,
    attempt: u32,
) -> Cycle {
    let cap = base.as_u64() << cap_shift.min(63);
    let window = match kind {
        BackoffKind::RandExp => base.as_u64() << attempt.min(cap_shift),
        BackoffKind::Linear => base
            .as_u64()
            .saturating_mul(attempt as u64 + 1)
            .min(cap.max(base.as_u64())),
        BackoffKind::Constant => base.as_u64(),
    };
    if window == 0 {
        return Cycle::ZERO;
    }
    Cycle(rng.gen_range(0, window))
}

/// A light per-thread record of how contention has been treating this
/// thread. Maintained unconditionally (it is a handful of integer bumps on
/// paths that already trap to software), under every policy, with the
/// observability layer on or off — so the adaptive manager always has its
/// input, and enabling it changes no other thread-visible state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConflictHistory {
    /// NACKs this thread's requests suffered (lifetime).
    pub nacks: u64,
    /// NACKs this thread issued against others (lifetime).
    pub nacks_caused: u64,
    /// Aborts suffered (lifetime).
    pub aborts: u64,
    /// Outermost commits (lifetime).
    pub commits: u64,
    /// Consecutive outermost aborts since the last commit.
    pub abort_streak: u32,
    /// Consecutive stalls since the last commit or abort.
    pub stall_streak: u32,
    /// Cycles thrown away in aborted transactions (lifetime).
    pub wasted_cycles: u64,
}

impl ConflictHistory {
    /// This thread's request was NACKed and it will stall.
    pub fn on_stall(&mut self) {
        self.nacks = self.nacks.saturating_add(1);
        self.stall_streak = self.stall_streak.saturating_add(1);
    }

    /// This thread NACKed someone else's request.
    pub fn on_nack_caused(&mut self) {
        self.nacks_caused = self.nacks_caused.saturating_add(1);
    }

    /// This thread's outermost transaction aborted, wasting `wasted` cycles.
    pub fn on_abort(&mut self, wasted: u64) {
        self.aborts = self.aborts.saturating_add(1);
        self.abort_streak = self.abort_streak.saturating_add(1);
        self.stall_streak = 0;
        self.wasted_cycles = self.wasted_cycles.saturating_add(wasted);
    }

    /// This thread committed an outermost transaction.
    pub fn on_commit(&mut self) {
        self.commits = self.commits.saturating_add(1);
        self.abort_streak = 0;
        self.stall_streak = 0;
    }
}

/// Everything a contention manager may consult for one NACK decision.
#[derive(Debug, Clone, Copy)]
pub struct NackContext {
    /// The NACKed context's stamp (`None`: not in a transaction).
    pub requester: Option<TxStamp>,
    /// The requester's `possible_cycle` flag.
    pub requester_possible_cycle: bool,
    /// The conflicting context's stamp (`None`: summary-signature conflict).
    pub nacker: Option<TxStamp>,
    /// Requester's invested work (undo records).
    pub requester_work: usize,
    /// Nacker's invested work (undo records).
    pub nacker_work: usize,
    /// The requester's conflict history.
    pub history: ConflictHistory,
}

/// Decides `(requester resolution, nacker sets possible_cycle)` for one
/// NACK under `policy`: the one dispatch point for every contention
/// manager, with each policy's rule documented on its [`ContentionPolicy`]
/// variant. [`ContentionPolicy::Adaptive`] first picks a static policy from
/// the requester's history ([`select_policy`], unpinned); static policies
/// pass through unchanged.
#[inline]
pub fn resolve(policy: ContentionPolicy, cx: &NackContext) -> (Resolution, bool) {
    // Non-transactional requesters hold no isolation anyone could wait on:
    // always retry. Summary conflicts (no live nacker context) are broken
    // by the OS rescheduling the parked thread.
    let (Some(req), Some(nk)) = (cx.requester, cx.nacker) else {
        return (Resolution::Stall, false);
    };
    let nacker_flags = req.older_than(nk);
    let deadlock_possible = nk.older_than(req) && cx.requester_possible_cycle;
    let abort = match select_policy(policy, None, &cx.history, cx.requester_work) {
        ContentionPolicy::RequesterStalls => deadlock_possible,
        ContentionPolicy::RequesterAborts => true,
        ContentionPolicy::SizeMatters => {
            deadlock_possible && cx.requester_work <= cx.nacker_work
        }
        // Deadlock-free: a stall edge always points from an older
        // requester to a younger nacker, so ages strictly decrease around
        // any would-be cycle.
        ContentionPolicy::Karma => nk.older_than(req),
        ContentionPolicy::Adaptive => unreachable!("select_policy picks a static policy"),
    };
    let r = if abort {
        Resolution::Abort
    } else {
        Resolution::Stall
    };
    (r, nacker_flags)
}

/// Whether a run configured with `policy` ever reads
/// [`NackContext::requester_work`] or [`NackContext::nacker_work`]: only
/// `SizeMatters` and the `Adaptive` selector (which may pick `SizeMatters`
/// or consult the requester's work itself) do.
pub fn weighs_work(policy: ContentionPolicy) -> bool {
    matches!(
        policy,
        ContentionPolicy::SizeMatters | ContentionPolicy::Adaptive
    )
}

/// Maps a configured policy to the concrete static policy applied to the
/// next conflict. Static policies map to themselves; `Adaptive` consults
/// the requester's history:
///
/// * a thread on an abort streak has been losing conflicts — switch to the
///   age-based [`Karma`](ContentionPolicy::Karma) arbitration, which
///   guarantees the oldest transaction progresses and empirically wins on
///   hot-key workloads;
/// * a thread stalling repeatedly with (almost) nothing invested is paying
///   convoy latency to protect nothing — restart it cheaply via
///   [`RequesterAborts`](ContentionPolicy::RequesterAborts) and let backoff
///   de-synchronize the colliders;
/// * otherwise the paper's baseline stall policy is the right default.
///
/// Pure function of its arguments: **no RNG draws**, so an `Adaptive` run
/// pinned to a static policy is byte-identical to that policy. A pin of
/// `Adaptive` itself is ignored (falls through to the heuristic).
pub fn select_policy(
    policy: ContentionPolicy,
    pin: Option<ContentionPolicy>,
    history: &ConflictHistory,
    requester_work: usize,
) -> ContentionPolicy {
    if policy != ContentionPolicy::Adaptive {
        return policy;
    }
    if let Some(p) = pin {
        if p != ContentionPolicy::Adaptive {
            return p;
        }
    }
    if history.abort_streak >= 2 {
        // Repeated aborts mean the stall-first default is losing work to
        // conflict cycles: switch to age-based arbitration, which always
        // makes forward progress on the oldest transaction and empirically
        // dominates on hot-key workloads.
        ContentionPolicy::Karma
    } else if requester_work <= 1 && history.stall_streak >= 4 {
        // A requester that has invested almost nothing but keeps running
        // into busy lines is cheapest to restart outright.
        ContentionPolicy::RequesterAborts
    } else {
        ContentionPolicy::RequesterStalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(t: u64, ctx: u32) -> TxStamp {
        TxStamp::new(Cycle(t), ctx)
    }

    fn cx(req: Option<TxStamp>, flag: bool, nk: Option<TxStamp>) -> NackContext {
        NackContext {
            requester: req,
            requester_possible_cycle: flag,
            nacker: nk,
            requester_work: 0,
            nacker_work: 0,
            history: ConflictHistory::default(),
        }
    }

    #[test]
    fn backoff_families_shape_their_windows() {
        let mut rng = Xoshiro256StarStar::new(1);
        let base = Cycle(60);
        for attempt in 0..20 {
            let e = backoff_cycles(BackoffKind::RandExp, &mut rng, base, 6, attempt);
            assert!(e.as_u64() < 60 << attempt.min(6));
            let l = backoff_cycles(BackoffKind::Linear, &mut rng, base, 6, attempt);
            assert!(l.as_u64() < (60 * (attempt as u64 + 1)).min(60 << 6));
            let c = backoff_cycles(BackoffKind::Constant, &mut rng, base, 6, attempt);
            assert!(c.as_u64() < 60);
        }
    }

    #[test]
    fn backoff_zero_base_skips_the_rng() {
        let mut a = Xoshiro256StarStar::new(9);
        let mut b = Xoshiro256StarStar::new(9);
        for kind in BackoffKind::ALL {
            assert_eq!(backoff_cycles(kind, &mut a, Cycle(0), 6, 3), Cycle::ZERO);
        }
        // `a` drew nothing: it must still agree with the untouched `b`.
        assert_eq!(a.gen_range(0, 1 << 30), b.gen_range(0, 1 << 30));
    }

    #[test]
    fn randexp_matches_the_legacy_abort_backoff() {
        // The default family must reproduce the pre-existing backoff draw
        // exactly, so default-config runs are unchanged.
        for seed in [1u64, 7, 99] {
            for attempt in 0..10 {
                let mut a = Xoshiro256StarStar::new(seed);
                let mut b = Xoshiro256StarStar::new(seed);
                assert_eq!(
                    backoff_cycles(BackoffKind::RandExp, &mut a, Cycle(60), 6, attempt),
                    crate::conflict::abort_backoff(&mut b, Cycle(60), 6, attempt),
                );
            }
        }
    }

    #[test]
    fn history_streaks_reset_correctly() {
        let mut h = ConflictHistory::default();
        h.on_stall();
        h.on_stall();
        assert_eq!(h.stall_streak, 2);
        h.on_abort(100);
        assert_eq!((h.aborts, h.abort_streak, h.stall_streak), (1, 1, 0));
        h.on_abort(50);
        assert_eq!((h.abort_streak, h.wasted_cycles), (2, 150));
        h.on_commit();
        assert_eq!((h.commits, h.abort_streak), (1, 0));
        assert_eq!(h.aborts, 2, "lifetime counters survive the reset");
    }

    #[test]
    fn karma_youngest_always_loses() {
        let km = |c: &NackContext| resolve(ContentionPolicy::Karma, c);
        // Younger requester NACKed by older: abort, flag unset.
        let (r, f) = km(&cx(Some(st(100, 1)), false, Some(st(10, 0))));
        assert_eq!(r, Resolution::Abort);
        assert!(!f);
        // Older requester NACKed by younger: stall, nacker flags.
        let (r, f) = km(&cx(Some(st(10, 0)), false, Some(st(100, 1))));
        assert_eq!(r, Resolution::Stall);
        assert!(f);
        // Non-transactional and summary conflicts stall as everywhere else.
        assert_eq!(km(&cx(None, false, Some(st(1, 0)))).0, Resolution::Stall);
        assert_eq!(km(&cx(Some(st(1, 0)), true, None)).0, Resolution::Stall);
    }

    #[test]
    fn adaptive_selection_is_pure_and_pinnable() {
        let calm = ConflictHistory::default();
        let mut losing = ConflictHistory::default();
        losing.on_abort(10);
        losing.on_abort(10);
        let mut convoy = ConflictHistory::default();
        for _ in 0..5 {
            convoy.on_stall();
        }
        assert_eq!(
            select_policy(ContentionPolicy::Adaptive, None, &calm, 0),
            ContentionPolicy::RequesterStalls
        );
        assert_eq!(
            select_policy(ContentionPolicy::Adaptive, None, &losing, 5),
            ContentionPolicy::Karma
        );
        assert_eq!(
            select_policy(ContentionPolicy::Adaptive, None, &convoy, 0),
            ContentionPolicy::RequesterAborts
        );
        // Work invested suppresses the cheap-restart path.
        assert_eq!(
            select_policy(ContentionPolicy::Adaptive, None, &convoy, 8),
            ContentionPolicy::RequesterStalls
        );
        // Static policies ignore history entirely.
        for p in ContentionPolicy::ALL {
            if p != ContentionPolicy::Adaptive {
                assert_eq!(select_policy(p, None, &losing, 0), p);
            }
        }
        // A pin overrides the heuristic; pinning Adaptive falls through.
        assert_eq!(
            select_policy(
                ContentionPolicy::Adaptive,
                Some(ContentionPolicy::Karma),
                &losing,
                0
            ),
            ContentionPolicy::Karma
        );
        assert_eq!(
            select_policy(
                ContentionPolicy::Adaptive,
                Some(ContentionPolicy::Adaptive),
                &losing,
                0
            ),
            ContentionPolicy::Karma
        );
    }

    /// `on_nack` passes zero work for policies `weighs_work` rules out, so
    /// those must decide identically with any work; the two that weigh it
    /// must not.
    #[test]
    fn only_work_weighing_policies_read_work() {
        let mut convoy = ConflictHistory::default();
        for _ in 0..5 {
            convoy.on_stall();
        }
        for policy in ContentionPolicy::ALL {
            let mut differs = false;
            for (req, nk) in [
                (Some(st(5, 0)), Some(st(9, 1))),
                (Some(st(9, 1)), Some(st(5, 0))),
            ] {
                for flag in [false, true] {
                    let zero = NackContext {
                        history: convoy,
                        ..cx(req, flag, nk)
                    };
                    let weighed = NackContext {
                        requester_work: 7,
                        nacker_work: 1,
                        ..zero
                    };
                    differs |= resolve(policy, &zero) != resolve(policy, &weighed)
                        || select_policy(policy, None, &convoy, 0)
                            != select_policy(policy, None, &convoy, 7);
                }
            }
            assert_eq!(differs, weighs_work(policy), "{policy:?}");
        }
    }

    #[test]
    fn managers_agree_with_their_policies() {
        // Pinned adaptive selection resolves exactly like the pinned static
        // policy across a grid of conflict contexts, whatever the history.
        let mut losing = ConflictHistory::default();
        losing.on_abort(10);
        losing.on_abort(10);
        for pin in ContentionPolicy::STATIC {
            for history in [ConflictHistory::default(), losing] {
                let chosen = select_policy(ContentionPolicy::Adaptive, Some(pin), &history, 0);
                assert_eq!(chosen, pin);
                for (req, nk) in [
                    (Some(st(5, 0)), Some(st(9, 1))),
                    (Some(st(9, 1)), Some(st(5, 0))),
                    (None, Some(st(5, 0))),
                    (Some(st(5, 0)), None),
                ] {
                    for flag in [false, true] {
                        let c = NackContext {
                            history,
                            ..cx(req, flag, nk)
                        };
                        assert_eq!(resolve(chosen, &c), resolve(pin, &c), "{pin:?}");
                    }
                }
            }
        }
        // Unpinned `Adaptive` resolves through the policy its history
        // selects.
        let c = NackContext {
            history: losing,
            ..cx(Some(st(9, 1)), false, Some(st(5, 0)))
        };
        assert_eq!(
            resolve(ContentionPolicy::Adaptive, &c),
            resolve(ContentionPolicy::Karma, &c)
        );
        assert_eq!(resolve(ContentionPolicy::Adaptive, &c).0, Resolution::Abort);
    }
}
