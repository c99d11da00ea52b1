//! LogTM's distributed conflict resolution, adopted by LogTM-SE (§2):
//! "the core stalls, retries its coherence operation, and aborts on a
//! possible deadlock cycle."
//!
//! The mechanism (from the LogTM paper): each transaction carries a
//! timestamp from its begin. A context sets its `possible_cycle` flag when
//! it NACKs a request from an **older** transaction. A requester whose
//! request is NACKed by an **older** transaction while its own
//! `possible_cycle` flag is set conservatively assumes a deadlock cycle and
//! aborts. Everyone else stalls and retries.

use ltse_sim::Cycle;

/// A transaction's position in the age order: begin time plus a context-id
/// tie-break so the order is total.
///
/// ```
/// use ltse_sim::Cycle;
/// use ltse_tm::conflict::TxStamp;
///
/// let a = TxStamp::new(Cycle(10), 0);
/// let b = TxStamp::new(Cycle(10), 1);
/// let c = TxStamp::new(Cycle(99), 0);
/// assert!(a.older_than(b));
/// assert!(b.older_than(c));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxStamp {
    /// Cycle at (outermost) transaction begin.
    pub begin: Cycle,
    /// Owning thread context id (tie-break).
    pub ctx: u32,
}

impl TxStamp {
    /// Creates a stamp.
    pub fn new(begin: Cycle, ctx: u32) -> Self {
        TxStamp { begin, ctx }
    }

    /// Strictly older (wins conflicts) than `other`.
    pub fn older_than(&self, other: TxStamp) -> bool {
        self < &other
    }
}

/// What a NACKed requester should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Stall, then retry the coherence request after the configured
    /// interval.
    Stall,
    /// Possible deadlock cycle: abort the transaction.
    Abort,
}

/// The contention-management policy applied when a request is NACKed.
///
/// The paper's baseline "stalls, retries its coherence operation, and
/// aborts on a possible deadlock cycle", and notes that "more sophisticated
/// future versions could trap to a contention manager" — these are three
/// such managers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ContentionPolicy {
    /// LogTM's default: requester stalls; abort only when the timestamp /
    /// `possible_cycle` rule detects a potential deadlock.
    #[default]
    RequesterStalls,
    /// The simplest manager: a transactional requester aborts itself on
    /// any NACK (early-HTM behaviour; maximal wasted work, zero deadlock
    /// machinery).
    RequesterAborts,
    /// A work-weighted manager: on a possible deadlock cycle the requester
    /// aborts only if it has invested *less* work (fewer undo records) than
    /// the conflicting transaction; otherwise it keeps stalling and lets
    /// the deadlock rule fire on the other side.
    SizeMatters,
    /// Age-based (Greedy/Timestamp-style): the strictly younger side of a
    /// conflict aborts immediately, the older side stalls. Deadlock-free
    /// without `possible_cycle` tracking; preserved begin stamps across
    /// retries make the oldest transaction win eventually.
    Karma,
    /// Online adaptive selection: every NACK is resolved by the static
    /// policy [`crate::adapt::select_policy`] picks from the requester's
    /// [`crate::adapt::ConflictHistory`] (abort streaks → `Karma`,
    /// convoys with nothing invested → `RequesterAborts`, otherwise the
    /// baseline `RequesterStalls`).
    Adaptive,
}

impl ContentionPolicy {
    /// Every variant, for exhaustive sweeps and reflection tests.
    pub const ALL: [ContentionPolicy; 5] = [
        ContentionPolicy::RequesterStalls,
        ContentionPolicy::RequesterAborts,
        ContentionPolicy::SizeMatters,
        ContentionPolicy::Karma,
        ContentionPolicy::Adaptive,
    ];

    /// The static (non-adaptive) variants — the candidates an
    /// [`Adaptive`](ContentionPolicy::Adaptive) manager may be pinned to.
    pub const STATIC: [ContentionPolicy; 4] = [
        ContentionPolicy::RequesterStalls,
        ContentionPolicy::RequesterAborts,
        ContentionPolicy::SizeMatters,
        ContentionPolicy::Karma,
    ];

    /// The CLI/JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            ContentionPolicy::RequesterStalls => "requester_stalls",
            ContentionPolicy::RequesterAborts => "requester_aborts",
            ContentionPolicy::SizeMatters => "size_matters",
            ContentionPolicy::Karma => "karma",
            ContentionPolicy::Adaptive => "adaptive",
        }
    }
}

impl std::str::FromStr for ContentionPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ContentionPolicy::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown contention policy '{s}'"))
    }
}

/// Decides the requester's action and whether the *nacker* must set its
/// `possible_cycle` flag.
///
/// * `requester`: the NACKed context's stamp, or `None` if it is not in a
///   transaction (plain or escape-action access — always stalls).
/// * `requester_possible_cycle`: the requester's current flag.
/// * `nacker`: the conflicting context's stamp, or `None` if the conflict
///   came from a *descheduled* transaction's summary signature (no live
///   context to compare against — the caller handles that case separately).
///
/// Returns `(resolution, nacker_sets_possible_cycle)`.
pub fn resolve_nack(
    requester: Option<TxStamp>,
    requester_possible_cycle: bool,
    nacker: Option<TxStamp>,
) -> (Resolution, bool) {
    resolve_nack_with(
        ContentionPolicy::RequesterStalls,
        requester,
        requester_possible_cycle,
        nacker,
        0,
        0,
    )
}

/// [`resolve_nack`] under an explicit [`ContentionPolicy`].
/// `requester_work`/`nacker_work` are invested-work estimates (undo
/// records) consulted by [`ContentionPolicy::SizeMatters`].
///
/// This is the history-free entry point: it calls
/// [`crate::adapt::resolve`] for `policy` with an empty
/// [`crate::adapt::ConflictHistory`], so [`ContentionPolicy::Adaptive`]
/// here behaves as its default selection. Callers holding real per-thread
/// history (the [`crate::TmUnit`] NACK path) select through
/// [`crate::adapt::select_policy`] and call `resolve` directly.
pub fn resolve_nack_with(
    policy: ContentionPolicy,
    requester: Option<TxStamp>,
    requester_possible_cycle: bool,
    nacker: Option<TxStamp>,
    requester_work: usize,
    nacker_work: usize,
) -> (Resolution, bool) {
    let cx = crate::adapt::NackContext {
        requester,
        requester_possible_cycle,
        nacker,
        requester_work,
        nacker_work,
        history: crate::adapt::ConflictHistory::default(),
    };
    crate::adapt::resolve(policy, &cx)
}

/// Randomized-exponential backoff after the `attempt`-th consecutive abort:
/// a uniform draw from `[0, base << min(attempt, cap_shift))`.
pub fn abort_backoff(
    rng: &mut ltse_sim::rng::Xoshiro256StarStar,
    base: Cycle,
    cap_shift: u32,
    attempt: u32,
) -> Cycle {
    let window = base.as_u64() << attempt.min(cap_shift);
    if window == 0 {
        return Cycle::ZERO;
    }
    Cycle(rng.gen_range(0, window))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(t: u64, ctx: u32) -> TxStamp {
        TxStamp::new(Cycle(t), ctx)
    }

    #[test]
    fn age_order_total() {
        assert!(st(1, 0).older_than(st(2, 0)));
        assert!(st(1, 0).older_than(st(1, 1)));
        assert!(!st(1, 1).older_than(st(1, 1)));
    }

    #[test]
    fn young_requester_stalls() {
        // Older nacker, requester never blocked anyone older → stall.
        let (r, flag) = resolve_nack(Some(st(100, 1)), false, Some(st(10, 0)));
        assert_eq!(r, Resolution::Stall);
        assert!(!flag, "nacker is older; no cycle possible through it");
    }

    #[test]
    fn possible_cycle_aborts() {
        // Requester already NACKed someone older (flag set) and is now
        // blocked by an older transaction → deadlock possible → abort.
        let (r, _) = resolve_nack(Some(st(100, 1)), true, Some(st(10, 0)));
        assert_eq!(r, Resolution::Abort);
    }

    #[test]
    fn older_requester_makes_nacker_flag() {
        // Requester older than nacker → nacker sets possible_cycle;
        // requester (older) just stalls.
        let (r, flag) = resolve_nack(Some(st(10, 0)), false, Some(st(100, 1)));
        assert_eq!(r, Resolution::Stall);
        assert!(flag);
    }

    #[test]
    fn classic_deadlock_resolves_one_abort() {
        // T_old (ts 10) and T_young (ts 20) each hold what the other wants.
        // Step 1: T_old requests; T_young NACKs an older tx → young sets flag.
        let (r1, young_flags) = resolve_nack(Some(st(10, 0)), false, Some(st(20, 1)));
        assert_eq!(r1, Resolution::Stall);
        assert!(young_flags);
        // Step 2: T_young requests; T_old NACKs. Young's flag is set and the
        // nacker is older → young aborts; old survives.
        let (r2, old_flags) = resolve_nack(Some(st(20, 1)), young_flags, Some(st(10, 0)));
        assert_eq!(r2, Resolution::Abort);
        assert!(!old_flags);
    }

    #[test]
    fn non_transactional_requester_stalls() {
        let (r, flag) = resolve_nack(None, false, Some(st(5, 0)));
        assert_eq!(r, Resolution::Stall);
        assert!(!flag);
    }

    #[test]
    fn summary_conflict_stalls() {
        let (r, flag) = resolve_nack(Some(st(5, 0)), true, None);
        assert_eq!(r, Resolution::Stall);
        assert!(!flag);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut rng = ltse_sim::rng::Xoshiro256StarStar::new(1);
        let base = Cycle(64);
        for attempt in 0..20 {
            let b = abort_backoff(&mut rng, base, 4, attempt);
            let window = 64u64 << attempt.min(4);
            assert!(b.as_u64() < window, "draw within window");
            assert!(b.as_u64() < 64u64 << 4, "capped window");
        }
    }

    #[test]
    fn requester_aborts_policy_always_aborts_transactions() {
        let (r, _) = resolve_nack_with(
            ContentionPolicy::RequesterAborts,
            Some(st(5, 0)),
            false,
            Some(st(99, 1)),
            0,
            0,
        );
        assert_eq!(r, Resolution::Abort);
        // …but non-transactional requesters still just retry.
        let (r, _) = resolve_nack_with(
            ContentionPolicy::RequesterAborts,
            None,
            false,
            Some(st(5, 0)),
            0,
            0,
        );
        assert_eq!(r, Resolution::Stall);
    }

    #[test]
    fn size_matters_spares_the_bigger_transaction() {
        // Deadlock-possible situation; requester has MORE invested work →
        // it stalls (the other side's rule will fire instead).
        let (r, _) = resolve_nack_with(
            ContentionPolicy::SizeMatters,
            Some(st(100, 1)),
            true,
            Some(st(10, 0)),
            50,
            3,
        );
        assert_eq!(r, Resolution::Stall);
        // Less invested work → abort as usual.
        let (r, _) = resolve_nack_with(
            ContentionPolicy::SizeMatters,
            Some(st(100, 1)),
            true,
            Some(st(10, 0)),
            1,
            3,
        );
        assert_eq!(r, Resolution::Abort);
    }

    #[test]
    fn backoff_zero_base() {
        let mut rng = ltse_sim::rng::Xoshiro256StarStar::new(1);
        assert_eq!(abort_backoff(&mut rng, Cycle(0), 4, 3), Cycle::ZERO);
    }

    #[test]
    fn karma_policy_aborts_the_younger_side() {
        let (r, _) = resolve_nack_with(
            ContentionPolicy::Karma,
            Some(st(100, 1)),
            false,
            Some(st(10, 0)),
            0,
            0,
        );
        assert_eq!(r, Resolution::Abort, "younger requester loses");
        let (r, flag) = resolve_nack_with(
            ContentionPolicy::Karma,
            Some(st(10, 0)),
            false,
            Some(st(100, 1)),
            0,
            0,
        );
        assert_eq!(r, Resolution::Stall, "older requester waits");
        assert!(flag, "nacker of an older tx still flags possible_cycle");
    }

    /// Counts `ContentionPolicy` variants through an exhaustive match —
    /// adding a variant without extending `ALL` (and therefore the name
    /// round-trip below) is a compile error here, the same reflection trick
    /// `TmStats::merge`'s test uses.
    #[test]
    fn policy_all_is_exhaustive() {
        fn ordinal(p: ContentionPolicy) -> usize {
            match p {
                ContentionPolicy::RequesterStalls => 0,
                ContentionPolicy::RequesterAborts => 1,
                ContentionPolicy::SizeMatters => 2,
                ContentionPolicy::Karma => 3,
                ContentionPolicy::Adaptive => 4,
            }
        }
        assert_eq!(ContentionPolicy::ALL.len(), 5);
        for (i, p) in ContentionPolicy::ALL.into_iter().enumerate() {
            assert_eq!(ordinal(p), i, "ALL must list every variant once, in order");
            assert_eq!(p.name().parse::<ContentionPolicy>(), Ok(p));
        }
        assert!("bogus".parse::<ContentionPolicy>().is_err());
    }
}
