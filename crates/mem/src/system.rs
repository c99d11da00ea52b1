//! The composed memory system: L1s, banked L2 + directory, interconnect,
//! DRAM — with the paper's coherence-protocol changes (NACKs, sticky states,
//! directory-loss broadcasts).

use std::collections::HashSet;

use ltse_sim::rng::Mix64BuildHasher;
use ltse_sim::Cycle;

use crate::addr::{BlockAddr, WordAddr};
use crate::cache::{CacheConfig, SetAssocCache};
use crate::dir::DirEntry;
use crate::latency::LatencyConfig;
use crate::network::Grid;
use crate::oracle::{AccessKind, ConflictOracle};
use crate::stats::MemStats;
use crate::store::MemStore;

pub use crate::dir::{CoreId, MAX_CORES};

/// A global thread-context id (`core * smt_per_core + slot`).
pub type CtxId = u32;

/// The core hosting context `ctx` when each core has `smt_per_core`
/// contexts: a shift for the usual power-of-two SMT widths, a division
/// otherwise. Shared by the memory system and the TM unit, whose per-access
/// checks both map contexts to cores.
///
/// ```
/// use ltse_mem::core_of_ctx;
///
/// assert_eq!(core_of_ctx(31, 2), 15);
/// assert_eq!(core_of_ctx(7, 3), 2);
/// ```
#[inline]
pub fn core_of_ctx(ctx: CtxId, smt_per_core: u8) -> CoreId {
    let smt = u32::from(smt_per_core);
    if smt.is_power_of_two() {
        (ctx >> smt.trailing_zeros()) as CoreId
    } else {
        (ctx / smt) as CoreId
    }
}

/// L1 MESI state (Invalid ⇒ absent from the array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L1State {
    Shared,
    Exclusive,
    Modified,
}

/// One L2 line: data residency plus the embedded directory entry.
#[derive(Debug, Clone)]
struct L2Line {
    dir: DirEntry,
}

/// Where a completed access's data came from — determines (and explains) its
/// latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// L1 hit.
    L1,
    /// Satisfied by the shared L2.
    L2,
    /// Went off-chip.
    Dram,
    /// Cache-to-cache transfer from a remote L1.
    RemoteL1,
}

/// A successfully completed access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessDone {
    /// Total cycles from issue to completion.
    pub latency: Cycle,
    /// Whether the L1 satisfied the access directly.
    pub l1_hit: bool,
    /// Which level supplied the data.
    pub source: DataSource,
}

/// Outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The access completed and all protocol state was updated.
    Done(AccessDone),
    /// The access was NACKed by a conflicting transaction and changed no
    /// cache or directory state. The requester should stall and retry
    /// (LogTM conflict resolution); `nacker` identifies the conflicting
    /// thread context for timestamp comparison.
    Nacked {
        /// Cycles burned on the failed round trip.
        latency: Cycle,
        /// The thread context whose signature caused the NACK.
        nacker: CtxId,
    },
}

impl AccessOutcome {
    /// The latency regardless of outcome.
    pub fn latency(&self) -> Cycle {
        match *self {
            AccessOutcome::Done(d) => d.latency,
            AccessOutcome::Nacked { latency, .. } => latency,
        }
    }

    /// Whether the access completed.
    pub fn is_done(&self) -> bool {
        matches!(self, AccessOutcome::Done(_))
    }
}

/// An eviction that, with sticky states disabled (ablation A2), silently
/// dropped conflict-detection coverage for a transactional block. The TM
/// layer must conservatively abort the affected transactions, which is
/// exactly what cache-resident HTMs do on overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowEvent {
    /// The core whose transactional block lost coverage.
    pub core: CoreId,
    /// The victim block.
    pub block: BlockAddr,
}

/// Which coherence substrate the CMP uses (paper §5 vs. §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoherenceKind {
    /// The paper's §5 baseline: a MESI directory embedded in the inclusive
    /// L2, extended with NACKs, sticky states, and directory-loss
    /// broadcasts.
    DirectoryMesi,
    /// The paper's §7 "A Snooping CMP": every miss broadcasts to all L1s,
    /// which answer over wired-OR owner/shared/**nack** signals. No sticky
    /// states or directory-loss machinery are needed — victimization never
    /// affects conflict detection because every request reaches every
    /// signature anyway — at the cost of broadcast bandwidth on every miss.
    SnoopingMesi,
}

impl std::fmt::Display for CoherenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CoherenceKind::DirectoryMesi => "directory",
            CoherenceKind::SnoopingMesi => "snooping",
        })
    }
}

/// Memory-system configuration (the paper's Table 1 by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Number of cores (≤ [`MAX_CORES`]; the paper uses 16, the scale
    /// sweeps go to 256).
    pub n_cores: u16,
    /// Hardware thread contexts per core (the paper uses 2-way SMT).
    pub smt_per_core: u8,
    /// Private L1 data cache geometry (paper: 32 KB 4-way ⇒ 128 sets × 4).
    pub l1: CacheConfig,
    /// Per-bank L2 geometry (paper: 8 MB 8-way over 16 banks ⇒ 1024 sets × 8
    /// per bank).
    pub l2_bank: CacheConfig,
    /// Number of address-interleaved L2 banks (paper: 16; scaled configs
    /// use one bank per core).
    pub n_banks: u16,
    /// Interconnect mesh width (paper: 4×4 nodes hosting cores + banks).
    pub grid_width: usize,
    /// Interconnect mesh height.
    pub grid_height: usize,
    /// Latency parameters.
    pub latency: LatencyConfig,
    /// Whether LogTM sticky states are enabled (ablation A2 turns them off;
    /// irrelevant under snooping coherence).
    pub sticky_enabled: bool,
    /// Coherence substrate (paper §5 directory vs. §7 snooping).
    pub coherence: CoherenceKind,
    /// Number of chips the cores and L2 banks are partitioned over
    /// (paper §7 "Multiple CMPs"; 1 = the single-CMP baseline).
    pub n_chips: u8,
    /// Extra latency for each message that crosses a chip boundary.
    pub interchip_link: Cycle,
}

impl MemConfig {
    /// The paper's baseline CMP (Table 1): 16 cores × 2 SMT, 32 KB 4-way
    /// L1s, 8 MB 8-way L2 in 16 banks, 4×4 grid.
    pub fn paper_cmp() -> Self {
        MemConfig {
            n_cores: 16,
            smt_per_core: 2,
            l1: CacheConfig::new(128, 4),
            l2_bank: CacheConfig::new(1024, 8),
            n_banks: 16,
            grid_width: 4,
            grid_height: 4,
            latency: LatencyConfig::paper_table1(),
            sticky_enabled: true,
            coherence: CoherenceKind::DirectoryMesi,
            n_chips: 1,
            interchip_link: Cycle(50),
        }
    }

    /// The §7 "Multiple CMPs" system, scaled to fit the 32-context design:
    /// 4 chips × 8 cores (the paper sketches 4 × 16), point-to-point
    /// inter-chip links, intra-chip coherence as in §5, inter-chip requests
    /// paying the crossing latency.
    pub fn paper_multi_cmp() -> Self {
        MemConfig {
            n_chips: 4,
            ..Self::paper_cmp()
        }
    }

    /// The §7 snooping variant of the paper CMP: same cores and caches,
    /// broadcast coherence instead of the directory.
    pub fn paper_snooping_cmp() -> Self {
        MemConfig {
            coherence: CoherenceKind::SnoopingMesi,
            ..Self::paper_cmp()
        }
    }

    /// A scaled-out CMP for the 64–256-core sweeps: `n_cores` cores with
    /// one L2 bank per core, paper Table 1 cache geometry per core/bank
    /// (so aggregate L2 capacity grows with core count), and the smallest
    /// square mesh that hosts every core and bank (8×8 at 64 cores,
    /// 12×12 at 128, 16×16 at 256).
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is 0 or exceeds [`MAX_CORES`], or if
    /// `smt_per_core` is 0.
    pub fn scaled_cmp(n_cores: u16, smt_per_core: u8) -> Self {
        assert!(
            n_cores > 0 && (n_cores as usize) <= MAX_CORES,
            "scaled_cmp needs 1..={MAX_CORES} cores"
        );
        assert!(smt_per_core > 0, "scaled_cmp needs at least 1 SMT slot");
        let side = (1..).find(|s| s * s >= n_cores as usize).unwrap();
        MemConfig {
            n_cores,
            smt_per_core,
            n_banks: n_cores,
            grid_width: side,
            grid_height: side,
            ..Self::paper_cmp()
        }
    }

    /// A tiny configuration for unit tests: 4 cores × 2 SMT, 4-set 2-way
    /// L1s (8 blocks!) so eviction paths are easy to trigger.
    pub fn small_for_tests() -> Self {
        MemConfig {
            n_cores: 4,
            smt_per_core: 2,
            l1: CacheConfig::new(4, 2),
            l2_bank: CacheConfig::new(16, 2),
            n_banks: 2,
            grid_width: 2,
            grid_height: 2,
            latency: LatencyConfig::uniform_for_tests(),
            sticky_enabled: true,
            coherence: CoherenceKind::DirectoryMesi,
            n_chips: 1,
            interchip_link: Cycle(20),
        }
    }

    /// Total hardware thread contexts.
    pub fn n_ctxs(&self) -> u32 {
        self.n_cores as u32 * self.smt_per_core as u32
    }

    /// The global context id of `slot` on `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` or `slot` is out of range.
    pub fn ctx(&self, core: CoreId, slot: u8) -> CtxId {
        assert!(core < self.n_cores, "core {core} out of range");
        assert!(slot < self.smt_per_core, "SMT slot {slot} out of range");
        core as u32 * self.smt_per_core as u32 + slot as u32
    }

    /// The core hosting a global context id.
    pub fn core_of(&self, ctx: CtxId) -> CoreId {
        core_of_ctx(ctx, self.smt_per_core)
    }

    /// All context ids on `core`.
    pub fn ctxs_on_core(&self, core: CoreId) -> impl Iterator<Item = CtxId> + '_ {
        let base = core as u32 * self.smt_per_core as u32;
        base..base + self.smt_per_core as u32
    }

    fn validate(&self) {
        assert!(
            self.n_cores > 0 && (self.n_cores as usize) <= MAX_CORES,
            "1..={MAX_CORES} cores"
        );
        assert!(self.smt_per_core > 0, "need at least one context per core");
        assert!(self.n_banks > 0, "need at least one L2 bank");
        assert!(self.n_chips > 0, "need at least one chip");
        assert_eq!(
            self.n_cores % self.n_chips as u16,
            0,
            "chips must hold equal core counts"
        );
        assert_eq!(
            self.n_banks % self.n_chips as u16,
            0,
            "chips must hold equal bank counts"
        );
        assert!(
            self.grid_width * self.grid_height >= self.n_cores.max(self.n_banks) as usize,
            "grid too small for cores/banks"
        );
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::paper_cmp()
    }
}

/// The simulated memory system. See the crate docs for the model.
#[derive(Debug)]
pub struct MemorySystem {
    config: MemConfig,
    grid: Grid,
    /// Mesh `(x, y)` of every node that hosts a core or a bank, so message
    /// latencies need no division on the request path.
    node_xy: Vec<(u32, u32)>,
    /// The chip hosting each core (cores are partitioned contiguously).
    core_chip: Vec<u8>,
    /// The chip hosting each L2 bank.
    bank_chip: Vec<u8>,
    l1s: Vec<SetAssocCache<L1State>>,
    l2_banks: Vec<SetAssocCache<L2Line>>,
    /// Blocks whose directory state was lost to an L2 eviction while
    /// transactional; accesses must broadcast until one succeeds.
    lost: HashSet<BlockAddr, Mix64BuildHasher>,
    /// Blocks that have ever been fetched (cold-miss classification).
    touched: HashSet<BlockAddr, Mix64BuildHasher>,
    store: MemStore,
    stats: MemStats,
    overflow_events: Vec<OverflowEvent>,
}

impl MemorySystem {
    /// Builds an empty (cold-cache) memory system.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (zero cores, grid smaller than
    /// the core/bank count, …).
    pub fn new(config: MemConfig) -> Self {
        config.validate();
        let grid = Grid::new(config.grid_width, config.grid_height, config.latency.link);
        let hosted = config.n_cores.max(config.n_banks) as usize;
        let width = config.grid_width;
        let cores_per_chip = config.n_cores / u16::from(config.n_chips);
        let banks_per_chip = config.n_banks / u16::from(config.n_chips);
        MemorySystem {
            config,
            grid,
            node_xy: (0..hosted)
                .map(|n| ((n % width) as u32, (n / width) as u32))
                .collect(),
            core_chip: (0..config.n_cores)
                .map(|c| (c / cores_per_chip) as u8)
                .collect(),
            bank_chip: (0..config.n_banks)
                .map(|b| (b / banks_per_chip) as u8)
                .collect(),
            l1s: (0..config.n_cores)
                .map(|_| SetAssocCache::new(config.l1))
                .collect(),
            l2_banks: (0..config.n_banks)
                .map(|_| SetAssocCache::new(config.l2_bank))
                .collect(),
            lost: HashSet::default(),
            touched: HashSet::default(),
            store: MemStore::new(),
            stats: MemStats::new(),
            overflow_events: Vec::new(),
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Zeroes the statistics while keeping all cache/directory state warm
    /// (steady-state measurement boundary).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::new();
    }

    /// Reads a word from the flat data store (no timing; timing comes from
    /// [`MemorySystem::access`] on the containing block).
    pub fn read_word(&self, addr: WordAddr) -> u64 {
        self.store.read(addr)
    }

    /// Writes a word in place (eager version management's "new value").
    pub fn write_word(&mut self, addr: WordAddr, value: u64) {
        self.store.write(addr, value);
    }

    /// Atomic read-modify-write on a word, returning `(old, new)`.
    pub fn update_word(&mut self, addr: WordAddr, f: impl FnOnce(u64) -> u64) -> (u64, u64) {
        self.store.update(addr, f)
    }

    /// Whether any overflow events are waiting to be drained.
    #[inline]
    pub fn has_overflow_events(&self) -> bool {
        !self.overflow_events.is_empty()
    }

    /// Drains overflow events produced while sticky states are disabled.
    pub fn take_overflow_events(&mut self) -> Vec<OverflowEvent> {
        std::mem::take(&mut self.overflow_events)
    }

    /// The L1 MESI state of `block` on `core` as a short string (tests and
    /// debugging): `"I"`, `"S"`, `"E"`, or `"M"`.
    pub fn l1_state_str(&self, core: CoreId, block: BlockAddr) -> &'static str {
        match self.l1s[core as usize].peek(&block) {
            None => "I",
            Some(L1State::Shared) => "S",
            Some(L1State::Exclusive) => "E",
            Some(L1State::Modified) => "M",
        }
    }

    /// Whether `core`'s L1 holds `block` in any valid state (side-effect
    /// free — no LRU touch). The observability layer uses this to classify
    /// a NACK as an *in-cache* conflict (the nacker's L1 still holds the
    /// block, so a cache-resident HTM would have caught it too) versus a
    /// *decoupled* conflict carried only by signatures and sticky states.
    pub fn l1_contains(&self, core: CoreId, block: BlockAddr) -> bool {
        self.l1s[core as usize].peek(&block).is_some()
    }

    /// The directory entry for `block`, if its L2 line is resident.
    pub fn dir_entry(&self, block: BlockAddr) -> Option<DirEntry> {
        let bank = self.bank_of(block);
        self.l2_banks[bank as usize].peek(&block).map(|l| l.dir.clone())
    }

    /// Whether the directory information for `block` was lost to an L2
    /// eviction of transactional data (broadcast required).
    pub fn dir_is_lost(&self, block: BlockAddr) -> bool {
        self.lost.contains(&block)
    }

    /// The L2 bank a block interleaves to: a mask for power-of-two bank
    /// counts (every shipped configuration), a remainder otherwise.
    #[inline]
    fn bank_of(&self, block: BlockAddr) -> u16 {
        let n = u64::from(self.config.n_banks);
        if n.is_power_of_two() {
            (block.0 & (n - 1)) as u16
        } else {
            (block.0 % n) as u16
        }
    }

    /// Grid node hosting a core. Node *i* hosts core *i* and bank *i*: the
    /// configuration is validated to have at least as many nodes as cores
    /// and banks.
    #[inline]
    fn core_node(&self, core: CoreId) -> usize {
        core as usize
    }

    #[inline]
    fn bank_node(&self, bank: u16) -> usize {
        bank as usize
    }

    /// Latency of one message between two nodes: Manhattan hops on the mesh
    /// times the link latency (what [`Grid::latency`] computes, from the
    /// coordinate table).
    #[inline]
    fn net(&self, a: usize, b: usize) -> Cycle {
        let ((ax, ay), (bx, by)) = (self.node_xy[a], self.node_xy[b]);
        Cycle(u64::from(ax.abs_diff(bx) + ay.abs_diff(by)) * self.config.latency.link.as_u64())
    }

    /// The chip hosting a core.
    #[inline]
    fn chip_of_core(&self, core: CoreId) -> u8 {
        self.core_chip[core as usize]
    }

    /// The chip hosting an L2 bank.
    #[inline]
    fn chip_of_bank(&self, bank: u16) -> u8 {
        self.bank_chip[bank as usize]
    }

    /// Inter-chip crossing penalty between a core and a bank, with message
    /// accounting (paper §7 "Multiple CMPs": a point-to-point network
    /// connects the chips).
    fn interchip_core_bank(&mut self, core: CoreId, bank: u16) -> Cycle {
        if self.chip_of_core(core) != self.chip_of_bank(bank) {
            self.stats.interchip_messages.inc();
            self.config.interchip_link
        } else {
            Cycle::ZERO
        }
    }

    /// Inter-chip crossing penalty between two cores.
    fn interchip_core_core(&mut self, a: CoreId, b: CoreId) -> Cycle {
        if self.chip_of_core(a) != self.chip_of_core(b) {
            self.stats.interchip_messages.inc();
            self.config.interchip_link
        } else {
            Cycle::ZERO
        }
    }

    /// Worst-case crossing penalty for a broadcast originating at `core`
    /// (zero on a single chip; one crossing otherwise — fan-out crossings
    /// happen in parallel but each costs a message).
    fn interchip_broadcast(&mut self, core: CoreId) -> Cycle {
        if self.config.n_chips > 1 {
            self.stats
                .interchip_messages
                .add(self.config.n_chips as u64 - 1);
            let _ = core;
            self.config.interchip_link
        } else {
            Cycle::ZERO
        }
    }

    /// One memory access by thread context `requester` to `block`.
    ///
    /// Resolves the full coherence transaction atomically (see crate docs)
    /// and returns either completion (with total latency) or a NACK (no
    /// state changed). Signature checks are delegated to `oracle`.
    ///
    /// # Panics
    ///
    /// Panics if `requester` is out of range for the configuration.
    pub fn access(
        &mut self,
        requester: CtxId,
        kind: AccessKind,
        block: BlockAddr,
        oracle: &dyn ConflictOracle,
    ) -> AccessOutcome {
        assert!(requester < self.config.n_ctxs(), "ctx out of range");
        let core = self.config.core_of(requester);
        let lat = self.config.latency;

        // ---- L1 lookup -------------------------------------------------
        let l1_state = self.l1s[core as usize].peek(&block).copied();
        let l1_would_hit = matches!(
            (kind, l1_state),
            (AccessKind::Load, Some(_))
                | (AccessKind::Store, Some(L1State::Modified | L1State::Exclusive))
        );
        // An L1 hit issues no coherence request, but LogTM-SE checks
        // signatures on *every* reference, not just misses: a same-core SMT
        // sibling's transaction must still isolate the line. Without this
        // check the hit path would bypass conflict detection entirely
        // whenever two contexts share an L1.
        if l1_would_hit {
            if let Some(nacker) = oracle.check_core(core, kind, block, requester) {
                self.stats.nacks.inc();
                return AccessOutcome::Nacked {
                    latency: lat.l1_hit,
                    nacker,
                };
            }
        }
        match (kind, l1_state) {
            (AccessKind::Load, Some(_)) => {
                self.l1s[core as usize].get(&block); // LRU touch
                self.stats.l1_hits.inc();
                return AccessOutcome::Done(AccessDone {
                    latency: lat.l1_hit,
                    l1_hit: true,
                    source: DataSource::L1,
                });
            }
            (AccessKind::Store, Some(L1State::Modified)) => {
                self.l1s[core as usize].get(&block);
                self.stats.l1_hits.inc();
                return AccessOutcome::Done(AccessDone {
                    latency: lat.l1_hit,
                    l1_hit: true,
                    source: DataSource::L1,
                });
            }
            (AccessKind::Store, Some(L1State::Exclusive)) => {
                // Silent E→M upgrade.
                *self.l1s[core as usize].get_mut(&block).unwrap() = L1State::Modified;
                self.stats.l1_hits.inc();
                return AccessOutcome::Done(AccessDone {
                    latency: lat.l1_hit,
                    l1_hit: true,
                    source: DataSource::L1,
                });
            }
            // Store to S is an upgrade miss; anything absent is a miss.
            _ => {}
        }

        self.stats.l1_misses.inc();
        if self.config.coherence == CoherenceKind::SnoopingMesi {
            return self.access_snooping(requester, core, kind, block, oracle);
        }
        self.stats.messages.inc(); // the request itself
        let bank = self.bank_of(block);
        let crossing = self.interchip_core_bank(core, bank);
        let req_path = lat.l1_hit + self.net(self.core_node(core), self.bank_node(bank)) + crossing;
        let base = req_path + lat.directory;

        // ---- Lost directory: broadcast signature checks -----------------
        if self.lost.contains(&block) {
            return self.access_lost_block(requester, core, kind, block, bank, base, oracle);
        }

        // ---- Normal directory path --------------------------------------
        let entry = self.l2_banks[bank as usize].peek(&block).map(|l| l.dir.clone());
        match entry {
            None => self.access_l2_miss(requester, core, kind, block, bank, base, oracle),
            Some(dir) => match kind {
                AccessKind::Load => {
                    self.access_gets(requester, core, block, bank, base, dir, oracle)
                }
                AccessKind::Store => {
                    self.access_getm(requester, core, block, bank, base, dir, oracle)
                }
            },
        }
    }

    /// A miss under §7 snooping coherence: broadcast the request, gather
    /// the wired-OR owner/shared/nack responses, and resolve. Conflict
    /// detection needs no sticky states: every broadcast reaches every
    /// signature.
    #[allow(clippy::too_many_arguments)] // mirrors the request message fields
    fn access_snooping(
        &mut self,
        requester: CtxId,
        core: CoreId,
        kind: AccessKind,
        block: BlockAddr,
        oracle: &dyn ConflictOracle,
    ) -> AccessOutcome {
        let lat = self.config.latency;
        self.stats.messages.add(self.config.n_cores as u64); // bus fan-out
        let me = self.core_node(core);
        let crossing = self.interchip_broadcast(core);
        let bcast = self.grid.broadcast_latency(me) + crossing;
        let base = lat.l1_hit + bcast + lat.remote_probe;

        // Wired-OR nack signal: any conflicting signature vetoes.
        if let Some(nacker) = self.check_cores_except(core, kind, block, requester, oracle) {
            self.stats.nacks.inc();
            return AccessOutcome::Nacked {
                latency: base + bcast,
                nacker,
            };
        }

        // Owner signal: some other L1 holds the block M or E.
        let owner = (0..self.config.n_cores)
            .filter(|&c| c != core)
            .find(|&c| {
                matches!(
                    self.l1s[c as usize].peek(&block),
                    Some(L1State::Modified) | Some(L1State::Exclusive)
                )
            });
        let shared = (0..self.config.n_cores)
            .filter(|&c| c != core)
            .any(|c| self.l1s[c as usize].contains(&block));

        match kind {
            AccessKind::Load => {
                if let Some(o) = owner {
                    // Cache-to-cache transfer; owner downgrades to S.
                    self.stats.forwards.inc();
                    self.stats.messages.inc();
                    *self.l1s[o as usize].get_mut(&block).unwrap() = L1State::Shared;
                    self.l1_install(core, block, L1State::Shared, oracle);
                    return AccessOutcome::Done(AccessDone {
                        latency: base + self.net(self.core_node(o), me),
                        l1_hit: false,
                        source: DataSource::RemoteL1,
                    });
                }
                let grant = if shared {
                    L1State::Shared
                } else {
                    L1State::Exclusive
                };
                let (latency, source) = self.snoop_fill(block, base, oracle);
                self.l1_install(core, block, grant, oracle);
                AccessOutcome::Done(AccessDone {
                    latency,
                    l1_hit: false,
                    source,
                })
            }
            AccessKind::Store => {
                // Invalidate every remote copy (no conflicts were vetoed).
                let had_owner_copy = owner.is_some();
                for c in 0..self.config.n_cores {
                    if c != core && self.l1s[c as usize].remove(&block).is_some() {
                        self.stats.invalidations.inc();
                    }
                }
                let was_upgrade = self.l1s[core as usize].contains(&block);
                if was_upgrade {
                    *self.l1s[core as usize].get_mut(&block).unwrap() = L1State::Modified;
                } else {
                    self.l1_install(core, block, L1State::Modified, oracle);
                }
                if had_owner_copy {
                    let o = owner.expect("owner checked");
                    self.stats.forwards.inc();
                    return AccessOutcome::Done(AccessDone {
                        latency: base + self.net(self.core_node(o), me),
                        l1_hit: false,
                        source: DataSource::RemoteL1,
                    });
                }
                if was_upgrade {
                    return AccessOutcome::Done(AccessDone {
                        latency: base,
                        l1_hit: false,
                        source: DataSource::L1,
                    });
                }
                let (latency, source) = self.snoop_fill(block, base, oracle);
                AccessOutcome::Done(AccessDone {
                    latency,
                    l1_hit: false,
                    source,
                })
            }
        }
    }

    /// Data fill for a snooping miss with no L1 owner: from the shared L2
    /// if resident, else DRAM (allocating the L2 line).
    fn snoop_fill(
        &mut self,
        block: BlockAddr,
        base: Cycle,
        oracle: &dyn ConflictOracle,
    ) -> (Cycle, DataSource) {
        let lat = self.config.latency;
        let bank = self.bank_of(block);
        if self.l2_banks[bank as usize].get(&block).is_some() {
            self.stats.l2_hits.inc();
            (base + lat.l2_access, DataSource::L2)
        } else {
            self.count_dram(block);
            self.l2_install(block, DirEntry::new(), oracle);
            (base + lat.l2_access + lat.dram, DataSource::Dram)
        }
    }

    /// GETS/GETM to a block whose directory state was lost: broadcast to all
    /// L1s for signature checks, rebuild on success (paper §5).
    #[allow(clippy::too_many_arguments)] // mirrors the request message fields
    fn access_lost_block(
        &mut self,
        requester: CtxId,
        core: CoreId,
        kind: AccessKind,
        block: BlockAddr,
        bank: u16,
        base: Cycle,
        oracle: &dyn ConflictOracle,
    ) -> AccessOutcome {
        let lat = self.config.latency;
        self.stats.lost_dir_broadcasts.inc();
        let crossing = self.interchip_broadcast(core);
        let bcast = self.grid.broadcast_latency(self.bank_node(bank)) + crossing;
        self.stats.messages.add(self.config.n_cores as u64); // fan-out
        // Check every other core's signatures (the requester's own core is
        // covered by the TM layer's same-core checks).
        if let Some(nacker) = self.check_cores_except(core, kind, block, requester, oracle) {
            self.stats.nacks.inc();
            let nack_core = self.config.core_of(nacker);
            let latency = base
                + bcast
                + lat.remote_probe
                + self.net(self.core_node(nack_core), self.core_node(core));
            return AccessOutcome::Nacked { latency, nacker };
        }
        // Success: refetch from DRAM and rebuild the directory from the
        // broadcast responses (paper §5: "the L2 rebuilds the directory
        // state by recording the L1s' responses"). Cores whose signatures
        // still cover the block — e.g. read-set entries that do not
        // conflict with a GETS — are recorded as *sticky sharers* so future
        // requests keep forwarding signature checks to them; granting the
        // requester E here would let a silent E→M upgrade skip those
        // checks and break isolation.
        self.lost.remove(&block);
        self.count_dram(block);
        let mut dir = DirEntry::new();
        let mut covered_any = false;
        for c in 0..self.config.n_cores {
            if c != core && oracle.block_is_transactional_hw(c, block) {
                dir.add_sharer(c);
                dir.sticky = true;
                covered_any = true;
            }
        }
        let l1_state = match kind {
            AccessKind::Load if covered_any => {
                dir.add_sharer(core);
                L1State::Shared
            }
            AccessKind::Load => {
                dir.owner = Some(core);
                L1State::Exclusive
            }
            AccessKind::Store => {
                // A store that passed the checks may still see cross-ASID
                // aliasing coverage; keep those cores as sticky sharers so
                // later requests re-check them.
                dir.owner = Some(core);
                L1State::Modified
            }
        };
        self.l2_install(block, dir, oracle);
        self.l1_install(core, block, l1_state, oracle);
        let latency = base
            + bcast + bcast // out and back, worst case
            + lat.remote_probe
            + lat.l2_access
            + lat.dram
            + self.net(self.bank_node(bank), self.core_node(core));
        AccessOutcome::Done(AccessDone {
            latency,
            l1_hit: false,
            source: DataSource::Dram,
        })
    }

    /// Plain L2 miss (no directory entry, nothing lost): fetch from DRAM.
    #[allow(clippy::too_many_arguments)] // mirrors the request message fields
    fn access_l2_miss(
        &mut self,
        _requester: CtxId,
        core: CoreId,
        kind: AccessKind,
        block: BlockAddr,
        bank: u16,
        base: Cycle,
        oracle: &dyn ConflictOracle,
    ) -> AccessOutcome {
        let lat = self.config.latency;
        self.count_dram(block);
        let dir = DirEntry::owned_by(core);
        self.l2_install(block, dir, oracle);
        let l1_state = match kind {
            AccessKind::Load => L1State::Exclusive,
            AccessKind::Store => L1State::Modified,
        };
        self.l1_install(core, block, l1_state, oracle);
        let latency =
            base + lat.l2_access + lat.dram + self.net(self.bank_node(bank), self.core_node(core));
        AccessOutcome::Done(AccessDone {
            latency,
            l1_hit: false,
            source: DataSource::Dram,
        })
    }

    /// GETS with a live directory entry.
    #[allow(clippy::too_many_arguments)] // mirrors the request message fields
    fn access_gets(
        &mut self,
        requester: CtxId,
        core: CoreId,
        block: BlockAddr,
        bank: u16,
        base: Cycle,
        dir: DirEntry,
        oracle: &dyn ConflictOracle,
    ) -> AccessOutcome {
        let lat = self.config.latency;

        // Directory rebuilt after an earlier NACK: keep checking everyone
        // until a request succeeds.
        if dir.check_all {
            if let Some(nacker) = self.check_cores_except(core, AccessKind::Load, block, requester, oracle)
            {
                return self.nack(core, bank, base, nacker);
            }
        }

        match dir.owner {
            Some(owner) if owner != core => {
                // Forward to the exclusive owner for a write-signature check.
                self.stats.forwards.inc();
                self.stats.messages.add(2); // fwd + response
                if let Some(nacker) =
                    oracle.check_core(owner, AccessKind::Load, block, requester)
                {
                    return self.nack_via(core, bank, owner, base, nacker);
                }
                let owner_has_it = self.l1s[owner as usize].contains(&block);
                let mut new_dir = dir;
                new_dir.owner = None;
                new_dir.add_sharer(core);
                new_dir.check_all = false;
                let (latency, source) = if owner_has_it {
                    // Downgrade M/E → S with an implicit writeback.
                    *self.l1s[owner as usize].get_mut(&block).unwrap() = L1State::Shared;
                    new_dir.add_sharer(owner);
                    (
                        base + self.fwd_path(core, bank, owner) ,
                        DataSource::RemoteL1,
                    )
                } else {
                    // Sticky owner: no data there; it stays a (sticky)
                    // sharer so future GETMs still check its signature.
                    new_dir.add_sharer(owner);
                    (
                        base + self.fwd_path(core, bank, owner)
                            + lat.l2_access,
                        DataSource::L2,
                    )
                };
                self.set_dir(block, new_dir);
                self.l1_install(core, block, L1State::Shared, oracle);
                AccessOutcome::Done(AccessDone {
                    latency,
                    l1_hit: false,
                    source,
                })
            }
            Some(_owner_is_self) if dir.owner == Some(core) => {
                // We own it but evicted it (possibly sticky): refill from L2.
                let mut new_dir = dir;
                new_dir.sticky = false;
                new_dir.check_all = false;
                self.set_dir(block, new_dir);
                self.l1_install(core, block, L1State::Exclusive, oracle);
                self.stats.l2_hits.inc();
                let latency = base
                    + lat.l2_access
                    + self.net(self.bank_node(bank), self.core_node(core));
                AccessOutcome::Done(AccessDone {
                    latency,
                    l1_hit: false,
                    source: DataSource::L2,
                })
            }
            _ => {
                // Shared or uncached: data from L2.
                let mut new_dir = dir;
                new_dir.check_all = false;
                if new_dir.is_uncached() {
                    new_dir.owner = Some(core); // sole copy ⇒ E
                } else {
                    new_dir.add_sharer(core);
                }
                let grant = if new_dir.owner == Some(core) {
                    L1State::Exclusive
                } else {
                    L1State::Shared
                };
                self.set_dir(block, new_dir);
                self.l1_install(core, block, grant, oracle);
                self.stats.l2_hits.inc();
                let latency = base
                    + lat.l2_access
                    + self.net(self.bank_node(bank), self.core_node(core));
                AccessOutcome::Done(AccessDone {
                    latency,
                    l1_hit: false,
                    source: DataSource::L2,
                })
            }
        }
    }

    /// GETM with a live directory entry.
    #[allow(clippy::too_many_arguments)] // mirrors the request message fields
    fn access_getm(
        &mut self,
        requester: CtxId,
        core: CoreId,
        block: BlockAddr,
        bank: u16,
        base: Cycle,
        dir: DirEntry,
        oracle: &dyn ConflictOracle,
    ) -> AccessOutcome {
        let lat = self.config.latency;

        if dir.check_all {
            if let Some(nacker) =
                self.check_cores_except(core, AccessKind::Store, block, requester, oracle)
            {
                return self.nack(core, bank, base, nacker);
            }
        }

        // Every core the directory names (owner + sharers, possibly sticky)
        // gets a signature check before any invalidation happens.
        let targets = dir.forward_targets(core);
        for t in targets {
            self.stats.messages.inc();
            if let Some(nacker) = oracle.check_core(t, AccessKind::Store, block, requester) {
                self.stats.forwards.inc();
                return self.nack_via(core, bank, t, base, nacker);
            }
        }

        // No conflicts: invalidate every remote copy and take ownership.
        let mut had_remote_owner_copy = false;
        for t in targets {
            if self.l1s[t as usize].remove(&block).is_some() {
                self.stats.invalidations.inc();
                if dir.owner == Some(t) {
                    had_remote_owner_copy = true;
                }
            }
        }
        let was_upgrade = self.l1s[core as usize].contains(&block);
        let mut new_dir = DirEntry::owned_by(core);
        new_dir.check_all = false;
        self.set_dir(block, new_dir);
        if was_upgrade {
            *self.l1s[core as usize].get_mut(&block).unwrap() = L1State::Modified;
        } else {
            self.l1_install(core, block, L1State::Modified, oracle);
        }

        let worst_target = targets
            .map(|t| self.fwd_path(core, bank, t))
            .max()
            .unwrap_or(Cycle::ZERO);
        let (latency, source) = if had_remote_owner_copy {
            (base + worst_target, DataSource::RemoteL1)
        } else if was_upgrade && targets.is_empty() {
            (base + self.net(self.bank_node(bank), self.core_node(core)), DataSource::L1)
        } else {
            self.stats.l2_hits.inc();
            (
                base + worst_target.max(
                    lat.l2_access + self.net(self.bank_node(bank), self.core_node(core)),
                ),
                DataSource::L2,
            )
        };
        AccessOutcome::Done(AccessDone {
            latency,
            l1_hit: false,
            source,
        })
    }

    /// Records a DRAM access, classifying it as cold (first touch ever) or
    /// a capacity/conflict refetch.
    fn count_dram(&mut self, block: BlockAddr) {
        self.stats.dram_accesses.inc();
        if self.touched.insert(block) {
            self.stats.cold_misses.inc();
        }
    }

    /// Latency of bank → target probe → requester, including inter-chip
    /// crossings.
    fn fwd_path(&mut self, core: CoreId, bank: u16, target: CoreId) -> Cycle {
        let to_target = self.interchip_core_bank(target, bank);
        let back = self.interchip_core_core(target, core);
        self.net(self.bank_node(bank), self.core_node(target))
            + self.config.latency.remote_probe
            + self.net(self.core_node(target), self.core_node(core))
            + to_target
            + back
    }

    fn nack(&mut self, core: CoreId, bank: u16, base: Cycle, nacker: CtxId) -> AccessOutcome {
        let nack_core = self.config.core_of(nacker);
        self.nack_via(core, bank, nack_core, base, nacker)
    }

    fn nack_via(
        &mut self,
        core: CoreId,
        bank: u16,
        via: CoreId,
        base: Cycle,
        nacker: CtxId,
    ) -> AccessOutcome {
        self.stats.nacks.inc();
        self.stats.messages.inc();
        let latency = base + self.fwd_path(core, bank, via);
        AccessOutcome::Nacked { latency, nacker }
    }

    fn check_cores_except(
        &self,
        except_core: CoreId,
        kind: AccessKind,
        block: BlockAddr,
        requester: CtxId,
        oracle: &dyn ConflictOracle,
    ) -> Option<CtxId> {
        (0..self.config.n_cores)
            .filter(|&c| c != except_core)
            .find_map(|c| oracle.check_core(c, kind, block, requester))
    }

    fn set_dir(&mut self, block: BlockAddr, dir: DirEntry) {
        let bank = self.bank_of(block);
        if let Some(line) = self.l2_banks[bank as usize].get_mut(&block) {
            line.dir = dir;
        } else {
            // Entry must exist when called from the hit paths; for rebuilds
            // l2_install is used instead.
            unreachable!("set_dir on a non-resident block");
        }
    }

    /// Installs a block in an L1, handling the eviction side effects
    /// (sticky directory, victimization stats, overflow events).
    fn l1_install(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        state: L1State,
        oracle: &dyn ConflictOracle,
    ) {
        if let Some((victim, victim_state)) = self.l1s[core as usize].insert(block, state) {
            self.handle_l1_eviction(core, victim, victim_state, oracle);
        }
    }

    fn handle_l1_eviction(
        &mut self,
        core: CoreId,
        victim: BlockAddr,
        victim_state: L1State,
        oracle: &dyn ConflictOracle,
    ) {
        self.stats.l1_evictions.inc();
        let tx_hw = oracle.block_is_transactional_hw(core, victim);
        let tx_exact = oracle.block_is_transactional_exact(core, victim);
        if tx_exact {
            self.stats.l1_tx_evictions_exact.inc();
        }
        if tx_hw {
            self.stats.l1_tx_evictions_hw.inc();
        }

        if self.config.coherence == CoherenceKind::SnoopingMesi {
            // Victimization has no effect on conflict detection (every
            // request is broadcast anyway, §7); just write dirty data home.
            if matches!(victim_state, L1State::Modified) {
                let bank = self.bank_of(victim);
                self.l2_banks[bank as usize].insert(victim, L2Line { dir: DirEntry::new() });
                self.stats.messages.inc();
            }
            return;
        }

        if tx_hw && self.config.sticky_enabled {
            // Sticky: leave the directory unchanged so requests keep
            // forwarding here for signature checks (paper §3.1/§5).
            let bank = self.bank_of(victim);
            if let Some(line) = self.l2_banks[bank as usize].get_mut(&victim) {
                line.dir.sticky = true;
            }
            return;
        }

        if tx_hw && !self.config.sticky_enabled {
            // Ablation A2: coverage lost; the TM layer must abort.
            self.overflow_events.push(OverflowEvent {
                core,
                block: victim,
            });
        }

        // Clean (non-sticky) eviction: M writes back, E sends the pointer
        // update control message, S is silent (paper §5).
        let bank = self.bank_of(victim);
        if let Some(line) = self.l2_banks[bank as usize].get_mut(&victim) {
            match victim_state {
                L1State::Modified | L1State::Exclusive => {
                    if line.dir.owner == Some(core) {
                        line.dir.owner = None;
                    }
                    self.stats.messages.inc(); // writeback / pointer update
                }
                L1State::Shared => { /* silent */ }
            }
        }
    }

    /// Installs an L2 line (with directory entry), handling L2 eviction:
    /// inclusion invalidations, lost-directory marking, victimization stats.
    fn l2_install(&mut self, block: BlockAddr, dir: DirEntry, oracle: &dyn ConflictOracle) {
        let bank = self.bank_of(block);
        if let Some((victim, _line)) = self.l2_banks[bank as usize].insert(block, L2Line { dir }) {
            self.handle_l2_eviction(victim, oracle);
        }
    }

    fn handle_l2_eviction(&mut self, victim: BlockAddr, oracle: &dyn ConflictOracle) {
        self.stats.l2_evictions.inc();
        if self.config.coherence == CoherenceKind::SnoopingMesi {
            // Non-inclusive under snooping: L1 copies stay valid (the bus,
            // not the L2, is the point of coherence), and no directory
            // state exists to lose.
            return;
        }
        // Inclusion: invalidate all L1 copies.
        for c in 0..self.config.n_cores {
            self.l1s[c as usize].remove(&victim);
        }
        let mut tx_hw_any = false;
        let mut tx_exact_any = false;
        for c in 0..self.config.n_cores {
            if oracle.block_is_transactional_hw(c, victim) {
                tx_hw_any = true;
                if !self.config.sticky_enabled {
                    self.overflow_events.push(OverflowEvent {
                        core: c,
                        block: victim,
                    });
                }
            }
            if oracle.block_is_transactional_exact(c, victim) {
                tx_exact_any = true;
            }
        }
        if tx_exact_any {
            self.stats.l2_tx_evictions_exact.inc();
        }
        if tx_hw_any {
            self.stats.l2_tx_evictions_hw.inc();
            if self.config.sticky_enabled {
                // Directory info lost; subsequent misses must broadcast.
                self.lost.insert(victim);
            }
        }
    }

    /// Marks `block` as having unknown directory coverage: the next access
    /// broadcasts signature checks to all L1s and rebuilds the directory.
    /// Used by the OS after relocating a page whose new physical blocks are
    /// covered by rehashed signatures (paper §4.2) — without this, a cold
    /// miss would grant exclusive ownership without consulting anyone.
    pub fn mark_block_lost(&mut self, block: BlockAddr) {
        self.lost.insert(block);
    }

    /// Invalidates every cached copy (L1s and L2) of `block` without
    /// writeback side effects — the OS's cache shoot-down when a physical
    /// page is repurposed.
    pub fn invalidate_block_everywhere(&mut self, block: BlockAddr) {
        for c in 0..self.config.n_cores {
            self.l1s[c as usize].remove(&block);
        }
        let bank = self.bank_of(block);
        self.l2_banks[bank as usize].remove(&block);
    }

    /// Marks the directory entry for `block` as requiring signature checks
    /// on all subsequent requests (used after a rebuilt-directory request is
    /// NACKed, paper §5). No-op if the block is not L2-resident.
    pub fn set_check_all(&mut self, block: BlockAddr) {
        let bank = self.bank_of(block);
        if let Some(line) = self.l2_banks[bank as usize].get_mut(&block) {
            line.dir.check_all = true;
        }
    }

    /// Total L1-resident blocks across all cores (diagnostics).
    pub fn l1_resident_blocks(&self) -> usize {
        self.l1s.iter().map(|c| c.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::NullOracle;
    use std::cell::RefCell;

    /// A programmable oracle for protocol tests.
    #[derive(Default)]
    struct FakeOracle {
        /// (core, block) pairs whose signature NACKs stores.
        write_conflicts: Vec<(u16, u64, u32)>, // core, block, nacking ctx
        /// (core, block) pairs whose signature NACKs loads (write-set hits).
        read_conflicts: Vec<(u16, u64, u32)>,
        /// Blocks considered hw-transactional per core.
        tx_blocks: Vec<(u16, u64)>,
        checks: RefCell<u64>,
    }

    impl ConflictOracle for FakeOracle {
        fn check_core(
            &self,
            core: u16,
            kind: AccessKind,
            block: BlockAddr,
            requester_ctx: u32,
        ) -> Option<u32> {
            *self.checks.borrow_mut() += 1;
            let list = match kind {
                AccessKind::Load => &self.read_conflicts,
                AccessKind::Store => &self.write_conflicts,
            };
            list.iter()
                .find(|&&(c, b, n)| c == core && b == block.0 && n != requester_ctx)
                .map(|&(_, _, n)| n)
        }

        fn block_is_transactional_hw(&self, core: u16, block: BlockAddr) -> bool {
            self.tx_blocks.iter().any(|&(c, b)| c == core && b == block.0)
        }

        fn block_is_transactional_exact(&self, core: u16, block: BlockAddr) -> bool {
            self.block_is_transactional_hw(core, block)
        }
    }

    fn sys() -> MemorySystem {
        MemorySystem::new(MemConfig::small_for_tests())
    }

    #[test]
    fn miss_classification_separates_cold_from_refetch() {
        let mut m = sys();
        let o = NullOracle;
        let c0 = m.config().ctx(0, 0);
        // First touch: cold. Evict it from the tiny L2 (bank 0, set 0 via
        // blocks 0/32/64), then refetch: DRAM again but NOT cold.
        m.access(c0, AccessKind::Load, BlockAddr(0), &o);
        m.access(c0, AccessKind::Load, BlockAddr(32), &o);
        m.access(c0, AccessKind::Load, BlockAddr(64), &o);
        m.access(c0, AccessKind::Load, BlockAddr(0), &o); // refetch
        assert_eq!(m.stats().cold_misses.get(), 3);
        assert!(m.stats().dram_accesses.get() >= 4);
        assert!(m.stats().warm_dram_refetches() >= 1);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut m = sys();
        let ctx = m.config().ctx(0, 0);
        let o = NullOracle;
        let a = m.access(ctx, AccessKind::Load, BlockAddr(5), &o);
        let b = m.access(ctx, AccessKind::Load, BlockAddr(5), &o);
        match (a, b) {
            (AccessOutcome::Done(a), AccessOutcome::Done(b)) => {
                assert!(!a.l1_hit);
                assert_eq!(a.source, DataSource::Dram);
                assert!(b.l1_hit);
                assert_eq!(b.latency, Cycle(1));
            }
            _ => panic!("unexpected NACK"),
        }
        assert_eq!(m.stats().dram_accesses.get(), 1);
        assert_eq!(m.stats().l1_hits.get(), 1);
    }

    #[test]
    fn load_grants_exclusive_then_silent_store_upgrade() {
        let mut m = sys();
        let ctx = m.config().ctx(0, 0);
        let o = NullOracle;
        m.access(ctx, AccessKind::Load, BlockAddr(7), &o);
        assert_eq!(m.l1_state_str(0, BlockAddr(7)), "E");
        let s = m.access(ctx, AccessKind::Store, BlockAddr(7), &o);
        assert!(s.is_done());
        assert_eq!(s.latency(), Cycle(1), "E→M upgrade is an L1 hit");
        assert_eq!(m.l1_state_str(0, BlockAddr(7)), "M");
    }

    #[test]
    fn two_readers_share() {
        let mut m = sys();
        let o = NullOracle;
        let c0 = m.config().ctx(0, 0);
        let c1 = m.config().ctx(1, 0);
        m.access(c0, AccessKind::Load, BlockAddr(9), &o);
        m.access(c1, AccessKind::Load, BlockAddr(9), &o);
        assert_eq!(m.l1_state_str(0, BlockAddr(9)), "S");
        assert_eq!(m.l1_state_str(1, BlockAddr(9)), "S");
        let d = m.dir_entry(BlockAddr(9)).unwrap();
        assert!(d.is_sharer(0) && d.is_sharer(1));
        assert_eq!(d.owner, None);
    }

    #[test]
    fn writer_invalidates_sharers() {
        let mut m = sys();
        let o = NullOracle;
        let c0 = m.config().ctx(0, 0);
        let c1 = m.config().ctx(1, 0);
        let c2 = m.config().ctx(2, 0);
        m.access(c0, AccessKind::Load, BlockAddr(9), &o);
        m.access(c1, AccessKind::Load, BlockAddr(9), &o);
        let w = m.access(c2, AccessKind::Store, BlockAddr(9), &o);
        assert!(w.is_done());
        assert_eq!(m.l1_state_str(0, BlockAddr(9)), "I");
        assert_eq!(m.l1_state_str(1, BlockAddr(9)), "I");
        assert_eq!(m.l1_state_str(2, BlockAddr(9)), "M");
        let d = m.dir_entry(BlockAddr(9)).unwrap();
        assert_eq!(d.owner, Some(2));
        assert_eq!(d.sharer_count(), 0);
        assert!(m.stats().invalidations.get() >= 2);
    }

    #[test]
    fn reader_downgrades_modified_owner() {
        let mut m = sys();
        let o = NullOracle;
        let c0 = m.config().ctx(0, 0);
        let c1 = m.config().ctx(1, 0);
        m.access(c0, AccessKind::Store, BlockAddr(3), &o);
        assert_eq!(m.l1_state_str(0, BlockAddr(3)), "M");
        let r = m.access(c1, AccessKind::Load, BlockAddr(3), &o);
        match r {
            AccessOutcome::Done(d) => assert_eq!(d.source, DataSource::RemoteL1),
            _ => panic!("NACK without transactions"),
        }
        assert_eq!(m.l1_state_str(0, BlockAddr(3)), "S");
        assert_eq!(m.l1_state_str(1, BlockAddr(3)), "S");
    }

    #[test]
    fn store_conflict_nacks_and_preserves_state() {
        let mut m = sys();
        let nacker_ctx = m.config().ctx(0, 0);
        let mut o = FakeOracle::default();
        // Core 0's signature covers block 3 for incoming stores.
        o.write_conflicts.push((0, 3, nacker_ctx));
        let c0 = m.config().ctx(0, 0);
        let c1 = m.config().ctx(1, 0);
        m.access(c0, AccessKind::Load, BlockAddr(3), &o); // core 0 caches it (E)
        let before = m.l1_state_str(0, BlockAddr(3));
        let w = m.access(c1, AccessKind::Store, BlockAddr(3), &o);
        match w {
            AccessOutcome::Nacked { nacker, latency } => {
                assert_eq!(nacker, nacker_ctx);
                assert!(latency > Cycle::ZERO);
            }
            _ => panic!("expected NACK"),
        }
        // No state changed by the NACKed request.
        assert_eq!(m.l1_state_str(0, BlockAddr(3)), before);
        assert_eq!(m.l1_state_str(1, BlockAddr(3)), "I");
        assert_eq!(m.stats().nacks.get(), 1);
    }

    #[test]
    fn l1_hit_consults_oracle_for_smt_sibling_conflicts() {
        let mut m = sys();
        let c00 = m.config().ctx(0, 0);
        let sibling = m.config().ctx(0, 1);
        let mut o = FakeOracle::default();
        m.access(c00, AccessKind::Load, BlockAddr(3), &o);
        assert_eq!(m.l1_state_str(0, BlockAddr(3)), "E");
        // The sibling context's transaction now covers block 3 for both
        // loads and stores. An L1 hit issues no coherence traffic, so this
        // is the only place the conflict can be caught.
        o.read_conflicts.push((0, 3, sibling));
        o.write_conflicts.push((0, 3, sibling));
        let hits_before = m.stats().l1_hits.get();
        let r = m.access(c00, AccessKind::Load, BlockAddr(3), &o);
        assert!(
            matches!(r, AccessOutcome::Nacked { nacker, latency }
                if nacker == sibling && latency == Cycle(1)),
            "L1 load hit must be screened: {r:?}"
        );
        // The NACKed hit recorded no hit and changed no state.
        assert_eq!(m.stats().l1_hits.get(), hits_before);
        assert_eq!(m.l1_state_str(0, BlockAddr(3)), "E");
        // The conflicting context itself may keep accessing its own data
        // (the oracle filters the requester).
        assert!(m.access(sibling, AccessKind::Load, BlockAddr(3), &o).is_done());
        // The silent E→M store upgrade is screened too.
        let w = m.access(c00, AccessKind::Store, BlockAddr(3), &o);
        assert!(matches!(w, AccessOutcome::Nacked { .. }));
        assert_eq!(m.l1_state_str(0, BlockAddr(3)), "E", "upgrade suppressed");
    }

    #[test]
    fn load_conflict_with_remote_write_set_nacks() {
        let mut m = sys();
        let nacker_ctx = m.config().ctx(0, 1);
        let mut o = FakeOracle::default();
        o.read_conflicts.push((0, 3, nacker_ctx));
        let c0 = m.config().ctx(0, 0);
        let c1 = m.config().ctx(1, 0);
        // Core 0 owns the block in M (wrote it transactionally).
        m.access(c0, AccessKind::Store, BlockAddr(3), &o);
        let r = m.access(c1, AccessKind::Load, BlockAddr(3), &o);
        assert!(matches!(r, AccessOutcome::Nacked { nacker, .. } if nacker == nacker_ctx));
    }

    #[test]
    fn sticky_eviction_keeps_directory_and_still_nacks() {
        let mut m = sys();
        let nacker_ctx = m.config().ctx(0, 0);
        let mut o = FakeOracle::default();
        // Core 0's tx wrote block 0; signature NACKs stores AND loads.
        o.write_conflicts.push((0, 0, nacker_ctx));
        o.read_conflicts.push((0, 0, nacker_ctx));
        o.tx_blocks.push((0, 0));
        let c0 = m.config().ctx(0, 0);
        let c1 = m.config().ctx(1, 0);
        m.access(c0, AccessKind::Store, BlockAddr(0), &o);
        assert_eq!(m.dir_entry(BlockAddr(0)).unwrap().owner, Some(0));

        // Force eviction of block 0 from core 0's tiny L1 (4 sets × 2 ways):
        // fill set 0 with two more blocks mapping to it (multiples of 4).
        m.access(c0, AccessKind::Load, BlockAddr(4), &o);
        m.access(c0, AccessKind::Load, BlockAddr(8), &o);
        assert_eq!(m.l1_state_str(0, BlockAddr(0)), "I", "victimized");
        // Sticky: the directory still names core 0 as owner.
        let d = m.dir_entry(BlockAddr(0)).unwrap();
        assert_eq!(d.owner, Some(0));
        assert!(d.sticky);
        assert_eq!(m.stats().l1_tx_evictions_hw.get(), 1);
        assert_eq!(m.stats().l1_tx_evictions_exact.get(), 1);

        // A remote load is still forwarded to core 0 and NACKed by its
        // signature even though the data is gone.
        let r = m.access(c1, AccessKind::Load, BlockAddr(0), &o);
        assert!(matches!(r, AccessOutcome::Nacked { nacker, .. } if nacker == nacker_ctx));
    }

    #[test]
    fn sticky_owner_serves_clean_block_from_l2() {
        let mut m = sys();
        let mut o = FakeOracle::default();
        // Block is transactional (gets sticky treatment on eviction) but the
        // signature does NOT conflict with loads (only in read-set, say).
        o.tx_blocks.push((0, 0));
        let c0 = m.config().ctx(0, 0);
        let c1 = m.config().ctx(1, 0);
        m.access(c0, AccessKind::Store, BlockAddr(0), &o);
        m.access(c0, AccessKind::Load, BlockAddr(4), &o);
        m.access(c0, AccessKind::Load, BlockAddr(8), &o);
        assert!(m.dir_entry(BlockAddr(0)).unwrap().sticky);

        // Remote load: forwarded, no conflict, data supplied by L2, and the
        // sticky owner remains a sharer so future GETMs still check it.
        let r = m.access(c1, AccessKind::Load, BlockAddr(0), &o);
        match r {
            AccessOutcome::Done(d) => assert_eq!(d.source, DataSource::L2),
            _ => panic!("expected clean completion"),
        }
        let d = m.dir_entry(BlockAddr(0)).unwrap();
        assert_eq!(d.owner, None);
        assert!(d.is_sharer(0), "sticky evictor still checked");
        assert!(d.is_sharer(1));
    }

    #[test]
    fn non_transactional_eviction_cleans_directory() {
        let mut m = sys();
        let o = NullOracle;
        let c0 = m.config().ctx(0, 0);
        m.access(c0, AccessKind::Store, BlockAddr(0), &o);
        m.access(c0, AccessKind::Load, BlockAddr(4), &o);
        m.access(c0, AccessKind::Load, BlockAddr(8), &o);
        assert_eq!(m.l1_state_str(0, BlockAddr(0)), "I");
        let d = m.dir_entry(BlockAddr(0)).unwrap();
        assert_eq!(d.owner, None, "M eviction writes back and clears owner");
        assert!(!d.sticky);
    }

    #[test]
    fn l2_eviction_of_transactional_block_forces_broadcast() {
        let mut m = sys();
        let mut o = FakeOracle::default();
        o.tx_blocks.push((0, 0));
        let c0 = m.config().ctx(0, 0);
        m.access(c0, AccessKind::Store, BlockAddr(0), &o);
        // The tiny L2 bank (16 sets × 2 ways, 2 banks) maps block b to bank
        // b%2, set (b/?)… fill bank 0's set for block 0: blocks ≡ 0 (mod 2)
        // hit bank 0; within the bank, set = block & 15. Blocks 32, 64 share
        // set 0 of bank 0 with block 0.
        m.access(c0, AccessKind::Load, BlockAddr(32), &o);
        m.access(c0, AccessKind::Load, BlockAddr(64), &o);
        assert!(m.dir_is_lost(BlockAddr(0)), "directory info lost");
        assert_eq!(m.stats().l2_tx_evictions_hw.get(), 1);

        // Next access must broadcast; no conflicts → rebuilt.
        let c1 = m.config().ctx(1, 0);
        let r = m.access(c1, AccessKind::Load, BlockAddr(0), &o);
        assert!(r.is_done());
        assert!(!m.dir_is_lost(BlockAddr(0)));
        assert!(m.stats().lost_dir_broadcasts.get() >= 1);
    }

    #[test]
    fn lost_block_broadcast_nack_keeps_lost() {
        let mut m = sys();
        let nacker_ctx = m.config().ctx(0, 0);
        let mut o = FakeOracle::default();
        o.tx_blocks.push((0, 0));
        o.write_conflicts.push((0, 0, nacker_ctx));
        o.read_conflicts.push((0, 0, nacker_ctx));
        let c0 = m.config().ctx(0, 0);
        m.access(c0, AccessKind::Store, BlockAddr(0), &o);
        m.access(c0, AccessKind::Load, BlockAddr(32), &o);
        m.access(c0, AccessKind::Load, BlockAddr(64), &o);
        assert!(m.dir_is_lost(BlockAddr(0)));

        let c1 = m.config().ctx(1, 0);
        let r = m.access(c1, AccessKind::Load, BlockAddr(0), &o);
        assert!(matches!(r, AccessOutcome::Nacked { .. }));
        assert!(m.dir_is_lost(BlockAddr(0)), "stays lost until success");
    }

    #[test]
    fn sticky_disabled_reports_overflow() {
        let mut cfg = MemConfig::small_for_tests();
        cfg.sticky_enabled = false;
        let mut m = MemorySystem::new(cfg);
        let mut o = FakeOracle::default();
        o.tx_blocks.push((0, 0));
        let c0 = m.config().ctx(0, 0);
        m.access(c0, AccessKind::Store, BlockAddr(0), &o);
        m.access(c0, AccessKind::Load, BlockAddr(4), &o);
        m.access(c0, AccessKind::Load, BlockAddr(8), &o);
        let events = m.take_overflow_events();
        assert_eq!(events, vec![OverflowEvent { core: 0, block: BlockAddr(0) }]);
        // Directory cleaned as if non-transactional.
        let d = m.dir_entry(BlockAddr(0)).unwrap();
        assert!(!d.sticky);
        assert_eq!(d.owner, None);
    }

    #[test]
    fn upgrade_from_shared() {
        let mut m = sys();
        let o = NullOracle;
        let c0 = m.config().ctx(0, 0);
        let c1 = m.config().ctx(1, 0);
        m.access(c0, AccessKind::Load, BlockAddr(6), &o);
        m.access(c1, AccessKind::Load, BlockAddr(6), &o);
        assert_eq!(m.l1_state_str(0, BlockAddr(6)), "S");
        let w = m.access(c0, AccessKind::Store, BlockAddr(6), &o);
        assert!(w.is_done());
        assert_eq!(m.l1_state_str(0, BlockAddr(6)), "M");
        assert_eq!(m.l1_state_str(1, BlockAddr(6)), "I");
    }

    #[test]
    fn smt_contexts_share_l1() {
        let mut m = sys();
        let o = NullOracle;
        let t0 = m.config().ctx(0, 0);
        let t1 = m.config().ctx(0, 1);
        m.access(t0, AccessKind::Load, BlockAddr(11), &o);
        let r = m.access(t1, AccessKind::Load, BlockAddr(11), &o);
        match r {
            AccessOutcome::Done(d) => assert!(d.l1_hit, "same-core contexts share the L1"),
            _ => panic!(),
        }
    }

    #[test]
    fn word_store_roundtrip() {
        let mut m = sys();
        m.write_word(WordAddr(100), 77);
        assert_eq!(m.read_word(WordAddr(100)), 77);
        let (old, new) = m.update_word(WordAddr(100), |v| v + 1);
        assert_eq!((old, new), (77, 78));
    }

    #[test]
    fn latencies_reflect_topology() {
        // With paper latencies, a DRAM miss must cost ≥ 500 cycles and an L2
        // hit between 34 and 500.
        let mut cfg = MemConfig::paper_cmp();
        cfg.l1 = CacheConfig::new(4, 2); // shrink for the test
        let mut m = MemorySystem::new(cfg);
        let o = NullOracle;
        let c0 = m.config().ctx(0, 0);
        let c1 = m.config().ctx(1, 0);
        let miss = m.access(c0, AccessKind::Load, BlockAddr(40), &o);
        assert!(miss.latency() >= Cycle(500));
        // Second core reads the same block: remote-L1/L2 path — dearer than
        // an L1 hit (directory + network), well under DRAM.
        let l2 = m.access(c1, AccessKind::Load, BlockAddr(40), &o);
        assert!(l2.latency() >= Cycle(7), "directory + at least one hop");
        assert!(l2.latency() < Cycle(500));
    }

    #[test]
    fn check_all_after_rebuild_nack() {
        let mut m = sys();
        let o = NullOracle;
        let c0 = m.config().ctx(0, 0);
        m.access(c0, AccessKind::Load, BlockAddr(2), &o);
        m.set_check_all(BlockAddr(2));
        assert!(m.dir_entry(BlockAddr(2)).unwrap().check_all);
        // A successful access clears it.
        let c1 = m.config().ctx(1, 0);
        m.access(c1, AccessKind::Load, BlockAddr(2), &o);
        assert!(!m.dir_entry(BlockAddr(2)).unwrap().check_all);
    }

    #[test]
    fn multi_cmp_charges_interchip_crossings() {
        let mut cfg = MemConfig::small_for_tests();
        cfg.n_chips = 2; // cores 0-1 on chip 0, cores 2-3 on chip 1
        let mut single = MemorySystem::new(MemConfig::small_for_tests());
        let mut multi = MemorySystem::new(cfg);
        let o = NullOracle;
        // Core 0 loads a block homed in a bank on the other chip, then core
        // 3 (remote chip) fetches it from core 0's L1.
        let c0 = single.config().ctx(0, 0);
        let c3 = single.config().ctx(3, 0);
        let block = BlockAddr(1); // bank 1 → chip 1 in the 2-chip split
        let s1 = single.access(c0, AccessKind::Store, block, &o).latency();
        let m1 = multi.access(c0, AccessKind::Store, block, &o).latency();
        assert!(m1 > s1, "cross-chip home must cost more ({m1} vs {s1})");
        let s2 = single.access(c3, AccessKind::Load, block, &o).latency();
        let m2 = multi.access(c3, AccessKind::Load, block, &o).latency();
        assert!(m2 > s2, "cross-chip forward must cost more ({m2} vs {s2})");
        assert!(multi.stats().interchip_messages.get() >= 2);
        assert_eq!(single.stats().interchip_messages.get(), 0);
    }

    #[test]
    fn multi_cmp_same_chip_costs_match_single_chip() {
        let mut cfg = MemConfig::small_for_tests();
        cfg.n_chips = 2;
        let mut single = MemorySystem::new(MemConfig::small_for_tests());
        let mut multi = MemorySystem::new(cfg);
        let o = NullOracle;
        let c0 = single.config().ctx(0, 0);
        // Block 0 → bank 0 → chip 0, same as core 0: no crossings.
        let s = single.access(c0, AccessKind::Load, BlockAddr(0), &o).latency();
        let m = multi.access(c0, AccessKind::Load, BlockAddr(0), &o).latency();
        assert_eq!(s, m);
        assert_eq!(multi.stats().interchip_messages.get(), 0);
    }

    #[test]
    fn snooping_basic_coherence() {
        let mut cfg = MemConfig::small_for_tests();
        cfg.coherence = CoherenceKind::SnoopingMesi;
        let mut m = MemorySystem::new(cfg);
        let o = NullOracle;
        let c0 = m.config().ctx(0, 0);
        let c1 = m.config().ctx(1, 0);
        // Cold load grants E; a second reader downgrades to S both sides.
        m.access(c0, AccessKind::Load, BlockAddr(5), &o);
        assert_eq!(m.l1_state_str(0, BlockAddr(5)), "E");
        let r = m.access(c1, AccessKind::Load, BlockAddr(5), &o);
        assert!(matches!(r, AccessOutcome::Done(d) if d.source == DataSource::RemoteL1));
        assert_eq!(m.l1_state_str(0, BlockAddr(5)), "S");
        assert_eq!(m.l1_state_str(1, BlockAddr(5)), "S");
        // A writer invalidates all sharers.
        let c2 = m.config().ctx(2, 0);
        m.access(c2, AccessKind::Store, BlockAddr(5), &o);
        assert_eq!(m.l1_state_str(0, BlockAddr(5)), "I");
        assert_eq!(m.l1_state_str(1, BlockAddr(5)), "I");
        assert_eq!(m.l1_state_str(2, BlockAddr(5)), "M");
    }

    #[test]
    fn snooping_nacks_on_signature_conflict() {
        let mut cfg = MemConfig::small_for_tests();
        cfg.coherence = CoherenceKind::SnoopingMesi;
        let mut m = MemorySystem::new(cfg);
        let nacker_ctx = m.config().ctx(0, 0);
        let mut o = FakeOracle::default();
        o.write_conflicts.push((0, 9, nacker_ctx));
        let c1 = m.config().ctx(1, 0);
        let w = m.access(c1, AccessKind::Store, BlockAddr(9), &o);
        assert!(matches!(w, AccessOutcome::Nacked { nacker, .. } if nacker == nacker_ctx));
        assert_eq!(m.l1_state_str(1, BlockAddr(9)), "I", "NACK changes nothing");
    }

    #[test]
    fn snooping_victimization_keeps_isolation_without_sticky() {
        // Core 0's tx block gets evicted; the next conflicting store is
        // still NACKed because snooping broadcasts reach every signature —
        // no sticky machinery involved.
        let mut cfg = MemConfig::small_for_tests();
        cfg.coherence = CoherenceKind::SnoopingMesi;
        cfg.sticky_enabled = false; // irrelevant under snooping
        let mut m = MemorySystem::new(cfg);
        let nacker_ctx = m.config().ctx(0, 0);
        let mut o = FakeOracle::default();
        o.write_conflicts.push((0, 0, nacker_ctx));
        o.tx_blocks.push((0, 0));
        let c0 = m.config().ctx(0, 0);
        let c1 = m.config().ctx(1, 0);
        m.access(c0, AccessKind::Store, BlockAddr(0), &o);
        m.access(c0, AccessKind::Load, BlockAddr(4), &o);
        m.access(c0, AccessKind::Load, BlockAddr(8), &o);
        assert_eq!(m.l1_state_str(0, BlockAddr(0)), "I", "victimized");
        assert!(m.take_overflow_events().is_empty(), "no overflow aborts");
        let w = m.access(c1, AccessKind::Store, BlockAddr(0), &o);
        assert!(matches!(w, AccessOutcome::Nacked { nacker, .. } if nacker == nacker_ctx));
    }

    #[test]
    fn snooping_costs_broadcast_messages() {
        let run = |coherence| {
            let mut cfg = MemConfig::small_for_tests();
            cfg.coherence = coherence;
            let mut m = MemorySystem::new(cfg);
            let o = NullOracle;
            for i in 0..64u64 {
                let ctx = m.config().ctx((i % 4) as u16, 0);
                m.access(ctx, AccessKind::Load, BlockAddr(i * 3 % 32), &o);
            }
            m.stats().messages.get()
        };
        let dir = run(CoherenceKind::DirectoryMesi);
        let snoop = run(CoherenceKind::SnoopingMesi);
        assert!(
            snoop > dir,
            "snooping must burn more interconnect messages ({snoop} vs {dir})"
        );
    }

    #[test]
    fn ctx_id_mapping() {
        let cfg = MemConfig::paper_cmp();
        assert_eq!(cfg.n_ctxs(), 32);
        assert_eq!(cfg.ctx(0, 0), 0);
        assert_eq!(cfg.ctx(0, 1), 1);
        assert_eq!(cfg.ctx(15, 1), 31);
        assert_eq!(cfg.core_of(31), 15);
        assert_eq!(cfg.ctxs_on_core(3).collect::<Vec<_>>(), vec![6, 7]);
    }

    /// Every shipped configuration, plus one with non-power-of-two core,
    /// bank, SMT and chip counts on a non-square mesh that has more nodes
    /// than cores or banks.
    fn topology_configs() -> Vec<(String, MemConfig)> {
        let mut configs = vec![
            ("paper_cmp".to_string(), MemConfig::paper_cmp()),
            ("paper_multi_cmp".to_string(), MemConfig::paper_multi_cmp()),
            (
                "paper_snooping_cmp".to_string(),
                MemConfig::paper_snooping_cmp(),
            ),
            ("small_for_tests".to_string(), MemConfig::small_for_tests()),
        ];
        for n in [64, 128, 256] {
            for smt in [1, 2] {
                configs.push((
                    format!("scaled_cmp({n}, {smt})"),
                    MemConfig::scaled_cmp(n, smt),
                ));
            }
        }
        configs.push((
            "odd".to_string(),
            MemConfig {
                n_cores: 12,
                smt_per_core: 3,
                n_banks: 6,
                grid_width: 5,
                grid_height: 3,
                n_chips: 3,
                ..MemConfig::small_for_tests()
            },
        ));
        configs
    }

    #[test]
    fn topology_tables_match_the_plain_formulas() {
        for (name, cfg) in topology_configs() {
            let m = MemorySystem::new(cfg);
            let grid = Grid::new(cfg.grid_width, cfg.grid_height, cfg.latency.link);
            let nodes = grid.nodes();
            let link = cfg.latency.link.as_u64();
            let hops = |a: usize, b: usize| Cycle(grid.hops(a % nodes, b % nodes) * link);
            let cores_per_chip = cfg.n_cores / cfg.n_chips as u16;
            let banks_per_chip = cfg.n_banks / cfg.n_chips as u16;
            for c in 0..cfg.n_cores {
                assert_eq!(
                    m.chip_of_core(c),
                    (c / cores_per_chip) as u8,
                    "{name}: core {c}"
                );
                let cn = m.core_node(c);
                for b in 0..cfg.n_banks {
                    let bn = m.bank_node(b);
                    let want = hops(c as usize, b as usize);
                    assert_eq!(m.net(cn, bn), want, "{name}: core {c} -> bank {b}");
                    assert_eq!(m.net(bn, cn), want, "{name}: bank {b} -> core {c}");
                    assert_eq!(want, grid.latency(c as usize % nodes, b as usize % nodes));
                }
                for d in 0..cfg.n_cores {
                    let want = hops(c as usize, d as usize);
                    assert_eq!(
                        m.net(cn, m.core_node(d)),
                        want,
                        "{name}: core {c} -> core {d}"
                    );
                }
            }
            for b in 0..cfg.n_banks {
                assert_eq!(
                    m.chip_of_bank(b),
                    (b / banks_per_chip) as u8,
                    "{name}: bank {b}"
                );
            }
            let blocks = (0..4096u64).chain((0..4096).map(|i| ltse_sim::rng::mix64(i) >> (i % 64)));
            for block in blocks {
                let want = (block % cfg.n_banks as u64) as u16;
                assert_eq!(
                    m.bank_of(BlockAddr(block)),
                    want,
                    "{name}: block {block:#x}"
                );
            }
        }
    }

    #[test]
    fn core_of_matches_division_for_every_smt_width() {
        for smt in [1u8, 2, 4, 3] {
            for ctx in 0..(MAX_CORES as u32 * smt as u32) {
                assert_eq!(
                    core_of_ctx(ctx, smt),
                    (ctx / smt as u32) as CoreId,
                    "smt {smt} ctx {ctx}"
                );
            }
            let cfg = MemConfig {
                smt_per_core: smt,
                ..MemConfig::scaled_cmp(256, 1)
            };
            for core in 0..cfg.n_cores {
                for ctx in cfg.ctxs_on_core(core) {
                    assert_eq!(cfg.core_of(ctx), core, "smt {smt} ctx {ctx}");
                }
            }
        }
    }
}
