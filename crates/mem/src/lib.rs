//! CMP memory-system substrate for the LogTM-SE reproduction.
//!
//! This crate models the baseline chip multiprocessor of the paper's §5
//! (Figure 2 / Table 1): 16 out-of-order cores with 2-way SMT (32 thread
//! contexts), private 32 KB L1 data caches, a 16-bank 8 MB shared inclusive
//! L2 that embeds a full directory in its tags, a packet-switched grid
//! interconnect, and off-chip DRAM — plus the paper's coherence-protocol
//! changes:
//!
//! * **NACKs on signature conflicts** — GETS/GETM requests consult the
//!   target's read/write signatures (via the [`ConflictOracle`] trait; this
//!   crate deliberately owns *no* transactional state, which is the paper's
//!   decoupling thesis) and are NACKed on a possible conflict.
//! * **Sticky states** — when an L1 evicts a block in a transaction's
//!   read/write-set, the directory is *not* updated, so later requests still
//!   forward to the evicting core for a signature check (paper §3.1, §5).
//! * **Directory-loss broadcast** — when the L2 evicts transactional data the
//!   directory information is lost; subsequent misses broadcast to all L1s
//!   for signature checks and rebuild the directory (paper §5).
//!
//! # Timing model
//!
//! Coherence actions resolve *atomically at issue* with path-accurate latency
//! (L1 1 cycle, directory 6, L2 34, DRAM 500, 3-cycle grid links — Table 1).
//! There are no transient protocol states: concurrent same-block requests
//! serialize in event order. DESIGN.md documents why this preserves the
//! paper's comparative results.
//!
//! # Example
//!
//! ```
//! use ltse_mem::{AccessKind, MemConfig, MemorySystem, NullOracle, AccessOutcome, BlockAddr};
//!
//! let mut mem = MemorySystem::new(MemConfig::small_for_tests());
//! let oracle = NullOracle; // no transactions anywhere
//! let ctx = mem.config().ctx(0, 0);
//!
//! // Cold miss goes to DRAM…
//! let first = mem.access(ctx, AccessKind::Load, BlockAddr(100), &oracle);
//! // …then the L1 hits.
//! let second = mem.access(ctx, AccessKind::Load, BlockAddr(100), &oracle);
//! match (first, second) {
//!     (AccessOutcome::Done(a), AccessOutcome::Done(b)) => assert!(b.latency < a.latency),
//!     _ => unreachable!("no conflicts are possible with NullOracle"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cache;
mod dir;
mod latency;
mod network;
mod oracle;
mod stats;
mod store;
mod system;

pub use addr::{Asid, BlockAddr, PageId, WordAddr, BLOCKS_PER_PAGE, BLOCK_BYTES, WORDS_PER_BLOCK};
pub use cache::{CacheConfig, SetAssocCache};
pub use dir::{CoreId, DirEntry, ForwardTargets, SharerIter, SharerSet, MAX_CORES};
pub use latency::LatencyConfig;
pub use network::Grid;
pub use oracle::{AccessKind, ConflictOracle, NullOracle, SerializabilityOracle};
pub use stats::MemStats;
pub use store::MemStore;
pub use system::{
    core_of_ctx, AccessDone, AccessOutcome, CoherenceKind, CtxId, DataSource, MemConfig,
    MemorySystem,
};
