//! The LogTM-SE transactional core — the paper's primary contribution.
//!
//! LogTM-SE stores all principal transactional state in two software-visible
//! structure types:
//!
//! * **Signatures** (from `ltse-sig`) conservatively track read/write-sets
//!   and detect conflicts eagerly on coherence requests.
//! * A **per-thread undo log** ([`TxLog`]) in thread-private virtual memory
//!   holds old values; new values go in place (eager version management).
//!
//! This crate implements everything Figure 1 of the paper adds to a thread
//! context, and the runtime/OS mechanisms of §§2–4:
//!
//! * [`ThreadTmState`] — per-thread context TM unit: shadowed read/write
//!   signatures, summary signature, log pointer/frames, nesting depth, log
//!   filter, transaction timestamp, `possible_cycle` flag, escape depth.
//! * [`TxLog`] / [`LogFrame`] — the Nested-LogTM log layout: a stack of
//!   frames, each a fixed header (register checkpoint + signature-save area)
//!   plus a variable body of undo records.
//! * [`LogFilter`] — the small TLB-like array of recently logged blocks that
//!   suppresses redundant logging (§2, "Eager Version Management"); always
//!   safe to clear because it is a pure optimization.
//! * [`TmUnit`] — the collection of all thread contexts; implements
//!   `ltse-mem`'s `ConflictOracle` so the coherence protocol can delegate
//!   signature checks without owning TM state.
//! * [`conflict`] — LogTM's distributed timestamp/`possible_cycle` conflict
//!   resolution: stall on NACK, abort on a possible deadlock cycle.
//! * [`OsModel`] — thread deschedule/migrate with per-process **summary
//!   signatures** maintained through a counting signature (§4.1), and
//!   transactional **paging** (§4.2).
//! * [`virt_compare`] — the encoded event/action matrix behind the paper's
//!   Table 4.
//!
//! # Example: a minimal transaction lifecycle
//!
//! ```
//! use ltse_mem::{AccessKind, BlockAddr, WordAddr};
//! use ltse_sig::SignatureKind;
//! use ltse_tm::{NestKind, TmConfig, TmUnit};
//! use ltse_sim::Cycle;
//!
//! let mut tm = TmUnit::new(TmConfig::default_with(SignatureKind::Perfect), 4);
//! tm.begin_tx(0, NestKind::Closed, Cycle(100));
//!
//! // A transactional store: record the access, then log the old value
//! // (the closure reads the block's old contents from memory).
//! let block = BlockAddr(7);
//! tm.record_access(0, AccessKind::Store, block);
//! let log_action = tm.log_store_if_needed(0, block, || [0; 8]);
//! assert!(log_action.is_some(), "first store to a block must log");
//! assert!(tm.log_store_if_needed(0, block, || [0; 8]).is_none(), "filter suppresses");
//!
//! // Commit is local: clear signature, reset log pointer.
//! let commit = tm.commit_tx(0, Cycle(200));
//! assert!(commit.outermost);
//! assert!(!tm.in_tx(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod conflict;
pub mod virt_compare;

mod config;
mod ctx;
mod filter;
mod log;
mod os;
mod stats;
mod unit;

pub use adapt::{backoff_cycles, BackoffKind, ConflictHistory};
pub use config::TmConfig;
pub use ctx::{NestKind, ThreadTmState, TxPhase};
pub use filter::LogFilter;
pub use log::{saved_sig_conflicts, unroll_frame, FrameHeader, LogFrame, TxLog, UndoRecord};
pub use os::{OsModel, OsStats};
pub use stats::{TmStats, TxSetSizes};
pub use unit::{CommitOutcome, LogWrite, PreAccessCheck, TmUnit};
