//! Deterministic discrete-event simulation kernel for the LogTM-SE
//! reproduction.
//!
//! This crate provides the substrate that every other crate in the workspace
//! builds on:
//!
//! * [`Cycle`] — a newtype for simulated processor cycles.
//! * [`EventQueue`] — a deterministic priority queue of timestamped events
//!   with stable FIFO tie-breaking, the heart of the simulator.
//! * [`rng`] — seedable, dependency-free pseudo-random number generators
//!   ([`rng::SplitMix64`], [`rng::Xoshiro256StarStar`]) so that every
//!   simulation is reproducible from `(config, seed)`.
//! * [`stats`] — counters, histograms, and Student-t 95 % confidence
//!   intervals matching the paper's multi-seed perturbation methodology
//!   (§6.1 of the paper, citing Alameldeen & Wood, HPCA 2003).
//! * [`parallel`] — a fixed-size worker pool that fans independent
//!   simulations out over OS threads with deterministic (submission-order)
//!   results and per-run panic isolation.
//! * [`check`] — a dependency-free deterministic randomized-testing
//!   harness used by the workspace's property tests.
//! * [`obs`] — the structured observability layer: metric registry,
//!   stall/abort cause attribution, per-thread cycle breakdowns, and
//!   bounded per-transaction span rings, all zero-cost when disabled.
//! * [`explore`] — a deterministic schedule-exploration engine (exhaustive,
//!   seeded-random, and delay-bounded interleavings with greedy failure
//!   shrinking) layered on [`EventQueue::pop_explored`].
//!
//! # Example
//!
//! Run a tiny two-event simulation:
//!
//! ```
//! use ltse_sim::{Cycle, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle(10), "late");
//! q.push(Cycle(5), "early");
//! q.push(Cycle(5), "early-second"); // FIFO among equal timestamps
//!
//! assert_eq!(q.pop(), Some((Cycle(5), "early")));
//! assert_eq!(q.pop(), Some((Cycle(5), "early-second")));
//! assert_eq!(q.pop(), Some((Cycle(10), "late")));
//! assert_eq!(q.pop(), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod time;

pub mod check;
pub mod config;
pub mod explore;
pub mod obs;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod trace;

pub use event::{EventChooser, EventQueue, DEFAULT_BUCKETS, MAX_BUCKETS};
pub use time::Cycle;
