//! Host-speed calibration.
//!
//! The 2-CPU build host is shared with other tenants: the same simulator
//! run has measured 1.7x slower minutes after a fast one, with no change of
//! code or input. Host-time metrics are therefore reported in *calibrated
//! seconds*: every timed span is followed by a short probe — fixed integer
//! work over a cache-resident table, sharing no code with the repository —
//! and scaled by how much slower than [`REFERENCE_PROBE_S`] the probes
//! around it ran (their median, which one disturbed probe cannot move). A
//! change to the repository's code moves the span and not the probes, so it
//! shows in full; a slow phase of the host moves both, and cancels out.

use std::process::Command;
use std::time::Instant;

/// Probe duration that defines one calibrated second: measured seconds are
/// scaled by `REFERENCE_PROBE_S / probe seconds`.
pub const REFERENCE_PROBE_S: f64 = 0.03;

/// Slots of the probe's table (256 KiB). On this class of host a
/// cache-resident probe tracks the simulator's slow phases more closely
/// than one that misses to memory.
const TABLE_SLOTS: usize = 1 << 15;
/// Probe iterations.
const PROBE_ITERS: u64 = 16_000_000;
/// Probes on each side of a span that calibrate it.
const WINDOW: usize = 2;

/// The probe's work: xorshift-indexed read-modify-writes over the table.
fn kernel() -> u64 {
    let mut table = vec![0u64; TABLE_SLOTS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..PROBE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[x as usize & (TABLE_SLOTS - 1)];
        *slot = slot.wrapping_add(x);
    }
    table.iter().fold(0, |a, &b| a ^ b)
}

/// Runs the probe's work on `threads` threads at once (matching how many
/// cores the measured work occupies) and returns the mean of the threads'
/// seconds. `ltse-benchmark --probe THREADS` calls this in a child process.
pub fn probe_here(threads: usize) -> f64 {
    let threads = threads.max(1);
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let start = Instant::now();
                    std::hint::black_box(kernel());
                    start.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .sum()
    });
    total / threads as f64
}

/// Runs the probe in a child process, so that it never touches this
/// process's heap or peak resident set, and returns its seconds.
fn probe(threads: usize) -> f64 {
    let out = Command::new(std::env::current_exe().expect("own executable"))
        .args(["--probe", &threads.to_string()])
        .output()
        .expect("probe process runs");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .unwrap_or_else(|_| {
            panic!(
                "probe process failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
}

/// One timed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Measured seconds.
    pub raw: f64,
    /// Which span of its clock this is.
    index: usize,
}

/// Times spans, probing the host after each one.
pub struct Clock {
    threads: usize,
    /// `probes[i]` ran just before span `i`, `probes[i + 1]` just after.
    probes: Vec<f64>,
}

impl Clock {
    /// A clock whose probes run on `threads` threads.
    pub fn new(threads: usize) -> Self {
        Clock {
            threads,
            probes: vec![probe(threads)],
        }
    }

    /// Runs `f`, then a probe; returns `f`'s result and its span.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Span) {
        let start = Instant::now();
        let value = f();
        let raw = start.elapsed().as_secs_f64();
        let index = self.probes.len() - 1;
        self.probes.push(probe(self.threads));
        (value, Span { raw, index })
    }

    /// Calibrated seconds per measured second for `span`: the reference
    /// over the median of the [`WINDOW`] probes on each side of it.
    pub fn scale(&self, span: &Span) -> f64 {
        let lo = (span.index + 1).saturating_sub(WINDOW);
        let hi = (span.index + WINDOW).min(self.probes.len() - 1);
        REFERENCE_PROBE_S / crate::median(&self.probes[lo..=hi])
    }

    /// `span` in calibrated seconds.
    pub fn calibrated(&self, span: &Span) -> f64 {
        span.raw * self.scale(span)
    }
}
