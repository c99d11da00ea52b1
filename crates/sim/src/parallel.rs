//! A parallel, deterministic, panic-isolated experiment runner.
//!
//! Every table and figure of the reproduction is a sweep of independent
//! full-system simulations — exactly the embarrassingly-parallel shape the
//! paper's GEMS evaluation had. This module is the worker pool those sweeps
//! fan out through:
//!
//! * **Deterministic**: results come back in submission order regardless of
//!   worker count or scheduling, so a sweep's output is byte-identical
//!   whether it ran on 1 worker or 256.
//! * **Panic-isolated**: each job runs under [`std::panic::catch_unwind`];
//!   one diverging configuration surfaces as a labelled [`RunError`] in its
//!   result slot instead of killing the whole sweep.
//! * **Dependency-free**: a fixed-size pool over [`std::thread::scope`] —
//!   no external runtime.
//!
//! # Scheduling: persistent workers, chunked work-stealing ranges
//!
//! Callers that submit many small batches (the schedule explorer runs waves
//! of ~32 simulations, each tens of microseconds) cannot afford to re-pay
//! thread spawn/join per batch — that overhead is what made wave-parallel
//! exploration a net *slowdown* before this design. [`batch_scope`] spawns
//! its workers **once**; batches are then handed over with a single
//! mutex/condvar epoch bump (microseconds, not milliseconds).
//!
//! Within a batch, the index space is split into one contiguous range per
//! worker, each packed into a single `AtomicU64` (`begin` in the high half,
//! `end` in the low half). An owner pops an adaptively-sized chunk from the
//! front of its range with one CAS; an idle worker steals the back *half* of
//! a victim's range with one CAS and makes it its own, so stolen work keeps
//! getting re-split instead of serializing on one thief. Every index is
//! claimed exactly once (ranges over one batch are consumed monotonically,
//! so a stale CAS can never resurrect spent indices), and results are merged
//! back **by index**, which is what keeps output independent of which worker
//! ran what.
//!
//! Worker count resolves, in priority order: an explicit argument, the
//! `LTSE_JOBS` environment variable, then
//! [`std::thread::available_parallelism`].
//!
//! ```
//! use ltse_sim::parallel::{run_pool, RunSpec};
//!
//! let specs = (0..4u64)
//!     .map(|i| RunSpec::new(format!("square/{i}"), move || i * i))
//!     .collect();
//! let out = run_pool(specs, 2);
//! let squares: Vec<u64> = out.results.into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(squares, vec![0, 1, 4, 9]); // submission order, always
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::stats::Summary;

/// One schedulable unit of work: a label (for error reporting and progress)
/// plus the closure that performs the run and returns its result.
pub struct RunSpec<T> {
    /// Human-readable identity of the run, e.g. `"figure4/Mp3d/BS/seed=2"`.
    pub label: String,
    job: Box<dyn FnOnce() -> T + Send>,
}

impl<T> RunSpec<T> {
    /// Wraps a closure as a labelled run.
    pub fn new(label: impl Into<String>, job: impl FnOnce() -> T + Send + 'static) -> Self {
        RunSpec {
            label: label.into(),
            job: Box::new(job),
        }
    }
}

impl<T> std::fmt::Debug for RunSpec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSpec")
            .field("label", &self.label)
            .finish()
    }
}

/// A structured record of a run that panicked instead of returning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// Submission index of the failed run.
    pub index: usize,
    /// Label of the failed run.
    pub label: String,
    /// The panic payload, stringified when it was a `&str`/`String`
    /// (`"<non-string panic payload>"` otherwise).
    pub message: String,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run #{} [{}] panicked: {}", self.index, self.label, self.message)
    }
}

impl std::error::Error for RunError {}

/// Everything a pool invocation produced.
#[derive(Debug)]
pub struct PoolOutput<T> {
    /// Per-run results **in submission order**: `Ok(T)` for runs that
    /// returned, `Err(RunError)` for runs that panicked.
    pub results: Vec<Result<T, RunError>>,
    /// Wall-clock time of the whole pool invocation.
    pub wall: Duration,
    /// Workers actually used.
    pub jobs: usize,
    /// Per-run wall-clock times in nanoseconds, merged across workers.
    pub per_run_nanos: Summary,
}

impl<T> PoolOutput<T> {
    /// Completed runs per wall-clock second.
    pub fn runs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.results.len() as f64 / secs
    }

    /// Number of runs that panicked.
    pub fn failed(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Upper bound on the *detected* default worker count. With persistent
/// workers the pool no longer re-pays spawn cost per wave, and 128/256-core
/// sweeps legitimately want wide fan-out, so the clamp now only guards
/// against a miscounting container runtime reporting absurd widths. An
/// explicit `--jobs`/`LTSE_JOBS` request is honored as given, above or below
/// this bound — that is the documented override for hosts that really do
/// have more cores.
pub const MAX_DEFAULT_JOBS: usize = 256;

/// Resolves the worker count: `explicit` if given, else the `LTSE_JOBS`
/// environment variable, else [`std::thread::available_parallelism`] clamped
/// to [`MAX_DEFAULT_JOBS`]. Always at least 1.
pub fn effective_jobs(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| {
            std::env::var("LTSE_JOBS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().min(MAX_DEFAULT_JOBS))
                .unwrap_or(1)
        })
        .max(1)
}

// ---------------------------------------------------------------------------
// Work-stealing range deques
// ---------------------------------------------------------------------------

/// A contiguous index range `begin..end` packed into one `AtomicU64`
/// (`begin` high 32 bits, `end` low 32 bits). The owner pops chunks from the
/// front; thieves steal the back half. Both sides mutate with a single CAS,
/// so the deque is allocation-free and lock-free.
///
/// ABA safety: within one batch every index is claimed exactly once, so a
/// non-empty `(begin, end)` packing can only be *current* while those
/// indices are still unclaimed — a stale CAS can therefore never hand out an
/// index twice.
struct StealRange(AtomicU64);

#[inline]
fn pack(begin: u32, end: u32) -> u64 {
    ((begin as u64) << 32) | end as u64
}

#[inline]
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

impl StealRange {
    fn new(begin: u32, end: u32) -> Self {
        StealRange(AtomicU64::new(pack(begin, end)))
    }

    /// Pops up to `take` indices from the front. Returns the claimed
    /// sub-range, or `None` when empty.
    fn pop_front(&self, take: u32) -> Option<(u32, u32)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (begin, end) = unpack(cur);
            if begin >= end {
                return None;
            }
            let k = take.min(end - begin).max(1);
            match self.0.compare_exchange_weak(
                cur,
                pack(begin + k, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((begin, begin + k)),
                Err(now) => cur = now,
            }
        }
    }

    /// Steals the back half (at least one index) of the range. Returns the
    /// stolen sub-range, or `None` when empty.
    fn steal_back_half(&self) -> Option<(u32, u32)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (begin, end) = unpack(cur);
            if begin >= end {
                return None;
            }
            let k = ((end - begin) / 2).max(1);
            match self.0.compare_exchange_weak(
                cur,
                pack(begin, end - k),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((end - k, end)),
                Err(now) => cur = now,
            }
        }
    }

    /// Replaces an *empty* owned range with freshly stolen work. Only the
    /// owner calls this, and only after draining its range; thieves never
    /// CAS against an empty packing, so the store cannot race a claim.
    fn refill(&self, begin: u32, end: u32) {
        self.0.store(pack(begin, end), Ordering::Release);
    }
}

/// One batch of work published to the workers: owned items plus the
/// per-worker range deques covering `0..items.len()`.
struct BatchWork<In> {
    items: Vec<In>,
    ranges: Vec<StealRange>,
    /// Owner-side pop granularity for this batch (adaptive: scaled from the
    /// batch size and worker count at submission).
    chunk: u32,
}

struct PoolState<In, Out> {
    /// Current batch, if one is in flight. `Arc` so workers can keep the
    /// items alive without holding the lock while they run.
    batch: Option<Arc<BatchWork<In>>>,
    /// Bumped once per submitted batch; workers use it to detect new work.
    epoch: u64,
    /// `(index, value)` pairs appended by each worker as it finishes.
    results: Vec<(u32, Out)>,
    /// Panic payloads captured while running items, tagged by index.
    panics: Vec<(u32, Box<dyn std::any::Any + Send>)>,
    /// Workers that have drained the current batch.
    workers_done: usize,
    shutdown: bool,
}

struct PoolShared<In, Out> {
    state: Mutex<PoolState<In, Out>>,
    /// Workers wait here for the next epoch (or shutdown).
    work_cv: Condvar,
    /// The submitter waits here for `workers_done == jobs`.
    done_cv: Condvar,
    jobs: usize,
}

/// Handle passed to the body of [`batch_scope`]: submit batches of owned
/// items; results come back in item order.
pub struct BatchPool<'p, In, Out, F> {
    shared: Option<&'p PoolShared<In, Out>>,
    f: &'p F,
    jobs: usize,
}

impl<In, Out, F> BatchPool<'_, In, Out, F>
where
    In: Send + Sync,
    Out: Send,
    F: Fn(usize, &In) -> Out + Sync,
{
    /// Workers this pool runs on (1 = everything inline on the caller).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f` over every item and returns the outputs in item order.
    ///
    /// Single-item batches (and jobs = 1 pools) run inline on the calling
    /// thread — no cross-thread handoff, which keeps e.g. the explore
    /// shrinker's one-schedule waves at sequential cost. A panic inside `f`
    /// propagates to the caller after the batch drains; when several items
    /// panic, the lowest index wins, deterministically.
    pub fn run_batch(&self, items: Vec<In>) -> Vec<Out> {
        let n = items.len();
        let shared = match self.shared {
            Some(s) if n > 1 => s,
            _ => {
                return items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| (self.f)(i, item))
                    .collect();
            }
        };

        // Partition 0..n into one contiguous range per worker and pick the
        // owner-pop chunk: small enough that every worker gets several pops
        // (load balance), large enough to amortize the CAS (throughput).
        let jobs = shared.jobs;
        let n32 = u32::try_from(n).expect("batch fits in u32 indices");
        let base = n32 / jobs as u32;
        let rem = (n32 % jobs as u32) as usize;
        let mut ranges = Vec::with_capacity(jobs);
        let mut at = 0u32;
        for w in 0..jobs {
            let len = base + u32::from(w < rem);
            ranges.push(StealRange::new(at, at + len));
            at += len;
        }
        let chunk = (n32 / (jobs as u32 * 8)).clamp(1, 64);
        let work = Arc::new(BatchWork { items, ranges, chunk });

        let mut st = shared.state.lock().expect("pool lock");
        st.batch = Some(Arc::clone(&work));
        st.epoch += 1;
        st.results.clear();
        st.panics.clear();
        st.workers_done = 0;
        shared.work_cv.notify_all();
        while st.workers_done < jobs {
            st = shared.done_cv.wait(st).expect("pool lock");
        }
        st.batch = None;

        if !st.panics.is_empty() {
            st.panics.sort_by_key(|(i, _)| *i);
            let (_, payload) = st.panics.swap_remove(0);
            drop(st);
            std::panic::resume_unwind(payload);
        }

        let mut merged: Vec<Option<Out>> = (0..n).map(|_| None).collect();
        for (i, v) in st.results.drain(..) {
            merged[i as usize] = Some(v);
        }
        drop(st);
        merged
            .into_iter()
            .map(|v| v.expect("every index claimed exactly once"))
            .collect()
    }
}

fn worker_loop<In, Out, F>(shared: &PoolShared<In, Out>, f: &F, me: usize)
where
    In: Send + Sync,
    Out: Send,
    F: Fn(usize, &In) -> Out + Sync,
{
    let mut seen_epoch = 0u64;
    loop {
        let work = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen_epoch {
                    seen_epoch = st.epoch;
                    break Arc::clone(st.batch.as_ref().expect("batch set with epoch"));
                }
                st = shared.work_cv.wait(st).expect("pool lock");
            }
        };

        let mut local: Vec<(u32, Out)> = Vec::new();
        let mut local_panics: Vec<(u32, Box<dyn std::any::Any + Send>)> = Vec::new();
        let own = &work.ranges[me];
        'batch: loop {
            // Drain our own range in chunks from the front.
            while let Some((b, e)) = own.pop_front(work.chunk) {
                for i in b..e {
                    let item = &work.items[i as usize];
                    match catch_unwind(AssertUnwindSafe(|| f(i as usize, item))) {
                        Ok(v) => local.push((i, v)),
                        Err(payload) => local_panics.push((i, payload)),
                    }
                }
            }
            // Empty: steal the back half of the first victim that has work,
            // make it our own range, and go back to chunked popping.
            for step in 1..work.ranges.len() {
                let victim = (me + step) % work.ranges.len();
                if let Some((b, e)) = work.ranges[victim].steal_back_half() {
                    own.refill(b, e);
                    continue 'batch;
                }
            }
            break;
        }
        drop(work);

        let mut st = shared.state.lock().expect("pool lock");
        st.results.append(&mut local);
        st.panics.append(&mut local_panics);
        st.workers_done += 1;
        if st.workers_done == shared.jobs {
            shared.done_cv.notify_all();
        }
    }
}

/// Spawns a persistent pool of `jobs` workers for the duration of `body`,
/// handing it a [`BatchPool`] that can submit any number of batches. Workers
/// are spawned **once** — each subsequent batch costs one condvar round-trip
/// instead of a spawn/join cycle, which is what lets callers with many small
/// waves (the schedule explorer) actually profit from parallelism.
///
/// With `jobs <= 1` no threads are spawned at all; every batch runs inline
/// on the calling thread.
pub fn batch_scope<In, Out, F, R>(
    jobs: usize,
    f: F,
    body: impl FnOnce(&BatchPool<'_, In, Out, F>) -> R,
) -> R
where
    In: Send + Sync,
    Out: Send,
    F: Fn(usize, &In) -> Out + Sync,
{
    let jobs = jobs.max(1);
    if jobs == 1 {
        return body(&BatchPool { shared: None, f: &f, jobs: 1 });
    }
    let shared = PoolShared {
        state: Mutex::new(PoolState {
            batch: None,
            epoch: 0,
            results: Vec::new(),
            panics: Vec::new(),
            workers_done: 0,
            shutdown: false,
        }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
        jobs,
    };
    std::thread::scope(|scope| {
        for me in 0..jobs {
            let shared = &shared;
            let f = &f;
            scope.spawn(move || worker_loop(shared, f, me));
        }
        let pool = BatchPool { shared: Some(&shared), f: &f, jobs };
        // `body` (or a propagated batch panic) must still release the
        // workers, or the scope's implicit join would deadlock.
        let result = catch_unwind(AssertUnwindSafe(|| body(&pool)));
        {
            let mut st = shared.state.lock().expect("pool lock");
            st.shutdown = true;
        }
        shared.work_cv.notify_all();
        match result {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Runs `f(0..n)` on `jobs` workers and returns the results in index order.
///
/// A one-batch convenience over [`batch_scope`]: indices are claimed through
/// the same chunked work-stealing ranges, each worker accumulates
/// `(index, value)` pairs locally, and the submitter scatters them back into
/// index order. With `jobs <= 1` (or a single item) everything runs inline
/// on the calling thread — no spawn cost, and `f` need not be
/// `Sync`-exercised.
///
/// Panic semantics: a panic inside `f` propagates to the caller (after all
/// workers have drained); when several indices panic, the lowest one wins.
/// Callers that want isolation wrap `f` in `catch_unwind`, as [`run_pool`]
/// does.
pub fn par_map_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs == 1 {
        return (0..n).map(f).collect();
    }
    batch_scope(jobs, |i, _: &()| f(i), |pool| pool.run_batch(vec![(); n]))
}

/// Executes `specs` on `jobs` workers and returns their results in
/// submission order.
pub fn run_pool<T: Send>(specs: Vec<RunSpec<T>>, jobs: usize) -> PoolOutput<T> {
    let n = specs.len();
    let jobs = jobs.max(1).min(n.max(1));
    let started = Instant::now();

    // Pre-enumerated slots: index identity is fixed before any worker runs,
    // which is what makes index-range dispatch sufficient.
    let slots: Vec<Mutex<Option<RunSpec<T>>>> =
        specs.into_iter().map(|s| Mutex::new(Some(s))).collect();

    let outcomes = par_map_indexed(n, jobs, |index| {
        let RunSpec { label, job } = slots[index]
            .lock()
            .expect("slot lock")
            .take()
            .expect("each slot claimed exactly once");
        let run_started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(job)).map_err(|payload| RunError {
            index,
            label,
            message: panic_message(payload),
        });
        (result, run_started.elapsed().as_nanos() as u64)
    });

    let mut per_run_nanos = Summary::new();
    let mut results = Vec::with_capacity(n);
    for (result, nanos) in outcomes {
        per_run_nanos.record(nanos);
        results.push(result);
    }

    PoolOutput {
        results,
        wall: started.elapsed(),
        jobs,
        per_run_nanos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: u64) -> Vec<RunSpec<u64>> {
        (0..n)
            .map(|i| RunSpec::new(format!("sq/{i}"), move || i * i))
            .collect()
    }

    #[test]
    fn results_arrive_in_submission_order() {
        for jobs in [1, 2, 4, 7] {
            let out = run_pool(squares(20), jobs);
            let vals: Vec<u64> = out.results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(vals, (0..20).map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn worker_counts_give_identical_results() {
        let one: Vec<_> = run_pool(squares(16), 1)
            .results
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let four: Vec<_> = run_pool(squares(16), 4)
            .results
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(one, four);
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        let mut specs = squares(6);
        specs.insert(
            3,
            RunSpec::new("diverging-config", || -> u64 { panic!("livelocked at cycle 5000000") }),
        );
        let out = run_pool(specs, 3);
        assert_eq!(out.results.len(), 7);
        assert_eq!(out.failed(), 1);
        let err = out.results[3].as_ref().unwrap_err();
        assert_eq!(err.index, 3);
        assert_eq!(err.label, "diverging-config");
        assert!(err.message.contains("livelocked"), "{}", err.message);
        // Every other run still completed.
        for (i, r) in out.results.iter().enumerate() {
            if i != 3 {
                assert!(r.is_ok(), "run {i} must survive the panic");
            }
        }
    }

    #[test]
    fn empty_pool_is_fine() {
        let out = run_pool(Vec::<RunSpec<u8>>::new(), 4);
        assert!(out.results.is_empty());
        assert_eq!(out.failed(), 0);
        assert_eq!(out.per_run_nanos.count(), 0);
    }

    #[test]
    fn timing_summary_covers_every_run() {
        let out = run_pool(squares(9), 3);
        assert_eq!(out.per_run_nanos.count(), 9);
        assert!(out.runs_per_sec() > 0.0);
    }

    #[test]
    fn more_workers_than_jobs_is_clamped() {
        let out = run_pool(squares(2), 64);
        assert_eq!(out.jobs, 2);
        assert_eq!(out.results.len(), 2);
    }

    #[test]
    fn par_map_indexed_orders_and_balances() {
        for jobs in [1, 2, 5, 16] {
            let got = par_map_indexed(33, jobs, |i| i * 3);
            assert_eq!(got, (0..33).map(|i| i * 3).collect::<Vec<_>>(), "jobs={jobs}");
        }
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn effective_jobs_priority() {
        // Explicit beats everything and is honored as given — even above the
        // default-path clamp.
        assert_eq!(effective_jobs(Some(3)), 3);
        assert_eq!(effective_jobs(Some(0)), 1, "clamped to at least 1");
        assert_eq!(effective_jobs(Some(MAX_DEFAULT_JOBS + 9)), MAX_DEFAULT_JOBS + 9);
        // Fallback is within [1, MAX_DEFAULT_JOBS] (env-var path is covered
        // by the integration smoke in scripts/verify.sh; mutating the
        // process environment from a unit test would race other tests).
        let detected = effective_jobs(None);
        assert!((1..=MAX_DEFAULT_JOBS).contains(&detected));
    }

    #[test]
    fn steal_range_pops_and_steals_disjointly() {
        let r = StealRange::new(0, 100);
        let (b, e) = r.pop_front(8).unwrap();
        assert_eq!((b, e), (0, 8));
        let (sb, se) = r.steal_back_half().unwrap();
        assert_eq!((sb, se), (54, 100), "half of 8..100 from the back");
        let (b2, e2) = r.pop_front(64).unwrap();
        assert_eq!((b2, e2), (8, 54), "front pop clamped to the remainder");
        assert!(r.pop_front(1).is_none());
        assert!(r.steal_back_half().is_none());
    }

    #[test]
    fn steal_range_single_index() {
        let r = StealRange::new(7, 8);
        assert_eq!(r.steal_back_half(), Some((7, 8)));
        assert!(r.pop_front(4).is_none());
    }

    #[test]
    fn batch_scope_runs_many_batches_on_persistent_workers() {
        batch_scope(
            4,
            |i, item: &u64| (i as u64) * 1000 + item * item,
            |pool| {
                assert_eq!(pool.jobs(), 4);
                for round in 0..50u64 {
                    let items: Vec<u64> = (0..17).map(|i| i + round).collect();
                    let got = pool.run_batch(items.clone());
                    let want: Vec<u64> = items
                        .iter()
                        .enumerate()
                        .map(|(i, v)| (i as u64) * 1000 + v * v)
                        .collect();
                    assert_eq!(got, want, "round {round}");
                }
            },
        );
    }

    #[test]
    fn batch_scope_inline_paths() {
        // jobs=1: no threads at all.
        batch_scope(
            1,
            |_, item: &u32| item + 1,
            |pool| {
                assert_eq!(pool.run_batch(vec![1, 2, 3]), vec![2, 3, 4]);
            },
        );
        // Single-item batches run inline even on a multi-worker pool.
        batch_scope(
            3,
            |_, item: &u32| item * 2,
            |pool| {
                assert_eq!(pool.run_batch(vec![21]), vec![42]);
                assert_eq!(pool.run_batch(Vec::new()), Vec::<u32>::new());
            },
        );
    }

    #[test]
    fn batch_scope_propagates_lowest_index_panic() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            batch_scope(
                3,
                |_, item: &u32| {
                    if *item >= 90 {
                        panic!("item {item} diverged");
                    }
                    *item
                },
                |pool| {
                    let mut items: Vec<u32> = (0..40).collect();
                    items[7] = 97;
                    items[31] = 91;
                    pool.run_batch(items);
                },
            )
        }));
        let payload = caught.expect_err("batch must panic");
        let msg = panic_message(payload);
        assert_eq!(msg, "item 97 diverged", "lowest submission index wins");
    }

    #[test]
    fn batch_scope_survives_a_panicking_batch() {
        // After a batch panics, the pool must still accept new batches and
        // shut down cleanly.
        batch_scope(
            2,
            |_, item: &u32| {
                if *item == 13 {
                    panic!("unlucky");
                }
                *item
            },
            |pool| {
                let bad = catch_unwind(AssertUnwindSafe(|| pool.run_batch(vec![1, 13, 2, 4])));
                assert!(bad.is_err());
                assert_eq!(pool.run_batch(vec![5, 6, 7]), vec![5, 6, 7]);
            },
        );
    }
}
