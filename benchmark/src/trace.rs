//! Outside-in tracing: a [`ThreadProgram`] wrapper that times the crossings
//! between an engine and the workload program it drives.
//!
//! The wrapper reads the clock once per crossing: on entry to and on return
//! from `next_op`, and (with gap accounting) on entry to and return from
//! `on_tx_abort`. A clock read costs tens of nanoseconds, so every extra
//! read shows up in the traced run's wall time; that is why timed runs never
//! use this wrapper.
//!
//! * Self time of the workload layer is the time inside `next_op`.
//! * With gap accounting on (the STM, one program per OS thread), the time
//!   from `next_op` returning to the thread's next call is the engine
//!   executing that op, charged to the op's [`OpClass`]. A gap that ends in
//!   `on_tx_abort` is charged to `failed` instead (the op that hit the
//!   conflict plus the engine's abort work), and the gap after
//!   `on_tx_abort` returns is the engine's backoff.
//! * Without gap accounting (the simulator, every program on one OS thread)
//!   the gap between two calls of one program holds other threads' work,
//!   so only `next_op` self time and op counts are kept.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use logtm_se::{Op, ProgCtx, ThreadProgram};

/// Where the engine's time after an op goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `Work` and `WorkUnitDone`: emulated compute.
    Work,
    /// `Read`.
    Read,
    /// `Cas` and `FetchAdd`.
    Rmw,
    /// `Write`.
    Write,
    /// `TxBegin`, `TxBeginOpen`, `EscapeBegin`, `EscapeEnd`.
    Begin,
    /// `TxCommit`.
    Commit,
    /// The op that hit a conflict, and the engine's abort work.
    Failed,
    /// The wait between an abort and the retry.
    Backoff,
}

impl OpClass {
    /// Every class, in metric order.
    pub const ALL: [OpClass; 8] = [
        OpClass::Work,
        OpClass::Read,
        OpClass::Rmw,
        OpClass::Write,
        OpClass::Begin,
        OpClass::Commit,
        OpClass::Failed,
        OpClass::Backoff,
    ];

    fn of(op: Op) -> Option<OpClass> {
        Some(match op {
            Op::Work(_) | Op::WorkUnitDone => OpClass::Work,
            Op::Read(_) => OpClass::Read,
            Op::Cas { .. } | Op::FetchAdd(..) => OpClass::Rmw,
            Op::Write(..) => OpClass::Write,
            Op::TxBegin | Op::TxBeginOpen | Op::EscapeBegin | Op::EscapeEnd => OpClass::Begin,
            Op::TxCommit => OpClass::Commit,
            Op::Done => return None,
        })
    }

    /// The per-layer metric name of this class's host time.
    pub fn metric(self) -> &'static str {
        match self {
            OpClass::Work => "stm.work_s",
            OpClass::Read => "stm.read_s",
            OpClass::Rmw => "stm.rmw_s",
            OpClass::Write => "stm.write_s",
            OpClass::Begin => "stm.begin_s",
            OpClass::Commit => "stm.commit_s",
            OpClass::Failed => "stm.failed_s",
            OpClass::Backoff => "stm.backoff_s",
        }
    }

    /// Whether this class is the TM's instrumented path (everything except
    /// emulated compute).
    pub fn is_tm(self) -> bool {
        self != OpClass::Work
    }
}

/// Host time and op counts summed over every traced program of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Time inside `next_op`.
    pub next_op: Duration,
    /// `next_op` calls.
    pub ops: u64,
    /// Engine time per [`OpClass`], indexed like `OpClass::ALL`.
    pub class: [Duration; 8],
}

impl LayerTimes {
    fn merge(&mut self, o: &LayerTimes) {
        self.next_op += o.next_op;
        self.ops += o.ops;
        for (a, b) in self.class.iter_mut().zip(o.class) {
            *a += b;
        }
    }

    /// `(class, time)` for every op class.
    pub fn classes(&self) -> impl Iterator<Item = (OpClass, Duration)> + '_ {
        OpClass::ALL.into_iter().zip(self.class)
    }
}

/// Shared sink every wrapper of one run flushes into when dropped.
pub type Sink = Arc<Mutex<LayerTimes>>;

/// The tracing wrapper around one thread's program.
pub struct Traced {
    inner: Box<dyn ThreadProgram>,
    sink: Sink,
    gaps: bool,
    acc: LayerTimes,
    /// When control last returned to the engine, and what it went on to do.
    last: Option<(Instant, OpClass)>,
}

impl Traced {
    /// Wraps `inner`; `gaps` turns on engine-time attribution (one program
    /// per OS thread only).
    pub fn wrap(inner: Box<dyn ThreadProgram>, sink: &Sink, gaps: bool) -> Box<dyn ThreadProgram> {
        Box::new(Traced {
            inner,
            sink: Arc::clone(sink),
            gaps,
            acc: LayerTimes::default(),
            last: None,
        })
    }

    fn charge_gap(&mut self, now: Instant, class: Option<OpClass>) {
        if let Some((since, pending)) = self.last {
            let c = class.unwrap_or(pending);
            self.acc.class[c as usize] += now - since;
        }
    }
}

impl ThreadProgram for Traced {
    fn next_op(&mut self, t: &mut ProgCtx) -> Op {
        let enter = Instant::now();
        if self.gaps {
            self.charge_gap(enter, None);
        }
        let op = self.inner.next_op(t);
        let exit = Instant::now();
        self.acc.next_op += exit - enter;
        self.acc.ops += 1;
        self.last = OpClass::of(op).map(|c| (exit, c));
        op
    }

    fn on_tx_abort(&mut self, t: &mut ProgCtx) {
        if !self.gaps {
            return self.inner.on_tx_abort(t);
        }
        let enter = Instant::now();
        self.charge_gap(enter, Some(OpClass::Failed));
        self.inner.on_tx_abort(t);
        let exit = Instant::now();
        self.acc.class[OpClass::Failed as usize] += exit - enter;
        self.last = Some((exit, OpClass::Backoff));
    }

    fn on_partial_abort(&mut self, t: &mut ProgCtx, remaining_depth: usize) -> bool {
        self.inner.on_partial_abort(t, remaining_depth)
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        if let Ok(mut total) = self.sink.lock() {
            total.merge(&self.acc);
        }
    }
}
