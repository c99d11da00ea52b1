//! Deterministic event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// A pluggable source of scheduling decisions for exploration mode (see
/// [`crate::explore`]).
///
/// When [`EventQueue::pop_explored`] finds more than one event eligible to
/// fire, it asks the chooser which one goes first. Index `0` is always the
/// event the plain FIFO queue would have fired, so a chooser that constantly
/// answers `0` reproduces [`EventQueue::pop`] exactly.
pub trait EventChooser {
    /// Choose among `n >= 2` eligible events, ordered by `(time, seq)`.
    /// The return value is clamped to `n - 1` by the caller.
    fn choose(&mut self, n: usize) -> usize;
}

/// An entry: ordered by time, then by insertion sequence so that events
/// scheduled for the same cycle pop in FIFO order. `BinaryHeap` is a
/// max-heap, so comparisons are reversed.
struct Entry<E> {
    time: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: the smallest (time, seq) must be the heap maximum.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Default number of calendar buckets, one simulated cycle each. Covers the
/// overwhelmingly common small-delta schedules (cache hits, network hops,
/// NACK retries) with O(1) push/pop; anything scheduled further out takes
/// the heap fallback and migrates into the calendar as the window slides.
/// Scaled-out systems (more in-flight events, longer latency tails) can
/// widen the window via [`EventQueue::with_buckets`].
pub const DEFAULT_BUCKETS: usize = 256;

/// Widest calendar window: 64 occupancy words, so one summary word covers
/// them all.
pub const MAX_BUCKETS: usize = 64 * 64;

/// Sentinel index terminating intrusive node lists (and the freelist).
const NIL: u32 = u32::MAX;

/// An arena slot: one pending event threaded into its bucket's singly
/// linked list (or parked on the freelist, `payload == None`). Its time is
/// implied by the bucket it sits in.
struct Node<E> {
    seq: u64,
    /// Next node in this bucket's seq-ordered list, or next free slot.
    next: u32,
    /// `Some` while pending; taken on pop, leaving the slot to the
    /// freelist without moving the node.
    payload: Option<E>,
}

/// One calendar slot: the ends of a seq-sorted intrusive node list, both
/// [`NIL`] while the slot is empty.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket { head: NIL, tail: NIL };

/// A priority queue of timestamped events with deterministic ordering.
///
/// Events pop in nondecreasing [`Cycle`] order; events scheduled for the same
/// cycle pop in the order they were pushed (stable FIFO tie-breaking). This
/// determinism is load-bearing: the whole LogTM-SE evaluation relies on runs
/// being exactly reproducible from `(config, seed)`.
///
/// # Implementation
///
/// A bucketed calendar queue fronts a binary heap. Buckets cover the sliding
/// window `[window_start, window_start + n)` at one-cycle granularity, so
/// the hot path (small scheduling deltas) is an append to a ring slot and a
/// bitmap test — no sift. Events outside the window land in the heap and are
/// migrated into buckets as the window advances; each event migrates at most
/// once. The observable order is **exactly** the `(time, seq)` order the
/// plain heap produced, including [`EventQueue::pop_explored`] semantics —
/// the differential tests below pin this down.
///
/// Storage is a node **arena with a freelist**: each bucket holds 4-byte
/// head/tail indices into one shared slab of intrusive singly linked nodes,
/// so pushing and popping never allocates after warm-up and the bucket array
/// stays small enough to sit in cache even at the 4096-bucket windows
/// 256-context systems use.
///
/// Occupancy is one bit per bucket in at most 64 words, plus **one summary
/// word** with bit `w` set iff word `w` is non-empty. Finding the next event
/// is a masked test of the window-start word; if that is empty, one rotate
/// of the summary word and two `trailing_zeros` land on the next occupied
/// bucket in ring order — no loop, no wraparound rescan. One summary word
/// caps the window at [`MAX_BUCKETS`] (4096) buckets.
///
/// # Example
///
/// ```
/// use ltse_sim::{Cycle, EventQueue};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Tick, Tock }
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(2), Ev::Tock);
/// q.push(Cycle(1), Ev::Tick);
/// assert_eq!(q.pop(), Some((Cycle(1), Ev::Tick)));
/// assert_eq!(q.pop(), Some((Cycle(2), Ev::Tock)));
/// ```
pub struct EventQueue<E> {
    /// Ring of one-cycle buckets; slot `t & mask` holds the seq-sorted list
    /// of entries for time `t` while `t` lies inside the window (plain
    /// pushes append — their seq is the largest so far; exploration
    /// re-pushes walk to their slot).
    buckets: Vec<Bucket>,
    /// Node arena backing every bucket list; freed slots chain through
    /// [`Node::next`] from `free`.
    nodes: Vec<Node<E>>,
    /// Freelist head into `nodes`, or [`NIL`].
    free: u32,
    /// `buckets.len() - 1`; the length is a power of two.
    mask: u64,
    /// Occupancy bitmap over buckets, one bit each.
    occ: Vec<u64>,
    /// Bit `w` set iff `occ[w] != 0`.
    summary: u64,
    /// Total entries across all buckets.
    bucket_len: usize,
    /// Start of the bucket window. Only ever advances, and only to the
    /// timestamp of a global-minimum event (so no pending event is left
    /// behind it except strays re-routed to the heap).
    window_start: Cycle,
    /// Fallback for events beyond the window (and for rare stray pushes at
    /// times the window has already passed, which exploration can create).
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at cycle 0 with
    /// [`DEFAULT_BUCKETS`] calendar buckets.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// Creates an empty queue with `n` calendar buckets (a one-cycle slot
    /// each, so the calendar window spans `n` cycles). Larger systems keep
    /// more events in flight over longer latency tails; widening the window
    /// keeps them on the O(1) bucket path instead of the heap fallback.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two in `64..=`[`MAX_BUCKETS`] (at
    /// least one occupancy word, at most one summary word's worth).
    pub fn with_buckets(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && (64..=MAX_BUCKETS).contains(&n),
            "bucket count must be a power of two >= 64 and <= {MAX_BUCKETS}, got {n}"
        );
        EventQueue {
            buckets: vec![EMPTY; n],
            nodes: Vec::new(),
            free: NIL,
            mask: n as u64 - 1,
            occ: vec![0; n / 64],
            summary: 0,
            bucket_len: 0,
            window_start: Cycle::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Cycle::ZERO,
        }
    }

    /// Number of calendar buckets (the window width in cycles).
    pub fn n_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Grabs an arena slot for `e` (reusing the freelist when possible) and
    /// returns its index. The node's `next` is left as [`NIL`].
    #[inline]
    fn alloc_node(&mut self, e: Entry<E>) -> u32 {
        let node = Node {
            seq: e.seq,
            next: NIL,
            payload: Some(e.payload),
        };
        if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.nodes[idx as usize];
            self.free = slot.next;
            *slot = node;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "event arena exhausted");
            self.nodes.push(node);
            idx
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time (events may
    /// not be scheduled in the past).
    #[inline]
    pub fn push(&mut self, at: Cycle, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at}, now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_entry(Entry {
            time: at,
            seq,
            payload,
        });
    }

    /// Schedules `payload` to fire `delay` cycles after the current time.
    #[inline]
    pub fn push_after(&mut self, delay: Cycle, payload: E) {
        self.push(self.now + delay, payload);
    }

    /// Routes an entry (with an already-assigned seq) to a bucket or the
    /// heap by its timestamp.
    #[inline]
    fn push_entry(&mut self, e: Entry<E>) {
        if e.time >= self.window_start && e.time.0 - self.window_start.0 <= self.mask {
            self.bucket_insert(e);
        } else {
            self.heap.push(e);
        }
    }

    /// Inserts into the bucket ring, keeping the slot's seq order. The fast
    /// path is a plain append: ordinary pushes always carry the largest seq.
    #[inline]
    fn bucket_insert(&mut self, e: Entry<E>) {
        let idx = (e.time.0 & self.mask) as usize;
        let seq = e.seq;
        let node = self.alloc_node(e);
        let b = self.buckets[idx];
        if b.tail == NIL {
            self.buckets[idx] = Bucket {
                head: node,
                tail: node,
            };
            self.occ[idx / 64] |= 1 << (idx % 64);
            self.summary |= 1 << (idx / 64);
        } else if self.nodes[b.tail as usize].seq < seq {
            // Fast path: ordinary pushes carry the largest seq so far.
            self.nodes[b.tail as usize].next = node;
            self.buckets[idx].tail = node;
        } else {
            // Exploration re-push: walk the (short) list to the seq slot.
            let mut prev = NIL;
            let mut cur = b.head;
            while cur != NIL && self.nodes[cur as usize].seq < seq {
                prev = cur;
                cur = self.nodes[cur as usize].next;
            }
            self.nodes[node as usize].next = cur;
            if prev == NIL {
                self.buckets[idx].head = node;
            } else {
                self.nodes[prev as usize].next = node;
            }
        }
        self.bucket_len += 1;
    }

    /// Unlinks and returns the front entry of bucket `idx`, which holds the
    /// events for time `time`.
    #[inline]
    fn pop_bucket(&mut self, idx: usize, time: Cycle) -> Entry<E> {
        let head = self.buckets[idx].head;
        debug_assert!(head != NIL, "pop from empty bucket");
        let node = &mut self.nodes[head as usize];
        let e = Entry {
            time,
            seq: node.seq,
            payload: node.payload.take().expect("pending node has a payload"),
        };
        let next = node.next;
        node.next = self.free;
        self.free = head;
        self.buckets[idx].head = next;
        if next == NIL {
            self.buckets[idx].tail = NIL;
            let w = idx / 64;
            self.occ[w] &= !(1 << (idx % 64));
            if self.occ[w] == 0 {
                self.summary &= !(1 << w);
            }
        }
        self.bucket_len -= 1;
        e
    }

    /// The earliest occupied bucket as `(ring index, time)`. Bucketed
    /// events all lie in `[window_start, window_start + n)`, so ring order
    /// from the window start's slot is time order.
    #[inline]
    fn next_bucket(&self) -> Option<(usize, Cycle)> {
        if self.summary == 0 {
            return None;
        }
        let s = (self.window_start.0 & self.mask) as usize;
        let w0 = s / 64;
        let here = self.occ[w0] & (!0u64 << (s % 64));
        let p = if here != 0 {
            w0 * 64 + here.trailing_zeros() as usize
        } else {
            // Rotate so word `w0 + 1` sits at bit 0: the words after `w0`
            // in ring order come first, and `w0` itself (whose bits below
            // `s` are the far end of the window) comes last.
            let r = (w0 as u32 + 1) & 63;
            let w = ((self.summary.rotate_right(r).trailing_zeros() + r) & 63) as usize;
            w * 64 + self.occ[w].trailing_zeros() as usize
        };
        let dist = (p.wrapping_sub(s) as u64) & self.mask;
        Some((p, Cycle(self.window_start.0 + dist)))
    }

    /// Slides the window start forward to `t` (the time of a global-minimum
    /// event) and migrates newly covered heap entries into buckets. The heap
    /// drains in `(time, seq)` order, so per-bucket seq order is preserved.
    fn advance_window(&mut self, t: Cycle) {
        self.window_start = self.window_start.max(t);
        let horizon = self.window_start.0.saturating_add(self.buckets.len() as u64);
        while self.heap.peek().is_some_and(|top| top.time.0 < horizon) {
            let e = self.heap.pop().expect("peeked entry");
            self.bucket_insert(e);
        }
    }

    /// Removes the globally smallest `(time, seq)` entry without touching
    /// `now` — shared by [`EventQueue::pop`] and
    /// [`EventQueue::pop_explored`].
    #[inline]
    fn pop_min_entry(&mut self) -> Option<Entry<E>> {
        let Some(top) = self.heap.peek() else {
            // Hot path: nothing far out, so the first bucket holds the
            // minimum and no migration can be due.
            let (idx, t) = self.next_bucket()?;
            self.window_start = t;
            return Some(self.pop_bucket(idx, t));
        };
        let hk = (top.time, top.seq);
        match self.next_bucket() {
            // A bucketed event is first. Migrated entries sharing its time
            // carry larger seqs, so it stays at the front of its bucket.
            Some((idx, t)) if (t, self.nodes[self.buckets[idx].head as usize].seq) < hk => {
                self.advance_window(t);
                Some(self.pop_bucket(idx, t))
            }
            // The heap's top is first and inside or ahead of the window:
            // migrate it (and everything else now covered), then pop it
            // from the front of its bucket.
            _ if hk.0 >= self.window_start => {
                self.advance_window(hk.0);
                Some(self.pop_bucket((hk.0 .0 & self.mask) as usize, hk.0))
            }
            // Stray behind the window (exploration re-push): the heap alone
            // holds it.
            _ => self.heap.pop(),
        }
    }

    /// Removes and returns the earliest event, advancing the queue's notion
    /// of "now" to its timestamp. Returns `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let entry = self.pop_min_entry()?;
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// Like [`EventQueue::pop`], but lets `chooser` reorder events that are
    /// *almost* simultaneous: all pending events within `horizon` cycles of
    /// the earliest one (up to `window` of them) are eligible, and the chosen
    /// event fires **at the earliest candidate's timestamp**. Unchosen
    /// candidates keep their original `(time, seq)` and stay pending.
    ///
    /// This deliberately trades timing fidelity for ordering control: in
    /// exploration mode the simulator no longer claims cycle-accurate
    /// latencies, only that the chosen interleaving is one the event system
    /// could produce under perturbed timing. Choosing index 0 everywhere
    /// (or passing `window <= 1`) degenerates to `pop`, so the all-zero
    /// schedule is byte-identical to a normal run.
    pub fn pop_explored(
        &mut self,
        chooser: &mut dyn EventChooser,
        horizon: Cycle,
        window: usize,
    ) -> Option<(Cycle, E)> {
        if window <= 1 {
            return self.pop();
        }
        let first = self.pop_min_entry()?;
        let fire_at = first.time;
        let cutoff = fire_at + horizon;
        let mut eligible = vec![first];
        while eligible.len() < window {
            match self.peek_time() {
                Some(t) if t <= cutoff => {
                    eligible.push(self.pop_min_entry().expect("peeked entry"));
                }
                _ => break,
            }
        }
        let pick = if eligible.len() > 1 {
            chooser.choose(eligible.len()).min(eligible.len() - 1)
        } else {
            0
        };
        let chosen = eligible.swap_remove(pick);
        for entry in eligible {
            self.push_entry(entry);
        }
        self.now = fire_at;
        Some((fire_at, chosen.payload))
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    pub fn peek_time(&self) -> Option<Cycle> {
        let b = self.next_bucket().map(|(_, t)| t);
        let h = self.heap.peek().map(|e| e.time);
        match (b, h) {
            (None, t) | (t, None) => t,
            (Some(a), Some(c)) => Some(a.min(c)),
        }
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (cycle 0 before any pop).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.bucket_len + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events, keeping the clock where it is.
    pub fn clear(&mut self) {
        if self.bucket_len > 0 {
            self.buckets.fill(EMPTY);
            self.occ.fill(0);
            self.summary = 0;
        }
        self.nodes.clear();
        self.free = NIL;
        self.bucket_len = 0;
        self.heap.clear();
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 'c');
        q.push(Cycle(10), 'a');
        q.push(Cycle(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Cycle::ZERO);
        q.push(Cycle(7), ());
        q.pop();
        assert_eq!(q.now(), Cycle(7));
    }

    #[test]
    fn push_after_is_relative() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), 1);
        q.pop();
        q.push_after(Cycle(5), 2);
        assert_eq!(q.pop(), Some((Cycle(15), 2)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), ());
        q.pop();
        q.push(Cycle(5), ());
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Cycle(1), ());
        q.push(Cycle(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(Cycle(9), ());
        assert_eq!(q.peek_time(), Some(Cycle(9)));
        assert_eq!(q.now(), Cycle::ZERO);
    }

    /// A chooser that replays a fixed list of picks, then picks 0.
    struct Fixed(Vec<usize>, usize);

    impl EventChooser for Fixed {
        fn choose(&mut self, _n: usize) -> usize {
            let c = self.0.get(self.1).copied().unwrap_or(0);
            self.1 += 1;
            c
        }
    }

    #[test]
    fn pop_explored_all_zero_matches_pop() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (t, p) in [(3, 'x'), (1, 'y'), (1, 'z'), (9, 'w')] {
            a.push(Cycle(t), p);
            b.push(Cycle(t), p);
        }
        let mut chooser = Fixed(vec![], 0);
        loop {
            let via_pop = a.pop();
            let via_explored = b.pop_explored(&mut chooser, Cycle(100), 4);
            assert_eq!(via_pop, via_explored);
            if via_pop.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pop_explored_reorders_within_horizon() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), 'a');
        q.push(Cycle(2), 'b');
        q.push(Cycle(50), 'c');
        // Pick index 1: 'b' fires first, *at* cycle 1. 'c' is outside the
        // horizon and must not be eligible.
        let mut chooser = Fixed(vec![1], 0);
        assert_eq!(q.pop_explored(&mut chooser, Cycle(10), 4), Some((Cycle(1), 'b')));
        // 'a' kept its original timestamp.
        assert_eq!(q.pop_explored(&mut chooser, Cycle(10), 4), Some((Cycle(1), 'a')));
        assert_eq!(q.pop_explored(&mut chooser, Cycle(10), 4), Some((Cycle(50), 'c')));
        assert_eq!(q.now(), Cycle(50));
    }

    #[test]
    fn pop_explored_window_caps_eligibility() {
        let mut q = EventQueue::new();
        for (i, p) in ['a', 'b', 'c', 'd'].into_iter().enumerate() {
            q.push(Cycle(i as u64), p);
        }
        // window=2: only 'a' and 'b' are eligible; an out-of-range pick is
        // clamped to the last eligible event.
        let mut chooser = Fixed(vec![7], 0);
        assert_eq!(q.pop_explored(&mut chooser, Cycle(100), 2), Some((Cycle(0), 'b')));
    }

    #[test]
    fn pop_explored_never_regresses_time() {
        let mut q = EventQueue::new();
        q.push(Cycle(5), 'a');
        q.push(Cycle(8), 'b');
        let mut chooser = Fixed(vec![1], 0);
        // 'b' (scheduled for 8) fires early at 5; 'a' then fires at its own
        // time, which is still >= now.
        assert_eq!(q.pop_explored(&mut chooser, Cycle(10), 4), Some((Cycle(5), 'b')));
        assert_eq!(q.now(), Cycle(5));
        assert_eq!(q.pop_explored(&mut chooser, Cycle(10), 4), Some((Cycle(5), 'a')));
        // Scheduling after the reordering still works (no past-event panic).
        q.push_after(Cycle(1), 'c');
        assert_eq!(q.pop(), Some((Cycle(6), 'c')));
    }

    #[test]
    fn interleaved_push_pop_remains_ordered() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), 1);
        q.push(Cycle(100), 100);
        assert_eq!(q.pop(), Some((Cycle(1), 1)));
        q.push(Cycle(50), 50);
        q.push(Cycle(2), 2);
        assert_eq!(q.pop(), Some((Cycle(2), 2)));
        assert_eq!(q.pop(), Some((Cycle(50), 50)));
        assert_eq!(q.pop(), Some((Cycle(100), 100)));
    }

    #[test]
    fn far_future_events_take_the_heap_fallback_and_migrate() {
        let mut q = EventQueue::new();
        // Far beyond the 256-cycle calendar window.
        q.push(Cycle(10_000), 'z');
        q.push(Cycle(10_000), 'y'); // FIFO at the same far time
        q.push(Cycle(3), 'a');
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((Cycle(3), 'a')));
        // Window slides to 10_000; both migrate preserving FIFO.
        assert_eq!(q.pop(), Some((Cycle(10_000), 'z')));
        assert_eq!(q.pop(), Some((Cycle(10_000), 'y')));
        assert!(q.is_empty());
    }

    #[test]
    fn window_boundary_straddle_keeps_order() {
        let mut q = EventQueue::new();
        // One event in-window, one exactly at the boundary, one just past.
        q.push(Cycle(255), 'a');
        q.push(Cycle(256), 'b');
        q.push(Cycle(257), 'c');
        assert_eq!(q.pop(), Some((Cycle(255), 'a')));
        assert_eq!(q.pop(), Some((Cycle(256), 'b')));
        assert_eq!(q.pop(), Some((Cycle(257), 'c')));
    }

    #[test]
    fn same_time_split_across_heap_and_bucket_pops_in_seq_order() {
        let mut q = EventQueue::new();
        // seq 0 at t=300 goes to the heap (outside the initial window).
        q.push(Cycle(300), 0);
        // Drain an early event so the window slides to 100: t=300 is now
        // inside [100, 356) — but it's already in the heap.
        q.push(Cycle(100), -1);
        assert_eq!(q.pop(), Some((Cycle(100), -1)));
        // seq 2 at t=300 lands in the bucket directly.
        q.push(Cycle(300), 1);
        // Both must pop at t=300 in push (seq) order.
        assert_eq!(q.pop(), Some((Cycle(300), 0)));
        assert_eq!(q.pop(), Some((Cycle(300), 1)));
    }

    #[test]
    fn ring_wraparound_reuses_slots_correctly() {
        let mut q = EventQueue::new();
        // March time forward well past several window lengths with a busy
        // schedule that reuses every slot.
        let mut expect = Vec::new();
        for i in 0..2000u64 {
            q.push(Cycle(i * 3), i);
            expect.push((Cycle(i * 3), i));
        }
        for e in expect {
            assert_eq!(q.pop(), Some(e));
        }
    }

    #[test]
    fn pop_explored_stray_behind_window_still_pops_in_order() {
        // Exploration can advance the window past unchosen candidates'
        // timestamps; those strays are re-routed to the heap and must still
        // pop in (time, seq) order against bucketed events.
        let mut q = EventQueue::new();
        q.push(Cycle(5), 'a');
        q.push(Cycle(300), 'b'); // heap at push time
        q.push(Cycle(301), 'c');
        // Window big enough to gather all three; horizon covers them too.
        let mut chooser = Fixed(vec![2], 0);
        // 'c' fires at cycle 5; 'a' (t=5) and 'b' (t=300) stay pending, but
        // the window has advanced to 301 — 'a' is now a stray.
        assert_eq!(q.pop_explored(&mut chooser, Cycle(1000), 4), Some((Cycle(5), 'c')));
        assert_eq!(q.pop(), Some((Cycle(5), 'a')));
        assert_eq!(q.pop(), Some((Cycle(300), 'b')));
        // New pushes still work and order correctly afterwards.
        q.push(Cycle(300), 'd');
        q.push(Cycle(600), 'e');
        assert_eq!(q.pop(), Some((Cycle(300), 'd')));
        assert_eq!(q.pop(), Some((Cycle(600), 'e')));
    }

    #[test]
    fn bucket_widths_agree_on_pop_order() {
        // The bucket count is a pure performance knob: every width, from one
        // occupancy word to a full summary word, must produce the identical
        // pop sequence.
        let mut queues: Vec<EventQueue<u64>> = [64, 128, 256, 1024, 2048, MAX_BUCKETS]
            .into_iter()
            .map(EventQueue::with_buckets)
            .collect();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut t = 0u64;
        for i in 0..500u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            t += state >> 56; // deltas 0..255, occasionally past narrow windows
            for q in &mut queues {
                q.push(Cycle(t), i);
            }
        }
        loop {
            let got: Vec<_> = queues.iter_mut().map(|q| q.pop()).collect();
            for other in &got[1..] {
                assert_eq!(&got[0], other);
            }
            if got[0].is_none() {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_buckets_rejects_non_power_of_two() {
        let _ = EventQueue::<()>::with_buckets(96);
    }

    #[test]
    #[should_panic(expected = ">= 64")]
    fn with_buckets_rejects_tiny_counts() {
        let _ = EventQueue::<()>::with_buckets(32);
    }

    #[test]
    #[should_panic(expected = "<= 4096")]
    fn with_buckets_rejects_more_than_one_summary_word() {
        let _ = EventQueue::<()>::with_buckets(8192);
    }

    /// Reference implementation: the plain `BinaryHeap` queue this calendar
    /// queue replaced. Kept verbatim (minus exploration) as a test oracle.
    struct RefQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        now: Cycle,
    }

    impl<E> RefQueue<E> {
        fn new() -> Self {
            RefQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: Cycle::ZERO,
            }
        }

        fn push(&mut self, at: Cycle, payload: E) {
            assert!(at >= self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry {
                time: at,
                seq,
                payload,
            });
        }

        fn pop(&mut self) -> Option<(Cycle, E)> {
            let e = self.heap.pop()?;
            self.now = e.time;
            Some((e.time, e.payload))
        }

        fn pop_explored(
            &mut self,
            chooser: &mut dyn EventChooser,
            horizon: Cycle,
            window: usize,
        ) -> Option<(Cycle, E)> {
            if window <= 1 {
                return self.pop();
            }
            let first = self.heap.pop()?;
            let fire_at = first.time;
            let cutoff = fire_at + horizon;
            let mut eligible = vec![first];
            while eligible.len() < window {
                match self.heap.peek() {
                    Some(e) if e.time <= cutoff => {
                        eligible.push(self.heap.pop().expect("peeked entry"));
                    }
                    _ => break,
                }
            }
            let pick = if eligible.len() > 1 {
                chooser.choose(eligible.len()).min(eligible.len() - 1)
            } else {
                0
            };
            let chosen = eligible.swap_remove(pick);
            for entry in eligible {
                self.heap.push(entry);
            }
            self.now = fire_at;
            Some((fire_at, chosen.payload))
        }
    }

    /// Differential property: under random push/pop workloads with mixed
    /// near/far deltas, the calendar queue pops exactly what the reference
    /// heap pops.
    #[test]
    fn differential_random_push_pop_matches_reference() {
        crate::check::cases(60, 0x5EED_CA1E, |rng| {
            let mut queues = widths();
            let mut refq: RefQueue<u32> = RefQueue::new();
            let mut next_payload = 0u32;
            for _ in 0..400 {
                let action = rng.gen_range(0, 3);
                if action < 2 || refq.heap.is_empty() {
                    // Push with a delta drawn from a spread of scales so we
                    // exercise buckets, the boundary, and the heap fallback.
                    let delta = match rng.gen_range(0, 4) {
                        0 => rng.gen_range(0, 4),
                        1 => rng.gen_range(0, 64),
                        2 => 200 + rng.gen_range(0, 120), // straddles the boundary
                        _ => rng.gen_range(0, 5_000),
                    };
                    let at = Cycle(refq.now.0 + delta);
                    for q in &mut queues {
                        q.push(at, next_payload);
                    }
                    refq.push(at, next_payload);
                    next_payload += 1;
                } else {
                    let expect = refq.pop();
                    for q in &mut queues {
                        assert_eq!(q.pop(), expect, "width {}", q.n_buckets());
                    }
                }
                for q in &queues {
                    assert_eq!(q.len(), refq.heap.len());
                    assert_eq!(q.peek_time(), refq.heap.peek().map(|e| e.time));
                }
            }
            drain_against(&mut queues, &mut refq);
        });
    }

    /// Differential property: `pop_explored` with a shared random chooser
    /// behaves identically on both implementations, including the stray
    /// re-push paths.
    #[test]
    fn differential_random_pop_explored_matches_reference() {
        crate::check::cases(40, 0xE0E0_57AC, |rng| {
            let mut queues = widths();
            let mut refq: RefQueue<u32> = RefQueue::new();
            let mut next_payload = 0u32;
            // All sides must see the same choice sequence.
            let picks: Vec<usize> =
                (0..200).map(|_| rng.gen_range(0, 6) as usize).collect();
            let mut choosers: Vec<Fixed> =
                queues.iter().map(|_| Fixed(picks.clone(), 0)).collect();
            let mut c_ref = Fixed(picks, 0);
            for _ in 0..300 {
                let action = rng.gen_range(0, 4);
                if action < 2 || refq.heap.is_empty() {
                    let delta = match rng.gen_range(0, 3) {
                        0 => rng.gen_range(0, 8),
                        1 => 240 + rng.gen_range(0, 40),
                        _ => rng.gen_range(0, 2_000),
                    };
                    let at = Cycle(refq.now.0 + delta);
                    for q in &mut queues {
                        q.push(at, next_payload);
                    }
                    refq.push(at, next_payload);
                    next_payload += 1;
                } else if action == 2 {
                    let expect = refq.pop();
                    for q in &mut queues {
                        assert_eq!(q.pop(), expect, "width {}", q.n_buckets());
                    }
                } else {
                    let horizon = Cycle(rng.gen_range(0, 400));
                    let window = 1 + rng.gen_range(0, 4) as usize;
                    explored_against(
                        &mut queues,
                        &mut choosers,
                        &mut refq,
                        &mut c_ref,
                        horizon,
                        window,
                    );
                }
                for q in &queues {
                    assert_eq!(q.len(), refq.heap.len());
                }
            }
            drain_against(&mut queues, &mut refq);
        });
    }

    /// The widths every differential test runs side by side: one occupancy
    /// word, the default, and the full summary word.
    fn widths() -> Vec<EventQueue<u32>> {
        [64, DEFAULT_BUCKETS, MAX_BUCKETS]
            .into_iter()
            .map(EventQueue::with_buckets)
            .collect()
    }

    /// One `pop_explored` on every queue and the reference, each with its
    /// own copy of the same pick sequence; all must fire the same event and
    /// consult their choosers identically.
    fn explored_against(
        queues: &mut [EventQueue<u32>],
        choosers: &mut [Fixed],
        refq: &mut RefQueue<u32>,
        c_ref: &mut Fixed,
        horizon: Cycle,
        window: usize,
    ) {
        let expect = refq.pop_explored(c_ref, horizon, window);
        for (q, c) in queues.iter_mut().zip(choosers.iter_mut()) {
            assert_eq!(q.pop_explored(c, horizon, window), expect, "width {}", q.n_buckets());
            assert_eq!(c.1, c_ref.1, "choosers must be consulted identically");
        }
    }

    /// Pops everything left, checking each queue against the reference.
    fn drain_against(queues: &mut [EventQueue<u32>], refq: &mut RefQueue<u32>) {
        while !refq.heap.is_empty() {
            let expect = refq.pop();
            for q in queues.iter_mut() {
                assert_eq!(q.pop(), expect, "width {}", q.n_buckets());
            }
        }
        for q in queues.iter() {
            assert!(q.is_empty(), "width {}", q.n_buckets());
        }
    }

    /// Differential property in the 256-context shape the simulator runs at
    /// 4096 buckets: 256 live events, each re-scheduled as it fires (like a
    /// stalled thread retrying), mostly 1–64 cycles ahead with occasional
    /// ~60k-cycle jumps far past the window, and `pop_explored` calls with
    /// nonzero picks interleaved. The clock crosses the ring many times, so
    /// strays, migrations and the summary-word wraparound all meet the
    /// reference heap.
    #[test]
    fn differential_wide_window_with_many_live_events_matches_reference() {
        crate::check::cases(6, 0x4096_0256, |rng| {
            let mut queues = vec![EventQueue::with_buckets(MAX_BUCKETS)];
            let mut refq: RefQueue<u32> = RefQueue::new();
            let picks: Vec<usize> = (0..4_000).map(|_| 1 + rng.gen_range(0, 5) as usize).collect();
            let mut choosers = vec![Fixed(picks.clone(), 0)];
            let mut c_ref = Fixed(picks, 0);
            for payload in 0..20_000u32 {
                if refq.heap.len() >= 256 {
                    if rng.gen_range(0, 8) == 0 {
                        let horizon = Cycle(rng.gen_range(0, 128));
                        let window = 2 + rng.gen_range(0, 4) as usize;
                        explored_against(
                        &mut queues,
                        &mut choosers,
                        &mut refq,
                        &mut c_ref,
                        horizon,
                        window,
                    );
                    } else {
                        assert_eq!(queues[0].pop(), refq.pop());
                    }
                }
                let delta = if rng.gen_range(0, 16) == 0 {
                    55_000 + rng.gen_range(0, 10_000)
                } else {
                    1 + rng.gen_range(0, 64)
                };
                let at = Cycle(refq.now.0 + delta);
                queues[0].push(at, payload);
                refq.push(at, payload);
                assert_eq!(queues[0].len(), refq.heap.len());
                assert_eq!(queues[0].peek_time(), refq.heap.peek().map(|e| e.time));
            }
            assert!(refq.now.0 > 8 * MAX_BUCKETS as u64, "the clock must cross the ring");
            drain_against(&mut queues, &mut refq);
        });
    }
}
