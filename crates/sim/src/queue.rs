//! Deterministic event queue: one vector kept sorted on `(time, seq)`.
//!
//! Pending events sit in a `Vec` sorted *descending* on the full
//! `(time, seq)` key, so the earliest event is at the back: a pop is a
//! plain `Vec::pop`, and a push scans at most four entries from the back,
//! binary-searches the rest only when it must, and ends in a short
//! `memmove`. The simulated SoC never has more than a few dozen events
//! pending — 27 at most across the benchmark workloads and campaign
//! grids (DESIGN.md §12 has the measured table) — so the vector fits in
//! a handful of cache lines and no bucketed or heap-shaped structure
//! beats it. A new event lands on average 1.0–1.3 entries from the back
//! (same-instant requeues and the next chunk of a transfer), so the
//! bounded scan almost always finds its place and shifts almost nothing,
//! while a deep queue's far pushes still cost a logarithmic search.
//!
//! # Ordering
//!
//! Total order is `(time, seq)` with `seq` unique and monotonically
//! increasing, so FIFO-among-equals is exactly the order the key encodes
//! and the pop sequence is identical to a total sort of the push stream,
//! including pushes into the past. An entry's `seq` is implicit: among
//! equal times, the vector holds entries in push order. The
//! `queue::tests` property suite pins this against a binary-heap oracle.

use crate::time::Time;
use relief_trace::{EventKind, Tracer};

/// How many entries [`EventQueue::push`] scans from the back before it
/// falls back to a binary search over the rest. Simulator pushes land on
/// average 1.0–1.3 entries from the back; a longer scan would slow a deep
/// queue, whose far pushes the binary search serves better.
const BACK_SCAN: usize = 4;

/// One scheduled entry: fire time and payload.
#[derive(Clone)]
struct Entry<E> {
    at: Time,
    event: E,
}

/// A priority queue of timed events with deterministic FIFO tie-breaking.
///
/// Events scheduled for the same instant are delivered in insertion order,
/// which keeps simulations reproducible.
///
/// # Examples
///
/// ```
/// use relief_sim::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(5), 'b');
/// q.push(Time::from_ns(1), 'a');
/// assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
/// assert_eq!(q.pop(), Some((Time::from_ns(1), 'a')));
/// ```
///
/// A clone copies the pending events, the sequence and dispatch counters
/// and the tracer handle (which shares its sinks with the original), so
/// both queues pop identically from the copy point on.
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Pending events, sorted *descending* by `(at, seq)` so the earliest
    /// sits at the back.
    sorted: Vec<Entry<E>>,
    next_seq: u64,
    popped: u64,
    tracer: Tracer,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            sorted: Vec::new(),
            next_seq: 0,
            popped: 0,
            tracer: Tracer::off(),
        }
    }

    /// Attaches a tracer; every subsequent [`EventQueue::pop`] emits an
    /// `EventDispatched` record at the popped event's fire time.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: Time, event: E) {
        self.next_seq += 1;
        // The new entry's `seq` exceeds every pending one, so it goes
        // after exactly the entries that fire later: comparing times
        // alone finds its `(at, seq)` position. Most pushes land within an
        // entry or two of the back, so the last `BACK_SCAN` entries are
        // scanned first and only a farther push pays the binary search.
        let tail = self.sorted.len().saturating_sub(BACK_SCAN);
        let pos = match self.sorted[tail..].iter().rposition(|e| e.at > at) {
            Some(i) => tail + i + 1,
            None => self.sorted[..tail].partition_point(|e| e.at > at),
        };
        self.sorted.insert(pos, Entry { at, event });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.sorted.pop()?;
        self.mark_dispatched(e.at);
        Some((e.at, e.event))
    }

    /// Drains the earliest event *cohort* — every pending event scheduled
    /// for the earliest fire time — into `out` (cleared first), in exact
    /// `(time, seq)` pop order, and returns that fire time.
    ///
    /// Equivalent to calling [`EventQueue::pop`] while the head time is
    /// unchanged, except that dispatch accounting is deferred: drained
    /// events are *not* counted or traced here. The caller must invoke
    /// [`EventQueue::mark_dispatched`] once per drained event immediately
    /// before handling it, so `EventDispatched` trace records interleave
    /// with handler-emitted events exactly as on the one-at-a-time path.
    ///
    /// Events pushed at the cohort's time while the caller dispatches it
    /// get larger sequence numbers and form a later cohort, exactly as
    /// they would pop on the per-event path.
    pub fn pop_cohort(&mut self, out: &mut Vec<E>) -> Option<Time> {
        out.clear();
        let first = self.sorted.pop()?;
        let at = first.at;
        out.push(first.event);
        // The rest of the cohort is the vector's equal-time tail:
        // descending (at, seq) order puts same-time entries back-to-front
        // in ascending sequence order, so popping while times match yields
        // exact pop order — and costs one comparison in the common size-1
        // case.
        while let Some(e) = self.sorted.pop_if(|e| e.at == at) {
            out.push(e.event);
        }
        Some(at)
    }

    /// Accounts one cohort-drained event as dispatched: bumps the
    /// dispatch counter and emits the `EventDispatched` trace record at
    /// `at`. Call exactly once per event returned by
    /// [`EventQueue::pop_cohort`], immediately before handling it.
    pub fn mark_dispatched(&mut self, at: Time) {
        let index = self.popped;
        self.popped += 1;
        self.tracer.emit(at.as_ps(), || EventKind::EventDispatched { index });
    }

    /// Fire time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.sorted.last().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far (dispatch counter).
    pub fn dispatched(&self) -> u64 {
        self.popped
    }

    /// Total number of events ever scheduled (the next sequence number).
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("dispatched", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// One oracle entry, ordered so the max-heap surfaces the earliest
    /// `(at, seq)` first.
    struct OracleEntry<E> {
        at: Time,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for OracleEntry<E> {
        fn eq(&self, other: &Self) -> bool {
            (self.at, self.seq) == (other.at, other.seq)
        }
    }
    impl<E> Eq for OracleEntry<E> {}
    impl<E> PartialOrd for OracleEntry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for OracleEntry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    /// The textbook binary-heap event queue with an explicit sequence
    /// number per entry: the oracle the sorted vector must pop exactly
    /// like.
    struct HeapOracle<E> {
        heap: BinaryHeap<OracleEntry<E>>,
        pushed: u64,
        popped: u64,
    }

    impl<E> HeapOracle<E> {
        fn new() -> Self {
            HeapOracle { heap: BinaryHeap::new(), pushed: 0, popped: 0 }
        }

        fn push(&mut self, at: Time, event: E) {
            self.heap.push(OracleEntry { at, seq: self.pushed, event });
            self.pushed += 1;
        }

        fn pop(&mut self) -> Option<(Time, E)> {
            let e = self.heap.pop()?;
            self.popped += 1;
            Some((e.at, e.event))
        }
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), 3);
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), "a");
        q.push(Time::from_ns(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(Time::from_ns(7), "c");
        q.push(Time::from_ns(7), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(q.is_empty());
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(Time::ZERO, ());
        q.push(Time::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled(), 2);
        q.pop();
        assert_eq!(q.dispatched(), 1);
        assert_eq!(q.peek_time(), Some(Time::ZERO));
    }

    #[test]
    fn peek_sees_the_earliest_pending_event() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        for i in 0..200u64 {
            q.push(Time::from_ns(10 + i), i);
        }
        q.push(Time::from_ms(90), u64::MAX);
        assert_eq!(q.peek_time(), Some(Time::from_ns(10)));
        assert_eq!(q.pop().unwrap().1, 0);
        // Drain down to the far-future outlier; peek must still see it,
        // and a later push into the past must take over the head.
        for _ in 0..199 {
            q.pop();
        }
        assert_eq!(q.peek_time(), Some(Time::from_ms(90)));
        q.push(Time::from_us(1), 7);
        assert_eq!(q.peek_time(), Some(Time::from_us(1)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn same_instant_requeue_during_drain_pops_in_seq_order() {
        // Fault-injection shape: while handling the event at time T, the
        // simulator re-schedules work at exactly T; it must pop after
        // every earlier same-T event but before anything later.
        let mut q = EventQueue::new();
        q.push(Time::from_ns(100), "first");
        q.push(Time::from_ns(100), "second");
        q.push(Time::from_ns(200), "later");
        assert_eq!(q.pop().unwrap().1, "first");
        q.push(Time::from_ns(100), "requeued");
        q.push(Time::from_ns(150), "mid");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "requeued");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "later");
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_into_the_past_pops_first() {
        let mut q = EventQueue::new();
        for i in 0..500u64 {
            q.push(Time::from_us(10 + i * 10), i);
        }
        assert_eq!(q.pop().unwrap().1, 0);
        // Earlier than everything pending.
        q.push(Time::from_ns(1), 999);
        assert_eq!(q.pop().unwrap().1, 999);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn far_future_outage_style_events_pop_after_dense_near_traffic() {
        let mut q = EventQueue::new();
        q.push(Time::from_ms(200), u64::MAX); // pushed first, fires last
        for i in 0..1000u64 {
            q.push(Time::from_ns(i), i);
        }
        for i in 0..1000u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert_eq!(q.pop().unwrap().1, u64::MAX);
        assert!(q.is_empty());
    }

    /// Drives the sorted queue and the heap oracle through an
    /// identical randomized (time, seq) stream — bursty times, duplicate
    /// instants, interleaved pops, same-instant requeues — and asserts
    /// the pop sequences match exactly.
    #[test]
    fn property_matches_binary_heap_oracle() {
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(0xCA1E_4DA8 ^ seed);
            let mut q = EventQueue::new();
            let mut oracle = HeapOracle::new();
            let mut last_popped = 0u64;
            let mut pending = 0i64;
            for step in 0..4000u32 {
                let r = rng.next_u64();
                if r % 100 < 55 || pending == 0 {
                    // Push: cluster most times near the "present", with
                    // occasional far-future spikes (outage-style) and
                    // exact-requeue times.
                    let t = match r % 10 {
                        0 => last_popped,                                  // requeue "now"
                        1..=2 => last_popped + rng.next_u64() % 50,        // near future
                        3 => last_popped + rng.next_u64() % 1_000_000_000, // far future
                        _ => last_popped + rng.next_u64() % 100_000,       // mid
                    };
                    q.push(Time::from_ps(t), step);
                    oracle.push(Time::from_ps(t), step);
                    pending += 1;
                } else {
                    let a = q.pop();
                    let b = oracle.pop();
                    match (a, b) {
                        (Some((ta, ea)), Some((tb, eb))) => {
                            assert_eq!((ta, ea), (tb, eb), "seed {seed} step {step}");
                            last_popped = ta.as_ps();
                            pending -= 1;
                        }
                        (None, None) => {}
                        other => panic!("length mismatch: {other:?}"),
                    }
                }
            }
            // Drain both completely.
            loop {
                match (q.pop(), oracle.pop()) {
                    (Some((ta, ea)), Some((tb, eb))) => {
                        assert_eq!((ta, ea), (tb, eb), "seed {seed} drain")
                    }
                    (None, None) => break,
                    other => panic!("drain mismatch: {other:?}"),
                }
            }
            assert_eq!(q.dispatched(), oracle.popped);
            assert_eq!(q.scheduled(), oracle.pushed);
        }
    }

    #[test]
    fn push_lands_in_order_at_every_distance_from_the_back() {
        // Depths on both sides of the bounded back-scan, with the new
        // event before, between, equal to and after every pending time.
        for depth in 0..12u64 {
            for t in 0..=2 * depth + 2 {
                let mut q = EventQueue::new();
                let mut oracle = HeapOracle::new();
                for i in 0..depth {
                    q.push(Time::from_ns(2 * i + 1), i);
                    oracle.push(Time::from_ns(2 * i + 1), i);
                }
                q.push(Time::from_ns(t), u64::MAX);
                oracle.push(Time::from_ns(t), u64::MAX);
                for _ in 0..=depth {
                    assert_eq!(q.pop(), oracle.pop(), "depth {depth}, t {t}");
                }
                assert!(q.is_empty());
            }
        }
    }

    #[test]
    fn cohort_pop_matches_per_event_pop() {
        // The cohort drain must yield exactly the per-event pop sequence,
        // chunked by fire time, with same-instant requeues pushed
        // mid-cohort.
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(0x0C0_0147 ^ seed);
            let mut a = EventQueue::new();
            let mut b = EventQueue::new();
            let mut t = 0u64;
            for step in 0..600u32 {
                t += rng.next_u64() % 4; // dense ties, occasional gaps
                a.push(Time::from_ps(t), step);
                b.push(Time::from_ps(t), step);
            }
            let mut scratch = Vec::new();
            while let Some(at) = a.pop_cohort(&mut scratch) {
                for &e in &scratch {
                    a.mark_dispatched(at);
                    let (bt, be) = b.pop().expect("oracle has events left");
                    assert_eq!((at, e), (bt, be), "seed {seed}");
                    if e % 7 == 0 {
                        // Same-instant requeue while the cohort is being
                        // dispatched: must land in a *later* cohort on
                        // both paths.
                        a.push(at, e + 10_000);
                        b.push(at, e + 10_000);
                    }
                }
            }
            assert!(b.pop().is_none());
            assert_eq!(a.len(), 0);
            assert_eq!(a.dispatched(), b.dispatched());
            assert_eq!(a.scheduled(), b.scheduled());
        }
    }

    #[test]
    fn cohort_pop_counts_dispatches_via_mark() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), 'a');
        q.push(Time::from_ns(1), 'b');
        q.push(Time::from_ns(2), 'c');
        let mut out = Vec::new();
        let at = q.pop_cohort(&mut out).unwrap();
        assert_eq!(at, Time::from_ns(1));
        assert_eq!(out, vec!['a', 'b']);
        assert_eq!(q.len(), 1);
        // Dispatch accounting is the caller's job.
        assert_eq!(q.dispatched(), 0);
        q.mark_dispatched(at);
        q.mark_dispatched(at);
        assert_eq!(q.dispatched(), 2);
        assert_eq!(q.pop_cohort(&mut out), Some(Time::from_ns(2)));
        assert_eq!(out, vec!['c']);
        assert_eq!(q.pop_cohort(&mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn matches_heap_oracle_on_simple_stream() {
        let mut a = EventQueue::new();
        let mut b = HeapOracle::new();
        for i in (0..200u64).rev() {
            a.push(Time::from_ns(i / 3), i);
            b.push(Time::from_ns(i / 3), i);
        }
        for _ in 0..200 {
            assert_eq!(a.pop(), b.pop());
        }
    }
}
