//! Deterministic event queue: a hierarchical calendar (two-rung ladder)
//! structure with O(1)-amortized scheduling.
//!
//! # Structure
//!
//! Pending events live in exactly one of three rungs, ordered by how far
//! in the future they fire:
//!
//! 1. **`near`** — a small vector kept sorted descending on the full
//!    `(time, seq)` key, so the global minimum sits at the back and a pop
//!    is a plain `Vec::pop`. It holds every event that maps to the bucket
//!    currently being drained (or earlier). Pops come only from here.
//! 2. **`buckets`** — a calendar of [`NUM_BUCKETS`] unsorted bins of
//!    width `2^width_shift` picoseconds covering the window
//!    `[base, base + NUM_BUCKETS << width_shift)`. Insertion is O(1):
//!    index arithmetic plus a `Vec::push`.
//! 3. **`overflow`** — an unsorted spill list for events at or beyond the
//!    window's end.
//!
//! # Adaptive engagement
//!
//! A sorted vector of a few dozen entries fits in a handful of cache
//! lines, pops for free off the back, and inserts with one binary search
//! plus a short `memmove` — no bucket scheme beats it there, and the SoC
//! model's queues usually idle at that size. The calendar therefore
//! **engages only under load**: below [`ENGAGE_THRESHOLD`] pending events
//! everything lives in `near` and the queue *is* the sorted vector (one
//! predictable branch per operation of overhead). When a push grows the
//! population past the threshold, the rung's contents are redistributed
//! into the calendar in one O(n) pass and subsequent scheduling is
//! O(1)-amortized regardless of population — insertion shifts stay
//! bounded by a single bin's occupancy. When the queue fully drains it
//! falls back to sorted-vector mode. Pop order is identical in both
//! regimes (the ordering argument below does not depend on when
//! engagement happens), so the switch is invisible to the simulation.
//!
//! When `near` and every bucket are exhausted the window is **rebuilt**
//! from the overflow: the new `base` is the overflow's minimum fire time
//! and the bucket width is re-derived from the overflow's *average
//! inter-event gap* (span over population, the classic calendar-queue
//! sizing rule), so bucket occupancy tracks the actual event-time
//! distribution instead of a fixed guess. Sizing by the average gap —
//! rather than fitting the whole span into the window — makes the window
//! extend roughly `NUM_BUCKETS` expected events into the future, which
//! keeps subsequent pushes landing in O(1) bins instead of the overflow
//! and makes rebuilds rare. Each event is therefore touched a constant
//! number of times — one bucket insert, one sort share when its bucket
//! is promoted to `near`, one back-of-vector pop — which is the classic
//! calendar-queue amortized O(1) argument (the sort is logarithmic only
//! in the *bucket* population, not the queue population).
//!
//! # Ordering proof sketch
//!
//! Total order is `(time, seq)` with `seq` unique and monotonically
//! increasing, so FIFO-among-equals is exactly the order the key encodes.
//! Three invariants make pops globally minimal:
//!
//! * every event in `buckets[i]` satisfies
//!   `base + (i << width_shift) <= t < base + ((i+1) << width_shift)`;
//! * every event in `overflow` fires at or after the window's end;
//! * every event whose bucket index is `<= cur_bucket` (including
//!   pushes into the past, which a requeue at the current instant can
//!   produce) is routed to `near` instead of a bucket.
//!
//! Together these give strict time separation between the rungs:
//! `max(near) < min(buckets beyond cur_bucket) <= min(overflow)` can only
//! be violated on `time`, never merely on `seq`, because bucket
//! boundaries are half-open. Hence the `near` heap — which orders by the
//! full key — always surfaces the global `(time, seq)` minimum, and the
//! pop sequence is identical to a total sort of the push stream. The
//! `queue::tests` property suite pins this against a [`BinaryHeap`]
//! oracle, including same-instant requeues.

use crate::time::Time;
use relief_trace::{EventKind, Tracer};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Number of calendar bins. A power of two keeps index arithmetic to a
/// shift; 256 bins cover the pending-event populations the SoC model
/// produces (tens to a few thousand) at roughly constant occupancy.
const NUM_BUCKETS: usize = 256;

/// Upper bound on the bucket-width exponent: `NUM_BUCKETS << shift` must
/// not overflow `u64`, and anything wider than 2^48 ps (~4.6 min of
/// simulated time per bin) has stopped discriminating anyway.
const MAX_WIDTH_SHIFT: u32 = 48;

/// Pending-event population at which the calendar engages. Below this a
/// plain binary heap is faster (fewer than `log2(128) = 7` comparisons
/// per operation, all within two cache lines), so the queue stays in
/// heap mode; above it, bucket scheduling amortizes to O(1) while heap
/// costs keep growing logarithmically.
const ENGAGE_THRESHOLD: usize = 128;

/// One scheduled entry: fire time, insertion sequence, payload.
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // BinaryHeap is a max-heap; invert so the earliest (and, on ties, the
        // first-inserted) entry surfaces first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of timed events with deterministic FIFO tie-breaking.
///
/// Events scheduled for the same instant are delivered in insertion order,
/// which keeps simulations reproducible regardless of the calendar's
/// internal bucketing.
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
pub struct EventQueue<E> {
    /// Rung 1: the bucket being drained, sorted *descending* by
    /// `(at, seq)` so the global minimum sits at the back and pops are a
    /// branch-free `Vec::pop`. Kept sorted by binary-search insertion;
    /// bucket promotions bulk-sort instead (one cache-friendly
    /// `sort_unstable` beats heapify-then-N-sift-downs, and the drain
    /// side becomes O(1) per event).
    near: Vec<Entry<E>>,
    /// Reference-mode storage: the pre-calendar binary heap, exercised
    /// only by [`EventQueue::reference`] queues.
    heap: BinaryHeap<Entry<E>>,
    /// Rung 2: the calendar window (unsorted bins).
    buckets: Vec<Vec<Entry<E>>>,
    /// Rung 3: events at or beyond the window end (unsorted).
    overflow: Vec<Entry<E>>,
    /// Scratch for window rebuilds (events past the *new* window); kept
    /// around so rebuilds allocate nothing in steady state.
    spill: Vec<Entry<E>>,
    /// First instant covered by the window.
    base_ps: u64,
    /// log2 of the bucket width in picoseconds.
    width_shift: u32,
    /// Bucket currently promoted into `near`; bins before it are empty.
    cur_bucket: usize,
    /// Events currently resident in calendar bins (lets `replenish_near`
    /// skip the bin scan entirely when the calendar is empty).
    in_buckets: usize,
    /// Pending events across all three rungs.
    len: usize,
    /// Whether the calendar is engaged (see "Adaptive engagement"). While
    /// false, every event lives in `near` and the queue is a plain heap.
    engaged: bool,
    /// Routes everything through `near` alone — the pre-calendar
    /// [`BinaryHeap`] implementation, kept as the reference the hot-path
    /// equivalence tests compare against (behaviour is identical either
    /// way).
    reference_heap: bool,
    next_seq: u64,
    popped: u64,
    tracer: Tracer,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            near: Vec::new(),
            heap: BinaryHeap::new(),
            buckets: Vec::new(), // allocated lazily on the first window rebuild
            overflow: Vec::new(),
            spill: Vec::new(),
            base_ps: 0,
            width_shift: 0,
            cur_bucket: 0,
            in_buckets: 0,
            len: 0,
            engaged: false,
            reference_heap: false,
            next_seq: 0,
            popped: 0,
            tracer: Tracer::off(),
        }
    }

    /// Creates an empty queue that runs on the pre-calendar binary-heap
    /// path. Pop order is identical to [`EventQueue::new`] by
    /// construction; only the host-side cost differs. Used by
    /// `SocConfig::reference_hot_path`.
    pub fn reference() -> Self {
        EventQueue { reference_heap: true, ..EventQueue::new() }
    }

    /// Attaches a tracer; every subsequent [`EventQueue::pop`] emits an
    /// `EventDispatched` record at the popped event's fire time.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.next_seq;
        // A wrapped sequence counter would silently break FIFO-among-
        // equals; at one event per picosecond that is >200 days of
        // simulated time, so treat it as a simulator bug.
        debug_assert!(seq != u64::MAX, "event sequence counter about to wrap");
        self.next_seq += 1;
        let entry = Entry { at, seq, event };
        self.len += 1;
        if self.reference_heap {
            self.heap.push(entry);
            return;
        }
        if !self.engaged {
            // Heap mode: everything lives in `near`.
            self.insert_near(entry);
            if self.len >= ENGAGE_THRESHOLD {
                self.engage();
            }
            return;
        }
        let t = at.as_ps();
        if t < self.base_ps {
            self.insert_near(entry);
            return;
        }
        let idx = ((t - self.base_ps) >> self.width_shift) as usize;
        if idx <= self.cur_bucket {
            // The bin is already (being) drained — including same-instant
            // requeues; keep it in `near` so ordering is exact.
            self.insert_near(entry);
        } else if idx < NUM_BUCKETS {
            self.buckets[idx].push(entry);
            self.in_buckets += 1;
        } else {
            self.overflow.push(entry);
        }
    }

    /// Inserts into the sorted `near` rung at the position its
    /// `(at, seq)` key demands. The shift cost is bounded by the rung's
    /// population — one calendar bin once engaged — and a same-instant
    /// requeue (the common in-dispatch push) lands next to the back.
    fn insert_near(&mut self, entry: Entry<E>) {
        let key = (entry.at, entry.seq);
        let pos = self.near.partition_point(|e| (e.at, e.seq) > key);
        self.near.insert(pos, entry);
    }

    /// Switches from heap mode to calendar mode: redistributes the heap's
    /// population into a freshly sized window in one O(n) pass.
    #[cold]
    #[inline(never)]
    fn engage(&mut self) {
        debug_assert!(!self.engaged && self.in_buckets == 0 && self.overflow.is_empty());
        self.engaged = true;
        let mut drained = std::mem::take(&mut self.near);
        self.overflow.append(&mut drained);
        // Keep the drained buffer's capacity for the rebuild scratch if
        // it beats what is already there.
        if drained.capacity() > self.spill.capacity() {
            self.spill = drained;
        }
        self.rebuild_window();
    }

    /// Moves the earliest pending entry into `near`, promoting the next
    /// non-empty bucket or rebuilding the window from the overflow as
    /// needed. After this returns, `near` is non-empty iff `len > 0`.
    #[cold]
    #[inline(never)]
    fn replenish_near(&mut self) {
        while self.near.is_empty() {
            // Promote the next non-empty bucket, keeping both the rung's
            // and the bin's allocations alive across the swap. One bulk
            // sort (descending, so pops come off the back) replaces the
            // old heapify + per-pop sift-downs.
            if self.in_buckets > 0 {
                let i = (self.cur_bucket + 1..self.buckets.len())
                    .find(|&i| !self.buckets[i].is_empty())
                    .unwrap_or_else(|| unreachable!("in_buckets > 0 with empty calendar"));
                self.cur_bucket = i;
                let mut bin = std::mem::take(&mut self.buckets[i]);
                self.in_buckets -= bin.len();
                bin.sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                self.buckets[i] = std::mem::replace(&mut self.near, bin);
                return;
            }
            if self.overflow.is_empty() {
                // Fully drained: fall back to heap mode so the next burst
                // of light-load scheduling pays no calendar overhead.
                self.engaged = false;
                return;
            }
            self.rebuild_window();
        }
    }

    /// Re-bases the calendar on the overflow's minimum fire time and
    /// re-derives the bucket width from its span, then redistributes.
    /// Runs only when `near` and every bucket are empty.
    #[cold]
    #[inline(never)]
    fn rebuild_window(&mut self) {
        debug_assert!(self.near.is_empty());
        debug_assert!(self.in_buckets == 0);
        debug_assert!(self.buckets.iter().all(Vec::is_empty));
        let mut min = u64::MAX;
        let mut max = 0u64;
        for e in &self.overflow {
            let t = e.at.as_ps();
            min = min.min(t);
            max = max.max(t);
        }
        let span = max - min;
        // Bucket width ≈ the overflow's average inter-event gap (span over
        // population), the classic calendar-queue sizing rule: the window
        // then reaches ~NUM_BUCKETS expected events into the future, so
        // later pushes land in O(1) bins and rebuilds stay rare. Rounded
        // up to a power of two for shift-based indexing, and clamped so
        // the window arithmetic cannot overflow; events past the clamped
        // window simply wait in the overflow for the next rebuild.
        let per_bucket = span / self.overflow.len() as u64 + 1;
        let shift = (64 - per_bucket.leading_zeros()).min(MAX_WIDTH_SHIFT);
        self.base_ps = min;
        self.width_shift = shift;
        self.cur_bucket = 0;
        if self.buckets.is_empty() {
            self.buckets = (0..NUM_BUCKETS).map(|_| Vec::new()).collect();
        }
        let mut spill = std::mem::take(&mut self.spill);
        debug_assert!(spill.is_empty());
        for e in self.overflow.drain(..) {
            let idx = ((e.at.as_ps() - self.base_ps) >> self.width_shift) as usize;
            if idx == 0 {
                // Bucket 0 is promoted immediately below; route through
                // `near` so `cur_bucket` never points at a live bin.
                // (Appended unsorted here, bulk-sorted once after the
                // distribution pass.)
                self.near.push(e);
            } else if idx < NUM_BUCKETS {
                self.buckets[idx].push(e);
                self.in_buckets += 1;
            } else {
                spill.push(e);
            }
        }
        self.near.sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
        // The drained overflow's storage becomes the next rebuild's
        // scratch; the spill (if any) becomes the new overflow.
        self.spill = std::mem::replace(&mut self.overflow, spill);
        // `min` itself maps to bucket 0, so `near` is now non-empty.
        debug_assert!(!self.near.is_empty());
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        // The sorted rung keeps the minimum at the back, so the common
        // case is a branch-free `Vec::pop`; the miss path is the cold
        // replenish (or, for reference queues, the heap).
        let e = match self.near.pop() {
            Some(e) => e,
            None => self.pop_refill()?,
        };
        self.len -= 1;
        let index = self.popped;
        self.popped += 1;
        self.tracer.emit(e.at.as_ps(), || EventKind::EventDispatched { index });
        Some((e.at, e.event))
    }

    /// The `near`-empty slow path of [`EventQueue::pop`] /
    /// [`EventQueue::pop_cohort`]: reference queues pop their heap,
    /// engaged calendars promote the next bin.
    #[cold]
    fn pop_refill(&mut self) -> Option<Entry<E>> {
        if self.reference_heap {
            return self.heap.pop();
        }
        if !self.engaged {
            return None;
        }
        self.replenish_near();
        self.near.pop()
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
    /// Correctness rests on the strict time-separation invariant (module
    /// docs): once the head of `near` fires at `t`, every pending event
    /// at `t` is already in `near` — calendar bins beyond `cur_bucket`
    /// and the overflow hold strictly later times — so draining `near`
    /// while its head fires at `t` yields the complete cohort in global
    /// order. Events pushed at `t` while the caller dispatches the cohort
    /// get larger sequence numbers and form a later cohort, exactly as
    /// they would pop on the per-event path.
    pub fn pop_cohort(&mut self, out: &mut Vec<E>) -> Option<Time> {
        out.clear();
        let first = match self.near.pop() {
            Some(e) => e,
            None => self.pop_refill()?,
        };
        let at = first.at;
        out.push(first.event);
        // The rest of the cohort is the rung's equal-time tail: descending
        // (at, seq) order puts same-time entries back-to-front in ascending
        // sequence order, so popping while times match yields exact pop
        // order — and costs one comparison in the common size-1 case.
        while let Some(e) = self.near.last() {
            if e.at != at {
                break;
            }
            // Pop cannot fail: `last()` just observed the entry.
            if let Some(e) = self.near.pop() {
                out.push(e.event);
            }
        }
        self.len -= out.len();
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
    ///
    /// O(1) while the `near` rung is populated; otherwise scans the
    /// calendar bins and the overflow (still cheap, and `pop` is the only
    /// hot-path consumer).
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(e) = self.near.last() {
            return Some(e.at);
        }
        if let Some(e) = self.heap.peek() {
            return Some(e.at);
        }
        for bin in self.buckets.iter().skip(self.cur_bucket + 1) {
            if let Some(t) = bin.iter().map(|e| e.at).min() {
                return Some(t);
            }
        }
        self.overflow.iter().map(|e| e.at).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
            .field("pending", &self.len)
            .field("dispatched", &self.popped)
            .field("reference_heap", &self.reference_heap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

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
    fn peek_reaches_every_rung() {
        let mut q = EventQueue::new();
        // Force engagement: enough pending events to leave heap mode,
        // clustered so the far-future outlier lands beyond the window.
        for i in 0..200u64 {
            q.push(Time::from_ns(10 + i), i);
        }
        q.push(Time::from_ms(90), u64::MAX);
        assert_eq!(q.peek_time(), Some(Time::from_ns(10)));
        assert_eq!(q.pop().unwrap().1, 0);
        // The outlier sits in a calendar bin or the overflow; drain down
        // to it and peek must still see it.
        for _ in 0..199 {
            q.pop();
        }
        assert_eq!(q.peek_time(), Some(Time::from_ms(90)));
        q.push(Time::from_us(1), 7);
        assert_eq!(q.peek_time(), Some(Time::from_us(1)));
    }

    #[test]
    fn engages_under_load_and_disengages_when_drained() {
        let mut q = EventQueue::new();
        for i in 0..500u64 {
            q.push(Time::from_ns(i * 3), i);
        }
        assert!(q.engaged, "population above threshold must engage the calendar");
        for i in 0..500u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert!(q.pop().is_none());
        assert!(!q.engaged, "a drained queue falls back to heap mode");
        // Still works (and stays a heap) afterwards.
        q.push(Time::from_ns(2), 'b' as u64);
        q.push(Time::from_ns(1), 'a' as u64);
        assert_eq!(q.pop().unwrap().1, 'a' as u64);
        assert!(!q.engaged);
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
        assert!(q.engaged);
        assert_eq!(q.pop().unwrap().1, 0);
        // Earlier than everything pending, and earlier than the engaged
        // window's base.
        q.push(Time::from_ns(1), 999);
        assert_eq!(q.pop().unwrap().1, 999);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn far_future_outage_style_events_survive_rebuilds() {
        let mut q = EventQueue::new();
        q.push(Time::from_ms(200), u64::MAX); // far beyond any window
        for i in 0..1000u64 {
            q.push(Time::from_ns(i), i);
        }
        for i in 0..1000u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert_eq!(q.pop().unwrap().1, u64::MAX);
        assert!(q.is_empty());
    }

    /// Drives the calendar queue and the reference heap through an
    /// identical randomized (time, seq) stream — bursty times, duplicate
    /// instants, interleaved pops, same-instant requeues — and asserts
    /// the pop sequences match exactly.
    #[test]
    fn property_matches_binary_heap_oracle() {
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(0xCA1E_4DA8 ^ seed);
            let mut cal = EventQueue::new();
            let mut oracle = EventQueue::reference();
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
                    cal.push(Time::from_ps(t), step);
                    oracle.push(Time::from_ps(t), step);
                    pending += 1;
                } else {
                    let a = cal.pop();
                    let b = oracle.pop();
                    match (a, b) {
                        (Some((ta, ea)), Some((tb, eb))) => {
                            assert_eq!((ta, ea), (tb, eb), "seed {seed} step {step}");
                            last_popped = ta.as_ps();
                            pending -= 1;
                        }
                        (None, None) => {}
                        other => panic!("rung mismatch: {other:?}"),
                    }
                }
            }
            // Drain both completely.
            loop {
                match (cal.pop(), oracle.pop()) {
                    (Some((ta, ea)), Some((tb, eb))) => {
                        assert_eq!((ta, ea), (tb, eb), "seed {seed} drain")
                    }
                    (None, None) => break,
                    other => panic!("drain mismatch: {other:?}"),
                }
            }
            assert_eq!(cal.dispatched(), oracle.dispatched());
            assert_eq!(cal.scheduled(), oracle.scheduled());
        }
    }

    #[test]
    fn cohort_pop_matches_per_event_pop() {
        // The cohort drain must yield exactly the per-event pop sequence,
        // chunked by fire time, across both regimes (heap + calendar) and
        // with same-instant requeues pushed mid-cohort.
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
    fn reference_mode_matches_new_path_on_simple_stream() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::reference();
        for i in (0..200u64).rev() {
            a.push(Time::from_ns(i / 3), i);
            b.push(Time::from_ns(i / 3), i);
        }
        for _ in 0..200 {
            assert_eq!(a.pop(), b.pop());
        }
    }
}
