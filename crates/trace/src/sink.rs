//! Event sinks and the [`Tracer`] fan-out handle.
//!
//! The simulator is single-threaded, so sinks are shared with
//! `Rc<RefCell<_>>` rather than locks. Each sink declares the event
//! [`Kind`]s it consumes ([`TraceSink::kinds`]); a [`Tracer`] keeps the
//! union of its sinks' sets. [`Tracer::emit`] takes a closure and tests
//! the event's kind against that union: with no sink attached the closure
//! never runs, and a kind no sink consumes costs one mask test and is
//! never delivered.

use crate::event::{EventKind, TraceEvent};
use crate::kind::{Kind, KindSet};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// A consumer of trace events.
///
/// # Examples
///
/// A sink that needs only some kinds names them, and no other kind is
/// ever delivered to it:
///
/// ```
/// use relief_trace::{EventKind, Kind, KindSet, TraceEvent, TraceSink, Tracer};
/// use std::{cell::RefCell, rc::Rc};
///
/// #[derive(Default)]
/// struct Misses(u64);
///
/// impl TraceSink for Misses {
///     fn emit(&mut self, ev: TraceEvent) {
///         if let EventKind::DagDone { met: false, .. } = ev.kind {
///             self.0 += 1;
///         }
///     }
///     fn kinds(&self) -> KindSet {
///         KindSet::of(&[Kind::DagDone])
///     }
/// }
///
/// let misses = Rc::new(RefCell::new(Misses::default()));
/// let tracer = Tracer::to_sink(misses.clone());
/// tracer.emit(1, || EventKind::EventDispatched { index: 0 }); // not delivered
/// tracer.emit(2, || EventKind::DagDone { instance: 0, met: false });
/// assert_eq!(misses.borrow().0, 1);
/// ```
pub trait TraceSink {
    /// Accepts one event. Events arrive in non-decreasing `at_ps` order
    /// per emitting component but may interleave across components.
    fn emit(&mut self, ev: TraceEvent);

    /// The event kinds this sink consumes; a [`Tracer`] delivers no
    /// other kind to it. Read once, when the sink is attached. Defaults
    /// to every kind.
    fn kinds(&self) -> KindSet {
        KindSet::ALL
    }
}

/// A sink that discards everything. Useful for measuring the overhead of
/// the tracing plumbing itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _ev: TraceEvent) {}
}

/// A bounded in-memory collector. When full, the *oldest* events are
/// evicted so the buffer always holds the most recent window; `dropped()`
/// reports how many were lost.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
    total: u64,
}

impl RingBufferSink {
    /// Creates a collector holding at most `cap` events (`cap` ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring buffer needs capacity");
        RingBufferSink { cap, buf: VecDeque::with_capacity(cap), dropped: 0, total: 0 }
    }

    /// Creates a shared handle suitable for [`Tracer::attach`].
    #[must_use]
    pub fn shared(cap: usize) -> Rc<RefCell<RingBufferSink>> {
        Rc::new(RefCell::new(RingBufferSink::new(cap)))
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.buf.iter().cloned().collect()
    }

    /// Removes and returns the retained events, oldest first.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events evicted because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever offered (retained + dropped).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl TraceSink for RingBufferSink {
    fn emit(&mut self, ev: TraceEvent) {
        self.total += 1;
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

/// A cloneable handle that fans events out to zero or more sinks.
///
/// Every instrumented component holds (a clone of) one `Tracer`. Each
/// event goes only to the sinks whose [`TraceSink::kinds`] contain its
/// kind. With no sinks attached, [`Tracer::emit`] returns without
/// invoking the construction closure — the off state is effectively free.
///
/// # Examples
///
/// ```
/// use relief_trace::{EventKind, RingBufferSink, Tracer};
///
/// let ring = RingBufferSink::shared(16);
/// let mut tracer = Tracer::off();
/// tracer.attach(ring.clone());
/// tracer.emit(1_000, || EventKind::EventDispatched { index: 0 });
/// assert_eq!(ring.borrow().len(), 1);
/// ```
#[derive(Clone, Default)]
pub struct Tracer {
    /// Each sink with the kinds it consumes.
    sinks: Vec<(KindSet, Rc<RefCell<dyn TraceSink>>)>,
    /// Union of the sinks' kinds.
    kinds: KindSet,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("sinks", &self.sinks.len())
            .field("kinds", &self.kinds)
            .finish()
    }
}

impl Tracer {
    /// A tracer with no sinks: every emit is a no-op.
    #[must_use]
    pub fn off() -> Self {
        Tracer::default()
    }

    /// A tracer writing to a single sink.
    #[must_use]
    pub fn to_sink(sink: Rc<RefCell<dyn TraceSink>>) -> Self {
        let mut tracer = Tracer::off();
        tracer.attach(sink);
        tracer
    }

    /// Adds a sink to the fan-out set, subscribed to its
    /// [`TraceSink::kinds`].
    pub fn attach(&mut self, sink: Rc<RefCell<dyn TraceSink>>) {
        let kinds = sink.borrow().kinds();
        self.kinds = self.kinds.union(kinds);
        self.sinks.push((kinds, sink));
    }

    /// Adopts every sink of `other` as well, with its subscription.
    pub fn merge(&mut self, other: &Tracer) {
        self.sinks.extend(other.sinks.iter().cloned());
        self.kinds = self.kinds.union(other.kinds);
    }

    /// True when at least one sink is attached.
    #[must_use]
    pub fn is_on(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Emits an event at simulated time `at_ps` to every sink subscribed
    /// to its kind. The closure runs only when some sink subscribes to
    /// some kind, and an event no sink subscribes to is dropped after one
    /// mask test; for a plain-data event the optimiser then removes its
    /// construction as well.
    #[inline]
    pub fn emit(&self, at_ps: u64, make: impl FnOnce() -> EventKind) {
        if self.kinds.is_empty() {
            return;
        }
        let kind = make();
        let k = kind.kind();
        if self.kinds.contains(k) {
            self.deliver(k, TraceEvent { at_ps, kind });
        }
    }

    /// Hands `ev` (of kind `k`) to each sink subscribed to `k`; the last
    /// of them receives it without a clone.
    #[inline(never)]
    fn deliver(&self, k: Kind, ev: TraceEvent) {
        let mut subscribed =
            self.sinks.iter().filter(|(kinds, _)| kinds.contains(k)).map(|(_, sink)| sink);
        let Some(mut sink) = subscribed.next() else { return };
        for next in subscribed {
            sink.borrow_mut().emit(ev.clone());
            sink = next;
        }
        sink.borrow_mut().emit(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> EventKind {
        EventKind::EventDispatched { index: i }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut ring = RingBufferSink::new(3);
        for i in 0..5 {
            ring.emit(TraceEvent { at_ps: i, kind: ev(i) });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.total(), 5);
        let kept: Vec<u64> = ring.snapshot().iter().map(|e| e.at_ps).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn ring_preserves_emission_order() {
        let mut ring = RingBufferSink::new(16);
        for i in [5u64, 1, 9, 9, 2] {
            ring.emit(TraceEvent { at_ps: i, kind: ev(i) });
        }
        // Insertion order, not timestamp order: the sink is a log.
        let kept: Vec<u64> = ring.snapshot().iter().map(|e| e.at_ps).collect();
        assert_eq!(kept, vec![5, 1, 9, 9, 2]);
    }

    #[test]
    fn take_drains() {
        let mut ring = RingBufferSink::new(4);
        ring.emit(TraceEvent { at_ps: 1, kind: ev(1) });
        assert_eq!(ring.take().len(), 1);
        assert!(ring.is_empty());
        assert_eq!(ring.total(), 1);
    }

    #[test]
    fn off_tracer_never_builds_events() {
        let tracer = Tracer::off();
        let mut built = false;
        tracer.emit(0, || {
            built = true;
            ev(0)
        });
        assert!(!built);
        assert!(!tracer.is_on());
    }

    #[test]
    fn fan_out_reaches_every_sink() {
        let a = RingBufferSink::shared(8);
        let b = RingBufferSink::shared(8);
        let mut tracer = Tracer::to_sink(a.clone());
        tracer.attach(b.clone());
        tracer.emit(7, || ev(7));
        assert_eq!(a.borrow().len(), 1);
        assert_eq!(b.borrow().len(), 1);
    }

    /// Collects only the kinds it was built with.
    struct Only(KindSet, Vec<TraceEvent>);

    impl TraceSink for Only {
        fn emit(&mut self, ev: TraceEvent) {
            self.1.push(ev);
        }
        fn kinds(&self) -> KindSet {
            self.0
        }
    }

    #[test]
    fn unsubscribed_tracer_never_builds_events() {
        let none = Rc::new(RefCell::new(Only(KindSet::default(), Vec::new())));
        let tracer = Tracer::to_sink(none.clone());
        assert!(tracer.is_on());
        tracer.emit(0, || unreachable!("no sink subscribes to anything"));
        assert!(none.borrow().1.is_empty());
    }

    #[test]
    fn merge_keeps_each_subscription() {
        let dags = Rc::new(RefCell::new(Only(KindSet::of(&[Kind::DagDone]), Vec::new())));
        let mut left = Tracer::off();
        left.merge(&Tracer::to_sink(dags.clone()));
        left.emit(1, || ev(1));
        left.emit(2, || EventKind::DagDone { instance: 0, met: false });
        assert_eq!(dags.borrow().1.len(), 1);
    }

    #[test]
    fn merge_adopts_sinks() {
        let a = RingBufferSink::shared(8);
        let mut left = Tracer::off();
        let right = Tracer::to_sink(a.clone());
        left.merge(&right);
        assert!(left.is_on());
        left.emit(3, || ev(3));
        assert_eq!(a.borrow().len(), 1);
    }
}
