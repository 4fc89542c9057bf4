//! Single-server resource timelines.
//!
//! A [`Timeline`] models a resource whose busy time somebody reads: the
//! DRAM channel (DRAM utilisation, its `ResourceBusy` trace records) and
//! the hardware manager (scheduler time). It serves one request at a
//! time; requests reserve a contiguous service interval, and a request
//! arriving while the resource is busy starts when the resource frees.
//! Resources whose occupancy nobody reads — DMA engines, scratchpad read
//! ports, bus lanes and crossbar ports — are booked as plain free-at
//! [`Time`] instants by the transfer engine instead.

use crate::time::{Dur, Time};
use relief_trace::{EventKind, ResourceId, Tracer};

/// Accumulated utilization of a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusyStats {
    /// Total time the resource spent serving requests.
    pub busy: Dur,
}

/// A single-server resource that serves reservations in arrival order.
///
/// # Examples
///
/// ```
/// use relief_sim::{Timeline, Time, Dur};
/// let mut dram = Timeline::new();
/// let (s1, e1) = dram.reserve(Time::ZERO, Dur::from_ns(100));
/// assert_eq!((s1, e1), (Time::ZERO, Time::from_ns(100)));
/// // A second request at t=40ns queues behind the first.
/// let (s2, e2) = dram.reserve(Time::from_ns(40), Dur::from_ns(50));
/// assert_eq!((s2, e2), (Time::from_ns(100), Time::from_ns(150)));
/// assert_eq!(dram.stats().busy, Dur::from_ns(150));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    free_at: Time,
    stats: BusyStats,
    tracer: Tracer,
    id: Option<ResourceId>,
}

impl Timeline {
    /// Creates an idle timeline at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a tracer and names this resource; every subsequent
    /// reservation emits a `ResourceBusy` record.
    pub fn set_tracer(&mut self, tracer: Tracer, id: ResourceId) {
        self.tracer = tracer;
        self.id = Some(id);
    }

    /// Reserves `dur` of service starting no earlier than `now`, returning
    /// the `(start, end)` of the granted interval.
    pub fn reserve(&mut self, now: Time, dur: Dur) -> (Time, Time) {
        let start = now.max(self.free_at);
        self.reserve_from(now, start, dur)
    }

    /// Books `dur` of service beginning exactly at `start` (which must be
    /// at or after [`earliest_start`](Self::earliest_start)); the
    /// `ResourceBusy` record is stamped at `now`. The single accounting
    /// path shared by [`reserve`](Self::reserve) and callers that compute
    /// a correlated start themselves (the transfer engine's chunk path) —
    /// so busy time, tracer emission, and `free_at` updates cannot drift
    /// between them.
    pub fn reserve_from(&mut self, now: Time, start: Time, dur: Dur) -> (Time, Time) {
        debug_assert!(start >= self.earliest_start(now), "start predates availability");
        let end = start + dur;
        self.stats.busy += dur;
        self.free_at = end;
        if let Some(resource) = self.id {
            self.tracer.emit(now.as_ps(), || EventKind::ResourceBusy {
                resource,
                start_ps: start.as_ps(),
                end_ps: end.as_ps(),
            });
        }
        (start, end)
    }

    /// Earliest instant at or after `now` when service could begin.
    pub fn earliest_start(&self, now: Time) -> Time {
        now.max(self.free_at)
    }

    /// Instant the resource becomes idle.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Utilization statistics accumulated so far.
    pub fn stats(&self) -> BusyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut t = Timeline::new();
        let (s, e) = t.reserve(Time::from_ns(10), Dur::from_ns(5));
        assert_eq!(s, Time::from_ns(10));
        assert_eq!(e, Time::from_ns(15));
        assert_eq!(t.free_at(), Time::from_ns(15));
    }

    #[test]
    fn busy_resource_queues() {
        let mut t = Timeline::new();
        t.reserve(Time::ZERO, Dur::from_ns(100));
        let (s, e) = t.reserve(Time::from_ns(30), Dur::from_ns(10));
        assert_eq!(s, Time::from_ns(100));
        assert_eq!(e, Time::from_ns(110));
        assert_eq!(t.stats().busy, Dur::from_ns(110));
        assert_eq!(t.free_at(), Time::from_ns(110));
    }
}
