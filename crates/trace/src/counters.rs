//! Aggregate counters derived from an event stream.
//!
//! These exist so higher layers can cross-check the tracing path against
//! their independently maintained statistics (`relief-metrics` reconciles
//! them against `RunStats`): if the two bookkeeping systems disagree, one
//! of them is lying.

use crate::event::{Endpoint, EventKind, InputSource, TraceEvent};
use crate::kind::{Kind, KindSet};

/// Counters accumulated over a full event stream.
///
/// Dispatched kernel events are not counted here: the event queue's own
/// count is `SimResult::events_dispatched`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// Tasks whose compute finished.
    pub tasks_completed: u64,
    /// DAG instances that arrived.
    pub dags_arrived: u64,
    /// DAG instances that completed.
    pub dags_done: u64,
    /// Completed DAGs that met their deadline.
    pub dags_met: u64,
    /// Bytes read from DRAM (DRAM → SPAD transfers).
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM (SPAD → DRAM transfers).
    pub dram_write_bytes: u64,
    /// Bytes moved SPAD-to-SPAD (forwards).
    pub spad_to_spad_bytes: u64,
    /// Input edges served by forwarding.
    pub forwards: u64,
    /// Input edges served by colocation.
    pub colocations: u64,
    /// Input edges (and primary inputs) loaded from DRAM.
    pub dram_inputs: u64,
    /// Escalations granted by the policy.
    pub escalations_granted: u64,
    /// Escalations denied by the policy.
    pub escalations_denied: u64,
    /// Feasibility checks that passed.
    pub feasibility_pass: u64,
    /// Feasibility checks that failed.
    pub feasibility_fail: u64,
    /// Laxity-driven out-of-order pops.
    pub queue_bypasses: u64,
    /// Write-backs issued.
    pub writebacks: u64,
    /// Total bytes scheduled for write-back.
    pub writeback_bytes: u64,
    /// Task compute attempts that faulted.
    pub task_faults: u64,
    /// Faulted tasks re-queued after backoff.
    pub task_retries: u64,
    /// Tasks abandoned after exhausting their retry budget.
    pub tasks_aborted: u64,
    /// Input DMA transfers that faulted and retried from DRAM.
    pub dma_faults: u64,
    /// Accelerator-unit quarantine (offline) events.
    pub unit_quarantines: u64,
    /// Accelerator-unit restore (back-online) events.
    pub unit_restores: u64,
    /// Deadline misses attributed to fault recovery.
    pub fault_attributed_misses: u64,
    /// Requests generated by the open-loop frontend.
    pub stream_arrivals: u64,
    /// Requests the admission controller let in.
    pub requests_admitted: u64,
    /// Requests shed by an empty token bucket.
    pub requests_shed_bucket: u64,
    /// Requests shed by the in-flight cap.
    pub requests_shed_capacity: u64,
    /// Admitted requests whose DAG instance completed.
    pub requests_completed: u64,
    /// Forwarded chunks that failed their ECC check.
    pub ecc_faults: u64,
    /// DMA transfers cancelled mid-flight.
    pub dma_cancels: u64,
    /// DRAM-channel blackout windows that delayed a chunk start.
    pub channel_outages: u64,
    /// Requests shed by an open circuit breaker.
    pub requests_shed_breaker: u64,
    /// Admitted requests cancelled by their timeout.
    pub requests_timed_out: u64,
    /// Hedged replacement attempts launched after a timeout.
    pub hedges_launched: u64,
    /// Circuit-breaker closed→open transitions.
    pub breaker_opens: u64,
    /// Circuit-breaker open→half-open transitions.
    pub breaker_half_opens: u64,
    /// Circuit-breaker half-open→closed transitions.
    pub breaker_closes: u64,
}

impl EventCounters {
    /// The kinds [`add`](Self::add) folds; it ignores every other kind.
    pub const KINDS: KindSet = KindSet::ALL.without(KindSet::of(&[
        Kind::EventDispatched,
        Kind::ResourceBusy,
        Kind::DmaStart,
        Kind::TaskReady,
        Kind::TaskDispatched,
        Kind::ComputeStart,
    ]));

    /// Accumulates counters over `events`.
    #[must_use]
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut c = EventCounters::default();
        for ev in events {
            c.add(ev);
        }
        c
    }

    /// Folds a single event into the counters.
    pub fn add(&mut self, ev: &TraceEvent) {
        match &ev.kind {
            EventKind::ComputeEnd { .. } => self.tasks_completed += 1,
            EventKind::DagArrived { .. } => self.dags_arrived += 1,
            EventKind::DagDone { met, .. } => {
                self.dags_done += 1;
                if *met {
                    self.dags_met += 1;
                }
            }
            EventKind::DmaEnd { src, dst, bytes, .. } => match (src, dst) {
                (Endpoint::Dram, _) => self.dram_read_bytes += bytes,
                (_, Endpoint::Dram) => self.dram_write_bytes += bytes,
                _ => self.spad_to_spad_bytes += bytes,
            },
            EventKind::InputSourced { source, .. } => match source {
                InputSource::Dram => self.dram_inputs += 1,
                InputSource::Forwarded { .. } => self.forwards += 1,
                InputSource::Colocated => self.colocations += 1,
            },
            EventKind::EscalationGranted { .. } => self.escalations_granted += 1,
            EventKind::EscalationDenied { .. } => self.escalations_denied += 1,
            EventKind::FeasibilityCheck { feasible, .. } => {
                if *feasible {
                    self.feasibility_pass += 1;
                } else {
                    self.feasibility_fail += 1;
                }
            }
            EventKind::QueueBypass { .. } => self.queue_bypasses += 1,
            EventKind::WritebackIssued { bytes, .. } => {
                self.writebacks += 1;
                self.writeback_bytes += bytes;
            }
            EventKind::TaskFaulted { .. } => self.task_faults += 1,
            EventKind::TaskRetried { .. } => self.task_retries += 1,
            EventKind::TaskAborted { .. } => self.tasks_aborted += 1,
            EventKind::DmaFaulted { .. } => self.dma_faults += 1,
            EventKind::UnitQuarantined { .. } => self.unit_quarantines += 1,
            EventKind::UnitRestored { .. } => self.unit_restores += 1,
            EventKind::FaultAttributedMiss { .. } => self.fault_attributed_misses += 1,
            EventKind::StreamArrival { .. } => self.stream_arrivals += 1,
            EventKind::RequestAdmitted { .. } => self.requests_admitted += 1,
            EventKind::RequestShed { cause, .. } => match cause {
                crate::event::ShedCause::Bucket => self.requests_shed_bucket += 1,
                crate::event::ShedCause::Capacity => self.requests_shed_capacity += 1,
                crate::event::ShedCause::Breaker => self.requests_shed_breaker += 1,
            },
            EventKind::RequestCompleted { .. } => self.requests_completed += 1,
            // A cancelled transfer's already-moved chunks stay attributed
            // to the route, mirroring the engine's own byte bookkeeping.
            EventKind::DmaCancelled { src, dst, bytes, .. } => {
                self.dma_cancels += 1;
                match (src, dst) {
                    (Endpoint::Dram, _) => self.dram_read_bytes += bytes,
                    (_, Endpoint::Dram) => self.dram_write_bytes += bytes,
                    _ => self.spad_to_spad_bytes += bytes,
                }
            }
            EventKind::ChannelOutage { .. } => self.channel_outages += 1,
            EventKind::EccCorrupted { .. } => self.ecc_faults += 1,
            EventKind::RequestTimedOut { .. } => self.requests_timed_out += 1,
            EventKind::HedgeLaunched { .. } => self.hedges_launched += 1,
            EventKind::BreakerOpened { .. } => self.breaker_opens += 1,
            EventKind::BreakerHalfOpen { .. } => self.breaker_half_opens += 1,
            EventKind::BreakerClosed { .. } => self.breaker_closes += 1,
            EventKind::EventDispatched { .. }
            | EventKind::ResourceBusy { .. }
            | EventKind::DmaStart { .. }
            | EventKind::TaskReady { .. }
            | EventKind::TaskDispatched { .. }
            | EventKind::ComputeStart { .. } => {}
        }
    }
}

/// A [`TraceSink`](crate::TraceSink) that folds every event into an
/// [`EventCounters`] as it arrives — O(1) memory, so it is safe to attach
/// to unbounded runs (continuous contention) where a buffering sink would
/// either grow without bound or evict events and undercount. It
/// subscribes to [`EventCounters::KINDS`], so the per-chunk kinds
/// (`EventDispatched`, `ResourceBusy`, `DmaStart`) never reach it.
///
/// The campaign engine attaches one per run to reconcile event-derived
/// counts against the simulator's own `RunStats` bookkeeping.
#[derive(Debug, Default)]
pub struct CountersSink {
    counters: EventCounters,
}

impl CountersSink {
    /// Creates an empty folding sink.
    #[must_use]
    pub fn new() -> Self {
        CountersSink::default()
    }

    /// Creates a shared handle suitable for
    /// [`Tracer::attach`](crate::Tracer::attach).
    #[must_use]
    pub fn shared() -> std::rc::Rc<std::cell::RefCell<CountersSink>> {
        std::rc::Rc::new(std::cell::RefCell::new(CountersSink::default()))
    }

    /// The counters folded so far.
    #[must_use]
    pub fn counters(&self) -> &EventCounters {
        &self.counters
    }
}

impl crate::TraceSink for CountersSink {
    fn emit(&mut self, ev: TraceEvent) {
        self.counters.add(&ev);
    }

    fn kinds(&self) -> KindSet {
        EventCounters::KINDS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TaskRef;

    #[test]
    fn counters_classify_routes_and_sources() {
        let t = TaskRef { instance: 0, node: 0 };
        let events = vec![
            TraceEvent {
                at_ps: 1,
                kind: EventKind::DmaEnd {
                    xfer: 0,
                    dma: 0,
                    src: Endpoint::Dram,
                    dst: Endpoint::Spad(1),
                    bytes: 100,
                    start_ps: 0,
                    queued_ps: 0,
                },
            },
            TraceEvent {
                at_ps: 2,
                kind: EventKind::DmaEnd {
                    xfer: 1,
                    dma: 1,
                    src: Endpoint::Spad(0),
                    dst: Endpoint::Dram,
                    bytes: 30,
                    start_ps: 1,
                    queued_ps: 0,
                },
            },
            TraceEvent {
                at_ps: 3,
                kind: EventKind::DmaEnd {
                    xfer: 2,
                    dma: 0,
                    src: Endpoint::Spad(0),
                    dst: Endpoint::Spad(1),
                    bytes: 7,
                    start_ps: 2,
                    queued_ps: 0,
                },
            },
            TraceEvent {
                at_ps: 4,
                kind: EventKind::InputSourced {
                    task: t,
                    inst: 0,
                    parent: None,
                    source: InputSource::Colocated,
                    bytes: 7,
                },
            },
            TraceEvent {
                at_ps: 5,
                kind: EventKind::FeasibilityCheck { task: t, acc: 0, index: 0, feasible: false },
            },
        ];
        let c = EventCounters::from_events(&events);
        assert_eq!(c.dram_read_bytes, 100);
        assert_eq!(c.dram_write_bytes, 30);
        assert_eq!(c.spad_to_spad_bytes, 7);
        assert_eq!(c.colocations, 1);
        assert_eq!(c.feasibility_fail, 1);
        assert_eq!(c.feasibility_pass, 0);
    }

    #[test]
    fn counters_sink_folds_like_from_events() {
        use crate::{TraceSink, Tracer};
        let sink = CountersSink::shared();
        let mut tracer = Tracer::off();
        tracer.attach(sink.clone());
        let t = TaskRef { instance: 0, node: 1 };
        let events = [
            EventKind::ComputeEnd {
                task: t,
                inst: 0,
                start_ps: 0,
                app: "A".into(),
                forwarded_inputs: 0,
                colocated_inputs: 0,
            },
            EventKind::DagDone { instance: 0, met: true },
            EventKind::EscalationGranted { task: t, acc: 0, index: 0 },
        ];
        let mut direct = CountersSink::new();
        for (i, kind) in events.into_iter().enumerate() {
            tracer.emit(i as u64, || kind.clone());
            direct.emit(TraceEvent { at_ps: i as u64, kind });
        }
        assert_eq!(*sink.borrow().counters(), *direct.counters());
        assert_eq!(sink.borrow().counters().tasks_completed, 1);
        assert_eq!(sink.borrow().counters().dags_met, 1);
        assert_eq!(sink.borrow().counters().escalations_granted, 1);
    }
}
