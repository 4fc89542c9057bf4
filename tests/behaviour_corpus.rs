//! Behaviour corpus: all 94 cells of `tests/corpus/behaviour.txt` (see
//! `corpus/mod.rs` for the line format and the cells), plus the
//! single-path checks on the corpus's service streams.

mod corpus;

use relief::prelude::*;
use relief::trace::{EventKind, Kind, KindSet, TraceEvent, TraceSink};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn corpus_matches_committed_file() {
    corpus::assert_matches("", 94);
}

/// Circuit-breaker transitions seen in one event stream.
#[derive(Default)]
struct BreakerLog {
    opens: u64,
    sheds: u64,
    half_opens: u64,
    reopens: u64,
    closes: u64,
    aborts: u64,
    /// Tenants whose last breaker event was a half-open.
    probing: [bool; 3],
}

impl TraceSink for BreakerLog {
    fn emit(&mut self, ev: TraceEvent) {
        match ev.kind {
            EventKind::BreakerOpened { tenant, .. } => {
                self.opens += 1;
                if std::mem::take(&mut self.probing[tenant as usize]) {
                    self.reopens += 1;
                }
            }
            EventKind::BreakerHalfOpen { tenant } => {
                self.half_opens += 1;
                self.probing[tenant as usize] = true;
            }
            EventKind::BreakerClosed { tenant, .. } => {
                self.closes += 1;
                self.probing[tenant as usize] = false;
            }
            EventKind::RequestShed { cause: relief::trace::ShedCause::Breaker, .. } => {
                self.sheds += 1;
            }
            EventKind::TaskAborted { .. } => self.aborts += 1,
            _ => {}
        }
    }

    fn kinds(&self) -> KindSet {
        KindSet::of(&[
            Kind::BreakerOpened,
            Kind::BreakerHalfOpen,
            Kind::BreakerClosed,
            Kind::RequestShed,
            Kind::TaskAborted,
        ])
    }
}

/// The breaker cells exist to pin the circuit breaker's whole cycle: the
/// self-healing cells never shed by breaker nor close one. Between them
/// the breaker cells must open, shed, half-open, re-open after a failed
/// probe, close, and abort tasks of streamed requests.
#[test]
fn breaker_cells_cover_every_breaker_transition() {
    let log = Rc::new(RefCell::new(BreakerLog::default()));
    let tracer = Tracer::to_sink(log.clone());
    let mut closed_open_ps = 0;
    for (seed, rate, policy, task_rate) in corpus::BREAKER_CELLS {
        log.borrow_mut().probing = [false; 3];
        let r = corpus::breaker_cell(seed, rate, policy, task_rate).run(&tracer);
        closed_open_ps += r.stats.service.open_hist.count();
    }
    let log = log.borrow();
    assert!(log.opens > 0, "no breaker opened");
    assert!(log.sheds > 0, "no request was shed by a breaker");
    assert!(log.half_opens > 0, "no breaker half-opened");
    assert!(log.reopens > 0, "no failed probe re-opened a breaker");
    assert!(log.closes > 0, "no breaker closed");
    assert_eq!(closed_open_ps, log.closes, "every close records its open time");
    assert!(log.aborts > 0, "no task aborted in stream mode");
}

/// Self-healing timeouts and hedges retire instances early, so the stream
/// admits more requests (plus hedged copies) than are ever live at once:
/// the live-slot high-water mark stays below that total only because
/// retired slots are recycled.
#[test]
fn service_mode_with_self_healing_recycles() {
    for (seed, rate, policy) in corpus::SELF_HEAL_CELLS {
        let cell = corpus::self_heal_cell(seed, rate, policy);
        let r = cell.run(&Tracer::off());
        let svc = &r.stats.service;
        assert!(svc.completed() > 0, "{}: no request completed", cell.label);
        assert!(
            svc.timed_out() > 0,
            "{}: no request timed out — the stale-timeout path was not exercised",
            cell.label
        );
        let instances = svc.admitted() + svc.hedged();
        assert!(
            r.live_high_water < instances,
            "{}: recycling never engaged (live high-water {} vs {instances} admitted + hedged)",
            cell.label,
            r.live_high_water
        );
    }
}

/// Bounded-memory mode drops the O(completed) DAG runtimes and records no
/// prediction sample, but must not move one simulated event: traffic, service
/// accounting, execution time, and the event count all stay
/// bit-identical.
#[test]
fn bounded_memory_is_observation_only() {
    let build = |bounded: bool| {
        let mut cfg = SocConfig::mobile(PolicyKind::Relief)
            .with_stream(corpus::stream(0x4EC5_00B1, 1_200.0, 10, 10));
        cfg.bounded_memory = bounded;
        SocSim::new(cfg, corpus::cgl_apps()).run()
    };
    let full = build(false);
    let dieted = build(true);

    assert_eq!(full.events_dispatched, dieted.events_dispatched);
    assert_eq!(full.live_high_water, dieted.live_high_water);
    assert_eq!(full.stats.exec_time, dieted.stats.exec_time);
    assert_eq!(full.stats.traffic, dieted.stats.traffic);
    assert_eq!(full.stats.service, dieted.stats.service);
    assert_eq!(full.per_app_mem_time, dieted.per_app_mem_time);
    assert_eq!(full.per_app_compute_time, dieted.per_app_compute_time);

    assert!(full.prediction.compute_rel_errors.count > 0);
    assert_eq!(dieted.prediction, Default::default(), "bounded mode reports empty sums");
    assert!(dieted.stats.apps.values().all(|a| a.dag_runtimes.is_empty()));
}
