//! The request frontend: what happens to a streamed request outside the
//! SoC.
//!
//! The simulator calls a [`Frontend`] at every point of a request's life
//! and acts on its verdicts: release a DAG instance for an admitted
//! arrival, arm a timeout, relaunch a timed-out request as a hedge. The
//! frontend itself never touches the SoC and schedules no events; every
//! breaker transition happens lazily at an arrival or outcome call, so a
//! knobs-off frontend takes none of those branches.

use crate::{AdmissionState, QosClass, SelfHealConfig, StreamConfig, StreamPlan};
use relief_metrics::{Histogram, ServiceStats};
use relief_sim::{Dur, Time};
use relief_trace::{EventKind, ShedCause, Tracer};

/// Steady-state sojourn histogram layout: 50 µs bins spanning 30 ms.
const SOJOURN_BIN_PS: u64 = 50_000_000;
const SOJOURN_BINS: usize = 600;
/// Steady-state node-latency histogram layout: 20 µs bins spanning 10 ms.
const NODE_LATENCY_BIN_PS: u64 = 20_000_000;
const NODE_LATENCY_BINS: usize = 500;
/// Breaker time-in-open histogram layout: 250 µs bins spanning 30 ms.
const OPEN_BIN_PS: u64 = 250_000_000;
const OPEN_BINS: usize = 120;
/// Retry-count histogram layout: unit bins, attempts 0..15 (overflow above).
const RETRY_BIN: u64 = 1;
const RETRY_BINS: usize = 16;

/// Circuit-breaker phase (closed → open → half-open → closed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerPhase {
    Closed,
    Open,
    HalfOpen,
}

/// One tenant's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Breaker {
    phase: BreakerPhase,
    /// Consecutive request failures while closed.
    failures: u32,
    /// Consecutive probe successes while half-open.
    successes: u32,
    /// When the breaker last entered `Open`; carried through half-open so
    /// the close event reports the full open duration.
    opened_at: Time,
}

/// What the simulator does about one stream arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// The request's per-tenant index.
    pub index: u64,
    /// When the tenant's next request arrives, if inside the horizon.
    pub next_at: Option<Time>,
    /// Release a DAG instance for the request and report it with
    /// [`Frontend::admitted`]; `false` means the request was shed.
    pub admit: bool,
}

/// The open-loop request frontend of one run: arrival sequencing, the
/// per-tenant circuit breakers, admission control, the timeout and hedge
/// decisions, the per-class [`ServiceStats`] and the nine service trace
/// events.
///
/// # Examples
///
/// ```
/// use relief_service::{Frontend, QosClass, StreamConfig, TenantCfg};
/// use relief_sim::Time;
///
/// assert!(Frontend::new(&StreamConfig::default()).is_none()); // closed loop
/// let cfg = StreamConfig {
///     duration_ps: 1_000_000_000,
///     tenants: vec![TenantCfg::new(QosClass::Latency, 10_000.0)],
///     ..StreamConfig::default()
/// };
/// let mut fe = Frontend::new(&cfg).unwrap();
/// let first = fe.arrival_at(0, 0, Time::ZERO).unwrap();
/// let arrival = fe.on_arrival(first, 0);
/// assert!(arrival.admit); // no bucket, no cap, no breaker
/// fe.admitted(first, 0, arrival.index, 0);
/// assert_eq!(fe.into_stats().admitted(), 1);
/// ```
#[derive(Debug)]
pub struct Frontend {
    plan: StreamPlan,
    admission: AdmissionState,
    stats: ServiceStats,
    /// Next request index per tenant.
    next_index: Vec<u64>,
    /// Per-tenant circuit breakers; empty when the breaker is off.
    breakers: Vec<Breaker>,
    tracer: Tracer,
}

impl Frontend {
    /// The frontend of `cfg`'s stream, or `None` when no tenant generates
    /// arrivals (a closed-loop run).
    #[must_use]
    pub fn new(cfg: &StreamConfig) -> Option<Frontend> {
        if !cfg.enabled() {
            return None;
        }
        let mut stats = ServiceStats {
            warmup_ps: cfg.warmup_ps,
            duration_ps: cfg.duration_ps,
            ..ServiceStats::default()
        };
        for c in &mut stats.classes {
            c.sojourn = Histogram::new(SOJOURN_BIN_PS, SOJOURN_BINS);
            c.node_latency = Histogram::new(NODE_LATENCY_BIN_PS, NODE_LATENCY_BINS);
        }
        // The self-heal histograms exist only when the knobs are on, so a
        // knobs-off run's stats stay `Default`-equal bit for bit.
        if cfg.self_heal.enabled() {
            stats.retry_hist = Histogram::new(RETRY_BIN, RETRY_BINS);
            stats.open_hist = Histogram::new(OPEN_BIN_PS, OPEN_BINS);
        }
        let closed = Breaker {
            phase: BreakerPhase::Closed,
            failures: 0,
            successes: 0,
            opened_at: Time::ZERO,
        };
        let tenants = cfg.tenants.len();
        let breakers =
            if cfg.self_heal.breaker_enabled() { vec![closed; tenants] } else { Vec::new() };
        Some(Frontend {
            plan: StreamPlan::new(cfg.clone()),
            admission: AdmissionState::new(cfg),
            stats,
            next_index: vec![0; tenants],
            breakers,
            tracer: Tracer::off(),
        })
    }

    /// Routes the service trace events to `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn heal(&self) -> &SelfHealConfig {
        &self.plan.cfg().self_heal
    }

    fn class(&self, tenant: usize) -> QosClass {
        self.plan.cfg().tenants[tenant].qos
    }

    /// True when timeouts or breakers can change the run; only then can a
    /// request be cancelled.
    #[must_use]
    pub fn self_heal_on(&self) -> bool {
        self.heal().enabled()
    }

    /// When request `index` of `tenant` arrives, given that the one before
    /// it arrived at `from` (`Time::ZERO` for the first). `None` when the
    /// tenant is silent or the arrival falls past the stream horizon.
    #[must_use]
    pub fn arrival_at(&self, tenant: usize, index: u64, from: Time) -> Option<Time> {
        let at = from.as_ps().saturating_add(self.plan.gap_ps(tenant as u32, index, from.as_ps())?);
        (at <= self.plan.cfg().duration_ps).then(|| Time::from_ps(at))
    }

    /// A request of `tenant` arrived at `now`: numbers and accounts it,
    /// finds when the tenant's next request arrives, and passes it through
    /// the tenant's breaker and then admission control. A shed request is
    /// fully accounted here; an admitted one holds an in-flight slot.
    pub fn on_arrival(&mut self, now: Time, tenant: usize) -> Arrival {
        let index = self.next_index[tenant];
        self.next_index[tenant] = index + 1;
        let class = self.class(tenant);
        self.stats.classes[class.index()].arrivals += 1;
        self.tracer.emit(now.as_ps(), || EventKind::StreamArrival {
            tenant: tenant as u32,
            index,
            class,
        });
        // `now` is arrival `index`'s exact time, so the gap draw stays a
        // pure function of the identity.
        let next_at = self.arrival_at(tenant, index + 1, now);
        // A tenant whose requests keep failing is cut off before the token
        // bucket ever sees it.
        let verdict = if self.breaker_admits(now, tenant, index) {
            self.admission.try_admit(now.as_ps(), tenant, class)
        } else {
            Err(ShedCause::Breaker)
        };
        if let Err(cause) = verdict {
            let c = &mut self.stats.classes[class.index()];
            match cause {
                ShedCause::Bucket => c.shed_bucket += 1,
                ShedCause::Capacity => c.shed_capacity += 1,
                ShedCause::Breaker => c.shed_breaker += 1,
            }
            self.tracer.emit(now.as_ps(), || EventKind::RequestShed {
                tenant: tenant as u32,
                index,
                class,
                cause,
            });
        }
        Arrival { index, next_at, admit: verdict.is_ok() }
    }

    /// Whether `tenant`'s breaker lets arrival `index` through. Closed
    /// admits and open sheds; past the open window the breaker half-opens
    /// and, like a half-open one, admits a seeded fraction of arrivals as
    /// probes.
    fn breaker_admits(&mut self, now: Time, tenant: usize, index: u64) -> bool {
        let Some(&b) = self.breakers.get(tenant) else { return true };
        match b.phase {
            BreakerPhase::Closed => true,
            BreakerPhase::Open
                if now.saturating_since(b.opened_at) >= Dur::from_ps(self.heal().breaker_open_ps) =>
            {
                self.breakers[tenant] =
                    Breaker { phase: BreakerPhase::HalfOpen, successes: 0, ..b };
                self.tracer
                    .emit(now.as_ps(), || EventKind::BreakerHalfOpen { tenant: tenant as u32 });
                self.plan.probe_admit(tenant as u32, index)
            }
            BreakerPhase::Open => false,
            BreakerPhase::HalfOpen => self.plan.probe_admit(tenant as u32, index),
        }
    }

    /// Request `index` of `tenant`, admitted at `now`, runs as DAG
    /// instance `instance`.
    pub fn admitted(&mut self, now: Time, tenant: usize, index: u64, instance: u32) {
        self.stats.classes[self.class(tenant).index()].admitted += 1;
        self.tracer.emit(now.as_ps(), || EventKind::RequestAdmitted {
            tenant: tenant as u32,
            index,
            instance,
        });
    }

    /// The timeout of a request whose app has relative deadline `rel`,
    /// counted from its admission: `timeout_factor × rel`, or `None` when
    /// timeouts are off.
    #[must_use]
    pub fn timeout(&self, rel: Dur) -> Option<Dur> {
        let heal = self.heal();
        heal.timeouts_enabled()
            .then(|| Dur::from_ps((rel.as_ps() as f64 * heal.timeout_factor) as u64))
    }

    /// Attempt `attempt` of request `req_index` of `tenant`, running as
    /// DAG instance `instance`, timed out at `now`; cancelling the instance
    /// aborted `cancelled_xfers` in-flight transfers. Frees the request's
    /// in-flight slot, counts a breaker failure, and returns whether to
    /// relaunch the request as a hedge: within the class's hedge budget,
    /// by the seeded hedge draw, and only while the class's capacity share
    /// has a free slot, which the hedge then holds. A hedge bypasses the
    /// token bucket, since the original admission paid the token.
    pub fn on_timeout(
        &mut self,
        now: Time,
        tenant: usize,
        instance: u32,
        req_index: u64,
        attempt: u32,
        cancelled_xfers: u64,
    ) -> bool {
        let class = self.class(tenant);
        self.stats.timeout_cancelled_xfers += cancelled_xfers;
        self.stats.classes[class.index()].timed_out += 1;
        self.tracer.emit(now.as_ps(), || EventKind::RequestTimedOut {
            tenant: tenant as u32,
            instance,
            class,
            attempt,
        });
        self.admission.release();
        self.breaker_outcome(now, tenant, false);
        attempt < self.heal().hedge_budget[class.index()]
            && self.plan.hedge_launch(tenant as u32, req_index, attempt)
            && self.admission.try_occupy(class)
    }

    /// A hedge of `tenant`'s request launched at `now` as DAG instance
    /// `instance`, delivery attempt `attempt`. Its deadline restarts at
    /// the relaunch; its sojourn stays anchored to the first arrival.
    pub fn hedged(&mut self, now: Time, tenant: usize, instance: u32, attempt: u32) {
        self.stats.classes[self.class(tenant).index()].hedged += 1;
        self.tracer.emit(now.as_ps(), || EventKind::HedgeLaunched {
            tenant: tenant as u32,
            instance,
            attempt,
        });
    }

    /// A node of a `tenant` request whose DAG instance arrived at
    /// `arrival` completed at `now`, meeting its node deadline when `met`.
    /// Samples before the warm-up cutoff are cold-start transient and
    /// excluded.
    pub fn on_node_done(&mut self, now: Time, tenant: usize, arrival: Time, met: bool) {
        if now.as_ps() < self.stats.warmup_ps {
            return;
        }
        let c = &mut self.stats.classes[self.class(tenant).index()];
        c.nodes_measured += 1;
        if met {
            c.node_deadlines_met += 1;
        }
        c.node_latency.record(now.saturating_since(arrival).as_ps());
    }

    /// DAG instance `instance`, delivery attempt `attempt` of a `tenant`
    /// request that first arrived at `first_arrival`, completed at `now`,
    /// meeting its DAG deadline when `met`. Frees the in-flight slot and
    /// records the sojourn from the *first* arrival, so a hedged completion
    /// reports the time the client actually waited. Every completion, late
    /// or not, is a breaker success.
    pub fn on_complete(
        &mut self,
        now: Time,
        tenant: usize,
        instance: u32,
        first_arrival: Time,
        attempt: u32,
        met: bool,
    ) {
        self.admission.release();
        let sojourn = now.saturating_since(first_arrival);
        let class = self.class(tenant);
        let c = &mut self.stats.classes[class.index()];
        c.completed += 1;
        if met {
            c.dag_deadlines_met += 1;
        }
        if now.as_ps() >= self.stats.warmup_ps {
            c.sojourn.record(sojourn.as_ps());
        }
        if self.self_heal_on() {
            self.stats.retry_hist.record(u64::from(attempt));
            self.breaker_outcome(now, tenant, true);
        }
        self.tracer.emit(now.as_ps(), || EventKind::RequestCompleted {
            tenant: tenant as u32,
            instance,
            class,
            sojourn_ps: sojourn.as_ps(),
            met,
        });
    }

    /// A task of a `tenant` request exhausted its retry budget at `now`, so
    /// the instance never completes: frees its in-flight slot and counts a
    /// breaker failure. Called once per instance.
    pub fn on_abort(&mut self, now: Time, tenant: usize) {
        self.admission.release();
        self.breaker_outcome(now, tenant, false);
    }

    /// Feeds one request outcome of `tenant` into its circuit breaker.
    /// Outcomes while the breaker is open change nothing; the half-open
    /// transition happens lazily at arrivals.
    fn breaker_outcome(&mut self, now: Time, tenant: usize, success: bool) {
        let Some(&b) = self.breakers.get(tenant) else { return };
        let heal = self.heal();
        let b = match (b.phase, success) {
            (BreakerPhase::Closed, true) => Breaker { failures: 0, ..b },
            (BreakerPhase::Closed, false) if b.failures + 1 >= heal.breaker_failures => {
                let failures = b.failures + 1;
                self.tracer.emit(now.as_ps(), || EventKind::BreakerOpened {
                    tenant: tenant as u32,
                    failures,
                });
                Breaker { phase: BreakerPhase::Open, failures, opened_at: now, ..b }
            }
            (BreakerPhase::Closed, false) => Breaker { failures: b.failures + 1, ..b },
            (BreakerPhase::HalfOpen, true) if b.successes + 1 >= heal.probes_to_close => {
                let open_ps = now.saturating_since(b.opened_at).as_ps();
                self.stats.open_hist.record(open_ps);
                self.tracer.emit(now.as_ps(), || EventKind::BreakerClosed {
                    tenant: tenant as u32,
                    open_ps,
                });
                let successes = b.successes + 1;
                Breaker { phase: BreakerPhase::Closed, failures: 0, successes, ..b }
            }
            (BreakerPhase::HalfOpen, true) => Breaker { successes: b.successes + 1, ..b },
            // A failed probe re-opens at once; the failure count reported
            // is the probe itself.
            (BreakerPhase::HalfOpen, false) => {
                self.tracer.emit(now.as_ps(), || EventKind::BreakerOpened {
                    tenant: tenant as u32,
                    failures: 1,
                });
                Breaker { phase: BreakerPhase::Open, failures: 0, opened_at: now, ..b }
            }
            (BreakerPhase::Open, _) => b,
        };
        self.breakers[tenant] = b;
    }

    /// The run's service statistics.
    #[must_use]
    pub fn into_stats(self) -> ServiceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdmissionConfig, TenantCfg};
    use relief_trace::{RingBufferSink, TraceEvent};
    use std::cell::RefCell;
    use std::rc::Rc;

    const US: u64 = 1_000_000;

    /// Two tenants (Latency, BestEffort) at 1000 req/s over 10 ms, 1 ms
    /// warm-up, with `heal` and `admission`.
    fn config(heal: SelfHealConfig, admission: AdmissionConfig) -> StreamConfig {
        StreamConfig {
            duration_ps: 10_000 * US,
            warmup_ps: 1_000 * US,
            tenants: vec![
                TenantCfg::new(QosClass::Latency, 1_000.0),
                TenantCfg::new(QosClass::BestEffort, 1_000.0),
            ],
            admission,
            self_heal: heal,
            ..StreamConfig::default()
        }
    }

    /// Breakers that trip after 3 failures, stay open 100 µs and close
    /// after 2 probe successes; 2x timeouts; no hedges.
    fn breaker(probe_rate: f64) -> SelfHealConfig {
        SelfHealConfig {
            breaker_failures: 3,
            breaker_open_ps: 100 * US,
            probe_rate,
            probes_to_close: 2,
            timeout_factor: 2.0,
            ..SelfHealConfig::default()
        }
    }

    /// A frontend over `cfg` whose trace events a ring buffer records.
    fn traced(cfg: &StreamConfig) -> (Frontend, Rc<RefCell<RingBufferSink>>) {
        let ring = RingBufferSink::shared(4096);
        let mut fe = Frontend::new(cfg).unwrap();
        fe.set_tracer(Tracer::to_sink(ring.clone()));
        (fe, ring)
    }

    fn at(us: u64) -> Time {
        Time::from_ps(us * US)
    }

    /// The breaker events recorded so far, emptying the ring.
    fn breaker_events(ring: &Rc<RefCell<RingBufferSink>>) -> Vec<TraceEvent> {
        let events = ring.borrow_mut().take();
        events
            .into_iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::BreakerOpened { .. }
                        | EventKind::BreakerHalfOpen { .. }
                        | EventKind::BreakerClosed { .. }
                )
            })
            .collect()
    }

    /// Admits one request of `tenant` at `now` as instance `instance`.
    fn admit(fe: &mut Frontend, now: Time, tenant: usize, instance: u32) -> u64 {
        let a = fe.on_arrival(now, tenant);
        assert!(a.admit, "request {} of tenant {tenant} was shed", a.index);
        fe.admitted(now, tenant, a.index, instance);
        a.index
    }

    /// Trips tenant 0's breaker at `now` with three timeouts.
    fn trip(fe: &mut Frontend, now: Time) {
        for i in 0..3 {
            fe.on_timeout(now, 0, i, u64::from(i), 0, 0);
        }
        assert_eq!(fe.breakers[0].phase, BreakerPhase::Open);
    }

    #[test]
    fn closed_loop_configs_have_no_frontend() {
        assert!(Frontend::new(&StreamConfig::default()).is_none());
        let mut silent = config(SelfHealConfig::default(), AdmissionConfig::default());
        for t in &mut silent.tenants {
            t.rate_per_s = 0.0;
        }
        assert!(Frontend::new(&silent).is_none());
    }

    #[test]
    fn self_heal_off_fires_no_breaker_event_and_keeps_its_histograms_default() {
        let cfg = config(SelfHealConfig::default(), AdmissionConfig::default());
        let (mut fe, ring) = traced(&cfg);
        assert!(!fe.self_heal_on());
        assert_eq!(fe.timeout(Dur::from_us(100)), None);
        for i in 0..8 {
            admit(&mut fe, at(2_000 + u64::from(i)), 0, i);
            fe.on_abort(at(2_100), 0);
        }
        admit(&mut fe, at(2_200), 0, 8);
        fe.on_complete(at(2_300), 0, 8, at(2_200), 0, true);
        assert!(breaker_events(&ring).is_empty());
        let stats = fe.into_stats();
        assert_eq!(stats.retry_hist, Histogram::default());
        assert_eq!(stats.open_hist, Histogram::default());
        assert_eq!(stats.classes[0].completed, 1);
    }

    #[test]
    fn consecutive_failures_open_the_breaker_and_a_completion_resets_the_count() {
        let (mut fe, ring) = traced(&config(breaker(1.0), AdmissionConfig::default()));
        // Two failures (a timeout and an abort), then a completion.
        fe.on_timeout(at(10), 0, 0, 0, 0, 0);
        fe.on_abort(at(11), 0);
        fe.on_complete(at(12), 0, 1, at(5), 0, true);
        // The count restarted: two more failures do not trip it...
        fe.on_abort(at(13), 0);
        fe.on_timeout(at(14), 0, 2, 2, 0, 0);
        assert!(breaker_events(&ring).is_empty());
        // ...the third consecutive one does.
        fe.on_abort(at(15), 0);
        let events = breaker_events(&ring);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at_ps, at(15).as_ps());
        assert_eq!(events[0].kind, EventKind::BreakerOpened { tenant: 0, failures: 3 });
        // The other tenant's breaker is untouched.
        assert_eq!(fe.breakers[1].phase, BreakerPhase::Closed);
    }

    #[test]
    fn a_late_completion_is_a_breaker_success() {
        let (mut fe, ring) = traced(&config(breaker(1.0), AdmissionConfig::default()));
        fe.on_timeout(at(10), 0, 0, 0, 0, 0);
        fe.on_timeout(at(11), 0, 1, 1, 0, 0);
        fe.on_complete(at(12), 0, 2, at(1), 0, false); // missed its deadline
        fe.on_timeout(at(13), 0, 3, 3, 0, 0);
        fe.on_timeout(at(14), 0, 4, 4, 0, 0);
        assert!(breaker_events(&ring).is_empty(), "a deadline miss counted as a failure");
    }

    #[test]
    fn arrivals_inside_the_open_window_are_shed_by_the_breaker() {
        let (mut fe, ring) = traced(&config(breaker(1.0), AdmissionConfig::default()));
        trip(&mut fe, at(50));
        ring.borrow_mut().take();
        let a = fe.on_arrival(at(149), 0);
        assert!(!a.admit);
        assert!(matches!(
            ring.borrow().snapshot().last().map(|e| e.kind.clone()),
            Some(EventKind::RequestShed { cause: ShedCause::Breaker, index: 0, .. })
        ));
        // The other tenant is admitted.
        assert!(fe.on_arrival(at(149), 1).admit);
        let stats = fe.into_stats();
        assert_eq!((stats.classes[0].shed_breaker, stats.classes[0].arrivals), (1, 1));
        assert_eq!(stats.shed_breaker(), 1);
    }

    #[test]
    fn after_the_open_window_the_breaker_half_opens_and_admits_by_probe_draw() {
        let (mut fe, ring) = traced(&config(breaker(0.5), AdmissionConfig::default()));
        trip(&mut fe, at(50));
        breaker_events(&ring);
        let mut admitted = Vec::new();
        for i in 0..32 {
            let a = fe.on_arrival(at(150 + i), 0);
            assert_eq!(a.admit, fe.plan.probe_admit(0, a.index), "probe {}", a.index);
            admitted.push(a.admit);
        }
        assert!(admitted.contains(&true) && admitted.contains(&false), "{admitted:?}");
        let events = breaker_events(&ring);
        assert_eq!(events.len(), 1, "half-opens once: {events:?}");
        assert_eq!(events[0].at_ps, at(150).as_ps());
        assert_eq!(events[0].kind, EventKind::BreakerHalfOpen { tenant: 0 });
    }

    #[test]
    fn probe_successes_close_the_breaker_and_record_the_open_time() {
        let (mut fe, ring) = traced(&config(breaker(1.0), AdmissionConfig::default()));
        trip(&mut fe, at(50));
        admit(&mut fe, at(160), 0, 10);
        admit(&mut fe, at(161), 0, 11);
        breaker_events(&ring);
        fe.on_complete(at(170), 0, 10, at(160), 0, true);
        assert!(breaker_events(&ring).is_empty(), "one success of two closed it");
        fe.on_complete(at(180), 0, 11, at(161), 0, false);
        let events = breaker_events(&ring);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::BreakerClosed { tenant: 0, open_ps: 130 * US });
        assert_eq!(fe.breakers[0].phase, BreakerPhase::Closed);
        assert!(fe.on_arrival(at(181), 0).admit);
        let open = fe.into_stats().open_hist;
        assert_eq!((open.count(), open.max_ps()), (1, 130 * US));
    }

    #[test]
    fn a_failed_probe_reopens_the_breaker() {
        let (mut fe, ring) = traced(&config(breaker(1.0), AdmissionConfig::default()));
        trip(&mut fe, at(50));
        admit(&mut fe, at(160), 0, 10);
        breaker_events(&ring);
        fe.on_timeout(at(170), 0, 10, 0, 0, 0);
        let events = breaker_events(&ring);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::BreakerOpened { tenant: 0, failures: 1 });
        // The open window restarts at the failed probe.
        assert!(!fe.on_arrival(at(269), 0).admit);
        assert!(fe.on_arrival(at(270), 0).admit);
        assert_eq!(fe.into_stats().open_hist.count(), 0);
    }

    #[test]
    fn outcomes_while_open_change_nothing() {
        let (mut fe, ring) = traced(&config(breaker(1.0), AdmissionConfig::default()));
        trip(&mut fe, at(50));
        breaker_events(&ring);
        let before = fe.breakers[0];
        fe.on_complete(at(60), 0, 7, at(40), 0, true);
        fe.on_complete(at(61), 0, 8, at(40), 0, true);
        fe.on_timeout(at(62), 0, 9, 9, 0, 0);
        fe.on_abort(at(63), 0);
        assert!(breaker_events(&ring).is_empty());
        assert_eq!(fe.breakers[0], before);
    }

    #[test]
    fn timeouts_scale_the_relative_deadline() {
        let heal = SelfHealConfig { timeout_factor: 2.5, ..SelfHealConfig::default() };
        let fe = Frontend::new(&config(heal, AdmissionConfig::default())).unwrap();
        assert!(fe.self_heal_on());
        assert_eq!(fe.timeout(Dur::from_us(100)), Some(Dur::from_us(250)));
    }

    #[test]
    fn hedges_keep_to_the_class_budget_and_bypass_an_empty_bucket() {
        let heal = SelfHealConfig {
            timeout_factor: 2.0,
            hedge_budget: [2, 0, 0],
            ..SelfHealConfig::default()
        };
        // One token per tenant that refills about once a second.
        let bucket =
            AdmissionConfig { bucket_rate_per_s: 1.0, bucket_burst: 1.0, max_in_flight: 0 };
        let (mut fe, ring) = traced(&config(heal, bucket));
        let index = admit(&mut fe, at(10), 0, 0);
        assert!(!fe.on_arrival(at(11), 0).admit, "the bucket is empty");
        // The original and its first hedge may be hedged, the second not.
        assert!(fe.on_timeout(at(20), 0, 0, index, 0, 3));
        fe.hedged(at(20), 0, 1, 1);
        assert!(fe.on_timeout(at(30), 0, 1, index, 1, 0));
        fe.hedged(at(30), 0, 2, 2);
        assert!(!fe.on_timeout(at(40), 0, 2, index, 2, 0));
        // BestEffort has no hedge budget.
        let other = admit(&mut fe, at(50), 1, 3);
        assert!(!fe.on_timeout(at(60), 1, 3, other, 0, 0));
        assert!(ring
            .borrow()
            .snapshot()
            .iter()
            .any(|e| e.kind == EventKind::HedgeLaunched { tenant: 0, instance: 2, attempt: 2 }));
        let stats = fe.into_stats();
        assert_eq!((stats.classes[0].timed_out, stats.classes[0].hedged), (3, 2));
        assert_eq!(stats.timeout_cancelled_xfers, 3);
    }

    #[test]
    fn hedges_need_room_in_the_class_capacity_share() {
        let heal = SelfHealConfig {
            timeout_factor: 2.0,
            hedge_budget: [1, 1, 1],
            ..SelfHealConfig::default()
        };
        // Cap 5: Latency may fill 5 slots, BestEffort 3.
        let cap = AdmissionConfig { max_in_flight: 5, ..AdmissionConfig::default() };
        let mut fe = Frontend::new(&config(heal, cap)).unwrap();
        let be = admit(&mut fe, at(10), 1, 0);
        for i in 1..5 {
            admit(&mut fe, at(10), 0, i);
        }
        // The timed-out BestEffort request frees a slot, but 4 in flight
        // still fill BestEffort's share of 3.
        assert!(!fe.on_timeout(at(20), 1, 0, be, 0, 0));
        assert_eq!(fe.admission.in_flight, 4);
        // A Latency timeout frees a slot its hedge takes.
        assert!(fe.on_timeout(at(20), 0, 1, 0, 0, 0));
        assert_eq!(fe.admission.in_flight, 4);
    }

    #[test]
    fn hedge_launches_follow_the_seeded_draw() {
        let heal = SelfHealConfig {
            timeout_factor: 2.0,
            hedge_budget: [1, 0, 0],
            hedge_rate: 0.5,
            ..SelfHealConfig::default()
        };
        let mut fe = Frontend::new(&config(heal, AdmissionConfig::default())).unwrap();
        let hedged: Vec<bool> = (0..32)
            .map(|i| {
                let hedge = fe.on_timeout(at(10), 0, i, u64::from(i), 0, 0);
                assert_eq!(hedge, fe.plan.hedge_launch(0, u64::from(i), 0));
                hedge
            })
            .collect();
        assert!(hedged.contains(&true) && hedged.contains(&false), "{hedged:?}");
    }

    #[test]
    fn samples_before_warm_up_are_excluded_while_counts_move() {
        let heal = SelfHealConfig { timeout_factor: 2.0, ..SelfHealConfig::default() };
        let mut fe = Frontend::new(&config(heal, AdmissionConfig::default())).unwrap();
        // Warm-up ends at 1 ms.
        fe.on_node_done(at(999), 0, at(900), true);
        fe.on_complete(at(999), 0, 0, at(900), 0, true);
        fe.on_node_done(at(1_000), 0, at(900), false);
        fe.on_complete(at(1_000), 0, 1, at(900), 1, false);
        let stats = fe.into_stats();
        let c = &stats.classes[0];
        assert_eq!((c.completed, c.dag_deadlines_met), (2, 1));
        assert_eq!((c.nodes_measured, c.node_deadlines_met), (1, 0));
        assert_eq!((c.sojourn.count(), c.sojourn.max_ps()), (1, 100 * US));
        assert_eq!((c.node_latency.count(), c.node_latency.max_ps()), (1, 100 * US));
        // The retry histogram records the 0-based attempt (0 = no hedge)
        // of every completion, warm-up or not.
        assert_eq!((stats.retry_hist.count(), stats.retry_hist.max_ps()), (2, 1));
        assert_eq!(stats.retry_hist.mean_ps(), Some(0.5));
    }
}
