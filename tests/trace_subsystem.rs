//! End-to-end tests of the structured tracing subsystem: determinism of
//! the event stream, exporter well-formedness, divergence detection,
//! consistency between event-derived counters and the simulator's own
//! statistics, and kind subscription (a sink that subscribes to some
//! kinds receives exactly those records of the full stream).

use relief::bench::config_for;
use relief::prelude::*;
use relief_accel::{SimResult, SpanCollector};
use relief_service::SelfHealConfig;
use relief_trace::chrome::{to_chrome_json, ChromeOptions};
use relief_trace::{
    first_divergence_lines, text, CountersSink, DenyReason, Endpoint, EventCounters, EventKind,
    InputSource, Kind, KindSet, QosClass, ResourceId, ShedCause, TaskRef, TraceEvent, TraceSink,
};
use relief_workloads::App;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Runs the Canny + LSTM lane-detection mix (§IV-C) under `policy` with a
/// lossless ring sink attached.
fn run_traced(policy: PolicyKind) -> (SimResult, Vec<TraceEvent>) {
    let ring = RingBufferSink::shared(1 << 20);
    let mut tracer = Tracer::off();
    tracer.attach(ring.clone());
    let apps = vec![
        AppSpec::once("C", App::Canny.dag()),
        AppSpec::once("L", App::Lstm.dag()),
    ];
    let mut cfg = SocConfig::mobile(policy);
    cfg.record_trace = true;
    let result = SocSim::new(cfg, apps).with_tracer(&tracer).run();
    let events = ring.borrow_mut().take();
    assert!(!events.is_empty(), "traced run must emit events");
    (result, events)
}

#[test]
fn same_seed_runs_produce_byte_identical_streams() {
    let (_, a) = run_traced(PolicyKind::Relief);
    let (_, b) = run_traced(PolicyKind::Relief);
    assert!(a == b, "same-seed runs must not diverge");
    assert_eq!(text::to_text(&a), text::to_text(&b));
}

#[test]
fn different_policies_diverge() {
    let (_, relief) = run_traced(PolicyKind::Relief);
    let (_, fcfs) = run_traced(PolicyKind::Fcfs);
    let div = first_divergence_lines(&text::to_text(&relief), &text::to_text(&fcfs))
        .expect("policies must diverge");
    let report = div.report();
    assert!(report.contains("divergence at entry"), "unexpected report: {report}");
}

#[test]
fn chrome_export_is_well_formed_and_contains_decisions() {
    let (_, relief) = run_traced(PolicyKind::Relief);
    let (_, fcfs) = run_traced(PolicyKind::Fcfs);
    for events in [&relief, &fcfs] {
        let json = to_chrome_json(events, &ChromeOptions::default());
        assert!(json.contains("\"traceEvents\""));
    }
    // RELIEF escalates forwarding nodes and runs the Algorithm 2
    // feasibility check; both decisions must be visible in the export.
    let json = to_chrome_json(&relief, &ChromeOptions::default());
    assert!(json.contains("escalation-granted"), "no escalation events exported");
    assert!(json.contains("feasibility"), "no feasibility-check events exported");
    // FCFS never escalates.
    assert!(!to_chrome_json(&fcfs, &ChromeOptions::default()).contains("escalation"));
}

#[test]
fn event_counters_reconcile_with_run_stats() {
    for policy in [PolicyKind::Fcfs, PolicyKind::Lax, PolicyKind::Relief] {
        let (result, events) = run_traced(policy);
        let counters = EventCounters::from_events(&events);
        let mismatches = relief_metrics::reconcile(&counters, &result.stats);
        assert!(
            mismatches.is_empty(),
            "{policy:?}: {}",
            mismatches
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
        let indices: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::EventDispatched { index } => Some(index),
                _ => None,
            })
            .collect();
        assert!(indices.iter().copied().eq(0..indices.len() as u64), "{policy:?}: indices");
        assert_eq!(indices.len() as u64, result.events_dispatched, "{policy:?}");
    }
}

#[test]
fn attaching_a_tracer_does_not_perturb_the_simulation() {
    let (traced, _) = run_traced(PolicyKind::Relief);
    let apps = vec![
        AppSpec::once("C", App::Canny.dag()),
        AppSpec::once("L", App::Lstm.dag()),
    ];
    let plain = SocSim::new(SocConfig::mobile(PolicyKind::Relief), apps).run();
    assert_eq!(traced.stats.exec_time, plain.stats.exec_time);
    assert_eq!(traced.stats.traffic, plain.stats.traffic);
    assert_eq!(traced.stats.apps, plain.stats.apps);
}

#[test]
fn recorded_trace_matches_trace_rebuilt_from_events() {
    let (result, events) = run_traced(PolicyKind::Relief);
    let mut rebuilt = SpanCollector::new();
    for ev in events {
        rebuilt.emit(ev);
    }
    assert_eq!(result.trace.spans, rebuilt.take_spans());
    assert!(!result.trace.spans.is_empty());
}

/// Runs `cfg` on `apps` with a full ring attached and, when `counters`
/// is set, a [`CountersSink`] beside it. Returns the ring's capture and
/// the sink's counters.
fn capture(
    cfg: &SocConfig,
    apps: &[AppSpec],
    counters: bool,
) -> (Vec<TraceEvent>, Option<EventCounters>) {
    let ring = RingBufferSink::shared(1 << 20);
    let mut tracer = Tracer::to_sink(ring.clone());
    let sink = counters.then(CountersSink::shared);
    if let Some(sink) = &sink {
        tracer.attach(sink.clone());
    }
    SocSim::new(cfg.clone(), apps.to_vec()).with_tracer(&tracer).run();
    assert_eq!(ring.borrow().dropped(), 0, "the ring must hold the whole run");
    let events = ring.borrow_mut().take();
    (events, sink.map(|s| s.borrow().counters().clone()))
}

/// All eleven policies on a high-contention mix, a fault-injected cell,
/// and a chaos-serving cell (task, DMA and ECC faults, DRAM outages,
/// breakers, timeouts and hedges).
fn subscription_cells() -> Vec<(String, SocConfig, Vec<AppSpec>)> {
    let mix = &Contention::High.mixes()[0];
    let mut cells: Vec<(String, SocConfig, Vec<AppSpec>)> = PolicyKind::ALL
        .iter()
        .chain(PolicyKind::EXTENSIONS.iter())
        .map(|&p| {
            (format!("{}/{p:?}", mix.label()), config_for(p, Contention::High), mix.workload())
        })
        .collect();
    let faulted = config_for(PolicyKind::Relief, Contention::High).with_fault(FaultConfig {
        seed: 0xFA57,
        task_fault_rate: 0.05,
        dma_fault_rate: 0.05,
        unit_mttf_ps: 20_000_000_000,
        ..FaultConfig::default()
    });
    cells.push((format!("faults/{}", mix.label()), faulted, mix.workload()));
    let stream = StreamConfig {
        seed: 0xC4A0,
        duration_ps: 10_000_000_000,
        warmup_ps: 1_000_000_000,
        tenants: vec![
            TenantCfg::new(QosClass::Latency, 1_500.0),
            TenantCfg::new(QosClass::Standard, 1_500.0),
            TenantCfg::new(QosClass::BestEffort, 1_500.0),
        ],
        admission: AdmissionConfig { max_in_flight: 10, ..AdmissionConfig::default() },
        self_heal: SelfHealConfig {
            breaker_failures: 3,
            breaker_open_ps: 2_000_000_000,
            probe_rate: 0.5,
            probes_to_close: 2,
            timeout_factor: 1.5,
            hedge_budget: [1, 1, 0],
            hedge_rate: 1.0,
        },
        ..StreamConfig::default()
    };
    let chaos = SocConfig::mobile(PolicyKind::Relief).with_stream(stream).with_fault(FaultConfig {
        seed: 0xFA17,
        task_fault_rate: 0.02,
        dma_fault_rate: 0.02,
        ecc_chunk_rate: 0.02,
        dram_mttf_ps: 2_000_000_000,
        ..FaultConfig::default()
    });
    let trio = vec![
        AppSpec::once("C", App::Canny.dag()),
        AppSpec::once("G", App::Gru.dag()),
        AppSpec::once("L", App::Lstm.dag()),
    ];
    cells.push(("serve-chaos/CGL".into(), chaos, trio));
    cells
}

#[test]
fn subscribed_counters_lose_nothing() {
    let mut chaos = EventCounters::default();
    for (label, cfg, apps) in subscription_cells() {
        let (alone, _) = capture(&cfg, &apps, false);
        let (beside, counters) = capture(&cfg, &apps, true);
        assert_eq!(text::to_text(&alone), text::to_text(&beside), "{label}: capture moved");
        let counters = counters.expect("a counters sink was attached");
        assert_eq!(counters, EventCounters::from_events(&beside), "{label}");
        if label.starts_with("serve-chaos") {
            chaos = counters;
        }
    }
    // The chaos cell reaches every self-healing and memory-fault kind.
    for (what, n) in [
        ("task faults", chaos.task_faults),
        ("ECC faults", chaos.ecc_faults),
        ("channel outages", chaos.channel_outages),
        ("breaker opens", chaos.breaker_opens),
        ("timeouts", chaos.requests_timed_out),
        ("hedges", chaos.hedges_launched),
    ] {
        assert!(n > 0, "the chaos cell fired no {what}");
    }
}

/// One event of every kind, with non-zero payloads.
fn one_of_each_kind() -> Vec<EventKind> {
    let task = TaskRef { instance: 1, node: 2 };
    let parent = TaskRef { instance: 1, node: 0 };
    let class = QosClass::Standard;
    let (src, dst) = (Endpoint::Dram, Endpoint::Spad(1));
    vec![
        EventKind::EventDispatched { index: 1 },
        EventKind::ResourceBusy { resource: ResourceId::Dram, start_ps: 1, end_ps: 2 },
        EventKind::DmaStart { xfer: 1, dma: 0, src, dst, bytes: 8 },
        EventKind::DmaEnd { xfer: 1, dma: 0, src, dst, bytes: 8, start_ps: 1, queued_ps: 1 },
        EventKind::DmaCancelled { xfer: 1, dma: 0, src, dst, bytes: 8 },
        EventKind::ChannelOutage { start_ps: 1, end_ps: 2 },
        EventKind::EscalationGranted { task, acc: 0, index: 1 },
        EventKind::EscalationDenied { task, acc: 0, reason: DenyReason::Infeasible },
        EventKind::FeasibilityCheck { task, acc: 0, index: 1, feasible: true },
        EventKind::QueueBypass { task, acc: 0, skipped: 1 },
        EventKind::DagArrived { instance: 1, app: "C".into(), nodes: 3 },
        EventKind::TaskReady { task, acc: 0 },
        EventKind::TaskDispatched { task, inst: 1 },
        EventKind::InputSourced {
            task,
            inst: 1,
            parent: Some(parent),
            source: InputSource::Colocated,
            bytes: 8,
        },
        EventKind::ComputeStart { task, inst: 1 },
        EventKind::ComputeEnd {
            task,
            inst: 1,
            start_ps: 1,
            app: "C".into(),
            forwarded_inputs: 1,
            colocated_inputs: 0,
        },
        EventKind::WritebackIssued { task, inst: 1, bytes: 8, lazy: true },
        EventKind::DagDone { instance: 1, met: true },
        EventKind::TaskFaulted { task, inst: 1, attempt: 0 },
        EventKind::TaskRetried { task, acc: 0, attempt: 1 },
        EventKind::TaskAborted { task, attempts: 2 },
        EventKind::DmaFaulted { task, parent: Some(parent), bytes: 8, attempt: 0 },
        EventKind::UnitQuarantined { inst: 1, until_ps: 2 },
        EventKind::UnitRestored { inst: 1 },
        EventKind::FaultAttributedMiss { instance: 1, faults: 1 },
        EventKind::EccCorrupted { task, parent, attempt: 0 },
        EventKind::StreamArrival { tenant: 0, index: 1, class },
        EventKind::RequestAdmitted { tenant: 0, index: 1, instance: 1 },
        EventKind::RequestShed { tenant: 0, index: 1, class, cause: ShedCause::Bucket },
        EventKind::RequestCompleted { tenant: 0, instance: 1, class, sojourn_ps: 1, met: true },
        EventKind::RequestTimedOut { tenant: 0, instance: 1, class, attempt: 0 },
        EventKind::HedgeLaunched { tenant: 0, instance: 1, attempt: 1 },
        EventKind::BreakerOpened { tenant: 0, failures: 3 },
        EventKind::BreakerHalfOpen { tenant: 0 },
        EventKind::BreakerClosed { tenant: 0, open_ps: 1 },
    ]
}

#[test]
fn every_event_kind_has_its_own_kind() {
    let samples = one_of_each_kind();
    let kinds: BTreeSet<Kind> = samples.iter().map(EventKind::kind).collect();
    assert_eq!(kinds.len(), samples.len(), "two variants share a kind");
    assert_eq!(kinds.len(), Kind::ALL.len(), "a variant is missing from the samples");
    assert!(kinds.iter().all(|&k| KindSet::ALL.contains(k)));
    // The counters subscribe to exactly the kinds their fold counts.
    for kind in samples {
        let k = kind.kind();
        let folded = EventCounters::from_events(&[TraceEvent { at_ps: 1, kind }]);
        assert_eq!(folded != EventCounters::default(), EventCounters::KINDS.contains(k), "{k:?}");
    }
}

/// Keeps every event it is sent and counts the deliveries.
struct ComputeEnds {
    delivered: u64,
    events: Vec<TraceEvent>,
}

impl TraceSink for ComputeEnds {
    fn emit(&mut self, ev: TraceEvent) {
        self.delivered += 1;
        self.events.push(ev);
    }

    fn kinds(&self) -> KindSet {
        KindSet::of(&[Kind::ComputeEnd])
    }
}

#[test]
fn a_subscribed_sink_receives_exactly_its_kinds() {
    let ring = RingBufferSink::shared(1 << 20);
    let ends = Rc::new(RefCell::new(ComputeEnds { delivered: 0, events: Vec::new() }));
    let mut tracer = Tracer::to_sink(ends.clone());
    tracer.attach(ring.clone());
    let apps = vec![AppSpec::once("C", App::Canny.dag()), AppSpec::once("L", App::Lstm.dag())];
    SocSim::new(SocConfig::mobile(PolicyKind::Relief), apps).with_tracer(&tracer).run();
    let full = ring.borrow_mut().take();
    let expected: Vec<TraceEvent> =
        full.iter().filter(|e| e.kind.kind() == Kind::ComputeEnd).cloned().collect();
    let ends = ends.borrow();
    assert!(!expected.is_empty() && expected.len() < full.len());
    assert_eq!(ends.events, expected);
    assert_eq!(ends.delivered, expected.len() as u64);
}
