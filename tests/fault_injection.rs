//! Fault-injection integration suite: the determinism, recovery, and
//! accounting contracts of the `relief-fault` layer, checked end to end
//! through the simulator, the campaign engine, and the trace subsystem.
//!
//! 1. **Schedule determinism** — the fault schedule is a pure function of
//!    its seed: two runs of the same config emit identical fault events,
//!    a reseeded run different ones.
//! 2. **Jobs-invariance** — a faulted resilience campaign renders
//!    byte-identical reports at `--jobs 1` and `--jobs N`.
//! 3. **Replay** — two runs of the same faulted configuration produce a
//!    clean trace diff (no divergence, identical text export).
//! 4. **Rate-0 inertness** — an explicit zero-rate fault config leaves
//!    `RunStats` bit-identical to a config-default run, so every golden
//!    output is unchanged by the fault layer's existence.
//! 5. **Recovery correctness** — under task and DMA faults, no policy
//!    deadlocks, precedence is never violated by re-queued tasks, and
//!    retry budgets are respected (every faulted task either completes
//!    or is aborted after exactly `max_retries + 1` attempts).
//! 6. **Graceful degradation** — with unit outages enabled the workload
//!    still makes progress, and the event-derived fault counters
//!    reconcile with the simulator's own `FaultStats`.

use relief::bench::campaign::{execute, ExecOptions, WorkloadSpec};
use relief::bench::resilience::ResilienceSpec;
use relief::metrics::FaultStats;
use relief::prelude::*;
use relief_accel::SimResult;
use relief_trace::event::{EventKind, TaskRef};
use relief_trace::{text, EventCounters, Kind, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A fault config injecting task and DMA faults at `rate`, with unit
/// outages every ~`mttf_us` microseconds when nonzero.
fn faulty(rate: f64, mttf_us: u64) -> FaultConfig {
    FaultConfig {
        task_fault_rate: rate,
        dma_fault_rate: rate,
        unit_mttf_ps: mttf_us * 1_000_000,
        ..FaultConfig::default()
    }
}

/// A→{B,C}→D diamond over two accelerator types (the conformance shape).
fn diamond(name: &str, deadline_us: u64) -> Arc<Dag> {
    let mut b = DagBuilder::new(name, Dur::from_us(deadline_us));
    let n0 = b.add_node(NodeSpec::new(AccTypeId(0), Dur::from_us(40)).with_output_bytes(32_768));
    let n1 = b.add_node(NodeSpec::new(AccTypeId(1), Dur::from_us(60)).with_output_bytes(16_384));
    let n2 = b.add_node(NodeSpec::new(AccTypeId(1), Dur::from_us(30)).with_output_bytes(16_384));
    let n3 = b.add_node(NodeSpec::new(AccTypeId(0), Dur::from_us(50)).with_output_bytes(8_192));
    b.add_edge(n0, n1).unwrap();
    b.add_edge(n0, n2).unwrap();
    b.add_edge(n1, n3).unwrap();
    b.add_edge(n2, n3).unwrap();
    Arc::new(b.build().expect("diamond is a valid dag"))
}

fn workload() -> Vec<AppSpec> {
    vec![
        AppSpec::once("D1", diamond("d1", 400)),
        AppSpec::once("D2", diamond("d2", 500)),
        AppSpec::once("D3", diamond("d3", 450)),
    ]
}

/// Runs the diamond workload under `policy` with `fault` injected on a
/// 2×A + 2×B generic platform and returns the full event stream.
fn traced_faulted_run(policy: PolicyKind, fault: FaultConfig) -> (SimResult, Vec<TraceEvent>) {
    let cfg = SocConfig::generic(vec![2, 2], policy).with_fault(fault);
    let ring = RingBufferSink::shared(1 << 20);
    let mut tracer = Tracer::off();
    tracer.attach(ring.clone());
    let result = SocSim::new(cfg, workload()).with_tracer(&tracer).run();
    let ring = ring.borrow();
    assert_eq!(ring.dropped(), 0, "fault trace must not overflow");
    (result, ring.snapshot())
}

/// Compute spans per task: (start_ps, end_ps, accelerator instance).
/// Faulted attempts emit no `ComputeEnd`, so even under retries every
/// completed task has exactly one span.
fn compute_spans(events: &[TraceEvent]) -> BTreeMap<(u32, u32), (u64, u64, u32)> {
    let mut spans = BTreeMap::new();
    for ev in events {
        if let EventKind::ComputeEnd { task, inst, start_ps, .. } = &ev.kind {
            let prev = spans.insert((task.instance, task.node), (*start_ps, ev.at_ps, *inst));
            assert!(prev.is_none(), "task {task} published two compute spans");
        }
    }
    spans
}

fn key(t: &TaskRef) -> (u32, u32) {
    (t.instance, t.node)
}

/// The eight kinds the fault domain emits.
const FAULT_KINDS: [Kind; 8] = [
    Kind::TaskFaulted,
    Kind::TaskRetried,
    Kind::TaskAborted,
    Kind::DmaFaulted,
    Kind::UnitQuarantined,
    Kind::UnitRestored,
    Kind::FaultAttributedMiss,
    Kind::EccCorrupted,
];

/// The text of a faulted diamond run's fault events, in order.
fn fault_events(fault: FaultConfig) -> Vec<String> {
    let (_, events) = traced_faulted_run(PolicyKind::Relief, fault);
    events.iter().filter(|e| FAULT_KINDS.contains(&e.kind.kind())).map(|e| e.to_string()).collect()
}

#[test]
fn fault_schedule_is_a_pure_function_of_the_seed() {
    let cfg = faulty(0.1, 500);
    let a = fault_events(cfg.clone());
    assert_eq!(a, fault_events(cfg.clone()), "same seed and spec must yield identical faults");
    assert!(a.iter().any(|e| e.contains("task-fault")), "rate 0.1 must fault some task");
    assert!(a.iter().any(|e| e.contains("unit-quarantine")), "a 500 us MTTF must fire");
    let reseeded = fault_events(FaultConfig { seed: 0x5EED, ..cfg });
    assert_ne!(a, reseeded, "reseeding must move the schedule");
}

#[test]
fn faulted_campaign_reports_are_byte_identical_across_jobs() {
    let mixes = Contention::Low.mixes();
    let spec = ResilienceSpec {
        rates: vec![0.0, 0.02],
        policies: vec![PolicyKind::Fcfs, PolicyKind::Relief],
        workload: WorkloadSpec::mix(Contention::Low, &mixes[0]),
        ..Default::default()
    };
    spec.validate().unwrap();
    let serial =
        execute(spec.campaign().expand(), &ExecOptions { jobs: 1, ..Default::default() });
    let parallel =
        execute(spec.campaign().expand(), &ExecOptions { jobs: 4, ..Default::default() });
    assert!(serial.failures().is_empty(), "{:?}", serial.failures());
    assert!(serial.mismatched().is_empty(), "{:?}", serial.mismatched());
    assert_eq!(
        serial.report(),
        parallel.report(),
        "faulted campaign stdout must not depend on --jobs"
    );
    assert_eq!(spec.render(&serial), spec.render(&parallel));
}

#[test]
fn repeated_faulted_runs_have_a_clean_trace_diff() {
    let (_, a) = traced_faulted_run(PolicyKind::Relief, faulty(0.25, 0));
    let (_, b) = traced_faulted_run(PolicyKind::Relief, faulty(0.25, 0));
    assert!(
        a.iter().any(|e| matches!(
            e.kind,
            EventKind::TaskFaulted { .. } | EventKind::DmaFaulted { .. }
        )),
        "rate 0.25 must inject at least one fault into the diamond workload"
    );
    assert!(a == b, "identical faulted runs must not diverge");
    assert_eq!(text::to_text(&a), text::to_text(&b));
}

#[test]
fn zero_rate_fault_config_is_bit_inert() {
    let apps = || {
        vec![
            AppSpec::once("C", App::Canny.dag()),
            AppSpec::once("L", App::Lstm.dag()),
        ]
    };
    let plain = SocSim::new(SocConfig::mobile(PolicyKind::Relief), apps()).run();
    // A reseeded but zero-rate config: the seed alone must change nothing.
    let zeroed = FaultConfig { seed: 0x1234, ..FaultConfig::default() };
    assert!(!zeroed.enabled());
    let guarded =
        SocSim::new(SocConfig::mobile(PolicyKind::Relief).with_fault(zeroed), apps()).run();
    assert_eq!(plain.stats, guarded.stats, "rate-0 fault layer perturbed the simulation");
    assert_eq!(guarded.stats.faults, FaultStats::default());
    assert!(
        !format!("{:?}", guarded.stats).contains("faults"),
        "rate-0 stats must render exactly as the pre-fault goldens"
    );
}

#[test]
fn no_policy_deadlocks_or_breaks_precedence_under_faults() {
    let max_retries = FaultConfig::default().max_retries;
    for policy in PolicyKind::ALL {
        // `run()` returning at all is the no-deadlock half of the test:
        // a lost re-queue or a quarantine that strands ready work would
        // leave the event loop waiting forever.
        let (result, events) = traced_faulted_run(policy, faulty(0.25, 0));
        let spans = compute_spans(&events);
        assert!(!spans.is_empty(), "{policy}: no compute spans traced");

        let mut faults: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        let mut aborted: BTreeSet<(u32, u32)> = BTreeSet::new();
        for ev in &events {
            match &ev.kind {
                // Precedence under re-queue: an input sourced from a
                // producer requires that producer's (unique, successful)
                // compute span to have ended first — and before the
                // consumer's own successful attempt started.
                EventKind::InputSourced { task, parent: Some(parent), .. } => {
                    let (_, parent_end, _) = *spans.get(&key(parent)).unwrap_or_else(|| {
                        panic!("{policy}: {task} sourced from unpublished parent {parent}")
                    });
                    assert!(
                        parent_end <= ev.at_ps,
                        "{policy}: {task} sourced an input at {} ps before its producer \
                         {parent} finished at {parent_end} ps",
                        ev.at_ps
                    );
                    if let Some(&(child_start, _, _)) = spans.get(&key(task)) {
                        assert!(
                            parent_end <= child_start,
                            "{policy}: re-queued {task} started compute at {child_start} ps \
                             before its parent {parent} finished at {parent_end} ps"
                        );
                    }
                }
                EventKind::TaskFaulted { task, attempt, .. } => {
                    assert!(
                        *attempt <= max_retries,
                        "{policy}: {task} faulted on attempt {attempt} past the retry budget"
                    );
                    *faults.entry(key(task)).or_insert(0) += 1;
                }
                EventKind::TaskAborted { task, attempts } => {
                    assert_eq!(
                        *attempts,
                        max_retries + 1,
                        "{policy}: {task} aborted without exhausting its retry budget"
                    );
                    aborted.insert(key(task));
                }
                _ => {}
            }
        }
        assert!(
            faults.values().sum::<u32>() > 0,
            "{policy}: rate 0.25 injected no task faults"
        );
        // Bounded retries: every faulted task either recovered (has a
        // compute span) or was aborted — never silently dropped.
        for (task, n) in &faults {
            assert!(*n <= max_retries + 1, "{policy}: task {task:?} faulted {n} times");
            assert!(
                spans.contains_key(task) || aborted.contains(task),
                "{policy}: faulted task {task:?} neither completed nor aborted"
            );
        }
        assert_eq!(
            result.stats.faults.task_faults,
            u64::from(faults.values().sum::<u32>()),
            "{policy}: traced task faults disagree with RunStats"
        );
    }
}

#[test]
fn quarantine_degrades_gracefully_and_counters_reconcile() {
    for policy in [PolicyKind::Fcfs, PolicyKind::Relief] {
        let fault = FaultConfig {
            task_fault_rate: 0.05,
            dma_fault_rate: 0.05,
            unit_mttf_ps: 200_000_000,  // ~200 us between outages
            unit_repair_ps: 100_000_000, // 100 us quarantine
            ..FaultConfig::default()
        };
        let cfg = SocConfig::mobile(policy).with_fault(fault);
        let ring = RingBufferSink::shared(1 << 21);
        let mut tracer = Tracer::off();
        tracer.attach(ring.clone());
        let apps = vec![
            AppSpec::once("C", App::Canny.dag()),
            AppSpec::once("L", App::Lstm.dag()),
        ];
        let result = SocSim::new(cfg, apps).with_tracer(&tracer).run();
        let events = ring.borrow_mut().take();
        assert_eq!(ring.borrow().dropped(), 0);

        let f = &result.stats.faults;
        assert!(f.injected() > 0, "{policy}: no faults injected");
        assert!(f.unit_quarantines > 0, "{policy}: MTTF 200 us produced no quarantines");
        assert!(f.recovered > 0, "{policy}: no faulted task recovered");
        // Graceful degradation: outages and retries slow the workload
        // down, but it still completes.
        let done: u64 = result.stats.apps.values().map(|a| a.dags_completed).sum();
        assert!(done >= 1, "{policy}: quarantine starved the workload entirely");

        // Event-derived counters must agree with the simulator's own
        // accounting — including the fault fields.
        let counters = EventCounters::from_events(&events);
        let mismatches = relief::metrics::reconcile(&counters, &result.stats);
        assert!(
            mismatches.is_empty(),
            "{policy}: {}",
            mismatches.iter().map(ToString::to_string).collect::<Vec<_>>().join("; ")
        );
        let miss_events = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FaultAttributedMiss { .. }))
            .count() as u64;
        assert_eq!(
            miss_events, f.fault_attributed_misses,
            "{policy}: fault-attributed misses disagree with the trace"
        );
    }
}
