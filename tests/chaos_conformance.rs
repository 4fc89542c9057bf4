//! Chaos-hardening integration suite: the determinism, inertness, and
//! self-protection contracts of the memory-side fault domains, the
//! service self-healing stack, and the simulation watchdog, checked end
//! to end through the simulator and the campaign engine.
//!
//! 1. **Jobs-invariance under chaos** — a chaos campaign (faults +
//!    overload + breakers + timeouts + hedges) renders byte-identical
//!    reports at `--jobs 1`, `4`, and `8`.
//! 2. **Knobs-off bit-inertness** — disabled self-healing knobs and any
//!    untripped watchdog window leave `RunStats` and the event count
//!    bit-identical, so every golden output predating this layer is
//!    unchanged by its existence.
//! 3. **Watchdog** — an artificially wedged simulation (an empty
//!    schedule replay, a same-timestamp livelock) surfaces as a typed
//!    `StallError` with a diagnostic dump instead of a silent wrong
//!    result or an unbounded loop.
//! 4. **Invariants** — the debug-build conservation checks (byte
//!    ledger, node-phase accounting) hold across every policy × 20
//!    seeds under combined fault injection, channel outages, and the
//!    full self-healing stack.
//! 5. **Campaign cache round-trip** — chaos, resilience, and service
//!    campaigns store to and serve from the persistent cache with
//!    byte-identical reports and no stale entries.

use relief::bench::cache::CacheConfig;
use relief::bench::campaign::{execute, ExecOptions, WorkloadSpec};
use relief::bench::chaos::ChaosSpec;
use relief::bench::resilience::ResilienceSpec;
use relief::bench::service::ServiceSpec;
use relief::prelude::*;
use relief_core::{Schedule, ScheduleReplay};
use relief_service::{AdmissionConfig, SelfHealConfig};
use relief_sim::StallKind;
use std::sync::Arc;

/// The CGL tenant trio: one app spec per tenant, in tenant order.
fn cgl_apps() -> Vec<AppSpec> {
    vec![
        AppSpec::once("C", App::Canny.dag()),
        AppSpec::once("G", App::Gru.dag()),
        AppSpec::once("L", App::Lstm.dag()),
    ]
}

/// A three-tenant Poisson stream at `rate` requests/s per tenant with an
/// in-flight cap of `cap` and the given self-healing stack.
fn stream(rate: f64, cap: u32, duration_ms: u64, heal: SelfHealConfig) -> StreamConfig {
    StreamConfig {
        duration_ps: duration_ms * 1_000_000_000,
        warmup_ps: duration_ms * 100_000_000, // first 10%
        tenants: vec![
            TenantCfg::new(QosClass::Latency, rate),
            TenantCfg::new(QosClass::Standard, rate),
            TenantCfg::new(QosClass::BestEffort, rate),
        ],
        admission: AdmissionConfig { max_in_flight: cap, ..AdmissionConfig::default() },
        self_heal: heal,
        ..StreamConfig::default()
    }
}

#[test]
fn chaos_campaign_reports_are_byte_identical_across_jobs() {
    let spec = ChaosSpec {
        fault_rates: vec![0.0, 0.02],
        arrival_rates: vec![300.0],
        duration_ps: 10_000_000_000,
        warmup_ps: 1_000_000_000,
        policies: vec![PolicyKind::Fcfs, PolicyKind::Relief],
        ..Default::default()
    };
    spec.validate().unwrap();
    let serial =
        execute(spec.campaign().expand(), &ExecOptions { jobs: 1, ..Default::default() });
    assert!(serial.failures().is_empty(), "{:?}", serial.failures());
    assert!(serial.mismatched().is_empty(), "{:?}", serial.mismatched());
    for jobs in [4, 8] {
        let parallel =
            execute(spec.campaign().expand(), &ExecOptions { jobs, ..Default::default() });
        assert_eq!(
            serial.report(),
            parallel.report(),
            "chaos campaign stdout must not depend on --jobs (jobs={jobs})"
        );
        assert_eq!(spec.render(&serial), spec.render(&parallel));
    }
}

#[test]
fn disabled_self_heal_knobs_are_bit_inert() {
    // Disabled means breaker_failures == 0 and timeout_factor == 0; every
    // other knob is then dead weight and perturbing it must not move one
    // bit of the run.
    let base = stream(300.0, 12, 10, SelfHealConfig::default());
    let perturbed = stream(
        300.0,
        12,
        10,
        SelfHealConfig {
            breaker_open_ps: 7_000_000,
            probe_rate: 0.25,
            probes_to_close: 9,
            hedge_rate: 0.5,
            ..SelfHealConfig::default()
        },
    );
    assert!(!perturbed.self_heal.enabled());
    let a = SocSim::new(SocConfig::mobile(PolicyKind::Relief).with_stream(base), cgl_apps())
        .run();
    let b =
        SocSim::new(SocConfig::mobile(PolicyKind::Relief).with_stream(perturbed), cgl_apps())
            .run();
    assert_eq!(
        format!("{:?}", a.stats),
        format!("{:?}", b.stats),
        "disabled self-healing knobs must be bit-inert"
    );
    assert_eq!(a.events_dispatched, b.events_dispatched);
}

#[test]
fn untripped_watchdog_window_is_bit_inert() {
    let run = |window: u64| {
        let mut cfg = SocConfig::mobile(PolicyKind::Relief)
            .with_fault(FaultConfig { task_fault_rate: 0.02, ..FaultConfig::default() });
        cfg.watchdog_window = window;
        SocSim::new(cfg, cgl_apps()).run()
    };
    let on = run(2_000_000);
    let wide = run(8_000_000);
    let off = run(0);
    let a = format!("{:?}", on.stats);
    assert_eq!(a, format!("{:?}", wide.stats), "watchdog is detection-only");
    assert_eq!(a, format!("{:?}", off.stats), "watchdog off must change nothing");
    assert_eq!(on.events_dispatched, off.events_dispatched);
}

#[test]
fn empty_replay_surfaces_as_drained_with_work_left() {
    // A replay policy prescribing nothing never dispatches a task: the
    // event queue drains with every DAG untouched. Pre-watchdog this
    // returned a silently wrong (empty) result.
    let cfg = SocConfig::mobile(PolicyKind::Fcfs);
    let replay = ScheduleReplay::new(&Schedule::new(), &cfg.acc_instances)
        .impersonating(PolicyKind::Fcfs);
    let err = SocSim::new(cfg, cgl_apps())
        .with_policy_object(Box::new(replay))
        .try_run()
        .expect_err("an empty replay must stall");
    assert_eq!(err.kind, StallKind::DrainedWithWorkLeft);
    let msg = err.to_string();
    assert!(msg.contains("event queue drained with work left"), "{msg}");
    assert!(msg.contains("ready-queue depth"), "dump must carry queue state: {msg}");
    assert!(msg.contains("nodes left"), "dump must name the stuck instances: {msg}");
}

#[test]
fn same_timestamp_livelock_trips_the_no_progress_window() {
    // 64 independent zero-cost, zero-byte tasks all execute at t = 0 with
    // scheduler overhead unmodeled: legitimate work, but every event
    // lands on the same timestamp. A window smaller than that burst must
    // flag it as a livelock — this is exactly the signature of an event
    // loop that stopped advancing time.
    let mut b = DagBuilder::new("spin", Dur::from_us(100));
    for _ in 0..64 {
        b.add_node(NodeSpec::new(AccTypeId(0), Dur::from_ps(0)));
    }
    let dag = Arc::new(b.build().expect("independent roots form a valid dag"));
    let mk = |window: u64| {
        let mut cfg = SocConfig::generic(vec![1], PolicyKind::Fcfs);
        cfg.model_sched_overhead = false;
        cfg.compute_jitter = 0.0;
        cfg.watchdog_window = window;
        SocSim::new(cfg, vec![AppSpec::once("S", dag.clone())])
    };
    for window in [8, 50] {
        let err = mk(window).try_run().expect_err("64 same-ps events must overflow the window");
        assert_eq!(err.kind, StallKind::NoProgressWindow);
        assert_eq!(err.at_ps, 0, "the livelock never left t=0");
        // The window is checked after every event: the stall is reported
        // at the first event past it.
        assert_eq!(err.events_dispatched, window + 1, "window {window}");
    }
    // The same run under the default window completes untouched.
    let ok = mk(2_000_000).try_run().expect("default window must not trip");
    assert_eq!(ok.stats.apps["S"].nodes_completed, 64);
}

#[test]
fn conservation_invariants_hold_across_policies_and_seeds_under_chaos() {
    // Debug builds run the end-of-run conservation checks (byte ledger,
    // node-phase accounting) inside finalize; this sweep drives them
    // through every policy × 20 seeds with every chaos mechanism active
    // at once: task/DMA/ECC faults, unit and DRAM-channel outages,
    // breakers, timeouts, and hedged retries.
    for policy in PolicyKind::ALL {
        for seed in 0..20u64 {
            let fault = FaultConfig {
                seed: 0xC0FFEE ^ seed,
                task_fault_rate: 0.02,
                dma_fault_rate: 0.02,
                ecc_chunk_rate: 0.02,
                unit_mttf_ps: 5_000_000_000,
                dram_mttf_ps: 5_000_000_000,
                ..FaultConfig::default()
            };
            let heal = ChaosSpec::self_heal();
            let mut stream = stream(2_000.0, 8, 2, heal);
            stream.seed = seed;
            let mut cfg = SocConfig::mobile(policy).with_fault(fault).with_stream(stream);
            cfg.seed ^= seed;
            let result = SocSim::new(cfg, cgl_apps()).run();
            assert!(
                result.stats.service.arrivals() > 0,
                "{policy:?}/seed {seed}: chaos run saw no arrivals"
            );
        }
    }
}

#[test]
fn campaigns_round_trip_through_the_persistent_cache() {
    let dir = std::env::temp_dir().join(format!("relief-chaos-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ExecOptions { cache: CacheConfig::at(&dir), jobs: 2, ..Default::default() };

    let chaos = ChaosSpec {
        fault_rates: vec![0.0, 0.02],
        arrival_rates: vec![300.0],
        duration_ps: 5_000_000_000,
        warmup_ps: 500_000_000,
        policies: vec![PolicyKind::Relief],
        ..Default::default()
    };
    let mixes = Contention::Low.mixes();
    let resilience = ResilienceSpec {
        rates: vec![0.02],
        policies: vec![PolicyKind::Relief],
        workload: WorkloadSpec::mix(Contention::Low, &mixes[0]),
        ..Default::default()
    };
    let service = ServiceSpec {
        rates: vec![100.0],
        duration_ps: 5_000_000_000,
        warmup_ps: 500_000_000,
        policies: vec![PolicyKind::Relief],
        ..Default::default()
    };

    // Cold pass simulates everything; warm pass must serve every cell
    // from disk and render byte-identical reports.
    let runs = |n: usize| -> Vec<_> {
        match n {
            0 => chaos.campaign().expand(),
            1 => resilience.campaign().expand(),
            _ => service.campaign().expand(),
        }
    };
    for n in 0..3 {
        let cold = execute(runs(n), &opts);
        assert!(cold.failures().is_empty(), "{:?}", cold.failures());
        assert_eq!(cold.cache_hits, 0, "campaign {n}: cold pass must simulate");
        let warm = execute(runs(n), &opts);
        assert_eq!(warm.cache_hits, runs(n).len(), "campaign {n}: warm pass must hit");
        assert_eq!(cold.report(), warm.report(), "campaign {n}: warm report drifted");
        // The report prints a histogram's count, quantiles and maximum but
        // not its bins or sum: compare the decoded stats themselves.
        for (x, y) in cold.outcomes.iter().zip(&warm.outcomes) {
            let (rx, ry) = (x.outcome.as_ref().unwrap(), y.outcome.as_ref().unwrap());
            assert_eq!(rx.result.stats, ry.result.stats, "campaign {n}: {} stats", x.label);
            assert_eq!(rx.counters, ry.counters, "campaign {n}: {} counters", x.label);
        }
    }
    assert_eq!(
        opts.cache.stale_entries(),
        Vec::<String>::new(),
        "fresh entries must carry the current schema and salt"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
