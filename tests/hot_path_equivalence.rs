//! Hot-path equivalence suite: `SocConfig::reference_hot_path` restores
//! the pre-optimisation *host* costs and must not change one bit of
//! *simulated* behaviour. The reference path runs the binary-heap event
//! core, string-keyed compute predictions, linear consumer and
//! ready-queue scans, the boxed chunk path, and never retires a DAG
//! instance. Every optimisation the default path carries — the
//! sorted-vector event queue, interned kind ids, the arena/SoA task state, packed
//! transfer rows, cohort dispatch, and generational instance recycling —
//! is validated here against it on real workloads:
//!
//! 1. **Policy sweep** — all eight fairness-study policies over a pinned
//!    high-contention mix, plus FCFS/RELIEF on a second mix and on the
//!    50 ms time-limited continuous repeat path.
//! 2. **Fault recovery** — task faults, DMA faults, and unit outages
//!    (requeues at the current instant plus far-future repair events,
//!    the event queue's hardest ordering traffic).
//! 3. **Seed × policy rotation** — two sweeps of twenty distinct seeds
//!    through all eleven policies, on two low-contention mixes, with
//!    deterministic faults folded in (task aborts retire instances
//!    mid-run, so slots recycle).
//! 4. **Service mode** — open-loop Poisson arrivals with admission
//!    control (mid-stream insertion reuses arena slots and lands events
//!    at the head of the event queue), and the same with the self-healing
//!    stack and DRAM outages on: completed requests leave armed
//!    `Ev::Timeout`s that fire after their slot was recycled and must be
//!    dropped as stale. The recycling path's live-slot high-water mark
//!    stays strictly below the reference path's total admissions.
//! 5. **Bounded-memory mode is observation-only** — dropping the
//!    O(completed-instances) samples must not move one simulated event.
//!
//! Every comparison covers the full `RunStats` Debug rendering (floats
//! render through their full shortest-round-trip form, so bit drift is
//! caught), per-app accounting, all three prediction-sample vectors, the
//! executed-task trace, and the dispatched-event count.

use relief::bench::config_for;
use relief::bench::service::ServiceSpec;
use relief::prelude::*;
use relief_accel::SimResult;
use relief_service::{AdmissionConfig, SelfHealConfig, StreamConfig, TenantCfg};

/// All eleven schedulable policies: the fairness-study eight plus the
/// heterogeneity/throttling/adaptive extensions.
fn eleven_policies() -> Vec<PolicyKind> {
    let all: Vec<PolicyKind> =
        PolicyKind::ALL.iter().chain(PolicyKind::EXTENSIONS.iter()).copied().collect();
    assert_eq!(all.len(), 11);
    all
}

/// Runs `cfg` over `workload` on the optimised and the reference hot
/// path, asserts the two `SimResult`s are observationally identical, and
/// returns them (optimised first) for lifecycle assertions.
fn assert_paths_agree(
    mut cfg: SocConfig,
    workload: &[AppSpec],
    what: &str,
) -> (SimResult, SimResult) {
    cfg.record_trace = true;
    let run = |reference: bool| -> SimResult {
        let mut cfg = cfg.clone();
        cfg.reference_hot_path = reference;
        SocSim::new(cfg, workload.to_vec()).run()
    };
    let fast = run(false);
    let reference = run(true);

    assert_eq!(
        format!("{:?}", fast.stats),
        format!("{:?}", reference.stats),
        "{what}: RunStats diverged between hot paths"
    );
    assert_eq!(
        fast.per_app_mem_time, reference.per_app_mem_time,
        "{what}: per-app DMA accounting diverged"
    );
    assert_eq!(
        fast.per_app_compute_time, reference.per_app_compute_time,
        "{what}: per-app compute accounting diverged"
    );
    assert_eq!(
        fast.prediction.compute_rel_errors, reference.prediction.compute_rel_errors,
        "{what}: compute-prediction samples diverged"
    );
    assert_eq!(
        fast.prediction.dm_rel_errors, reference.prediction.dm_rel_errors,
        "{what}: data-movement-prediction samples diverged (retirement fold broke ordering?)"
    );
    assert_eq!(
        fast.prediction.bw_rel_errors, reference.prediction.bw_rel_errors,
        "{what}: bandwidth-prediction samples diverged"
    );
    assert_eq!(fast.trace, reference.trace, "{what}: executed-task traces diverged");
    assert_eq!(
        fast.events_dispatched, reference.events_dispatched,
        "{what}: event counts diverged"
    );
    assert!(
        fast.live_high_water <= reference.live_high_water,
        "{what}: recycling path held more live slots ({}) than never-retiring \
         reference ({})",
        fast.live_high_water,
        reference.live_high_water
    );
    (fast, reference)
}

/// Runs `policies` on the `index`-th mix of `contention`, each on both
/// hot paths.
fn mix_agrees(contention: Contention, index: usize, policies: &[PolicyKind]) {
    let mixes = contention.mixes();
    let mix = mixes.get(index).expect("contention level has enough mixes");
    let workload = mix.workload();
    for &policy in policies {
        assert_paths_agree(
            config_for(policy, contention),
            &workload,
            &format!("{policy:?} on {}/{}", contention.name(), mix.label()),
        );
    }
}

#[test]
fn all_policies_agree_on_high_contention_mix() {
    mix_agrees(Contention::High, 0, &PolicyKind::ALL);
}

#[test]
fn second_mix_covers_a_different_dag_shape() {
    mix_agrees(Contention::High, 1, &[PolicyKind::Fcfs, PolicyKind::Relief]);
}

#[test]
fn continuous_contention_repeat_path_agrees() {
    mix_agrees(Contention::Continuous, 0, &[PolicyKind::Fcfs, PolicyKind::Relief]);
}

#[test]
fn fault_recovery_requeues_agree() {
    let mixes = Contention::High.mixes();
    let mix = mixes.first().expect("high contention has mixes");
    let workload = mix.workload();
    for policy in [PolicyKind::Fcfs, PolicyKind::Relief, PolicyKind::ReliefLax] {
        let mut cfg = config_for(policy, Contention::High);
        cfg.fault = FaultConfig {
            task_fault_rate: 0.05,
            dma_fault_rate: 0.05,
            unit_mttf_ps: 20_000_000_000, // one outage every ~20 ms
            ..FaultConfig::default()
        };
        assert_paths_agree(cfg, &workload, &format!("{policy:?} with faults"));
    }
}

/// One seed × policy rotation: twenty seeds through all eleven policies
/// on the `mix_index`-th low-contention mix. Seed `i` runs
/// `base ^ i·φ` (distinct, aperiodic seeds, so the RNG streams the two
/// paths consume start far apart); every `fault_every`-th seed also
/// injects the given task/DMA fault rates, with fault seed
/// `seed ^ fault_seed_xor`.
struct Rotation {
    mix_index: usize,
    seed_base: u64,
    fault_every: u64,
    fault_seed_xor: u64,
    task_fault_rate: f64,
    dma_fault_rate: f64,
}

impl Rotation {
    fn run(&self) {
        let eleven = eleven_policies();
        let mixes = Contention::Low.mixes();
        let mix = mixes.get(self.mix_index).expect("low contention has enough mixes");
        let workload = mix.workload();
        for seed in 0..20u64 {
            let policy = eleven[(seed as usize) % eleven.len()];
            let mut cfg = config_for(policy, Contention::Low);
            cfg.seed = self.seed_base ^ seed.wrapping_mul(0x9E37_79B9);
            let mut what = format!("seed {seed} {policy:?}");
            if seed % self.fault_every == self.fault_every - 1 {
                let fault_seed = cfg.seed ^ self.fault_seed_xor;
                cfg = cfg.with_fault(FaultConfig {
                    seed: fault_seed,
                    task_fault_rate: self.task_fault_rate,
                    dma_fault_rate: self.dma_fault_rate,
                    ..FaultConfig::default()
                });
                what.push_str(" +faults");
            }
            assert_paths_agree(cfg, &workload, &what);
        }
    }
}

/// The first low-contention mix with faults on every fourth seed: a
/// summation-order or slot-reuse bug in the SoA path that only shows
/// under a particular arrival interleaving has twenty chances to surface.
#[test]
fn twenty_seeds_rotate_all_eleven_policies() {
    Rotation {
        mix_index: 0,
        seed_base: 0xD0C5_0000,
        fault_every: 4,
        fault_seed_xor: 0xFA17,
        task_fault_rate: 0.02,
        dma_fault_rate: 0.02,
    }
    .run();
}

/// The second low-contention mix with faults on every third seed, so the
/// abort path (first-fault instance retirement) recycles slots mid-run.
#[test]
fn twenty_more_seeds_rotate_all_eleven_policies_with_recycling_aborts() {
    Rotation {
        mix_index: 1,
        seed_base: 0x4EC1_0000,
        fault_every: 3,
        fault_seed_xor: 0x4EC1,
        task_fault_rate: 0.03,
        dma_fault_rate: 0.02,
    }
    .run();
}

/// Open-loop service mode: Poisson arrivals, admission control, and
/// three QoS tenants. Mid-stream DAG instantiation reuses arena slots
/// (generation bumps) and lands events at the head of the event queue
/// while a cohort is draining — the hardest traffic for the batched
/// dispatcher.
#[test]
fn service_mode_agrees_across_seeds_and_policies() {
    for (i, &(seed, policy)) in [
        (0x5E11, PolicyKind::Relief),
        (0x5E12, PolicyKind::Fcfs),
        (0x5E13, PolicyKind::Adaptive),
    ]
    .iter()
    .enumerate()
    {
        let spec = ServiceSpec {
            seed,
            rates: vec![150.0 + 50.0 * i as f64],
            duration_ps: 5_000_000_000, // 5 ms of arrivals
            warmup_ps: 1_000_000_000,
            policies: vec![policy],
            ..Default::default()
        };
        for run in spec.campaign().expand() {
            assert_paths_agree(
                run.config(),
                &run.apps(),
                &format!("service seed {seed:#x} {policy:?}"),
            );
        }
    }
}

/// The self-healing stack the recycling tests stream under: breakers,
/// 1.5x-prediction request timeouts, and hedged retries for the top two
/// QoS classes — every handle-outliving-the-instance mechanism at once.
fn self_heal() -> SelfHealConfig {
    SelfHealConfig {
        breaker_failures: 3,
        breaker_open_ps: 2_000_000_000,
        probe_rate: 0.5,
        probes_to_close: 2,
        timeout_factor: 1.5,
        hedge_budget: [1, 1, 0],
        hedge_rate: 1.0,
    }
}

/// A three-tenant Poisson stream at `rate` requests/s per tenant.
fn stream(seed: u64, rate: f64, cap: u32, duration_ms: u64) -> StreamConfig {
    StreamConfig {
        seed,
        duration_ps: duration_ms * 1_000_000_000,
        warmup_ps: duration_ms * 100_000_000, // first 10%
        tenants: vec![
            TenantCfg::new(QosClass::Latency, rate),
            TenantCfg::new(QosClass::Standard, rate),
            TenantCfg::new(QosClass::BestEffort, rate),
        ],
        admission: AdmissionConfig { max_in_flight: cap, ..AdmissionConfig::default() },
        self_heal: self_heal(),
        ..StreamConfig::default()
    }
}

/// The CGL tenant trio: one app spec per tenant, in tenant order.
fn cgl_apps() -> Vec<AppSpec> {
    vec![
        AppSpec::once("C", App::Canny.dag()),
        AppSpec::once("G", App::Gru.dag()),
        AppSpec::once("L", App::Lstm.dag()),
    ]
}

/// Open-loop service mode with the full self-healing stack and fault
/// injection: timeouts cancel and hedge instances (exercising stale
/// `Ev::Timeout`s on recycled slots), breakers shed, and the stream
/// admits far more requests than are ever concurrently live. The
/// recycling path must agree bit-for-bit *and* demonstrably recycle.
#[test]
fn service_mode_with_self_healing_recycles_and_agrees() {
    for &(seed, rate, policy) in &[
        (0x4EC5_0001u64, 1_500.0, PolicyKind::Relief),
        (0x4EC5_0002, 2_000.0, PolicyKind::Fcfs),
        (0x4EC5_0003, 1_000.0, PolicyKind::Adaptive),
    ] {
        let mut cfg = SocConfig::mobile(policy).with_stream(stream(seed, rate, 10, 10));
        // DRAM-channel outages stall whole requests long enough for the
        // self-healing timeouts to fire (and later land on recycled
        // slots as stale events).
        cfg = cfg.with_fault(FaultConfig {
            seed: seed ^ 0xFA17,
            task_fault_rate: 0.02,
            dma_fault_rate: 0.02,
            dram_mttf_ps: 2_000_000_000, // ~5 outages over the 10 ms stream
            ..FaultConfig::default()
        });
        let what = format!("service seed {seed:#x} {policy:?}");
        let (fast, reference) = assert_paths_agree(cfg, &cgl_apps(), &what);

        let svc = &fast.stats.service;
        assert!(svc.completed() > 0, "{what}: no request completed");
        assert!(
            svc.timed_out() > 0,
            "{what}: no request timed out — the stale-timeout path was not exercised"
        );
        // Reference mode never retires, so its high-water mark equals
        // total admissions; recycling must stay strictly below it.
        assert!(
            fast.live_high_water < reference.live_high_water,
            "{what}: recycling never engaged (live high-water {} vs {} admissions)",
            fast.live_high_water,
            reference.live_high_water
        );
    }
}

/// Bounded-memory mode drops the O(completed) prediction and runtime
/// samples but must not move one simulated event: traffic, service
/// accounting, execution time, and the event count all stay
/// bit-identical.
#[test]
fn bounded_memory_is_observation_only() {
    let build = |bounded: bool| {
        let mut cfg = SocConfig::mobile(PolicyKind::Relief)
            .with_stream(stream(0x4EC5_00B1, 1_200.0, 10, 10));
        cfg.bounded_memory = bounded;
        SocSim::new(cfg, cgl_apps()).run()
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

    assert!(!full.prediction.compute_rel_errors.is_empty());
    assert!(dieted.prediction.compute_rel_errors.is_empty());
    assert!(dieted.prediction.dm_rel_errors.is_empty());
    assert!(dieted.prediction.bw_rel_errors.is_empty());
    assert!(dieted.stats.apps.values().all(|a| a.dag_runtimes.is_empty()));
}
