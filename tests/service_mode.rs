//! Service-mode integration suite: the determinism, inertness, and
//! accounting contracts of the `relief-service` layer, checked end to
//! end through the simulator, the campaign engine, and the trace
//! subsystem.
//!
//! 1. **Jobs-invariance** — a service campaign and a bounded-memory
//!    MMPP overload campaign render byte-identical reports at
//!    `--jobs 1`, `4`, and `8`.
//! 2. **Rate-0 inertness** — a disabled stream config (zero rates)
//!    leaves `RunStats` bit-identical to a config-default closed-loop
//!    run, so every golden output is unchanged by the service layer's
//!    existence.
//! 3. **Admission neutrality** — with an effectively infinite in-flight
//!    cap the admission controller admits everything and the run is
//!    bit-identical to an admission-off run.
//! 4. **Counter reconciliation** — under overload the event-derived
//!    arrival/admit/shed/complete counters reconcile with the
//!    simulator's own `ServiceStats`, and shedding actually happened.
//! 5. **QoS differentiation** — at an overloaded operating point the
//!    controller sheds and the `Latency` class keeps a strictly higher
//!    deadline attainment than `BestEffort`.
//! 6. **Bounded live set** — half a second of 4x MMPP bursts at ~20x
//!    capacity in bounded-memory mode admits thousands of requests, yet
//!    generational instance recycling holds the live-slot high-water
//!    mark to O(in-flight).

use relief::bench::campaign::{execute, CampaignSpec, ExecOptions, PlatformSpec, WorkloadSpec};
use relief::bench::service::ServiceSpec;
use relief::prelude::*;
use relief_accel::SimResult;
use relief_service::{AdmissionConfig, ArrivalProcess};
use relief_trace::{EventCounters, TraceEvent};

/// The CGL tenant trio: one app spec per tenant, in tenant order.
fn cgl_apps() -> Vec<AppSpec> {
    vec![
        AppSpec::once("C", App::Canny.dag()),
        AppSpec::once("G", App::Gru.dag()),
        AppSpec::once("L", App::Lstm.dag()),
    ]
}

/// A three-tenant Poisson stream at `rate` requests/s per tenant with an
/// in-flight admission cap of `cap` (0 = admission off).
fn stream(rate: f64, cap: u32, duration_ms: u64) -> StreamConfig {
    StreamConfig {
        duration_ps: duration_ms * 1_000_000_000,
        warmup_ps: duration_ms * 100_000_000, // first 10%
        tenants: vec![
            TenantCfg::new(QosClass::Latency, rate),
            TenantCfg::new(QosClass::Standard, rate),
            TenantCfg::new(QosClass::BestEffort, rate),
        ],
        admission: AdmissionConfig { max_in_flight: cap, ..AdmissionConfig::default() },
        ..StreamConfig::default()
    }
}

/// The bounded-memory overload stream: the CGL trio in 4x MMPP bursts
/// (25 % duty, 1 ms cycle) at 2000 req/s per tenant — about twenty times
/// what the platform serves — for 0.5 s, behind an in-flight cap of 24.
fn overload_stream() -> StreamConfig {
    StreamConfig {
        seed: 0x50AC,
        process: ArrivalProcess::Mmpp { burst: 4.0, on_fraction: 0.25, cycle_ps: 1_000_000_000 },
        ..stream(2_000.0, 24, 500)
    }
}

/// The overload stream on the mobile platform in bounded-memory mode.
fn overload_config(policy: PolicyKind) -> SocConfig {
    SocConfig::mobile(policy).with_stream(overload_stream()).with_bounded_memory()
}

/// [`overload_config`] as a campaign: FCFS and RELIEF, one cell each.
fn overload_campaign() -> CampaignSpec {
    CampaignSpec {
        name: "overload".into(),
        policies: vec![PolicyKind::Fcfs, PolicyKind::Relief],
        workloads: vec![WorkloadSpec::custom("service/CGL", None, cgl_apps)],
        platforms: vec![PlatformSpec::custom("mobile+mmpp-overload+bm", overload_config)],
    }
}

/// Runs the CGL trio under `policy` with `stream` installed, capturing
/// the full event trace.
fn traced_stream_run(policy: PolicyKind, stream: StreamConfig) -> (SimResult, Vec<TraceEvent>) {
    let cfg = SocConfig::mobile(policy).with_stream(stream);
    let ring = RingBufferSink::shared(1 << 20);
    let mut tracer = Tracer::off();
    tracer.attach(ring.clone());
    let result = SocSim::new(cfg, cgl_apps()).with_tracer(&tracer).run();
    let ring = ring.borrow();
    assert_eq!(ring.dropped(), 0, "service trace must not overflow");
    (result, ring.snapshot())
}

#[test]
fn service_campaign_reports_are_byte_identical_across_jobs() {
    let spec = ServiceSpec {
        rates: vec![50.0, 400.0],
        duration_ps: 10_000_000_000,
        warmup_ps: 1_000_000_000,
        policies: vec![PolicyKind::Fcfs, PolicyKind::Relief],
        ..Default::default()
    };
    spec.validate().unwrap();
    for (name, campaign) in [("service", spec.campaign()), ("overload", overload_campaign())] {
        let serial =
            execute(campaign.expand(), &ExecOptions { jobs: 1, ..Default::default() });
        assert!(serial.failures().is_empty(), "{name}: {:?}", serial.failures());
        assert!(serial.mismatched().is_empty(), "{name}: {:?}", serial.mismatched());
        for jobs in [4, 8] {
            let parallel =
                execute(campaign.expand(), &ExecOptions { jobs, ..Default::default() });
            assert_eq!(
                serial.report(),
                parallel.report(),
                "{name} campaign stdout must not depend on --jobs (jobs={jobs})"
            );
            if name == "service" {
                assert_eq!(spec.render(&serial), spec.render(&parallel));
            }
        }
    }
}

#[test]
fn zero_rate_stream_is_bit_inert() {
    let plain = SocSim::new(SocConfig::mobile(PolicyKind::Relief), cgl_apps()).run();
    // An explicit stream config whose rates are all zero is disabled:
    // the closed-loop t=0 releases run exactly as without the service
    // layer, and RunStats renders without any `service` section.
    let zeroed = StreamConfig {
        duration_ps: 5_000_000_000,
        tenants: vec![
            TenantCfg::new(QosClass::Latency, 0.0),
            TenantCfg::new(QosClass::Standard, 0.0),
            TenantCfg::new(QosClass::BestEffort, 0.0),
        ],
        ..StreamConfig::default()
    };
    assert!(!zeroed.enabled());
    let cfg = SocConfig::mobile(PolicyKind::Relief).with_stream(zeroed);
    let streamed = SocSim::new(cfg, cgl_apps()).run();
    let (a, b) = (format!("{:?}", plain.stats), format!("{:?}", streamed.stats));
    assert_eq!(a, b, "zero-rate stream must leave RunStats bit-identical");
    assert!(!a.contains("service"), "clean runs must not render a service section: {a}");
    assert_eq!(plain.events_dispatched, streamed.events_dispatched);
}

#[test]
fn infinite_admission_cap_equals_admission_off() {
    let open = SocSim::new(
        SocConfig::mobile(PolicyKind::Relief).with_stream(stream(200.0, 0, 10)),
        cgl_apps(),
    )
    .run();
    let capped = SocSim::new(
        SocConfig::mobile(PolicyKind::Relief).with_stream(stream(200.0, 1_000_000, 10)),
        cgl_apps(),
    )
    .run();
    assert_eq!(
        format!("{:?}", open.stats),
        format!("{:?}", capped.stats),
        "an unreachable in-flight cap must admit exactly like admission-off"
    );
    assert_eq!(open.events_dispatched, capped.events_dispatched);
    assert_eq!(open.stats.service.shed_bucket() + open.stats.service.shed_capacity(), 0);
}

#[test]
fn overload_counters_reconcile_with_trace() {
    let (result, events) = traced_stream_run(PolicyKind::Relief, stream(400.0, 12, 20));
    let svc = &result.stats.service;
    assert!(svc.arrivals() > 0, "overload run saw no arrivals");
    assert!(svc.shed_capacity() > 0, "overload run shed nothing");
    assert_eq!(
        svc.arrivals(),
        svc.admitted() + svc.shed_bucket() + svc.shed_capacity(),
        "every arrival is either admitted or shed"
    );
    let counters = EventCounters::from_events(&events);
    let mismatches = relief::metrics::reconcile(&counters, &result.stats);
    assert!(mismatches.is_empty(), "{mismatches:?}");
    assert_eq!(counters.stream_arrivals, svc.arrivals());
    assert_eq!(counters.requests_shed_capacity, svc.shed_capacity());
}

#[test]
fn overload_sheds_and_latency_class_outranks_besteffort() {
    let (result, _) = traced_stream_run(PolicyKind::Relief, stream(400.0, 12, 30));
    let svc = &result.stats.service;
    assert!(svc.shed_capacity() > 0, "operating point is not overloaded");
    let lat = svc.classes[0].attainment();
    let be = svc.classes[2].attainment();
    assert!(
        lat > be,
        "Latency attainment {lat:.3} must exceed BestEffort {be:.3} under overload"
    );
    // The capacity shares shed BestEffort first, so its shed share of
    // arrivals must be at least the Latency class's.
    let lat_shed_share =
        svc.classes[0].shed() as f64 / svc.classes[0].arrivals.max(1) as f64;
    let be_shed_share =
        svc.classes[2].shed() as f64 / svc.classes[2].arrivals.max(1) as f64;
    assert!(
        be_shed_share >= lat_shed_share,
        "BestEffort shed share {be_shed_share:.3} below Latency {lat_shed_share:.3}"
    );
}

#[test]
fn bounded_memory_overload_keeps_the_live_set_bounded() {
    overload_stream().validate().unwrap();
    for policy in [PolicyKind::Fcfs, PolicyKind::Relief] {
        let result = SocSim::new(overload_config(policy), cgl_apps()).run();
        let arrivals = result.stats.service.arrivals();
        let live = result.live_high_water;
        assert!(live > 0, "{policy:?}: no instance was ever live");
        assert!(
            live <= 256,
            "{policy:?}: live-slot high-water {live} above 256 — instance recycling \
             is not keeping memory O(in-flight)"
        );
        assert!(arrivals > live, "{policy:?}: {arrivals} arrivals never outgrew {live} live slots");
    }
}
