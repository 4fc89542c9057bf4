//! End-to-end tests of the campaign engine's determinism contract:
//! thread-count independence of reports, summaries, and captured traces,
//! plus panic attribution to the exact offending spec.

use relief_bench::campaign::{
    execute, CampaignSpec, Ctx, ExecOptions, PlatformSpec, RunSpec, WorkloadSpec,
};
use relief_core::PolicyKind;
use relief_trace::diff::first_divergence_lines;
use relief_workloads::Contention;
use std::collections::BTreeSet;

fn small_campaign() -> CampaignSpec {
    let mixes = Contention::Low.mixes();
    CampaignSpec::new(
        "engine-test",
        vec![PolicyKind::Lax, PolicyKind::Relief],
        mixes.iter().map(|m| WorkloadSpec::mix(Contention::Low, m)).collect(),
    )
}

#[test]
fn reports_are_identical_across_thread_counts() {
    let serial = execute(small_campaign().expand(), &ExecOptions { jobs: 1, ..Default::default() });
    let wide = execute(small_campaign().expand(), &ExecOptions { jobs: 8, ..Default::default() });
    assert!(serial.failures().is_empty(), "{:?}", serial.failures());
    assert!(serial.mismatched().is_empty(), "{:?}", serial.mismatched());
    assert_eq!(serial.report(), wide.report(), "per-run reports must not depend on --jobs");
    assert_eq!(serial.summary(), wide.summary(), "aggregates must not depend on --jobs");
}

#[test]
fn replicates_are_deterministic_but_distinct() {
    let spec = CampaignSpec { replicates: 3, ..small_campaign() };
    let a = execute(spec.expand(), &ExecOptions { jobs: 4, ..Default::default() });
    let b = execute(spec.expand(), &ExecOptions { jobs: 2, ..Default::default() });
    assert_eq!(a.report(), b.report());
    // Replicates of one cell see different seeds, so (with the mobile
    // platform's nonzero compute jitter) they are genuinely different
    // runs, not copies.
    let report = a.report();
    let lines: Vec<&str> = report.lines().take(3).collect();
    assert!(lines[0].starts_with("LAX|low/C|mobile|r0"));
    assert!(lines[1].starts_with("LAX|low/C|mobile|r1"));
    let tail = |l: &str| l.split_once(": ").expect("label: stats").1.to_string();
    assert_ne!(tail(lines[0]), tail(lines[1]), "replicate 1 must differ from replicate 0");
}

#[test]
fn captured_traces_are_identical_across_thread_counts() {
    // Trace one Fig. 2-sized run (small DAGs, full event stream) and
    // require a clean trace-diff between a serial and a threaded
    // execution of the same campaign.
    let spec = relief_bench::experiments::grid::fig2_run(PolicyKind::Relief);
    let label = spec.label();
    let run = |jobs| {
        let opts = ExecOptions { jobs, trace_labels: BTreeSet::from([label.clone()]), ..Default::default() };
        let specs: Vec<RunSpec> = [PolicyKind::Lax, PolicyKind::Relief]
            .iter()
            .map(|&p| relief_bench::experiments::grid::fig2_run(p))
            .collect();
        let results = execute(specs, &opts);
        assert!(results.failures().is_empty(), "{:?}", results.failures());
        results.get(&label).expect("traced run present").trace_text.clone().expect("trace captured")
    };
    let serial = run(1);
    let wide = run(8);
    assert!(!serial.is_empty());
    if let Some(div) = first_divergence_lines(&serial, &wide) {
        panic!("canonical traces diverged across thread counts:\n{}", div.report());
    }
    // Untraced runs don't pay for capture.
    let results = execute(
        vec![relief_bench::experiments::grid::fig2_run(PolicyKind::Lax)],
        &ExecOptions { jobs: 1, ..Default::default() },
    );
    assert!(results.outcomes[0].outcome.as_ref().unwrap().trace_text.is_none());
}

#[test]
fn panicking_runs_are_attributed_without_sinking_the_campaign() {
    let healthy = WorkloadSpec::mix(Contention::Low, &Contention::Low.mixes()[0]);
    let poisoned = WorkloadSpec::custom("poisoned", None, || {
        panic!("workload construction exploded")
    });
    let spec = CampaignSpec {
        workloads: vec![healthy, poisoned],
        ..CampaignSpec::new("panics", vec![PolicyKind::Relief], Vec::new())
    };
    let results = execute(spec.expand(), &ExecOptions { jobs: 2, ..Default::default() });
    let failures = results.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, "RELIEF|poisoned|mobile|r0");
    assert!(failures[0].1.contains("workload construction exploded"));
    // The healthy run still completed and is retrievable.
    assert!(results.get("RELIEF|low/C|mobile|r0").is_some());
    assert!(results.report().contains("RELIEF|poisoned|mobile|r0: FAILED:"));
}

#[test]
fn ctx_falls_back_inline_for_uncached_specs() {
    let cached = execute(
        vec![relief_bench::experiments::grid::fig2_run(PolicyKind::Relief)],
        &ExecOptions { jobs: 1, ..Default::default() },
    );
    let ctx = Ctx::from_results(&cached);
    assert_eq!(ctx.len(), 1);
    // A spec absent from the cache must produce the same result inline
    // as a fresh engine execution of it would.
    let miss = relief_bench::experiments::grid::fig2_run(PolicyKind::Lax);
    let inline = ctx.run(&miss);
    let engine = execute(vec![miss.clone()], &ExecOptions { jobs: 1, ..Default::default() });
    let engine_stats = &engine.get(&miss.label()).unwrap().result.stats;
    assert_eq!(format!("{:?}", inline.stats), format!("{engine_stats:?}"));
}

#[test]
fn custom_platforms_execute_deterministically() {
    // A platform closure with internal state-dependence would break the
    // contract; exercise a tweaked platform through both thread counts.
    let platform = PlatformSpec::custom("mobile-slow-dram", |p| {
        let mut cfg = relief_accel::SocConfig::mobile(p);
        cfg.mem.dram_bandwidth /= 2;
        cfg
    });
    let mixes = Contention::Low.mixes();
    let specs = |platform: &PlatformSpec| {
        vec![
            RunSpec::new(PolicyKind::Lax, WorkloadSpec::mix(Contention::Low, &mixes[2]), platform.clone()),
            RunSpec::new(PolicyKind::Relief, WorkloadSpec::mix(Contention::Low, &mixes[2]), platform.clone()),
        ]
    };
    let a = execute(specs(&platform), &ExecOptions { jobs: 1, ..Default::default() });
    let b = execute(specs(&platform), &ExecOptions { jobs: 2, ..Default::default() });
    assert_eq!(a.report(), b.report());
    assert!(a.report().contains("LAX|low/G|mobile-slow-dram|r0"));
}
