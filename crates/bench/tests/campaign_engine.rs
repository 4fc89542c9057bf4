//! End-to-end tests of the campaign engine's determinism contract:
//! thread-count independence of reports and summaries, panic attribution
//! to the exact offending spec, and a `Ctx` that answers only for the
//! cells its campaign executed.

use relief_bench::campaign::{
    execute, CampaignSpec, Ctx, ExecOptions, PlatformSpec, RunSpec, WorkloadSpec,
};
use relief_bench::experiments::grid;
use relief_core::PolicyKind;
use relief_workloads::Contention;
use std::panic::{catch_unwind, AssertUnwindSafe};

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
    assert_eq!(failures[0].0, "RELIEF|poisoned|mobile");
    assert!(failures[0].1.contains("workload construction exploded"));
    // The healthy run still completed and is retrievable.
    assert!(results.get("RELIEF|low/C|mobile").is_some());
    assert!(results.report().contains("RELIEF|poisoned|mobile: FAILED:"));
}

#[test]
fn ctx_panics_naming_the_label_of_a_spec_it_lacks() {
    let cached = execute(vec![grid::fig2_run(PolicyKind::Relief)], &ExecOptions::default());
    let ctx = Ctx::from_results(&cached);
    let hit = ctx.run(&grid::fig2_run(PolicyKind::Relief));
    assert_eq!(hit.stats, cached.get("RELIEF|fig2|fig2[1A+1B]").unwrap().result.stats);
    // A spec the campaign never executed is a bug in the caller's grid:
    // the lookup panics, naming the missing cell, and simulates nothing.
    let miss = grid::fig2_run(PolicyKind::Lax);
    let panic = catch_unwind(AssertUnwindSafe(|| ctx.run(&miss).stats.exec_time)).unwrap_err();
    let message = panic.downcast_ref::<String>().expect("a formatted panic message");
    assert!(message.contains("LAX|fig2|fig2[1A+1B]"), "{message}");
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
    assert!(a.report().contains("LAX|low/G|mobile-slow-dram"));
}
