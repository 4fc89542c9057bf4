//! Campaign-engine smoke test for `cargo xtask check`: expands a small
//! 2×2 (policy × workload) grid, executes it serially and with two
//! worker threads, and fails loudly unless the two reports — and the
//! stable-order summaries — are byte-identical. Exercises the whole
//! determinism contract end to end in a few hundred milliseconds.

use relief_bench::campaign::{execute, CampaignSpec, ExecOptions, WorkloadSpec};
use relief_core::PolicyKind;
use relief_workloads::Contention;

fn main() {
    // No flags: reject any argument rather than silently ignore it.
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument '{arg}'\nusage: campaign_smoke (takes no arguments)");
        std::process::exit(2);
    }
    let mixes = Contention::Low.mixes();
    let spec = CampaignSpec::new(
        "smoke",
        vec![PolicyKind::Lax, PolicyKind::Relief],
        vec![
            WorkloadSpec::mix(Contention::Low, &mixes[0]),
            WorkloadSpec::mix(Contention::Low, &mixes[1]),
        ],
    );
    eprintln!("campaign 'smoke' (hash {:016x}): {} runs", spec.hash(), spec.expand().len());

    let serial = execute(spec.expand(), &ExecOptions { jobs: 1, ..Default::default() });
    let threaded = execute(spec.expand(), &ExecOptions { jobs: 2, ..Default::default() });

    let mut failed = false;
    for (what, results) in [("jobs=1", &serial), ("jobs=2", &threaded)] {
        for (label, msg) in results.failures() {
            eprintln!("{what}: run {label} panicked: {msg}");
            failed = true;
        }
        for (label, mismatches) in results.mismatched() {
            eprintln!("{what}: run {label} failed reconciliation: {mismatches:?}");
            failed = true;
        }
    }
    if serial.report() != threaded.report() {
        eprintln!("report mismatch between jobs=1 and jobs=2");
        failed = true;
    }
    if serial.summary() != threaded.summary() {
        eprintln!("summary mismatch between jobs=1 and jobs=2");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    print!("{}", serial.summary());
    println!("campaign smoke OK: jobs=1 and jobs=2 reports byte-identical");
}
