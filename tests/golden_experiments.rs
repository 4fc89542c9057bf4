//! Golden pins for the calibrated paper artifacts in EXPERIMENTS.md.
//!
//! Table II compute times are calibrated against the paper to ≤ 0.02 %
//! and must never drift; Fig. 4's high-contention forwarding rates pin
//! the headline result (RELIEF converts > 65 % of edges vs ≲ 26 % for
//! every baseline). Both artifacts are produced through the campaign
//! engine here, so the pins also guard the engine's cache-equals-inline
//! property on top of the simulator itself.

use relief::bench::campaign::{execute, Ctx, ExecOptions};
use relief::bench::experiments::grid;
use relief::bench::{PolicySweep, MAIN_POLICIES};
use relief::prelude::*;

/// Modeled solo compute times (µs) vs the paper's Table II, with the
/// calibration tolerance EXPERIMENTS.md promises.
#[test]
fn table2_compute_times_stay_calibrated() {
    let paper_and_ours: [(App, f64, f64); 5] = [
        (App::Canny, 3539.37, 3538.92),
        (App::Deblur, 15610.58, 15609.91),
        (App::Gru, 1249.31, 1249.23),
        (App::Harris, 6157.30, 6156.82),
        (App::Lstm, 1470.02, 1469.93),
    ];
    let specs = App::ALL.iter().map(|&app| grid::solo_run(app, true)).collect();
    let results = execute(specs, &ExecOptions { jobs: 2, ..Default::default() });
    assert!(results.failures().is_empty(), "{:?}", results.failures());
    let ctx = Ctx::from_results(&results);
    for (app, paper_us, pinned_us) in paper_and_ours {
        let r = ctx.run(&grid::solo_run(app, true));
        let modeled = r.per_app_compute_time[app.symbol()].as_us_f64();
        let vs_paper = 100.0 * (modeled - paper_us).abs() / paper_us;
        assert!(
            vs_paper <= 0.02,
            "{app:?}: modeled compute {modeled:.2} us drifted {vs_paper:.4}% from the \
             paper's {paper_us:.2} us (tolerance 0.02%)"
        );
        // And the exact modeled value is pinned to EXPERIMENTS.md.
        assert!(
            (modeled - pinned_us).abs() < 0.005,
            "{app:?}: modeled compute {modeled:.2} us no longer matches the \
             {pinned_us:.2} us recorded in EXPERIMENTS.md"
        );
    }
}

/// Solo memory-time pins for both memory-system variants (EXPERIMENTS.md
/// Table II "ours" columns, ±0.5 µs).
#[test]
fn table2_memory_times_match_experiments_md() {
    let pins: [(App, f64, f64); 5] = [
        (App::Canny, 222.19, 101.64),
        (App::Deblur, 475.53, 232.16),
        (App::Gru, 3409.74, 1715.02),
        (App::Harris, 328.96, 165.21),
        (App::Lstm, 4059.21, 2019.46),
    ];
    let ctx = Ctx::empty();
    for (app, nofwd_us, ideal_us) in pins {
        let nofwd = ctx.run(&grid::solo_run(app, false)).per_app_mem_time[app.symbol()];
        let ideal = ctx.run(&grid::solo_run(app, true)).per_app_mem_time[app.symbol()];
        assert!(
            (nofwd.as_us_f64() - nofwd_us).abs() < 0.5,
            "{app:?}: no-forwarding mem time {:.2} us != pinned {nofwd_us:.2} us",
            nofwd.as_us_f64()
        );
        assert!(
            (ideal.as_us_f64() - ideal_us).abs() < 0.5,
            "{app:?}: ideal mem time {:.2} us != pinned {ideal_us:.2} us",
            ideal.as_us_f64()
        );
    }
}

/// Fig. 4 high-contention gmeans and the paper's headline ordering:
/// RELIEF forwards strictly more than every baseline at every contention
/// level, exceeding 65 % under high contention while no baseline reaches
/// 30 %.
#[test]
fn fig4_forwarding_rates_and_ordering_hold() {
    let mixes = Contention::High.mixes();
    let specs = mixes
        .iter()
        .flat_map(|m| MAIN_POLICIES.iter().map(|&p| grid::mix_run(p, Contention::High, m)))
        .collect();
    let results = execute(specs, &ExecOptions { jobs: 4, ..Default::default() });
    assert!(results.failures().is_empty(), "{:?}", results.failures());
    let ctx = Ctx::from_results(&results);
    let sweep = PolicySweep::collect_with(&ctx, Contention::High, &MAIN_POLICIES, |r| {
        r.stats.forward_percent()
    });
    let gmeans = sweep.gmeans();
    // EXPERIMENTS.md high-contention row: FCFS, GEDF-D, GEDF-N, LAX,
    // HetSched, RELIEF (values rounded to 0.1 there).
    let pinned = [25.2, 26.0, 20.6, 21.4, 21.5, 65.8];
    for (i, (policy, pin)) in MAIN_POLICIES.iter().zip(pinned).enumerate() {
        assert!(
            (gmeans[i] - pin).abs() < 0.05,
            "{policy}: high-contention fwd+coloc gmean {:.2}% != pinned {pin}%",
            gmeans[i]
        );
    }
    let relief = gmeans[5];
    assert!(relief > 65.0, "RELIEF must keep >65% forwarding, got {relief:.1}%");
    for (i, policy) in MAIN_POLICIES.iter().enumerate().take(5) {
        assert!(
            gmeans[i] < 30.0 && relief > gmeans[i],
            "{policy} gmean {:.1}% must stay below RELIEF's {relief:.1}% (and <30%)",
            gmeans[i]
        );
    }
}

/// The platform, ablation, sensitivity and RNN-scaling studies render
/// exactly the sections `experiments_output.txt` holds for them.
#[test]
fn extension_studies_match_experiments_output() {
    use relief::bench::studies;
    let committed = include_str!("../experiments_output.txt");
    let grid_study = |grid, render: fn(&Ctx) -> String| {
        let results = execute(grid, &ExecOptions { jobs: 2, ..Default::default() });
        assert!(results.failures().is_empty(), "{:?}", results.failures());
        render(&Ctx::from_results(&results))
    };
    for (name, text) in [
        ("platform", studies::platform()),
        ("ablations", studies::ablations()),
        ("sensitivity", grid_study(studies::sensitivity_grid(), studies::sensitivity)),
        ("rnn_scaling", grid_study(studies::rnn_scaling_grid(), studies::rnn_scaling)),
    ] {
        assert!(committed.contains(&text), "{name} drifted from experiments_output.txt:\n{text}");
    }
}
