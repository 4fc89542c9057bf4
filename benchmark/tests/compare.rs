//! The `--compare` rule on synthetic samples.

use relief_benchmark::compare::{verdict, win_share, Verdict};
use relief_benchmark::metrics::Better;

/// Ten parent samples around 100 with a 2 % interquartile spread.
fn parent() -> Vec<f64> {
    vec![
        99.0, 101.0, 100.0, 98.5, 101.5, 99.5, 100.5, 98.0, 102.0, 100.0,
    ]
}

fn scaled(v: &[f64], k: f64) -> Vec<f64> {
    v.iter().map(|x| x * k).collect()
}

#[test]
fn a_clear_gain_reads_better() {
    let p = parent();
    assert_eq!(
        verdict(&p, &scaled(&p, 0.9), Better::Lower, 0.1),
        Verdict::Better
    );
    assert_eq!(
        verdict(&p, &scaled(&p, 1.1), Better::Higher, 0.1),
        Verdict::Better
    );
    assert_eq!(win_share(&p, &scaled(&p, 0.9), Better::Lower), 1.0);
}

#[test]
fn a_loss_beyond_the_bound_reads_worse_and_within_it_unchanged() {
    let p = parent();
    assert_eq!(
        verdict(&p, &scaled(&p, 1.15), Better::Lower, 0.1),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&p, &scaled(&p, 1.05), Better::Lower, 0.1),
        Verdict::Unchanged
    );
    assert_eq!(verdict(&p, &p, Better::Lower, 0.1), Verdict::Unchanged);
}

#[test]
fn ties_count_for_neither_side() {
    let p = parent();
    let mut c = p.clone();
    c[0] -= 1.0;
    assert_eq!(win_share(&p, &c, Better::Lower), 0.1);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
    let noisy = vec![
        60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
    ];
    let slightly_better = scaled(&noisy, 0.97);
    assert_eq!(
        verdict(&noisy, &slightly_better, Better::Lower, 0.1),
        Verdict::Unresolved
    );
    // Unless every change run beats every parent run.
    let disjoint = vec![50.0; 10];
    assert_eq!(
        verdict(&noisy, &disjoint, Better::Lower, 0.1),
        Verdict::Better
    );
}

#[test]
fn too_few_pairs_are_unresolved() {
    let p = parent();
    assert_eq!(
        verdict(&p[..9], &scaled(&p[..9], 0.5), Better::Lower, 0.1),
        Verdict::Unresolved
    );
}

#[test]
fn identical_deterministic_values_are_unchanged_even_at_bound_zero() {
    let p = vec![42.0; 10];
    assert_eq!(verdict(&p, &p, Better::Higher, 0.0), Verdict::Unchanged);
    assert_eq!(
        verdict(&p, &[41.9; 10], Better::Higher, 0.0),
        Verdict::Worse
    );
}
