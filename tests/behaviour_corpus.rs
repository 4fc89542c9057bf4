//! Behaviour corpus: all 91 cells of `tests/corpus/behaviour.txt` (see
//! `corpus/mod.rs` for the line format and the cells), plus the two
//! single-path checks on the corpus's service streams.

mod corpus;

use relief::prelude::*;

#[test]
fn corpus_matches_committed_file() {
    corpus::assert_matches("", 91);
}

/// Self-healing timeouts and hedges retire instances early, so the stream
/// admits more requests (plus hedged copies) than are ever live at once:
/// the live-slot high-water mark stays below that total only because
/// retired slots are recycled.
#[test]
fn service_mode_with_self_healing_recycles() {
    for (seed, rate, policy) in corpus::SELF_HEAL_CELLS {
        let cell = corpus::self_heal_cell(seed, rate, policy);
        let r = cell.run();
        let svc = &r.stats.service;
        assert!(svc.completed() > 0, "{}: no request completed", cell.label);
        assert!(
            svc.timed_out() > 0,
            "{}: no request timed out — the stale-timeout path was not exercised",
            cell.label
        );
        let instances = svc.admitted() + svc.hedged();
        assert!(
            r.live_high_water < instances,
            "{}: recycling never engaged (live high-water {} vs {instances} admitted + hedged)",
            cell.label,
            r.live_high_water
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
            .with_stream(corpus::stream(0x4EC5_00B1, 1_200.0, 10, 10));
        cfg.bounded_memory = bounded;
        SocSim::new(cfg, corpus::cgl_apps()).run()
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
