//! Hot-path equivalence: the simulator's one hot path must reproduce,
//! bit for bit, the cells that once compared it against the deleted
//! pre-optimisation reference path. Each cell is a line of the behaviour
//! corpus (`tests/corpus/behaviour.txt`, format in `corpus/mod.rs`),
//! whose every digest, event count and scheduler-op count the reference
//! path reproduced before it went. Each test checks one scenario group,
//! so a drift names the scenario it broke; `behaviour_corpus` checks the
//! whole file.

mod corpus;

/// All eight fairness-study policies on the first high-contention mix.
#[test]
fn all_policies_agree_on_high_contention_mix() {
    corpus::assert_matches("high/CDG/", 8);
}

/// FCFS and RELIEF on the second high-contention mix.
#[test]
fn second_mix_covers_a_different_dag_shape() {
    corpus::assert_matches("high/CDH/", 2);
}

/// FCFS and RELIEF on the 50 ms time-limited continuous repeat path,
/// which counts the one event past the limit as dispatched.
#[test]
fn continuous_contention_repeat_path_agrees() {
    corpus::assert_matches("continuous/", 2);
}

/// Task faults, DMA faults and unit outages: requeues at the current
/// instant plus far-future repair events.
#[test]
fn fault_recovery_requeues_agree() {
    corpus::assert_matches("faults/", 3);
}

/// Twenty seeds through all eleven policies on the first low-contention
/// mix, with faults on every fourth seed.
#[test]
fn twenty_seeds_rotate_all_eleven_policies() {
    corpus::assert_matches("rotation-a/", 20);
}

/// Twenty more seeds on the second low-contention mix, with faults on
/// every third seed, so task aborts retire and recycle slots mid-run.
#[test]
fn twenty_more_seeds_rotate_all_eleven_policies_with_recycling_aborts() {
    corpus::assert_matches("rotation-b/", 20);
}

/// Open-loop service mode: Poisson arrivals and admission control, whose
/// mid-stream instantiation reuses arena slots and lands events at the
/// head of the event queue while same-instant events dispatch.
#[test]
fn service_mode_agrees_across_seeds_and_policies() {
    corpus::assert_matches("service/", 3);
}
