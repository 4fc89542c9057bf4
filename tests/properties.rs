//! Property-style tests: simulator invariants over random task graphs,
//! random platforms, and every scheduling policy.
//!
//! The sandbox cannot fetch `proptest`, so cases are driven by the
//! in-tree SplitMix64 generator with fixed seeds: the same breadth of
//! random inputs, fully deterministic and shrink-free (a failure prints
//! the offending case's parameters, which are reproducible by seed).

use relief::prelude::*;
use relief_workloads::synthetic::{random_dag, SyntheticParams};

/// Deterministic case sampler shared by all properties.
struct Cases {
    rng: SplitMix64,
}

impl Cases {
    fn new(property_tag: u64) -> Self {
        Cases { rng: SplitMix64::new(0xC0FFEE ^ property_tag) }
    }

    fn seed(&mut self) -> u64 {
        self.rng.u64_below(1000)
    }

    fn params(&mut self) -> SyntheticParams {
        SyntheticParams {
            nodes: 1 + self.rng.usize_below(19),
            acc_types: 1 + self.rng.u32_below(3),
            edge_prob: 0.05 + 0.55 * self.rng.f64_unit(),
            ..SyntheticParams::default()
        }
    }

    /// Any of the eleven policies: the paper's eight and the extensions.
    fn policy(&mut self) -> PolicyKind {
        let kinds: Vec<PolicyKind> =
            PolicyKind::ALL.into_iter().chain(PolicyKind::EXTENSIONS).collect();
        kinds[self.rng.usize_below(kinds.len())]
    }

    fn flag(&mut self) -> bool {
        self.rng.chance(0.5)
    }
}

/// Every node of every DAG executes exactly once, every edge is
/// consumed, and forwards + colocations never exceed the edge count —
/// regardless of policy, platform width, or graph shape.
#[test]
fn all_work_completes_exactly_once() {
    let mut cases = Cases::new(1);
    for _ in 0..48 {
        let (seed, params, policy, wide) =
            (cases.seed(), cases.params(), cases.policy(), cases.flag());
        let dag = random_dag(&params, seed);
        let width = if wide { 2 } else { 1 };
        let cfg = SocConfig::generic(vec![width; params.acc_types as usize], policy);
        let apps = vec![AppSpec::once("A", dag.clone()), AppSpec::once("B", dag.clone())];
        let stats = SocSim::new(cfg, apps).run().stats;
        let ctx = format!("seed={seed} policy={policy} wide={wide}");
        for app in stats.apps.values() {
            assert_eq!(app.dags_completed, 1, "{ctx}");
            assert_eq!(app.nodes_completed, dag.len() as u64, "{ctx}");
            assert_eq!(app.edges_consumed, dag.edge_count() as u64, "{ctx}");
            assert!(app.forwards + app.colocations <= app.edges_consumed, "{ctx}");
        }
        assert_eq!(stats.edges_total, 2 * dag.edge_count() as u64, "{ctx}");
    }
}

/// Traffic conservation: with forwarding disabled, observed DRAM
/// traffic equals the all-DRAM baseline exactly; with forwarding,
/// total attributed movement never exceeds the baseline and DRAM
/// traffic never exceeds the no-forwarding run's.
#[test]
fn traffic_conservation() {
    let mut cases = Cases::new(2);
    for _ in 0..48 {
        let (seed, params, policy) = (cases.seed(), cases.params(), cases.policy());
        let dag = random_dag(&params, seed);
        let instances = vec![1; params.acc_types as usize];
        let apps = || vec![AppSpec::once("A", dag.clone())];
        let fwd = SocSim::new(SocConfig::generic(instances.clone(), policy), apps()).run().stats;
        let nofwd =
            SocSim::new(SocConfig::generic(instances, policy).without_forwarding(), apps())
                .run()
                .stats;
        let ctx = format!("seed={seed} policy={policy}");
        assert_eq!(nofwd.traffic.dram_bytes(), nofwd.traffic.all_dram_bytes, "{ctx}");
        assert_eq!(nofwd.traffic.spad_to_spad_bytes, 0, "{ctx}");
        assert_eq!(nofwd.traffic.colocated_bytes, 0, "{ctx}");
        assert!(fwd.traffic.total_if_all_dram() <= fwd.traffic.all_dram_bytes, "{ctx}");
        assert!(fwd.traffic.dram_bytes() <= nofwd.traffic.dram_bytes(), "{ctx}");
        assert_eq!(fwd.traffic.all_dram_bytes, nofwd.traffic.all_dram_bytes, "{ctx}");
    }
}

/// Execution time is bounded below by the compute critical path (no
/// time travel) and the simulation always terminates.
#[test]
fn makespan_at_least_critical_path() {
    let mut cases = Cases::new(3);
    for _ in 0..48 {
        let (seed, params, policy) = (cases.seed(), cases.params(), cases.policy());
        let dag = random_dag(&params, seed);
        let timing = relief::dag::DagTiming::compute(&dag, |n| dag.node(n).compute);
        let cfg = SocConfig::generic(vec![1; params.acc_types as usize], policy);
        let stats = SocSim::new(cfg, vec![AppSpec::once("A", dag.clone())]).run().stats;
        let ctx = format!("seed={seed} policy={policy}");
        // Jitter is bounded by 0.1%, so allow that much slack.
        let cp = timing.critical_path().as_ps() as f64 * 0.999;
        assert!(stats.exec_time.as_ps() as f64 >= cp, "{ctx}");
        // And compute busy time is exactly the sum of node computes
        // (within jitter).
        let total = dag.total_compute().as_ps() as f64;
        let busy = stats.accel_busy.as_ps() as f64;
        assert!((busy - total).abs() <= total * 0.002, "{ctx}");
    }
}

/// Simulations are bit-deterministic for every policy.
#[test]
fn deterministic() {
    let mut cases = Cases::new(4);
    for _ in 0..24 {
        let (seed, policy) = (cases.rng.u64_below(200), cases.policy());
        let dag = random_dag(&SyntheticParams::default(), seed);
        let apps = || vec![AppSpec::once("A", dag.clone()), AppSpec::once("B", dag.clone())];
        let a = SocSim::new(SocConfig::generic(vec![1, 1, 1], policy), apps()).run().stats;
        let b = SocSim::new(SocConfig::generic(vec![1, 1, 1], policy), apps()).run().stats;
        assert_eq!(a, b, "seed={seed} policy={policy}");
    }
}

/// An effectively unbounded DAG deadline meets every node and DAG
/// deadline under every policy.
#[test]
fn loose_deadlines_meet_everything() {
    let mut cases = Cases::new(5);
    for _ in 0..48 {
        let (seed, policy) = (cases.rng.u64_below(500), cases.policy());
        let params = SyntheticParams {
            deadline: Dur::from_ms(10_000), // effectively unbounded
            ..SyntheticParams::default()
        };
        let dag = random_dag(&params, seed);
        let cfg = SocConfig::generic(vec![1, 1, 1], policy);
        let stats = SocSim::new(cfg, vec![AppSpec::once("A", dag.clone())]).run().stats;
        let a = &stats.apps["A"];
        let ctx = format!("seed={seed} policy={policy}");
        assert_eq!(a.node_deadlines_met, a.nodes_completed, "{ctx}");
        assert_eq!(a.dag_deadlines_met, 1, "{ctx}");
    }
}

/// RELIEF's feasibility check is safe: against a single application
/// with a feasible deadline, enabling forwarding escalation never
/// causes a deadline miss that LL would have avoided.
#[test]
fn relief_escalations_do_not_break_feasible_solo_runs() {
    let mut cases = Cases::new(6);
    for _ in 0..48 {
        let seed = cases.rng.u64_below(500);
        let params = SyntheticParams { deadline: Dur::from_ms(50), ..SyntheticParams::default() };
        let dag = random_dag(&params, seed);
        let run = |policy| {
            let cfg = SocConfig::generic(vec![1, 1, 1], policy);
            SocSim::new(cfg, vec![AppSpec::once("A", dag.clone())]).run().stats
        };
        let ll = run(PolicyKind::Ll);
        let relief = run(PolicyKind::Relief);
        if ll.apps["A"].dag_deadlines_met == 1 {
            assert_eq!(relief.apps["A"].dag_deadlines_met, 1, "seed={seed}");
        }
    }
}

/// Dependency order is never violated: for every edge, the parent's
/// compute span ends no later than the child's begins — checked from
/// the recorded schedule trace under every policy.
#[test]
fn trace_respects_dependencies() {
    let mut cases = Cases::new(7);
    for _ in 0..48 {
        let (seed, params, policy) = (cases.rng.u64_below(500), cases.params(), cases.policy());
        let dag = random_dag(&params, seed);
        let mut cfg = SocConfig::generic(vec![2; params.acc_types as usize], policy);
        cfg.record_trace = true;
        let result = SocSim::new(cfg, vec![AppSpec::once("A", dag.clone())]).run();
        let ctx = format!("seed={seed} policy={policy}");
        assert_eq!(result.trace.spans.len(), dag.len(), "{ctx}");
        for from in dag.node_ids() {
            for &to in dag.children(from) {
                assert!(
                    result.trace.ran_before(TaskKey::new(0, from.0), TaskKey::new(0, to.0)),
                    "{ctx}: {from} must finish before {to} starts"
                );
            }
        }
        // Spans on one instance never overlap (non-preemptive accelerators).
        for inst in 0..result.trace.instances() {
            let spans = result.trace.per_instance(inst);
            for pair in spans.windows(2) {
                assert!(pair[0].end <= pair[1].start, "{ctx}: overlap on acc{inst}");
            }
        }
    }
}

/// The continuous mode always stops at the time limit.
#[test]
fn time_limit_is_respected() {
    let mut cases = Cases::new(8);
    for _ in 0..48 {
        let seed = cases.rng.u64_below(200);
        let policy = cases.policy();
        let limit_us = 100 + cases.rng.u64_below(1900);
        let dag = random_dag(&SyntheticParams::default(), seed);
        let cfg =
            SocConfig::generic(vec![1, 1, 1], policy).with_time_limit(Time::from_us(limit_us));
        let stats = SocSim::new(cfg, vec![AppSpec::continuous("A", dag)]).run().stats;
        assert!(
            stats.exec_time <= Dur::from_us(limit_us),
            "seed={seed} policy={policy} limit={limit_us}us"
        );
    }
}

/// Wider platforms never hurt: quadrupling every accelerator type count
/// cannot increase the makespan of a drained workload (non-preemptive
/// anomalies are possible in theory — Graham's bounds — but our
/// launch-greedy manager with these policies should not regress on
/// small graphs; treat violations > 5% as bugs).
#[test]
fn more_instances_do_not_badly_regress() {
    let mut cases = Cases::new(9);
    for _ in 0..24 {
        let (seed, params) = (cases.rng.u64_below(200), cases.params());
        let dag = random_dag(&params, seed);
        let apps = || vec![AppSpec::once("A", dag.clone()), AppSpec::once("B", dag.clone())];
        let narrow = SocSim::new(
            SocConfig::generic(vec![1; params.acc_types as usize], PolicyKind::Fcfs),
            apps(),
        )
        .run()
        .stats;
        let wide = SocSim::new(
            SocConfig::generic(vec![4; params.acc_types as usize], PolicyKind::Fcfs),
            apps(),
        )
        .run()
        .stats;
        let n = narrow.exec_time.as_ps() as f64;
        let w = wide.exec_time.as_ps() as f64;
        assert!(w <= n * 1.05, "seed={seed}: wide {w} vs narrow {n}");
    }
}
