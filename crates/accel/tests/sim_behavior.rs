//! Behavioral tests of the SoC simulator: forwarding, colocation,
//! write-back rules, contention, deadlines, and traffic conservation.

use relief_accel::{AppSpec, SocConfig, SocSim};
use relief_core::PolicyKind;
use relief_dag::{AccTypeId, Dag, DagBuilder, NodeSpec};
use relief_metrics::RunStats;
use relief_sim::{Dur, Time};
use std::sync::Arc;

fn node(acc: u32, compute_us: u64, out: u64) -> NodeSpec {
    NodeSpec::new(AccTypeId(acc), Dur::from_us(compute_us)).with_output_bytes(out)
}

/// Linear chain of `n` nodes, all on accelerator type 0.
fn chain_same_type(n: usize, deadline: Dur) -> Arc<Dag> {
    let mut b = DagBuilder::new("chain", deadline);
    let ids: Vec<_> = (0..n).map(|_| b.add_node(node(0, 10, 8192))).collect();
    b.add_chain(&ids).unwrap();
    Arc::new(b.build().unwrap())
}

/// Linear chain alternating between types 0 and 1.
fn chain_alternating(n: usize, deadline: Dur) -> Arc<Dag> {
    let mut b = DagBuilder::new("alt", deadline);
    let ids: Vec<_> = (0..n).map(|i| b.add_node(node((i % 2) as u32, 10, 8192))).collect();
    b.add_chain(&ids).unwrap();
    Arc::new(b.build().unwrap())
}

fn run(cfg: SocConfig, apps: Vec<AppSpec>) -> RunStats {
    SocSim::new(cfg, apps).run().stats
}

#[test]
fn chain_on_one_accelerator_fully_colocates_under_relief() {
    let dag = chain_same_type(6, Dur::from_ms(10));
    let stats = run(
        SocConfig::generic(vec![1], PolicyKind::Relief),
        vec![AppSpec::once("A", dag)],
    );
    let a = &stats.apps["A"];
    assert_eq!(a.dags_completed, 1);
    assert_eq!(a.edges_consumed, 5);
    assert_eq!(a.colocations, 5);
    assert_eq!(a.forwards, 0);
    assert_eq!(a.dag_deadlines_met, 1);
}

#[test]
fn alternating_chain_forwards_under_relief() {
    let dag = chain_alternating(6, Dur::from_ms(10));
    let stats = run(
        SocConfig::generic(vec![1, 1], PolicyKind::Relief),
        vec![AppSpec::once("A", dag)],
    );
    let a = &stats.apps["A"];
    assert_eq!(a.forwards, 5, "every edge crosses accelerators and forwards");
    assert_eq!(a.colocations, 0);
    assert!(stats.traffic.spad_to_spad_bytes > 0);
}

#[test]
fn forwarding_disabled_moves_everything_through_dram() {
    let dag = chain_alternating(6, Dur::from_ms(10));
    let stats = run(
        SocConfig::generic(vec![1, 1], PolicyKind::Relief).without_forwarding(),
        vec![AppSpec::once("A", dag)],
    );
    let a = &stats.apps["A"];
    assert_eq!(a.forwards, 0);
    assert_eq!(a.colocations, 0);
    assert_eq!(stats.traffic.spad_to_spad_bytes, 0);
    assert_eq!(stats.traffic.colocated_bytes, 0);
    // Conservation: without forwarding, observed DRAM traffic equals the
    // all-DRAM baseline exactly.
    assert_eq!(stats.traffic.dram_bytes(), stats.traffic.all_dram_bytes);
}

#[test]
fn forwarding_reduces_dram_traffic_and_never_exceeds_baseline() {
    let dag = chain_alternating(8, Dur::from_ms(10));
    let apps = |d: &Arc<Dag>| vec![AppSpec::once("A", d.clone())];
    let fwd = run(SocConfig::generic(vec![1, 1], PolicyKind::Relief), apps(&dag));
    let nofwd =
        run(SocConfig::generic(vec![1, 1], PolicyKind::Relief).without_forwarding(), apps(&dag));
    assert!(fwd.traffic.dram_bytes() < nofwd.traffic.dram_bytes());
    assert!(fwd.traffic.total_if_all_dram() <= fwd.traffic.all_dram_bytes);
    assert_eq!(fwd.traffic.all_dram_bytes, nofwd.traffic.all_dram_bytes);
}

#[test]
fn every_policy_completes_the_same_work() {
    let dag = chain_alternating(7, Dur::from_ms(10));
    for policy in PolicyKind::ALL {
        let stats = run(
            SocConfig::generic(vec![1, 1], policy),
            vec![AppSpec::once("A", dag.clone()), AppSpec::once("B", dag.clone())],
        );
        for app in stats.apps.values() {
            assert_eq!(app.dags_completed, 1, "{policy}: {} did not finish", app.name);
            assert_eq!(app.nodes_completed, 7, "{policy}");
            assert_eq!(app.edges_consumed, 6, "{policy}");
        }
        assert_eq!(stats.edges_total, 12, "{policy}");
        assert!(stats.forwards() + stats.colocations() <= stats.edges_total);
    }
}

#[test]
fn relief_forwards_at_least_as_much_as_baselines_under_contention() {
    // Two alternating chains compete for two accelerators — the scenario
    // where deadline-oblivious interleaving destroys forwarding windows.
    let dag = chain_alternating(8, Dur::from_ms(10));
    let apps = || {
        vec![
            AppSpec::once("A", dag.clone()),
            AppSpec::once("B", dag.clone()),
            AppSpec::once("C", dag.clone()),
        ]
    };
    let score = |p: PolicyKind| {
        let s = run(SocConfig::generic(vec![1, 1], p), apps());
        s.forwards() + s.colocations()
    };
    let relief = score(PolicyKind::Relief);
    for p in [PolicyKind::Fcfs, PolicyKind::GedfN, PolicyKind::Lax, PolicyKind::HetSched] {
        assert!(
            relief >= score(p),
            "RELIEF ({relief}) must not trail {p} ({})",
            score(p)
        );
    }
}

#[test]
fn infeasible_deadlines_are_reported_missed() {
    // 6 x 10us of compute against a 1us deadline: completes, but misses.
    let dag = chain_same_type(6, Dur::from_us(1));
    let stats = run(SocConfig::generic(vec![1], PolicyKind::Relief), vec![AppSpec::once("A", dag)]);
    let a = &stats.apps["A"];
    assert_eq!(a.dags_completed, 1);
    assert_eq!(a.dag_deadlines_met, 0);
    assert!(a.node_deadlines_met < a.nodes_completed);
    assert!(a.max_slowdown().unwrap() > 1.0);
}

#[test]
fn continuous_mode_repeats_until_time_limit() {
    let dag = chain_same_type(3, Dur::from_ms(1));
    let cfg = SocConfig::generic(vec![1], PolicyKind::Relief).with_time_limit(Time::from_ms(2));
    let stats = run(cfg, vec![AppSpec::continuous("A", dag)]);
    let a = &stats.apps["A"];
    assert!(a.dags_completed > 1, "continuous app must re-arrive (got {})", a.dags_completed);
    assert_eq!(stats.exec_time, Dur::from_ms(2));
}

#[test]
fn starvation_is_flagged() {
    // Two continuous apps on one accelerator; one has far tighter laxity.
    // Under LAX, the doomed one is perpetually de-prioritized.
    let fast = chain_same_type(2, Dur::from_ms(4));
    let mut b = DagBuilder::new("slow", Dur::from_us(50)); // hopeless deadline
    let ids: Vec<_> = (0..4).map(|_| b.add_node(node(0, 200, 8192))).collect();
    b.add_chain(&ids).unwrap();
    let slow = Arc::new(b.build().unwrap());
    let cfg = SocConfig::generic(vec![1], PolicyKind::Lax).with_time_limit(Time::from_ms(3));
    let stats = run(
        cfg,
        vec![AppSpec::continuous("fast", fast), AppSpec::continuous("slow", slow)],
    );
    assert!(stats.apps["fast"].dags_completed > 0);
    assert!(stats.apps["slow"].starved || stats.apps["slow"].dags_completed == 0);
}

#[test]
fn parallel_instances_increase_throughput() {
    // Two independent single-node DAGs on the same type: with 2 instances
    // they run concurrently.
    let single = {
        let mut b = DagBuilder::new("one", Dur::from_ms(1));
        b.add_node(node(0, 100, 0));
        Arc::new(b.build().unwrap())
    };
    let apps =
        || vec![AppSpec::once("A", single.clone()), AppSpec::once("B", single.clone())];
    let t1 = run(SocConfig::generic(vec![1], PolicyKind::Fcfs), apps()).exec_time;
    let t2 = run(SocConfig::generic(vec![2], PolicyKind::Fcfs), apps()).exec_time;
    assert!(t2 < t1, "2 instances ({t2}) must beat 1 ({t1})");
}

#[test]
fn multi_parent_node_waits_for_all_parents() {
    // p1 (fast) and p2 (slow) both feed c; c must not run before p2 ends.
    let mut b = DagBuilder::new("join", Dur::from_ms(5));
    let p1 = b.add_node(node(0, 10, 4096));
    let p2 = b.add_node(node(1, 500, 4096));
    let c = b.add_node(node(2, 10, 0));
    b.add_edge(p1, c).unwrap();
    b.add_edge(p2, c).unwrap();
    let dag = Arc::new(b.build().unwrap());
    let stats = run(
        SocConfig::generic(vec![1, 1, 1], PolicyKind::Relief),
        vec![AppSpec::once("A", dag)],
    );
    let a = &stats.apps["A"];
    assert_eq!(a.nodes_completed, 3);
    // c's completion implies the DAG ran at least p2's 500us.
    assert!(stats.exec_time > Dur::from_us(500));
    // p1's output outlives p2's compute in the scratchpad (double
    // buffering, nothing else contends), so both edges can forward.
    assert_eq!(a.forwards + a.colocations, 2);
}

#[test]
fn zero_output_nodes_are_handled() {
    let mut b = DagBuilder::new("z", Dur::from_ms(1));
    let a = b.add_node(node(0, 10, 0)); // no output bytes at all
    let c = b.add_node(node(1, 10, 0));
    b.add_edge(a, c).unwrap();
    let dag = Arc::new(b.build().unwrap());
    let stats = run(
        SocConfig::generic(vec![1, 1], PolicyKind::Relief),
        vec![AppSpec::once("A", dag)],
    );
    assert_eq!(stats.apps["A"].dags_completed, 1);
}

#[test]
fn dram_extra_inputs_are_fetched() {
    let mut b = DagBuilder::new("w", Dur::from_ms(1));
    b.add_node(node(0, 10, 0).with_dram_input_bytes(65_536));
    let dag = Arc::new(b.build().unwrap());
    let stats =
        run(SocConfig::generic(vec![1], PolicyKind::Fcfs), vec![AppSpec::once("A", dag)]);
    assert_eq!(stats.traffic.dram_read_bytes, 65_536);
}

#[test]
fn scheduler_overhead_accumulates_and_can_be_disabled() {
    let dag = chain_same_type(5, Dur::from_ms(10));
    let with = run(
        SocConfig::generic(vec![1], PolicyKind::Relief),
        vec![AppSpec::once("A", dag.clone())],
    );
    assert!(with.scheduler_ops >= 5);
    assert!(!with.scheduler_time.is_zero());
    let mut cfg = SocConfig::generic(vec![1], PolicyKind::Relief);
    cfg.model_sched_overhead = false;
    let without = run(cfg, vec![AppSpec::once("A", dag)]);
    assert!(without.scheduler_time.is_zero());
    assert!(without.exec_time <= with.exec_time);
}

#[test]
fn determinism_same_seed_same_result() {
    let dag = chain_alternating(8, Dur::from_ms(10));
    let apps = || vec![AppSpec::once("A", dag.clone()), AppSpec::once("B", dag.clone())];
    let r1 = run(SocConfig::generic(vec![1, 1], PolicyKind::Relief), apps());
    let r2 = run(SocConfig::generic(vec![1, 1], PolicyKind::Relief), apps());
    assert_eq!(r1, r2);
}

#[test]
fn occupancy_and_energy_are_sane() {
    let dag = chain_alternating(8, Dur::from_ms(10));
    let stats = run(
        SocConfig::generic(vec![1, 1], PolicyKind::Relief),
        vec![AppSpec::once("A", dag)],
    );
    assert!(stats.accel_occupancy() > 0.0);
    assert!(stats.interconnect_occupancy() > 0.0 && stats.interconnect_occupancy() <= 1.0);
    let e = relief_metrics::EnergyModel::new().energy(&stats.traffic, stats.exec_time);
    assert!(e.dram_nj > 0.0 && e.spad_nj > 0.0);
}

#[test]
#[should_panic(expected = "unknown accelerator type")]
fn dag_with_unknown_acc_type_is_rejected() {
    let mut b = DagBuilder::new("bad", Dur::from_ms(1));
    b.add_node(node(5, 1, 0));
    let dag = Arc::new(b.build().unwrap());
    SocSim::new(SocConfig::generic(vec![1], PolicyKind::Fcfs), vec![AppSpec::once("A", dag)]);
}

#[test]
#[should_panic(expected = "dag 'orphan' uses unknown accelerator type acc1")]
fn dag_on_a_zero_instance_acc_type_is_rejected() {
    // Type 1 exists in the platform's type list but has no instance, so
    // the child could never launch; construction must refuse the config
    // instead of letting the run drain with work left.
    let mut b = DagBuilder::new("orphan", Dur::from_ms(1));
    let ids = [b.add_node(node(0, 1, 4096)), b.add_node(node(1, 1, 0))];
    b.add_chain(&ids).unwrap();
    let dag = Arc::new(b.build().unwrap());
    let mut cfg = SocConfig::generic(vec![1, 0], PolicyKind::Relief);
    cfg.watchdog_window = 0;
    SocSim::new(cfg, vec![AppSpec::once("A", dag)]);
}

#[test]
fn single_output_partition_still_completes() {
    // With 1 partition, colocation-in-place is disabled and write-backs
    // serialize partition reuse; everything must still drain.
    let dag = chain_same_type(6, Dur::from_ms(10));
    let mut cfg = SocConfig::generic(vec![1], PolicyKind::Relief);
    cfg.output_partitions = 1;
    let stats = run(cfg, vec![AppSpec::once("A", dag)]);
    let a = &stats.apps["A"];
    assert_eq!(a.dags_completed, 1);
    assert_eq!(a.colocations, 0, "in-place reads need a second partition");
}

#[test]
fn wide_fanout_respects_partition_war_ordering() {
    // One producer with 6 consumers on another type with 1 instance: the
    // consumers cannot all be next in line, so the producer writes back and
    // late consumers read DRAM; ongoing_reads must keep data live for the
    // first.
    let mut b = DagBuilder::new("fan", Dur::from_ms(10));
    let p = b.add_node(node(0, 10, 16_384));
    for _ in 0..6 {
        let c = b.add_node(node(1, 10, 0));
        b.add_edge(p, c).unwrap();
    }
    let dag = Arc::new(b.build().unwrap());
    let stats = run(
        SocConfig::generic(vec![1, 1], PolicyKind::Relief),
        vec![AppSpec::once("A", dag)],
    );
    let a = &stats.apps["A"];
    assert_eq!(a.nodes_completed, 7);
    assert_eq!(a.edges_consumed, 6);
    // The producer stays idle afterwards, so its data is never overwritten
    // and every consumer can still forward...
    assert_eq!(a.forwards, 6);
    // ...but because not all six were next in line at completion, the
    // write-back to DRAM was issued anyway (§III-C.2).
    assert!(stats.traffic.dram_write_bytes >= 16_384);
}

#[test]
fn overwritten_output_falls_back_to_dram_via_lazy_writeback() {
    // X keeps the consumer type busy for 400us. Y's producer output is
    // deferred (its child is next in line), but Z's chain then needs the
    // producer's partition, forcing a lazy write-back; by the time Y's
    // consumer runs, the data lives only in DRAM.
    let mut bx = DagBuilder::new("x", Dur::from_ms(10));
    bx.add_node(node(1, 400, 0));
    let x = Arc::new(bx.build().unwrap());

    let mut by = DagBuilder::new("y", Dur::from_ms(10));
    let p = by.add_node(node(0, 10, 8192));
    let c = by.add_node(node(1, 10, 0));
    by.add_edge(p, c).unwrap();
    let y = Arc::new(by.build().unwrap());

    let mut bz = DagBuilder::new("z", Dur::from_ms(10));
    let ids: Vec<_> = (0..3).map(|_| bz.add_node(node(0, 10, 8192))).collect();
    bz.add_chain(&ids).unwrap();
    let z = Arc::new(bz.build().unwrap());

    let stats = run(
        SocConfig::generic(vec![1, 1], PolicyKind::Fcfs),
        vec![AppSpec::once("X", x), AppSpec::once("Y", y), AppSpec::once("Z", z)],
    );
    for app in stats.apps.values() {
        assert_eq!(
            app.dags_completed, 1,
            "{} must complete despite partition pressure",
            app.name
        );
    }
    // Y's edge could not forward: the producer's scratchpad copy was
    // recycled for Z's chain before the consumer ran.
    assert_eq!(stats.apps["Y"].forwards, 0);
    assert_eq!(stats.apps["Y"].colocations, 0);
    // The lazy write-back put the data in DRAM.
    assert!(stats.traffic.dram_write_bytes >= 8192);
}

#[test]
fn trace_is_empty_unless_enabled() {
    let dag = chain_same_type(4, Dur::from_ms(10));
    let off = SocSim::new(
        SocConfig::generic(vec![1], PolicyKind::Relief),
        vec![AppSpec::once("A", dag.clone())],
    )
    .run();
    assert!(off.trace.spans.is_empty());
    let mut cfg = SocConfig::generic(vec![1], PolicyKind::Relief);
    cfg.record_trace = true;
    let on = SocSim::new(cfg, vec![AppSpec::once("A", dag)]).run();
    assert_eq!(on.trace.spans.len(), 4);
    // The colocated chain renders with '=' markers after the root.
    let rendered = on.trace.render(&["em".into()]);
    assert!(rendered.contains("=A:n1"));
    assert!(rendered.contains(".A:n0"));
}

#[test]
fn trace_spans_match_stats() {
    let dag = chain_alternating(6, Dur::from_ms(10));
    let mut cfg = SocConfig::generic(vec![1, 1], PolicyKind::Relief);
    cfg.record_trace = true;
    let r = SocSim::new(cfg, vec![AppSpec::once("A", dag)]).run();
    let fwd: u32 = r.trace.spans.iter().map(|s| s.forwarded_inputs).sum();
    let coloc: u32 = r.trace.spans.iter().map(|s| s.colocated_inputs).sum();
    assert_eq!(fwd as u64, r.stats.apps["A"].forwards);
    assert_eq!(coloc as u64, r.stats.apps["A"].colocations);
}

#[test]
fn extension_policies_complete_workloads() {
    let dag = chain_alternating(8, Dur::from_ms(10));
    for policy in PolicyKind::EXTENSIONS {
        let stats = run(
            SocConfig::generic(vec![1, 1], policy),
            vec![AppSpec::once("A", dag.clone()), AppSpec::once("B", dag.clone())],
        );
        for app in stats.apps.values() {
            assert_eq!(app.dags_completed, 1, "{policy}: {}", app.name);
        }
    }
}

#[test]
fn crossbar_never_slower_than_bus() {
    let dag = chain_alternating(8, Dur::from_ms(10));
    let apps = || {
        vec![
            AppSpec::once("A", dag.clone()),
            AppSpec::once("B", dag.clone()),
            AppSpec::once("C", dag.clone()),
        ]
    };
    let bus = run(SocConfig::generic(vec![2, 2], PolicyKind::Fcfs), apps());
    let mut cfg = SocConfig::generic(vec![2, 2], PolicyKind::Fcfs);
    cfg.mem = cfg.mem.with_crossbar();
    let xbar = run(cfg, apps());
    assert!(xbar.exec_time <= bus.exec_time);
    // Both complete identical work.
    assert_eq!(bus.edges_total, xbar.edges_total);
}

#[test]
fn dynamic_bandwidth_predictor_changes_nothing_material() {
    // Observation 8 at the unit level: swapping the BW predictor leaves
    // completed work identical and forwards within noise.
    let dag = chain_alternating(10, Dur::from_ms(10));
    let apps = || vec![AppSpec::once("A", dag.clone()), AppSpec::once("B", dag.clone())];
    let mut base_cfg = SocConfig::generic(vec![1, 1], PolicyKind::Relief);
    base_cfg.bw_predictor = relief_accel::BwPredictorKind::Max;
    let base = run(base_cfg, apps());
    for pred in [
        relief_accel::BwPredictorKind::Last,
        relief_accel::BwPredictorKind::Average(15),
        relief_accel::BwPredictorKind::Ewma(0.25),
    ] {
        let mut cfg = SocConfig::generic(vec![1, 1], PolicyKind::Relief);
        cfg.bw_predictor = pred;
        let r = run(cfg, apps());
        assert_eq!(r.apps["A"].nodes_completed, base.apps["A"].nodes_completed);
        let diff =
            (r.forwards() + r.colocations()).abs_diff(base.forwards() + base.colocations());
        assert!(diff <= 2, "{}: forwards moved by {diff}", pred.name());
    }
}

#[test]
fn per_app_accounting_sums_to_totals() {
    let dag = chain_alternating(6, Dur::from_ms(10));
    let result = SocSim::new(
        SocConfig::generic(vec![1, 1], PolicyKind::Relief),
        vec![AppSpec::once("A", dag.clone()), AppSpec::once("B", dag)],
    )
    .run();
    let stats = &result.stats;
    let app_fwd: u64 = stats.apps.values().map(|a| a.forwards).sum();
    assert_eq!(app_fwd, stats.forwards());
    let app_edges: u64 = stats.apps.values().map(|a| a.edges_consumed).sum();
    assert_eq!(app_edges, stats.edges_total);
    // Per-app compute sums to total accelerator busy time.
    let compute: relief_sim::Dur = result.per_app_compute_time.values().copied().sum();
    assert_eq!(compute, stats.accel_busy);
}

#[test]
fn staggered_arrivals_are_honored() {
    let dag = chain_same_type(3, Dur::from_ms(5));
    let mut cfg = SocConfig::generic(vec![1], PolicyKind::Fcfs);
    cfg.record_trace = true;
    let r = SocSim::new(
        cfg,
        vec![
            AppSpec::once("A", dag.clone()).arriving_at(Time::from_us(500)),
            AppSpec::once("B", dag),
        ],
    )
    .run();
    // B (arrives at 0) runs its whole chain before A starts anything.
    let first_a = r
        .trace
        .spans
        .iter()
        .filter(|s| s.label.starts_with("A"))
        .map(|s| s.start)
        .min()
        .expect("A executed");
    assert!(first_a >= Time::from_us(500));
    assert_eq!(r.stats.apps["A"].dags_completed, 1);
}
