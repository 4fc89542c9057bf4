//! The per-app table: every constant the simulator reads per app spec,
//! resolved once when [`SocSim`](crate::SocSim) is built.
//!
//! Compute predictions, critical-path deadlines and all of a node's
//! data-movement query but its colocated edge are functions of the DAG
//! and the platform alone (§III-B), so one table, filled in app-spec
//! order, serves every arrival of every app and is shared by forks.

use crate::config::SocConfig;
use crate::workload::AppSpec;
use relief_core::predict::{profile_compute, DataMovePredictor, DataMoveQuery};
use relief_dag::{Dag, DagTiming, DeadlineAssignment, NodeId};
use relief_sim::Dur;
use std::ops::Range;
use std::sync::Arc;

/// One app spec's constants.
#[derive(Debug)]
pub(crate) struct AppModel {
    /// The app's symbol, shared by its `DagArrived` and `ComputeEnd`
    /// trace records.
    pub(crate) symbol: Arc<str>,
    /// Critical-path deadlines from runtimes predicted with the Max
    /// predictors (§III-B).
    pub(crate) deadlines: DeadlineAssignment,
    /// Per node, in node order.
    nodes: Vec<NodeModel>,
    /// Every node's parent-edge bytes, node after node.
    edge_bytes: Vec<u64>,
}

/// One node's constants.
#[derive(Debug)]
struct NodeModel {
    /// Profiled compute time ([`profile_compute`]).
    compute: Dur,
    /// The node's in-edges in [`AppModel::edge_bytes`].
    edges: Range<usize>,
    dram_input_bytes: u64,
    output_bytes: u64,
    /// Whether every child is predicted to forward, sparing the output
    /// write-back; never under [`DataMovePredictor::Max`].
    all_children_forward: bool,
}

impl AppModel {
    /// The table for `apps` on `cfg`, in app-spec order.
    pub(crate) fn table(cfg: &SocConfig, apps: &[AppSpec]) -> Vec<AppModel> {
        let compute = profile_compute(apps.iter().map(|a| &*a.dag));
        apps.iter().zip(compute).map(|(app, compute)| AppModel::new(cfg, app, compute)).collect()
    }

    fn new(cfg: &SocConfig, app: &AppSpec, compute: Vec<Dur>) -> AppModel {
        let dag = &app.dag;
        let dram_bw = cfg.mem.dram_bandwidth;
        let timing = DagTiming::compute(dag, |n| {
            let spec = dag.node(n);
            spec.compute + Dur::for_bytes(dag.input_bytes(n) + spec.output_bytes, dram_bw)
        });
        let deadlines = DeadlineAssignment::from_timing(dag, &timing);
        let predicted = cfg.dm_predictor == DataMovePredictor::Predicted;
        let mut edge_bytes = Vec::new();
        let nodes = dag
            .node_ids()
            .zip(compute)
            .map(|(n, compute)| {
                let spec = dag.node(n);
                let start = edge_bytes.len();
                edge_bytes.extend(dag.parents(n).iter().map(|&p| dag.node(p).output_bytes));
                NodeModel {
                    compute,
                    edges: start..edge_bytes.len(),
                    dram_input_bytes: spec.dram_input_bytes,
                    output_bytes: spec.output_bytes,
                    all_children_forward: predicted
                        && all_children_forward(dag, &deadlines, n, &cfg.acc_instances),
                }
            })
            .collect();
        AppModel { symbol: Arc::from(app.symbol.as_str()), deadlines, nodes, edge_bytes }
    }

    /// Node `n`'s predicted compute time.
    pub(crate) fn compute(&self, n: NodeId) -> Dur {
        self.nodes[n.index()].compute
    }

    /// Node `n`'s data-movement query, with `colocated` as the in-edge
    /// predicted to colocate.
    pub(crate) fn query(&self, n: NodeId, colocated: Option<usize>) -> DataMoveQuery<'_> {
        let node = &self.nodes[n.index()];
        DataMoveQuery {
            parent_edge_bytes: &self.edge_bytes[node.edges.clone()],
            dram_input_bytes: node.dram_input_bytes,
            output_bytes: node.output_bytes,
            colocated_parent_edge: colocated,
            all_children_forward: node.all_children_forward,
        }
    }
}

/// The output prediction (§III-B): every child of `n` forwards iff `n`
/// has children, they fit distinct accelerator instances per type, and
/// `n` is the latest-finishing parent (by deadline) of every child.
fn all_children_forward(
    dag: &Dag,
    deadlines: &DeadlineAssignment,
    n: NodeId,
    instances: &[usize],
) -> bool {
    let children = dag.children(n);
    let fits = instances.iter().enumerate().all(|(t, &cap)| {
        children.iter().filter(|&&c| dag.node(c).acc.0 as usize == t).count() <= cap
    });
    let latest = children.iter().all(|&c| {
        dag.parents(c).iter().all(|&p| deadlines.node_deadline(p) <= deadlines.node_deadline(n))
    });
    !children.is_empty() && fits && latest
}

#[cfg(test)]
mod tests {
    use super::*;
    use relief_core::PolicyKind;
    use relief_workloads::App;
    use std::collections::BTreeMap;

    fn paper_apps() -> Vec<AppSpec> {
        App::ALL.iter().map(|app| AppSpec::once(app.symbol(), app.dag())).collect()
    }

    /// The all-children-forward flags of every node of `apps`, read off
    /// the graph directly: children counted per type in a map, and the
    /// latest-parent rule checked edge by edge.
    fn walked_flags(cfg: &SocConfig, apps: &[AppSpec], models: &[AppModel]) -> Vec<Vec<bool>> {
        apps.iter()
            .zip(models)
            .map(|(app, model)| {
                let dag = &app.dag;
                let d = |n: NodeId| model.deadlines.node_deadline(n);
                dag.node_ids()
                    .map(|n| {
                        let mut per_type: BTreeMap<usize, usize> = BTreeMap::new();
                        for &c in dag.children(n) {
                            *per_type.entry(dag.node(c).acc.0 as usize).or_default() += 1;
                        }
                        let fits = per_type.iter().all(|(&t, &k)| k <= cfg.acc_instances[t]);
                        let latest = dag
                            .children(n)
                            .iter()
                            .all(|&c| dag.parents(c).iter().all(|&p| d(p) <= d(n)));
                        cfg.dm_predictor == DataMovePredictor::Predicted
                            && !per_type.is_empty()
                            && fits
                            && latest
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn node_constants_equal_a_walk_of_the_graph() {
        let apps = paper_apps();
        let mut flags = BTreeMap::new();
        for (platform, base) in [
            ("mobile", SocConfig::mobile(PolicyKind::Relief)),
            ("two-each", SocConfig::generic(vec![2; 7], PolicyKind::Relief)),
        ] {
            for dm in [DataMovePredictor::Max, DataMovePredictor::Predicted] {
                let cfg = SocConfig { dm_predictor: dm, ..base.clone() };
                let models = AppModel::table(&cfg, &apps);
                for (app, model) in apps.iter().zip(&models) {
                    assert_eq!(&*model.symbol, app.symbol);
                    for n in app.dag.node_ids() {
                        let spec = app.dag.node(n);
                        let q = model.query(n, Some(1));
                        let parents: Vec<u64> = app
                            .dag
                            .parents(n)
                            .iter()
                            .map(|&p| app.dag.node(p).output_bytes)
                            .collect();
                        assert_eq!(q.parent_edge_bytes, parents, "{} {n:?}", app.symbol);
                        assert_eq!(q.dram_input_bytes, spec.dram_input_bytes);
                        assert_eq!(q.output_bytes, spec.output_bytes);
                        assert_eq!(q.colocated_parent_edge, Some(1));
                    }
                }
                let table: Vec<Vec<bool>> = models
                    .iter()
                    .zip(&apps)
                    .map(|(m, a)| {
                        a.dag.node_ids().map(|n| m.query(n, None).all_children_forward).collect()
                    })
                    .collect();
                assert_eq!(table, walked_flags(&cfg, &apps, &models), "{platform} {dm:?}");
                flags.insert((platform, dm.name()), table.concat());
            }
        }
        // The flags depend on the predictor and on the instance counts.
        let set = |k| flags[&k].iter().filter(|&&f| f).count();
        assert_eq!(set(("mobile", "Max")) + set(("two-each", "Max")), 0);
        assert!(set(("mobile", "Pred. DM")) > 0);
        assert!(set(("two-each", "Pred. DM")) > set(("mobile", "Pred. DM")));
    }
}
