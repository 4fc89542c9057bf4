//! The per-app table: every constant the simulator reads per app spec,
//! resolved once when [`SocSim`](crate::SocSim) is built.
//!
//! Compute predictions, critical-path deadlines and each node's
//! predicted DRAM bytes (all but the colocated edge, known only at run
//! time) are functions of the DAG and the platform alone (§III-B), so one
//! table, filled in app-spec order, serves every arrival of every app
//! and is shared by forks.

use crate::config::SocConfig;
use crate::workload::AppSpec;
use relief_core::predict::profile_compute;
use relief_dag::{DagTiming, DeadlineAssignment};
use relief_sim::Dur;
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
    /// Each node's profiled compute time ([`profile_compute`]).
    pub(crate) compute: Vec<Dur>,
    /// Each node's predicted DRAM bytes under `cfg.dm_predictor`
    /// ([`DataMovePredictor::dram_bytes`](relief_core::DataMovePredictor::dram_bytes)).
    pub(crate) dram_bytes: Vec<u64>,
}

impl AppModel {
    /// The table for `apps` on `cfg`, in app-spec order.
    pub(crate) fn table(cfg: &SocConfig, apps: &[AppSpec]) -> Vec<AppModel> {
        let compute = profile_compute(apps.iter().map(|a| &*a.dag));
        apps.iter()
            .zip(compute)
            .map(|(app, compute)| {
                let dag = &app.dag;
                let dram_bw = cfg.mem.dram_bandwidth;
                let timing = DagTiming::compute(dag, |n| {
                    let spec = dag.node(n);
                    spec.compute + Dur::for_bytes(dag.input_bytes(n) + spec.output_bytes, dram_bw)
                });
                let deadlines = DeadlineAssignment::from_timing(dag, &timing);
                let dram_bytes = cfg.dm_predictor.dram_bytes(dag, &deadlines, &cfg.acc_instances);
                AppModel { symbol: Arc::from(app.symbol.as_str()), deadlines, compute, dram_bytes }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relief_core::predict::DataMovePredictor;
    use relief_core::PolicyKind;
    use relief_dag::NodeId;
    use relief_workloads::App;
    use std::collections::BTreeMap;

    fn paper_apps() -> Vec<AppSpec> {
        App::ALL.iter().map(|app| AppSpec::once(app.symbol(), app.dag())).collect()
    }

    /// Each node's predicted DRAM bytes, read off the graph directly:
    /// every in-edge and DRAM input, plus the output unless every child
    /// forwards (children counted per type in a map, and the
    /// latest-parent rule checked edge by edge).
    fn walked_bytes(cfg: &SocConfig, app: &AppSpec, model: &AppModel) -> Vec<u64> {
        let dag = &app.dag;
        let d = |n: NodeId| model.deadlines.node_deadline(n);
        dag.node_ids()
            .map(|n| {
                let spec = dag.node(n);
                let edges: u64 = dag.parents(n).iter().map(|&p| dag.node(p).output_bytes).sum();
                let mut per_type: BTreeMap<usize, usize> = BTreeMap::new();
                for &c in dag.children(n) {
                    *per_type.entry(dag.node(c).acc.0 as usize).or_default() += 1;
                }
                let fits = per_type.iter().all(|(&t, &k)| k <= cfg.acc_instances[t]);
                let latest =
                    dag.children(n).iter().all(|&c| dag.parents(c).iter().all(|&p| d(p) <= d(n)));
                let spared = cfg.dm_predictor == DataMovePredictor::Predicted
                    && !per_type.is_empty()
                    && fits
                    && latest;
                edges + spec.dram_input_bytes + if spared { 0 } else { spec.output_bytes }
            })
            .collect()
    }

    #[test]
    fn node_constants_equal_a_walk_of_the_graph() {
        let apps = paper_apps();
        // Write-backs spared per (platform, scheme), in loop order.
        let mut spared = Vec::new();
        for (platform, base) in [
            ("mobile", SocConfig::mobile(PolicyKind::Relief)),
            ("two-each", SocConfig::generic(vec![2; 7], PolicyKind::Relief)),
        ] {
            for dm in [DataMovePredictor::Max, DataMovePredictor::Predicted] {
                let cfg = SocConfig { dm_predictor: dm, ..base.clone() };
                let models = AppModel::table(&cfg, &apps);
                let mut count = 0;
                for (app, model) in apps.iter().zip(&models) {
                    assert_eq!(&*model.symbol, app.symbol);
                    let walked = walked_bytes(&cfg, app, model);
                    assert_eq!(model.dram_bytes, walked, "{platform} {dm:?} {}", app.symbol);
                    let dag = &app.dag;
                    let all_dram = |n: NodeId| dag.input_bytes(n) + dag.node(n).output_bytes;
                    count += dag.node_ids().filter(|&n| walked[n.index()] < all_dram(n)).count();
                }
                spared.push(count);
            }
        }
        // Max spares nothing; Predicted spares more with two instances
        // per type than with one.
        let [mobile_max, mobile_pred, two_max, two_pred] = spared[..] else {
            panic!("four cells, got {spared:?}");
        };
        assert_eq!(mobile_max + two_max, 0);
        assert!(mobile_pred > 0);
        assert!(two_pred > mobile_pred);
    }
}
