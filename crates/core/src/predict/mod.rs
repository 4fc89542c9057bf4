//! Execution-time prediction (§III-B).
//!
//! RELIEF's laxity bookkeeping needs an estimate of each node's runtime at
//! ready-queue insertion time. The paper predicts compute time and memory
//! time separately:
//!
//! * **Compute**: fixed-function accelerators have data-independent control
//!   flow, so compute time is a function of (input size, operation) and can
//!   be profiled once ([`profile_compute`]).
//! * **Memory** = predicted data movement / predicted bandwidth.
//!   [`BandwidthPredictor`] offers the paper's four schemes (Max, Last,
//!   Average over n, EWMA). [`DataMovePredictor`] offers Max (everything
//!   through DRAM) and the graph-analysis scheme that discounts predicted
//!   colocations and all-children-forward write-backs. Both are fixed by
//!   the graph and the platform but for the one in-edge predicted at run
//!   time to colocate, so [`DataMovePredictor::dram_bytes`] resolves each
//!   node's bytes once and the simulator subtracts that edge's bytes.
//!
//! Observation 8 of the paper: RELIEF's results are insensitive to the
//! predictor choice, so the Max predictors are the default everywhere.

mod bandwidth;
mod datamove;

pub use bandwidth::BandwidthPredictor;
pub use datamove::DataMovePredictor;

use relief_dag::{AccTypeId, Dag};
use relief_sim::Dur;
use std::collections::HashMap;

/// Boot-time compute profiling (§III-B "Compute time prediction"): each
/// DAG's predicted compute time per node, in node order.
///
/// Fixed-function accelerators have data-independent control flow, so
/// the paper profiles each kernel once and reports a mean prediction
/// error of 0.03 % (Observation 7, Table VIII). Here the first node seen
/// for an (accelerator type, label) pair, walking `dags` in order and each
/// DAG in node order, sets that pair's prediction; later nodes never
/// overwrite it. Unlabeled nodes share one pair per accelerator type.
///
/// # Examples
///
/// ```
/// use relief_core::predict::profile_compute;
/// use relief_dag::{AccTypeId, DagBuilder, NodeSpec};
/// use relief_sim::Dur;
///
/// # fn main() -> Result<(), relief_dag::DagError> {
/// let mut b = DagBuilder::new("pair", Dur::from_ms(1));
/// b.add_node(NodeSpec::new(AccTypeId(1), Dur::from_us(20)).with_label("conv5x5"));
/// b.add_node(NodeSpec::new(AccTypeId(1), Dur::from_us(30)).with_label("conv5x5"));
/// let dag = b.build()?;
/// // The second conv5x5 is predicted at the first one's 20us.
/// assert_eq!(profile_compute([&dag]), [[Dur::from_us(20), Dur::from_us(20)]]);
/// # Ok(())
/// # }
/// ```
pub fn profile_compute<'a>(dags: impl IntoIterator<Item = &'a Dag>) -> Vec<Vec<Dur>> {
    let mut first: HashMap<(AccTypeId, &str), Dur> = HashMap::new();
    dags.into_iter()
        .map(|dag| {
            dag.nodes()
                .iter()
                .map(|spec| *first.entry((spec.acc, spec.label.as_str())).or_insert(spec.compute))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relief_dag::{DagBuilder, NodeSpec};

    /// A DAG of unconnected nodes, one per `(type, label, compute µs)`.
    fn dag(nodes: &[(u32, &str, u64)]) -> Dag {
        let mut b = DagBuilder::new("t", Dur::from_ms(1));
        for &(acc, label, us) in nodes {
            b.add_node(NodeSpec::new(AccTypeId(acc), Dur::from_us(us)).with_label(label));
        }
        b.build().unwrap()
    }

    fn us(times: &[u64]) -> Vec<Dur> {
        times.iter().map(|&t| Dur::from_us(t)).collect()
    }

    #[test]
    fn the_first_observation_of_a_pair_wins() {
        let a = dag(&[
            (0, "conv", 20),
            (0, "conv", 30),
            (1, "conv", 5),
            (0, "", 7),
            (1, "", 9),
            (0, "", 8),
        ]);
        let b = dag(&[(0, "conv", 40), (1, "", 11), (0, "pool", 3), (0, "pool", 4)]);
        // Within `a`, the second conv and the second unlabeled type-0 node
        // take their pair's first time; `b` reads `a`'s pairs and never
        // overwrites them.
        assert_eq!(profile_compute([&a, &b]), [us(&[20, 20, 5, 7, 9, 7]), us(&[20, 9, 3, 3])]);
        // Profiled first, `b` sets the shared pairs instead.
        assert_eq!(profile_compute([&b, &a]), [us(&[40, 11, 3, 3]), us(&[40, 40, 5, 7, 11, 7])]);
        assert_eq!(profile_compute([&a]), [us(&[20, 20, 5, 7, 9, 7])]);
    }
}
