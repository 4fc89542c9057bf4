//! Data-movement predictors (§III-B "Memory time prediction").

use relief_dag::{Dag, DeadlineAssignment, NodeId};

/// Data-movement prediction scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataMovePredictor {
    /// Assume maximum data movement: every input edge and the output go
    /// through main memory. The paper's default (Observation 8).
    #[default]
    Max,
    /// Graph-analysis prediction: discount the predicted colocated edge and
    /// the write-back when all children are expected to forward.
    Predicted,
}

impl DataMovePredictor {
    /// Each node's predicted DRAM bytes under this scheme, in node order:
    /// its inputs ([`Dag::input_bytes`]) plus its output.
    ///
    /// Under [`Predicted`](DataMovePredictor::Predicted) the output is
    /// dropped when every child is predicted to forward it: the node has
    /// children, they fit distinct instances per accelerator type (type
    /// `t` has `instances[t]`), and the node is the latest parent of every
    /// child by its GEDF-N `deadlines`. The one in-edge predicted to
    /// colocate is known only at run time; the caller subtracts its bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// use relief_core::predict::DataMovePredictor;
    /// use relief_dag::{AccTypeId, DagBuilder, DagTiming, DeadlineAssignment, NodeSpec};
    /// use relief_sim::Dur;
    ///
    /// # fn main() -> Result<(), relief_dag::DagError> {
    /// // Two 64 KiB planes feed a kernel that writes a third.
    /// let plane = || NodeSpec::new(AccTypeId(0), Dur::from_us(10)).with_output_bytes(65_536);
    /// let mut b = DagBuilder::new("planes", Dur::from_ms(1));
    /// let (x, y, k) = (b.add_node(plane()), b.add_node(plane()), b.add_node(plane()));
    /// b.add_edge(x, k)?;
    /// b.add_edge(y, k)?;
    /// let dag = b.build()?;
    /// let deadlines = DeadlineAssignment::from_timing(&dag, &DagTiming::compute(&dag, |_| Dur::ZERO));
    /// let bytes = DataMovePredictor::Max.dram_bytes(&dag, &deadlines, &[1]);
    /// assert_eq!(bytes[k.index()], 3 * 65_536);
    /// // Three planes through DRAM at 6.458 GB/s: ~30.45us (Table I).
    /// let t = Dur::for_bytes(bytes[k.index()], 6_458_000_000);
    /// assert!((t.as_us_f64() - 30.45).abs() < 0.05);
    /// # Ok(())
    /// # }
    /// ```
    pub fn dram_bytes(
        self,
        dag: &Dag,
        deadlines: &DeadlineAssignment,
        instances: &[usize],
    ) -> Vec<u64> {
        dag.node_ids()
            .map(|n| {
                let spared = self == DataMovePredictor::Predicted
                    && all_children_forward(dag, deadlines, n, instances);
                dag.input_bytes(n) + if spared { 0 } else { dag.node(n).output_bytes }
            })
            .collect()
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
    use relief_dag::{AccTypeId, DagBuilder, DagTiming, NodeSpec};
    use relief_sim::Dur;

    const MAX: DataMovePredictor = DataMovePredictor::Max;
    const PRED: DataMovePredictor = DataMovePredictor::Predicted;

    /// A DAG of `(type, output bytes, DRAM-input bytes, runtime µs)`
    /// nodes joined by `edges`, with its critical-path deadlines.
    fn dag(nodes: &[(u32, u64, u64, u64)], edges: &[(u32, u32)]) -> (Dag, DeadlineAssignment) {
        let mut b = DagBuilder::new("t", Dur::from_ms(1));
        for &(acc, out, dram_in, _) in nodes {
            b.add_node(
                NodeSpec::new(AccTypeId(acc), Dur::from_us(1))
                    .with_output_bytes(out)
                    .with_dram_input_bytes(dram_in),
            );
        }
        for &(from, to) in edges {
            b.add_edge(NodeId(from), NodeId(to)).unwrap();
        }
        let dag = b.build().unwrap();
        let timing = DagTiming::compute(&dag, |n| Dur::from_us(nodes[n.index()].3));
        let deadlines = DeadlineAssignment::from_timing(&dag, &timing);
        (dag, deadlines)
    }

    #[test]
    fn max_counts_in_edges_dram_input_and_output() {
        // Node 2 reads a 100- and a 200-byte edge and 50 DRAM bytes and
        // writes 300; its child 3 is a leaf.
        let (g, d) = dag(
            &[(0, 100, 0, 1), (1, 200, 0, 1), (2, 300, 50, 1), (3, 40, 0, 1)],
            &[(0, 2), (1, 2), (2, 3)],
        );
        assert_eq!(MAX.dram_bytes(&g, &d, &[1; 4]), [100, 200, 650, 340]);
        // Predicted spares the outputs of 0, 1 and 2, whose children each
        // forward from them; the leaf keeps its output.
        assert_eq!(PRED.dram_bytes(&g, &d, &[1; 4]), [0, 0, 350, 340]);
    }

    #[test]
    fn a_leaf_keeps_its_output_under_both_schemes() {
        let (g, d) = dag(&[(0, 64, 8, 1)], &[]);
        for dm in [MAX, PRED] {
            assert_eq!(dm.dram_bytes(&g, &d, &[4]), [72], "{dm:?}");
        }
    }

    #[test]
    fn predicted_needs_children_that_fit_distinct_instances() {
        // Node 0 feeds two type-1 children.
        let (g, d) = dag(&[(0, 100, 0, 1), (1, 10, 0, 1), (1, 10, 0, 1)], &[(0, 1), (0, 2)]);
        assert_eq!(PRED.dram_bytes(&g, &d, &[1, 2])[0], 0);
        assert_eq!(PRED.dram_bytes(&g, &d, &[1, 1])[0], 100);
        assert_eq!(MAX.dram_bytes(&g, &d, &[1, 2])[0], 100);
    }

    #[test]
    fn predicted_needs_the_latest_parent() {
        // Node 2 joins parents 0 and 1; 0 also feeds the long node 3, so
        // its deadline comes first and only 1 is 2's latest parent.
        let (g, d) = dag(
            &[(0, 100, 0, 1), (1, 200, 0, 1), (2, 10, 0, 1), (3, 20, 0, 5)],
            &[(0, 2), (0, 3), (1, 2)],
        );
        assert!(d.node_deadline(NodeId(0)) < d.node_deadline(NodeId(1)));
        assert_eq!(PRED.dram_bytes(&g, &d, &[1; 4]), [100, 0, 310, 120]);
        // Without node 3 the deadlines tie, and a tie counts as latest.
        let (g, d) = dag(&[(0, 100, 0, 1), (1, 200, 0, 1), (2, 10, 0, 1)], &[(0, 2), (1, 2)]);
        assert_eq!(PRED.dram_bytes(&g, &d, &[1; 3]), [0, 0, 310]);
    }
}
