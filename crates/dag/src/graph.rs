//! Immutable task-graph types.

use relief_sim::Dur;
use std::fmt;

/// Identifier of an accelerator *type* (e.g. `convolution`, `elem-matrix`).
///
/// The DAG layer treats types as opaque resource classes; the accelerator
/// crate maps them to concrete models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccTypeId(pub u32);

impl fmt::Display for AccTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acc{}", self.0)
    }
}

/// Index of a node within one [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position in [`Dag::nodes`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Static description of one task, mirroring the paper's `struct node`
/// (Table III) minus the runtime bookkeeping fields, which live in the
/// simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Accelerator type this task must run on.
    pub acc: AccTypeId,
    /// Pure compute time of the task on its accelerator (profiled; the paper
    /// shows fixed-function accelerator compute time is a deterministic
    /// function of input size and operation — Observation 7).
    pub compute: Dur,
    /// Bytes this task writes to its output buffer; every out-edge carries
    /// this many bytes to the consumer.
    pub output_bytes: u64,
    /// Bytes this task always reads from main memory in addition to its
    /// parent edges (root images, weight matrices, per-iteration constants).
    pub dram_input_bytes: u64,
    /// Human-readable kernel label (e.g. `"conv5x5"`, `"sigmoid"`).
    pub label: String,
}

impl NodeSpec {
    /// Creates a task for accelerator type `acc` with the given compute
    /// time, no output, and no extra DRAM input.
    pub fn new(acc: AccTypeId, compute: Dur) -> Self {
        NodeSpec { acc, compute, output_bytes: 0, dram_input_bytes: 0, label: String::new() }
    }

    /// Sets the output-buffer size in bytes.
    pub fn with_output_bytes(mut self, bytes: u64) -> Self {
        self.output_bytes = bytes;
        self
    }

    /// Sets extra always-from-DRAM input bytes.
    pub fn with_dram_input_bytes(mut self, bytes: u64) -> Self {
        self.dram_input_bytes = bytes;
        self
    }

    /// Sets the kernel label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// Flattened compressed-sparse-row adjacency: `targets[offsets[i]..offsets[i+1]]`
/// is row `i`. One contiguous allocation per direction instead of one `Vec`
/// per node, so the simulator's per-event parent/child walks are pure slice
/// reads with no pointer chasing and nothing to clone.
///
/// Within each row the targets keep the edge *insertion* order of the
/// builder — transfer issue order in the simulator depends on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CsrAdjacency {
    pub(crate) offsets: Vec<u32>,
    pub(crate) targets: Vec<NodeId>,
}

impl CsrAdjacency {
    /// Flattens per-node rows into CSR form, preserving row order.
    pub(crate) fn from_rows(rows: &[Vec<NodeId>]) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut targets = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        offsets.push(0);
        for row in rows {
            targets.extend_from_slice(row);
            offsets.push(targets.len() as u32);
        }
        CsrAdjacency { offsets, targets }
    }

    pub(crate) fn row(&self, i: usize) -> &[NodeId] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// A validated, immutable task graph with a relative deadline.
///
/// Construct through [`DagBuilder`](crate::DagBuilder), which guarantees
/// acyclicity and edge validity. Nodes are stored in insertion order;
/// [`Dag::topological_order`](crate::analysis) is computed on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    pub(crate) name: String,
    pub(crate) relative_deadline: Dur,
    pub(crate) nodes: Vec<NodeSpec>,
    pub(crate) parents: CsrAdjacency,
    pub(crate) children: CsrAdjacency,
    pub(crate) edge_count: usize,
}

impl Dag {
    /// Application name (e.g. `"canny"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Relative deadline of the whole DAG (e.g. 16.6 ms at 60 FPS).
    pub fn relative_deadline(&self) -> Dur {
        self.relative_deadline
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a graph with no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The static description of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: NodeId) -> &NodeSpec {
        &self.nodes[node.index()]
    }

    /// All node specs in id order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Ids of all nodes, in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Parents of `node` (tasks whose output it consumes), in edge
    /// insertion order.
    pub fn parents(&self, node: NodeId) -> &[NodeId] {
        self.parents.row(node.index())
    }

    /// Children of `node` (tasks that consume its output), in edge
    /// insertion order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        self.children.row(node.index())
    }

    /// Nodes with no parents (ready as soon as the DAG arrives).
    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| self.parents(n).is_empty())
    }

    /// Nodes with no children (their completion completes the DAG).
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| self.children(n).is_empty())
    }

    /// Bytes `node` reads over its in-edges plus its always-DRAM input.
    pub fn input_bytes(&self, node: NodeId) -> u64 {
        let from_parents: u64 =
            self.parents(node).iter().map(|&p| self.node(p).output_bytes).sum();
        from_parents + self.node(node).dram_input_bytes
    }

    /// Total bytes moved if every load and store goes to main memory:
    /// every edge is written once and read once, every root/extra input is
    /// read, and every output is written.
    ///
    /// This is the normalization base of the paper's Fig. 5.
    pub fn total_bytes_no_forwarding(&self) -> u64 {
        self.node_ids()
            .map(|n| self.input_bytes(n) + self.node(n).output_bytes)
            .sum()
    }

    /// Sum of compute time over all nodes (Table II "Compute" column).
    pub fn total_compute(&self) -> Dur {
        self.nodes.iter().map(|n| n.compute).sum()
    }

    /// Number of distinct accelerator types used.
    pub fn distinct_acc_types(&self) -> usize {
        let mut types: Vec<AccTypeId> = self.nodes.iter().map(|n| n.acc).collect();
        types.sort_unstable();
        types.dedup();
        types.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagBuilder;

    fn diamond() -> Dag {
        // a -> b, a -> c, b -> d, c -> d
        let mut b = DagBuilder::new("diamond", Dur::from_us(100));
        let a = b.add_node(NodeSpec::new(AccTypeId(0), Dur::from_us(1)).with_output_bytes(10));
        let n1 = b.add_node(NodeSpec::new(AccTypeId(1), Dur::from_us(2)).with_output_bytes(20));
        let n2 = b.add_node(NodeSpec::new(AccTypeId(1), Dur::from_us(3)).with_output_bytes(30));
        let d = b.add_node(
            NodeSpec::new(AccTypeId(0), Dur::from_us(4))
                .with_output_bytes(40)
                .with_dram_input_bytes(5),
        );
        b.add_edge(a, n1).unwrap();
        b.add_edge(a, n2).unwrap();
        b.add_edge(n1, d).unwrap();
        b.add_edge(n2, d).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn structure_queries() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.roots().collect::<Vec<_>>(), vec![NodeId(0)]);
        assert_eq!(g.leaves().collect::<Vec<_>>(), vec![NodeId(3)]);
        assert_eq!(g.parents(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.children(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.distinct_acc_types(), 2);
    }

    #[test]
    fn byte_accounting() {
        let g = diamond();
        // d reads b(20) + c(30) + 5 extra = 55.
        assert_eq!(g.input_bytes(NodeId(3)), 55);
        // No-forwarding total: a(0 in + 10 out) + b(10+20) + c(10+30) + d(55+40).
        assert_eq!(g.total_bytes_no_forwarding(), 10 + 30 + 40 + 95);
    }

    #[test]
    fn compute_total() {
        assert_eq!(diamond().total_compute(), Dur::from_us(10));
    }

    #[test]
    fn spec_builder_chain() {
        let s = NodeSpec::new(AccTypeId(7), Dur::from_ns(5))
            .with_output_bytes(1)
            .with_dram_input_bytes(2)
            .with_label("conv5x5");
        assert_eq!(s.acc, AccTypeId(7));
        assert_eq!(s.output_bytes, 1);
        assert_eq!(s.dram_input_bytes, 2);
        assert_eq!(s.label, "conv5x5");
    }

    #[test]
    fn csr_rows_preserve_insertion_order_and_handle_empty_rows() {
        let rows = vec![
            vec![NodeId(3), NodeId(1)],
            vec![],
            vec![NodeId(0)],
            vec![],
        ];
        let csr = CsrAdjacency::from_rows(&rows);
        assert_eq!(csr.offsets, vec![0, 2, 2, 3, 3]);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(csr.row(i), row.as_slice());
        }
    }

    #[test]
    fn display_impls() {
        assert_eq!(AccTypeId(3).to_string(), "acc3");
        assert_eq!(NodeId(12).to_string(), "n12");
    }
}
