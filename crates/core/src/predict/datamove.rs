//! Data-movement predictors (§III-B "Memory time prediction").

/// What one node is expected to move, as the manager can tell from graph
/// shape and node states at ready-queue insertion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataMoveQuery<'a> {
    /// Bytes carried by each in-edge (the producer's output size).
    pub parent_edge_bytes: &'a [u64],
    /// Bytes always read from main memory (root inputs, weights).
    pub dram_input_bytes: u64,
    /// Bytes this node writes to its output buffer.
    pub output_bytes: u64,
    /// In-edge predicted to be satisfied by colocation, if any: of a set of
    /// newly ready siblings, the child with the earliest deadline is
    /// predicted to colocate with the parent when they share an accelerator
    /// type (§III-B). A colocated edge moves no bytes.
    pub colocated_parent_edge: Option<usize>,
    /// True when every child is predicted to forward from this node — all
    /// children map to distinct idle-capable accelerators and this node is
    /// their latest-finishing parent — in which case the output write-back
    /// to main memory is skipped.
    pub all_children_forward: bool,
}

/// Expected byte movement split by path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataMoveEstimate {
    /// Bytes expected to cross the DRAM channel.
    pub dram_bytes: u64,
    /// Bytes expected to move scratchpad-to-scratchpad.
    pub forwarded_bytes: u64,
}

impl DataMoveEstimate {
    /// All bytes the node is expected to move.
    pub fn total(&self) -> u64 {
        self.dram_bytes + self.forwarded_bytes
    }
}

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
    /// Scheme name as used in Table VIII / Fig. 11.
    pub fn name(&self) -> &'static str {
        match self {
            DataMovePredictor::Max => "Max",
            DataMovePredictor::Predicted => "Pred. DM",
        }
    }

    /// Expected movement for `query` under this scheme.
    pub fn estimate(&self, query: &DataMoveQuery<'_>) -> DataMoveEstimate {
        let all_edges: u64 = query.parent_edge_bytes.iter().sum();
        match self {
            DataMovePredictor::Max => DataMoveEstimate {
                dram_bytes: all_edges + query.dram_input_bytes + query.output_bytes,
                forwarded_bytes: 0,
            },
            DataMovePredictor::Predicted => {
                let colocated: u64 = query
                    .colocated_parent_edge
                    .and_then(|i| query.parent_edge_bytes.get(i).copied())
                    .unwrap_or(0);
                let output = if query.all_children_forward { 0 } else { query.output_bytes };
                DataMoveEstimate {
                    dram_bytes: all_edges - colocated + query.dram_input_bytes + output,
                    forwarded_bytes: 0,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> DataMoveQuery<'static> {
        DataMoveQuery {
            parent_edge_bytes: &[100, 200],
            dram_input_bytes: 50,
            output_bytes: 300,
            colocated_parent_edge: None,
            all_children_forward: false,
        }
    }

    #[test]
    fn max_counts_everything() {
        let e = DataMovePredictor::Max.estimate(&query());
        assert_eq!(e.dram_bytes, 650);
        assert_eq!(e.forwarded_bytes, 0);
        assert_eq!(e.total(), 650);
    }

    #[test]
    fn predicted_discounts_colocated_edge() {
        let mut q = query();
        q.colocated_parent_edge = Some(1);
        let e = DataMovePredictor::Predicted.estimate(&q);
        assert_eq!(e.dram_bytes, 450); // 200-byte edge eliminated
    }

    #[test]
    fn predicted_discounts_forwarded_output() {
        let mut q = query();
        q.all_children_forward = true;
        let e = DataMovePredictor::Predicted.estimate(&q);
        assert_eq!(e.dram_bytes, 350); // 300-byte write-back skipped
    }

    #[test]
    fn out_of_range_colocation_index_is_ignored() {
        let mut q = query();
        q.colocated_parent_edge = Some(9);
        let e = DataMovePredictor::Predicted.estimate(&q);
        assert_eq!(e.dram_bytes, 650);
    }

    #[test]
    fn max_ignores_hints() {
        let mut q = query();
        q.colocated_parent_edge = Some(0);
        q.all_children_forward = true;
        assert_eq!(DataMovePredictor::Max.estimate(&q).dram_bytes, 650);
    }

    #[test]
    fn names() {
        assert_eq!(DataMovePredictor::Max.name(), "Max");
        assert_eq!(DataMovePredictor::Predicted.name(), "Pred. DM");
    }
}
