//! Memory-system configuration (Table VI).

/// Interconnect topology between accelerators and memory.
///
/// The paper evaluates both ends of the cost/performance spectrum
/// (§V-H, Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterconnectKind {
    /// Full-duplex shared bus, 16 B wide, 14.9 GB/s peak per direction.
    #[default]
    Bus,
    /// Crossbar switch: up to n×m concurrent transactions; contention only
    /// at source/destination ports.
    Crossbar,
}

/// Memory-system parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Effective DRAM channel bandwidth in bytes/second.
    ///
    /// Calibrated from Table I: `canny-non-max` moves 3 × 65 536 B in
    /// 30.45 µs ⇒ ≈6.46 GB/s, about half of the LPDDR5-6400 channel peak of
    /// 12.8 GB/s (typical LPDDR efficiency).
    pub dram_bandwidth: u64,
    /// Interconnect lane / port bandwidth in bytes/second (Table VI:
    /// 14.9 GB/s).
    pub interconnect_bandwidth: u64,
    /// Per-accelerator DMA engine bandwidth in bytes/second. Matches the
    /// interconnect so the DMA is never an artificial bottleneck.
    pub dma_bandwidth: u64,
    /// Transfer chunk granularity in bytes; smaller chunks interleave
    /// concurrent transfers more fairly at the cost of more events.
    pub chunk_bytes: u64,
    /// Topology.
    pub interconnect: InterconnectKind,
}

impl MemConfig {
    /// Effective DRAM bandwidth implied by Table I (bytes/second).
    pub const DEFAULT_DRAM_BW: u64 = 6_458_000_000;
    /// Table VI bus peak bandwidth (bytes/second).
    pub const DEFAULT_ICN_BW: u64 = 14_900_000_000;
    /// Default chunk granularity (bytes).
    pub const DEFAULT_CHUNK: u64 = 4096;

    /// Configuration with a crossbar instead of the default bus.
    pub fn with_crossbar(mut self) -> Self {
        self.interconnect = InterconnectKind::Crossbar;
        self
    }

    /// Validates invariants the transfer engine relies on.
    ///
    /// # Panics
    ///
    /// Panics if any bandwidth or the chunk size is zero.
    pub fn validate(&self) {
        assert!(self.dram_bandwidth > 0, "dram bandwidth must be positive");
        assert!(self.interconnect_bandwidth > 0, "interconnect bandwidth must be positive");
        assert!(self.dma_bandwidth > 0, "dma bandwidth must be positive");
        assert!(self.chunk_bytes > 0, "chunk size must be positive");
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            dram_bandwidth: Self::DEFAULT_DRAM_BW,
            interconnect_bandwidth: Self::DEFAULT_ICN_BW,
            dma_bandwidth: Self::DEFAULT_ICN_BW,
            chunk_bytes: Self::DEFAULT_CHUNK,
            interconnect: InterconnectKind::Bus,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_vi_calibration() {
        let c = MemConfig::default();
        assert_eq!(c.dram_bandwidth, 6_458_000_000);
        assert_eq!(c.interconnect_bandwidth, 14_900_000_000);
        assert_eq!(c.interconnect, InterconnectKind::Bus);
        c.validate();
    }

    #[test]
    fn crossbar_builder() {
        assert_eq!(MemConfig::default().with_crossbar().interconnect, InterconnectKind::Crossbar);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        MemConfig { chunk_bytes: 0, ..Default::default() }.validate();
    }

    #[test]
    fn calibration_reproduces_table_i_memory_time() {
        // Three 128x128x4 planes through DRAM at the calibrated bandwidth
        // should take ~30.45us (canny-non-max / elem-matrix in Table I).
        use relief_sim::Dur;
        let t = Dur::for_bytes(3 * 65_536, MemConfig::default().dram_bandwidth);
        let us = t.as_us_f64();
        assert!((us - 30.45).abs() < 0.05, "got {us}");
    }
}
