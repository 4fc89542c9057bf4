//! Memory-system energy model.
//!
//! The paper reports main-memory and scratchpad energy with gem5-SALAM's
//! models (Fig. 6, normalized to LAX). We substitute a standard
//! per-byte-dynamic plus static-power model; because the figure is
//! normalized, only the *ratios* between traffic mixes matter, and those are
//! preserved by any affine model of traffic.
//!
//! Default constants: LPDDR5 dynamic energy ≈ 4 pJ/bit = 32 pJ/B plus
//! ~55 mW of background/peripheral power per channel; on-chip SRAM
//! scratchpads ≈ 0.25 pJ/bit = 2 pJ/B plus a small leakage term for the
//! ~1.2 MB of total SPAD capacity.

use crate::stats::TrafficStats;
use relief_sim::Dur;

/// Energy model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// DRAM dynamic energy per byte transferred, picojoules.
    pub dram_pj_per_byte: f64,
    /// DRAM background power, milliwatts.
    pub dram_static_mw: f64,
    /// Scratchpad dynamic energy per byte accessed, picojoules.
    pub spad_pj_per_byte: f64,
    /// Total scratchpad leakage power, milliwatts.
    pub spad_static_mw: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            dram_pj_per_byte: 32.0,
            dram_static_mw: 55.0,
            spad_pj_per_byte: 2.0,
            spad_static_mw: 8.0,
        }
    }
}

/// Energy of one run, split by memory.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Main-memory energy in nanojoules.
    pub dram_nj: f64,
    /// Scratchpad energy in nanojoules.
    pub spad_nj: f64,
}

impl EnergyBreakdown {
    /// Combined memory-system energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.dram_nj + self.spad_nj
    }
}

impl EnergyModel {
    /// Creates the default model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Energy for `traffic` over an execution window of `exec_time`.
    pub fn energy(&self, traffic: &TrafficStats, exec_time: Dur) -> EnergyBreakdown {
        let secs = exec_time.as_secs_f64();
        // mW × s = mJ = 1e6 nJ.
        let dram_static_nj = self.dram_static_mw * secs * 1e6;
        let spad_static_nj = self.spad_static_mw * secs * 1e6;
        let dram_dyn_nj = self.dram_pj_per_byte * traffic.dram_bytes() as f64 / 1e3;
        let spad_dyn_nj = self.spad_pj_per_byte * traffic.spad_access_bytes as f64 / 1e3;
        EnergyBreakdown {
            dram_nj: dram_static_nj + dram_dyn_nj,
            spad_nj: spad_static_nj + spad_dyn_nj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_traffic_zero_time_is_zero() {
        let e = EnergyModel::new().energy(&TrafficStats::default(), Dur::ZERO);
        assert_eq!(e.total_nj(), 0.0);
    }

    #[test]
    fn dynamic_energy_scales_with_bytes() {
        let m = EnergyModel { dram_static_mw: 0.0, spad_static_mw: 0.0, ..EnergyModel::new() };
        let t1 = TrafficStats { dram_read_bytes: 1000, ..Default::default() };
        let t2 = TrafficStats { dram_read_bytes: 3000, ..Default::default() };
        let e1 = m.energy(&t1, Dur::from_us(1));
        let e2 = m.energy(&t2, Dur::from_us(1));
        assert!((e2.dram_nj / e1.dram_nj - 3.0).abs() < 1e-12);
        // 1000 B × 32 pJ/B = 32 nJ.
        assert!((e1.dram_nj - 32.0).abs() < 1e-12);
    }

    #[test]
    fn static_energy_scales_with_time() {
        let m = EnergyModel::new();
        let t = TrafficStats::default();
        let e = m.energy(&t, Dur::from_ms(1));
        // 55 mW for 1 ms = 55 uJ = 55_000 nJ.
        assert!((e.dram_nj - 55_000.0).abs() < 1e-9);
        assert!((e.spad_nj - 8_000.0).abs() < 1e-9);
    }

    #[test]
    fn spad_accesses_cost_less_per_byte_than_dram() {
        let m = EnergyModel::new();
        assert!(m.spad_pj_per_byte < m.dram_pj_per_byte);
    }
}
