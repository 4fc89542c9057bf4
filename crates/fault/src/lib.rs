//! Deterministic, seeded fault injection for the RELIEF simulator.
//!
//! [`FaultDomain`] is everything a run decides or counts about a fault.
//! The simulator (`relief-accel`'s `SocSim`) asks it for a verdict at
//! every point where hardware can misbehave and acts on the answer; the
//! domain keeps the retry budget, the outage schedules and the parked ECC
//! re-fetches, counts `FaultStats` and emits the eight fault trace events.
//!
//! The simulator's determinism contract requires that a fault campaign be
//! a pure function of its configuration: the same [`FaultConfig`] must
//! yield the same fault schedule whether the campaign runs on one worker
//! thread or sixteen, and regardless of the order in which the event loop
//! happens to interleave tasks. A mutable RNG threaded through the
//! simulation would break that — every extra draw would shift all later
//! decisions — so every verdict is *stateless*: a pure hash of `(seed,
//! fault domain, stable identity, attempt)`, folded through FNV-1a into a
//! [`SplitMix64`] stream and thresholded against the configured rate. Two
//! simulations asking the same question always get the same answer, and
//! questions never interact.
//!
//! The taxonomy (mirrors the trace events in `relief-trace`):
//!
//! * **Transient task fault** — a task's compute completes but its output
//!   is corrupt. The scheduler discards the output, restores the parents'
//!   reader counts, and re-queues the task after an exponential-backoff
//!   delay, up to [`FaultConfig::max_retries`] times; after that the task
//!   (and its DAG) is aborted.
//! * **DMA transfer fault** — an input transfer, forwarded or read from
//!   DRAM, delivers corrupt data. The transfer retries *from DRAM*: if
//!   the original source was a producer scratchpad, the forwarding window
//!   is lost. Delivery attempt `max_retries` never faults (the modeled
//!   fallback is a verified DRAM read), so every delivery terminates. A
//!   colocated input moves no data, so it cannot fault.
//! * **Accelerator-unit outage** — a unit goes offline on a deterministic
//!   MTTF-derived schedule: up-times uniform in `[mttf/2, 3·mttf/2]`,
//!   then a fixed repair time. It finishes its current task (quarantine
//!   is non-preemptive), is removed from the dispatch candidate set and
//!   from the forwarding source set, and rejoins when its restore fires.
//! * **DRAM-channel outage** — the main-memory channel blacks out on its
//!   own schedule, drawn like a unit's in a separate hash domain. No new
//!   DRAM-route chunk may start inside a blackout window; chunks already
//!   in flight complete. `FaultStats::channel_outages` counts the windows
//!   that delayed at least one chunk start.
//! * **Per-chunk ECC corruption** — one chunk of a *forwarded*
//!   (scratchpad-to-scratchpad) input transfer fails its ECC check; the
//!   verdict is keyed by `(seed, instance, node, parent, chunk,
//!   attempt)`. The consumer cancels the whole transfer (the bytes that
//!   already moved stay counted as forwarded traffic) and, after the same
//!   `retry_backoff_ps << attempt` backoff task retries use, re-reads the
//!   parent's full output from DRAM. Chunks of DRAM reads never draw an
//!   ECC verdict (the modeled DRAM path is ECC-verified end to end).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod domain;

pub use domain::{FaultDomain, Refetch, TaskFault};

use relief_sim::{fnv1a, SplitMix64};
use std::fmt;

/// Fault-injection knobs. The all-[`Default`] configuration injects
/// nothing and leaves the simulator's behaviour bit-identical to a build
/// without the fault layer.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault plan. Independent of the simulator's jitter seed
    /// so fault schedules can be swept without perturbing compute times.
    pub seed: u64,
    /// Probability that one task-compute attempt produces a corrupt
    /// output, in `[0, 1)`.
    pub task_fault_rate: f64,
    /// Probability that one input DMA transfer attempt delivers corrupt
    /// data, in `[0, 1)`.
    pub dma_fault_rate: f64,
    /// Retry budget per task and per transfer. Attempt indices are
    /// 0-based: a task may fault on attempts `0..=max_retries` and is
    /// aborted when attempt `max_retries` faults.
    pub max_retries: u32,
    /// Base re-dispatch delay after a task fault, in picoseconds; attempt
    /// `a` waits `retry_backoff_ps << a` (exponential backoff).
    pub retry_backoff_ps: u64,
    /// Mean time to failure of an accelerator unit, in picoseconds.
    /// `0` disables unit outages.
    pub unit_mttf_ps: u64,
    /// Repair (quarantine) duration of a failed unit, in picoseconds.
    pub unit_repair_ps: u64,
    /// Probability that one chunk of a forwarded (SPAD-to-SPAD) input
    /// transfer fails its ECC check, in `[0, 1)`. A corrupt chunk cancels
    /// the transfer and forces a backed-off re-fetch from DRAM.
    pub ecc_chunk_rate: f64,
    /// Mean time to failure of the DRAM channel, in picoseconds.
    /// `0` disables channel outages.
    pub dram_mttf_ps: u64,
    /// Blackout duration of a failed DRAM channel, in picoseconds.
    pub dram_repair_ps: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA57,
            task_fault_rate: 0.0,
            dma_fault_rate: 0.0,
            max_retries: 3,
            retry_backoff_ps: 2_000_000, // 2 us
            unit_mttf_ps: 0,
            unit_repair_ps: 400_000_000, // 400 us
            ecc_chunk_rate: 0.0,
            dram_mttf_ps: 0,
            dram_repair_ps: 50_000_000, // 50 us
        }
    }
}

/// A rejected [`FaultConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfigError(String);

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault config: {}", self.0)
    }
}

impl std::error::Error for FaultConfigError {}

impl FaultConfig {
    /// True when this configuration can inject at least one fault kind.
    /// When false, the simulator takes no fault-layer branches at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.task_fault_rate > 0.0
            || self.dma_fault_rate > 0.0
            || self.unit_mttf_ps > 0
            || self.ecc_chunk_rate > 0.0
            || self.dram_mttf_ps > 0
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultConfigError`] naming the offending knob when a
    /// rate is outside `[0, 1)` or non-finite, or an enabled outage model
    /// has a zero repair time.
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        for (name, rate) in [
            ("task_fault_rate", self.task_fault_rate),
            ("dma_fault_rate", self.dma_fault_rate),
            ("ecc_chunk_rate", self.ecc_chunk_rate),
        ] {
            if !rate.is_finite() || !(0.0..1.0).contains(&rate) {
                return Err(FaultConfigError(format!("{name} must be in [0, 1), got {rate}")));
            }
        }
        if self.unit_mttf_ps > 0 && self.unit_repair_ps == 0 {
            return Err(FaultConfigError(
                "unit_repair_ps must be nonzero when unit_mttf_ps is set".into(),
            ));
        }
        if self.dram_mttf_ps > 0 && self.dram_repair_ps == 0 {
            return Err(FaultConfigError(
                "dram_repair_ps must be nonzero when dram_mttf_ps is set".into(),
            ));
        }
        Ok(())
    }
}

/// Fault-decision domains, mixed into the hash so a task fault and a DMA
/// fault with the same numeric identity stay independent.
const DOMAIN_TASK: u8 = 1;
const DOMAIN_DMA: u8 = 2;
const DOMAIN_UNIT: u8 = 3;
const DOMAIN_CHANNEL: u8 = 4;
const DOMAIN_ECC: u8 = 5;

/// One scheduled outage window, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outage {
    /// When the unit or channel goes offline.
    down_ps: u64,
    /// When its restore event fires.
    up_ps: u64,
}

/// The deterministic outage schedule of one accelerator unit or of the
/// DRAM channel: an infinite iterator of non-overlapping [`Outage`]
/// windows. Up-times are uniform in `[mttf/2, 3*mttf/2]`, drawn from a
/// [`SplitMix64`] stream seeded by `(seed, hash domain, identity)`, so the
/// whole schedule is a pure function of them. Empty when `mttf_ps` is 0.
#[derive(Debug, Clone)]
struct OutageSchedule {
    rng: SplitMix64,
    at_ps: u64,
    mttf_ps: u64,
    repair_ps: u64,
}

impl OutageSchedule {
    fn new(seed: u64, domain: u8, id: u64, mttf_ps: u64, repair_ps: u64) -> Self {
        let mut bytes = [0u8; 17];
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        bytes[8] = domain;
        bytes[9..17].copy_from_slice(&id.to_le_bytes());
        OutageSchedule { rng: SplitMix64::new(fnv1a(&bytes)), at_ps: 0, mttf_ps, repair_ps }
    }
}

impl Iterator for OutageSchedule {
    type Item = Outage;

    fn next(&mut self) -> Option<Outage> {
        if self.mttf_ps == 0 {
            return None;
        }
        let half = (self.mttf_ps / 2).max(1);
        let up_time = self.rng.u64_inclusive(half, self.mttf_ps.saturating_add(half));
        let down_ps = self.at_ps.saturating_add(up_time.max(1));
        let up_ps = down_ps.saturating_add(self.repair_ps.max(1));
        self.at_ps = up_ps;
        Some(Outage { down_ps, up_ps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert_and_valid() {
        let cfg = FaultConfig::default();
        assert!(!cfg.enabled());
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_rates() {
        for bad in [-0.1, 1.0, 1.5, f64::NAN, f64::INFINITY] {
            let cfg = FaultConfig { task_fault_rate: bad, ..FaultConfig::default() };
            assert!(cfg.validate().is_err(), "rate {bad} must be rejected");
        }
        let cfg = FaultConfig { unit_mttf_ps: 10, unit_repair_ps: 0, ..FaultConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn memory_side_knobs_enable_and_validate() {
        let cfg = FaultConfig { ecc_chunk_rate: 0.01, ..FaultConfig::default() };
        assert!(cfg.enabled());
        cfg.validate().unwrap();
        let cfg = FaultConfig { dram_mttf_ps: 1_000_000, ..FaultConfig::default() };
        assert!(cfg.enabled());
        cfg.validate().unwrap();
        let bad = FaultConfig { ecc_chunk_rate: 1.0, ..FaultConfig::default() };
        assert!(bad.validate().is_err());
        let bad = FaultConfig { dram_mttf_ps: 10, dram_repair_ps: 0, ..FaultConfig::default() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn outage_windows_are_ordered_and_deterministic() {
        let schedule = |domain, id| OutageSchedule::new(0xFA57, domain, id, 10_000_000, 400_000);
        let a: Vec<Outage> = schedule(DOMAIN_UNIT, 3).take(16).collect();
        assert_eq!(a, schedule(DOMAIN_UNIT, 3).take(16).collect::<Vec<_>>());
        let mut last = 0;
        for w in &a {
            assert!(w.down_ps > last, "windows must be strictly ordered");
            assert!(w.up_ps > w.down_ps);
            last = w.up_ps;
        }
        // Other units and the channel's hash domain get other schedules.
        assert_ne!(a, schedule(DOMAIN_UNIT, 4).take(16).collect::<Vec<_>>());
        assert_ne!(a, schedule(DOMAIN_CHANNEL, 3).take(16).collect::<Vec<_>>());
        // A zero MTTF yields nothing.
        assert_eq!(OutageSchedule::new(1, DOMAIN_UNIT, 0, 0, 1).next(), None);
    }
}
