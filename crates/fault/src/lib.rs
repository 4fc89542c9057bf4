//! Deterministic, seeded fault injection for the RELIEF simulator.
//!
//! The simulator's determinism contract requires that a fault campaign be
//! a pure function of its configuration: the same [`FaultConfig`] must
//! yield the same fault schedule whether the campaign runs on one worker
//! thread or sixteen, and regardless of the order in which the event loop
//! happens to interleave tasks. A mutable RNG threaded through the
//! simulation would break that — every extra draw would shift all later
//! decisions — so [`FaultPlan`] makes every decision *stateless*: each
//! fault verdict is a pure hash of `(seed, fault domain, stable identity,
//! attempt)`, folded through FNV-1a into a [`SplitMix64`] stream and
//! thresholded against the configured rate. Two simulations asking the
//! same question always get the same answer, and questions never interact.
//!
//! The taxonomy (mirrors the trace events in `relief-trace`):
//!
//! * **Transient task fault** — a task's compute completes but its output
//!   is corrupt. The scheduler discards the output, restores the parents'
//!   reader counts, and re-queues the task after an exponential-backoff
//!   delay, up to [`FaultConfig::max_retries`] times; after that the task
//!   (and its DAG) is aborted.
//! * **DMA transfer fault** — an input transfer delivers corrupt data.
//!   The transfer retries *from DRAM*: if the original source was a
//!   producer scratchpad, the forwarding window is considered lost. After
//!   `max_retries` the engine falls back to a verified (ECC-checked) DRAM
//!   read that always succeeds, keeping every transfer bounded.
//! * **Accelerator-unit outage** — a unit goes offline on a deterministic
//!   MTTF-derived schedule. It finishes its current task (quarantine is
//!   non-preemptive), is removed from the dispatch candidate set and from
//!   the forwarding source set, and rejoins when its restore fires.
//! * **DRAM-channel outage** — the main-memory channel blacks out on its
//!   own MTTF-derived schedule (same stateless seeding as unit outages,
//!   separate hash domain). No new chunk may begin service inside a
//!   blackout window; chunks already in flight complete.
//! * **Per-chunk ECC corruption** — one chunk of a *forwarded*
//!   (scratchpad-to-scratchpad) input transfer fails its ECC check. The
//!   whole transfer is cancelled, the forwarding window is considered
//!   invalidated, and the edge re-fetches from DRAM after the same
//!   bounded exponential backoff task retries use. Chunks of DRAM reads
//!   never fault (the modeled DRAM path is ECC-verified end to end), so
//!   every edge delivery terminates.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

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

/// One scheduled unit outage window, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// When the unit goes offline.
    pub down_ps: u64,
    /// When its restore event fires.
    pub up_ps: u64,
}

/// The deterministic outage schedule of one accelerator unit: an infinite
/// iterator of non-overlapping [`Outage`] windows. Up-times are uniform in
/// `[mttf/2, 3*mttf/2]`, drawn from a per-unit [`SplitMix64`] stream, so
/// the whole schedule is a pure function of `(seed, unit index)`.
#[derive(Debug, Clone)]
pub struct OutageSchedule {
    rng: SplitMix64,
    at_ps: u64,
    mttf_ps: u64,
    repair_ps: u64,
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

/// A fault plan: stateless, order-independent fault decisions derived from
/// a [`FaultConfig`].
///
/// # Examples
///
/// ```
/// use relief_fault::{FaultConfig, FaultPlan};
///
/// let cfg = FaultConfig { task_fault_rate: 0.5, ..FaultConfig::default() };
/// let a = FaultPlan::new(cfg.clone());
/// let b = FaultPlan::new(cfg);
/// // Decisions are pure functions of (config, identity, attempt):
/// for node in 0..64 {
///     assert_eq!(a.task_faults(0, node, 0), b.task_faults(0, node, 0));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Builds a plan over `cfg`.
    #[must_use]
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg }
    }

    /// The underlying configuration.
    #[must_use]
    pub fn cfg(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True when any fault kind can fire.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// The stateless coin flip: hash `(seed, domain, a, b)` into a
    /// SplitMix64 stream and threshold its first uniform draw.
    fn decide(&self, domain: u8, a: u64, b: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let mut bytes = [0u8; 25];
        bytes[..8].copy_from_slice(&self.cfg.seed.to_le_bytes());
        bytes[8] = domain;
        bytes[9..17].copy_from_slice(&a.to_le_bytes());
        bytes[17..25].copy_from_slice(&b.to_le_bytes());
        SplitMix64::new(fnv1a(&bytes)).chance(rate)
    }

    /// Whether compute attempt `attempt` of task `(instance, node)`
    /// produces a corrupt output.
    #[must_use]
    pub fn task_faults(&self, instance: u32, node: u32, attempt: u32) -> bool {
        self.decide(
            DOMAIN_TASK,
            (u64::from(instance) << 32) | u64::from(node),
            u64::from(attempt),
            self.cfg.task_fault_rate,
        )
    }

    /// Whether delivery attempt `attempt` of the input transfer into task
    /// `(instance, node)` from `parent` (the parent's node index, or
    /// [`u32::MAX`] for a primary DRAM input) is corrupt. Attempts at or
    /// beyond [`FaultConfig::max_retries`] never fault — the modeled
    /// fallback is a verified DRAM read — so transfers stay bounded.
    #[must_use]
    pub fn dma_faults(&self, instance: u32, node: u32, parent: u32, attempt: u32) -> bool {
        if attempt >= self.cfg.max_retries {
            return false;
        }
        self.decide(
            DOMAIN_DMA,
            (u64::from(instance) << 32) | u64::from(node),
            (u64::from(parent) << 32) | u64::from(attempt),
            self.cfg.dma_fault_rate,
        )
    }

    /// Whether chunk `chunk` of delivery attempt `attempt` of the
    /// forwarded input transfer into task `(instance, node)` from `parent`
    /// fails its ECC check. Attempts at or beyond
    /// [`FaultConfig::max_retries`] never fault (the fallback DRAM read is
    /// ECC-verified), so edge deliveries stay bounded. The chunk index is
    /// folded in at 24 bits and the attempt at 8, which covers every
    /// transfer the simulator models (chunks are 4 KiB, payloads well
    /// under 64 GiB, retry budgets single-digit).
    #[must_use]
    pub fn ecc_chunk_faults(
        &self,
        instance: u32,
        node: u32,
        parent: u32,
        chunk: u32,
        attempt: u32,
    ) -> bool {
        if attempt >= self.cfg.max_retries {
            return false;
        }
        self.decide(
            DOMAIN_ECC,
            (u64::from(instance) << 32) | u64::from(node),
            (u64::from(parent) << 32)
                | (u64::from(chunk & 0x00FF_FFFF) << 8)
                | u64::from(attempt & 0xFF),
            self.cfg.ecc_chunk_rate,
        )
    }

    /// Re-dispatch delay after fault number `attempt` of a task, in
    /// picoseconds: exponential backoff with a shift cap so the delay
    /// saturates instead of overflowing.
    #[must_use]
    pub fn backoff_ps(&self, attempt: u32) -> u64 {
        self.cfg.retry_backoff_ps.saturating_mul(1u64 << attempt.min(16))
    }

    /// The outage schedule of accelerator unit `inst`. Empty (yields
    /// nothing) when outages are disabled.
    #[must_use]
    pub fn outages(&self, inst: u32) -> OutageSchedule {
        OutageSchedule {
            rng: SplitMix64::new(fnv1a(&{
                let mut bytes = [0u8; 17];
                bytes[..8].copy_from_slice(&self.cfg.seed.to_le_bytes());
                bytes[8] = DOMAIN_UNIT;
                bytes[9..17].copy_from_slice(&u64::from(inst).to_le_bytes());
                bytes
            })),
            at_ps: 0,
            mttf_ps: self.cfg.unit_mttf_ps,
            repair_ps: self.cfg.unit_repair_ps,
        }
    }

    /// The blackout schedule of the DRAM channel: an infinite iterator of
    /// non-overlapping windows, seeded exactly like unit outages but in
    /// its own hash domain. Empty when channel outages are disabled.
    #[must_use]
    pub fn channel_outages(&self) -> OutageSchedule {
        OutageSchedule {
            rng: SplitMix64::new(fnv1a(&{
                let mut bytes = [0u8; 17];
                bytes[..8].copy_from_slice(&self.cfg.seed.to_le_bytes());
                bytes[8] = DOMAIN_CHANNEL;
                bytes[9..17].copy_from_slice(&0u64.to_le_bytes());
                bytes
            })),
            at_ps: 0,
            mttf_ps: self.cfg.dram_mttf_ps,
            repair_ps: self.cfg.dram_repair_ps,
        }
    }

    /// A canonical, byte-comparable rendering of the fault schedule over
    /// `insts` accelerator units and task/DMA identities up to
    /// `(instances, nodes)`: the determinism tests compare two plans'
    /// digests byte for byte.
    #[must_use]
    pub fn schedule_digest(&self, insts: u32, instances: u32, nodes: u32) -> String {
        let mut out = String::new();
        for i in 0..insts {
            out.push_str(&format!("unit{i}:"));
            for w in self.outages(i).take(8) {
                out.push_str(&format!(" {}..{}", w.down_ps, w.up_ps));
            }
            out.push('\n');
        }
        if self.cfg.dram_mttf_ps > 0 {
            out.push_str("channel:");
            for w in self.channel_outages().take(8) {
                out.push_str(&format!(" {}..{}", w.down_ps, w.up_ps));
            }
            out.push('\n');
        }
        for d in 0..instances {
            for n in 0..nodes {
                for attempt in 0..=self.cfg.max_retries {
                    if self.task_faults(d, n, attempt) {
                        out.push_str(&format!("task d{d}:n{n} a{attempt}\n"));
                    }
                    if self.dma_faults(d, n, u32::MAX, attempt) {
                        out.push_str(&format!("dma d{d}:n{n} dram a{attempt}\n"));
                    }
                    if self.cfg.ecc_chunk_rate > 0.0 && self.ecc_chunk_faults(d, n, 0, 0, attempt)
                    {
                        out.push_str(&format!("ecc d{d}:n{n} c0 a{attempt}\n"));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty() -> FaultConfig {
        FaultConfig {
            task_fault_rate: 0.3,
            dma_fault_rate: 0.2,
            unit_mttf_ps: 10_000_000,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn default_config_is_inert_and_valid() {
        let cfg = FaultConfig::default();
        assert!(!cfg.enabled());
        cfg.validate().unwrap();
        let plan = FaultPlan::new(cfg);
        for n in 0..100 {
            assert!(!plan.task_faults(0, n, 0));
            assert!(!plan.dma_faults(0, n, u32::MAX, 0));
        }
        assert_eq!(plan.outages(0).next(), None);
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
    fn decisions_are_pure_and_order_independent() {
        let a = FaultPlan::new(faulty());
        let b = FaultPlan::new(faulty());
        // Query b in reverse order: answers must still match a's.
        let keys: Vec<(u32, u32, u32)> =
            (0..4).flat_map(|d| (0..16).map(move |n| (d, n, d % 3))).collect();
        let fwd: Vec<bool> = keys.iter().map(|&(d, n, a_)| a.task_faults(d, n, a_)).collect();
        let rev: Vec<bool> =
            keys.iter().rev().map(|&(d, n, a_)| b.task_faults(d, n, a_)).collect();
        assert_eq!(fwd, rev.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn rates_roughly_respected() {
        let plan = FaultPlan::new(FaultConfig { task_fault_rate: 0.25, ..FaultConfig::default() });
        let hits = (0..4000).filter(|&n| plan.task_faults(0, n, 0)).count();
        assert!((800..1200).contains(&hits), "0.25 rate produced {hits}/4000 faults");
    }

    #[test]
    fn domains_are_independent() {
        let plan = FaultPlan::new(FaultConfig {
            task_fault_rate: 0.5,
            dma_fault_rate: 0.5,
            ..FaultConfig::default()
        });
        let task: Vec<bool> = (0..256).map(|n| plan.task_faults(0, n, 0)).collect();
        let dma: Vec<bool> = (0..256).map(|n| plan.dma_faults(0, n, 0, 0)).collect();
        assert_ne!(task, dma, "task and DMA domains must not alias");
    }

    #[test]
    fn dma_fallback_never_faults() {
        let cfg = FaultConfig { dma_fault_rate: 0.999, max_retries: 2, ..FaultConfig::default() };
        let plan = FaultPlan::new(cfg);
        for n in 0..100 {
            assert!(!plan.dma_faults(0, n, 0, 2), "attempt == max_retries must succeed");
        }
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        let plan = FaultPlan::new(FaultConfig { retry_backoff_ps: 100, ..FaultConfig::default() });
        assert_eq!(plan.backoff_ps(0), 100);
        assert_eq!(plan.backoff_ps(1), 200);
        assert_eq!(plan.backoff_ps(3), 800);
        assert!(plan.backoff_ps(u32::MAX) >= plan.backoff_ps(16));
    }

    #[test]
    fn outage_windows_are_ordered_and_deterministic() {
        let plan = FaultPlan::new(faulty());
        let a: Vec<Outage> = plan.outages(3).take(16).collect();
        let b: Vec<Outage> = FaultPlan::new(faulty()).outages(3).take(16).collect();
        assert_eq!(a, b);
        let mut last = 0;
        for w in &a {
            assert!(w.down_ps > last, "windows must be strictly ordered");
            assert!(w.up_ps > w.down_ps);
            last = w.up_ps;
        }
        // Different units get different schedules.
        let c: Vec<Outage> = plan.outages(4).take(16).collect();
        assert_ne!(a, c);
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
    fn ecc_verdicts_are_pure_bounded_and_chunk_sensitive() {
        let cfg = FaultConfig { ecc_chunk_rate: 0.5, max_retries: 2, ..FaultConfig::default() };
        let a = FaultPlan::new(cfg.clone());
        let b = FaultPlan::new(cfg);
        let fwd: Vec<bool> = (0..256).map(|c| a.ecc_chunk_faults(1, 2, 0, c, 0)).collect();
        let again: Vec<bool> = (0..256).map(|c| b.ecc_chunk_faults(1, 2, 0, c, 0)).collect();
        assert_eq!(fwd, again, "ECC verdicts must be pure functions of identity");
        assert!(fwd.iter().any(|&v| v), "rate 0.5 over 256 chunks must corrupt something");
        assert!(!fwd.iter().all(|&v| v));
        // The fallback attempt never faults, so re-fetches terminate.
        for c in 0..256 {
            assert!(!a.ecc_chunk_faults(1, 2, 0, c, 2));
        }
        // Distinct chunks of one transfer get independent verdicts.
        let other_attempt: Vec<bool> =
            (0..256).map(|c| a.ecc_chunk_faults(1, 2, 0, c, 1)).collect();
        assert_ne!(fwd, other_attempt, "attempts must not alias");
    }

    #[test]
    fn channel_outages_are_deterministic_and_distinct_from_units() {
        let cfg = FaultConfig {
            unit_mttf_ps: 10_000_000,
            dram_mttf_ps: 10_000_000,
            dram_repair_ps: 1_000_000,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(cfg.clone());
        let a: Vec<Outage> = plan.channel_outages().take(16).collect();
        let b: Vec<Outage> = FaultPlan::new(cfg).channel_outages().take(16).collect();
        assert_eq!(a, b);
        let mut last = 0;
        for w in &a {
            assert!(w.down_ps > last && w.up_ps > w.down_ps);
            last = w.up_ps;
        }
        // The channel schedule must not alias accelerator unit 0's.
        let unit0: Vec<u64> = plan.outages(0).take(16).map(|w| w.down_ps).collect();
        let chan: Vec<u64> = a.iter().map(|w| w.down_ps).collect();
        assert_ne!(unit0, chan, "channel and unit outage domains must differ");
        // Disabled channel outages yield nothing.
        assert_eq!(FaultPlan::new(FaultConfig::default()).channel_outages().next(), None);
    }

    #[test]
    fn digest_is_seed_sensitive() {
        let a = FaultPlan::new(faulty()).schedule_digest(4, 4, 32);
        let b = FaultPlan::new(faulty()).schedule_digest(4, 4, 32);
        assert_eq!(a, b);
        let other = FaultPlan::new(FaultConfig { seed: 0xDEAD, ..faulty() });
        assert_ne!(a, other.schedule_digest(4, 4, 32));
    }
}
