//! Open-loop streaming frontend for the RELIEF simulator.
//!
//! Every experiment in the paper is a closed, finite scenario: a fixed DAG
//! set is released at t = 0 and the simulation drains. This crate turns
//! the simulator into a *service*: per-tenant request streams emit DAG
//! instances under a configurable arrival process, an admission controller
//! (token bucket per tenant plus a global in-flight cap with QoS-class
//! headroom) decides which requests enter the SoC, and the steady-state
//! metrics layer in `relief-metrics` reports tail latency and goodput
//! under sustained load.
//!
//! [`Frontend`] is a streamed request's whole life outside the SoC: it
//! numbers arrivals, passes them through each tenant's circuit breaker
//! and admission control, decides timeouts and hedged relaunches, keeps
//! the per-class `ServiceStats` and emits the service trace events. The
//! simulator (`relief-accel`'s `SocSim`) releases and cancels the DAG
//! instances it asks for, and nothing else.
//!
//! The determinism contract extends `relief-fault`'s: arrivals must be a
//! pure function of the configuration, identical at any campaign
//! parallelism and independent of event-loop interleaving. A mutable RNG
//! threaded through the simulation would break that, so every
//! inter-arrival draw is *stateless*: the gap in front of arrival `index`
//! of `tenant` is derived from a [`SplitMix64`] stream seeded by the
//! FNV-1a hash of `(stream_seed, tenant, index)`. Bursty processes
//! (MMPP on/off, replayed diurnal traces) are generated by Lewis–Shedler
//! thinning at the peak rate, with every accept/reject draw taken from
//! that same per-index stream — still a pure function of the identity.
//!
//! Admission state (bucket levels, the in-flight count) and the breakers
//! *are* stateful, but they evolve inside a single simulation's event loop
//! in deterministic event order, so service runs stay byte-identical
//! across `--jobs` levels exactly like fault verdicts do.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod frontend;

pub use frontend::{Arrival, Frontend};
pub use relief_trace::QosClass;

use relief_sim::{fnv1a, SplitMix64};
use relief_trace::ShedCause;
use std::fmt;

/// Hash domain for inter-arrival draws, mixed into the identity so a
/// future domain (e.g. per-request payload sizing) cannot alias arrivals.
const DOMAIN_ARRIVAL: u8 = 1;

/// Hash domain for half-open circuit-breaker probe admission.
const DOMAIN_PROBE: u8 = 2;

/// Hash domain for hedged-retry launch decisions.
const DOMAIN_HEDGE: u8 = 3;

/// Thinning-draw budget per arrival. Long off-phases of a bursty process
/// reject many candidate points; the bound keeps a pathological
/// configuration from spinning while staying far above any realistic
/// draw count (a 100 % off trace would need rate · off_len draws).
const MAX_THINNING_DRAWS: u32 = 1 << 16;

/// Picoseconds per second, the unit conversion for `*_per_s` rates.
const PS_PER_S: f64 = 1e12;

/// The shape of one tenant's request stream over simulated time.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Fixed-period arrivals at exactly the tenant rate.
    Deterministic,
    /// Memoryless arrivals: exponential inter-arrival times.
    Poisson,
    /// Markov-modulated on/off bursts: during the first
    /// `on_fraction` of every `cycle_ps` window the instantaneous rate is
    /// `burst ×` the tenant rate; outside it the stream is silent. The
    /// mean rate is `rate · burst · on_fraction`.
    Mmpp {
        /// Rate multiplier inside a burst (≥ 1).
        burst: f64,
        /// Fraction of each cycle that is bursting, in `(0, 1]`.
        on_fraction: f64,
        /// Burst cycle period, picoseconds.
        cycle_ps: u64,
    },
    /// A replayed load trace: `phases[i]` is the rate multiplier during
    /// the `i`-th window of `phase_ps`, wrapping around (a compressed
    /// diurnal curve).
    Diurnal {
        /// Rate multipliers per phase (≥ 0, at least one > 0).
        phases: Vec<f64>,
        /// Phase duration, picoseconds.
        phase_ps: u64,
    },
}

impl ArrivalProcess {
    /// Stable short name, used in platform labels and CLI flags.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Deterministic => "det",
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Mmpp { .. } => "mmpp",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        }
    }

    /// Parses a process name as written by [`ArrivalProcess::name`],
    /// using the default parameters for the bursty shapes (MMPP: 4× burst,
    /// 25 % duty, 1 ms cycle; diurnal: a 0.25/1.0/2.0/0.5 curve over
    /// 500 µs phases).
    ///
    /// # Errors
    ///
    /// Returns the offending string on an unknown name.
    pub fn parse(s: &str) -> Result<ArrivalProcess, String> {
        match s {
            "det" | "deterministic" => Ok(ArrivalProcess::Deterministic),
            "poisson" => Ok(ArrivalProcess::Poisson),
            "mmpp" => Ok(ArrivalProcess::Mmpp {
                burst: 4.0,
                on_fraction: 0.25,
                cycle_ps: 1_000_000_000, // 1 ms
            }),
            "diurnal" => Ok(ArrivalProcess::Diurnal {
                phases: vec![0.25, 1.0, 2.0, 0.5],
                phase_ps: 500_000_000, // 500 us
            }),
            other => Err(format!("unknown arrival process '{other}'")),
        }
    }
}

/// One tenant of the service: a request stream bound to one application
/// template (the `SocSim` workload's app spec at the same index).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantCfg {
    /// The tenant's QoS class.
    pub qos: QosClass,
    /// Mean request rate, arrivals per simulated second. `0` silences the
    /// tenant.
    pub rate_per_s: f64,
}

impl TenantCfg {
    /// A tenant with `rate_per_s` arrivals per second in `qos`.
    #[must_use]
    pub fn new(qos: QosClass, rate_per_s: f64) -> Self {
        TenantCfg { qos, rate_per_s }
    }
}

/// Admission-control knobs. The all-[`Default`] configuration admits
/// everything (no bucket, no cap).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdmissionConfig {
    /// Token-bucket refill rate per tenant, tokens per simulated second.
    /// `0` disables the bucket check.
    pub bucket_rate_per_s: f64,
    /// Token-bucket capacity (burst size) per tenant, in tokens.
    pub bucket_burst: f64,
    /// Global cap on admitted-but-unfinished DAG instances. Priority
    /// admission keeps headroom for the more critical classes: `Latency`
    /// may fill all of it, `Standard` 85 % and `BestEffort` 60 %. `0`
    /// disables the cap.
    pub max_in_flight: u32,
}

/// Self-healing knobs: per-tenant circuit breakers, deadline-aware
/// request timeouts, and a hedged-retry budget per QoS class. The
/// all-[`Default`] configuration is off and takes no simulator branches.
///
/// All stochastic decisions (half-open probe admission, hedge launches)
/// are pure hashes of `(stream seed, domain, tenant, identity)`, so
/// campaigns stay byte-identical at any `--jobs`. [`Frontend`] applies
/// these knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfHealConfig {
    /// Consecutive request failures that trip a tenant's breaker open. A
    /// failure is a timeout or an abort; every completion is a success,
    /// late or not. `0` disables the breaker.
    pub breaker_failures: u32,
    /// How long an open breaker sheds everything before entering
    /// half-open, picoseconds.
    pub breaker_open_ps: u64,
    /// Probability a half-open arrival is admitted as a probe, in
    /// `(0, 1]` when the breaker is enabled.
    pub probe_rate: f64,
    /// Consecutive probe successes that close a half-open breaker.
    pub probes_to_close: u32,
    /// Request timeout as a multiple of the app's relative deadline
    /// (timeout = factor × deadline, from admission). `0` disables
    /// timeouts (and with them hedging).
    pub timeout_factor: f64,
    /// Maximum hedged replacement attempts per request, per QoS class
    /// (indexed like `QosClass::index`).
    pub hedge_budget: [u32; 3],
    /// Probability a timed-out request with remaining budget is hedged,
    /// in `[0, 1]`.
    pub hedge_rate: f64,
}

impl Default for SelfHealConfig {
    fn default() -> Self {
        SelfHealConfig {
            breaker_failures: 0,
            breaker_open_ps: 0,
            probe_rate: 1.0,
            probes_to_close: 1,
            timeout_factor: 0.0,
            hedge_budget: [0; 3],
            hedge_rate: 1.0,
        }
    }
}

impl SelfHealConfig {
    /// True when any self-healing mechanism can change a run.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.breaker_enabled() || self.timeouts_enabled()
    }

    /// True when the circuit breaker can trip.
    #[must_use]
    pub fn breaker_enabled(&self) -> bool {
        self.breaker_failures > 0
    }

    /// True when request timeouts (and thus hedges) can fire.
    #[must_use]
    pub fn timeouts_enabled(&self) -> bool {
        self.timeout_factor > 0.0
    }
}

/// Open-loop streaming knobs. The all-[`Default`] configuration is
/// disabled and leaves the simulator's behaviour bit-identical to a build
/// without the service layer (the closed-loop schedule).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Seed of the arrival plan. Independent of the simulator's jitter
    /// seed and the fault seed, so arrival schedules sweep independently.
    pub seed: u64,
    /// Request-generation horizon, picoseconds: no arrival is scheduled
    /// past it (admitted work still drains). `0` disables streaming.
    pub duration_ps: u64,
    /// Warm-up truncation, picoseconds: latency/sojourn samples completed
    /// before this time are excluded from the steady-state histograms.
    pub warmup_ps: u64,
    /// The arrival process shared by every tenant.
    pub process: ArrivalProcess,
    /// One stream per tenant; tenant `t` instantiates the workload's app
    /// spec at index `t`.
    pub tenants: Vec<TenantCfg>,
    /// Admission control; default admits everything.
    pub admission: AdmissionConfig,
    /// Self-healing (breakers, timeouts, hedges); default off.
    pub self_heal: SelfHealConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            seed: 0xFEED,
            duration_ps: 0,
            warmup_ps: 0,
            process: ArrivalProcess::Poisson,
            tenants: Vec::new(),
            admission: AdmissionConfig::default(),
            self_heal: SelfHealConfig::default(),
        }
    }
}

/// A rejected [`StreamConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfigError(String);

impl fmt::Display for StreamConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid stream config: {}", self.0)
    }
}

impl std::error::Error for StreamConfigError {}

impl StreamConfig {
    /// True when this configuration generates at least one tenant's
    /// stream. When false, the simulator takes no service-layer branches
    /// at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.duration_ps > 0 && self.tenants.iter().any(|t| t.rate_per_s > 0.0)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`StreamConfigError`] naming the offending knob: a
    /// non-finite or negative rate, a warm-up longer than the duration,
    /// out-of-range burst parameters, an empty or all-zero diurnal trace,
    /// or an enabled token bucket that can never hold a whole token.
    pub fn validate(&self) -> Result<(), StreamConfigError> {
        for (i, t) in self.tenants.iter().enumerate() {
            if !t.rate_per_s.is_finite() || t.rate_per_s < 0.0 {
                return Err(StreamConfigError(format!(
                    "tenant {i} rate_per_s must be finite and >= 0, got {}",
                    t.rate_per_s
                )));
            }
        }
        if self.warmup_ps > self.duration_ps {
            return Err(StreamConfigError(format!(
                "warmup_ps ({}) must not exceed duration_ps ({})",
                self.warmup_ps, self.duration_ps
            )));
        }
        match &self.process {
            ArrivalProcess::Deterministic | ArrivalProcess::Poisson => {}
            ArrivalProcess::Mmpp { burst, on_fraction, cycle_ps } => {
                if !burst.is_finite() || *burst < 1.0 {
                    return Err(StreamConfigError(format!(
                        "mmpp burst must be finite and >= 1, got {burst}"
                    )));
                }
                if !on_fraction.is_finite() || !(0.0..=1.0).contains(on_fraction)
                    || *on_fraction == 0.0
                {
                    return Err(StreamConfigError(format!(
                        "mmpp on_fraction must be in (0, 1], got {on_fraction}"
                    )));
                }
                if *cycle_ps == 0 {
                    return Err(StreamConfigError("mmpp cycle_ps must be nonzero".into()));
                }
            }
            ArrivalProcess::Diurnal { phases, phase_ps } => {
                if phases.is_empty() {
                    return Err(StreamConfigError("diurnal trace must not be empty".into()));
                }
                for (i, m) in phases.iter().enumerate() {
                    if !m.is_finite() || *m < 0.0 {
                        return Err(StreamConfigError(format!(
                            "diurnal phase {i} must be finite and >= 0, got {m}"
                        )));
                    }
                }
                if phases.iter().all(|&m| m == 0.0) {
                    return Err(StreamConfigError(
                        "diurnal trace needs at least one nonzero phase".into(),
                    ));
                }
                if *phase_ps == 0 {
                    return Err(StreamConfigError("diurnal phase_ps must be nonzero".into()));
                }
            }
        }
        let adm = &self.admission;
        if !adm.bucket_rate_per_s.is_finite() || adm.bucket_rate_per_s < 0.0 {
            return Err(StreamConfigError(format!(
                "bucket_rate_per_s must be finite and >= 0, got {}",
                adm.bucket_rate_per_s
            )));
        }
        if !adm.bucket_burst.is_finite() || adm.bucket_burst < 0.0 {
            return Err(StreamConfigError(format!(
                "bucket_burst must be finite and >= 0, got {}",
                adm.bucket_burst
            )));
        }
        if adm.bucket_rate_per_s > 0.0 && adm.bucket_burst < 1.0 {
            return Err(StreamConfigError(
                "an enabled token bucket needs bucket_burst >= 1".into(),
            ));
        }
        let heal = &self.self_heal;
        if heal.breaker_enabled() {
            if heal.breaker_open_ps == 0 {
                return Err(StreamConfigError(
                    "an enabled breaker needs breaker_open_ps > 0".into(),
                ));
            }
            if !heal.probe_rate.is_finite() || !(0.0..=1.0).contains(&heal.probe_rate)
                || heal.probe_rate == 0.0
            {
                return Err(StreamConfigError(format!(
                    "probe_rate must be in (0, 1], got {}",
                    heal.probe_rate
                )));
            }
            if heal.probes_to_close == 0 {
                return Err(StreamConfigError(
                    "an enabled breaker needs probes_to_close >= 1".into(),
                ));
            }
        }
        if !heal.timeout_factor.is_finite() || heal.timeout_factor < 0.0 {
            return Err(StreamConfigError(format!(
                "timeout_factor must be finite and >= 0, got {}",
                heal.timeout_factor
            )));
        }
        if !heal.hedge_rate.is_finite() || !(0.0..=1.0).contains(&heal.hedge_rate) {
            return Err(StreamConfigError(format!(
                "hedge_rate must be in [0, 1], got {}",
                heal.hedge_rate
            )));
        }
        if heal.hedge_budget.iter().any(|&b| b > 0) && !heal.timeouts_enabled() {
            return Err(StreamConfigError(
                "hedge_budget needs timeout_factor > 0 (hedges launch on timeouts)".into(),
            ));
        }
        Ok(())
    }
}

/// An arrival plan: stateless, order-independent inter-arrival draws
/// derived from a [`StreamConfig`].
///
/// # Examples
///
/// ```
/// use relief_service::{ArrivalProcess, StreamConfig, StreamPlan, TenantCfg, QosClass};
///
/// let cfg = StreamConfig {
///     duration_ps: 1_000_000_000,
///     tenants: vec![TenantCfg::new(QosClass::Latency, 10_000.0)],
///     ..StreamConfig::default()
/// };
/// let a = StreamPlan::new(cfg.clone());
/// let b = StreamPlan::new(cfg);
/// // Arrival times are pure functions of (config, tenant, index):
/// for index in 0..16 {
///     assert_eq!(a.arrival_ps(0, index), b.arrival_ps(0, index));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct StreamPlan {
    cfg: StreamConfig,
}

impl StreamPlan {
    /// Builds a plan over `cfg`.
    #[must_use]
    pub fn new(cfg: StreamConfig) -> Self {
        StreamPlan { cfg }
    }

    /// The underlying configuration.
    #[must_use]
    pub fn cfg(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The per-identity stateless draw stream: a [`SplitMix64`] seeded by
    /// FNV-1a over `(seed, domain, tenant, index)`.
    fn draw(&self, domain: u8, tenant: u32, index: u64) -> SplitMix64 {
        let mut bytes = [0u8; 25];
        bytes[..8].copy_from_slice(&self.cfg.seed.to_le_bytes());
        bytes[8] = domain;
        bytes[9..17].copy_from_slice(&u64::from(tenant).to_le_bytes());
        bytes[17..25].copy_from_slice(&index.to_le_bytes());
        SplitMix64::new(fnv1a(&bytes))
    }

    /// The per-arrival stateless draw stream (arrival domain).
    fn stream(&self, tenant: u32, index: u64) -> SplitMix64 {
        self.draw(DOMAIN_ARRIVAL, tenant, index)
    }

    /// Whether a half-open breaker admits arrival `index` of `tenant` as
    /// a probe — a pure hash of the identity, independent of event order.
    fn probe_admit(&self, tenant: u32, index: u64) -> bool {
        let rate = self.cfg.self_heal.probe_rate;
        rate >= 1.0 || self.draw(DOMAIN_PROBE, tenant, index).f64_unit() < rate
    }

    /// Whether the timed-out `attempt` of request `index` of `tenant` is
    /// relaunched as a hedge (budget permitting) — a pure hash of the
    /// identity. The attempt is folded into the index word so successive
    /// hedges of one request draw independently.
    fn hedge_launch(&self, tenant: u32, index: u64, attempt: u32) -> bool {
        let rate = self.cfg.self_heal.hedge_rate;
        rate >= 1.0
            || self
                .draw(DOMAIN_HEDGE, tenant, (index << 8) | u64::from(attempt & 0xFF))
                .f64_unit()
                < rate
    }

    /// Instantaneous rate multiplier of the modulated processes at `t`;
    /// `1.0` for the unmodulated ones.
    #[must_use]
    pub fn rate_multiplier(&self, at_ps: u64) -> f64 {
        match &self.cfg.process {
            ArrivalProcess::Deterministic | ArrivalProcess::Poisson => 1.0,
            ArrivalProcess::Mmpp { burst, on_fraction, cycle_ps } => {
                let phase = at_ps % *cycle_ps;
                if (phase as f64) < on_fraction * (*cycle_ps as f64) { *burst } else { 0.0 }
            }
            ArrivalProcess::Diurnal { phases, phase_ps } => {
                let idx = (at_ps / *phase_ps) as usize % phases.len();
                phases[idx]
            }
        }
    }

    /// Peak rate multiplier of the configured process (the thinning
    /// envelope).
    fn peak_multiplier(&self) -> f64 {
        match &self.cfg.process {
            ArrivalProcess::Deterministic | ArrivalProcess::Poisson => 1.0,
            ArrivalProcess::Mmpp { burst, .. } => *burst,
            ArrivalProcess::Diurnal { phases, .. } => {
                phases.iter().copied().fold(0.0, f64::max)
            }
        }
    }

    /// The gap in front of arrival `index` of `tenant`, in picoseconds,
    /// given the previous arrival happened at `from_ps` (`0` for
    /// `index == 0`). `None` when the tenant is silent. Pure in
    /// `(seed, tenant, index, from_ps)` — and `from_ps` is itself the
    /// deterministic sum of the earlier gaps, so the whole schedule is a
    /// pure function of the configuration.
    #[must_use]
    pub fn gap_ps(&self, tenant: u32, index: u64, from_ps: u64) -> Option<u64> {
        let rate = self.cfg.tenants.get(tenant as usize)?.rate_per_s;
        if rate <= 0.0 {
            return None;
        }
        match &self.cfg.process {
            ArrivalProcess::Deterministic => {
                Some(((PS_PER_S / rate).round() as u64).max(1))
            }
            ArrivalProcess::Poisson => {
                let mut rng = self.stream(tenant, index);
                Some(exp_gap_ps(rate, rng.f64_unit()))
            }
            ArrivalProcess::Mmpp { .. } | ArrivalProcess::Diurnal { .. } => {
                // Lewis–Shedler thinning at the peak rate: candidate
                // points arrive as a Poisson process at `rate × peak`;
                // each is kept with probability m(t) / peak. All draws
                // come from the one per-(tenant, index) stream, so the
                // accepted point is still a pure function of the identity.
                let peak = self.peak_multiplier();
                let mut rng = self.stream(tenant, index);
                let mut t = from_ps;
                for _ in 0..MAX_THINNING_DRAWS {
                    t = t.saturating_add(exp_gap_ps(rate * peak, rng.f64_unit()));
                    let m = self.rate_multiplier(t);
                    if m >= peak || rng.f64_unit() * peak < m {
                        return Some(t - from_ps);
                    }
                }
                Some(t - from_ps)
            }
        }
    }

    /// Absolute arrival time of instance `index` of `tenant` (the prefix
    /// sum of its gaps), ignoring the duration horizon. `None` when the
    /// tenant is silent. O(index) — the simulator tracks arrivals
    /// incrementally; this form exists for tests.
    #[must_use]
    pub fn arrival_ps(&self, tenant: u32, index: u64) -> Option<u64> {
        let mut at = 0u64;
        for i in 0..=index {
            at = at.saturating_add(self.gap_ps(tenant, i, at)?);
        }
        Some(at)
    }

}

/// Inverse-CDF exponential draw: the gap to the next Poisson event at
/// `rate_per_s`, in whole picoseconds (≥ 1 so time always advances).
fn exp_gap_ps(rate_per_s: f64, unit: f64) -> u64 {
    // `unit` is in [0, 1); 1 - unit is in (0, 1], so ln is finite.
    let gap = -(1.0 - unit).ln() * PS_PER_S / rate_per_s;
    (gap.round() as u64).max(1)
}

/// One tenant's token bucket, refilled lazily on each decision.
#[derive(Debug, Clone)]
struct TokenBucket {
    tokens: f64,
    last_refill_ps: u64,
}

/// The admission controller's mutable state: per-tenant token buckets and
/// the global in-flight count. Evolves in simulation-event order inside
/// one run; never shared across runs.
#[derive(Debug, Clone)]
struct AdmissionState {
    cfg: AdmissionConfig,
    buckets: Vec<TokenBucket>,
    in_flight: u32,
}

/// Fraction of the global in-flight cap `class` may fill before it is
/// capacity-shed: priority admission keeps headroom free for more
/// critical classes when the SoC saturates.
fn capacity_share(class: QosClass) -> f64 {
    match class {
        QosClass::Latency => 1.0,
        QosClass::Standard => 0.85,
        QosClass::BestEffort => 0.6,
    }
}

impl AdmissionState {
    /// Fresh state for `cfg`'s tenants: buckets start full.
    fn new(cfg: &StreamConfig) -> Self {
        AdmissionState {
            cfg: cfg.admission.clone(),
            buckets: cfg
                .tenants
                .iter()
                .map(|_| TokenBucket { tokens: cfg.admission.bucket_burst, last_refill_ps: 0 })
                .collect(),
            in_flight: 0,
        }
    }

    /// True when `class`'s share of the in-flight cap has a free slot.
    fn has_room(&self, class: QosClass) -> bool {
        let cap = self.cfg.max_in_flight;
        cap == 0 || self.in_flight < ((f64::from(cap) * capacity_share(class)) as u32).max(1)
    }

    /// Decides arrival admission at `now_ps` for `tenant` in `class`,
    /// consuming a token and an in-flight slot on success, or naming the
    /// check that sheds the request.
    fn try_admit(&mut self, now_ps: u64, tenant: usize, class: QosClass) -> Result<(), ShedCause> {
        if !self.has_room(class) {
            return Err(ShedCause::Capacity);
        }
        if self.cfg.bucket_rate_per_s > 0.0 {
            if let Some(b) = self.buckets.get_mut(tenant) {
                let elapsed = now_ps.saturating_sub(b.last_refill_ps);
                b.last_refill_ps = now_ps;
                b.tokens = (b.tokens + elapsed as f64 * self.cfg.bucket_rate_per_s / PS_PER_S)
                    .min(self.cfg.bucket_burst);
                if b.tokens < 1.0 {
                    return Err(ShedCause::Bucket);
                }
                b.tokens -= 1.0;
            }
        }
        self.in_flight += 1;
        Ok(())
    }

    /// Claims an in-flight slot directly, bypassing the token bucket: the
    /// hedged-retry path. A hedge replaces a request that already paid a
    /// token on first admission, so only the class capacity share gates
    /// it. Returns `false` (claiming nothing) when the share is full.
    fn try_occupy(&mut self, class: QosClass) -> bool {
        if !self.has_room(class) {
            return false;
        }
        self.in_flight += 1;
        true
    }

    /// Releases one in-flight slot (instance completed or aborted).
    fn release(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }
}

// The plan and its config cross campaign-worker boundaries.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StreamConfig>();
    assert_send_sync::<StreamPlan>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn streaming(process: ArrivalProcess) -> StreamConfig {
        StreamConfig {
            duration_ps: 10_000_000_000, // 10 ms
            warmup_ps: 1_000_000_000,
            process,
            tenants: vec![
                TenantCfg::new(QosClass::Latency, 50_000.0),
                TenantCfg::new(QosClass::BestEffort, 50_000.0),
            ],
            ..StreamConfig::default()
        }
    }

    #[test]
    fn default_config_is_inert_and_valid() {
        let cfg = StreamConfig::default();
        assert!(!cfg.enabled());
        cfg.validate().unwrap();
        let plan = StreamPlan::new(cfg);
        assert_eq!(plan.gap_ps(0, 0, 0), None);
        assert_eq!(plan.arrival_ps(0, 0), None);
        // A zero-rate tenant keeps the stream disabled even with a
        // duration: rate → 0 degenerates to the closed-loop schedule.
        let zeroed = StreamConfig {
            duration_ps: 1_000_000,
            tenants: vec![TenantCfg::new(QosClass::Standard, 0.0)],
            ..StreamConfig::default()
        };
        assert!(!zeroed.enabled());
        assert_eq!(StreamPlan::new(zeroed).gap_ps(0, 0, 0), None);
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let cfg = StreamConfig {
                tenants: vec![TenantCfg::new(QosClass::Latency, bad)],
                ..StreamConfig::default()
            };
            assert!(cfg.validate().is_err(), "rate {bad} must be rejected");
        }
        let cfg = StreamConfig { warmup_ps: 10, duration_ps: 5, ..StreamConfig::default() };
        assert!(cfg.validate().is_err());
        let cfg = StreamConfig {
            process: ArrivalProcess::Mmpp { burst: 0.5, on_fraction: 0.25, cycle_ps: 100 },
            ..StreamConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = StreamConfig {
            process: ArrivalProcess::Diurnal { phases: vec![0.0, 0.0], phase_ps: 100 },
            ..StreamConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = StreamConfig {
            admission: AdmissionConfig {
                bucket_rate_per_s: 100.0,
                bucket_burst: 0.5,
                max_in_flight: 0,
            },
            ..StreamConfig::default()
        };
        assert!(cfg.validate().is_err());
        let msg = cfg.validate().unwrap_err().to_string();
        assert!(msg.starts_with("invalid stream config: "), "{msg}");
    }

    #[test]
    fn arrivals_are_pure_and_order_independent() {
        for process in [
            ArrivalProcess::Deterministic,
            ArrivalProcess::Poisson,
            ArrivalProcess::parse("mmpp").unwrap(),
            ArrivalProcess::parse("diurnal").unwrap(),
        ] {
            let a = StreamPlan::new(streaming(process.clone()));
            let b = StreamPlan::new(streaming(process.clone()));
            let fwd: Vec<_> = (0..32).map(|i| a.arrival_ps(0, i)).collect();
            let rev: Vec<_> = (0..32).rev().map(|i| b.arrival_ps(0, i)).collect();
            assert_eq!(
                fwd,
                rev.into_iter().rev().collect::<Vec<_>>(),
                "{} arrivals must be order independent",
                process.name()
            );
            // Arrival times strictly increase.
            for w in fwd.windows(2) {
                assert!(w[0].unwrap() < w[1].unwrap(), "{}: {fwd:?}", process.name());
            }
        }
    }

    #[test]
    fn deterministic_process_is_exactly_periodic() {
        let plan = StreamPlan::new(streaming(ArrivalProcess::Deterministic));
        // 50 000/s → 20 us = 20 000 000 ps period.
        assert_eq!(plan.arrival_ps(0, 0), Some(20_000_000));
        assert_eq!(plan.arrival_ps(0, 4), Some(100_000_000));
    }

    #[test]
    fn poisson_mean_gap_roughly_matches_rate() {
        let plan = StreamPlan::new(streaming(ArrivalProcess::Poisson));
        let n = 4000u64;
        let last = plan.arrival_ps(0, n - 1).unwrap();
        let mean = last as f64 / n as f64;
        // Expected 20 us mean gap; allow ±10 %.
        assert!(
            (18_000_000.0..22_000_000.0).contains(&mean),
            "mean gap {mean} ps off the 20 us target"
        );
    }

    #[test]
    fn mmpp_arrivals_land_in_on_windows() {
        let process = ArrivalProcess::Mmpp {
            burst: 4.0,
            on_fraction: 0.25,
            cycle_ps: 1_000_000_000,
        };
        let plan = StreamPlan::new(streaming(process));
        let mut at = 0u64;
        for i in 0..200 {
            at = at + plan.gap_ps(0, i, at).unwrap();
            let phase = at % 1_000_000_000;
            assert!(
                phase < 250_000_000,
                "arrival {i} at {at} ps fell in the off window (phase {phase})"
            );
        }
    }

    #[test]
    fn diurnal_phases_modulate_rate() {
        let process = ArrivalProcess::Diurnal {
            phases: vec![0.0, 2.0],
            phase_ps: 1_000_000_000,
        };
        let plan = StreamPlan::new(streaming(process));
        // Phase 0 is silent: every arrival must land in an odd window.
        let mut at = 0u64;
        for i in 0..100 {
            at = at + plan.gap_ps(0, i, at).unwrap();
            assert_eq!((at / 1_000_000_000) % 2, 1, "arrival {i} at {at} in silent phase");
        }
    }

    #[test]
    fn arrival_schedule_is_seed_and_tenant_sensitive() {
        // The first 16 arrivals of each of two tenants.
        let schedule = |plan: &StreamPlan| -> Vec<Vec<Option<u64>>> {
            (0..2).map(|t| (0..16).map(|i| plan.arrival_ps(t, i)).collect()).collect()
        };
        let a = schedule(&StreamPlan::new(streaming(ArrivalProcess::Poisson)));
        let b = schedule(&StreamPlan::new(streaming(ArrivalProcess::Poisson)));
        assert_eq!(a, b);
        assert!(a.iter().flatten().all(Option::is_some));
        let other = StreamPlan::new(StreamConfig {
            seed: 0xDEAD,
            ..streaming(ArrivalProcess::Poisson)
        });
        assert_ne!(a, schedule(&other));
        // The two tenants draw from independent streams.
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn token_bucket_sheds_then_refills() {
        let cfg = StreamConfig {
            admission: AdmissionConfig {
                bucket_rate_per_s: 1_000_000.0, // 1 token per us
                bucket_burst: 2.0,
                max_in_flight: 0,
            },
            ..streaming(ArrivalProcess::Poisson)
        };
        let mut adm = AdmissionState::new(&cfg);
        // Burst capacity 2: two admits at t=0, then shed.
        assert!(adm.try_admit(0, 0, QosClass::Latency).is_ok());
        assert!(adm.try_admit(0, 0, QosClass::Latency).is_ok());
        assert_eq!(adm.try_admit(0, 0, QosClass::Latency), Err(ShedCause::Bucket));
        // One microsecond refills one token.
        assert!(adm.try_admit(1_000_000, 0, QosClass::Latency).is_ok());
        assert_eq!(adm.try_admit(1_000_000, 0, QosClass::Latency), Err(ShedCause::Bucket));
        // Tenants have independent buckets.
        assert!(adm.try_admit(1_000_000, 1, QosClass::BestEffort).is_ok());
    }

    #[test]
    fn capacity_shares_prefer_latency_class() {
        let cfg = StreamConfig {
            admission: AdmissionConfig {
                bucket_rate_per_s: 0.0,
                bucket_burst: 0.0,
                max_in_flight: 10,
            },
            ..streaming(ArrivalProcess::Poisson)
        };
        let mut adm = AdmissionState::new(&cfg);
        // Fill to the best-effort share (60 % of 10 = 6).
        for _ in 0..6 {
            assert!(adm.try_admit(0, 1, QosClass::BestEffort).is_ok());
        }
        assert_eq!(adm.try_admit(0, 1, QosClass::BestEffort), Err(ShedCause::Capacity));
        // Latency still has headroom up to the full cap.
        for _ in 6..10 {
            assert!(adm.try_admit(0, 0, QosClass::Latency).is_ok());
        }
        assert_eq!(adm.try_admit(0, 0, QosClass::Latency), Err(ShedCause::Capacity));
        // Releases reopen the gate.
        adm.release();
        assert!(adm.try_admit(0, 0, QosClass::Latency).is_ok());
        assert_eq!(adm.in_flight, 10);
    }

    #[test]
    fn admission_off_admits_everything() {
        let cfg = streaming(ArrivalProcess::Poisson);
        let mut adm = AdmissionState::new(&cfg);
        for i in 0..10_000 {
            assert!(adm.try_admit(i, 0, QosClass::BestEffort).is_ok());
        }
    }

    #[test]
    fn self_heal_defaults_are_off_and_valid() {
        let heal = SelfHealConfig::default();
        assert!(!heal.enabled());
        assert!(!heal.breaker_enabled());
        assert!(!heal.timeouts_enabled());
        let cfg = streaming(ArrivalProcess::Poisson);
        cfg.validate().unwrap();
        // Enabled variants validate; malformed ones are rejected.
        let mut on = streaming(ArrivalProcess::Poisson);
        on.self_heal = SelfHealConfig {
            breaker_failures: 3,
            breaker_open_ps: 1_000_000,
            probe_rate: 0.5,
            probes_to_close: 2,
            timeout_factor: 2.0,
            hedge_budget: [1, 1, 0],
            hedge_rate: 0.75,
        };
        assert!(on.self_heal.enabled());
        on.validate().unwrap();
        let mut bad = on.clone();
        bad.self_heal.breaker_open_ps = 0;
        assert!(bad.validate().is_err());
        let mut bad = on.clone();
        bad.self_heal.probe_rate = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = on.clone();
        bad.self_heal.probes_to_close = 0;
        assert!(bad.validate().is_err());
        let mut bad = on.clone();
        bad.self_heal.timeout_factor = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = on.clone();
        bad.self_heal.hedge_rate = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = on;
        bad.self_heal.timeout_factor = 0.0;
        assert!(bad.validate().is_err(), "hedges without timeouts are rejected");
    }

    #[test]
    fn probe_and_hedge_draws_are_pure_and_identity_sensitive() {
        let mut cfg = streaming(ArrivalProcess::Poisson);
        cfg.self_heal = SelfHealConfig {
            breaker_failures: 1,
            breaker_open_ps: 1_000_000,
            probe_rate: 0.5,
            probes_to_close: 1,
            timeout_factor: 2.0,
            hedge_budget: [2, 2, 2],
            hedge_rate: 0.5,
        };
        let a = StreamPlan::new(cfg.clone());
        let b = StreamPlan::new(cfg.clone());
        let probes: Vec<bool> = (0..64).map(|i| a.probe_admit(0, i)).collect();
        assert_eq!(probes, (0..64).map(|i| b.probe_admit(0, i)).collect::<Vec<_>>());
        assert!(probes.iter().any(|&p| p) && probes.iter().any(|&p| !p), "{probes:?}");
        let hedges: Vec<bool> =
            (0..64).map(|i| a.hedge_launch(1, i, (i % 3) as u32)).collect();
        assert_eq!(
            hedges,
            (0..64).map(|i| b.hedge_launch(1, i, (i % 3) as u32)).collect::<Vec<_>>()
        );
        assert!(hedges.iter().any(|&h| h) && hedges.iter().any(|&h| !h));
        // Attempt index changes the draw.
        assert!((0..64).any(|i| a.hedge_launch(1, i, 0) != a.hedge_launch(1, i, 1)));
        // Rate 1 always fires, without consuming a draw.
        cfg.self_heal.probe_rate = 1.0;
        cfg.self_heal.hedge_rate = 1.0;
        let always = StreamPlan::new(cfg);
        assert!((0..64).all(|i| always.probe_admit(0, i) && always.hedge_launch(0, i, 0)));
    }

    #[test]
    fn class_names_round_trip() {
        for c in QosClass::ALL {
            assert_eq!(QosClass::parse(c.name()), Ok(c));
            assert_eq!(QosClass::ALL[c.index()], c);
        }
        assert!(QosClass::parse("bulk").is_err());
        for p in ["det", "poisson", "mmpp", "diurnal"] {
            let parsed = ArrivalProcess::parse(p).unwrap();
            assert_eq!(parsed.name(), if p == "det" { "det" } else { p });
            let cfg = StreamConfig { process: parsed, ..StreamConfig::default() };
            cfg.validate().unwrap();
        }
        assert!(ArrivalProcess::parse("uniform").is_err());
    }
}
