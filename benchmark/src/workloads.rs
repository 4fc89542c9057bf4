//! The six pinned workloads.
//!
//! Every workload is defined here from public configuration APIs only, so
//! later changes to the repository's own benchmark helpers (pinned
//! subsets, soak and chaos specs, the reference hot path) cannot shift
//! what this benchmark measures. The grid workloads are the exception by
//! design: they call the same public functions `all_experiments` calls,
//! because that pipeline *is* the user-facing workload.

use relief_accel::{AppSpec, SocConfig};
use relief_bench::experiments::grid::{self, RunSpec};
use relief_core::PolicyKind;
use relief_fault::FaultConfig;
use relief_service::{
    AdmissionConfig, ArrivalProcess, QosClass, SelfHealConfig, StreamConfig, StreamPlan, TenantCfg,
};
use relief_sim::SplitMix64;
use relief_workloads::{App, Contention, CONTINUOUS_TIME_LIMIT};

/// One picosecond-denominated millisecond.
const MS: u64 = 1_000_000_000;

/// Worker threads of the grid workloads (campaign engine and oracle
/// pool). Pinned rather than read from the host so the workload is the
/// same on every machine. One, like every other workload: on a shared
/// two-vCPU host a second worker ties the pass to whichever vCPU a
/// neighbour is slowing, and pass times jumped 1.7x between runs.
pub const GRID_JOBS: usize = 1;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// The paper's Figs. 4–8 regime, closed loop.
    ClosedHigh,
    /// Open-loop serving at ~80 % utilisation: the admit path.
    ServeP80,
    /// Open-loop serving at ~20x capacity: the shed path.
    ServeOverload,
    /// Open-loop serving under faults with self-healing on.
    ServeChaos,
    /// The `all_experiments` pipeline against an empty cache.
    GridCold,
    /// The `all_experiments` pipeline against a filled cache.
    GridWarm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 6] = [
        Workload::ClosedHigh,
        Workload::ServeP80,
        Workload::ServeOverload,
        Workload::ServeChaos,
        Workload::GridCold,
        Workload::GridWarm,
    ];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedHigh => "closed-high",
            Workload::ServeP80 => "serve-p80",
            Workload::ServeOverload => "serve-overload",
            Workload::ServeChaos => "serve-chaos",
            Workload::GridCold => "grid-cold",
            Workload::GridWarm => "grid-warm",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed length when the command line gives none, seconds.
    #[must_use]
    pub fn default_seconds(self) -> f64 {
        match self {
            Workload::ClosedHigh | Workload::ServeOverload => 15.0,
            Workload::ServeP80 | Workload::ServeChaos => 10.0,
            Workload::GridCold => 20.0,
            Workload::GridWarm => 5.0,
        }
    }

    /// True for the two `all_experiments` pipeline workloads.
    #[must_use]
    pub fn is_grid(self) -> bool {
        matches!(self, Workload::GridCold | Workload::GridWarm)
    }

    /// True for the open-loop serving workloads.
    #[must_use]
    pub fn is_serving(self) -> bool {
        matches!(
            self,
            Workload::ServeP80 | Workload::ServeOverload | Workload::ServeChaos
        )
    }
}

/// Every seed a workload consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// `SocConfig::seed` (compute-time jitter).
    pub jitter: u64,
    /// Arrival-stream seed of `serve-p80` and `serve-chaos`.
    pub stream: u64,
    /// Arrival-stream seed of `serve-overload`.
    pub overload: u64,
    /// Fault-plan seed of `serve-chaos`.
    pub fault: u64,
    /// Grid cell execution order; `None` keeps `full_grid()` order.
    pub order: Option<u64>,
}

impl Seeds {
    /// Seed `0` keeps every workload's pinned seeds; any other seed
    /// derives all of them through `SplitMix64(seed)`.
    #[must_use]
    pub fn derive(seed: u64) -> Seeds {
        if seed == 0 {
            return Seeds {
                jitter: SocConfig::mobile(PolicyKind::Fcfs).seed,
                stream: StreamConfig::default().seed,
                overload: 0x50AC,
                fault: FaultConfig::default().seed,
                order: None,
            };
        }
        let mut rng = SplitMix64::new(seed);
        Seeds {
            jitter: rng.next_u64(),
            stream: rng.next_u64(),
            overload: rng.next_u64(),
            fault: rng.next_u64(),
            order: Some(rng.next_u64()),
        }
    }
}

/// One simulation of a simulation workload's pass.
#[derive(Debug, Clone)]
pub struct SimCell {
    /// `"<policy>|<scenario>"`, for failure attribution.
    pub label: String,
    /// Platform and policy.
    pub cfg: SocConfig,
    /// Applications (clones are `Arc` bumps).
    pub apps: Vec<AppSpec>,
}

impl SimCell {
    /// True when the cell runs until all work drains, which is when its
    /// trace counters must reconcile exactly with its statistics.
    #[must_use]
    pub fn drains(&self) -> bool {
        self.cfg.time_limit.is_none()
    }
}

/// The open-loop tenant trio: one app per QoS class, covering a vision
/// pipeline, a small RNN and a large RNN.
const TENANTS: [(App, QosClass); 3] = [
    (App::Canny, QosClass::Latency),
    (App::Gru, QosClass::Standard),
    (App::Lstm, QosClass::BestEffort),
];

fn tenant_apps() -> Vec<AppSpec> {
    TENANTS
        .iter()
        .map(|&(app, _)| AppSpec::once(app.symbol(), app.dag()))
        .collect()
}

/// The cells of one pass of a simulation workload; empty for the grid
/// workloads.
#[must_use]
pub fn sim_cells(w: Workload, seeds: &Seeds) -> Vec<SimCell> {
    let mobile = |policy: PolicyKind| SocConfig {
        seed: seeds.jitter,
        ..SocConfig::mobile(policy)
    };
    match w {
        Workload::ClosedHigh => {
            let mut cells = Vec::new();
            for mix in Contention::High.mixes() {
                for policy in PolicyKind::MAIN {
                    cells.push(SimCell {
                        label: format!("{}|high/{}", policy.name(), mix.label()),
                        cfg: mobile(policy),
                        apps: mix.workload(),
                    });
                }
            }
            // The heaviest continuous mix keeps the 50 ms repeat path in
            // the pass; its cells end truncated at the cap.
            let ghl = [App::Gru, App::Harris, App::Lstm];
            for policy in [PolicyKind::Fcfs, PolicyKind::Relief] {
                cells.push(SimCell {
                    label: format!("{}|continuous/GHL", policy.name()),
                    cfg: mobile(policy).with_time_limit(CONTINUOUS_TIME_LIMIT),
                    apps: ghl
                        .iter()
                        .map(|a| AppSpec::continuous(a.symbol(), a.dag()))
                        .collect(),
                });
            }
            cells
        }
        Workload::ServeP80 | Workload::ServeOverload | Workload::ServeChaos => {
            let stream = stream_config(w, seeds);
            let policies: &[PolicyKind] = match w {
                Workload::ServeP80 => &[
                    PolicyKind::Fcfs,
                    PolicyKind::Lax,
                    PolicyKind::HetSched,
                    PolicyKind::Relief,
                ],
                _ => &[PolicyKind::Fcfs, PolicyKind::Relief],
            };
            policies
                .iter()
                .map(|&policy| {
                    let mut cfg = mobile(policy).with_stream(stream.clone());
                    if w == Workload::ServeOverload {
                        cfg = cfg.with_bounded_memory();
                    }
                    if w == Workload::ServeChaos {
                        cfg = cfg.with_fault(chaos_faults(seeds));
                    }
                    SimCell {
                        label: format!("{}|{}", policy.name(), w.name()),
                        cfg,
                        apps: tenant_apps(),
                    }
                })
                .collect()
        }
        Workload::GridCold | Workload::GridWarm => Vec::new(),
    }
}

/// The arrival stream of a serving workload.
///
/// # Panics
///
/// Panics when `w` is not a serving workload.
#[must_use]
pub fn stream_config(w: Workload, seeds: &Seeds) -> StreamConfig {
    let (seed, rate, process, duration_ps, warmup_ps, cap, self_heal) = match w {
        // ~80 % of the ~100 req/s per-tenant capacity: nearly everything
        // is admitted, so queueing sets the tail.
        Workload::ServeP80 => (
            seeds.stream,
            80.0,
            ArrivalProcess::Poisson,
            500 * MS,
            50 * MS,
            12,
            SelfHealConfig::default(),
        ),
        // ~20x capacity in 4x bursts at 25 % duty: admission sheds almost
        // everything. Self-healing stays off, as in the repository's soak.
        Workload::ServeOverload => (
            seeds.overload,
            2_000.0,
            ArrivalProcess::Mmpp {
                burst: 4.0,
                on_fraction: 0.25,
                cycle_ps: MS,
            },
            5_000 * MS,
            500 * MS,
            24,
            SelfHealConfig::default(),
        ),
        // ~1.5x capacity: admission sheds about a quarter, and faults keep
        // breakers, timeouts and hedges firing throughout.
        Workload::ServeChaos => (
            seeds.stream,
            150.0,
            ArrivalProcess::Poisson,
            1_000 * MS,
            100 * MS,
            12,
            chaos_heal(),
        ),
        _ => panic!("{} has no arrival stream", w.name()),
    };
    let mut cfg = StreamConfig {
        seed,
        duration_ps,
        warmup_ps,
        process,
        tenants: TENANTS
            .iter()
            .map(|&(_, q)| TenantCfg::new(q, rate))
            .collect(),
        admission: AdmissionConfig {
            max_in_flight: cap,
            ..AdmissionConfig::default()
        },
        self_heal,
    };
    if cfg.process == ArrivalProcess::Poisson {
        let n = (rate * duration_ps as f64 / 1e12).round() as u64;
        condition_on_count(&mut cfg, n);
    }
    cfg
}

/// Rescales each tenant's Poisson rate so exactly `n` of its arrivals fall
/// inside the horizon. Inter-arrival draws are pure functions of (seed,
/// tenant, index) and scale as 1/rate, so this conditions the process on
/// its count without changing its shape: a seed still moves every arrival,
/// but no longer the offered load, which would otherwise swing the work
/// per pass, and every number measured on it, by the count's
/// 1/sqrt(n) noise.
fn condition_on_count(cfg: &mut StreamConfig, n: u64) {
    let unit = StreamPlan::new(StreamConfig {
        tenants: cfg
            .tenants
            .iter()
            .map(|t| TenantCfg::new(t.qos, 1.0))
            .collect(),
        ..cfg.clone()
    });
    let horizon = cfg.duration_ps as f64;
    for (t, tenant) in cfg.tenants.iter_mut().enumerate() {
        // Arrival k of a rate-1 stream, in ps; at rate r it lands at 1/r of that.
        let mut at = [0.0f64; 2];
        let mut sum = 0u64;
        for i in 0..=n {
            sum += unit.gap_ps(t as u32, i, 0).unwrap_or(0);
            if i + 1 >= n {
                at[(i + 1 - n) as usize] = sum as f64;
            }
        }
        tenant.rate_per_s = (at[0] + at[1]) / 2.0 / horizon;
    }
}

/// Breakers trip after three consecutive failures and shed for 2 ms,
/// requests time out at twice their deadline, and the two deadline-bearing
/// classes may hedge once: the repository's `chaos` campaign settings.
fn chaos_heal() -> SelfHealConfig {
    SelfHealConfig {
        breaker_failures: 3,
        breaker_open_ps: 2 * MS,
        probe_rate: 0.5,
        probes_to_close: 2,
        timeout_factor: 2.0,
        hedge_budget: [1, 1, 0],
        hedge_rate: 1.0,
    }
}

/// Task, DMA and forwarded-chunk ECC faults at 2 % each, plus a DRAM
/// channel blackout every ~10 ms.
fn chaos_faults(seeds: &Seeds) -> FaultConfig {
    FaultConfig {
        seed: seeds.fault,
        task_fault_rate: 0.02,
        dma_fault_rate: 0.02,
        ecc_chunk_rate: 0.02,
        dram_mttf_ps: 10 * MS,
        ..FaultConfig::default()
    }
}

/// The `all_experiments` grid, in `full_grid()` order for the pinned seed
/// and in a seed-derived order otherwise. Order changes which cells share
/// the worker pool, never a result: the engine slots outcomes by spec.
#[must_use]
pub fn grid_specs(seeds: &Seeds) -> Vec<RunSpec> {
    let mut specs = grid::full_grid();
    if let Some(order) = seeds.order {
        let mut rng = SplitMix64::new(order);
        for i in (1..specs.len()).rev() {
            specs.swap(i, rng.usize_below(i + 1));
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn seed_zero_keeps_pinned_seeds() {
        let s = Seeds::derive(0);
        assert_eq!((s.jitter, s.stream, s.overload), (0x5EED, 0xFEED, 0x50AC));
        assert_eq!(s.order, None);
        let t = Seeds::derive(7);
        assert_ne!(t.jitter, s.jitter);
        assert_eq!(t, Seeds::derive(7));
    }

    #[test]
    fn cell_counts() {
        let s = Seeds::derive(0);
        assert_eq!(sim_cells(Workload::ClosedHigh, &s).len(), 62);
        assert_eq!(sim_cells(Workload::ServeP80, &s).len(), 4);
        assert_eq!(sim_cells(Workload::ServeOverload, &s).len(), 2);
        assert_eq!(sim_cells(Workload::ServeChaos, &s).len(), 2);
        assert_eq!(grid_specs(&s).len(), 368);
        for w in [
            Workload::ServeP80,
            Workload::ServeOverload,
            Workload::ServeChaos,
        ] {
            assert!(stream_config(w, &s).validate().is_ok());
        }
    }
}
