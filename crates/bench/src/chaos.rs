//! Chaos campaign: degradation curves under combined fault and overload
//! pressure, with the self-healing service stack switched on.
//!
//! Sweeps a policy × arrival-rate × fault-rate grid over the campaign
//! engine. Every chaos cell streams the three-tenant CGL workload
//! (Canny = `Latency`, GRU = `Standard`, LSTM = `BestEffort`) with
//! circuit breakers, request timeouts, and hedged retries enabled, while
//! the fault plan injects task faults, DMA corruption, forwarded-chunk
//! ECC failures, and DRAM-channel blackout windows at the swept rate.
//! Fault rate 0 is the healthy baseline of the same overload point, so
//! each row's degradation (Δ attainment) reads directly against it.
//!
//! All knobs are part of the platform label (see [`CampaignSpec`]) — the
//! label is each cell's canonical identity (and cache key), so the sweep
//! inherits the engine's determinism contract and the rendered report is
//! byte-identical at any `--jobs`.

use crate::cache::CacheConfig;
use crate::campaign::{
    axis_keys, CampaignResults, CampaignSpec, ExecOptions, PlatformSpec, WorkloadSpec,
};
use crate::cli::Args;
use crate::service::tenant_stream;
use relief_core::PolicyKind;
use relief_fault::FaultConfig;
use relief_metrics::report::Table;
use relief_metrics::RunStats;
use relief_service::{SelfHealConfig, StreamConfig};

/// Knobs of one chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Fault-plan seed shared by every faulted cell.
    pub fault_seed: u64,
    /// Arrival-stream seed shared by every cell.
    pub stream_seed: u64,
    /// Combined per-attempt fault probabilities to sweep: each value is
    /// applied as the task, DMA, and forwarded-chunk ECC rate at once.
    /// `0` cells run fault-free (and outage-free) baselines.
    pub fault_rates: Vec<f64>,
    /// Per-tenant arrival rates (requests/s) to sweep; each value is one
    /// overload point applied to all three tenants.
    pub arrival_rates: Vec<f64>,
    /// DRAM-channel MTTF in picoseconds, applied to every faulted cell
    /// (`0` disables channel blackouts everywhere).
    pub dram_mttf_ps: u64,
    /// Stream duration, picoseconds (arrivals stop here; the run drains).
    pub duration_ps: u64,
    /// Warm-up truncation for latency histograms and attainment.
    pub warmup_ps: u64,
    /// Global in-flight admission cap (`0` disables admission control).
    pub max_in_flight: u32,
    /// Policies under test, in row order.
    pub policies: Vec<PolicyKind>,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            fault_seed: FaultConfig::default().seed,
            stream_seed: StreamConfig::default().seed,
            fault_rates: vec![0.0, 0.005, 0.02],
            arrival_rates: vec![150.0, 400.0],
            dram_mttf_ps: 10_000_000_000, // one blackout every ~10 ms
            duration_ps: 50_000_000_000,  // 50 ms of arrivals
            warmup_ps: 5_000_000_000,     // first 5 ms excluded
            max_in_flight: 12,
            policies: vec![PolicyKind::Fcfs, PolicyKind::Relief],
        }
    }
}

impl ChaosSpec {
    /// Validates the sweep axes.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob when an axis is empty,
    /// a fault rate is outside `[0, 1)`, or an arrival rate is not a
    /// positive finite number.
    pub fn validate(&self) -> Result<(), String> {
        if self.fault_rates.is_empty() {
            return Err("chaos sweep needs at least one fault rate".into());
        }
        if self.arrival_rates.is_empty() {
            return Err("chaos sweep needs at least one arrival rate".into());
        }
        if self.policies.is_empty() {
            return Err("chaos sweep needs at least one policy".into());
        }
        for &r in &self.fault_rates {
            if !r.is_finite() || !(0.0..1.0).contains(&r) {
                return Err(format!("fault rate {r} outside [0, 1)"));
            }
        }
        for &r in &self.arrival_rates {
            if !r.is_finite() || r <= 0.0 {
                return Err(format!("arrival rate {r} must be positive and finite"));
            }
        }
        // Delegate the remaining knob checks to the fault and service
        // crates so the validators cannot drift.
        self.fault_config(self.fault_rates[0])
            .validate()
            .map_err(|e| e.to_string())?;
        self.stream_config(self.arrival_rates[0])
            .validate()
            .map_err(|e| e.to_string())
    }

    /// The self-healing stack every chaos cell runs: breakers trip after
    /// three consecutive failures and shed for 2 ms before probing,
    /// requests time out at 2× their relative deadline (past that point
    /// a request cannot meet its budget and is only burning capacity),
    /// and the two deadline-bearing classes may hedge one replacement
    /// each.
    pub fn self_heal() -> SelfHealConfig {
        SelfHealConfig {
            breaker_failures: 3,
            breaker_open_ps: 2_000_000_000,
            probe_rate: 0.5,
            probes_to_close: 2,
            timeout_factor: 2.0,
            hedge_budget: [1, 1, 0],
            hedge_rate: 1.0,
        }
    }

    /// The fault plan of one swept cell. Rate 0 is the fully healthy
    /// baseline: no corruption *and* no channel blackouts, so its row is
    /// exactly what the service campaign would report for that load.
    fn fault_config(&self, rate: f64) -> FaultConfig {
        if rate == 0.0 {
            return FaultConfig::default();
        }
        FaultConfig {
            seed: self.fault_seed,
            task_fault_rate: rate,
            dma_fault_rate: rate,
            ecc_chunk_rate: rate,
            dram_mttf_ps: self.dram_mttf_ps,
            ..FaultConfig::default()
        }
    }

    /// The stream configuration of one swept cell (self-healing on).
    fn stream_config(&self, rate: f64) -> StreamConfig {
        let stream = tenant_stream(
            self.stream_seed,
            rate,
            self.duration_ps,
            self.warmup_ps,
            self.max_in_flight,
        );
        StreamConfig { self_heal: Self::self_heal(), ..stream }
    }

    /// The platform of one grid cell.
    fn platform(&self, arrival: f64, fault: f64) -> PlatformSpec {
        PlatformSpec::sweep("chaos", self.stream_config(arrival), self.fault_config(fault))
    }

    /// Expands the sweep into a campaign: policy-major, then one platform
    /// per (arrival rate, fault rate) pair with the fault axis cycling
    /// fastest.
    pub fn campaign(&self) -> CampaignSpec {
        let mut platforms = Vec::new();
        for &arrival in &self.arrival_rates {
            for &fault in &self.fault_rates {
                platforms.push(self.platform(arrival, fault));
            }
        }
        CampaignSpec {
            name: "chaos".into(),
            policies: self.policies.clone(),
            workloads: vec![WorkloadSpec::custom(
                "service/CGL",
                None,
                crate::service::tenant_workload,
            )],
            platforms,
            replicates: 1,
        }
    }

    /// Renders executed results as the degradation table: one row per
    /// (policy, arrival rate, fault rate) in expansion order. `Δatt`
    /// columns read each faulted row against the fault-0 baseline of the
    /// same policy and load point (`-` when the sweep has no 0 axis
    /// value or the baseline failed). Failed runs render as `FAILED`
    /// rows instead of disappearing.
    pub fn render(&self, results: &CampaignResults) -> String {
        let mut t = Table::with_columns(&[
            "policy",
            "rate/s",
            "fault",
            "arrivals",
            "att lat %",
            "att be %",
            "Δatt lat",
            "shed brk",
            "timeout",
            "hedge",
            "ecc",
            "fwd-inv",
            "outage",
            "open ms",
        ]);
        let rates = axis_keys(&self.arrival_rates, 0);
        let frates = axis_keys(&self.fault_rates, 4);
        let faults = self.fault_rates.len();
        let zero = self.fault_rates.iter().position(|&f| f == 0.0);
        let runs = self.campaign().expand();
        let mut base = None;
        for (i, spec) in runs.iter().enumerate() {
            // Policy-major, then arrival rate, with the fault axis cycling
            // fastest: each (policy, arrival rate) block of `faults` rows
            // reads against its own fault-0 cell.
            let fault = i % faults;
            if fault == 0 {
                base = zero
                    .and_then(|z| results.get(&runs[i + z].label()))
                    .map(|rec| rec.result.stats.service.classes[0].attainment());
            }
            let policy = spec.policy.name().to_string();
            let rate = rates[i / faults % rates.len()].clone();
            let frate = frates[fault].clone();
            let Some(rec) = results.get(&spec.label()) else {
                let mut row = vec![policy, rate, frate];
                row.extend((0..11).map(|_| "FAILED".to_string()));
                t.row(row);
                continue;
            };
            t.row(chaos_row(policy, rate, frate, &rec.result.stats, base));
        }
        format!(
            "[chaos: CGL | seeds {:#x}/{:#x} | {} us stream, {} us warm-up | \
             in-flight cap {} | dram mttf {} us | breakers+timeouts+hedges on]\n{}",
            self.stream_seed,
            self.fault_seed,
            self.duration_ps / 1_000_000,
            self.warmup_ps / 1_000_000,
            self.max_in_flight,
            self.dram_mttf_ps / 1_000_000,
            t.render()
        )
    }
}

/// One degradation row.
fn chaos_row(
    policy: String,
    rate: String,
    frate: String,
    s: &RunStats,
    baseline: Option<f64>,
) -> Vec<String> {
    let svc = &s.service;
    let f = &s.faults;
    let att_lat = svc.classes[0].attainment();
    let delta = match baseline {
        Some(b) => format!("{:+.1}", (att_lat - b) * 100.0),
        None => "-".to_string(),
    };
    let open_ms = match svc.open_hist.mean_ps() {
        Some(ps) => format!("{:.2}", ps / 1e9),
        None => "-".to_string(),
    };
    vec![
        policy,
        rate,
        frate,
        svc.arrivals().to_string(),
        format!("{:.1}", att_lat * 100.0),
        format!("{:.1}", svc.classes[2].attainment() * 100.0),
        delta,
        svc.shed_breaker().to_string(),
        svc.timed_out().to_string(),
        svc.hedged().to_string(),
        f.ecc_faults.to_string(),
        f.forward_invalidations.to_string(),
        f.channel_outages.to_string(),
        open_ms,
    ]
}

/// Parses the `chaos` command's flags into a sweep plus execution options.
///
/// Recognised flags: `--fault-seed <N>` and `--stream-seed <N>` (decimal
/// or `0x` hex), `--fault-rate <R[,R…]>`, `--rate <R[,R…]>` (per-tenant
/// requests/s), `--dram-mttf-us <N>` (`0` = no channel blackouts),
/// `--duration-us <N>`, `--warmup-us <N>`, `--max-in-flight <N>`,
/// `--jobs <N>`, `--no-cache`.
///
/// # Errors
///
/// Returns a printable message (never panics) on unknown flags, missing
/// or malformed values, and axis values a [`ChaosSpec`] rejects.
pub fn parse_cli(
    args: impl IntoIterator<Item = String>,
) -> Result<(ChaosSpec, ExecOptions), String> {
    let mut spec = ChaosSpec::default();
    let mut opts = ExecOptions { cache: CacheConfig::standard(), ..Default::default() };
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--fault-seed" => spec.fault_seed = args.seed(&flag)?,
            "--stream-seed" => spec.stream_seed = args.seed(&flag)?,
            "--fault-rate" => spec.fault_rates = args.list(&flag)?,
            "--rate" => spec.arrival_rates = args.list(&flag)?,
            "--dram-mttf-us" => spec.dram_mttf_ps = args.us_as_ps(&flag)?,
            "--duration-us" => spec.duration_ps = args.us_as_ps(&flag)?,
            "--warmup-us" => spec.warmup_ps = args.us_as_ps(&flag)?,
            "--max-in-flight" => spec.max_in_flight = args.value(&flag)?,
            _ => args.exec_flag(&flag, &mut opts)?,
        }
    }
    spec.validate()?;
    Ok((spec, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{execute, ExecOptions};

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_round_trips_and_rejects() {
        let (spec, opts) = parse_cli(args(&[
            "--fault-seed",
            "0xBEEF",
            "--stream-seed",
            "7",
            "--fault-rate",
            "0,0.01",
            "--rate",
            "100,300",
            "--dram-mttf-us",
            "5000",
            "--duration-us",
            "4000",
            "--warmup-us",
            "400",
            "--max-in-flight",
            "8",
            "--jobs",
            "3",
            "--no-cache",
        ]))
        .unwrap();
        assert_eq!(spec.fault_seed, 0xBEEF);
        assert_eq!(spec.stream_seed, 7);
        assert_eq!(spec.fault_rates, vec![0.0, 0.01]);
        assert_eq!(spec.arrival_rates, vec![100.0, 300.0]);
        assert_eq!(spec.dram_mttf_ps, 5_000_000_000);
        assert_eq!(spec.duration_ps, 4_000_000_000);
        assert_eq!(spec.max_in_flight, 8);
        assert_eq!(opts.jobs, 3);
        assert!(!opts.cache.enabled, "--no-cache must disable the store");
        let (_, opts) = parse_cli(args(&[])).unwrap();
        assert!(opts.cache.enabled, "the persistent cache defaults on");

        assert!(parse_cli(args(&["--fault-rate", "1.5"])).is_err());
        assert!(parse_cli(args(&["--rate", "0"])).is_err());
        assert!(parse_cli(args(&["--rate", "nan"])).is_err());
        assert!(parse_cli(args(&["--fault-seed"])).is_err());
        assert!(parse_cli(args(&["--frobnicate"])).is_err());
        assert!(parse_cli(args(&["--jobs", "0"])).is_err());
    }

    #[test]
    fn labels_tell_every_knob_apart_and_grid_covers_axes() {
        let labels = |spec: &ChaosSpec| -> Vec<String> {
            spec.campaign().platforms.iter().map(|p| p.label().to_string()).collect()
        };
        let spec = ChaosSpec { fault_rates: vec![0.0, 0.01, 0.01004], ..ChaosSpec::default() };
        let base = labels(&spec);
        assert_eq!(base.len(), spec.arrival_rates.len() * spec.fault_rates.len());
        assert!(base.iter().all(|l| l.starts_with("mobile+chaos-")), "{base:?}");
        let distinct: std::collections::BTreeSet<_> = base.iter().collect();
        assert_eq!(distinct.len(), base.len(), "fault rate 0.01 vs 0.01004: {base:?}");
        // Every knob a faulted cell runs with changes its identity.
        for (knob, other) in [
            ("fault seed", ChaosSpec { fault_seed: 1, ..spec.clone() }),
            ("stream seed", ChaosSpec { stream_seed: 1, ..spec.clone() }),
            ("dram mttf", ChaosSpec { dram_mttf_ps: 1_000_000, ..spec.clone() }),
            ("admission cap", ChaosSpec { max_in_flight: 3, ..spec.clone() }),
            ("warm-up", ChaosSpec { warmup_ps: 0, ..spec.clone() }),
        ] {
            assert_ne!(labels(&other)[1], base[1], "{knob}");
        }
        // The fault-0 baseline runs no fault plan, so the fault knobs
        // leave its identity (and cache entry) alone.
        let reseeded = ChaosSpec { fault_seed: 1, dram_mttf_ps: 1, ..spec.clone() };
        assert_eq!(labels(&reseeded)[0], base[0]);
    }

    #[test]
    fn chaos_grid_degrades_and_self_heals() {
        let spec = ChaosSpec {
            fault_rates: vec![0.0, 0.05],
            arrival_rates: vec![300.0],
            duration_ps: 20_000_000_000,
            warmup_ps: 2_000_000_000,
            policies: vec![PolicyKind::Relief],
            ..Default::default()
        };
        spec.validate().unwrap();
        let results = execute(spec.campaign().expand(), &ExecOptions::default());
        assert!(results.failures().is_empty(), "{:?}", results.failures());
        assert!(results.mismatched().is_empty(), "{:?}", results.mismatched());
        let runs = spec.campaign().expand();
        let healthy = &results.get(&runs[0].label()).unwrap().result.stats;
        let faulted = &results.get(&runs[1].label()).unwrap().result.stats;
        assert_eq!(healthy.faults.injected(), 0);
        assert!(faulted.faults.injected() > 0, "rate 0.05 injected nothing");
        assert!(
            faulted.service.timed_out() > 0 || faulted.service.shed_breaker() > 0,
            "no self-healing action fired under 5% faults: {:?}",
            faulted.service
        );
        let report = spec.render(&results);
        assert!(report.contains("0.0500"), "{report}");
        assert!(report.contains("Δatt lat"), "{report}");
    }
}
