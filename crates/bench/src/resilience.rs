//! Resilience campaign: miss-rate and forwarding-rate vs fault rate.
//!
//! Sweeps the deterministic fault plan of `relief-fault` across the
//! campaign engine: one platform axis value per fault rate, every
//! requested policy, one shared workload. The fault knobs are part of
//! each platform's label (see [`CampaignSpec`]), so every cell has its
//! own canonical identity (and therefore its own cache key), and the
//! whole sweep inherits the engine's determinism contract — the rendered
//! report is byte-identical at any `--jobs`.
//!
//! Rate 0 is always a valid axis value: it is the fault-free baseline
//! and produces exactly the numbers an unfaulted run would.

use crate::cache::CacheConfig;
use crate::campaign::{
    axis_keys, CampaignResults, CampaignSpec, ExecOptions, PlatformSpec, WorkloadSpec,
};
use crate::cli::Args;
use relief_core::PolicyKind;
use relief_fault::FaultConfig;
use relief_metrics::report::Table;
use relief_service::StreamConfig;
use relief_workloads::Contention;

/// Knobs of one resilience sweep.
#[derive(Debug, Clone)]
pub struct ResilienceSpec {
    /// Fault-plan seed shared by every faulted cell.
    pub seed: u64,
    /// Per-attempt task/DMA fault probabilities to sweep; `0` cells run
    /// the fault-free baseline.
    pub rates: Vec<f64>,
    /// Accelerator-unit MTTF in picoseconds (`0` disables outages).
    pub mttf_ps: u64,
    /// Policies under test, in row order.
    pub policies: Vec<PolicyKind>,
    /// Workload every cell runs.
    pub workload: WorkloadSpec,
}

impl Default for ResilienceSpec {
    fn default() -> Self {
        let mixes = Contention::High.mixes();
        ResilienceSpec {
            seed: FaultConfig::default().seed,
            rates: vec![0.0, 0.001, 0.005, 0.02],
            mttf_ps: 0,
            policies: vec![
                PolicyKind::Fcfs,
                PolicyKind::Lax,
                PolicyKind::HetSched,
                PolicyKind::Relief,
            ],
            workload: WorkloadSpec::mix(Contention::High, &mixes[0]),
        }
    }
}

impl ResilienceSpec {
    /// Validates the sweep axes.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob when an axis is empty
    /// or a rate is outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), String> {
        if self.rates.is_empty() {
            return Err("resilience sweep needs at least one fault rate".into());
        }
        if self.policies.is_empty() {
            return Err("resilience sweep needs at least one policy".into());
        }
        for &r in &self.rates {
            if !r.is_finite() || !(0.0..1.0).contains(&r) {
                return Err(format!("fault rate {r} outside [0, 1)"));
            }
        }
        // Delegate the remaining knob checks (repair time etc.) to the
        // fault crate so the two validators cannot drift apart.
        self.fault_config(self.rates[0])
            .validate()
            .map_err(|e| e.to_string())
    }

    /// The fault configuration of one swept cell.
    fn fault_config(&self, rate: f64) -> FaultConfig {
        FaultConfig {
            seed: self.seed,
            task_fault_rate: rate,
            dma_fault_rate: rate,
            unit_mttf_ps: self.mttf_ps,
            ..FaultConfig::default()
        }
    }

    /// Expands the sweep into a campaign: policy-major, then one
    /// platform per fault rate in the order given.
    pub fn campaign(&self) -> CampaignSpec {
        let platforms = self
            .rates
            .iter()
            .map(|&rate| {
                PlatformSpec::sweep("resilience", StreamConfig::default(), self.fault_config(rate))
            })
            .collect();
        CampaignSpec {
            name: "resilience".into(),
            policies: self.policies.clone(),
            workloads: vec![self.workload.clone()],
            platforms,
        }
    }

    /// Renders executed results as the sweep's report table: one row per
    /// (policy, fault rate) in expansion order, with the injected /
    /// recovered / aborted fault counts next to the deadline and
    /// forwarding outcomes they explain. Failed runs render as a
    /// `FAILED` row instead of silently disappearing.
    pub fn render(&self, results: &CampaignResults) -> String {
        let mut t = Table::with_columns(&[
            "policy",
            "rate",
            "injected",
            "recovered",
            "aborted",
            "quarantines",
            "ddl % (node)",
            "fwd+coloc %",
            "fault-miss",
        ]);
        // One workload, so the expansion is policy-major with the
        // platform (= rate) axis cycling fastest.
        let rates = axis_keys(&self.rates, 4);
        for (i, spec) in self.campaign().expand().iter().enumerate() {
            let rate = rates[i % rates.len()].clone();
            match results.get(&spec.label()) {
                Some(rec) => {
                    let s = &rec.result.stats;
                    let f = &s.faults;
                    t.row(vec![
                        spec.policy.name().to_string(),
                        rate,
                        f.injected().to_string(),
                        f.recovered.to_string(),
                        f.tasks_aborted.to_string(),
                        f.unit_quarantines.to_string(),
                        format!("{:.1}", s.node_deadline_percent()),
                        format!("{:.1}", s.forward_percent()),
                        f.fault_attributed_misses.to_string(),
                    ]);
                }
                None => {
                    let mut row = vec![spec.policy.name().to_string(), rate];
                    row.extend((0..7).map(|_| "FAILED".to_string()));
                    t.row(row);
                }
            }
        }
        format!(
            "[resilience: {} | seed {:#x} | mttf {} us]\n{}",
            self.workload.label(),
            self.seed,
            self.mttf_ps / 1_000_000,
            t.render()
        )
    }
}

/// Parses the `resilience` command's flags into a sweep plus execution options.
///
/// Recognised flags: `--fault-seed <N>` (decimal or `0x` hex),
/// `--fault-rate <R[,R…]>`, `--mttf-us <N>`, `--jobs <N>`,
/// `--no-cache` (disable the persistent campaign cache, on by default).
///
/// # Errors
///
/// Returns a printable message (never panics) on unknown flags, missing
/// or malformed values, and axis values a [`ResilienceSpec`] rejects.
pub fn parse_cli(
    args: impl IntoIterator<Item = String>,
) -> Result<(ResilienceSpec, ExecOptions), String> {
    let mut spec = ResilienceSpec::default();
    let mut opts = ExecOptions { cache: CacheConfig::standard(), ..Default::default() };
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--fault-seed" => spec.seed = args.seed(&flag)?,
            "--fault-rate" => spec.rates = args.list(&flag)?,
            "--mttf-us" => spec.mttf_ps = args.us_as_ps(&flag)?,
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
            "--fault-rate",
            "0,0.01",
            "--mttf-us",
            "500",
            "--jobs",
            "3",
            "--no-cache",
        ]))
        .unwrap();
        assert_eq!(spec.seed, 0xBEEF);
        assert_eq!(spec.rates, vec![0.0, 0.01]);
        assert_eq!(spec.mttf_ps, 500_000_000);
        assert_eq!(opts.jobs, 3);
        assert!(!opts.cache.enabled, "--no-cache must disable the store");
        let (_, opts) = parse_cli(args(&[])).unwrap();
        assert!(opts.cache.enabled, "the persistent cache defaults on");

        assert!(parse_cli(args(&["--fault-rate", "1.5"])).is_err());
        assert!(parse_cli(args(&["--fault-rate", "nan"])).is_err());
        assert!(parse_cli(args(&["--fault-seed"])).is_err());
        assert!(parse_cli(args(&["--frobnicate"])).is_err());
        assert!(parse_cli(args(&["--jobs", "0"])).is_err());
    }

    #[test]
    fn labels_tell_every_fault_knob_apart() {
        let labels = |spec: &ResilienceSpec| -> Vec<String> {
            spec.campaign().platforms.iter().map(|p| p.label().to_string()).collect()
        };
        let rates = vec![0.01, 0.01004];
        let spec = ResilienceSpec { rates, mttf_ps: 400_000_000, ..Default::default() };
        let base = labels(&spec);
        assert!(base[0].starts_with("mobile+resilience-"), "{}", base[0]);
        assert_ne!(base[0], base[1], "fault rate 0.01 vs 0.01004");
        assert_eq!(labels(&spec.clone()), base, "equal knobs, equal labels");
        for (knob, other) in [
            ("mttf", ResilienceSpec { mttf_ps: 400_500_000, ..spec.clone() }),
            ("seed", ResilienceSpec { seed: 1, ..spec.clone() }),
        ] {
            assert_ne!(labels(&other)[0], base[0], "{knob}");
        }
    }

    #[test]
    fn faulted_cells_inject_and_baseline_stays_clean() {
        let mixes = Contention::Low.mixes();
        let spec = ResilienceSpec {
            rates: vec![0.0, 0.05],
            policies: vec![PolicyKind::Relief],
            workload: WorkloadSpec::mix(Contention::Low, &mixes[0]),
            ..Default::default()
        };
        spec.validate().unwrap();
        let results = execute(spec.campaign().expand(), &ExecOptions::default());
        assert!(results.failures().is_empty(), "{:?}", results.failures());
        assert!(results.mismatched().is_empty(), "{:?}", results.mismatched());
        let runs = spec.campaign().expand();
        let baseline = &results.get(&runs[0].label()).unwrap().result.stats;
        let faulted = &results.get(&runs[1].label()).unwrap().result.stats;
        assert_eq!(baseline.faults.injected(), 0);
        assert!(faulted.faults.injected() > 0, "rate 0.05 injected nothing");
        let report = spec.render(&results);
        assert!(report.contains("RELIEF"), "{report}");
        assert!(report.contains("0.0500"), "{report}");
    }
}
