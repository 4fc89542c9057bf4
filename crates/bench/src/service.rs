//! Service campaign: latency-vs-load and goodput-vs-overload, per
//! policy, under the open-loop streaming frontend of `relief-service`.
//!
//! Sweeps the per-tenant arrival rate across the campaign engine: one
//! platform axis value per rate, every requested policy, one shared
//! three-tenant workload (Canny = `Latency`, GRU = `Standard`, LSTM =
//! `BestEffort`). Every stream knob is part of the platform label (see
//! [`CampaignSpec`]), so each cell has its own canonical identity, and
//! the sweep inherits the engine's determinism contract — the rendered
//! report is byte-identical at any `--jobs`.
//!
//! Unlike closed-loop campaigns, service cells carry no simulated-time
//! cap: arrivals stop at the configured stream duration and the run
//! drains, so the event/stats reconciliation stays active for every
//! cell.

use crate::cache::CacheConfig;
use crate::campaign::{
    axis_keys, CampaignResults, CampaignSpec, ExecOptions, PlatformSpec, WorkloadSpec,
};
use crate::cli::Args;
use relief_accel::AppSpec;
use relief_core::PolicyKind;
use relief_fault::FaultConfig;
use relief_metrics::report::Table;
use relief_metrics::{Histogram, RunStats};
use relief_service::{AdmissionConfig, ArrivalProcess, QosClass, StreamConfig, TenantCfg};
use relief_workloads::App;

/// The fixed tenant trio every service cell streams: one app per QoS
/// class, covering a vision pipeline, a small RNN, and a large RNN.
pub(crate) const TENANT_APPS: [(App, QosClass); 3] = [
    (App::Canny, QosClass::Latency),
    (App::Gru, QosClass::Standard),
    (App::Lstm, QosClass::BestEffort),
];

/// The Poisson stream of the tenant trio at `rate` requests/s per tenant,
/// under an in-flight cap of `max_in_flight` (`0` = none) and without
/// self-healing: the cell stream that the `service` sweep varies in its
/// arrival process and the `chaos` sweep in its self-healing stack.
pub(crate) fn tenant_stream(
    seed: u64,
    rate: f64,
    duration_ps: u64,
    warmup_ps: u64,
    max_in_flight: u32,
) -> StreamConfig {
    StreamConfig {
        seed,
        duration_ps,
        warmup_ps,
        tenants: TENANT_APPS.iter().map(|&(_, q)| TenantCfg::new(q, rate)).collect(),
        admission: AdmissionConfig { max_in_flight, ..AdmissionConfig::default() },
        ..StreamConfig::default()
    }
}

/// Knobs of one service sweep.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Arrival-stream seed shared by every cell.
    pub seed: u64,
    /// Per-tenant arrival rates (requests/s) to sweep; each value is one
    /// load point applied to all three tenants.
    pub rates: Vec<f64>,
    /// Arrival process shared by every cell.
    pub process: ArrivalProcess,
    /// Stream duration, picoseconds (arrivals stop here; the run drains).
    pub duration_ps: u64,
    /// Warm-up truncation: samples before this simulated time are
    /// excluded from latency/sojourn histograms and deadline attainment.
    pub warmup_ps: u64,
    /// Global in-flight admission cap (`0` disables admission control —
    /// every arrival is admitted and nothing is shed).
    pub max_in_flight: u32,
    /// Policies under test, in row order.
    pub policies: Vec<PolicyKind>,
}

impl Default for ServiceSpec {
    fn default() -> Self {
        ServiceSpec {
            seed: StreamConfig::default().seed,
            rates: vec![50.0, 150.0, 400.0],
            process: ArrivalProcess::Poisson,
            duration_ps: 50_000_000_000, // 50 ms of arrivals
            warmup_ps: 5_000_000_000,    // first 5 ms excluded
            max_in_flight: 12,
            policies: vec![
                PolicyKind::Fcfs,
                PolicyKind::Lax,
                PolicyKind::HetSched,
                PolicyKind::Relief,
            ],
        }
    }
}

impl ServiceSpec {
    /// Validates the sweep axes.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob when an axis is empty
    /// or a rate is not a positive finite number.
    pub fn validate(&self) -> Result<(), String> {
        if self.rates.is_empty() {
            return Err("service sweep needs at least one arrival rate".into());
        }
        if self.policies.is_empty() {
            return Err("service sweep needs at least one policy".into());
        }
        for &r in &self.rates {
            if !r.is_finite() || r <= 0.0 {
                return Err(format!("arrival rate {r} must be positive and finite"));
            }
        }
        // Delegate the remaining knob checks (duration, warm-up, process
        // shape) to the service crate so the validators cannot drift.
        self.stream_config(self.rates[0])
            .validate()
            .map_err(|e| e.to_string())
    }

    /// The stream configuration of one swept cell.
    fn stream_config(&self, rate: f64) -> StreamConfig {
        StreamConfig {
            process: self.process.clone(),
            ..tenant_stream(self.seed, rate, self.duration_ps, self.warmup_ps, self.max_in_flight)
        }
    }

    /// The shared three-tenant workload (one app spec per tenant, in
    /// tenant order; closed-loop releases are replaced by the stream).
    fn workload(&self) -> WorkloadSpec {
        WorkloadSpec::custom("service/CGL", None, tenant_workload)
    }

    /// Expands the sweep into a campaign: policy-major, then one
    /// platform per arrival rate in the order given.
    pub fn campaign(&self) -> CampaignSpec {
        let platforms = self
            .rates
            .iter()
            .map(|&rate| {
                PlatformSpec::sweep("svc", self.stream_config(rate), FaultConfig::default())
            })
            .collect();
        CampaignSpec {
            name: "service".into(),
            policies: self.policies.clone(),
            workloads: vec![self.workload()],
            platforms,
            replicates: 1,
        }
    }

    /// Renders executed results as two tables: latency-vs-load (sojourn
    /// quantiles of the `Latency` tenant plus per-class p99 node
    /// latency) and goodput-vs-overload (per-class goodput, the shed
    /// split, and the attainment spread between `Latency` and
    /// `BestEffort`). One row per (policy, rate) in expansion order;
    /// failed runs render as `FAILED` rows instead of disappearing.
    pub fn render(&self, results: &CampaignResults) -> String {
        let mut lat = Table::with_columns(&[
            "policy",
            "rate/s",
            "arrivals",
            "shed %",
            "L p50 us",
            "L p99 us",
            "L p999 us",
            "np99 lat",
            "np99 std",
            "np99 be",
        ]);
        let mut good = Table::with_columns(&[
            "policy",
            "rate/s",
            "good lat/s",
            "good std/s",
            "good be/s",
            "shed bkt",
            "shed cap",
            "att lat %",
            "att be %",
        ]);
        // One workload and one replicate, so the expansion is policy-major
        // with the platform (= rate) axis cycling fastest.
        let rates = axis_keys(&self.rates, 0);
        for (i, spec) in self.campaign().expand().iter().enumerate() {
            let policy = spec.policy.name().to_string();
            let rate = rates[i % rates.len()].clone();
            match results.get(&spec.label()) {
                Some(rec) => {
                    let s = &rec.result.stats;
                    lat.row(latency_row(policy.clone(), rate.clone(), s));
                    good.row(goodput_row(policy, rate, s));
                }
                None => {
                    let mut l = vec![policy.clone(), rate.clone()];
                    l.extend((0..8).map(|_| "FAILED".to_string()));
                    lat.row(l);
                    let mut g = vec![policy, rate];
                    g.extend((0..7).map(|_| "FAILED".to_string()));
                    good.row(g);
                }
            }
        }
        format!(
            "[service: CGL | {} arrivals | seed {:#x} | {} us stream, {} us warm-up \
             | in-flight cap {}]\nlatency vs load (sojourn = Latency tenant):\n{}\n\
             goodput vs overload:\n{}",
            self.process.name(),
            self.seed,
            self.duration_ps / 1_000_000,
            self.warmup_ps / 1_000_000,
            self.max_in_flight,
            lat.render(),
            good.render()
        )
    }
}

/// The tenant trio as app specs, one per tenant in tenant order.
pub(crate) fn tenant_workload() -> Vec<AppSpec> {
    TENANT_APPS.iter().map(|&(app, _)| AppSpec::once(app.symbol(), app.dag())).collect()
}

/// A histogram quantile in microseconds, `-` when empty.
fn q_us(h: &Histogram, q: f64) -> String {
    match h.quantile_ps(q) {
        Some(ps) => format!("{:.1}", ps as f64 / 1e6),
        None => "-".to_string(),
    }
}

/// One latency-vs-load row.
fn latency_row(policy: String, rate: String, s: &RunStats) -> Vec<String> {
    let svc = &s.service;
    let lat = &svc.classes[0];
    let mut row = vec![
        policy,
        rate,
        svc.arrivals().to_string(),
        format!("{:.1}", svc.shed_rate() * 100.0),
        q_us(&lat.sojourn, 0.50),
        q_us(&lat.sojourn, 0.99),
        q_us(&lat.sojourn, 0.999),
    ];
    for c in &svc.classes {
        row.push(q_us(&c.node_latency, 0.99));
    }
    row
}

/// One goodput-vs-overload row.
fn goodput_row(policy: String, rate: String, s: &RunStats) -> Vec<String> {
    let svc = &s.service;
    vec![
        policy,
        rate,
        format!("{:.0}", svc.goodput_per_s(0)),
        format!("{:.0}", svc.goodput_per_s(1)),
        format!("{:.0}", svc.goodput_per_s(2)),
        svc.shed_bucket().to_string(),
        svc.shed_capacity().to_string(),
        format!("{:.1}", svc.classes[0].attainment() * 100.0),
        format!("{:.1}", svc.classes[2].attainment() * 100.0),
    ]
}

/// Parses the `service` command's flags into a sweep plus execution options.
///
/// Recognised flags: `--stream-seed <N>` (decimal or `0x` hex),
/// `--rate <R[,R…]>` (per-tenant requests/s), `--arrival
/// <det|poisson|mmpp|diurnal>`, `--duration-us <N>`, `--warmup-us <N>`,
/// `--max-in-flight <N>` (`0` = admission off), `--jobs <N>`,
/// `--no-cache` (disable the persistent campaign cache, on by default).
///
/// # Errors
///
/// Returns a printable message (never panics) on unknown flags, missing
/// or malformed values, and axis values a [`ServiceSpec`] rejects.
pub fn parse_cli(
    args: impl IntoIterator<Item = String>,
) -> Result<(ServiceSpec, ExecOptions), String> {
    let mut spec = ServiceSpec::default();
    let mut opts = ExecOptions { cache: CacheConfig::standard(), ..Default::default() };
    let mut args = Args::new(args);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--stream-seed" => spec.seed = args.seed(&flag)?,
            "--rate" => spec.rates = args.list(&flag)?,
            "--arrival" => spec.process = ArrivalProcess::parse(&args.raw(&flag)?)?,
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
            "--stream-seed",
            "0xBEEF",
            "--rate",
            "100,4000",
            "--arrival",
            "mmpp",
            "--duration-us",
            "5000",
            "--warmup-us",
            "500",
            "--max-in-flight",
            "8",
            "--jobs",
            "3",
            "--no-cache",
        ]))
        .unwrap();
        assert_eq!(spec.seed, 0xBEEF);
        assert_eq!(spec.rates, vec![100.0, 4_000.0]);
        assert_eq!(spec.process.name(), "mmpp");
        assert_eq!(spec.duration_ps, 5_000_000_000);
        assert_eq!(spec.warmup_ps, 500_000_000);
        assert_eq!(spec.max_in_flight, 8);
        assert_eq!(opts.jobs, 3);
        assert!(!opts.cache.enabled, "--no-cache must disable the store");
        let (_, opts) = parse_cli(args(&[])).unwrap();
        assert!(opts.cache.enabled, "the persistent cache defaults on");

        assert!(parse_cli(args(&["--rate", "0"])).is_err());
        assert!(parse_cli(args(&["--rate", "nan"])).is_err());
        assert!(parse_cli(args(&["--arrival", "fractal"])).is_err());
        assert!(parse_cli(args(&["--stream-seed"])).is_err());
        assert!(parse_cli(args(&["--frobnicate"])).is_err());
        assert!(parse_cli(args(&["--jobs", "0"])).is_err());
    }

    fn labels(spec: &ServiceSpec) -> Vec<String> {
        spec.campaign().platforms.iter().map(|p| p.label().to_string()).collect()
    }

    #[test]
    fn labels_tell_every_stream_knob_apart() {
        let spec = ServiceSpec { rates: vec![150.0, 150.4], ..ServiceSpec::default() };
        let base = labels(&spec);
        assert!(base[0].starts_with("mobile+svc-") && base[0].len() == 27, "{}", base[0]);
        assert_ne!(base[0], base[1], "150 vs 150.4 req/s");
        assert_eq!(labels(&spec.clone()), base, "equal knobs, equal labels");
        for (knob, other) in [
            ("warm-up", ServiceSpec { warmup_ps: 0, ..spec.clone() }),
            ("seed", ServiceSpec { seed: 1, ..spec.clone() }),
            ("duration", ServiceSpec { duration_ps: spec.duration_ps + 1, ..spec.clone() }),
            ("admission cap", ServiceSpec { max_in_flight: 0, ..spec.clone() }),
            ("process", ServiceSpec { process: ArrivalProcess::Deterministic, ..spec.clone() }),
        ] {
            assert_ne!(labels(&other)[0], base[0], "{knob}");
        }
    }

    #[test]
    fn overload_sheds_and_latency_class_keeps_priority() {
        let spec = ServiceSpec {
            rates: vec![50.0, 400.0],
            duration_ps: 30_000_000_000,
            warmup_ps: 3_000_000_000,
            policies: vec![PolicyKind::Relief],
            ..Default::default()
        };
        spec.validate().unwrap();
        let results = execute(spec.campaign().expand(), &ExecOptions::default());
        assert!(results.failures().is_empty(), "{:?}", results.failures());
        assert!(results.mismatched().is_empty(), "{:?}", results.mismatched());
        let runs = spec.campaign().expand();
        let light = &results.get(&runs[0].label()).unwrap().result.stats.service;
        let heavy = &results.get(&runs[1].label()).unwrap().result.stats.service;
        assert!(light.arrivals() > 0, "light cell saw no arrivals");
        assert!(heavy.arrivals() > light.arrivals());
        assert!(heavy.shed_capacity() > 0, "overload cell shed nothing");
        let lat = heavy.classes[0].attainment();
        let be = heavy.classes[2].attainment();
        assert!(
            lat > be,
            "Latency attainment {lat:.3} not above BestEffort {be:.3}"
        );
        let report = spec.render(&results);
        assert!(report.contains("RELIEF"), "{report}");
        assert!(report.contains("goodput vs overload"), "{report}");
    }
}
