//! `relief-cli` — run any application mix on the simulated SoC from the
//! command line.
//!
//! ```sh
//! cargo run --release --bin relief-cli -- --mix CGL --policy relief
//! cargo run --release --bin relief-cli -- --mix DGL --policy lax --continuous
//! cargo run --release --bin relief-cli -- --mix CDGHL --policy relief --no-forwarding
//! cargo run --release --bin relief-cli -- --mix CGL --policy lax,relief --jobs 2
//! cargo run --release --bin relief-cli -- --help
//! ```
//!
//! A comma-separated `--policy` list switches to comparison mode: every
//! policy runs the same mix on the deterministic campaign engine
//! (`--jobs` worker threads) and a side-by-side table is printed.

use relief::bench::cli;
use relief::prelude::*;
use std::process::ExitCode;

const USAGE: &str = "\
relief-cli — RELIEF accelerator-scheduling simulator

USAGE:
    relief-cli [OPTIONS]

OPTIONS:
    --mix <SYMBOLS>     applications to run, by symbol: C (canny),
                        D (deblur), G (gru), H (harris), L (lstm)
                        [default: CGL]
    --policy <NAMES>    fcfs | gedf-d | gedf-n | ll | lax | hetsched |
                        relief | relief-lax | relief-het |
                        relief-nothrottle | adaptive
                        [default: relief]
                        A comma-separated list compares the policies
                        side by side on the campaign engine. Adding
                        'oracle' to the list also computes the
                        ahead-of-time scheduling bound and a
                        '% of oracle' column ('oracle' alone compares
                        all eight paper policies against the bound;
                        closed-loop runs only — no --continuous,
                        --limit-ms, --arrival, or fault flags)
    --jobs <N>          worker threads for comparison mode
                        [default: available parallelism]
    --continuous        loop every application; stops at --limit-ms
    --limit-ms <MS>     simulated-time cap [default: 50 when --continuous]
    --crossbar          crossbar interconnect instead of the bus
    --no-forwarding     disable forwarding and colocation hardware
    --partitions <N>    output scratchpad partitions per accelerator
                        in [1-3] [default: 2]
    --trace-out <STEM>  capture a structured event trace and write
                        <STEM>.json (chrome://tracing / Perfetto) and
                        <STEM>.txt (canonical text, for trace-diff)
    --fault-rate <R>    per-attempt task and DMA fault probability in
                        [0, 1); 0 injects nothing [default: 0]
    --fault-seed <N>    fault-plan seed, decimal or 0x-hex; the same
                        seed reproduces the same fault schedule
    --arrival <PROC>    open-loop service mode: stream DAG instances
                        under det | poisson | mmpp | diurnal arrivals
                        instead of releasing each app once; the four
                        flags below need it
    --rate <R>          arrival rate per tenant, requests/s
                        [default: 100]
    --duration-us <N>   arrival window, microseconds; the run drains
                        after the last arrival [default: 20000]
    --tenants <N>       number of streaming tenants; the mix symbols
                        are cycled to fill [default: one per symbol]
    --qos <CLASSES>     comma list of latency | standard | besteffort,
                        cycled across tenants [default: all three]
    --help              print this help
";

#[derive(Clone)]
struct Args {
    mix: String,
    policies: Vec<PolicyKind>,
    oracle: bool,
    jobs: usize,
    continuous: bool,
    // `--limit-ms` in picoseconds, checked to fit when parsed.
    limit_ps: Option<u64>,
    crossbar: bool,
    no_forwarding: bool,
    partitions: usize,
    trace_out: Option<std::path::PathBuf>,
    fault_rate: f64,
    fault_seed: Option<u64>,
    arrival: Option<ArrivalProcess>,
    // The service flags, `None` unless given; each needs `--arrival`.
    rate: Option<f64>,
    duration_ps: Option<u64>,
    tenants: Option<usize>,
    qos: Option<Vec<QosClass>>,
}

impl Args {
    /// The fault configuration the flags describe, or `None` when no
    /// fault flag was given (so the config stays byte-for-byte default).
    fn fault_config(&self) -> Option<FaultConfig> {
        if self.fault_rate == 0.0 && self.fault_seed.is_none() {
            return None;
        }
        let mut fault = FaultConfig {
            task_fault_rate: self.fault_rate,
            dma_fault_rate: self.fault_rate,
            ..FaultConfig::default()
        };
        if let Some(seed) = self.fault_seed {
            fault.seed = seed;
        }
        Some(fault)
    }

    /// The streaming tenants the flags describe: `--tenants` entries (or
    /// one per mix symbol), cycling the `--qos` classes.
    fn tenant_list(&self, n_mix: usize) -> Vec<TenantCfg> {
        let qos = self.qos.as_deref().unwrap_or(&QosClass::ALL);
        (0..self.tenants.unwrap_or(n_mix))
            .map(|i| TenantCfg::new(qos[i % qos.len()], self.rate.unwrap_or(100.0)))
            .collect()
    }

    /// The stream configuration the flags describe, or `None` when
    /// `--arrival` was not given (so the config stays bit-for-bit
    /// default and the run is the ordinary closed-loop one).
    fn stream_config(&self, n_mix: usize) -> Option<StreamConfig> {
        let process = self.arrival.clone()?;
        let duration_ps = self.duration_ps.unwrap_or(20_000 * 1_000_000);
        Some(StreamConfig {
            duration_ps,
            // Steady-state truncation: skip the first tenth of the window.
            warmup_ps: duration_ps / 10,
            process,
            tenants: self.tenant_list(n_mix),
            ..StreamConfig::default()
        })
    }

    /// The platform the flags describe for one policy: every platform,
    /// fault and stream flag. The time limit belongs to the workload.
    fn config(&self, policy: PolicyKind, n_mix: usize) -> SocConfig {
        let mut cfg = SocConfig::mobile(policy);
        if self.no_forwarding {
            cfg = cfg.without_forwarding();
        }
        if self.crossbar {
            cfg.mem = cfg.mem.with_crossbar();
        }
        cfg.output_partitions = self.partitions;
        if let Some(fault) = self.fault_config() {
            cfg = cfg.with_fault(fault);
        }
        if let Some(stream) = self.stream_config(n_mix) {
            cfg = cfg.with_stream(stream);
        }
        cfg
    }

    /// The simulated-time cap: `--limit-ms`, or 50 ms under `--continuous`.
    fn limit(&self) -> Option<Time> {
        self.limit_ps.map(Time::from_ps).or(self.continuous.then(|| Time::from_ms(50)))
    }
}

const SERVICE_FLAGS_NEED_ARRIVAL: &str =
    "--rate/--duration-us/--tenants/--qos need --arrival to enable service mode";

/// The policy whose [`PolicyKind::name`] is `s`, ignoring case; `gedfd`
/// and `gedfn` also name the two GEDF variants.
fn parse_policy(s: &str) -> Option<PolicyKind> {
    let name = match s.to_ascii_lowercase().as_str() {
        "gedfd" => "gedf-d",
        "gedfn" => "gedf-n",
        _ => s,
    };
    PolicyKind::ALL
        .into_iter()
        .chain(PolicyKind::EXTENSIONS)
        .find(|kind| kind.name().eq_ignore_ascii_case(name))
}

/// Parses and cross-checks the flags, returning them with the mix's
/// applications. Every error here is an argument error (exit 2).
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<(Args, Vec<App>), String> {
    let mut args = Args {
        mix: "CGL".to_string(),
        policies: vec![PolicyKind::Relief],
        oracle: false,
        jobs: relief::bench::campaign::default_jobs(),
        continuous: false,
        limit_ps: None,
        crossbar: false,
        no_forwarding: false,
        partitions: 2,
        trace_out: None,
        fault_rate: 0.0,
        fault_seed: None,
        arrival: None,
        rate: None,
        duration_ps: None,
        tenants: None,
        qos: None,
    };
    let mut it = cli::Args::new(argv);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--mix" => args.mix = it.raw(&flag)?,
            "--policy" => {
                args.policies = Vec::new();
                for name in it.raw(&flag)?.split(',').map(str::trim) {
                    if name.eq_ignore_ascii_case("oracle") {
                        args.oracle = true;
                    } else {
                        args.policies.push(
                            parse_policy(name)
                                .ok_or_else(|| format!("unknown policy '{name}'"))?,
                        );
                    }
                }
                if args.policies.is_empty() && !args.oracle {
                    return Err("--policy needs at least one name".into());
                }
                if args.policies.is_empty() {
                    // `--policy oracle` alone: bound the full paper set.
                    args.policies = PolicyKind::ALL.to_vec();
                }
            }
            "--jobs" => args.jobs = it.jobs()?,
            "--continuous" => args.continuous = true,
            "--limit-ms" => {
                let ms: u64 = it.value(&flag)?;
                let max = u64::MAX / 1_000_000_000;
                args.limit_ps = Some(ms.checked_mul(1_000_000_000).ok_or_else(|| {
                    format!("--limit-ms {ms} overflows the picosecond clock (max {max} ms)")
                })?);
            }
            "--crossbar" => args.crossbar = true,
            "--no-forwarding" => args.no_forwarding = true,
            "--partitions" => {
                args.partitions = it.value(&flag)?;
                if !(1..=3).contains(&args.partitions) {
                    return Err("--partitions must be 1, 2 or 3".into());
                }
            }
            "--trace-out" => args.trace_out = Some(it.raw(&flag)?.into()),
            "--fault-rate" => {
                args.fault_rate = it.value(&flag)?;
                if !(0.0..1.0).contains(&args.fault_rate) {
                    return Err(format!("--fault-rate {} outside [0, 1)", args.fault_rate));
                }
            }
            "--fault-seed" => args.fault_seed = Some(it.seed(&flag)?),
            "--arrival" => args.arrival = Some(ArrivalProcess::parse(&it.raw(&flag)?)?),
            "--rate" => {
                let rate: f64 = it.value(&flag)?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(format!("--rate {rate} must be positive"));
                }
                args.rate = Some(rate);
            }
            "--duration-us" => {
                let ps = it.us_as_ps(&flag)?;
                if ps == 0 {
                    return Err("--duration-us must be positive".into());
                }
                args.duration_ps = Some(ps);
            }
            "--tenants" => {
                let n = it.value(&flag)?;
                if n == 0 {
                    return Err("--tenants must be at least 1".into());
                }
                args.tenants = Some(n);
            }
            "--qos" => {
                args.qos = Some(
                    it.raw(&flag)?
                        .split(',')
                        .map(|s| QosClass::parse(s.trim()))
                        .collect::<Result<_, _>>()?,
                );
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("{} (try --help)", cli::unknown(other))),
        }
    }

    let mut mix_apps = Vec::new();
    for c in args.mix.chars() {
        mix_apps.push(App::from_symbol(c.to_ascii_uppercase()).ok_or_else(|| {
            format!("unknown application symbol '{c}' (use C, D, G, H, L)")
        })?);
    }
    if mix_apps.is_empty() {
        return Err("--mix must name at least one application".into());
    }
    let service_flag = args.rate.is_some()
        || args.duration_ps.is_some()
        || args.tenants.is_some()
        || args.qos.is_some();
    if args.arrival.is_none() && service_flag {
        return Err(SERVICE_FLAGS_NEED_ARRIVAL.into());
    }
    if args.arrival.is_some() && args.continuous {
        return Err("--arrival replaces closed-loop repetition; drop --continuous".into());
    }
    if args.oracle {
        // The oracle searches the deterministic closed-loop timing model;
        // open-ended or randomized runs have no finite schedule to bound.
        let conflict = [
            (args.continuous, "--continuous"),
            (args.limit_ps.is_some(), "--limit-ms"),
            (args.arrival.is_some(), "--arrival"),
            (args.fault_config().is_some(), "--fault-rate/--fault-seed"),
        ]
        .into_iter()
        .find_map(|(set, flag)| set.then_some(flag));
        if let Some(flag) = conflict {
            return Err(format!("the oracle bounds finite deterministic runs; drop {flag}"));
        }
    }
    if (args.policies.len() > 1 || args.oracle) && args.trace_out.is_some() {
        return Err("--trace-out needs a single --policy (whose run should I trace?)".into());
    }
    Ok((args, mix_apps))
}

/// The application set the flags describe. Service mode cycles the mix
/// symbols across the tenant count and suffixes each label with its
/// tenant index (tenant `t` streams app spec `t`, and labels must stay
/// unique); closed-loop mode keeps the bare symbols.
fn build_apps(args: &Args, mix_apps: &[App]) -> Vec<AppSpec> {
    if args.arrival.is_some() {
        let n = args.tenants.unwrap_or(mix_apps.len());
        return (0..n)
            .map(|i| {
                let app = mix_apps[i % mix_apps.len()];
                AppSpec::once(format!("{}{i}", app.symbol()), app.dag())
            })
            .collect();
    }
    mix_apps
        .iter()
        .map(|app| {
            if args.continuous {
                AppSpec::continuous(app.symbol(), app.dag())
            } else {
                AppSpec::once(app.symbol(), app.dag())
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let (args, mix_apps) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.policies.len() > 1 || args.oracle {
        return compare_policies(&args, &mix_apps);
    }

    let mut cfg = args.config(args.policies[0], mix_apps.len());
    if let Some(limit) = args.limit() {
        cfg = cfg.with_time_limit(limit);
    }
    let apps = build_apps(&args, &mix_apps);
    let result = match &args.trace_out {
        None => SocSim::new(cfg, apps).run(),
        Some(stem) => match relief::bench::traceio::export_run(cfg, apps, stem) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("error: writing trace files for {}: {e}", stem.display());
                return ExitCode::FAILURE;
            }
        },
    };
    let s = &result.stats;
    println!("policy            {}", s.policy);
    println!("mix               {}", args.mix.to_ascii_uppercase());
    println!("execution time    {:.3} ms", s.exec_time.as_ms_f64());
    println!(
        "edges             {} total | {} forwarded | {} colocated ({:.1}%)",
        s.edges_total,
        s.forwards(),
        s.colocations(),
        s.forward_percent()
    );
    println!(
        "traffic           {:.2} MB DRAM | {:.2} MB SPAD-to-SPAD | {:.2} MB eliminated",
        s.traffic.dram_bytes() as f64 / 1e6,
        s.traffic.spad_to_spad_bytes as f64 / 1e6,
        s.traffic.colocated_bytes as f64 / 1e6,
    );
    let e = EnergyModel::new().energy(&s.traffic, s.exec_time);
    println!(
        "memory energy     {:.1} uJ DRAM + {:.1} uJ SPAD",
        e.dram_nj / 1000.0,
        e.spad_nj / 1000.0
    );
    if s.faults != relief::metrics::FaultStats::default() {
        println!(
            "faults            {} injected | {} recovered | {} aborted | {} quarantines | {} fault-misses",
            s.faults.injected(),
            s.faults.recovered,
            s.faults.tasks_aborted,
            s.faults.unit_quarantines,
            s.faults.fault_attributed_misses,
        );
    }
    if s.service != relief::metrics::ServiceStats::default() {
        let sv = &s.service;
        println!(
            "service           {} arrivals | {} admitted | {} shed ({:.1}%) | {} completed",
            sv.arrivals(),
            sv.admitted(),
            sv.shed_bucket() + sv.shed_capacity(),
            sv.shed_rate() * 100.0,
            sv.completed(),
        );
        for (c, name) in sv.classes.iter().zip(QosClass::ALL) {
            if c.arrivals == 0 {
                continue;
            }
            let p99 = c
                .sojourn
                .quantile_ps(0.99)
                .map(|ps| format!("{:.1} us", ps as f64 / 1e6))
                .unwrap_or_else(|| "-".to_string());
            println!(
                "  {name}: {} arrived | {} done | attainment {:.1}% | p99 sojourn {p99}",
                c.arrivals,
                c.completed,
                c.attainment() * 100.0,
            );
        }
    }
    println!("node deadlines    {:.1}% met", s.node_deadline_percent());
    println!("occupancy         accel {:.2} | interconnect {:.1}%",
        s.accel_occupancy(), 100.0 * s.interconnect_occupancy());
    println!("per application:");
    for a in s.apps.values() {
        let slow = a
            .mean_slowdown()
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|| "inf".to_string());
        println!(
            "  {}: {} DAGs done, {} met deadline, slowdown {}{}",
            a.name,
            a.dags_completed,
            a.dag_deadlines_met,
            slow,
            if a.starved { "  [STARVED]" } else { "" }
        );
    }
    ExitCode::SUCCESS
}

/// Comparison mode: one engine run per requested policy over the same
/// mix and platform flags, rendered side by side in request order.
fn compare_policies(args: &Args, mix_apps: &[App]) -> ExitCode {
    use relief::bench::campaign::{ExecOptions, PlatformSpec, RunSpec, WorkloadSpec};

    let mix_label = args.mix.to_ascii_uppercase();
    let apps_spec = build_apps(args, mix_apps);
    // The labels only key each policy's result: the cache is off, each
    // run keeps the platform's base seed, and one platform serves every
    // policy.
    let workload = WorkloadSpec::custom("cli", args.limit(), move || apps_spec.clone());
    let (flags, n_mix) = (args.clone(), mix_apps.len());
    let platform = PlatformSpec::custom("cli", move |p| flags.config(p, n_mix));

    let specs: Vec<RunSpec> = args
        .policies
        .iter()
        .map(|&p| RunSpec::new(p, workload.clone(), platform.clone()))
        .collect();
    let opts = ExecOptions { jobs: args.jobs, ..Default::default() };
    let (results, clean) = relief::bench::campaign::execute_reported(specs.clone(), &opts);
    if !results.failures().is_empty() {
        return ExitCode::FAILURE;
    }

    // The ahead-of-time bound, when requested: solve over the same
    // platform knobs (fault and stream flags were rejected up front, so
    // the configuration is closed-loop) and verify the winning schedule
    // by replaying it through the simulator.
    let oracle = if args.oracle {
        let mk_cfg = |p| args.config(p, n_mix);
        let apps = build_apps(args, mix_apps);
        let opts = relief::bench::oracle::campaign_options();
        match relief::oracle::solve(mk_cfg, &apps, &opts) {
            Ok(res) => {
                let replayed = res.replay(mk_cfg, &apps);
                if replayed.stats.exec_time.as_ps() != res.makespan_ps {
                    eprintln!(
                        "warning: oracle replay diverged from its prediction \
                         ({} vs {} ps) — the bound is suspect",
                        replayed.stats.exec_time.as_ps(),
                        res.makespan_ps
                    );
                }
                Some(res)
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let mut cols =
        vec!["policy", "exec ms", "fwd+coloc %", "DRAM MB", "ddl % (node)", "DAGs met"];
    if oracle.is_some() {
        cols.push("% of oracle");
    }
    let mut t = relief::metrics::report::Table::with_columns(&cols);
    for spec in &specs {
        let rec = results.get(&spec.label()).expect("no failures past the check above");
        let s = &rec.result.stats;
        let (done, met) = s.apps.values().fold((0u64, 0u64), |(d, m), a| {
            (d + a.dags_completed, m + a.dag_deadlines_met)
        });
        let mut row = vec![
            spec.policy.name().to_string(),
            format!("{:.3}", s.exec_time.as_ms_f64()),
            format!("{:.1}", s.forward_percent()),
            format!("{:.2}", s.traffic.dram_bytes() as f64 / 1e6),
            format!("{:.1}", s.node_deadline_percent()),
            format!("{met}/{done}"),
        ];
        if let Some(res) = &oracle {
            row.push(if res.makespan_ps == 0 {
                "-".to_string()
            } else {
                format!(
                    "{:.1}",
                    s.exec_time.as_ps() as f64 * 100.0 / res.makespan_ps as f64
                )
            });
        }
        t.row(row);
    }
    println!("mix {mix_label} on {} worker(s), {} policies:", args.jobs, specs.len());
    if let Some(res) = &oracle {
        println!(
            "oracle bound      {:.3} ms (from {}, replay-verified)",
            res.makespan_ps as f64 / 1e9,
            if res.from_search { "search" } else { res.impersonates.name() },
        );
    }
    print!("{}", t.render());
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<(Args, Vec<App>), String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn every_policy_parses_from_its_name() {
        for kind in PolicyKind::ALL.into_iter().chain(PolicyKind::EXTENSIONS) {
            for name in [kind.name().to_owned(), kind.name().to_ascii_lowercase()] {
                assert_eq!(parse_policy(&name), Some(kind), "{name}");
            }
        }
        assert_eq!(parse_policy("gedfd"), Some(PolicyKind::GedfD));
        assert_eq!(parse_policy("GEDFN"), Some(PolicyKind::GedfN));
        assert_eq!(parse_policy("nothrottle"), None);
        let (args, _) = parse(&["--policy", "relief, relief-nothrottle"]).unwrap();
        assert_eq!(args.policies, [PolicyKind::Relief, PolicyKind::ReliefUnthrottled]);
    }

    /// `flag value` is rejected without `--arrival` (even at its default)
    /// and accepted with it.
    fn needs_arrival(flag: &str, value: &str) {
        let err = parse(&[flag, value]).err();
        assert_eq!(err.as_deref(), Some(SERVICE_FLAGS_NEED_ARRIVAL), "{flag}");
        assert!(parse(&["--arrival", "poisson", flag, value]).is_ok(), "{flag}");
    }

    #[test]
    fn rate_needs_arrival() {
        needs_arrival("--rate", "100");
    }

    #[test]
    fn duration_needs_arrival() {
        needs_arrival("--duration-us", "20000");
    }

    #[test]
    fn tenants_need_arrival() {
        needs_arrival("--tenants", "2");
    }

    #[test]
    fn qos_needs_arrival() {
        needs_arrival("--qos", "latency");
    }

    #[test]
    fn partitions_must_be_positive() {
        for bad in ["0", "4"] {
            let err = parse(&["--partitions", bad]).err();
            assert_eq!(err.as_deref(), Some("--partitions must be 1, 2 or 3"), "{bad}");
        }
        let (args, _) = parse(&["--partitions", "3"]).unwrap();
        assert_eq!(args.partitions, 3);
        assert!(parse(&["--partitions", "x"]).is_err());
    }

    #[test]
    fn duration_must_fit_the_picosecond_clock() {
        let longest = (u64::MAX / 1_000_000).to_string();
        let (args, _) = parse(&["--arrival", "det", "--duration-us", &longest]).unwrap();
        assert_eq!(args.duration_ps, Some(u64::MAX / 1_000_000 * 1_000_000));
        let err = parse(&["--arrival", "det", "--duration-us", "18446744073710"]).err();
        assert!(err.is_some_and(|e| e.starts_with("--duration-us 18446744073710 ")));
        assert!(parse(&["--arrival", "det", "--duration-us", "0"]).is_err());
    }

    #[test]
    fn time_limit_must_fit_the_picosecond_clock() {
        let (args, _) = parse(&["--limit-ms", "18446744073"]).unwrap();
        assert_eq!(args.limit(), Some(Time::from_ps(18_446_744_073_000_000_000)));
        // Unchecked, 18446744073710 ms wrapped to a 0.448 ms cap.
        for bad in ["18446744074", "18446744073710"] {
            let err = parse(&["--limit-ms", bad]).err();
            assert!(err.is_some_and(|e| e.starts_with(&format!("--limit-ms {bad} "))), "{bad}");
        }
        let (args, _) = parse(&["--continuous"]).unwrap();
        assert_eq!(args.limit(), Some(Time::from_ms(50)));
    }
}
