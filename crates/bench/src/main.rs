//! `relief-bench <command> [flags]` — the experiment harness's one front
//! door (`cargo run --release -p relief-bench -- <command> [flags]`).
//!
//! | command | prints |
//! |---|---|
//! | `all_experiments` | every paper table and figure (DESIGN.md §5) |
//! | `fig2` | the Fig. 2 schedules; `--trace-out STEM` also writes `STEM-fcfs.{json,txt}` and `STEM-relief.{json,txt}` |
//! | `platform` | Tables I, V and VI: the modeled platform |
//! | `ablations`, `sensitivity`, `rnn_scaling` | the extension studies of `relief_bench::studies` |
//! | `service`, `chaos`, `resilience` | the campaign sweeps of the modules of the same names |
//! | `campaign_smoke` | proof that a small grid reports byte-identically at 1 and 2 workers and from a warm cache |
//! | `cache_hygiene` | stale campaign-cache entries; `--purge` deletes them |
//!
//! Every command parses through [`relief_bench::cli::Args`] and exits
//! by one rule: 2 on an argument error (printed with the command's usage
//! line), 1 when any run panicked or failed event/stats reconciliation,
//! 0 otherwise. Stdout carries only the report; progress goes to stderr.

use relief_accel::SocConfig;
use relief_bench::cache::CacheConfig;
use relief_bench::campaign::{
    self, CampaignResults, CampaignSpec, Ctx, ExecOptions, RunSpec, WorkloadSpec,
};
use relief_bench::cli::{self, Args};
use relief_bench::experiments as ex;
use relief_bench::{studies, traceio, FAIRNESS_POLICIES};
use relief_core::PolicyKind;
use relief_workloads::Contention;
use std::process::ExitCode;
use std::time::Instant;

/// A command parses its arguments (`Err` = argument error, nothing run
/// yet) and then runs to an exit code.
type Command = fn(Args) -> Result<ExitCode, String>;

const COMMANDS: [(&str, &str, Command); 11] = [
    ("all_experiments", "[--jobs N] [--no-cache]", all_experiments),
    ("fig2", "[--trace-out STEM]", fig2),
    ("platform", "", |args| no_flags(args, || print_ok(studies::platform()))),
    ("ablations", "", |args| {
        no_flags(args, || {
            grid_study(studies::ablations_grid(), &ExecOptions::default(), studies::ablations)
        })
    }),
    ("sensitivity", "[--jobs N]", |args| {
        Ok(grid_study(studies::sensitivity_grid(), &jobs_only(args)?, studies::sensitivity))
    }),
    ("rnn_scaling", "[--jobs N]", |args| {
        Ok(grid_study(studies::rnn_scaling_grid(), &jobs_only(args)?, studies::rnn_scaling))
    }),
    (
        "service",
        "[--stream-seed N] [--rate R[,R...]] [--arrival det|poisson|mmpp|diurnal] \
         [--duration-us N] [--warmup-us N] [--max-in-flight N] [--jobs N] [--no-cache]",
        |args| {
            let (spec, opts) = relief_bench::service::parse_cli(args)?;
            Ok(sweep(spec.campaign(), &opts, |r| spec.render(r)))
        },
    ),
    (
        "chaos",
        "[--fault-seed N] [--stream-seed N] [--fault-rate R[,R...]] [--rate R[,R...]] \
         [--dram-mttf-us N] [--duration-us N] [--warmup-us N] [--max-in-flight N] \
         [--jobs N] [--no-cache]",
        |args| {
            let (spec, opts) = relief_bench::chaos::parse_cli(args)?;
            Ok(sweep(spec.campaign(), &opts, |r| spec.render(r)))
        },
    ),
    (
        "resilience",
        "[--fault-seed N] [--fault-rate R[,R...]] [--mttf-us N] [--jobs N] [--no-cache]",
        |args| {
            let (spec, opts) = relief_bench::resilience::parse_cli(args)?;
            Ok(sweep(spec.campaign(), &opts, |r| spec.render(r)))
        },
    ),
    ("campaign_smoke", "", |args| no_flags(args, campaign_smoke)),
    ("cache_hygiene", "[--purge]", cache_hygiene),
];

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next();
    let Some(&(name, usage, command)) = COMMANDS.iter().find(|c| Some(c.0) == name.as_deref())
    else {
        match name {
            Some(name) => eprintln!("error: unknown command '{name}'"),
            None => eprintln!("error: no command given"),
        }
        eprintln!("usage: relief-bench <command> [flags]");
        for (name, usage, _) in COMMANDS {
            eprintln!("  {}", format!("{name} {usage}").trim_end());
        }
        return ExitCode::from(2);
    };
    command(Args::new(argv)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", format!("usage: relief-bench {name} {usage}").trim_end());
        ExitCode::from(2)
    })
}

fn exit_code(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs a command that takes no flags, rejecting any argument.
fn no_flags(mut args: Args, run: impl FnOnce() -> ExitCode) -> Result<ExitCode, String> {
    match args.next() {
        Some(arg) => Err(cli::unknown(&arg)),
        None => Ok(run()),
    }
}

fn print_ok(text: String) -> ExitCode {
    print!("{text}");
    ExitCode::SUCCESS
}

/// `--jobs N` alone; the persistent cache stays off.
fn jobs_only(mut args: Args) -> Result<ExecOptions, String> {
    let mut opts = ExecOptions::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--jobs" => opts.jobs = args.jobs()?,
            other => return Err(cli::unknown(other)),
        }
    }
    Ok(opts)
}

/// Executes a grid command's runs up front. `None` when a run panicked:
/// the command then aborts before rendering anything.
fn prewarm(grid: Vec<RunSpec>, opts: &ExecOptions) -> Option<(CampaignResults, bool)> {
    eprintln!("== prewarming {} runs on {} worker(s) ==", grid.len(), opts.jobs);
    let (results, clean) = campaign::execute_reported(grid, opts);
    let failed = results.failures().len();
    if failed > 0 {
        eprintln!("== {failed} run(s) failed; aborting before rendering ==");
        return None;
    }
    Some((results, clean))
}

/// A grid study: prewarm its runs, then render from them.
fn grid_study(grid: Vec<RunSpec>, opts: &ExecOptions, render: fn(&Ctx) -> String) -> ExitCode {
    let Some((results, clean)) = prewarm(grid, opts) else {
        return ExitCode::FAILURE;
    };
    print!("{}", render(&Ctx::from_results(&results)));
    exit_code(clean)
}

/// A campaign sweep: execute every cell, then render the report, with
/// `FAILED` rows for panicked cells.
fn sweep(
    campaign: CampaignSpec,
    opts: &ExecOptions,
    render: impl FnOnce(&CampaignResults) -> String,
) -> ExitCode {
    let specs = campaign.expand();
    eprintln!(
        "campaign '{}' (hash {:016x}): {} runs on {} worker(s)",
        campaign.name,
        campaign.hash(),
        specs.len(),
        opts.jobs,
    );
    let (results, clean) = campaign::execute_reported(specs, opts);
    print!("{}", render(&results));
    exit_code(clean)
}

/// The full paper reproduction. The grid ([`ex::grid::full_grid`]) runs
/// up front on the campaign engine and through the persistent campaign
/// cache (`target/campaign-cache/`), so a warm rerun simulates nothing;
/// the renderers then draw every result from it. Stdout is byte-identical
/// for any `--jobs`. Fig. 12 times the host and the oracle table searches
/// rather than replays, so both are cached as rendered artifacts: that
/// keeps a warm rerun byte-identical, and `--no-cache` re-measures.
fn all_experiments(mut args: Args) -> Result<ExitCode, String> {
    let mut opts = ExecOptions { cache: CacheConfig::standard(), ..Default::default() };
    while let Some(flag) = args.next() {
        args.exec_flag(&flag, &mut opts)?;
    }
    let t0 = Instant::now();
    let Some((results, clean)) = prewarm(ex::grid::full_grid(), &opts) else {
        return Ok(ExitCode::FAILURE);
    };
    let ctx = Ctx::from_results(&results);
    eprintln!("== grid done, rendering ({:.0?} elapsed) ==", t0.elapsed());
    let cache = &opts.cache;
    let artifact = |name: &str, render: &dyn Fn() -> String| -> String {
        cache.lookup_artifact(name).unwrap_or_else(|| {
            let body = render();
            cache.store_artifact(name, &body);
            body
        })
    };
    let jobs = opts.jobs;
    let sections: [(&str, &dyn Fn() -> String); 16] = [
        ("table2", &|| ex::table2_with(&ctx)),
        ("fig2", &|| ex::fig2_with(&ctx)),
        ("fig4", &|| ex::fig4_with(&ctx)),
        ("fig4-col", &|| ex::fig4_colocations_with(&ctx)),
        ("fig5", &|| ex::fig5_with(&ctx)),
        ("fig6", &|| ex::fig6_with(&ctx)),
        ("fig7", &|| ex::fig7_with(&ctx)),
        ("fig8", &|| ex::fig8_with(&ctx)),
        ("fig9", &|| ex::fig9_with(&ctx)),
        ("fig10", &|| ex::fig10_with(&ctx)),
        ("table7", &|| ex::table7_with(&ctx)),
        ("table8", &|| ex::table8_with(&ctx)),
        ("fig11", &|| ex::fig11_with(&ctx)),
        ("fig12", &|| artifact("fig12-host-latency", &ex::fig12)),
        ("fig13", &|| ex::fig13_with(&ctx)),
        ("oracle", &|| artifact("table-oracle", &|| relief_bench::oracle::table_oracle(jobs))),
    ];
    for (name, render) in sections {
        eprintln!("== running {name} ({:.0?} elapsed) ==", t0.elapsed());
        println!("{}", render());
    }
    eprintln!("== done in {:.0?} ==", t0.elapsed());
    Ok(exit_code(clean))
}

/// The Fig. 2 schedules, a grid study of its eight cells; `--trace-out
/// STEM` also re-runs the Fig. 2 workload under FCFS and RELIEF with
/// tracing attached.
fn fig2(mut args: Args) -> Result<ExitCode, String> {
    let mut stem = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--trace-out" => stem = Some(args.raw(&flag)?),
            other => return Err(cli::unknown(other)),
        }
    }
    let runs = FAIRNESS_POLICIES.map(ex::grid::fig2_run).to_vec();
    let code = grid_study(runs, &ExecOptions::default(), ex::fig2_with);
    let Some(stem) = stem else { return Ok(code) };
    for policy in [PolicyKind::Fcfs, PolicyKind::Relief] {
        let suffix = format!("-{}", policy.name().to_ascii_lowercase());
        let path = traceio::suffixed(stem.as_ref(), &suffix);
        let cfg = SocConfig::generic(vec![1, 1], policy);
        if let Err(e) = traceio::export_run(cfg, ex::fig2_workload(), &path) {
            eprintln!("error: writing traces under {}: {e}", path.display());
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(code)
}

/// Expands a 2×2 (policy × workload) grid, executes it serially and with
/// two workers, and fails unless both reports and summaries match byte
/// for byte: the whole determinism contract in well under a second. The
/// grid then runs cold (two workers) and warm (one) through a fresh
/// persistent cache, which must leave exactly one pack and serve the warm
/// pass entirely, with the uncached report.
fn campaign_smoke() -> ExitCode {
    let mixes = Contention::Low.mixes();
    let spec = CampaignSpec::new(
        "smoke",
        vec![PolicyKind::Lax, PolicyKind::Relief],
        vec![
            WorkloadSpec::mix(Contention::Low, &mixes[0]),
            WorkloadSpec::mix(Contention::Low, &mixes[1]),
        ],
    );
    eprintln!("campaign 'smoke' (hash {:016x}): {} runs", spec.hash(), spec.expand().len());
    let (serial, clean1) =
        campaign::execute_reported(spec.expand(), &ExecOptions { jobs: 1, ..Default::default() });
    let (threaded, clean2) =
        campaign::execute_reported(spec.expand(), &ExecOptions { jobs: 2, ..Default::default() });
    let mut failed = !(clean1 && clean2);
    for (what, a, b) in [
        ("report", serial.report(), threaded.report()),
        ("summary", serial.summary(), threaded.summary()),
    ] {
        if a != b {
            eprintln!("{what} mismatch between jobs=1 and jobs=2");
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    let dir = std::env::temp_dir().join(format!("relief-campaign-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cached = |jobs| ExecOptions { jobs, cache: CacheConfig::at(&dir) };
    let (_, clean3) = campaign::execute_reported(spec.expand(), &cached(2));
    let (warm, clean4) = campaign::execute_reported(spec.expand(), &cached(1));
    let packs = std::fs::read_dir(&dir).map_or(0, |files| {
        files.flatten().filter(|f| f.path().extension().is_some_and(|e| e == "pack")).count()
    });
    let _ = std::fs::remove_dir_all(&dir);
    let same = warm.report() == serial.report();
    if !(clean3 && clean4 && same) || warm.simulated != 0 || packs != 1 {
        eprintln!(
            "campaign cache round trip failed: {} cells simulated warm (want 0), {packs} packs \
             (want 1), warm report {}",
            warm.simulated,
            if same { "identical" } else { "differs from the uncached one" },
        );
        return ExitCode::FAILURE;
    }
    print!("{}", serial.summary());
    println!(
        "campaign smoke OK: jobs=1 and jobs=2 reports byte-identical, and a warm cache served \
         every cell from one pack"
    );
    ExitCode::SUCCESS
}

/// Campaign-cache hygiene (the `cache-hygiene` step of `xtask check`).
///
/// Scans the standard cache directory (`target/campaign-cache/`, or a
/// non-empty `$RELIEF_CACHE_DIR`) for packs and artifacts written under
/// another schema version or code-version salt, per-cell `.run` files of
/// the v2–v4 layout, and `<key>.tmp<pid>` files a writer left when
/// killed before its rename. None can ever hit again, so they only bloat
/// the store and can hide a forgotten salt bump. None found: exit 0.
/// Some found: list them and exit 1, or with `--purge` delete exactly
/// those and exit 0. Files under the current schema and salt are never
/// touched.
fn cache_hygiene(args: Args) -> Result<ExitCode, String> {
    let mut purge = false;
    for flag in args {
        match flag.as_str() {
            "--purge" => purge = true,
            other => return Err(cli::unknown(other)),
        }
    }
    let cache = CacheConfig::standard();
    let stale = cache.stale_entries();
    if stale.is_empty() {
        println!("cache-hygiene OK: no stale entries in {}", cache.dir.display());
        return Ok(ExitCode::SUCCESS);
    }
    let entries = |n: usize| if n == 1 { "entry" } else { "entries" };
    println!(
        "cache-hygiene: {} stale {} (wrong schema or salt, old .run layout, or orphaned temp \
         file) in {}:",
        stale.len(),
        entries(stale.len()),
        cache.dir.display()
    );
    for name in &stale {
        println!("  {name}");
    }
    if !purge {
        eprintln!(
            "cache_hygiene: stale entries rejected; re-run with --purge \
             (cargo run -p relief-bench -- cache_hygiene --purge) to delete them"
        );
        return Ok(ExitCode::FAILURE);
    }
    let mut clean = true;
    for name in &stale {
        let path = cache.dir.join(name);
        if let Err(e) = std::fs::remove_file(&path) {
            eprintln!("cache_hygiene: cannot remove {}: {e}", path.display());
            clean = false;
        }
    }
    if clean {
        println!("cache-hygiene: purged {} stale {}", stale.len(), entries(stale.len()));
    }
    Ok(exit_code(clean))
}
