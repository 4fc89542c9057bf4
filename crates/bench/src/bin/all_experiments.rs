//! Runs every experiment in sequence — the full paper reproduction.
//! Output is suitable for diffing against EXPERIMENTS.md.
//!
//! The full simulation grid ([`ex::grid::full_grid`]) is executed up
//! front on the deterministic campaign engine (`--jobs N` worker
//! threads, default = available parallelism); the artifact renderers
//! then draw every result from the prewarmed cache. Stdout is
//! byte-identical to the historical serial runner for any `--jobs`
//! value — only wall-clock time changes.
//!
//! Results also persist in the content-addressed campaign cache
//! (`target/campaign-cache/`, see `relief_bench::cache`), so a rerun
//! with an unchanged code-version salt simulates zero cells and emits
//! byte-identical stdout. The Fig. 12 host-latency table and the oracle
//! table are cached as rendered artifacts for the same reason — Fig. 12
//! times host wall-clock and would otherwise differ on every run. Pass
//! `--no-cache` to force full re-simulation (and a fresh Fig. 12
//! measurement).

use relief_bench::cache::CacheConfig;
use relief_bench::campaign::{self, Ctx, ExecOptions};
use relief_bench::experiments as ex;

/// The accepted flags, printed with every argument error.
const USAGE: &str = "usage: all_experiments [--jobs N] [--no-cache]";

/// Parses the command line into `(jobs, cache)`. Any argument other than
/// `--jobs N` and `--no-cache` is an error, so a typo such as
/// `--no-cahce` cannot silently run against the cache.
fn parse_args(args: &[String]) -> Result<(usize, CacheConfig), String> {
    let mut jobs = campaign::default_jobs();
    let mut cache = CacheConfig::standard();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => jobs = campaign::parse_jobs([arg].into_iter().chain(it.next()).cloned())?,
            "--no-cache" => cache = CacheConfig::disabled(),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok((jobs, cache))
}

fn main() {
    let t0 = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (jobs, cache) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let grid = ex::grid::full_grid();
    eprintln!("== prewarming {} runs on {jobs} worker(s) ==", grid.len());
    let results = campaign::execute(
        grid,
        &ExecOptions { jobs, cache: cache.clone(), ..Default::default() },
    );
    let failures = results.failures();
    for (label, msg) in &failures {
        eprintln!("run {label} panicked: {msg}");
    }
    for (label, mismatches) in results.mismatched() {
        eprintln!("run {label} failed event/stats reconciliation:");
        for m in mismatches {
            eprintln!("  {m}");
        }
    }
    if !failures.is_empty() {
        eprintln!("== {} run(s) failed; aborting before rendering ==", failures.len());
        std::process::exit(1);
    }
    let ctx = Ctx::from_results(&results);
    eprintln!("== grid done, rendering ({:.0?} elapsed) ==", t0.elapsed());

    // Renders one artifact through the rendered-artifact cache: answered
    // from disk when warm, recomputed (and stored) otherwise.
    let artifact = |name: &str, render: &dyn Fn() -> String| -> String {
        cache.lookup_artifact(name).unwrap_or_else(|| {
            let body = render();
            cache.store_artifact(name, &body);
            body
        })
    };

    for (name, f) in [
        ("table2", ex::table2_with as fn(&Ctx) -> String),
        ("fig2", ex::fig2_with),
        ("fig4", ex::fig4_with),
        ("fig4-col", ex::fig4_colocations_with),
        ("fig5", ex::fig5_with),
        ("fig6", ex::fig6_with),
        ("fig7", ex::fig7_with),
        ("fig8", ex::fig8_with),
        ("fig9", ex::fig9_with),
        ("fig10", ex::fig10_with),
        ("table7", ex::table7_with),
        ("table8", ex::table8_with),
        ("fig11", ex::fig11_with),
    ] {
        eprintln!("== running {name} ({:.0?} elapsed) ==", t0.elapsed());
        print!("{}", f(&ctx));
        println!();
    }
    // Fig. 12 times *host* insert latency with `Instant`, so its numbers
    // change on every measurement; caching the rendered table is what
    // keeps a warm rerun byte-identical (`--no-cache` re-measures).
    eprintln!("== running fig12 ({:.0?} elapsed) ==", t0.elapsed());
    print!("{}", artifact("fig12-host-latency", &ex::fig12));
    println!();
    eprintln!("== running fig13 ({:.0?} elapsed) ==", t0.elapsed());
    print!("{}", ex::fig13_with(&ctx));
    println!();
    // The oracle table searches rather than replays the campaign grid
    // (output is jobs-independent), so it is cached as an artifact too.
    eprintln!("== running oracle ({:.0?} elapsed) ==", t0.elapsed());
    print!("{}", artifact("table-oracle", &|| relief_bench::oracle::table_oracle(jobs)));
    println!();
    eprintln!("== done in {:.0?} ==", t0.elapsed());
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn accepts_jobs_and_no_cache() {
        let (jobs, cache) = parse_args(&args(&["--no-cache", "--jobs", "3"])).unwrap();
        assert_eq!(jobs, 3);
        assert!(!cache.enabled, "--no-cache must disable the store");
        let (_, cache) = parse_args(&args(&[])).unwrap();
        assert!(cache.enabled, "the persistent cache defaults on");
    }

    #[test]
    fn rejects_unknown_and_malformed_arguments() {
        for bad in [
            &["--no-cahce"][..],
            &["--jobs", "2", "--frobnicate"],
            &["extra"],
            &["--jobs"],
            &["--jobs", "0"],
            &["--jobs", "many"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
