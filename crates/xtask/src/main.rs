//! `cargo run -p xtask -- check` — the hermetic CI gate.
//!
//! `check` verifies what the sandboxed environment actually guarantees:
//!
//! 1. `cargo build --offline --workspace --all-targets` — the tree,
//!    including every test, example and binary, builds with zero network
//!    access (no registry dependencies may creep back in).
//! 2. `cargo clippy --offline <every library crate> --all-targets --
//!    -D warnings` — all library crates stay lint-clean, including the
//!    `clippy::unwrap_used` / `clippy::expect_used` gates their crate
//!    roots opt into (tests carry a blanket allow; the few non-test
//!    `expect`s document event-loop invariants via explicit
//!    file/function-level allows). Skipped with a notice when the
//!    clippy component is not installed. Then `docs`:
//!    `RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace
//!    --no-deps` — every intra-doc link resolves, unambiguously, and no
//!    public documentation links to a private item.
//! 3. `campaign-smoke` (release, `relief-bench campaign_smoke`) — the
//!    deterministic campaign engine executes a small grid serially and
//!    with two workers and proves the reports byte-identical; then the
//!    same grid runs cold (two workers) and warm (one) through a fresh
//!    persistent cache under the system temp directory, and the warm pass
//!    must simulate no cell, report byte-identically, and find exactly
//!    one pack.
//! 4. `cache-hygiene` (`relief-bench cache_hygiene`) — the standard
//!    campaign-cache directory holds no packs or artifacts written under
//!    a stale schema version or code-version salt, no per-cell `.run`
//!    files of the old layout, and no orphaned temp files (none can ever
//!    hit again; `relief-bench cache_hygiene --purge` deletes them).
//!    `chaos-smoke` (release, `relief-bench chaos`) — the chaos campaign
//!    executes a small fault × overload grid with the self-healing stack
//!    on, and `invariants` proves the end-of-run conservation checks
//!    also hold in a release build via the `invariants` feature, on the
//!    chaos suite, the fault-injection suite, the oracle suite (whose
//!    search resumes forked simulations, each checked at its end), the
//!    service-mode suite (whose bounded-memory MMPP overload and
//!    overload counter reconciliation exercise the run ledger's
//!    bounded-memory rule), every behaviour-corpus cell (whose release
//!    build must also reproduce the committed digests) and
//!    `relief-accel`'s `sim_behavior` suite (whose forked-replay tests
//!    pin that pausing with `run_until`, forking and resuming with
//!    `try_run` dispatch exactly the events of an uninterrupted run).
//! 5. The determinism, conformance, and property test suites:
//!    `campaign_engine` (reports and summaries identical at any worker
//!    count, panics attributed to their spec, and a `Ctx` that panics
//!    on a cell its campaign never executed), `campaign_cache` (the
//!    content-addressed incremental-campaign store: a cold run writes
//!    one pack, warm reruns simulate zero cells and touch no file with
//!    byte-identical reports, corrupt records and packs fall back to
//!    simulation, salt bumps invalidate), `experiments_output` (the five
//!    `relief-bench` commands behind `experiments_output.txt` reproduce
//!    it line for line, host-timed Fig. 12 fields aside),
//!    `golden_experiments`,
//!    `scheduler_conformance`, the policy suites `extensions`
//!    (RELIEF-HET, the unthrottled ablation and the design sweeps),
//!    `paper_reproduction` (the paper's per-policy observations) and
//!    `properties` (simulator invariants over random DAGs and platforms
//!    under all eleven policies), `metamorphic_properties`,
//!    `fault_injection`, `service_mode` (the open-loop streaming
//!    frontend: byte-identical reports at any `--jobs`, bit-inert when
//!    disabled, admission accounting, and a bounded-memory MMPP overload
//!    whose live-slot high-water mark stays under its bound),
//!    `chaos_conformance` (memory-side fault domains, circuit breakers,
//!    timeouts and hedges, the simulation watchdog, and the
//!    campaign-cache round trip), `behaviour_corpus` (94 simulated cells
//!    — all eleven policies, forty seeds, faults, service mode, instance
//!    recycling, every circuit-breaker transition, and the platform and
//!    predictor axes — against the committed digests in
//!    `tests/corpus/behaviour.txt`, open-loop and fault cells with a
//!    digest of their whole event stream too),
//!    `oracle_conformance` (the ahead-of-time scheduling bound: oracle ≤
//!    every online policy, prediction = replay bit-exactly, beam-width
//!    monotonicity, recorded-run replay differentials),
//!    `trace_subsystem` (the structured event stream: determinism,
//!    exporters, trace↔stats reconciliation, and kind subscription — a
//!    subscribed sink receives exactly its kinds of the full stream, and
//!    attaching it moves no other sink's capture), and `stress` (twenty
//!    random apps on a narrow platform, burst arrivals, all five paper
//!    apps together, and a long continuous run).
//! 6. `crates` — `cargo test --offline --workspace --exclude relief`:
//!    every member crate's own unit, integration and doc tests (the
//!    root package's tests are tier 1's `cargo test`). This is where
//!    relief-sim's event-queue property test against its `BinaryHeap`
//!    oracle, `relief-core`'s queue properties and `relief-accel`'s
//!    simulator behaviour suite run.
//! 7. `benchmark` — `cargo test` on the repository benchmark
//!    (`benchmark/`, its own workspace): every workload runs end to end
//!    and its output checks hold (simulated-metric digests, traced ==
//!    untraced, trace/stats reconciliation, a warm grid simulating zero
//!    cells). Performance itself is measured only by `BENCHMARK.json`'s
//!    command; see `benchmark/README.md`.
//!
//! `check --suite <name>[,<name>...]` runs a subset of those steps by
//! name (see `check --list-suites` for the names); everything else is
//! skipped. Unknown names abort with the list of valid ones. The policy
//! gate is `check --suite scheduler_conformance,extensions,
//! paper_reproduction,properties,behaviour_corpus,oracle_conformance`.
//!
//! Exit code is nonzero if any executed step fails.

use std::process::{Command, ExitCode};

fn run(desc: &str, cmd: &mut Command) -> bool {
    println!("==> {desc}");
    match cmd.status() {
        Ok(status) if status.success() => true,
        Ok(status) => {
            eprintln!("xtask: '{desc}' failed with {status}");
            false
        }
        Err(e) => {
            eprintln!("xtask: cannot spawn '{desc}': {e}");
            false
        }
    }
}

fn have_clippy() -> bool {
    Command::new("cargo")
        .args(["clippy", "--version"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// The integration-test suites step 5 runs, as `(package, test target)`.
const TEST_SUITES: [(&str, &str); 16] = [
    ("relief-bench", "campaign_engine"),
    ("relief-bench", "campaign_cache"),
    ("relief-bench", "experiments_output"),
    ("relief", "golden_experiments"),
    ("relief", "scheduler_conformance"),
    ("relief", "extensions"),
    ("relief", "paper_reproduction"),
    ("relief", "properties"),
    ("relief", "metamorphic_properties"),
    ("relief", "fault_injection"),
    ("relief", "service_mode"),
    ("relief", "chaos_conformance"),
    ("relief", "behaviour_corpus"),
    ("relief", "oracle_conformance"),
    ("relief", "trace_subsystem"),
    ("relief", "stress"),
];

/// Names accepted by `check --suite` that are not test targets.
const META_SUITES: [&str; 9] = [
    "build",
    "lint",
    "docs",
    "campaign-smoke",
    "cache-hygiene",
    "chaos-smoke",
    "invariants",
    "crates",
    "benchmark",
];

fn print_suites() {
    println!("check suites (for --suite <name>[,<name>...]):");
    for name in META_SUITES {
        println!("  {name}");
    }
    for (package, suite) in TEST_SUITES {
        println!("  {suite}  (cargo test -p {package} --test {suite})");
    }
}

/// Parses `check` arguments into a suite filter. `None` = run everything.
fn parse_suite_filter(args: &[String]) -> Result<Option<Vec<String>>, String> {
    let mut filter: Option<Vec<String>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--suite" => {
                let v = it.next().ok_or("--suite needs a value")?;
                let names = filter.get_or_insert_with(Vec::new);
                names.extend(v.split(',').map(|s| s.trim().to_string()));
            }
            "--list-suites" => {
                print_suites();
                std::process::exit(0);
            }
            other => return Err(format!("unknown check option '{other}'")),
        }
    }
    if let Some(names) = &filter {
        let known = |n: &str| {
            META_SUITES.contains(&n) || TEST_SUITES.iter().any(|&(_, s)| s == n)
        };
        for n in names {
            if !known(n) {
                print_suites();
                return Err(format!("unknown suite '{n}'"));
            }
        }
        if names.is_empty() {
            return Err("--suite needs at least one name".into());
        }
    }
    Ok(filter)
}

fn check(args: &[String]) -> ExitCode {
    let filter = match parse_suite_filter(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };
    let wants = |name: &str| filter.as_ref().is_none_or(|f| f.iter().any(|n| n == name));

    let mut ok = true;
    if wants("build") {
        ok &= run(
            "cargo build --offline --workspace --all-targets",
            Command::new("cargo").args(["build", "--offline", "--workspace", "--all-targets"]),
        );
    }
    if wants("lint") {
        if have_clippy() {
            const LIB_CRATES: [&str; 13] = [
                "relief-sim",
                "relief-dag",
                "relief-mem",
                "relief-core",
                "relief-fault",
                "relief-service",
                "relief-accel",
                "relief-workloads",
                "relief-metrics",
                "relief-trace",
                "relief-oracle",
                "relief-bench",
                "relief",
            ];
            let mut args: Vec<&str> = vec!["clippy", "--offline"];
            for c in LIB_CRATES {
                args.extend(["-p", c]);
            }
            args.extend(["--all-targets", "--", "-D", "warnings"]);
            ok &= run(
                "cargo clippy --offline <library crates> --all-targets -- -D warnings",
                Command::new("cargo").args(&args),
            );
        } else {
            println!("==> clippy component not installed; skipping lint gate");
        }
    }
    if wants("docs") {
        ok &= run(
            "RUSTDOCFLAGS=\"-D warnings\" cargo doc --offline --workspace --no-deps",
            Command::new("cargo")
                .args(["doc", "--offline", "--workspace", "--no-deps"])
                .env("RUSTDOCFLAGS", "-D warnings"),
        );
    }
    if wants("campaign-smoke") {
        ok &= run(
            "campaign engine smoke test (jobs=1 vs jobs=2, cold vs warm cache)",
            Command::new("cargo").args([
                "run",
                "--offline",
                "--release",
                "-p",
                "relief-bench",
                "--",
                "campaign_smoke",
            ]),
        );
    }
    if wants("cache-hygiene") {
        ok &= run(
            "campaign-cache hygiene (no stale schema/salt, .run or temp files)",
            Command::new("cargo").args([
                "run",
                "--offline",
                "-p",
                "relief-bench",
                "--",
                "cache_hygiene",
            ]),
        );
    }
    if wants("chaos-smoke") {
        ok &= run(
            "chaos campaign smoke run (faults + overload, self-healing on)",
            Command::new("cargo").args([
                "run",
                "--offline",
                "--release",
                "-p",
                "relief-bench",
                "--",
                "chaos",
                "--fault-rate",
                "0,0.02",
                "--rate",
                "300",
                "--duration-us",
                "10000",
                "--warmup-us",
                "1000",
                "--jobs",
                "2",
                "--no-cache",
            ]),
        );
    }
    if wants("invariants") {
        ok &= run(
            "release-mode conservation invariants (--features invariants)",
            Command::new("cargo").args([
                "test",
                "--offline",
                "--release",
                "--features",
                "invariants",
                "-p",
                "relief",
                "--test",
                "chaos_conformance",
                "--test",
                "fault_injection",
                "--test",
                "oracle_conformance",
                "--test",
                "service_mode",
                "--test",
                "behaviour_corpus",
            ]),
        );
        ok &= run(
            "release-mode forked-replay exactness (relief-accel sim_behavior, --features invariants)",
            Command::new("cargo").args([
                "test",
                "--offline",
                "--release",
                "--features",
                "invariants",
                "-p",
                "relief-accel",
                "--test",
                "sim_behavior",
            ]),
        );
    }
    for (package, suite) in TEST_SUITES {
        if !wants(suite) {
            continue;
        }
        ok &= run(
            &format!("cargo test --offline -p {package} --test {suite}"),
            Command::new("cargo").args(["test", "--offline", "-p", package, "--test", suite]),
        );
    }
    if wants("crates") {
        ok &= run(
            "cargo test --offline --workspace --exclude relief",
            Command::new("cargo").args(["test", "--offline", "--workspace", "--exclude", "relief"]),
        );
    }
    if wants("benchmark") {
        ok &= run(
            "cargo test --offline --manifest-path benchmark/Cargo.toml",
            Command::new("cargo")
                .args(["test", "--offline", "--manifest-path", "benchmark/Cargo.toml"])
                .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")),
        );
    }
    if ok {
        println!("xtask check: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        _ => {
            eprintln!("usage: cargo run -p xtask -- check [--suite NAMES] [--list-suites]");
            ExitCode::from(2)
        }
    }
}
