//! Persistent campaign-cache conformance suite.
//!
//! The content-addressed cache (`relief_bench::cache`) must be invisible
//! in campaign *output* and visible only in campaign *wall-clock*: a
//! warm rerun simulates zero cells yet renders byte-identical reports, a
//! corrupt or stale entry silently falls back to simulation (and is
//! repaired), and bumping the code-version salt invalidates everything
//! at once. Each test roots its cache in a fresh temp directory so runs
//! never observe each other (or a developer's real cache).

use relief_bench::cache::{CacheConfig, CODE_SALT, SCHEMA};
use relief_bench::campaign::{
    execute, CampaignResults, CampaignSpec, ExecOptions, PlatformSpec, RunRecord, RunSpec,
    WorkloadSpec,
};
use relief_bench::experiments::grid;
use relief_bench::service::ServiceSpec;
use relief_core::PolicyKind;
use relief_workloads::Contention;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// A fresh, unique cache directory under the target tmpdir.
fn temp_cache(tag: &str) -> PathBuf {
    static UNIQUE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "relief-cache-test-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small grid covering the serialization surface: closed-loop cells, a
/// time-limited (truncated) continuous cell, a record-trace platform
/// (span serialization), and an open-loop service sweep (histograms).
fn cache_campaign() -> Vec<RunSpec> {
    let low = Contention::Low.mixes();
    let cont = Contention::Continuous.mixes();
    let closed = CampaignSpec {
        name: "cache-test".into(),
        policies: vec![PolicyKind::Fcfs, PolicyKind::Relief],
        workloads: vec![
            WorkloadSpec::mix(Contention::Low, &low[0]),
            WorkloadSpec::mix(Contention::Continuous, &cont[0]),
        ],
        platforms: vec![
            PlatformSpec::mobile(),
            PlatformSpec::custom("mobile+rt", |p| {
                let mut cfg = relief_accel::SocConfig::mobile(p);
                cfg.record_trace = true;
                cfg
            }),
        ],
        replicates: 1,
    };
    let service = ServiceSpec {
        rates: vec![200.0],
        duration_ps: 5_000_000_000, // 5 ms of arrivals
        warmup_ps: 1_000_000_000,
        policies: vec![PolicyKind::Relief],
        ..Default::default()
    };
    let mut specs = closed.expand();
    specs.extend(service.campaign().expand());
    specs
}

fn opts(jobs: usize, dir: &std::path::Path) -> ExecOptions {
    ExecOptions { jobs, cache: CacheConfig::at(dir.to_path_buf()), ..Default::default() }
}

/// Asserts two result sets are observationally identical, field by
/// field and bit by bit (floats compared through their bit patterns via
/// the Debug rendering plus the raw prediction vectors).
fn assert_results_identical(a: &CampaignResults, b: &CampaignResults, what: &str) {
    assert_eq!(a.report(), b.report(), "{what}: report text diverged");
    assert_eq!(a.summary(), b.summary(), "{what}: summary diverged");
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.label, y.label);
        let (rx, ry) = match (&x.outcome, &y.outcome) {
            (Ok(rx), Ok(ry)) => (rx, ry),
            _ => panic!("{what}: {} did not succeed on both sides", x.label),
        };
        assert_eq!(rx.counters, ry.counters, "{what}: {} counters", x.label);
        assert_eq!(rx.mismatches.len(), ry.mismatches.len());
        assert_eq!(
            format!("{:?}", rx.result.stats),
            format!("{:?}", ry.result.stats),
            "{what}: {} stats",
            x.label
        );
        assert_eq!(rx.result.per_app_mem_time, ry.result.per_app_mem_time);
        assert_eq!(rx.result.per_app_compute_time, ry.result.per_app_compute_time);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&rx.result.prediction.compute_rel_errors),
            bits(&ry.result.prediction.compute_rel_errors),
            "{what}: {} compute predictions",
            x.label
        );
        assert_eq!(
            bits(&rx.result.prediction.dm_rel_errors),
            bits(&ry.result.prediction.dm_rel_errors)
        );
        assert_eq!(
            bits(&rx.result.prediction.bw_rel_errors),
            bits(&ry.result.prediction.bw_rel_errors)
        );
        assert_eq!(rx.result.trace, ry.result.trace, "{what}: {} trace", x.label);
        assert_eq!(rx.result.events_dispatched, ry.result.events_dispatched);
    }
}

#[test]
fn warm_rerun_simulates_zero_cells_and_is_byte_identical() {
    let dir = temp_cache("warm");
    let specs = cache_campaign();
    let n = specs.len();

    let cold = execute(specs.clone(), &opts(2, &dir));
    assert!(cold.failures().is_empty(), "{:?}", cold.failures());
    assert!(cold.mismatched().is_empty(), "{:?}", cold.mismatched());
    assert_eq!((cold.cache_hits, cold.simulated), (0, n), "cold run must simulate all");

    // Warm rerun at a *different* jobs level: zero cells simulated, all
    // output identical down to prediction-sample bit patterns.
    let warm = execute(specs.clone(), &opts(4, &dir));
    assert_eq!((warm.cache_hits, warm.simulated), (n, 0), "warm run must hit every cell");
    assert_results_identical(&cold, &warm, "cold vs warm");

    // The trace-recording platform actually produced spans, so the span
    // serialization path was exercised (not vacuously empty)...
    let traced = warm
        .outcomes
        .iter()
        .find(|o| o.label.contains("mobile+rt"))
        .and_then(|o| o.outcome.as_ref().ok())
        .expect("record-trace cell present");
    assert!(!traced.result.trace.spans.is_empty(), "record_trace cell has spans");
    // ...and the service cell produced histogram samples.
    let svc = warm
        .outcomes
        .iter()
        .find(|o| o.label.contains("mobile+svc"))
        .and_then(|o| o.outcome.as_ref().ok())
        .expect("service cell present");
    assert!(svc.result.stats.service.arrivals() > 0, "service cell saw arrivals");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_entries_fall_back_to_simulation_and_are_repaired() {
    let dir = temp_cache("poison");
    let specs = cache_campaign();
    let n = specs.len();
    let cold = execute(specs.clone(), &opts(2, &dir));
    assert_eq!(cold.simulated, n);

    // Corrupt two entries: truncate one mid-stream, fill one with junk.
    let entries = run_entries(&dir);
    assert_eq!(entries.len(), n, "one entry per cell");
    let full = std::fs::read(&entries[0]).unwrap();
    std::fs::write(&entries[0], &full[..full.len() / 2]).unwrap();
    std::fs::write(&entries[1], "relief-campaign-cache/v1 garbage\n").unwrap();

    let warm = execute(specs.clone(), &opts(3, &dir));
    assert_eq!(
        (warm.cache_hits, warm.simulated),
        (n - 2, 2),
        "exactly the two poisoned cells re-simulate"
    );
    assert_results_identical(&cold, &warm, "after poisoning");

    // The re-simulation overwrote the bad entries: a second warm pass
    // hits everything.
    let healed = execute(specs, &opts(1, &dir));
    assert_eq!((healed.cache_hits, healed.simulated), (n, 0), "poisoned entries repaired");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_salt_bump_invalidates_the_whole_cache() {
    let dir = temp_cache("salt");
    let low = Contention::Low.mixes();
    let spec = CampaignSpec::new(
        "salt-test",
        vec![PolicyKind::Relief],
        vec![WorkloadSpec::mix(Contention::Low, &low[0])],
    );
    let specs = spec.expand();
    let n = specs.len();
    execute(specs.clone(), &opts(1, &dir));

    // Same directory, bumped salt: every entry misses...
    let bumped = CacheConfig { salt: format!("{CODE_SALT}+1"), ..CacheConfig::at(dir.clone()) };
    let rerun = execute(
        specs.clone(),
        &ExecOptions { jobs: 1, cache: bumped.clone(), ..Default::default() },
    );
    assert_eq!((rerun.cache_hits, rerun.simulated), (0, n), "salt bump must invalidate");

    // ...and the hygiene scan (under the bumped salt) flags the entries
    // written under the old one, while the matching salt sees none
    // besides the freshly written bumped-salt entries.
    assert!(
        !bumped.stale_entries().is_empty(),
        "old-salt entries must scan as stale after a bump"
    );
    let current = CacheConfig::at(dir.clone());
    let stale = current.stale_entries();
    assert!(
        !stale.is_empty(),
        "bumped-salt entries must scan as stale under the current salt"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_captured_runs_bypass_the_cache() {
    let dir = temp_cache("trace");
    let low = Contention::Low.mixes();
    let spec = CampaignSpec::new(
        "trace-test",
        vec![PolicyKind::Fcfs, PolicyKind::Relief],
        vec![WorkloadSpec::mix(Contention::Low, &low[0])],
    );
    let specs = spec.expand();
    let n = specs.len();
    let captured: String = specs[0].label();

    let mk = |jobs| ExecOptions {
        jobs,
        trace_labels: BTreeSet::from([captured.clone()]),
        cache: CacheConfig::at(dir.clone()),
    };
    let first = execute(specs.clone(), &mk(2));
    assert_eq!(first.simulated, n);
    // The captured run re-simulates on the warm pass (its text trace is
    // never persisted) while every other cell hits.
    let second = execute(specs.clone(), &mk(1));
    assert_eq!(
        (second.cache_hits, second.simulated),
        (n - 1, 1),
        "captured label must bypass the cache"
    );
    let trace_of = |r: &CampaignResults| {
        r.get(&captured).and_then(|rec| rec.trace_text.clone()).expect("captured trace")
    };
    assert_eq!(trace_of(&first), trace_of(&second), "captured traces identical");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rendered_artifacts_round_trip_and_respect_salt() {
    let dir = temp_cache("artifact");
    let cache = CacheConfig::at(dir.clone());
    assert_eq!(cache.lookup_artifact("oracle"), None);
    let body = "line one\nline two | with % and µ\n";
    cache.store_artifact("oracle", body);
    assert_eq!(cache.lookup_artifact("oracle").as_deref(), Some(body));
    // A different name is a different address.
    assert_eq!(cache.lookup_artifact("fig12"), None);
    // A bumped salt misses the stored artifact.
    let bumped = CacheConfig { salt: "other".into(), ..CacheConfig::at(dir.clone()) };
    assert_eq!(bumped.lookup_artifact("oracle"), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replicate seeds, time limits, and labels flow through the cache key:
/// two specs differing only in replicate index never collide.
#[test]
fn replicates_cache_independently() {
    let dir = temp_cache("replicates");
    let low = Contention::Low.mixes();
    let spec = CampaignSpec {
        replicates: 2,
        ..CampaignSpec::new(
            "rep-test",
            vec![PolicyKind::Relief],
            vec![WorkloadSpec::mix(Contention::Low, &low[0])],
        )
    };
    let specs: Vec<RunSpec> = spec.expand();
    assert_eq!(specs.len(), 2);
    let cold = execute(specs.clone(), &opts(2, &dir));
    let warm = execute(specs, &opts(2, &dir));
    assert_eq!((warm.cache_hits, warm.simulated), (2, 0));
    // Distinct replicates produced distinct results (different seeds) —
    // a collision would have made these identical.
    let texts: Vec<String> = cold
        .outcomes
        .iter()
        .map(|o| format!("{:?}", o.outcome.as_ref().unwrap().result.stats))
        .collect();
    assert_results_identical(&cold, &warm, "replicates");
    assert_eq!(texts.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one small cell (Fig. 2 under RELIEF: three apps, recorded
/// spans) cold into a fresh cache and returns the cache, the spec, the
/// record, and the path of its single entry.
fn one_entry(tag: &str) -> (CacheConfig, RunSpec, RunRecord, PathBuf) {
    let cache = CacheConfig::at(temp_cache(tag));
    let spec = grid::fig2_run(PolicyKind::Relief);
    let mut cold = execute(vec![spec.clone()], &opts(1, &cache.dir));
    assert_eq!(cold.simulated, 1);
    let rec = cold.outcomes.remove(0).outcome.expect("fig2 cell runs");
    let entries = run_entries(&cache.dir);
    assert_eq!(entries.len(), 1, "one entry for one cell");
    (cache, spec, rec, entries[0].clone())
}

fn run_entries(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "run"))
        .collect();
    entries.sort();
    entries
}

#[test]
fn every_strict_prefix_of_an_entry_misses() {
    let (cache, spec, _, entry) = one_entry("prefix");
    let full = std::fs::read(&entry).unwrap();
    assert!(cache.lookup(&spec).is_some(), "the whole entry hits");
    for len in 0..full.len() {
        std::fs::write(&entry, &full[..len]).unwrap();
        assert!(cache.lookup(&spec).is_none(), "prefix of {len}/{} bytes hit", full.len());
    }
    let _ = std::fs::remove_dir_all(&cache.dir);
}

#[test]
fn flipped_schema_bool_or_end_marker_bytes_miss() {
    let (cache, spec, rec, entry) = one_entry("flip");
    let full = std::fs::read(&entry).unwrap();
    // The first app's `starved` flag: past the header strings, the policy
    // name, exec time, six traffic counters and the app count, then the
    // app's key and name, four counters, its runtimes, deadline and three
    // more counters.
    let stats = &rec.result.stats;
    let (key, app) = stats.apps.iter().next().expect("fig2 has apps");
    let starved_at = [SCHEMA, CODE_SALT, &spec.label(), &stats.policy, key, &app.name]
        .iter()
        .map(|s| 8 + s.len())
        .sum::<usize>()
        + 8 * (1 + 6 + 1 + 4 + 1 + app.dag_runtimes.len() + 1 + 3);
    assert_eq!(full[starved_at], u8::from(app.starved), "layout drifted");
    for (what, at, byte) in [
        ("schema", 8, full[8] ^ 0x01),
        ("bool", starved_at, 2),
        ("end marker", full.len() - 1, full[full.len() - 1] ^ 0x80),
    ] {
        let mut bad = full.clone();
        bad[at] = byte;
        std::fs::write(&entry, &bad).unwrap();
        assert!(cache.lookup(&spec).is_none(), "flipped {what} byte hit");
    }
    std::fs::write(&entry, &full).unwrap();
    assert!(cache.lookup(&spec).is_some(), "restored entry hits");
    let _ = std::fs::remove_dir_all(&cache.dir);
}

/// `entry` (a current-schema record) as v3 wrote it: the same body under
/// the v3 schema name, with the `EventCounters::events_dispatched`
/// counter v4 dropped back in front of the 38 counters. That counter
/// always equalled `SimResult::events_dispatched`, the `u64` just before.
fn as_v3(entry: &[u8]) -> Vec<u8> {
    const END_LEN: usize = 8;
    let counters_at = entry.len() - END_LEN - 38 * 8;
    let dispatched = entry[counters_at - 8..counters_at].to_vec();
    let mut v3 = entry.to_vec();
    v3.splice(counters_at..counters_at, dispatched);
    let name = SCHEMA.replace("/v4", "/v3");
    assert_eq!(name.len(), SCHEMA.len());
    v3[8..8 + SCHEMA.len()].copy_from_slice(name.as_bytes());
    v3
}

/// Runs `relief-bench cache_hygiene <args>` on `dir`.
fn hygiene(dir: &Path, args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_relief-bench"))
        .arg("cache_hygiene")
        .args(args)
        .env("RELIEF_CACHE_DIR", dir)
        .output()
        .unwrap()
}

#[test]
fn old_schema_entries_miss_scan_stale_and_are_rewritten() {
    assert!(SCHEMA.ends_with("/v4"));
    let (cache, spec, _, entry) = one_entry("old-schema");
    let current = std::fs::read(&entry).unwrap();
    let label = spec.label();
    let v2 = format!("relief-campaign-cache/v2 s{CODE_SALT} s{label}\n0 .\n").into_bytes();
    for (version, old) in [("v2", v2), ("v3", as_v3(&current))] {
        std::fs::write(&entry, &old).unwrap();
        assert!(cache.lookup(&spec).is_none(), "a {version} entry must miss");
        let name = entry.file_name().unwrap().to_string_lossy().into_owned();
        assert_eq!(cache.stale_entries(), vec![name.clone()], "a {version} entry scans as stale");
        let check = hygiene(&cache.dir, &[]);
        assert_eq!(check.status.code(), Some(1), "a {version} entry fails the hygiene gate");
        assert!(String::from_utf8_lossy(&check.stdout).contains(&name), "{version}");

        let rerun = execute(vec![spec.clone()], &opts(1, &cache.dir));
        assert_eq!((rerun.cache_hits, rerun.simulated), (0, 1), "the {version} cell re-simulates");
        let rewritten = std::fs::read(&entry).unwrap();
        assert_eq!(rewritten, current, "the {version} entry is rewritten as v4");
        assert!(cache.stale_entries().is_empty());
        let warm = execute(vec![spec.clone()], &opts(1, &cache.dir));
        assert_eq!(warm.cache_hits, 1, "the rewritten entry hits");
    }
    let _ = std::fs::remove_dir_all(&cache.dir);
}

#[test]
fn orphaned_temp_files_are_listed_and_purged() {
    let (cache, spec, _, entry) = one_entry("orphan");
    // A writer killed between its write and its rename leaves this behind.
    let orphan = entry.with_extension("tmp4242");
    std::fs::copy(&entry, &orphan).unwrap();
    let name = orphan.file_name().unwrap().to_string_lossy().into_owned();
    assert_eq!(cache.stale_entries(), vec![name.clone()]);

    let check = hygiene(&cache.dir, &[]);
    assert_eq!(check.status.code(), Some(1), "an orphan fails the hygiene gate");
    assert!(String::from_utf8_lossy(&check.stdout).contains(&name));
    let purge = hygiene(&cache.dir, &["--purge"]);
    assert!(purge.status.success(), "{}", String::from_utf8_lossy(&purge.stderr));
    assert!(!orphan.exists(), "purge removes the orphan");
    assert!(cache.stale_entries().is_empty());
    assert!(cache.lookup(&spec).is_some(), "purge keeps the live entry");
    let _ = std::fs::remove_dir_all(&cache.dir);
}
