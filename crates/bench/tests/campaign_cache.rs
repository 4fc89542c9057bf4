//! Persistent campaign-cache conformance suite.
//!
//! The content-addressed cache (`relief_bench::cache`) must be invisible
//! in campaign *output* and visible only in campaign *wall-clock*: a
//! cold run leaves one pack, a warm rerun simulates zero cells and
//! touches no file yet renders byte-identical reports, a corrupt record
//! or pack silently falls back to simulation (and is repaired by the next
//! pack), and bumping the code-version salt invalidates everything at
//! once. Each test roots its cache in a fresh temp directory so runs
//! never observe each other (or a developer's real cache).

use relief_accel::PredictionStats;
use relief_bench::cache::{CacheConfig, CODE_SALT, SCHEMA};
use relief_bench::campaign::{
    execute, CampaignResults, CampaignSpec, ExecOptions, PlatformSpec, RunRecord, RunSpec,
    WorkloadSpec,
};
use relief_bench::experiments::grid;
use relief_bench::service::ServiceSpec;
use relief_core::PolicyKind;
use relief_workloads::Contention;
use relief_sim::fnv1a;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

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
/// field and bit by bit (each prediction series compared through its
/// count and sum bits).
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
        assert_eq!(rx.result.stats, ry.result.stats, "{what}: {} stats", x.label);
        assert_eq!(rx.result.per_app_mem_time, ry.result.per_app_mem_time);
        assert_eq!(rx.result.per_app_compute_time, ry.result.per_app_compute_time);
        let sums = |p: &PredictionStats| {
            [p.compute_rel_errors, p.dm_rel_errors, p.bw_rel_errors]
                .map(|s| (s.count, s.sum.to_bits()))
        };
        assert_eq!(
            sums(&rx.result.prediction),
            sums(&ry.result.prediction),
            "{what}: {} prediction sums",
            x.label
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
    let files = snapshot(&dir);
    assert_eq!(files.len(), 1, "one file for {n} cells: {files:?}");
    assert!(files[0].0.ends_with(".pack"), "the one file is a pack: {files:?}");

    // Warm rerun at a *different* jobs level: zero cells simulated, all
    // output identical down to prediction-sum bit patterns, and no
    // file created, modified or deleted.
    let warm = execute(specs.clone(), &opts(4, &dir));
    assert_eq!((warm.cache_hits, warm.simulated), (n, 0), "warm run must hit every cell");
    assert_results_identical(&cold, &warm, "cold vs warm");
    assert_eq!(snapshot(&dir), files, "a warm rerun touches no file");

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
fn poisoned_records_fall_back_to_simulation_and_are_repaired() {
    let dir = temp_cache("poison");
    let specs = cache_campaign();
    let n = specs.len();
    let cold = execute(specs.clone(), &opts(2, &dir));
    assert_eq!(cold.simulated, n);

    // Corrupt two records inside the pack: flip the first one's schema
    // byte and the last one's end marker.
    let pack = only_pack(&dir);
    let full = std::fs::read(&pack).unwrap();
    let (_, slots) = pack_index(&full);
    assert_eq!(slots.len(), n, "one record per cell");
    let (first, last) = (slots[0], slots[n - 1]);
    let mut bad = full.clone();
    bad[first.1 + 8] ^= 0x01;
    bad[last.1 + last.2 - 1] ^= 0x80;
    std::fs::write(&pack, &bad).unwrap();
    assert!(CacheConfig::at(&dir).stale_entries().is_empty(), "the pack itself still validates");

    let warm = execute(specs.clone(), &opts(3, &dir));
    assert_eq!(
        (warm.cache_hits, warm.simulated),
        (n - 2, 2),
        "exactly the two poisoned cells re-simulate"
    );
    assert_results_identical(&cold, &warm, "after poisoning");
    // The re-simulated cells landed in a second pack, which holds exactly
    // the two poisoned labels.
    let packs = files_with(&dir, "pack");
    assert_eq!(packs.len(), 2);
    let repair = packs.iter().find(|p| **p != pack).unwrap();
    let mut repaired: Vec<u64> =
        pack_index(&std::fs::read(repair).unwrap()).1.iter().map(|s| s.0).collect();
    let mut poisoned = vec![first.0, last.0];
    repaired.sort_unstable();
    poisoned.sort_unstable();
    assert_eq!(repaired, poisoned, "the repair pack holds exactly the poisoned cells");

    // A third pass hits everything even when the corrupt copies are
    // tried first: the repair pack, renamed to sort last, still wins.
    let repair_last = dir.join("ffffffffffffffff.pack");
    assert!(pack < repair_last);
    std::fs::rename(repair, &repair_last).unwrap();
    let healed = execute(specs.clone(), &opts(1, &dir));
    assert_eq!((healed.cache_hits, healed.simulated), (n, 0), "poisoned records repaired");
    assert_results_identical(&cold, &healed, "after repair");

    // A truncated pack is ignored whole: every cell it held misses.
    std::fs::remove_file(&repair_last).unwrap();
    std::fs::write(&pack, &full[..full.len() / 2]).unwrap();
    let name = pack.file_name().unwrap().to_string_lossy().into_owned();
    assert_eq!(CacheConfig::at(&dir).stale_entries(), vec![name], "a truncated pack is stale");
    let rerun = execute(specs, &opts(2, &dir));
    assert_eq!((rerun.cache_hits, rerun.simulated), (0, n), "a truncated pack misses whole");
    assert_results_identical(&cold, &rerun, "after truncation");
    assert_eq!(std::fs::read(&pack).unwrap(), full, "the rerun rewrites the same pack");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Decoding a record and storing it again writes the bytes the cold run
/// wrote, for every record of the pack.
#[test]
fn decoded_records_re_encode_to_their_stored_bytes() {
    let dir = temp_cache("re-encode");
    let specs = cache_campaign();
    execute(specs.clone(), &opts(2, &dir));
    let pack = std::fs::read(only_pack(&dir)).unwrap();
    let (_, slots) = pack_index(&pack);
    assert_eq!(slots.len(), specs.len());
    let cache = CacheConfig::at(&dir);
    for spec in &specs {
        let label = spec.label();
        let key = fnv1a(label.as_bytes());
        let &(_, at, len) = slots.iter().find(|slot| slot.0 == key).expect("stored");
        let again = CacheConfig::at(temp_cache("re-encode-one"));
        again.store(spec, &cache.lookup(spec).expect("the cold pack hits"));
        let one = std::fs::read(only_pack(&again.dir)).unwrap();
        let (_, one_at, one_len) = pack_index(&one).1[0];
        assert!(one[one_at..one_at + one_len] == pack[at..at + len], "{label} re-encoded");
        let _ = std::fs::remove_dir_all(&again.dir);
    }
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
/// record, and the path of its one-record pack.
fn one_entry(tag: &str) -> (CacheConfig, RunSpec, RunRecord, PathBuf) {
    let cache = CacheConfig::at(temp_cache(tag));
    let spec = grid::fig2_run(PolicyKind::Relief);
    let mut cold = execute(vec![spec.clone()], &opts(1, &cache.dir));
    assert_eq!(cold.simulated, 1);
    let rec = cold.outcomes.remove(0).outcome.expect("fig2 cell runs");
    let pack = only_pack(&cache.dir);
    (cache, spec, rec, pack)
}

/// The directory's files with extension `ext`, sorted.
fn files_with(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    files.sort();
    files
}

/// The directory's single pack; fails when there is not exactly one.
fn only_pack(dir: &Path) -> PathBuf {
    let packs = files_with(dir, "pack");
    assert_eq!(packs.len(), 1, "exactly one pack: {packs:?}");
    packs[0].clone()
}

/// Every file in `dir` as (name, size, mtime), sorted by name.
fn snapshot(dir: &Path) -> Vec<(String, u64, SystemTime)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| {
            let meta = e.metadata().unwrap();
            (e.file_name().to_string_lossy().into_owned(), meta.len(), meta.modified().unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Bytes of a pack's header, which is also where its first record starts.
fn header_len() -> usize {
    16 + SCHEMA.len() + CODE_SALT.len()
}

/// A pack's index offset and its `(fnv1a(label), offset, length)`
/// entries, parsed independently of the library's reader.
fn pack_index(pack: &[u8]) -> (usize, Vec<(u64, usize, usize)>) {
    let word = |at: usize| u64::from_le_bytes(pack[at..at + 8].try_into().unwrap());
    assert_eq!(&pack[pack.len() - 8..], b"\0relief\n", "footer end marker");
    let index_at = word(pack.len() - 16) as usize;
    let n = word(index_at) as usize;
    assert_eq!(index_at + 8 + 24 * n + 16, pack.len(), "index fills the rest");
    let slots = (0..n)
        .map(|i| {
            let at = index_at + 8 + 24 * i;
            (word(at), word(at + 8) as usize, word(at + 16) as usize)
        })
        .collect();
    (index_at, slots)
}

#[test]
fn every_strict_prefix_of_a_pack_misses() {
    let (cache, spec, _, pack) = one_entry("prefix");
    let full = std::fs::read(&pack).unwrap();
    assert!(cache.lookup(&spec).is_some(), "the whole pack hits");
    for len in 0..full.len() {
        std::fs::write(&pack, &full[..len]).unwrap();
        assert!(cache.lookup(&spec).is_none(), "prefix of {len}/{} bytes hit", full.len());
    }
    let _ = std::fs::remove_dir_all(&cache.dir);
}

#[test]
fn flipped_schema_bool_index_or_end_marker_bytes_miss() {
    let (cache, spec, rec, pack) = one_entry("flip");
    let full = std::fs::read(&pack).unwrap();
    let (index_at, slots) = pack_index(&full);
    let (key, record_at, record_len) = slots[0];
    assert_eq!(key, fnv1a(spec.label().as_bytes()));
    assert_eq!(record_at, header_len(), "the record follows the pack header");
    // The first app's `starved` flag: past the record's header strings,
    // the policy name, exec time, six traffic counters and the app count,
    // then the app's key and name, four counters, its runtimes, deadline
    // and three more counters.
    let stats = &rec.result.stats;
    let (app_key, app) = stats.apps.iter().next().expect("fig2 has apps");
    let starved_at = record_at
        + [SCHEMA, CODE_SALT, &spec.label(), &stats.policy, app_key, &app.name]
            .iter()
            .map(|s| 8 + s.len())
            .sum::<usize>()
        + 8 * (1 + 6 + 1 + 4 + 1 + app.dag_runtimes.len() + 1 + 3);
    assert_eq!(full[starved_at], u8::from(app.starved), "layout drifted");
    // Record-level flips miss that record; pack-level flips make the
    // whole pack stale.
    let record_end = record_at + record_len - 1;
    for (what, at, byte, pack_level) in [
        ("record schema", record_at + 8, full[record_at + 8] ^ 0x01, false),
        ("bool", starved_at, 2, false),
        ("record end marker", record_end, full[record_end] ^ 0x80, false),
        ("pack schema", 8, full[8] ^ 0x01, true),
        ("index count", index_at, full[index_at] ^ 0x01, true),
        ("index offset", index_at + 16, full[index_at + 16] ^ 0x01, true),
        ("footer end marker", full.len() - 1, full[full.len() - 1] ^ 0x80, true),
    ] {
        let mut bad = full.clone();
        bad[at] = byte;
        std::fs::write(&pack, &bad).unwrap();
        assert!(cache.lookup(&spec).is_none(), "flipped {what} byte hit");
        assert_eq!(!cache.stale_entries().is_empty(), pack_level, "flipped {what}: stale scan");
    }
    std::fs::write(&pack, &full).unwrap();
    assert!(cache.lookup(&spec).is_some(), "restored pack hits");
    let _ = std::fs::remove_dir_all(&cache.dir);
}

#[test]
fn huge_index_counts_offsets_and_lengths_miss_without_allocating() {
    let (cache, spec, _, pack) = one_entry("huge");
    let full = std::fs::read(&pack).unwrap();
    let (index_at, _) = pack_index(&full);
    let footer_at = full.len() - 16;
    // Unbounded, an index count of 2^32 or a record length of 2^40 would
    // abort the process inside an allocation instead of missing.
    for (what, at, value) in [
        ("index count", index_at, 1u64 << 32),
        ("index count", index_at, u64::MAX),
        ("record offset", index_at + 16, u64::MAX),
        ("record length", index_at + 24, 1 << 40),
        ("record length", index_at + 24, u64::MAX),
        ("index offset", footer_at, 1 << 40),
        ("index offset", footer_at, u64::MAX),
    ] {
        let mut bad = full.clone();
        bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
        std::fs::write(&pack, &bad).unwrap();
        assert!(cache.lookup(&spec).is_none(), "{what} {value} hit");
        assert_eq!(cache.stale_entries().len(), 1, "{what} {value}: the pack is stale");
    }
    let _ = std::fs::remove_dir_all(&cache.dir);
}

/// `entry` (a v4 record) as v3 wrote it: the same body under the v3
/// schema name, with the `EventCounters::events_dispatched` counter v4
/// dropped back in front of the 38 counters. That counter always
/// equalled `SimResult::events_dispatched`, the `u64` just before.
fn as_v3(entry: &[u8]) -> Vec<u8> {
    const END_LEN: usize = 8;
    let counters_at = entry.len() - END_LEN - 38 * 8;
    let dispatched = entry[counters_at - 8..counters_at].to_vec();
    let mut v3 = entry.to_vec();
    v3.splice(counters_at..counters_at, dispatched);
    renamed(&mut v3, "/v4", "/v3");
    v3
}

/// Replaces the schema name's version suffix at the start of `entry`.
fn renamed(entry: &mut [u8], from: &str, to: &str) {
    let name = std::str::from_utf8(&entry[8..8 + SCHEMA.len()]).unwrap().replace(from, to);
    assert_eq!(name.len(), SCHEMA.len());
    entry[8..8 + SCHEMA.len()].copy_from_slice(name.as_bytes());
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
fn old_run_entries_miss_and_scan_stale_until_purged() {
    assert!(SCHEMA.ends_with("/v6"));
    let (cache, spec, _, pack) = one_entry("old-layout");
    let current = std::fs::read(&pack).unwrap();
    let (_, slots) = pack_index(&current);
    let (_, record_at, record_len) = slots[0];
    // A v4 entry was a v5 record under the older schema name; v6 then
    // replaced the prediction samples with sums. The current record under
    // the v4 name stands in for one: its header already misses.
    let mut v4 = current[record_at..record_at + record_len].to_vec();
    renamed(&mut v4, "/v6", "/v4");
    let label = spec.label();
    let v2 = format!("relief-campaign-cache/v2 s{CODE_SALT} s{label}\n0 .\n").into_bytes();
    // The per-cell layout named each entry after the one-label key, as
    // a one-record pack is named today.
    let run = pack.with_extension("run");
    let name = run.file_name().unwrap().to_string_lossy().into_owned();
    for (version, old) in [("v2", v2), ("v3", as_v3(&v4)), ("v4", v4)] {
        std::fs::remove_file(&pack).unwrap();
        std::fs::write(&run, &old).unwrap();
        assert!(cache.lookup(&spec).is_none(), "a {version} entry must miss");
        assert_eq!(cache.stale_entries(), vec![name.clone()], "a {version} entry scans as stale");
        let check = hygiene(&cache.dir, &[]);
        assert_eq!(check.status.code(), Some(1), "a {version} entry fails the hygiene gate");
        assert!(String::from_utf8_lossy(&check.stdout).contains(&name), "{version}");

        let rerun = execute(vec![spec.clone()], &opts(1, &cache.dir));
        assert_eq!((rerun.cache_hits, rerun.simulated), (0, 1), "the {version} cell re-simulates");
        assert_eq!(std::fs::read(&pack).unwrap(), current, "the rerun writes the same pack");
        assert_eq!(cache.stale_entries(), vec![name.clone()], "the {version} entry stays listed");
        let warm = execute(vec![spec.clone()], &opts(1, &cache.dir));
        assert_eq!(warm.cache_hits, 1, "the new pack hits");
    }
    let purge = hygiene(&cache.dir, &["--purge"]);
    assert!(purge.status.success(), "{}", String::from_utf8_lossy(&purge.stderr));
    assert!(!run.exists(), "purge removes the .run entry");
    assert!(cache.stale_entries().is_empty());
    assert!(cache.lookup(&spec).is_some(), "purge keeps the pack");
    let _ = std::fs::remove_dir_all(&cache.dir);
}

/// A pack written before the prediction sums (schema v5) misses, fails
/// the hygiene gate, and is deleted by one purge; the cell then
/// re-simulates into a current pack.
#[test]
fn v5_packs_miss_scan_stale_and_are_purged() {
    let (cache, spec, _, pack) = one_entry("v5-pack");
    let current = std::fs::read(&pack).unwrap();
    // The pack's header and every record's own header name the schema.
    let mut v5 = current.clone();
    renamed(&mut v5, "/v6", "/v5");
    for (_, record_at, _) in pack_index(&current).1 {
        renamed(&mut v5[record_at..], "/v6", "/v5");
    }
    std::fs::write(&pack, &v5).unwrap();
    let name = pack.file_name().unwrap().to_string_lossy().into_owned();
    assert!(cache.lookup(&spec).is_none(), "a v5 pack must miss");
    assert_eq!(cache.stale_entries(), vec![name.clone()], "a v5 pack scans as stale");
    let check = hygiene(&cache.dir, &[]);
    assert_eq!(check.status.code(), Some(1), "a v5 pack fails the hygiene gate");
    assert!(String::from_utf8_lossy(&check.stdout).contains(&name));

    let purge = hygiene(&cache.dir, &["--purge"]);
    assert!(purge.status.success(), "{}", String::from_utf8_lossy(&purge.stderr));
    assert!(!pack.exists(), "purge deletes the v5 pack");
    assert!(cache.stale_entries().is_empty());
    let rerun = execute(vec![spec.clone()], &opts(1, &cache.dir));
    assert_eq!((rerun.cache_hits, rerun.simulated), (0, 1), "the cell re-simulates");
    assert_eq!(std::fs::read(&pack).unwrap(), current, "into the same current pack");
    let _ = std::fs::remove_dir_all(&cache.dir);
}

#[test]
fn orphaned_temp_files_are_listed_and_purged() {
    let (cache, spec, _, pack) = one_entry("orphan");
    // A writer killed between its write and its rename leaves its pack's
    // temp file, `<key>.tmp<pid>`, behind.
    let orphan = pack.with_extension("tmp4242");
    std::fs::copy(&pack, &orphan).unwrap();
    let name = orphan.file_name().unwrap().to_string_lossy().into_owned();
    assert_eq!(cache.stale_entries(), vec![name.clone()]);

    let check = hygiene(&cache.dir, &[]);
    assert_eq!(check.status.code(), Some(1), "an orphan fails the hygiene gate");
    assert!(String::from_utf8_lossy(&check.stdout).contains(&name));
    let purge = hygiene(&cache.dir, &["--purge"]);
    assert!(purge.status.success(), "{}", String::from_utf8_lossy(&purge.stderr));
    assert!(!orphan.exists(), "purge removes the orphan");
    assert!(cache.stale_entries().is_empty());
    assert!(cache.lookup(&spec).is_some(), "purge keeps the live pack");
    let _ = std::fs::remove_dir_all(&cache.dir);
}

#[test]
fn pack_bytes_do_not_depend_on_jobs_or_spec_order() {
    let specs = cache_campaign();
    let reversed: Vec<RunSpec> = specs.iter().rev().cloned().collect();
    let packs: Vec<(PathBuf, Vec<u8>)> = [(1, specs.clone()), (4, specs), (1, reversed)]
        .into_iter()
        .map(|(jobs, specs)| {
            let dir = temp_cache("order");
            execute(specs, &opts(jobs, &dir));
            let pack = only_pack(&dir);
            let bytes = std::fs::read(&pack).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            (PathBuf::from(pack.file_name().unwrap()), bytes)
        })
        .collect();
    assert_eq!(packs[0], packs[1], "--jobs 1 vs --jobs 4");
    assert_eq!(packs[0], packs[2], "spec order vs reversed");
}

#[test]
fn service_sweeps_differing_only_in_warm_up_share_no_cell() {
    let dir = temp_cache("warmup");
    let sweep = |warmup_ps| ServiceSpec {
        rates: vec![150.0],
        duration_ps: 5_000_000_000, // 5 ms of arrivals
        warmup_ps,
        policies: vec![PolicyKind::Fcfs, PolicyKind::Relief],
        ..Default::default()
    };
    let cold = execute(sweep(0).campaign().expand(), &opts(1, &dir));
    assert_eq!((cold.cache_hits, cold.simulated), (0, 2));
    let warm_up = execute(sweep(1_000_000_000).campaign().expand(), &opts(1, &dir));
    assert_eq!(
        (warm_up.cache_hits, warm_up.simulated),
        (0, 2),
        "a different warm-up must simulate every cell"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
