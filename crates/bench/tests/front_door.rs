//! The `relief-bench` binary's command table, spawned: argument errors
//! exit 2 with the command's usage line, `fig2 --trace-out` keeps a
//! dotted stem whole, and an empty `RELIEF_CACHE_DIR` means the default
//! cache directory.

use std::process::{Command, Output};

const COMMANDS: [&str; 11] = [
    "all_experiments",
    "fig2",
    "platform",
    "ablations",
    "sensitivity",
    "rnn_scaling",
    "service",
    "chaos",
    "resilience",
    "campaign_smoke",
    "cache_hygiene",
];

fn relief_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_relief-bench")).args(args).output().unwrap()
}

#[test]
fn every_command_rejects_unknown_flags_with_its_usage() {
    for cmd in COMMANDS {
        let out = relief_bench(&[cmd, "--frobnicate"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(stderr.contains("'--frobnicate'"), "{cmd}: {stderr}");
        assert!(stderr.contains(&format!("usage: relief-bench {cmd}")), "{cmd}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd} ran despite the bad flag");
    }
    // The two uncached grid studies take `--jobs N` and nothing else.
    for cmd in ["sensitivity", "rnn_scaling"] {
        assert_eq!(relief_bench(&[cmd, "--no-cache"]).status.code(), Some(2), "{cmd}");
    }
}

#[test]
fn a_missing_or_unknown_command_lists_all_commands() {
    for args in [&[][..], &["fig99"]] {
        let out = relief_bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        for cmd in COMMANDS {
            assert!(stderr.contains(cmd), "{args:?} does not name {cmd}: {stderr}");
        }
    }
}

#[test]
fn fig2_trace_out_keeps_a_dotted_stem() {
    let dir = std::env::temp_dir().join(format!("relief-fig2-stem-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stem = dir.join("fig2.v2");
    let out = relief_bench(&["fig2", "--trace-out", stem.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let files: Vec<Vec<u8>> = ["fcfs.json", "fcfs.txt", "relief.json", "relief.txt"]
        .iter()
        .map(|f| std::fs::read(dir.join(format!("fig2.v2-{f}"))).unwrap())
        .collect();
    for (i, a) in files.iter().enumerate() {
        assert!(files[i + 1..].iter().all(|b| a != b), "trace file {i} is not distinct");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 4, "no other file is written");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_empty_cache_dir_variable_means_the_default_directory() {
    let dir = std::env::temp_dir().join(format!("relief-empty-cache-dir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_relief-bench"))
        .arg("cache_hygiene")
        .env("RELIEF_CACHE_DIR", "")
        .current_dir(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("target/campaign-cache"), "names the default: {stdout}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "the scan writes nothing");
    std::fs::remove_dir_all(&dir).unwrap();
}
