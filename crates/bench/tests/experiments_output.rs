//! The committed `experiments_output.txt` is the stdout of five
//! `relief-bench` commands (EXPERIMENTS.md "Regenerating"). This suite
//! spawns them and compares their combined stdout with the file line by
//! line. The Fig. 12 rows time the host, so of each only the policy and
//! the modeled cost, its first and last fields, are compared.

use std::process::Command;

const COMMANDS: [&[&str]; 5] = [
    &["platform"],
    &["all_experiments", "--no-cache", "--jobs", "2"],
    &["ablations"],
    &["sensitivity"],
    &["rnn_scaling"],
];

/// The rows under the Fig. 12 header: its column header, its rule, then
/// one row per policy.
const FIG12_ROWS: std::ops::Range<usize> = 3..11;

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_relief-bench")).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "relief-bench {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).unwrap()
}

/// A Fig. 12 row without its host-timed `avg ns` and `p99 ns` fields.
fn untimed(row: &str) -> (Option<&str>, Option<&str>) {
    let mut fields = row.split_whitespace();
    (fields.next(), fields.next_back())
}

#[test]
fn commands_reproduce_the_committed_output() {
    let committed = include_str!("../../../experiments_output.txt");
    let rendered: String = COMMANDS.iter().map(|args| stdout_of(args)).collect();
    let fig12 = committed.lines().position(|l| l.starts_with("[Fig. 12]")).unwrap();
    let timed = (fig12 + FIG12_ROWS.start)..(fig12 + FIG12_ROWS.end);
    let want: Vec<&str> = committed.lines().collect();
    let got: Vec<&str> = rendered.lines().collect();
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        let same = if timed.contains(&i) { untimed(w) == untimed(g) } else { w == g };
        assert!(same, "line {} differs\n  committed: {w}\n  rendered:  {g}", i + 1);
    }
    assert_eq!(want.len(), got.len(), "line counts differ");
}
