//! RNN sequence-length scaling (beyond the paper's figures).
//!
//! The paper fixes both RNNs at a sequence length of 8 to balance input
//! size "with simulation time" (§IV-A — their gem5 runs take hours). This
//! simulator completes the whole sweep in seconds, so we can ask the
//! natural follow-up: does RELIEF's advantage hold as utterances grow?
//!
//! Each row runs GRU+LSTM at the given sequence length together with
//! Canny (camera) under high contention; deadlines scale linearly with
//! the paper's 7 ms @ len 8. The (length × policy) grid executes on the
//! campaign engine (`--jobs N`, default = available parallelism).

use relief_accel::AppSpec;
use relief_bench::campaign::{self, Ctx, ExecOptions, PlatformSpec, RunSpec, WorkloadSpec};
use relief_core::PolicyKind;
use relief_metrics::report::Table;
use relief_sim::Dur;
use relief_workloads::{variants, App};

const LENGTHS: [usize; 5] = [2, 4, 8, 16, 32];

/// Canny + GRU + LSTM at one sequence length, deadlines scaled linearly.
fn rnn_cell(len: usize, policy: PolicyKind) -> RunSpec {
    let deadline = Dur::from_us((7_000 * len as u64) / 8);
    let workload = WorkloadSpec::custom(format!("rnn-len{len}"), None, move || {
        vec![
            AppSpec::once("C", App::Canny.dag()),
            AppSpec::once("G", variants::gru(len, deadline)),
            AppSpec::once("L", variants::lstm(len, deadline)),
        ]
    });
    RunSpec::new(policy, workload, PlatformSpec::mobile())
}

fn main() {
    let jobs = match campaign::parse_jobs(std::env::args().skip(1)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let grid: Vec<RunSpec> = LENGTHS
        .iter()
        .flat_map(|&len| {
            [PolicyKind::Lax, PolicyKind::Relief].map(|policy| rnn_cell(len, policy))
        })
        .collect();
    eprintln!("== prewarming {} runs on {jobs} worker(s) ==", grid.len());
    let results = campaign::execute(grid, &ExecOptions { jobs, ..Default::default() });
    let failures = results.failures();
    for (label, msg) in &failures {
        eprintln!("run {label} panicked: {msg}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    let ctx = Ctx::from_results(&results);

    let mut t = Table::with_columns(&[
        "seq len",
        "fwd+coloc %: LAX",
        "RELIEF",
        "DRAM MB: LAX",
        "RELIEF",
        "exec ms: LAX",
        "RELIEF",
    ]);
    for len in LENGTHS {
        let lax = &ctx.run(&rnn_cell(len, PolicyKind::Lax)).stats;
        let relief = &ctx.run(&rnn_cell(len, PolicyKind::Relief)).stats;
        t.row(vec![
            len.to_string(),
            format!("{:.1}", lax.forward_percent()),
            format!("{:.1}", relief.forward_percent()),
            format!("{:.2}", lax.traffic.dram_bytes() as f64 / 1e6),
            format!("{:.2}", relief.traffic.dram_bytes() as f64 / 1e6),
            format!("{:.2}", lax.exec_time.as_ms_f64()),
            format!("{:.2}", relief.exec_time.as_ms_f64()),
        ]);
    }
    println!(
        "[RNN scaling] Canny + GRU + LSTM at growing sequence lengths \
         (paper fixes len = 8 for simulation time)\n{}",
        t.render()
    );
}
