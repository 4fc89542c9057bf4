//! Regenerates the paper's fig2. See DESIGN.md §5.
//!
//! With `--trace-out <STEM>`, additionally re-runs the Fig. 2 workload
//! under FCFS and RELIEF with structured tracing attached, writing
//! `<STEM>-fcfs.{json,txt}` and `<STEM>-relief.{json,txt}` for side-by-side
//! inspection in Perfetto or via `trace-diff`.

use relief_accel::SocConfig;
use relief_bench::campaign::Ctx;
use relief_bench::experiments::{fig2_with, fig2_workload};
use relief_bench::traceio;
use relief_core::PolicyKind;
use std::process::ExitCode;

fn main() -> ExitCode {
    let (stem, rest) = match traceio::take_trace_out_arg(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(arg) = rest.first() {
        eprintln!("error: unknown option '{arg}' (only --trace-out <STEM> is accepted)");
        return ExitCode::FAILURE;
    }

    print!("{}", fig2_with(&Ctx::empty()));

    if let Some(stem) = stem {
        for policy in [PolicyKind::Fcfs, PolicyKind::Relief] {
            let cfg = SocConfig::generic(vec![1, 1], policy);
            let mut path = stem.clone();
            path.set_file_name(format!(
                "{}-{}",
                stem.file_name().and_then(|s| s.to_str()).unwrap_or("trace"),
                policy.name().to_ascii_lowercase()
            ));
            if let Err(e) = traceio::export_run(cfg, fig2_workload(), &path) {
                eprintln!("error: writing traces under {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
