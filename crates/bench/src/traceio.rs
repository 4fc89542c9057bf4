//! Trace capture and file export shared by `relief-bench fig2` and
//! `relief-cli`.
//!
//! Any command that accepts `--trace-out <STEM>` funnels through here: the
//! run is re-executed with a [`RingBufferSink`] attached, and the captured
//! stream is written as both Chrome/Perfetto JSON (`<STEM>.json`, open in
//! `chrome://tracing` or <https://ui.perfetto.dev>) and the canonical text
//! format (`<STEM>.txt`, the input `trace-diff` compares). A run that
//! outgrows the ring ([`TRACE_RING_CAPACITY`] events) is an error, never
//! a file missing the start of the run.

use relief_accel::{AccKind, AppSpec, SimResult, SocConfig, SocSim};
use relief_trace::chrome::{to_chrome_json, ChromeOptions};
use relief_trace::{text, RingBufferSink, TraceEvent, Tracer};
use std::path::{Path, PathBuf};

/// Ring capacity used for file export: large enough that the paper's
/// single-shot mixes never evict (a 50 ms continuous run stays under a
/// million events).
pub const TRACE_RING_CAPACITY: usize = 1 << 20;

/// Runs a workload with a ring of `capacity` events attached, returning
/// both the simulation result and the whole event stream (in emission
/// order).
///
/// # Errors
///
/// Fails, naming the counts, when the run emitted more than `capacity`
/// events: the ring evicted the start of the run, and a trace missing its
/// start is not returned.
pub fn run_traced(
    cfg: SocConfig,
    apps: Vec<AppSpec>,
    capacity: usize,
) -> std::io::Result<(SimResult, Vec<TraceEvent>)> {
    let ring = RingBufferSink::shared(capacity);
    let result = SocSim::new(cfg, apps).with_tracer(&Tracer::to_sink(ring.clone())).run();
    let mut ring = ring.borrow_mut();
    if ring.dropped() > 0 {
        return Err(std::io::Error::other(format!(
            "the run emitted {} trace events and the trace holds {capacity}, so its first {} \
             would be lost; trace a shorter run",
            ring.total(),
            ring.dropped()
        )));
    }
    Ok((result, ring.take()))
}

/// Display names for a configuration's accelerator instances, in the
/// simulator's global instance order (type-major). On the Table VI mobile
/// platform these are the Table I accelerator names; synthetic platforms
/// fall back to `t<type>.<index>`.
pub fn instance_names(cfg: &SocConfig) -> Vec<String> {
    let mut names = Vec::with_capacity(cfg.total_instances());
    for (t, &count) in cfg.acc_instances.iter().enumerate() {
        for i in 0..count {
            let name = match AccKind::ALL.get(t) {
                Some(kind) if cfg.acc_instances.len() == AccKind::ALL.len() => {
                    if count > 1 {
                        format!("{}.{i}", kind.name())
                    } else {
                        kind.name().to_string()
                    }
                }
                _ => format!("t{t}.{i}"),
            };
            names.push(name);
        }
    }
    names
}

/// Writes `<stem>.json` (Chrome trace) and `<stem>.txt` (canonical text)
/// for an event stream, returning the two paths written. The suffixes are
/// appended, so a dot inside the stem (`run.v2`) stays part of the name.
pub fn write_trace_files(
    events: &[TraceEvent],
    accel_names: Vec<String>,
    stem: &Path,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let json_path = suffixed(stem, ".json");
    let txt_path = suffixed(stem, ".txt");
    std::fs::write(&json_path, to_chrome_json(events, &ChromeOptions { accel_names }))?;
    std::fs::write(&txt_path, text::to_text(events))?;
    Ok((json_path, txt_path))
}

/// `stem` with `suffix` appended to its last component.
pub fn suffixed(stem: &Path, suffix: &str) -> PathBuf {
    let mut path = stem.as_os_str().to_owned();
    path.push(suffix);
    path.into()
}

/// Captures one traced run and exports it under `stem`, printing the
/// written paths to stderr. Returns the simulation result so callers can
/// keep reporting on the same run. A run that emits more than
/// [`TRACE_RING_CAPACITY`] events fails (see [`run_traced`]) and writes
/// nothing.
pub fn export_run(cfg: SocConfig, apps: Vec<AppSpec>, stem: &Path) -> std::io::Result<SimResult> {
    let names = instance_names(&cfg);
    let (result, events) = run_traced(cfg, apps, TRACE_RING_CAPACITY)?;
    let (json, txt) = write_trace_files(&events, names, stem)?;
    eprintln!("trace: {} events -> {} + {}", events.len(), json.display(), txt.display());
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relief_core::PolicyKind;
    use relief_trace::EventKind;

    #[test]
    fn traced_run_matches_untraced_stats() {
        let mk = || {
            let apps = crate::experiments::fig2_workload();
            (SocConfig::generic(vec![1, 1], PolicyKind::Relief), apps)
        };
        let (cfg, apps) = mk();
        let (traced, events) = run_traced(cfg, apps, TRACE_RING_CAPACITY).unwrap();
        let (cfg, apps) = mk();
        let plain = SocSim::new(cfg, apps).run();
        assert_eq!(traced.stats.exec_time, plain.stats.exec_time);
        assert_eq!(traced.stats.traffic, plain.stats.traffic);
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ComputeEnd { .. })));
    }

    #[test]
    fn a_run_longer_than_the_ring_fails_naming_the_loss() {
        let run = |capacity| {
            let cfg = SocConfig::generic(vec![1, 1], PolicyKind::Relief);
            run_traced(cfg, crate::experiments::fig2_workload(), capacity)
        };
        let (_, events) = run(TRACE_RING_CAPACITY).unwrap();
        let n = events.len();
        let (_, exact) = run(n).unwrap();
        assert_eq!(exact, events, "a ring exactly as long as the run keeps it whole");
        let err = run(n - 3).unwrap_err().to_string();
        assert!(err.contains(&format!("emitted {n} trace events")), "{err}");
        assert!(err.contains("its first 3 would be lost"), "{err}");
    }

    #[test]
    fn mobile_instance_names_use_table_i() {
        let names = instance_names(&SocConfig::mobile(PolicyKind::Fcfs));
        assert_eq!(names.len(), AccKind::ALL.len());
        assert_eq!(names[0], AccKind::ALL[0].name());
    }

    #[test]
    fn generic_instance_names_fall_back() {
        let names = instance_names(&SocConfig::generic(vec![2, 1], PolicyKind::Fcfs));
        assert_eq!(names, vec!["t0.0", "t0.1", "t1.0"]);
    }

    #[test]
    fn dotted_stems_keep_every_dot() {
        let dir = std::env::temp_dir().join(format!("relief-traceio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (json, txt) = write_trace_files(&[], Vec::new(), &dir.join("run.v2")).unwrap();
        assert_eq!((json, txt), (dir.join("run.v2.json"), dir.join("run.v2.txt")));
        assert!(dir.join("run.v2.json").exists() && dir.join("run.v2.txt").exists());
        assert!(!dir.join("run.json").exists(), "the stem's last dot is not an extension");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
