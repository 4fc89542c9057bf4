//! One run of one workload: set-up, timed passes, output checks, metrics.
//!
//! Passes run in a closed loop on one process: a pass starts when the
//! previous one ends. Every pass is checked against the reference the
//! set-up pass produced, so a run measures only correct work and counts
//! every cell that is not.

use crate::layers::{
    queue_hold_ns_per_event, PolicyTime, SpanLog, SpanTotals, TimedPolicy, WaitSink, HOLD_POPS,
};
use crate::metrics::{SimOutcome, END_TO_END, PER_LAYER};
use crate::stats::{fnv1a, median, percentile};
use crate::workloads::{grid_specs, sim_cells, stream_config, Seeds, SimCell, Workload, GRID_JOBS};
use relief_accel::{SimResult, SocSim};
use relief_bench::cache::CacheConfig;
use relief_bench::campaign::{self, CampaignResults, Ctx, ExecOptions, RunRecord};
use relief_bench::experiments as ex;
use relief_bench::experiments::grid::RunSpec;
use relief_metrics::reconcile;
use relief_service::{StreamConfig, StreamPlan};
use relief_trace::{CountersSink, EventCounters, Tracer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// How a run is shaped.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Workload seed (see [`Seeds::derive`]).
    pub seed: u64,
    /// Timed length, seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Minimal run for tests: one set-up and at least two passes per
    /// phase instead of three of each.
    pub smoke: bool,
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogued name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunReport {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Timed passes (both phases of a traced run).
    pub passes: usize,
    /// 90th-percentile pass time, ms, when an untraced run timed at least
    /// 100 passes.
    pub pass_ms_p90: Option<f64>,
    /// Cells attempted, set-up included.
    pub attempted: u64,
    /// Cells that failed a check, set-up included.
    pub failed: u64,
    /// What failed, one line each.
    pub problems: Vec<String>,
    /// End-to-end metrics, or per-layer metrics for a traced run, in
    /// catalogue order.
    pub metrics: Vec<Metric>,
    /// FNV-1a over every planned arrival time, for serving workloads.
    pub arrival_digest: Option<u64>,
    /// Where a traced run wrote its spans.
    pub trace_file: Option<PathBuf>,
}

impl RunReport {
    /// True when every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Failure bookkeeping shared by every phase.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 32 {
            self.problems.push(what);
        }
    }
}

/// Where the benchmark keeps run artefacts: `benchmark/target`.
#[must_use]
pub fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// Host-time and wait observations of one traced pass that spans do not
/// carry.
#[derive(Debug, Default, Clone)]
struct LayerSample {
    policy: PolicyTime,
    dma_ends: u64,
    dma_queued_ps: u64,
    starts: u64,
    ready_wait_ps: u64,
    plan_arrivals: u64,
    probe_cells: u64,
    cache_bytes: u64,
}

/// A workload's pass machinery. `run_pass` is the timed region; the
/// checks and probes around it are not.
trait Bench {
    type Out;
    fn run_pass(&mut self) -> Self::Out;
    fn traced_pass(&mut self, log: &mut SpanLog, sample: &mut LayerSample) -> Self::Out;
    /// Untimed layer probes after a traced pass.
    fn probe(&mut self, out: &Self::Out, log: &mut SpanLog, sample: &mut LayerSample);
    fn check(&mut self, out: Self::Out, checks: &mut Checks);
    fn sim_outcome(&self) -> SimOutcome;
    /// Per-layer values fixed by the simulated outcome.
    fn layer_counts(&self) -> BTreeMap<&'static str, f64>;
    /// Events one pass simulates.
    fn events_per_pass(&self) -> u64;
    /// True when the pass drives the simulator itself, so its host time
    /// per simulated event is observable from the benchmark's boundary.
    fn drives_simulator(&self) -> bool;
    fn arrival_digest(&self) -> Option<u64> {
        None
    }
}

/// Runs one workload.
#[must_use]
pub fn run(opts: &RunOptions) -> RunReport {
    let seeds = Seeds::derive(opts.seed);
    let mut checks = Checks::default();
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let work_dir = target_dir()
        .join("bench-cache")
        .join(std::process::id().to_string());
    let report = if opts.workload.is_grid() {
        let mut setup = Vec::new();
        let mut bench = None;
        for rep in 0..reps {
            drop(bench.take());
            let t0 = Instant::now();
            bench = Some(GridBench::prepare(
                opts.workload,
                &seeds,
                work_dir.join(format!("rep{rep}")),
                &mut checks,
            ));
            setup.push(t0.elapsed().as_secs_f64());
        }
        let mut bench = bench.expect("at least one set-up");
        measure(&mut bench, opts, &setup, checks)
    } else {
        let mut setup = Vec::new();
        let mut bench = None;
        for _ in 0..reps {
            drop(bench.take());
            let t0 = Instant::now();
            bench = Some(SimBench::prepare(opts.workload, &seeds, &mut checks));
            setup.push(t0.elapsed().as_secs_f64());
        }
        let mut bench = bench.expect("at least one set-up");
        measure(&mut bench, opts, &setup, checks)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    report
}

fn measure<B: Bench>(
    bench: &mut B,
    opts: &RunOptions,
    setup: &[f64],
    mut checks: Checks,
) -> RunReport {
    let min_passes = if opts.smoke { 2 } else { 3 };
    let budget = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let mut untraced_ns = Vec::new();
    let start = Instant::now();
    while untraced_ns.len() < min_passes || start.elapsed() < budget {
        let t0 = Instant::now();
        let out = bench.run_pass();
        untraced_ns.push(t0.elapsed().as_nanos() as f64);
        bench.check(out, &mut checks);
    }
    let mut passes = untraced_ns.len();
    let mut metrics = Vec::new();
    let mut trace_file = None;
    let mut pass_ms_p90 = None;
    if opts.trace {
        let mut log = SpanLog::default();
        let mut samples = Vec::new();
        let start = Instant::now();
        while samples.len() < min_passes || start.elapsed() < budget {
            log.pass = samples.len() as u32;
            let mut sample = LayerSample::default();
            let out = log.span("pass", None, |log| bench.traced_pass(log, &mut sample));
            bench.probe(&out, &mut log, &mut sample);
            bench.check(out, &mut checks);
            samples.push(sample);
        }
        passes += samples.len();
        let hold = log.span("sim.queue_hold", None, |_| {
            queue_hold_ns_per_event(HOLD_POPS)
        });
        let values = layer_values(bench, &log, &samples, &untraced_ns, hold);
        for def in PER_LAYER {
            let value = values.get(def.name).copied();
            if value.is_none() {
                checks.fail(format!("per-layer metric {} was not measured", def.name));
            }
            metrics.push(Metric {
                name: def.name,
                value: value.unwrap_or(0.0),
                unit: def.unit,
            });
        }
        let path = target_dir().join(format!("trace-{}.json", opts.workload.name()));
        let written = std::fs::create_dir_all(target_dir())
            .and_then(|()| std::fs::write(&path, log.to_chrome_json(opts.workload.name())));
        match written {
            Ok(()) => trace_file = Some(path),
            Err(e) => checks.fail(format!("writing {}: {e}", path.display())),
        }
    } else {
        let ms: Vec<f64> = untraced_ns.iter().map(|ns| ns / 1e6).collect();
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        values.insert("pass_ms_p50", median(&ms).unwrap_or(0.0));
        // The tail is reported only when at least ten passes lie beyond it.
        if ms.len() >= 100 {
            pass_ms_p90 = percentile(&ms, 0.9);
        }
        values.insert("setup_s", median(setup).unwrap_or(0.0));
        values.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
        values.extend(bench.sim_outcome().named());
        for def in END_TO_END {
            metrics.push(Metric {
                name: def.name,
                value: values[def.name],
                unit: def.unit,
            });
        }
    }
    for m in &metrics {
        if !m.value.is_finite() {
            checks.fail(format!("metric {} is not finite", m.name));
        }
    }
    RunReport {
        workload: opts.workload,
        seed: opts.seed,
        traced: opts.trace,
        passes,
        pass_ms_p90,
        attempted: checks.attempted,
        failed: checks.failed,
        problems: checks.problems,
        metrics,
        arrival_digest: bench.arrival_digest(),
        trace_file,
    }
}

fn layer_values<B: Bench>(
    bench: &B,
    log: &SpanLog,
    samples: &[LayerSample],
    untraced_ns: &[f64],
    hold_ns_per_event: f64,
) -> BTreeMap<&'static str, f64> {
    let totals = log.totals_by_pass();
    // Median over traced passes of a per-pass quantity.
    let per_pass = |f: &dyn Fn(&SpanTotals, &LayerSample) -> f64| {
        let v: Vec<f64> = samples
            .iter()
            .enumerate()
            .map(|(i, s)| totals.get(&(i as u32)).map_or(0.0, |t| f(t, s)))
            .collect();
        median(&v).unwrap_or(0.0)
    };
    let incl = |t: &SpanTotals, name: &str| t.get(name).map_or(0, |v| v.1) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut v = bench.layer_counts();
    let events = bench.events_per_pass() as f64;
    let untraced_p50 = median(untraced_ns).unwrap_or(0.0);
    let traced_p50 = per_pass(&|t, _| incl(t, "pass"));
    v.insert("accel.events", events);
    // The trend number: untraced host time per simulated event, observed
    // where the benchmark itself drives the simulator.
    v.insert(
        "accel.ns_per_event",
        if bench.drives_simulator() {
            ratio(untraced_p50, events)
        } else {
            0.0
        },
    );
    v.insert("accel.new_ms", per_pass(&|t, _| incl(t, "accel.new") / 1e6));
    v.insert("accel.run_ms", per_pass(&|t, _| incl(t, "accel.run") / 1e6));
    v.insert(
        "core.policy_calls",
        samples.first().map_or(0.0, |s| s.policy.calls as f64),
    );
    v.insert(
        "core.policy_ns_per_call",
        per_pass(&|_, s| ratio(s.policy.ns as f64, s.policy.calls as f64)),
    );
    v.insert(
        "core.policy_self_pct",
        per_pass(&|t, s| 100.0 * ratio(s.policy.ns as f64, incl(t, "pass"))),
    );
    let first = samples.first().cloned().unwrap_or_default();
    v.insert(
        "core.ready_wait_us",
        ratio(first.ready_wait_ps as f64, first.starts as f64) / 1e6,
    );
    v.insert("mem.dma_xfers", first.dma_ends as f64);
    v.insert(
        "mem.dma_wait_us",
        ratio(first.dma_queued_ps as f64, first.dma_ends as f64) / 1e6,
    );
    v.insert("sim.queue_ns_per_event", hold_ns_per_event);
    v.insert(
        "svc.plan_ns_per_arrival",
        per_pass(&|t, s| ratio(incl(t, "svc.plan"), s.plan_arrivals as f64)),
    );
    v.insert(
        "trace.overhead_pct",
        100.0 * (ratio(traced_p50, untraced_p50) - 1.0),
    );
    v.insert(
        "oracle.ms",
        per_pass(&|t, _| incl(t, "oracle.table_oracle") / 1e6),
    );
    v.insert(
        "campaign.exec_ms",
        per_pass(&|t, _| incl(t, "campaign.execute") / 1e6),
    );
    v.insert(
        "cache.lookup_us",
        per_pass(&|t, s| ratio(incl(t, "cache.lookup"), s.probe_cells as f64) / 1e3),
    );
    v.insert(
        "cache.store_us",
        per_pass(&|t, s| ratio(incl(t, "cache.store"), s.probe_cells as f64) / 1e3),
    );
    v.insert("cache.mb", first.cache_bytes as f64 / 1e6);
    v.insert(
        "render.ms",
        per_pass(&|t, _| {
            t.iter()
                .filter(|(name, _)| name.starts_with("render."))
                .map(|(_, (own, _))| *own)
                .sum::<u64>() as f64
                / 1e6
        }),
    );
    v
}

/// Per-layer values every workload derives the same way from its
/// simulated results and their event counters.
fn outcome_layers(
    results: &[&SimResult],
    counters: &[&EventCounters],
) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&SimResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let csum =
        |f: &dyn Fn(&EventCounters) -> u64| counters.iter().map(|c| f(c)).sum::<u64>() as f64;
    let mean = |f: &dyn Fn(&SimResult) -> f64| {
        if results.is_empty() {
            0.0
        } else {
            results.iter().map(|r| f(r)).sum::<f64>() / results.len() as f64
        }
    };
    let util = |busy: u64, r: &SimResult| {
        let t = r.stats.exec_time.as_ps();
        if t == 0 {
            0.0
        } else {
            100.0 * busy as f64 / t as f64
        }
    };
    let svc = |f: &dyn Fn(&relief_metrics::ServiceStats) -> u64| sum(&|r| f(&r.stats.service));
    let arrivals = svc(&|s| s.arrivals());
    let admitted = svc(&|s| s.admitted());
    let mut sojourn = relief_metrics::Histogram::default();
    for r in results {
        sojourn.merge(&r.stats.service.classes[0].sojourn);
    }
    let quantile_us = |q: f64| sojourn.quantile_ps(q).unwrap_or(0) as f64 / 1e6;
    let pct = |num: f64, den: f64| if den > 0.0 { 100.0 * num / den } else { 0.0 };
    let latency_class = |f: &dyn Fn(&relief_metrics::ClassServiceStats) -> u64| {
        sum(&|r| f(&r.stats.service.classes[0]))
    };
    let goodput: f64 = results
        .iter()
        .map(|r| {
            (0..3)
                .map(|c| r.stats.service.goodput_per_s(c))
                .sum::<f64>()
        })
        .sum();
    BTreeMap::from([
        (
            "accel.live_hw",
            results.iter().map(|r| r.live_high_water).max().unwrap_or(0) as f64,
        ),
        (
            "accel.occupancy_pct",
            mean(&|r| 100.0 * r.stats.accel_occupancy()),
        ),
        ("core.sched_ops", sum(&|r| r.stats.scheduler_ops)),
        ("core.escalations", csum(&|c| c.escalations_granted)),
        (
            "core.feasibility_checks",
            csum(&|c| c.feasibility_pass + c.feasibility_fail),
        ),
        ("core.queue_bypasses", csum(&|c| c.queue_bypasses)),
        (
            "core.node_dl_pct",
            pct(
                sum(&|r| r.stats.apps.values().map(|a| a.node_deadlines_met).sum()),
                sum(&|r| r.stats.apps.values().map(|a| a.nodes_completed).sum()),
            ),
        ),
        ("mem.writebacks", csum(&|c| c.writebacks)),
        (
            "mem.dram_util_pct",
            mean(&|r| util(r.stats.dram_busy.as_ps(), r)),
        ),
        (
            "mem.ic_util_pct",
            mean(&|r| 100.0 * r.stats.interconnect_occupancy()),
        ),
        (
            "mem.spad_mb",
            sum(&|r| r.stats.traffic.spad_to_spad_bytes) / 1e6,
        ),
        ("mem.forwards", sum(&|r| r.stats.forwards())),
        ("mem.colocations", sum(&|r| r.stats.colocations())),
        ("svc.arrivals", arrivals),
        ("svc.admitted", admitted),
        ("svc.admit_pct", pct(admitted, arrivals)),
        ("svc.shed_bucket", svc(&|s| s.shed_bucket())),
        ("svc.shed_capacity", svc(&|s| s.shed_capacity())),
        ("svc.shed_breaker", svc(&|s| s.shed_breaker())),
        ("svc.lat_p50_us", quantile_us(0.5)),
        ("svc.lat_p99_us", quantile_us(0.99)),
        (
            "svc.attain_pct",
            pct(
                latency_class(&|c| c.dag_deadlines_met),
                latency_class(&|c| c.arrivals),
            ),
        ),
        (
            "svc.goodput_per_s",
            if results.is_empty() {
                0.0
            } else {
                goodput / results.len() as f64
            },
        ),
        ("svc.timeouts", svc(&|s| s.timed_out())),
        ("svc.hedges", svc(&|s| s.hedged())),
        ("svc.breaker_opens", csum(&|c| c.breaker_opens)),
        ("fault.injected", sum(&|r| r.stats.faults.injected())),
        (
            "fault.fwd_invalidations",
            sum(&|r| r.stats.faults.forward_invalidations),
        ),
        ("fault.outages", sum(&|r| r.stats.faults.channel_outages)),
    ])
}

/// Digest of one cell's outcome: its full `RunStats` rendering plus the
/// dispatched event count.
fn digest(r: &SimResult) -> u64 {
    fnv1a(format!("{:?}|{}", r.stats, r.events_dispatched).as_bytes())
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panic: {}", panic_text(p.as_ref()))))
}

/// Runs one cell, optionally observed by `tracer`. A stall or a panic is
/// the cell's error.
fn run_cell(cell: &SimCell, tracer: Option<&Tracer>) -> Result<SimResult, String> {
    guarded(|| {
        let mut sim = SocSim::new(cell.cfg.clone(), cell.apps.clone());
        if let Some(t) = tracer {
            sim = sim.with_tracer(t);
        }
        sim.try_run().map_err(|e| format!("stall: {e}"))
    })
}

/// Walks a stream's whole horizon through `StreamPlan::gap_ps`, exactly as
/// the simulator arms arrivals. Returns the arrival count and an FNV-1a
/// digest of every arrival time.
fn plan_horizon(cfg: &StreamConfig) -> (u64, u64) {
    let plan = StreamPlan::new(cfg.clone());
    let mut count = 0u64;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for tenant in 0..cfg.tenants.len() as u32 {
        let mut at = 0u64;
        let mut index = 0u64;
        while let Some(gap) = plan.gap_ps(tenant, index, at) {
            at = at.saturating_add(gap);
            if at > cfg.duration_ps {
                break;
            }
            for b in at.to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            count += 1;
            index += 1;
        }
    }
    (count, digest)
}

/// The closed-loop and serving workloads: a fixed list of simulations.
struct SimBench {
    cells: Vec<SimCell>,
    stream: Option<StreamConfig>,
    /// Per-cell digests of the set-up pass; `None` for a failed cell.
    reference: Vec<Option<u64>>,
    /// The set-up pass's results and counters, for the metrics.
    results: Vec<SimResult>,
    counters: Vec<EventCounters>,
    /// Arrivals over the horizon and their digest.
    plan: Option<(u64, u64)>,
}

impl SimBench {
    /// Builds the cells and runs the checked set-up pass: counters
    /// attached, reconciled on every drained cell.
    fn prepare(w: Workload, seeds: &Seeds, checks: &mut Checks) -> SimBench {
        let cells = sim_cells(w, seeds);
        let stream = w.is_serving().then(|| stream_config(w, seeds));
        let plan = stream.as_ref().map(plan_horizon);
        let mut bench = SimBench {
            cells,
            stream,
            reference: Vec::new(),
            results: Vec::new(),
            counters: Vec::new(),
            plan,
        };
        for cell in &bench.cells {
            checks.attempted += 1;
            let sink = CountersSink::shared();
            let mut tracer = Tracer::off();
            tracer.attach(sink.clone());
            match run_cell(cell, Some(&tracer)) {
                Ok(r) => {
                    let counters = sink.borrow().counters().clone();
                    if cell.drains() {
                        for m in reconcile(&counters, &r.stats) {
                            checks.fail(format!("{}: reconcile: {m}", cell.label));
                        }
                    }
                    if let Some((planned, _)) = plan {
                        if r.stats.service.arrivals() != planned {
                            checks.fail(format!(
                                "{}: {} arrivals simulated, {planned} planned",
                                cell.label,
                                r.stats.service.arrivals()
                            ));
                        }
                    }
                    bench.reference.push(Some(digest(&r)));
                    bench.results.push(r);
                    bench.counters.push(counters);
                }
                Err(e) => {
                    checks.fail(format!("{}: {e}", cell.label));
                    bench.reference.push(None);
                }
            }
        }
        bench
    }
}

impl Bench for SimBench {
    type Out = Vec<Result<SimResult, String>>;

    fn run_pass(&mut self) -> Self::Out {
        self.cells.iter().map(|c| run_cell(c, None)).collect()
    }

    fn traced_pass(&mut self, log: &mut SpanLog, sample: &mut LayerSample) -> Self::Out {
        let mut out = Vec::with_capacity(self.cells.len());
        for (i, cell) in self.cells.iter().enumerate() {
            let i = i as u32;
            let waits = Rc::new(RefCell::new(WaitSink::default()));
            let tracer = Tracer::to_sink(waits.clone());
            let (policy, time) = TimedPolicy::wrap(cell.cfg.policy);
            let result = log.span("cell", Some(i), |log| {
                let sim = log.span("accel.new", Some(i), |_| {
                    guarded(|| {
                        Ok(SocSim::new(cell.cfg.clone(), cell.apps.clone())
                            .with_tracer(&tracer)
                            .with_policy_object(policy))
                    })
                })?;
                log.span("accel.run", Some(i), |log| {
                    let r = guarded(|| sim.try_run().map_err(|e| format!("stall: {e}")));
                    log.folded_child("core.policy", Some(i), time.get().ns);
                    r
                })
            });
            let t = time.get();
            sample.policy.calls += t.calls;
            sample.policy.ns += t.ns;
            let w = waits.borrow();
            sample.dma_ends += w.dma_ends;
            sample.dma_queued_ps += w.dma_queued_ps;
            sample.starts += w.starts;
            sample.ready_wait_ps += w.ready_wait_ps;
            out.push(result);
        }
        out
    }

    fn probe(&mut self, _out: &Self::Out, log: &mut SpanLog, sample: &mut LayerSample) {
        if let Some(stream) = &self.stream {
            let (count, _) = log.span("svc.plan", None, |_| plan_horizon(stream));
            sample.plan_arrivals = count;
        }
    }

    fn check(&mut self, out: Self::Out, checks: &mut Checks) {
        for ((cell, r), want) in self.cells.iter().zip(&out).zip(&self.reference) {
            checks.attempted += 1;
            match (r, want) {
                (Ok(r), Some(want)) if digest(r) == *want => {}
                (Ok(_), _) => checks.fail(format!(
                    "{}: outcome differs from the set-up pass",
                    cell.label
                )),
                (Err(e), _) => checks.fail(format!("{}: {e}", cell.label)),
            }
        }
    }

    fn sim_outcome(&self) -> SimOutcome {
        SimOutcome::of(&self.results.iter().collect::<Vec<_>>())
    }

    fn layer_counts(&self) -> BTreeMap<&'static str, f64> {
        let mut v = outcome_layers(
            &self.results.iter().collect::<Vec<_>>(),
            &self.counters.iter().collect::<Vec<_>>(),
        );
        v.extend([
            ("campaign.cells", 0.0),
            ("cache.hits", 0.0),
            ("cache.simulated", 0.0),
        ]);
        v
    }

    fn events_per_pass(&self) -> u64 {
        self.results.iter().map(|r| r.events_dispatched).sum()
    }

    fn drives_simulator(&self) -> bool {
        true
    }

    fn arrival_digest(&self) -> Option<u64> {
        self.plan.map(|(_, d)| d)
    }
}

/// An artefact renderer over the campaign results.
type Renderer = fn(&Ctx) -> String;

/// The artefacts `all_experiments` prints, in its order. Each is rendered
/// from the campaign results; `fig12` and the oracle table go through the
/// rendered-artefact cache, exactly as in `all_experiments`.
const RENDERERS: [(&str, Renderer); 13] = [
    ("render.table2", ex::table2_with),
    ("render.fig2", ex::fig2_with),
    ("render.fig4", ex::fig4_with),
    ("render.fig4-col", ex::fig4_colocations_with),
    ("render.fig5", ex::fig5_with),
    ("render.fig6", ex::fig6_with),
    ("render.fig7", ex::fig7_with),
    ("render.fig8", ex::fig8_with),
    ("render.fig9", ex::fig9_with),
    ("render.fig10", ex::fig10_with),
    ("render.table7", ex::table7_with),
    ("render.table8", ex::table8_with),
    ("render.fig11", ex::fig11_with),
];

/// One pass of the `all_experiments` pipeline.
struct GridOut {
    results: CampaignResults,
    /// `(span name, rendered text)` in print order.
    artifacts: Vec<(&'static str, String)>,
    /// The cache the pass ran against.
    cache: CacheConfig,
}

/// The two `all_experiments` workloads.
struct GridBench {
    w: Workload,
    specs: Vec<RunSpec>,
    dir: PathBuf,
    /// The filled cache every `grid-warm` pass reads.
    warm: Option<CacheConfig>,
    next_dir: u32,
    reference_cells: Vec<Option<u64>>,
    reference_render: u64,
    /// The set-up pass's records in label order, for the metrics.
    records: Vec<RunRecord>,
}

impl Drop for GridBench {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl GridBench {
    fn prepare(w: Workload, seeds: &Seeds, dir: PathBuf, checks: &mut Checks) -> GridBench {
        let mut bench = GridBench {
            w,
            specs: grid_specs(seeds),
            dir,
            warm: None,
            next_dir: 0,
            reference_cells: Vec::new(),
            reference_render: 0,
            records: Vec::new(),
        };
        let cache = bench.fresh_cache();
        let first = bench.pipeline(&cache, &mut SpanLog::disabled());
        bench.expect_simulated(&first, bench.specs.len(), checks);
        let reference = if w == Workload::GridWarm {
            let (warm, filled) = (first.cache.clone(), render_digest(&first.artifacts, false));
            drop(first);
            let second = bench.pipeline(&warm, &mut SpanLog::disabled());
            bench.expect_simulated(&second, 0, checks);
            if render_digest(&second.artifacts, false) != filled {
                checks.fail(
                    "grid-warm: rendered output differs from the cold pass that filled its cache"
                        .into(),
                );
            }
            bench.warm = Some(warm);
            second
        } else {
            first
        };
        bench.reference_render = render_digest(&reference.artifacts, bench.skips_fig12());
        let mut records = Vec::new();
        for o in &reference.results.outcomes {
            checks.attempted += 1;
            match &o.outcome {
                Ok(rec) => {
                    bench.reference_cells.push(Some(digest(&rec.result)));
                    records.push((o.label.clone(), rec.clone()));
                }
                Err(e) => {
                    checks.fail(format!("{}: panic: {e}", o.label));
                    bench.reference_cells.push(None);
                }
            }
        }
        for (label, mismatches) in reference.results.mismatched() {
            for m in mismatches {
                checks.fail(format!("{label}: reconcile: {m}"));
            }
        }
        // Aggregate in label order, so floating-point sums do not depend
        // on the seed-chosen execution order.
        records.sort_by(|a, b| a.0.cmp(&b.0));
        bench.records = records.into_iter().map(|(_, rec)| rec).collect();
        bench.discard(reference);
        bench
    }

    /// Fig. 12 measures host latency, so two cold passes print different
    /// numbers there; everything else must repeat byte for byte.
    fn skips_fig12(&self) -> bool {
        self.w == Workload::GridCold
    }

    fn fresh_cache(&mut self) -> CacheConfig {
        self.next_dir += 1;
        CacheConfig::at(self.dir.join(format!("pass{}", self.next_dir)))
    }

    /// Deletes a cold pass's cache; the warm cache stays.
    fn discard(&self, out: GridOut) {
        if self.warm.as_ref().map(|c| &c.dir) != Some(&out.cache.dir) {
            let _ = std::fs::remove_dir_all(&out.cache.dir);
        }
    }

    fn expect_simulated(&self, out: &GridOut, want: usize, checks: &mut Checks) {
        if out.results.simulated != want {
            checks.fail(format!(
                "{}: {} of {} cells simulated, expected {want}",
                self.w.name(),
                out.results.simulated,
                self.specs.len()
            ));
        }
    }

    fn pipeline(&self, cache: &CacheConfig, log: &mut SpanLog) -> GridOut {
        let opts = ExecOptions {
            jobs: GRID_JOBS,
            cache: cache.clone(),
            ..ExecOptions::default()
        };
        let results = log.span("campaign.execute", None, |_| {
            campaign::execute(self.specs.clone(), &opts)
        });
        let ctx = Ctx::from_results(&results);
        let mut artifacts: Vec<(&'static str, String)> = RENDERERS
            .iter()
            .map(|&(name, f)| (name, log.span(name, None, |_| f(&ctx))))
            .collect();
        let fig12 = log.span("render.fig12", None, |_| {
            cached_artifact(cache, "fig12-host-latency", ex::fig12)
        });
        artifacts.push(("render.fig12", fig12));
        artifacts.push((
            "render.fig13",
            log.span("render.fig13", None, |_| ex::fig13_with(&ctx)),
        ));
        let oracle = log.span("render.table-oracle", None, |log| {
            cached_artifact(cache, "table-oracle", || {
                log.span("oracle.table_oracle", None, |_| {
                    relief_bench::oracle::table_oracle(GRID_JOBS)
                })
            })
        });
        artifacts.push(("render.table-oracle", oracle));
        GridOut {
            results,
            artifacts,
            cache: cache.clone(),
        }
    }
}

/// Answers an artefact from the rendered-artefact cache, rendering and
/// storing it on a miss.
fn cached_artifact(cache: &CacheConfig, name: &str, render: impl FnOnce() -> String) -> String {
    cache.lookup_artifact(name).unwrap_or_else(|| {
        let body = render();
        cache.store_artifact(name, &body);
        body
    })
}

/// FNV-1a over the printed pipeline output (`all_experiments` prints each
/// artefact followed by a newline).
fn render_digest(artifacts: &[(&'static str, String)], skip_fig12: bool) -> u64 {
    let mut text = String::new();
    for (name, body) in artifacts {
        if !(skip_fig12 && *name == "render.fig12") {
            text.push_str(body);
            text.push('\n');
        }
    }
    fnv1a(text.as_bytes())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Bench for GridBench {
    type Out = GridOut;

    fn run_pass(&mut self) -> GridOut {
        let cache = match &self.warm {
            Some(warm) => warm.clone(),
            None => self.fresh_cache(),
        };
        self.pipeline(&cache, &mut SpanLog::disabled())
    }

    fn traced_pass(&mut self, log: &mut SpanLog, _sample: &mut LayerSample) -> GridOut {
        let cache = match &self.warm {
            Some(warm) => warm.clone(),
            None => self.fresh_cache(),
        };
        self.pipeline(&cache, log)
    }

    fn probe(&mut self, out: &GridOut, log: &mut SpanLog, sample: &mut LayerSample) {
        sample.cache_bytes = dir_bytes(&out.cache.dir);
        sample.probe_cells = self.specs.len() as u64;
        log.span("cache.lookup", None, |_| {
            for spec in &self.specs {
                std::hint::black_box(out.cache.lookup(spec));
            }
        });
        let store = self.fresh_cache();
        log.span("cache.store", None, |_| {
            for (spec, o) in self.specs.iter().zip(&out.results.outcomes) {
                if let Ok(rec) = &o.outcome {
                    store.store(spec, rec);
                }
            }
        });
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    fn check(&mut self, out: GridOut, checks: &mut Checks) {
        let want = if self.warm.is_some() {
            0
        } else {
            self.specs.len()
        };
        self.expect_simulated(&out, want, checks);
        for (o, want) in out.results.outcomes.iter().zip(&self.reference_cells) {
            checks.attempted += 1;
            match (&o.outcome, want) {
                (Ok(rec), Some(want)) if digest(&rec.result) == *want => {}
                (Ok(_), _) => {
                    checks.fail(format!("{}: outcome differs from the set-up pass", o.label))
                }
                (Err(e), _) => checks.fail(format!("{}: panic: {e}", o.label)),
            }
        }
        if render_digest(&out.artifacts, self.skips_fig12()) != self.reference_render {
            checks.fail(format!(
                "{}: rendered output differs from the set-up pass",
                self.w.name()
            ));
        }
        self.discard(out);
    }

    fn sim_outcome(&self) -> SimOutcome {
        SimOutcome::of(&self.records.iter().map(|r| &r.result).collect::<Vec<_>>())
    }

    fn layer_counts(&self) -> BTreeMap<&'static str, f64> {
        let results: Vec<&SimResult> = self.records.iter().map(|r| &r.result).collect();
        let counters: Vec<&EventCounters> = self.records.iter().map(|r| &r.counters).collect();
        let mut v = outcome_layers(&results, &counters);
        let cells = self.specs.len() as f64;
        let warm = self.warm.is_some();
        v.extend([
            ("campaign.cells", cells),
            ("cache.hits", if warm { cells } else { 0.0 }),
            ("cache.simulated", if warm { 0.0 } else { cells }),
        ]);
        v
    }

    fn events_per_pass(&self) -> u64 {
        if self.warm.is_some() {
            0
        } else {
            self.records
                .iter()
                .map(|r| r.result.events_dispatched)
                .sum()
        }
    }

    /// The campaign engine builds and runs the simulators itself.
    fn drives_simulator(&self) -> bool {
        false
    }
}

/// Peak resident set of this process, MB (`VmHWM`); `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
