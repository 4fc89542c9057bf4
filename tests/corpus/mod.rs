//! Behaviour corpus: every figure this repository reproduces is read off
//! exact simulator output, so 94 representative cells pin that output in
//! `tests/corpus/behaviour.txt`, one line per cell:
//!
//! ```text
//! <label> <digest:016x> events=<events dispatched> sched_ops=<scheduler ops> live_hw=<live high-water>[ trace=<016x>]
//! ```
//!
//! The digest is FNV-1a over the `Debug` text of the full `RunStats`, the
//! per-app memory and compute time, each of the three prediction series
//! as its sample count and the bit pattern of its sum, the executed-task
//! trace and the dispatched-event count. Floats render in shortest
//! round-trip form, so a one-ulp drift in any reported value changes the
//! digest. `live_hw` (the peak count of live DAG-instance
//! slots) is host-side bookkeeping, not simulated outcome, so it stays out
//! of the digest and is pinned on its own. Open-loop cells (an enabled
//! stream) and fault cells (an enabled fault config) add `trace=`: FNV-1a
//! over the full event stream as `relief_trace::text` renders it, one
//! line per event, folded as the events arrive. It pins the fields and
//! the order of the service events (admission, sheds, breaker
//! transitions, timeouts, hedges) and of the fault events (task and DMA
//! faults, retries, aborts, unit outages, ECC invalidations) that the
//! statistics alone cannot see.
//!
//! The cells: the eight fairness-study policies on a high-contention mix,
//! FCFS/RELIEF on a second mix and on the 50 ms time-limited continuous
//! repeat path; task/DMA faults with unit outages; twice twenty seeds
//! rotating all eleven policies with faults folded in; open-loop service
//! mode, also with the self-healing stack and DRAM outages (timeouts
//! that fire after their slot was recycled must be dropped as stale);
//! the `chaos` command's stack on streams whose circuit breakers open,
//! shed, half-open, re-open and close, and whose tasks abort; and the
//! platform and predictor axes the default configuration never reaches,
//! each under RELIEF, LAX and HetSched.
//!
//! `behaviour_corpus` checks the whole file. A mismatch writes the
//! rendered corpus to `$CARGO_TARGET_TMPDIR` and names the first
//! differing label. There is no bless switch: an intended behaviour
//! change copies that file over `tests/corpus/behaviour.txt` and names
//! the drift in CHANGES.md.

use relief::bench::chaos::ChaosSpec;
use relief::bench::config_for;
use relief::bench::service::ServiceSpec;
use relief::core::DataMovePredictor;
use relief::prelude::*;
use relief::sim::fnv1a;
use relief::trace::{TraceEvent, TraceSink};
use relief_accel::{PredictionStats, SimResult};
use relief_service::{AdmissionConfig, SelfHealConfig, StreamConfig, TenantCfg};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// One simulated cell: a label unique within the corpus, a configuration
/// and a workload.
pub struct Cell {
    pub label: String,
    cfg: SocConfig,
    apps: Vec<AppSpec>,
}

impl Cell {
    /// Runs the cell with the executed-task trace recorded and `tracer`'s
    /// sinks attached.
    pub fn run(&self, tracer: &Tracer) -> SimResult {
        let mut cfg = self.cfg.clone();
        cfg.record_trace = true;
        SocSim::new(cfg, self.apps.clone()).with_tracer(tracer).run()
    }

    /// The cell's corpus line (see the module docs for the format).
    fn line(&self) -> String {
        let text = (self.cfg.stream.enabled() || self.cfg.fault.enabled())
            .then(|| Rc::new(RefCell::new(TextDigest::new())));
        let tracer = match &text {
            Some(sink) => Tracer::to_sink(sink.clone()),
            None => Tracer::off(),
        };
        let r = self.run(&tracer);
        let outcome = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{}",
            r.stats,
            r.per_app_mem_time,
            r.per_app_compute_time,
            prediction_sums(&r.prediction),
            r.trace,
            r.events_dispatched
        );
        let mut line = format!(
            "{} {:016x} events={} sched_ops={} live_hw={}",
            self.label,
            fnv1a(outcome.as_bytes()),
            r.events_dispatched,
            r.stats.scheduler_ops,
            r.live_high_water
        );
        if let Some(sink) = text {
            let _ = write!(line, " trace={:016x}", sink.borrow().hash);
        }
        line
    }
}

/// Each prediction series (compute, data movement, bandwidth) as its
/// sample count and the bit pattern of its sum, the only two numbers
/// Table VIII reads.
fn prediction_sums(p: &PredictionStats) -> [(u64, u64); 3] {
    [p.compute_rel_errors, p.dm_rel_errors, p.bw_rel_errors].map(|s| (s.count, s.sum.to_bits()))
}

/// Folds FNV-1a over the text rendering of every event it receives, one
/// line per event, so a whole run's trace is digested without buffering.
struct TextDigest {
    hash: u64,
    line: String,
}

impl TextDigest {
    fn new() -> Self {
        TextDigest { hash: fnv1a(b""), line: String::new() }
    }
}

impl TraceSink for TextDigest {
    fn emit(&mut self, ev: TraceEvent) {
        self.line.clear();
        let _ = writeln!(self.line, "{ev}");
        for &b in self.line.as_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Renders every cell and compares the text with the committed corpus,
/// which must hold `count` lines.
pub fn assert_matches(count: usize) {
    let rendered: String = cells().iter().map(|c| c.line() + "\n").collect();
    let committed = include_str!("behaviour.txt");
    assert_eq!(committed.lines().count(), count, "committed corpus lines");
    if rendered == committed {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("behaviour.txt");
    std::fs::write(&out, &rendered).expect("write the rendered corpus");
    let (r, c): (Vec<&str>, Vec<&str>) = (rendered.lines().collect(), committed.lines().collect());
    let i = (0..r.len().max(c.len())).find(|&i| r.get(i) != c.get(i)).unwrap_or(0);
    let label = r.get(i).or(c.get(i)).and_then(|l| l.split(' ').next()).unwrap_or("");
    panic!(
        "behaviour corpus drifted first at `{label}`\n  committed: {}\n  rendered:  {}\n\
         the rendered corpus is at {}; copy it over tests/corpus/behaviour.txt only for an \
         intended behaviour change",
        c.get(i).unwrap_or(&"<missing>"),
        r.get(i).unwrap_or(&"<missing>"),
        out.display()
    );
}

/// Every corpus cell, in file order.
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut mix_cells = |contention: Contention, index: usize, policies: &[PolicyKind]| {
        let mix = &contention.mixes()[index];
        for &policy in policies {
            cells.push(Cell {
                label: format!("{}/{}/{policy:?}", contention.name(), mix.label()),
                cfg: config_for(policy, contention),
                apps: mix.workload(),
            });
        }
    };
    mix_cells(Contention::High, 0, &PolicyKind::ALL);
    mix_cells(Contention::High, 1, &[PolicyKind::Fcfs, PolicyKind::Relief]);
    mix_cells(Contention::Continuous, 0, &[PolicyKind::Fcfs, PolicyKind::Relief]);

    let high = &Contention::High.mixes()[0];
    for policy in [PolicyKind::Fcfs, PolicyKind::Relief, PolicyKind::ReliefLax] {
        let mut cfg = config_for(policy, Contention::High);
        cfg.fault = FaultConfig {
            task_fault_rate: 0.05,
            dma_fault_rate: 0.05,
            unit_mttf_ps: 20_000_000_000, // one outage every ~20 ms
            ..FaultConfig::default()
        };
        cells.push(Cell {
            label: format!("faults/{}/{policy:?}", high.label()),
            cfg,
            apps: high.workload(),
        });
    }

    // Twice twenty distinct, aperiodic seeds through all eleven policies
    // on two low-contention mixes, with task/DMA faults on every fourth
    // (then third) seed: task aborts retire instances mid-run.
    let eleven: Vec<PolicyKind> =
        PolicyKind::ALL.iter().chain(PolicyKind::EXTENSIONS.iter()).copied().collect();
    for (name, mix_index, seed_base, fault_every, fault_xor, task_rate, dma_rate) in [
        ("rotation-a", 0, 0xD0C5_0000u64, 4, 0xFA17, 0.02, 0.02),
        ("rotation-b", 1, 0x4EC1_0000, 3, 0x4EC1, 0.03, 0.02),
    ] {
        let mix = &Contention::Low.mixes()[mix_index];
        for seed in 0..20u64 {
            let policy = eleven[seed as usize % eleven.len()];
            let mut cfg = config_for(policy, Contention::Low);
            cfg.seed = seed_base ^ seed.wrapping_mul(0x9E37_79B9);
            let mut label = format!("{name}/{}/seed{seed:02}/{policy:?}", mix.label());
            if seed % fault_every == fault_every - 1 {
                cfg.fault = FaultConfig {
                    seed: cfg.seed ^ fault_xor,
                    task_fault_rate: task_rate,
                    dma_fault_rate: dma_rate,
                    ..FaultConfig::default()
                };
                label.push_str("+faults");
            }
            cells.push(Cell { label, cfg, apps: mix.workload() });
        }
    }

    for (i, (seed, policy)) in
        [(0x5E11, PolicyKind::Relief), (0x5E12, PolicyKind::Fcfs), (0x5E13, PolicyKind::Adaptive)]
            .into_iter()
            .enumerate()
    {
        let spec = ServiceSpec {
            seed,
            rates: vec![150.0 + 50.0 * i as f64],
            duration_ps: 5_000_000_000, // 5 ms of arrivals
            warmup_ps: 1_000_000_000,
            policies: vec![policy],
            ..Default::default()
        };
        for run in spec.campaign().expand() {
            cells.push(Cell {
                label: format!("service/{seed:#x}/{policy:?}"),
                cfg: run.config(),
                apps: run.apps(),
            });
        }
    }
    cells.extend(SELF_HEAL_CELLS.map(|(seed, rate, policy)| self_heal_cell(seed, rate, policy)));
    cells.extend(
        BREAKER_CELLS.map(|(seed, rate, policy, task)| breaker_cell(seed, rate, policy, task)),
    );

    axis_cells(&mut cells);
    cells
}

/// `(stream seed, per-tenant rate, policy)` of the self-healing service
/// cells.
pub const SELF_HEAL_CELLS: [(u64, f64, PolicyKind); 3] = [
    (0x4EC5_0001, 1_500.0, PolicyKind::Relief),
    (0x4EC5_0002, 2_000.0, PolicyKind::Fcfs),
    (0x4EC5_0003, 1_000.0, PolicyKind::Adaptive),
];

/// A 10 ms CGL stream with the full self-healing stack, task/DMA faults
/// and DRAM-channel outages. The outages stall whole requests long enough
/// for the self-healing timeouts to fire, and later land on recycled
/// slots as stale events.
pub fn self_heal_cell(seed: u64, rate: f64, policy: PolicyKind) -> Cell {
    let cfg = SocConfig::mobile(policy).with_stream(stream(seed, rate, 10, 10)).with_fault(
        FaultConfig {
            seed: seed ^ 0xFA17,
            task_fault_rate: 0.02,
            dma_fault_rate: 0.02,
            dram_mttf_ps: 2_000_000_000, // ~5 outages over the 10 ms stream
            ..FaultConfig::default()
        },
    );
    Cell { label: format!("self-heal/{seed:#x}/{policy:?}"), cfg, apps: cgl_apps() }
}

/// `(stream seed, per-tenant rate, policy, task fault rate)` of the
/// breaker cells. Between them their breakers open, shed, half-open,
/// re-open after a failed probe and close, and the high task fault rate
/// aborts requests in stream mode.
pub const BREAKER_CELLS: [(u64, f64, PolicyKind, f64); 3] = [
    (0xFEED, 400.0, PolicyKind::Relief, 0.02),
    (0xB4EA_0005, 600.0, PolicyKind::Adaptive, 0.02),
    (0xAB07, 400.0, PolicyKind::Relief, 0.3),
];

/// One `chaos` command cell: the CGL trio streamed for 40 ms under the
/// command's self-healing stack (2x timeouts), an in-flight cap of 12,
/// DMA and ECC faults at 0.02, a DRAM-channel outage every ~5 ms, and
/// task faults at `task_rate`.
pub fn breaker_cell(seed: u64, rate: f64, policy: PolicyKind, task_rate: f64) -> Cell {
    let spec = ChaosSpec {
        fault_seed: seed ^ 0xFA17,
        stream_seed: seed,
        fault_rates: vec![0.02],
        arrival_rates: vec![rate],
        dram_mttf_ps: 5_000_000_000,
        duration_ps: 40_000_000_000,
        warmup_ps: 4_000_000_000,
        max_in_flight: 12,
        policies: vec![policy],
    };
    let run = &spec.campaign().expand()[0];
    let mut cfg = run.config();
    cfg.fault.task_fault_rate = task_rate;
    Cell { label: format!("breaker/{seed:#x}/{policy:?}"), cfg, apps: run.apps() }
}

/// One platform or predictor setting applied over a default config.
type Axis = fn(SocConfig) -> SocConfig;

/// Platform and predictor settings the default-config cells never reach,
/// each on the third high-contention mix under RELIEF, LAX and HetSched,
/// then a bounded-memory CGL stream under the same three.
fn axis_cells(cells: &mut Vec<Cell>) {
    let axes: [(&str, Axis); 9] = [
        ("crossbar", |c| SocConfig { mem: c.mem.with_crossbar(), ..c }),
        ("dm-predicted", |c| SocConfig { dm_predictor: DataMovePredictor::Predicted, ..c }),
        ("bw-last", |c| SocConfig { bw_predictor: BwPredictorKind::Last, ..c }),
        ("bw-average15", |c| SocConfig { bw_predictor: BwPredictorKind::Average(15), ..c }),
        ("bw-ewma0.25", |c| SocConfig { bw_predictor: BwPredictorKind::Ewma(0.25), ..c }),
        ("no-forwarding", SocConfig::without_forwarding),
        ("partitions1", |c| SocConfig { output_partitions: 1, ..c }),
        ("partitions3", |c| SocConfig { output_partitions: 3, ..c }),
        ("no-sched-overhead", |c| SocConfig { model_sched_overhead: false, ..c }),
    ];
    let policies = [PolicyKind::Relief, PolicyKind::Lax, PolicyKind::HetSched];
    let mix = &Contention::High.mixes()[2];
    for (axis, with) in axes {
        for policy in policies {
            cells.push(Cell {
                label: format!("axis/{axis}/{}/{policy:?}", mix.label()),
                cfg: with(config_for(policy, Contention::High)),
                apps: mix.workload(),
            });
        }
    }
    for policy in policies {
        cells.push(Cell {
            label: format!("axis/bounded-stream/{policy:?}"),
            cfg: SocConfig::mobile(policy)
                .with_stream(stream(0x4EC5_00B2, 800.0, 8, 5))
                .with_bounded_memory(),
            apps: cgl_apps(),
        });
    }
}

/// A three-tenant Poisson stream at `rate` requests/s per tenant, with
/// the full self-healing stack: breakers, 1.5x-prediction request
/// timeouts, and hedged retries for the top two QoS classes — every
/// handle-outliving-the-instance mechanism at once.
pub fn stream(seed: u64, rate: f64, cap: u32, duration_ms: u64) -> StreamConfig {
    StreamConfig {
        seed,
        duration_ps: duration_ms * 1_000_000_000,
        warmup_ps: duration_ms * 100_000_000, // first 10%
        tenants: vec![
            TenantCfg::new(QosClass::Latency, rate),
            TenantCfg::new(QosClass::Standard, rate),
            TenantCfg::new(QosClass::BestEffort, rate),
        ],
        admission: AdmissionConfig { max_in_flight: cap, ..AdmissionConfig::default() },
        self_heal: SelfHealConfig {
            breaker_failures: 3,
            breaker_open_ps: 2_000_000_000,
            probe_rate: 0.5,
            probes_to_close: 2,
            timeout_factor: 1.5,
            hedge_budget: [1, 1, 0],
            hedge_rate: 1.0,
        },
        ..StreamConfig::default()
    }
}

/// The CGL tenant trio: one app spec per tenant, in tenant order.
pub fn cgl_apps() -> Vec<AppSpec> {
    vec![
        AppSpec::once("C", App::Canny.dag()),
        AppSpec::once("G", App::Gru.dag()),
        AppSpec::once("L", App::Lstm.dag()),
    ]
}
