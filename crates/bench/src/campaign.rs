//! Deterministic parallel campaign engine.
//!
//! The paper's evaluation replays hundreds of independent
//! (policy × workload × platform × seed) scenarios. Each scenario is a
//! pure function of its inputs — `SocSim` is single-threaded and all its
//! randomness comes from the seeded in-tree [`SplitMix64`] — so the
//! scenarios can run on any number of worker threads in any completion
//! order and still produce *bit-identical* campaign results.
//!
//! The determinism contract has three legs:
//!
//! 1. **Spec-hash seeding.** A run's RNG seed depends only on its
//!    [`RunSpec`]: replicate 0 keeps the platform's base seed (so the
//!    calibrated single-run numbers in EXPERIMENTS.md stay valid), and
//!    replicate *r* > 0 derives its seed by folding the run's canonical
//!    label through FNV-1a into a [`SplitMix64`] stream. No run's seed
//!    depends on which thread executes it or when.
//! 2. **Construct-inside-worker execution.** `SocSim` is intentionally
//!    `!Send` (it shares `Rc<RefCell<…>>` trace sinks with its policy), so
//!    each worker builds, runs, and drops the whole simulator locally;
//!    only the `Send` inputs ([`RunSpec`]) and outputs (`SimResult`)
//!    cross threads.
//! 3. **Stable-order collection.** Results are slotted by original spec
//!    index, so aggregation folds them in expansion order no matter which
//!    worker finished first.
//!
//! Every run is executed with a [`CountersSink`] attached; for drained
//! runs (no time-limit truncation) the event-derived [`EventCounters`]
//! are reconciled against the simulator's own `RunStats`, and a
//! panicking or diverging run is attributed to its exact [`RunSpec`]
//! label in [`CampaignResults`].

use relief_accel::{AppSpec, SimResult, SocConfig, SocSim};
use relief_core::PolicyKind;
use relief_fault::FaultConfig;
use relief_metrics::summary::aggregate;
use relief_metrics::{reconcile, Mismatch};
use relief_service::StreamConfig;
use relief_sim::{fnv1a, SplitMix64, Time};
use relief_trace::{text, CountersSink, RingBufferSink, Tracer};
use relief_trace::EventCounters;
use relief_workloads::{Contention, Mix, CONTINUOUS_TIME_LIMIT};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

type WorkloadFn = dyn Fn() -> Vec<AppSpec> + Send + Sync;
type PlatformFn = dyn Fn(PolicyKind) -> SocConfig + Send + Sync;

/// One workload axis value: a labeled application set, rebuilt fresh
/// inside whichever worker thread executes the run (DAGs contain `Arc`s,
/// and sharing one instance across runs would be fine — but rebuilding
/// keeps every run self-contained).
#[derive(Clone)]
pub struct WorkloadSpec {
    label: String,
    time_limit: Option<Time>,
    build: Arc<WorkloadFn>,
}

impl WorkloadSpec {
    /// A paper application mix at a contention level. Continuous mixes
    /// carry the paper's 50 ms simulated-time cap.
    pub fn mix(contention: Contention, mix: &Mix) -> Self {
        let time_limit =
            (contention == Contention::Continuous).then_some(CONTINUOUS_TIME_LIMIT);
        let label = format!("{}/{}", contention.name(), mix.label());
        let mix = mix.clone();
        WorkloadSpec { label, time_limit, build: Arc::new(move || mix.workload()) }
    }

    /// An arbitrary labeled workload. `label` must uniquely identify the
    /// application set — it is part of the run's seed derivation and of
    /// the cache key used by [`Ctx`].
    pub fn custom(
        label: impl Into<String>,
        time_limit: Option<Time>,
        build: impl Fn() -> Vec<AppSpec> + Send + Sync + 'static,
    ) -> Self {
        WorkloadSpec { label: label.into(), time_limit, build: Arc::new(build) }
    }

    /// The workload's canonical label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("label", &self.label)
            .field("time_limit", &self.time_limit)
            .finish_non_exhaustive()
    }
}

/// One platform axis value: a labeled `SocConfig` constructor. The
/// closure receives the policy so per-policy defaults (e.g. the Fig. 12
/// insert cost) apply exactly as in single-run code paths.
#[derive(Clone)]
pub struct PlatformSpec {
    label: String,
    build: Arc<PlatformFn>,
}

impl PlatformSpec {
    /// The paper's Table VI mobile platform.
    pub fn mobile() -> Self {
        PlatformSpec::custom("mobile", SocConfig::mobile)
    }

    /// An arbitrary labeled platform. `label` must uniquely identify the
    /// configuration (same caveats as [`WorkloadSpec::custom`]).
    pub fn custom(
        label: impl Into<String>,
        build: impl Fn(PolicyKind) -> SocConfig + Send + Sync + 'static,
    ) -> Self {
        PlatformSpec { label: label.into(), build: Arc::new(build) }
    }

    /// One cell of a stream or fault sweep: the mobile platform with
    /// `stream` and `fault` installed, labelled `mobile+<kind>-` and the
    /// FNV-1a of both configurations' `Debug` text in 16 hex digits, so
    /// every knob (rates unrounded) is part of the cell's identity.
    pub(crate) fn sweep(kind: &str, stream: StreamConfig, fault: FaultConfig) -> Self {
        let digest = fnv1a(format!("{stream:?}{fault:?}").as_bytes());
        PlatformSpec::custom(format!("mobile+{kind}-{digest:016x}"), move |p| {
            SocConfig::mobile(p).with_stream(stream.clone()).with_fault(fault.clone())
        })
    }

    /// The platform's canonical label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// The row keys of a swept axis: each value with the fewest decimals, at
/// least `min_decimals`, that renders every two distinct values apart.
pub(crate) fn axis_keys(values: &[f64], min_decimals: usize) -> Vec<String> {
    let mut decimals = min_decimals;
    loop {
        let keys: Vec<String> = values.iter().map(|v| format!("{v:.decimals$}")).collect();
        let clash = (0..keys.len())
            .any(|i| (0..i).any(|j| keys[i] == keys[j] && values[i] != values[j]));
        // Distinct finite values render apart within 1074 decimals, the
        // exact expansion of the smallest subnormal.
        if !clash || decimals >= 1074 {
            return keys;
        }
        decimals += 1;
    }
}

impl fmt::Debug for PlatformSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlatformSpec").field("label", &self.label).finish_non_exhaustive()
    }
}

/// One fully specified, independently executable simulation run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Scheduling policy under test.
    pub policy: PolicyKind,
    /// Application set.
    pub workload: WorkloadSpec,
    /// SoC configuration template.
    pub platform: PlatformSpec,
    /// Replicate index; 0 keeps the platform's base seed, higher
    /// replicates get spec-hash-derived seeds.
    pub replicate: u32,
}

impl RunSpec {
    /// A replicate-0 run of `policy` on `workload` over `platform`.
    pub fn new(policy: PolicyKind, workload: WorkloadSpec, platform: PlatformSpec) -> Self {
        RunSpec { policy, workload, platform, replicate: 0 }
    }

    /// The run's canonical label: the cache key, the seed-derivation
    /// input, and the attribution string for failures.
    pub fn label(&self) -> String {
        format!(
            "{}|{}|{}|r{}",
            self.policy.name(),
            self.workload.label,
            self.platform.label,
            self.replicate
        )
    }

    /// The seed override for this run, if any. Replicate 0 returns `None`
    /// (the platform's own base seed stands, so replicate-0 results match
    /// every pre-engine code path byte for byte); replicate *r* > 0
    /// derives a seed from the spec label alone, making it independent of
    /// thread count and completion order.
    pub fn seed_override(&self) -> Option<u64> {
        (self.replicate > 0).then(|| {
            let mut rng = SplitMix64::new(fnv1a(self.label().as_bytes()));
            rng.next_u64()
        })
    }

    /// Materializes the run's `SocConfig`: platform template, then the
    /// workload's time limit, then the replicate seed.
    pub fn config(&self) -> SocConfig {
        let mut cfg = (self.platform.build)(self.policy);
        if let Some(limit) = self.workload.time_limit {
            cfg = cfg.with_time_limit(limit);
        }
        if let Some(seed) = self.seed_override() {
            cfg.seed = seed;
        }
        cfg
    }

    /// Builds the run's application set.
    pub fn apps(&self) -> Vec<AppSpec> {
        (self.workload.build)()
    }

    /// Executes the run inline with no instrumentation — exactly what the
    /// pre-engine single-run code paths do. [`Ctx`] falls back to this on
    /// a cache miss, which is why artifact output never depends on how
    /// complete a prewarmed grid was.
    pub fn execute(&self) -> SimResult {
        SocSim::new(self.config(), self.apps()).run()
    }

    /// Executes the run with reconciliation counters and (optionally) a
    /// canonical text trace attached.
    fn execute_instrumented(&self, capture_trace: bool) -> RunRecord {
        let cfg = self.config();
        let truncated = cfg.time_limit.is_some();
        let counters = CountersSink::shared();
        let ring = capture_trace.then(|| RingBufferSink::shared(1 << 22));
        let mut tracer = Tracer::off();
        tracer.attach(counters.clone());
        if let Some(ring) = &ring {
            tracer.attach(ring.clone());
        }
        let result = SocSim::new(cfg, self.apps()).with_tracer(&tracer).run();
        let counters = counters.borrow().counters().clone();
        let trace_text = ring.map(|ring| {
            let ring = ring.borrow();
            assert_eq!(ring.dropped(), 0, "trace capture overflowed for {}", self.label());
            text::to_text(&ring.snapshot())
        });
        RunRecord::new(result, counters, trace_text, truncated)
    }
}

/// A cartesian grid of runs: every policy × workload × platform ×
/// replicate combination, expanded in stable nested order.
///
/// Axes beyond the policy/workload/platform trio are encoded *into* the
/// platform axis: the fault-rate axis of `crate::resilience`, the
/// arrival-rate axis of `crate::service` and the arrival × fault grid of
/// `crate::chaos` are one platform per axis value, each the mobile SoC
/// with that cell's stream and fault configuration installed. The label
/// is the cell's canonical identity (its cache key, and the key reports
/// look its result up by), so a sweep labels each cell
/// `mobile+<kind>-<hex>`, the hex an FNV-1a digest of both
/// configurations' full `Debug` text: every knob, warm-up and unrounded
/// rates included, and two cells collide only when they simulate the
/// same configuration.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (reports, hashing).
    pub name: String,
    /// Policy axis.
    pub policies: Vec<PolicyKind>,
    /// Workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Platform axis.
    pub platforms: Vec<PlatformSpec>,
    /// Replicates per cell (≥ 1; replicate 0 uses the platform base seed).
    pub replicates: u32,
}

impl CampaignSpec {
    /// A single-platform campaign over the mobile SoC.
    pub fn new(
        name: impl Into<String>,
        policies: Vec<PolicyKind>,
        workloads: Vec<WorkloadSpec>,
    ) -> Self {
        CampaignSpec {
            name: name.into(),
            policies,
            workloads,
            platforms: vec![PlatformSpec::mobile()],
            replicates: 1,
        }
    }

    /// Expands the grid in stable nested order: policy-major, then
    /// workload, then platform, then replicate. Aggregation and
    /// reporting always follow this order, never completion order.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut specs = Vec::new();
        for &policy in &self.policies {
            for workload in &self.workloads {
                for platform in &self.platforms {
                    for replicate in 0..self.replicates.max(1) {
                        specs.push(RunSpec {
                            policy,
                            workload: workload.clone(),
                            platform: platform.clone(),
                            replicate,
                        });
                    }
                }
            }
        }
        specs
    }

    /// FNV-1a identity of the campaign: name, every axis label in order,
    /// and the replicate count. Two campaigns with the same hash expand
    /// to the same run labels and therefore the same seeds.
    pub fn hash(&self) -> u64 {
        let mut ident = self.name.clone();
        for p in &self.policies {
            ident.push('|');
            ident.push_str(p.name());
        }
        for w in &self.workloads {
            ident.push('|');
            ident.push_str(&w.label);
        }
        for p in &self.platforms {
            ident.push('|');
            ident.push_str(&p.label);
        }
        ident.push_str(&format!("|x{}", self.replicates));
        fnv1a(ident.as_bytes())
    }
}

/// Everything one engine-executed run produced.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The simulation result.
    pub result: SimResult,
    /// Event-derived counters from the attached [`CountersSink`].
    pub counters: EventCounters,
    /// Reconciliation disagreements (empty for consistent or truncated
    /// runs).
    pub mismatches: Vec<Mismatch>,
    /// Canonical text trace, when requested via
    /// [`ExecOptions::trace_labels`].
    pub trace_text: Option<String>,
}

impl RunRecord {
    /// A record with its counters reconciled against `result`'s stats.
    /// Byte totals legitimately disagree on truncated runs (transfers in
    /// flight at the cap), so reconciliation is strict only for drained
    /// runs — see `relief_metrics::reconcile`.
    pub(crate) fn new(
        result: SimResult,
        counters: EventCounters,
        trace_text: Option<String>,
        truncated: bool,
    ) -> Self {
        let mismatches =
            if truncated { Vec::new() } else { reconcile(&counters, &result.stats) };
        RunRecord { result, counters, mismatches, trace_text }
    }
}

/// One run's outcome: a record, or the panic message that killed it.
#[derive(Debug)]
pub struct RunOutcome {
    /// The run's canonical label.
    pub label: String,
    /// The spec that produced it.
    pub spec: RunSpec,
    /// Result, or the panic payload attributed to this exact spec.
    pub outcome: Result<RunRecord, String>,
}

/// Execution knobs for [`execute`].
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads (clamped to ≥ 1).
    pub jobs: usize,
    /// Run labels whose canonical text trace should be captured.
    /// Captured runs always simulate — the persistent cache neither
    /// serves nor stores them (the text trace is not persisted).
    pub trace_labels: BTreeSet<String>,
    /// Persistent content-addressed result store (`crate::cache`). The
    /// default is disabled, so library callers and tests never touch the
    /// filesystem; the campaign commands opt in via
    /// [`CacheConfig::standard`](crate::cache::CacheConfig::standard)
    /// unless `--no-cache` is given.
    pub cache: crate::cache::CacheConfig,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            jobs: default_jobs(),
            trace_labels: BTreeSet::new(),
            cache: crate::cache::CacheConfig::disabled(),
        }
    }
}

/// The host's available parallelism (≥ 1).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Campaign results, in expansion (spec) order.
#[derive(Debug)]
pub struct CampaignResults {
    /// Per-run outcomes, index-aligned with the input specs.
    pub outcomes: Vec<RunOutcome>,
    /// Runs answered by the persistent campaign cache.
    pub cache_hits: usize,
    /// Runs actually simulated (cache disabled, missed, or bypassed).
    pub simulated: usize,
}

impl CampaignResults {
    /// Panicked runs, attributed by label.
    pub fn failures(&self) -> Vec<(String, String)> {
        self.outcomes
            .iter()
            .filter_map(|o| match &o.outcome {
                Err(e) => Some((o.label.clone(), e.clone())),
                Ok(_) => None,
            })
            .collect()
    }

    /// Runs whose event counters disagreed with their `RunStats`.
    pub fn mismatched(&self) -> Vec<(String, Vec<Mismatch>)> {
        self.outcomes
            .iter()
            .filter_map(|o| match &o.outcome {
                Ok(rec) if !rec.mismatches.is_empty() => {
                    Some((o.label.clone(), rec.mismatches.clone()))
                }
                _ => None,
            })
            .collect()
    }

    /// Looks up one run's record by canonical label.
    pub fn get(&self, label: &str) -> Option<&RunRecord> {
        self.outcomes.iter().find(|o| o.label == label).and_then(|o| o.outcome.as_ref().ok())
    }

    /// A canonical per-run report: one line per run in spec order with
    /// the full `RunStats` debug rendering. Byte-identical across
    /// executions with different `--jobs`, which is exactly what the
    /// determinism tests compare.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            match &o.outcome {
                Ok(rec) => {
                    out.push_str(&format!("{}: {:?}\n", o.label, rec.result.stats));
                }
                Err(e) => out.push_str(&format!("{}: FAILED: {e}\n", o.label)),
            }
        }
        out
    }

    /// Renders a short campaign summary: run/failure counts plus the
    /// stable-order [`aggregate`] over successful runs.
    pub fn summary(&self) -> String {
        let stats: Vec<_> = self
            .outcomes
            .iter()
            .filter_map(|o| o.outcome.as_ref().ok().map(|rec| &rec.result.stats))
            .collect();
        let agg = aggregate(stats);
        let failures = self.failures();
        let mismatched = self.mismatched();
        format!(
            "runs           {}\n\
             failed         {}\n\
             mismatched     {}\n\
             gmean exec     {:.3} us\n\
             fwd+coloc      {:.1}% of {} edges\n\
             node deadlines {:.1}% met\n\
             DRAM traffic   {:.2} MB\n",
            self.outcomes.len(),
            failures.len(),
            mismatched.len(),
            agg.gmean_exec_us,
            agg.forward_percent(),
            agg.edges_total,
            agg.node_deadline_percent(),
            agg.traffic.dram_bytes() as f64 / 1e6,
        )
    }
}

/// Executes `specs` on a pool of `opts.jobs` worker threads.
///
/// Workers claim specs through an atomic cursor, build and run each
/// simulator entirely thread-locally (`SocSim` is `!Send`), and slot the
/// outcome by spec index. A panicking run is caught, attributed to its
/// spec's label, and does not take down the campaign. A pool of one runs
/// on the calling thread: a fresh worker would inherit the malloc arena
/// of whatever thread ran last, so how much memory each call faults in
/// again would depend on earlier, unrelated work.
///
/// With the persistent cache enabled, the directory's packs are opened
/// once up front and answer every cell they hold; after the pool joins,
/// every cell simulated here is written as one new pack.
pub fn execute(specs: Vec<RunSpec>, opts: &ExecOptions) -> CampaignResults {
    let n = specs.len();
    let jobs = opts.jobs.clamp(1, n.max(1));
    let cursor = AtomicUsize::new(0);
    let packs = crate::cache::Packs::open(&opts.cache);
    // Each slot holds the outcome and whether it came from the cache.
    let slots: Vec<Mutex<Option<(RunOutcome, bool)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let spec = &specs[i];
        let label = spec.label();
        let capture = opts.trace_labels.contains(&label);
        // Trace captures bypass the persistent cache entirely:
        // cached records carry no text trace, and storing one
        // would leak a layout the reader doesn't model.
        let cached = if capture { None } else { packs.lookup(spec, &label) };
        let hit = cached.is_some();
        let outcome = cached.map(Ok).unwrap_or_else(|| {
            catch_unwind(AssertUnwindSafe(|| spec.execute_instrumented(capture))).map_err(
                |payload| {
                    payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string())
                },
            )
        });
        *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
            Some((RunOutcome { label, spec: spec.clone(), outcome }, hit));
    };
    if jobs == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(worker);
            }
        });
    }
    // The cursor visits every index exactly once, so each slot is filled.
    #[allow(clippy::expect_used)]
    let (outcomes, hits): (Vec<RunOutcome>, Vec<bool>) = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every spec executed")
        })
        .unzip();
    // Panicked cells are never stored; `write_pack` drops trace captures.
    opts.cache.write_pack(
        outcomes
            .iter()
            .zip(&hits)
            .filter(|&(_, &hit)| !hit)
            .filter_map(|(o, _)| Some((o.label.as_str(), o.outcome.as_ref().ok()?)))
            .collect(),
    );
    let cache_hits = hits.iter().filter(|&&hit| hit).count();
    let simulated = n - cache_hits;
    if opts.cache.enabled {
        // Stderr only: stdout is the byte-identical campaign report.
        eprintln!(
            "[campaign-cache] {cache_hits} cached, {simulated} simulated ({})",
            opts.cache.dir.display()
        );
    }
    CampaignResults { outcomes, cache_hits, simulated }
}

/// [`execute`], then prints every panicked run and every reconciliation
/// mismatch to stderr once. The flag is `true` when no run panicked or
/// mismatched; a command exits 1 otherwise.
pub fn execute_reported(specs: Vec<RunSpec>, opts: &ExecOptions) -> (CampaignResults, bool) {
    let results = execute(specs, opts);
    let failures = results.failures();
    for (label, msg) in &failures {
        eprintln!("run {label} panicked: {msg}");
    }
    let mismatched = results.mismatched();
    for (label, mismatches) in &mismatched {
        eprintln!("run {label} failed event/stats reconciliation:");
        for m in mismatches {
            eprintln!("  {m}");
        }
    }
    let clean = failures.is_empty() && mismatched.is_empty();
    (results, clean)
}

/// A cache-backed execution context for artifact functions.
///
/// Artifact renderers ask the `Ctx` for each run they need; the campaign
/// results it borrows answer by label, and misses fall back to inline
/// execution ([`RunSpec::execute`]), so rendered output is identical
/// whether or not the grid covered the run — only wall-clock changes.
#[derive(Debug, Default)]
pub struct Ctx<'a> {
    cache: BTreeMap<&'a str, &'a SimResult>,
}

impl<'a> Ctx<'a> {
    /// A context with no cache: every lookup simulates inline.
    pub fn empty() -> Self {
        Ctx::default()
    }

    /// Builds a context borrowing engine results (failed runs are simply
    /// absent and will re-simulate inline on lookup).
    pub fn from_results(results: &'a CampaignResults) -> Self {
        let cache = results
            .outcomes
            .iter()
            .filter_map(|o| Some((o.label.as_str(), &o.outcome.as_ref().ok()?.result)))
            .collect();
        Ctx { cache }
    }

    /// The run's result: borrowed if prewarmed, otherwise simulated
    /// inline.
    pub fn run(&self, spec: &RunSpec) -> Cow<'a, SimResult> {
        match self.cache.get(spec.label().as_str()) {
            Some(&r) => Cow::Borrowed(r),
            None => Cow::Owned(spec.execute()),
        }
    }

    /// Number of cached runs.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when no runs are cached.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        let mixes = Contention::Low.mixes();
        CampaignSpec::new(
            "tiny",
            vec![PolicyKind::Fcfs, PolicyKind::Relief],
            vec![
                WorkloadSpec::mix(Contention::Low, &mixes[0]),
                WorkloadSpec::mix(Contention::Low, &mixes[1]),
            ],
        )
    }

    #[test]
    fn expansion_is_policy_major_and_stable() {
        let labels: Vec<String> = tiny_spec().expand().iter().map(RunSpec::label).collect();
        assert_eq!(
            labels,
            vec![
                "FCFS|low/C|mobile|r0",
                "FCFS|low/D|mobile|r0",
                "RELIEF|low/C|mobile|r0",
                "RELIEF|low/D|mobile|r0",
            ]
        );
    }

    #[test]
    fn sweep_tables_key_close_axis_values_apart() {
        use crate::{chaos::ChaosSpec, resilience::ResilienceSpec, service::ServiceSpec};
        // No outcomes: every row renders FAILED and nothing is simulated.
        let empty = CampaignResults { outcomes: Vec::new(), cache_hits: 0, simulated: 0 };
        let keys = |report: String, columns: usize| -> Vec<String> {
            let rows = report.lines().filter(|l| l.contains("FAILED"));
            rows.map(|l| l.split_whitespace().take(columns).collect::<Vec<_>>().join(" "))
                .collect()
        };
        let (rates, faults) = (vec![150.0, 150.4], vec![0.01, 0.01004]);
        let policies = vec![PolicyKind::Fcfs];
        let service =
            ServiceSpec { rates: rates.clone(), policies: policies.clone(), ..Default::default() };
        // Both of its tables, latency then goodput.
        assert_eq!(
            keys(service.render(&empty), 2),
            ["FCFS 150.0", "FCFS 150.4", "FCFS 150.0", "FCFS 150.4"]
        );
        let resilience =
            ResilienceSpec { rates: faults.clone(), policies: policies.clone(), ..Default::default() };
        assert_eq!(keys(resilience.render(&empty), 2), ["FCFS 0.01000", "FCFS 0.01004"]);
        let chaos = ChaosSpec {
            arrival_rates: rates,
            fault_rates: faults,
            policies,
            ..Default::default()
        };
        assert_eq!(
            keys(chaos.render(&empty), 3),
            ["FCFS 150.0 0.01000", "FCFS 150.0 0.01004", "FCFS 150.4 0.01000", "FCFS 150.4 0.01004"]
        );
        // Axes the base precision already tells apart keep it, and equal
        // values share a key.
        assert_eq!(axis_keys(&[50.0, 150.0, 400.0], 0), ["50", "150", "400"]);
        assert_eq!(axis_keys(&[0.0, 0.005, 0.02], 4), ["0.0000", "0.0050", "0.0200"]);
        assert_eq!(axis_keys(&[150.0, 150.0], 0), ["150", "150"]);
    }

    #[test]
    fn hash_is_stable_and_axis_sensitive() {
        let a = tiny_spec();
        assert_eq!(a.hash(), tiny_spec().hash());
        let mut b = tiny_spec();
        b.policies.push(PolicyKind::Lax);
        assert_ne!(a.hash(), b.hash());
        let mut c = tiny_spec();
        c.replicates = 3;
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn replicate_zero_keeps_base_seed_and_higher_replicates_diverge() {
        let specs = CampaignSpec { replicates: 3, ..tiny_spec() }.expand();
        let r0 = &specs[0];
        assert_eq!(r0.replicate, 0);
        assert_eq!(r0.seed_override(), None);
        assert_eq!(r0.config().seed, SocConfig::mobile(PolicyKind::Fcfs).seed);
        let (r1, r2) = (&specs[1], &specs[2]);
        let (s1, s2) = (r1.seed_override().unwrap(), r2.seed_override().unwrap());
        assert_ne!(s1, s2);
        assert_eq!(r1.config().seed, s1);
        // Derivation is a pure function of the label: recompute and match.
        let mut rng = SplitMix64::new(fnv1a(r1.label().as_bytes()));
        assert_eq!(s1, rng.next_u64());
    }

    #[test]
    fn continuous_workloads_carry_the_time_limit() {
        let mix = &Contention::Continuous.mixes()[0];
        let spec = RunSpec::new(
            PolicyKind::Relief,
            WorkloadSpec::mix(Contention::Continuous, mix),
            PlatformSpec::mobile(),
        );
        assert_eq!(spec.config().time_limit, Some(CONTINUOUS_TIME_LIMIT));
        assert_eq!(spec.label(), "RELIEF|continuous/CDG|mobile|r0");
    }
}
