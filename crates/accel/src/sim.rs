//! End-to-end SoC simulation (§III-C system architecture).
//!
//! [`SocSim`] glues the pieces together the way the paper's platform does:
//!
//! * applications arrive as DAGs; a **hardware manager** parses nodes into
//!   per-accelerator-type ready queues through the active scheduling policy
//!   and launches them via driver functions;
//! * each accelerator runs `input DMA → compute → (output handling)`
//!   non-preemptively, with a **double-buffered output scratchpad** so a
//!   producer can start its next task while consumers still read its
//!   previous output;
//! * **forwarding**: a consumer launched while its producer's output is
//!   still live in the producer's scratchpad pulls it scratchpad-to-
//!   scratchpad, bypassing DRAM; `ongoing_reads` counting enforces
//!   write-after-read ordering (Table IV);
//! * **colocation**: a consumer launched on its producer's accelerator
//!   right after it reads the data in place — no movement at all;
//! * **write-back rules** (§III-C.2): a finishing node's output is written
//!   to DRAM immediately unless every child is next in line for execution;
//!   deferred outputs are lazily written back if their partition is needed
//!   before all children have consumed them.

// The event handlers `expect` on scheduler invariants by design (a running
// task exists wherever a completion fires, tracked transfers resolve,
// etc.): these document the event-loop state machine, and violating one
// is a simulator bug that must stop the run, not a recoverable input.
#![allow(clippy::expect_used)]
use crate::config::SocConfig;
use crate::result::{PredictionStats, SimResult};
use crate::trace::{SpanCollector, Trace};
use crate::workload::AppSpec;
use relief_core::predict::{DataMovePredictor, DataMoveQuery};
use relief_core::{
    ComputeProfile, MemTimePredictor, Policy, ReadyQueues, TaskEntry, TaskKey,
};
use relief_dag::{Dag, DagTiming, DeadlineAssignment, NodeId};
use relief_fault::{FaultPlan, Outage, OutageSchedule};
use relief_mem::{Port, Progress, Route, TransferEngine, TransferId};
use relief_metrics::{AppStats, FaultStats, RunStats, TrafficStats};
use relief_service::Frontend;
use relief_sim::{
    AppId, Dur, EventQueue, Intern, InternId, KindId, SlotAlloc, SplitMix64, StallError,
    StallKind, Time, Timeline,
};
use relief_trace::{EventKind, InputSource, ResourceId, TaskRef, Tracer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Converts a task key into the trace layer's id type.
fn tref(key: TaskKey) -> TaskRef {
    TaskRef { instance: key.instance, node: key.node }
}

/// Where a completed node's output currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutLoc {
    /// Not produced yet.
    NotProduced,
    /// Live only in the producer's scratchpad partition.
    Spad { inst: usize, part: usize },
    /// Write-back to DRAM in flight; scratchpad copy still live.
    WbInFlight { inst: usize, part: usize },
    /// In DRAM, scratchpad copy still live (forwardable).
    SpadAndDram { inst: usize, part: usize },
    /// Only in DRAM (scratchpad copy overwritten).
    Dram,
    /// Fully consumed and discarded (intermediate results are dispensable).
    Dropped,
}

impl OutLoc {
    /// The live scratchpad location, if any.
    fn spad(self) -> Option<(usize, usize)> {
        match self {
            OutLoc::Spad { inst, part }
            | OutLoc::WbInFlight { inst, part }
            | OutLoc::SpadAndDram { inst, part } => Some((inst, part)),
            _ => None,
        }
    }

    /// True when a DRAM copy exists.
    fn in_dram(self) -> bool {
        matches!(self, OutLoc::SpadAndDram { .. } | OutLoc::Dram)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodePhase {
    Waiting,
    Ready,
    Launched,
    Done,
    /// Exhausted its fault-retry budget; never completes. Siblings still
    /// drain, but the owning DAG instance is marked aborted and never
    /// reports completion.
    Aborted,
}

/// Per-node runtime bookkeeping (the mutable part of Table III's node
/// struct).
#[derive(Debug, Clone)]
struct NodeRt {
    phase: NodePhase,
    completed_parents: usize,
    /// Children that have not yet consumed this node's output.
    pending_readers: usize,
    out: OutLoc,
    /// Predictions captured at ready-queue insertion (Table VIII).
    pred_compute: Dur,
    pred_bytes: u64,
    pred_bw: f64,
    actual_compute: Dur,
    actual_bytes: u64,
    /// 0-based compute attempt (only ever nonzero under fault injection).
    attempts: u32,
    /// True after a task fault until a retry completes successfully.
    faulted: bool,
}

impl NodeRt {
    fn new(children: usize) -> Self {
        NodeRt {
            phase: NodePhase::Waiting,
            completed_parents: 0,
            pending_readers: children,
            out: OutLoc::NotProduced,
            pred_compute: Dur::ZERO,
            pred_bytes: 0,
            pred_bw: 0.0,
            actual_compute: Dur::ZERO,
            actual_bytes: 0,
            attempts: 0,
            faulted: false,
        }
    }
}

/// One live DAG instance.
#[derive(Debug)]
struct DagInst {
    app_idx: usize,
    dag: Arc<Dag>,
    arrival: Time,
    /// Shared with the per-app cache in [`SocSim::app_deadlines`]:
    /// deadlines are a pure function of the (immutable) DAG and the DRAM
    /// bandwidth, so repeat arrivals reuse the first arrival's assignment.
    deadlines: Arc<DeadlineAssignment>,
    nodes: Vec<NodeRt>,
    remaining: usize,
    /// Faults (task + DMA + ECC) this instance has absorbed; a deadline
    /// miss on an instance with `faults > 0` is attributed to fault
    /// recovery.
    faults: u64,
    /// A node exhausted its retry budget; the instance never completes.
    aborted: bool,
    /// Cancelled by a request timeout: queued entries are dropped at
    /// launch, running compute drains without publishing, and the
    /// instance never completes.
    cancelled: bool,
    /// Stream request index this instance serves (hedges inherit the
    /// original's, so the hedge draw chain stays per-request).
    req_index: u64,
    /// 0-based delivery attempt: 0 for the original admission, +1 per
    /// hedged relaunch.
    attempt: u32,
    /// The serviced request's first arrival (== `arrival` except for
    /// hedges, whose end-to-end sojourn spans every attempt).
    first_arrival: Time,
    /// Monotonic admission serial — the *public* instance identity.
    /// Every [`TaskKey`], trace event, fault-plan draw, and statistic
    /// uses the serial, so recycling the storage slot underneath is
    /// unobservable: the behaviour corpus pins every simulated output
    /// while slots are reused.
    serial: u32,
    /// Generation of this slot's allocation (see [`SlotAlloc`]).
    gen: u32,
    /// Live references that index this slot: queued ready entries,
    /// the running task, tracked transfers, parked retries/re-fetches,
    /// and scheduled `Requeue` events each hold one pin. A slot is only
    /// recycled once every pin drains, so a pinned dense index can never
    /// alias a reused slot.
    pins: u32,
    /// Output-scratchpad partitions still holding this instance's data.
    /// Completed instances keep their last outputs resident until
    /// evicted, so retirement waits for the holds to drain too.
    holds: u32,
    /// Slot released back to the allocator; the struct contents are a
    /// husk awaiting overwrite by the next admission.
    retired: bool,
}

/// One output scratchpad partition (Table IV's `acc_state` entries).
#[derive(Debug, Clone, Copy, Default)]
struct Partition {
    holder: Option<TaskKey>,
    /// Storage slot of `holder`'s instance (the holder's hold on the
    /// partition keeps the slot alive, so the dense index stays valid).
    holder_slot: u32,
    ongoing_reads: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunPhase {
    /// Waiting for a free output partition.
    WaitPartition,
    /// Input DMA in progress; `pending` transfers outstanding.
    Inputs { pending: usize },
    /// Functional unit running.
    Compute,
}

#[derive(Debug)]
struct Running {
    key: TaskKey,
    /// Storage slot of `key`'s instance (pinned while the task runs).
    slot: u32,
    phase: RunPhase,
    /// Output partition claimed for this task (valid once past
    /// `WaitPartition`).
    out_part: usize,
    /// Partition read in place by a colocated edge, excluded from
    /// allocation.
    coloc_part: Option<usize>,
    /// Total input bytes (for functional-unit scratchpad accounting).
    input_bytes: u64,
    /// Input edges satisfied by forwarding / colocation (trace).
    fwd_inputs: u32,
    coloc_inputs: u32,
    /// When compute began (trace).
    compute_start: Time,
}

/// One accelerator instance.
#[derive(Debug)]
struct AccInst {
    running: Option<Running>,
    /// Previously executed node — the colocation tracker (§III-B).
    last_node: Option<TaskKey>,
    parts: Vec<Partition>,
    compute_busy: Dur,
    /// Offline (fault-injected outage): removed from the dispatch
    /// candidate set and denied as a forwarding source until restored.
    /// Non-preemptive — a task already running here completes.
    quarantined: bool,
}

/// What an in-flight transfer is for.
#[derive(Debug, Clone, Copy)]
enum Purpose {
    /// A child pulling one parent edge (from DRAM or a producer SPAD).
    /// `attempt` is the 0-based delivery attempt (fault retries re-read
    /// the checkpointed DRAM copy with `attempt + 1`). `dst` is the
    /// consumer's accelerator instance — tasks are non-preemptive, so the
    /// consumer cannot move while its inputs are in flight, and carrying
    /// the index here saves a linear scan of the instances on completion.
    InputEdge {
        child: TaskKey,
        parent: TaskKey,
        src_spad: Option<(usize, usize)>,
        attempt: u32,
        dst: usize,
        /// Storage slot of the owning instance (pinned by the transfer).
        slot: u32,
    },
    /// A child pulling its always-DRAM input bytes (`dst`, `slot` as
    /// above).
    DramInput { child: TaskKey, attempt: u32, dst: usize, slot: u32 },
    /// A producer writing its output back to DRAM. Write-backs are outside
    /// the fault domain: they are the checkpointing path retries rely on,
    /// so the model treats them as ECC-verified.
    WriteBack { node: TaskKey, slot: u32 },
}

impl Purpose {
    /// Storage slot of the instance this transfer pins.
    fn dag_slot(self) -> u32 {
        match self {
            Purpose::InputEdge { slot, .. }
            | Purpose::DramInput { slot, .. }
            | Purpose::WriteBack { slot, .. } => slot,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival(usize),
    Chunk(TransferId),
    ComputeDone(usize),
    Launch,
    /// A faulted task's backoff expired; re-insert it into its ready
    /// queue. Carries the instance's storage slot (the scheduled requeue
    /// pins it, so the dense index stays valid until the event fires).
    Requeue { slot: u32, key: TaskKey },
    /// Accelerator instance goes offline (fault-injected outage).
    UnitDown(usize),
    /// Accelerator instance comes back online.
    UnitUp(usize),
    /// An open-loop tenant's next request arrives (`relief-service`).
    StreamArrival(usize),
    /// An ECC-invalidated forwarded edge's backoff expired; re-fetch the
    /// parent's checkpointed DRAM copy into the waiting consumer. The
    /// payload indexes [`SocSim::refetches`] — parked out of line so `Ev`
    /// stays two words (the event queue is a sorted vec that memmoves on
    /// insert; a fat variant would tax every event, and re-fetches are
    /// rare).
    EccRefetch(u32),
    /// A streamed request's deadline-derived timeout expired. A timeout
    /// deliberately outlives resolved requests, so it carries both the
    /// storage slot and the admission serial: a mismatch (or a retired
    /// slot) means the slot was recycled and the event is stale.
    Timeout { slot: u32, serial: u32 },
}

/// Every queued event pays `Ev`'s size in the event queue's insert
/// memmoves, so fat payloads must be parked out of line (see
/// [`Ev::EccRefetch`]).
const _: () = assert!(std::mem::size_of::<Ev>() <= 16);

/// One parked ECC re-fetch request (see [`Ev::EccRefetch`]); slots are
/// reused through [`SocSim::free_refetches`].
#[derive(Debug, Clone, Copy)]
struct Refetch {
    child: TaskKey,
    parent: TaskKey,
    attempt: u32,
    dst: u32,
    /// Storage slot of `child`'s instance; the parked re-fetch inherits
    /// the cancelled transfer's pin on it.
    slot: u32,
}

/// The simulated SoC.
///
/// Build with a [`SocConfig`] and a workload, then call
/// [`run`](SocSim::run).
///
/// # Examples
///
/// ```
/// use relief_accel::{AppSpec, SocConfig, SocSim};
/// use relief_core::PolicyKind;
/// use relief_dag::{AccTypeId, DagBuilder, NodeSpec};
/// use relief_sim::Dur;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), relief_dag::DagError> {
/// let mut b = DagBuilder::new("pair", Dur::from_ms(1));
/// let p = b.add_node(NodeSpec::new(AccTypeId(0), Dur::from_us(10)).with_output_bytes(4096));
/// let c = b.add_node(NodeSpec::new(AccTypeId(1), Dur::from_us(10)).with_output_bytes(4096));
/// b.add_edge(p, c)?;
/// let dag = Arc::new(b.build()?);
///
/// let cfg = SocConfig::generic(vec![1, 1], PolicyKind::Relief);
/// let result = SocSim::new(cfg, vec![AppSpec::once("X", dag)]).run();
/// assert_eq!(result.stats.apps["X"].dags_completed, 1);
/// assert_eq!(result.stats.apps["X"].forwards, 1); // p -> c forwarded
/// # Ok(())
/// # }
/// ```
pub struct SocSim {
    cfg: SocConfig,
    apps: Vec<AppSpec>,
    policy: Box<dyn Policy>,
    queues: ReadyQueues,
    engine: TransferEngine,
    insts: Vec<AccInst>,
    /// Instance ids per accelerator type id.
    type_insts: Vec<Vec<usize>>,
    /// Live DAG instances, indexed by *storage slot* (not by the public
    /// serial). Retired instances' slots are reused by later admissions,
    /// so the vector plateaus at the in-flight high-water mark instead of
    /// growing with every arrival.
    dags: Vec<DagInst>,
    /// Slot allocator for `dags`; its generation counters invalidate any
    /// reference that outlives its instance (see [`Ev::Timeout`]).
    dag_slots: SlotAlloc,
    /// Next admission serial (the public instance id; see
    /// [`DagInst::serial`]).
    next_dag_serial: u32,
    /// Per-app free lists of retired `NodeRt` vectors: a steady-state
    /// admission reuses a same-shape vector in place of allocating.
    node_pools: Vec<Vec<Vec<NodeRt>>>,
    /// Instances admitted but not yet completed, aborted, or cancelled —
    /// the O(1) replacement for scanning `dags` when deciding whether the
    /// run still has live work.
    active_work: usize,
    /// Data-movement prediction errors folded out of retired instances,
    /// tagged with the admission serial so
    /// [`finalize`](Self::finalize) can restore the pre-recycling
    /// admission-order sample sequence exactly.
    retired_dm: Vec<(u32, f64)>,
    events: EventQueue<Ev>,
    now: Time,
    seq: u64,
    /// In-flight transfer purposes, indexed by the engine's dense slot id
    /// ([`TransferId::slot`]): a bounds check instead of a hash probe on
    /// every chunk event, with slot reuse keeping the column at the
    /// high-water mark of concurrent transfers.
    transfers: Vec<Option<Purpose>>,
    /// In-flight transfer ids by slot, so the chaos paths (ECC
    /// invalidation, timeout cancellation) can address transfers the
    /// purpose column tracks.
    transfer_ids: Vec<Option<TransferId>>,
    /// Per-slot count of delivered chunks, the ECC verdict's chunk
    /// identity; reset whenever a slot is re-tracked.
    chunk_seq: Vec<u32>,
    manager: Timeline,
    mem_pred: MemTimePredictor,
    profile: ComputeProfile,
    rng: SplitMix64,
    // --- fault injection (`relief-fault`) ---
    /// Stateless fault decisions; a pure function of `cfg.fault`, so fault
    /// schedules are identical at any campaign parallelism.
    fault: FaultPlan,
    fault_stats: FaultStats,
    /// Per-instance outage streams (empty iterators when outages are off).
    outage_iters: Vec<OutageSchedule>,
    /// The armed outage window per instance, if any.
    next_outage: Vec<Option<Outage>>,
    /// Arrival events still in the queue (initial + repeat re-arms); with
    /// live DAG work, the signal that outage re-arming may continue
    /// without keeping a drained simulation alive forever.
    pending_arrivals: usize,
    /// The open-loop request frontend (`relief-service`): admission,
    /// breakers, timeout and hedge decisions, service statistics. `None`
    /// in a closed-loop run. Tenant `t` streams app spec `t`.
    frontend: Option<Frontend>,
    /// Whether anything in this run can cancel an in-flight transfer
    /// (ECC invalidation or request timeouts); gates the per-chunk
    /// liveness check off the fault-free hot path.
    cancels_on: bool,
    /// Parked [`Ev::EccRefetch`] payloads, indexed by the event's `u32`.
    refetches: Vec<Refetch>,
    /// Free slots in `refetches`.
    free_refetches: Vec<u32>,
    // --- per-app caches (pure functions of the immutable app specs) ---
    /// Deadline assignment computed on each app's first arrival.
    app_deadlines: Vec<Option<Arc<DeadlineAssignment>>>,
    /// Whether the app's kernels are already in the compute profile.
    app_profiled: Vec<bool>,
    /// App spec index → interned symbol id. The `per_app_*` accumulators
    /// are dense vectors indexed by [`AppId`], converted to the public
    /// string-keyed maps once in [`finalize`](Self::finalize).
    app_ids: Vec<AppId>,
    /// App spec index → its symbol, shared by the app's `DagArrived` and
    /// `ComputeEnd` trace records.
    app_symbols: Vec<Arc<str>>,
    /// Per app spec, the node labels' interned [`KindId`]s in node-id
    /// order (filled on the app's first arrival, alongside profiling), so
    /// [`make_entry`](Self::make_entry) predicts compute time without
    /// hashing the label string.
    app_kind_ids: Vec<Vec<KindId>>,
    // --- hot-path scratch buffers (reused across events; emptied after
    // each use — see DESIGN.md "Hot-path architecture") ---
    batch_scratch: Vec<TaskEntry>,
    ready_scratch: Vec<NodeId>,
    idle_scratch: Vec<usize>,
    dm_bytes_scratch: Vec<u64>,
    /// Per-accelerator-type child counter for the all-children-forward
    /// prediction; zeroed after every use.
    child_type_counts: Vec<usize>,
    // --- statistics ---
    app_stats: Vec<AppStats>,
    per_app_mem_time: Vec<Dur>,
    per_app_compute_time: Vec<Dur>,
    colocated_bytes: u64,
    spad_access_bytes: u64,
    all_dram_baseline_bytes: u64,
    sched_ops: u64,
    sched_time: Dur,
    prediction: PredictionStats,
    /// Fan-out handle shared (as clones) by every instrumented component.
    tracer: Tracer,
    /// Internal sink distilling `ComputeEnd` events into the ASCII
    /// schedule trace; attached only when `cfg.record_trace` is set.
    span_sink: Option<Rc<RefCell<SpanCollector>>>,
    last_completion: Time,
    truncated: bool,
}

impl SocSim {
    /// Creates a simulation of `apps` on the platform described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or a DAG references an accelerator type
    /// the platform does not provide (out of range, or zero instances).
    pub fn new(cfg: SocConfig, apps: Vec<AppSpec>) -> Self {
        cfg.validate();
        let num_types = cfg.acc_instances.len();
        for app in &apps {
            for spec in app.dag.nodes() {
                assert!(
                    cfg.acc_instances.get(spec.acc.0 as usize).is_some_and(|&n| n > 0),
                    "dag '{}' uses unknown accelerator type {}: the platform has no instance",
                    app.dag.name(),
                    spec.acc
                );
            }
        }
        let total_insts = cfg.total_instances();
        let mut type_insts = vec![Vec::new(); num_types];
        let mut insts = Vec::with_capacity(total_insts);
        for (t, &count) in cfg.acc_instances.iter().enumerate() {
            for _ in 0..count {
                type_insts[t].push(insts.len());
                insts.push(AccInst {
                    running: None,
                    last_node: None,
                    parts: vec![Partition::default(); cfg.output_partitions],
                    compute_busy: Dur::ZERO,
                    quarantined: false,
                });
            }
        }
        let mut events = EventQueue::new();
        // Seed the event queue with releases. Closed loop: every app's
        // fixed arrival. Open loop (`relief-service`): each tenant's first
        // generated arrival inside the duration horizon; subsequent
        // arrivals are armed one at a time as their predecessors fire.
        let frontend = Frontend::new(&cfg.stream);
        let mut pending_arrivals = 0usize;
        if let Some(fe) = &frontend {
            assert_eq!(
                cfg.stream.tenants.len(),
                apps.len(),
                "stream mode needs exactly one tenant per app spec"
            );
            assert!(
                apps.iter().all(|a| !a.repeat),
                "stream mode replaces closed-loop repetition; use arrival rates instead"
            );
            for t in 0..apps.len() {
                if let Some(at) = fe.arrival_at(t, 0, Time::ZERO) {
                    events.push(at, Ev::StreamArrival(t));
                    pending_arrivals += 1;
                }
            }
        } else {
            for (i, app) in apps.iter().enumerate() {
                events.push(app.arrival, Ev::Arrival(i));
                pending_arrivals += 1;
            }
        }
        let mut app_syms: Intern<AppId> = Intern::new();
        let app_ids: Vec<AppId> = apps.iter().map(|a| app_syms.intern(&a.symbol)).collect();
        // Arm the first deterministic outage window of every instance.
        let fault = FaultPlan::new(cfg.fault.clone());
        let fault_on = fault.enabled();
        let mut outage_iters: Vec<OutageSchedule> =
            (0..total_insts).map(|i| fault.outages(i as u32)).collect();
        let mut next_outage: Vec<Option<Outage>> = vec![None; total_insts];
        for (i, it) in outage_iters.iter_mut().enumerate() {
            if let Some(w) = it.next() {
                next_outage[i] = Some(w);
                events.push(Time::from_ps(w.down_ps), Ev::UnitDown(i));
            }
        }
        let mem_pred = MemTimePredictor {
            bandwidth: cfg.bw_predictor.build(cfg.mem.dram_bandwidth),
            data_movement: cfg.dm_predictor,
            icn_bandwidth: cfg.mem.interconnect_bandwidth,
        };
        let app_stats = apps
            .iter()
            .map(|a| AppStats {
                name: a.symbol.clone(),
                deadline: a.dag.relative_deadline(),
                ..AppStats::default()
            })
            .collect();
        let n_apps = apps.len();
        let mut sim = SocSim {
            policy: cfg.policy.build(),
            queues: ReadyQueues::new(num_types),
            engine: TransferEngine::new(cfg.mem, total_insts),
            insts,
            type_insts,
            dags: Vec::new(),
            dag_slots: SlotAlloc::new(),
            next_dag_serial: 0,
            node_pools: vec![Vec::new(); n_apps],
            active_work: 0,
            retired_dm: Vec::new(),
            events,
            now: Time::ZERO,
            seq: 0,
            transfers: Vec::new(),
            transfer_ids: Vec::new(),
            chunk_seq: Vec::new(),
            manager: Timeline::new(),
            mem_pred,
            profile: ComputeProfile::new(),
            rng: SplitMix64::new(cfg.seed),
            fault,
            fault_stats: FaultStats::default(),
            outage_iters,
            next_outage,
            pending_arrivals,
            cancels_on: fault_on || frontend.as_ref().is_some_and(Frontend::self_heal_on),
            frontend,
            refetches: Vec::new(),
            free_refetches: Vec::new(),
            app_deadlines: vec![None; n_apps],
            app_profiled: vec![false; n_apps],
            app_kind_ids: vec![Vec::new(); n_apps],
            batch_scratch: Vec::new(),
            ready_scratch: Vec::new(),
            idle_scratch: Vec::new(),
            dm_bytes_scratch: Vec::new(),
            child_type_counts: vec![0; num_types],
            app_stats,
            per_app_mem_time: vec![Dur::ZERO; app_syms.len()],
            per_app_compute_time: vec![Dur::ZERO; app_syms.len()],
            app_ids,
            app_symbols: apps.iter().map(|a| Arc::from(a.symbol.as_str())).collect(),
            colocated_bytes: 0,
            spad_access_bytes: 0,
            all_dram_baseline_bytes: 0,
            sched_ops: 0,
            sched_time: Dur::ZERO,
            prediction: PredictionStats::default(),
            tracer: Tracer::off(),
            span_sink: None,
            last_completion: Time::ZERO,
            truncated: false,
            cfg,
            apps,
        };
        if sim.cfg.fault.dram_mttf_ps > 0 {
            // Deterministic DRAM-channel blackout windows: installed before
            // any transfer begins, so the engine's gate sees the schedule
            // from picosecond zero.
            let windows = sim.fault.channel_outages().map(|w| (w.down_ps, w.up_ps));
            sim.engine.set_dram_outages(Box::new(windows));
        }
        if sim.cfg.record_trace {
            let sink = Rc::new(RefCell::new(SpanCollector::new()));
            sim.tracer.attach(sink.clone());
            sim.span_sink = Some(sink);
        }
        sim.wire_tracer();
        sim
    }

    /// Attaches every sink of `tracer` to the simulation: the event queue,
    /// the transfer engine, the scheduling policy, the manager timeline,
    /// and the task-lifecycle instrumentation all report through it.
    /// Composes with `record_trace` (the internal span collector stays
    /// attached) and may be called with several tracers to fan out.
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer.merge(tracer);
        self.wire_tracer();
        self
    }

    /// Replaces the policy object while keeping `cfg.policy` (and thus the
    /// reported policy name and modeled insert cost) untouched. This is the
    /// schedule-replay hook: a [`relief_core::ScheduleReplay`] standing in
    /// for the recorded policy reproduces its run bit-exactly because every
    /// cost the simulator models still comes from the recorded
    /// configuration.
    pub fn with_policy_object(mut self, policy: Box<dyn Policy>) -> Self {
        self.policy = policy;
        self.wire_tracer();
        self
    }

    /// Re-distributes clones of the current tracer to every instrumented
    /// component. Must be called whenever the sink set changes.
    fn wire_tracer(&mut self) {
        self.events.set_tracer(self.tracer.clone());
        self.engine.set_tracer(self.tracer.clone());
        self.policy.set_tracer(self.tracer.clone());
        self.manager.set_tracer(self.tracer.clone(), ResourceId::Manager);
        if let Some(fe) = &mut self.frontend {
            fe.set_tracer(self.tracer.clone());
        }
    }

    /// Runs the simulation to completion (all work drained, or the
    /// configured time limit reached) and returns the collected results.
    ///
    /// The loop drains same-timestamp event *cohorts* into a reused
    /// scratch vector and dispatches each in one pass, checking the time
    /// limit (and updating `now`) once per cohort; events a handler pushes
    /// at the current instant get later sequence numbers and form the
    /// *next* cohort at the same time.
    pub fn run(self) -> SimResult {
        match self.try_run() {
            Ok(result) => result,
            Err(stall) => panic!("{stall}"),
        }
    }

    /// Like [`run`](Self::run), but converts a detected stall — the event
    /// queue draining with live work left, or the watchdog's no-progress
    /// window elapsing without simulated time advancing — into a typed
    /// [`StallError`] carrying a diagnostic dump, instead of panicking.
    /// Campaign drivers use this to fail one cell loudly rather than
    /// wedging the whole run.
    ///
    /// # Errors
    ///
    /// Returns [`StallError`] when the simulation deadlocks or livelocks
    /// (both are model bugs, never a legitimate outcome of valid input).
    pub fn try_run(mut self) -> Result<SimResult, StallError> {
        let window = self.cfg.watchdog_window;
        let mut last_time = Time::ZERO;
        let mut last_advance = 0u64;
        let mut cohort: Vec<Ev> = Vec::new();
        while let Some(at) = self.events.pop_cohort(&mut cohort) {
            if let Some(limit) = self.cfg.time_limit {
                if at > limit {
                    // A truncated run counts exactly one event past the
                    // limit as dispatched (the first one popped there);
                    // the continuous-contention corpus cells pin this.
                    self.events.mark_dispatched(at);
                    self.truncated = true;
                    break;
                }
            }
            self.now = at;
            if at > last_time {
                last_time = at;
                last_advance = self.events.dispatched();
            }
            for &ev in &cohort {
                self.events.mark_dispatched(at);
                self.dispatch(ev);
            }
            if window > 0 && self.events.dispatched() - last_advance > window {
                return Err(self.stall(StallKind::NoProgressWindow));
            }
        }
        self.finish()
    }

    /// Post-drain gate: a non-truncated run whose queue emptied while a
    /// live (neither aborted nor cancelled) instance still has work is
    /// deadlocked — a dependency or bookkeeping bug, not a result.
    fn finish(self) -> Result<SimResult, StallError> {
        if self.cfg.watchdog_window > 0 && !self.truncated && self.active_work > 0 {
            return Err(self.stall(StallKind::DrainedWithWorkLeft));
        }
        Ok(self.finalize())
    }

    /// Most stuck instances a stall dump itemises; past the cap the dump
    /// closes with an aggregate count so a heavily loaded stream's watchdog
    /// error stays readable (and bounded) instead of listing thousands of
    /// in-flight requests.
    const STALL_DUMP_MAX_INSTANCES: usize = 16;

    /// Assembles the stall diagnostic: queue depths, per-unit occupancy,
    /// in-flight transfers, the quarantine set, and the stuck instances.
    fn stall(&self, kind: StallKind) -> StallError {
        use std::fmt::Write as _;
        let mut dump = String::new();
        let _ = writeln!(dump, "ready-queue depth: {}", self.queues.len());
        let _ = writeln!(dump, "pending arrivals: {}", self.pending_arrivals);
        let in_flight = self.transfers.iter().filter(|t| t.is_some()).count();
        let _ = writeln!(dump, "in-flight transfers: {in_flight}");
        let quarantined: Vec<usize> =
            (0..self.insts.len()).filter(|&i| self.insts[i].quarantined).collect();
        let _ = writeln!(dump, "quarantined units: {quarantined:?}");
        for (i, inst) in self.insts.iter().enumerate() {
            if let Some(r) = &inst.running {
                let _ = writeln!(
                    dump,
                    "unit {i}: running {}:{} in {:?}",
                    r.key.instance, r.key.node, r.phase
                );
            }
        }
        let mut stuck = 0usize;
        for d in &self.dags {
            if d.retired || d.remaining == 0 || d.aborted || d.cancelled {
                continue;
            }
            stuck += 1;
            if stuck <= Self::STALL_DUMP_MAX_INSTANCES {
                let _ = writeln!(
                    dump,
                    "instance {} ({}): {} of {} nodes left",
                    d.serial,
                    self.apps[d.app_idx].symbol,
                    d.remaining,
                    d.dag.len()
                );
            }
        }
        if stuck > Self::STALL_DUMP_MAX_INSTANCES {
            let _ =
                writeln!(dump, "… and {} more stuck instances", stuck - Self::STALL_DUMP_MAX_INSTANCES);
        }
        StallError {
            kind,
            at_ps: self.now.as_ps(),
            events_dispatched: self.events.dispatched(),
            dump,
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival(app_idx) => self.on_arrival(app_idx),
            Ev::Chunk(id) => self.on_chunk(id),
            Ev::ComputeDone(inst) => self.on_compute_done(inst),
            Ev::Launch => self.try_launch_all(),
            Ev::Requeue { slot, key } => self.on_requeue(slot, key),
            Ev::UnitDown(inst) => self.on_unit_down(inst),
            Ev::UnitUp(inst) => self.on_unit_up(inst),
            Ev::StreamArrival(tenant) => self.on_stream_arrival(tenant),
            Ev::EccRefetch(idx) => self.on_ecc_refetch(idx),
            Ev::Timeout { slot, serial } => self.on_timeout(slot, serial),
        }
    }

    // ------------------------------------------------------------------
    // Arrival
    // ------------------------------------------------------------------

    fn on_arrival(&mut self, app_idx: usize) {
        // Every queued Arrival incremented the count; a miscount is a
        // bookkeeping bug that would silently mis-drive the outage
        // re-arming and drain decisions, so fail loudly instead of
        // saturating over it.
        debug_assert!(self.pending_arrivals > 0, "arrival fired without a pending count");
        self.pending_arrivals =
            self.pending_arrivals.checked_sub(1).expect("arrival fired without a pending count");
        self.admit_dag(app_idx);
    }

    /// An open-loop tenant's request arrived: the frontend accounts it and
    /// decides admission, the tenant's next arrival is armed (if it lands
    /// inside the duration horizon), and an admitted request releases a
    /// DAG instance exactly like a closed-loop arrival. A shed request
    /// leaves no trace in the simulation proper.
    fn on_stream_arrival(&mut self, tenant: usize) {
        debug_assert!(self.pending_arrivals > 0, "arrival fired without a pending count");
        self.pending_arrivals =
            self.pending_arrivals.checked_sub(1).expect("arrival fired without a pending count");
        let now = self.now;
        let arrival = self.frontend().on_arrival(now, tenant);
        // Armed before `admit_dag` pushes its launch: push order sets the
        // event sequence numbers.
        if let Some(at) = arrival.next_at {
            self.pending_arrivals += 1;
            self.events.push(at, Ev::StreamArrival(tenant));
        }
        if arrival.admit {
            let (instance, slot) = self.admit_dag(tenant);
            self.arm_request(instance, slot, arrival.index, 0, now);
            self.frontend().admitted(now, tenant, arrival.index, instance);
        }
    }

    /// The request frontend. Stream arrivals, timeouts and requests exist
    /// only when there is one.
    fn frontend(&mut self) -> &mut Frontend {
        self.frontend.as_mut().expect("stream events need a request frontend")
    }

    /// Releases one instance of app `app_idx` at the current time: the
    /// shared tail of closed-loop arrivals and admitted open-loop
    /// requests. Returns the new instance's `(serial, slot)` pair: the
    /// serial is the public identity, the slot its (possibly recycled)
    /// storage index.
    fn admit_dag(&mut self, app_idx: usize) -> (u32, u32) {
        let dag = Arc::clone(&self.apps[app_idx].dag);
        // Static analysis at arrival: predicted runtimes under the Max
        // predictors drive critical-path deadlines (§III-B). The assignment
        // is a pure function of the immutable DAG and the DRAM bandwidth,
        // so repeat arrivals of the same app reuse the cached result.
        let deadlines = self.app_deadlines[app_idx].clone().unwrap_or_else(|| {
            let dram_bw = self.cfg.mem.dram_bandwidth;
            let timing = DagTiming::compute(&dag, |n| {
                let spec = dag.node(n);
                let bytes = dag.input_bytes(n) + spec.output_bytes;
                spec.compute + Dur::for_bytes(bytes, dram_bw)
            });
            let d = Arc::new(DeadlineAssignment::from_timing(&dag, &timing));
            self.app_deadlines[app_idx] = Some(Arc::clone(&d));
            d
        });
        // Boot-time profiling of compute times (§III-B): one observation
        // per (accelerator, operation) pair, so only an app's first arrival
        // can add anything.
        if !self.app_profiled[app_idx] {
            for spec in dag.nodes() {
                if self.profile.predict(spec.acc, &spec.label).is_none() {
                    self.profile.observe(spec.acc, &spec.label, spec.compute);
                }
            }
            // Intern each node's label once; `make_entry` predicts by
            // these dense ids on every subsequent ready-queue insert.
            let kinds = dag
                .nodes()
                .iter()
                .map(|spec| self.profile.intern_kind(&spec.label))
                .collect::<Vec<_>>();
            self.app_kind_ids[app_idx] = kinds;
            self.app_profiled[app_idx] = true;
        }
        // Steady-state zero-allocation path: a retired instance of the
        // same app donated its `NodeRt` vector (same shape — one slot per
        // node), so the reset happens in place.
        let nodes = match self.node_pools[app_idx].pop() {
            Some(mut pooled) => {
                debug_assert_eq!(pooled.len(), dag.len());
                for (rt, n) in pooled.iter_mut().zip(dag.node_ids()) {
                    *rt = NodeRt::new(dag.children(n).len());
                }
                pooled
            }
            None => dag.node_ids().map(|n| NodeRt::new(dag.children(n).len())).collect(),
        };
        let remaining = dag.len();
        let instance = self.next_dag_serial;
        self.next_dag_serial += 1;
        let (slot, gen) = self.dag_slots.alloc();
        let inst = DagInst {
            app_idx,
            dag,
            arrival: self.now,
            deadlines,
            nodes,
            remaining,
            faults: 0,
            aborted: false,
            cancelled: false,
            req_index: 0,
            attempt: 0,
            first_arrival: self.now,
            serial: instance,
            gen,
            pins: 0,
            holds: 0,
            retired: false,
        };
        if slot as usize == self.dags.len() {
            self.dags.push(inst);
        } else {
            self.dags[slot as usize] = inst;
        }
        self.active_work += 1;
        self.tracer.emit(self.now.as_ps(), || EventKind::DagArrived {
            instance,
            app: Arc::clone(&self.app_symbols[app_idx]),
            nodes: remaining as u32,
        });

        let dag = Arc::clone(&self.dags[slot as usize].dag);
        let mut batch = self.take_batch_buf();
        for n in dag.roots() {
            self.dags[slot as usize].nodes[n.index()].phase = NodePhase::Ready;
            batch.push(self.make_entry(TaskKey::new(instance, n.0), slot, false, None));
        }
        self.enqueue_batch(batch);
        (instance, slot)
    }

    // ------------------------------------------------------------------
    // Instance recycling
    // ------------------------------------------------------------------

    /// Releases one pin (queued entry, running task, tracked transfer,
    /// parked retry) on the instance in `slot`, retiring it if that was
    /// the last live reference.
    fn unpin_dag(&mut self, slot: u32) {
        let d = &mut self.dags[slot as usize];
        debug_assert!(d.pins > 0, "pin underflow on slot {slot}");
        d.pins -= 1;
        self.maybe_retire(slot);
    }

    /// Retires the instance in `slot` if it is settled (completed,
    /// aborted, or cancelled) and nothing references it anymore: no pin
    /// (queued entry, running task, transfer, parked retry or requeue)
    /// and no scratchpad hold on its outputs.
    fn maybe_retire(&mut self, slot: u32) {
        let d = &self.dags[slot as usize];
        if d.retired || d.pins > 0 || d.holds > 0 {
            return;
        }
        if d.remaining == 0 || d.aborted || d.cancelled {
            self.retire(slot);
        }
    }

    /// Folds the instance's remaining per-node statistics into the
    /// retired accumulators, returns its `NodeRt` storage to the app's
    /// pool, and releases the slot for reuse.
    fn retire(&mut self, slot: u32) {
        let s = slot as usize;
        debug_assert_eq!(
            self.dags[s].remaining,
            self.dags[s].nodes.iter().filter(|n| n.phase != NodePhase::Done).count(),
            "remaining counter disagrees with node phases at retirement"
        );
        let nodes = std::mem::take(&mut self.dags[s].nodes);
        let serial = self.dags[s].serial;
        // Data-movement prediction errors (Table VIII) fold out here so
        // `finalize` stays O(live set); the serial tag restores admission
        // order there. Bounded-memory mode drops the per-node samples entirely.
        if !self.cfg.bounded_memory {
            for rt in &nodes {
                if rt.phase == NodePhase::Done && rt.actual_bytes > 0 && rt.pred_bytes > 0 {
                    let err =
                        (rt.actual_bytes as f64 - rt.pred_bytes as f64) / rt.pred_bytes as f64;
                    self.retired_dm.push((serial, err));
                }
            }
        }
        let d = &mut self.dags[s];
        d.retired = true;
        let gen = d.gen;
        let app_idx = d.app_idx;
        self.node_pools[app_idx].push(nodes);
        self.dag_slots.release(slot, gen);
    }

    // ------------------------------------------------------------------
    // Request self-healing (relief-service)
    // ------------------------------------------------------------------

    /// Stamps a freshly admitted streamed instance with its request
    /// identity and arms its deadline-derived timeout when the
    /// self-healing timeouts are on.
    fn arm_request(&mut self, instance: u32, slot: u32, index: u64, attempt: u32, first_arrival: Time) {
        let d = &mut self.dags[slot as usize];
        d.req_index = index;
        d.attempt = attempt;
        d.first_arrival = first_arrival;
        let rel = d.dag.relative_deadline();
        if let Some(timeout) = self.frontend.as_ref().and_then(|fe| fe.timeout(rel)) {
            self.events.push(self.now + timeout, Ev::Timeout { slot, serial: instance });
        }
    }

    /// A streamed request's timeout expired. If the instance is still in
    /// flight it is past the point of meeting its budget: cancel it,
    /// reclaim queue slots and units, and relaunch the request as a fresh
    /// instance when the frontend decides to hedge it.
    fn on_timeout(&mut self, slot: u32, serial: u32) {
        let (tenant, req_index, attempt, first_arrival) = {
            let d = &self.dags[slot as usize];
            if d.retired || d.serial != serial {
                return; // the slot was recycled; the request resolved long ago
            }
            if d.remaining == 0 || d.aborted || d.cancelled {
                return; // resolved before the timeout fired
            }
            (d.app_idx, d.req_index, d.attempt, d.first_arrival)
        };
        let cancelled = self.cancel_instance(slot);
        let now = self.now;
        if self.frontend().on_timeout(now, tenant, serial, req_index, attempt, cancelled) {
            let (hedge, hedge_slot) = self.admit_dag(tenant);
            self.arm_request(hedge, hedge_slot, req_index, attempt + 1, first_arrival);
            self.frontend().hedged(now, tenant, hedge, attempt + 1);
        }
        // Freed queue slots, partitions, and units may unblock live work.
        self.retry_stalled();
        self.try_launch_all();
    }

    /// Tombstones a DAG instance: cancels its in-flight input transfers,
    /// releases accelerators holding its unstarted work, and marks it so
    /// queued entries are dropped at launch and running compute drains
    /// without publishing. Returns how many transfers it cancelled.
    fn cancel_instance(&mut self, slot: u32) -> u64 {
        self.dags[slot as usize].cancelled = true;
        // The caller checked the instance was live (neither completed nor
        // aborted nor already cancelled), so it was counting here.
        self.active_work -= 1;
        // Write-backs are left to finish: they are the checkpointing path,
        // and an abandoned `WbInFlight` would wedge its partition forever.
        // Pin releases below defer retirement to the end of the function:
        // the instance must stay resident while this loop still reads it.
        let mut cancelled = 0;
        for t in 0..self.transfers.len() {
            let Some(purpose) = self.transfers[t] else { continue };
            let (src_spad, pslot) = match purpose {
                Purpose::InputEdge { src_spad, slot: pslot, .. } => (src_spad, pslot),
                Purpose::DramInput { slot: pslot, .. } => (None, pslot),
                Purpose::WriteBack { .. } => continue,
            };
            if pslot != slot {
                continue;
            }
            let id = self.transfer_ids[t].expect("tracked transfer has an id");
            self.engine.cancel(id, self.now);
            cancelled += 1;
            self.transfers[t] = None;
            self.dags[slot as usize].pins -= 1;
            if let Some((si, sp)) = src_spad {
                let p = &mut self.insts[si].parts[sp];
                p.ongoing_reads = p.ongoing_reads.saturating_sub(1);
            }
        }
        // Release units whose resident task belongs to the instance and
        // has not started computing (compute is non-preemptive; it drains
        // and is discarded at completion).
        for i in 0..self.insts.len() {
            let held = self.insts[i]
                .running
                .as_ref()
                .is_some_and(|r| r.slot == slot && r.phase != RunPhase::Compute);
            if !held {
                continue;
            }
            let r = self.insts[i].running.take().expect("checked above");
            self.dags[slot as usize].pins -= 1;
            if r.out_part != usize::MAX {
                let part = &mut self.insts[i].parts[r.out_part];
                debug_assert_eq!(part.holder, Some(r.key));
                part.holder = None;
                self.dags[slot as usize].holds -= 1;
            }
        }
        self.maybe_retire(slot);
        cancelled
    }

    // ------------------------------------------------------------------
    // Entry construction & enqueueing
    // ------------------------------------------------------------------

    /// Builds a ready-queue entry: predicted runtime (profiled compute +
    /// predicted memory time), deadline resolved for the active policy's
    /// scheme, forwarding-candidate flag for RELIEF. The entry pins the
    /// instance (carried in [`TaskEntry::slot`]) until it is popped.
    fn make_entry(
        &mut self,
        key: TaskKey,
        slot: u32,
        fwd_candidate: bool,
        coloc_edge: Option<usize>,
    ) -> TaskEntry {
        let nid = NodeId(key.node);
        let d = &self.dags[slot as usize];
        let spec = d.dag.node(nid);
        let acc = spec.acc;
        let kind = self.app_kind_ids[d.app_idx][nid.index()];
        let pred_compute = self.profile.predict_id(acc, kind).unwrap_or(spec.compute);
        let query = self.dm_query(slot, key.node, coloc_edge);
        let pred_mem = self.mem_pred.predict(&query);
        let runtime = pred_compute + pred_mem;

        let (rel, arrival) = {
            let d = &self.dags[slot as usize];
            let rel = match self.policy.deadline_scheme() {
                relief_core::DeadlineScheme::Dag => d.deadlines.dag,
                relief_core::DeadlineScheme::NodeCriticalPath => d.deadlines.node_deadline(nid),
                relief_core::DeadlineScheme::HetSchedSdr => d.deadlines.hetsched_deadline(nid),
            };
            (rel, d.arrival)
        };
        let deadline = arrival + rel;

        let pred_bytes = self.cfg.dm_predictor.estimate(&query).total();
        let pred_bw = self.mem_pred.bandwidth.predict();
        self.restore_dm_bytes_buf(query);
        let rt = &mut self.dags[slot as usize].nodes[nid.index()];
        rt.pred_compute = pred_compute;
        rt.pred_bytes = pred_bytes;
        rt.pred_bw = pred_bw;
        self.dags[slot as usize].pins += 1;

        let seq = self.seq;
        self.seq += 1;
        let mut e = TaskEntry::new(key, acc, runtime, deadline).with_seq(seq).with_slot(slot);
        if fwd_candidate {
            e = e.forwarding_candidate();
        }
        e
    }

    /// The data-movement query for node `node` of the instance in `slot`
    /// (§III-B).
    ///
    /// The query's edge-byte list is the reused [`SocSim::dm_bytes_scratch`]
    /// buffer; callers hand it back via
    /// [`restore_dm_bytes_buf`](Self::restore_dm_bytes_buf) once done.
    fn dm_query(&mut self, slot: u32, node: u32, coloc_edge: Option<usize>) -> DataMoveQuery {
        let d = &self.dags[slot as usize];
        let dag = Arc::clone(&d.dag);
        let deadlines = Arc::clone(&d.deadlines);
        let nid = NodeId(node);
        let spec = dag.node(nid);
        let mut parent_edge_bytes = std::mem::take(&mut self.dm_bytes_scratch);
        parent_edge_bytes.clear();
        parent_edge_bytes.extend(dag.parents(nid).iter().map(|&p| dag.node(p).output_bytes));

        // Output prediction: all children forward iff (a) the children fit
        // distinct accelerator instances per type and (b) this node is the
        // latest-finishing parent (by deadline) of every child.
        let all_children_forward = if self.cfg.dm_predictor == DataMovePredictor::Predicted {
            let children = dag.children(nid);
            !children.is_empty() && {
                // Count children per accelerator type in the zeroed scratch
                // counter (type ids are validated < num_types at build).
                for &c in children {
                    self.child_type_counts[dag.node(c).acc.0 as usize] += 1;
                }
                let fits = self
                    .child_type_counts
                    .iter()
                    .zip(&self.cfg.acc_instances)
                    .all(|(&have, &cap)| have <= cap);
                for &c in children {
                    self.child_type_counts[dag.node(c).acc.0 as usize] = 0;
                }
                let latest = children.iter().all(|&c| {
                    dag.parents(c).iter().all(|&p| {
                        deadlines.node_deadline(p) <= deadlines.node_deadline(nid)
                    })
                });
                fits && latest
            }
        } else {
            false
        };

        DataMoveQuery {
            parent_edge_bytes,
            dram_input_bytes: spec.dram_input_bytes,
            output_bytes: spec.output_bytes,
            colocated_parent_edge: coloc_edge,
            all_children_forward,
        }
    }

    /// Returns a finished query's edge-byte buffer to the scratch slot.
    fn restore_dm_bytes_buf(&mut self, query: DataMoveQuery) {
        self.dm_bytes_scratch = query.parent_edge_bytes;
    }

    /// Hands out the reusable ready-batch buffer, emptied.
    /// [`enqueue_batch`](Self::enqueue_batch) takes it back.
    fn take_batch_buf(&mut self) -> Vec<TaskEntry> {
        let mut batch = std::mem::take(&mut self.batch_scratch);
        batch.clear();
        batch
    }

    /// Feeds a batch through the policy and schedules a launch pass after
    /// the modeled manager latency. `batch` must come from
    /// [`take_batch_buf`](Self::take_batch_buf); its storage returns to the
    /// scratch slot here.
    fn enqueue_batch(&mut self, mut batch: Vec<TaskEntry>) {
        let inserted = batch.len() as u64;
        for e in &batch {
            self.tracer
                .emit(self.now.as_ps(), || EventKind::TaskReady { task: tref(e.key), acc: e.acc.0 });
        }
        self.refresh_idle_counts();
        self.policy.enqueue_ready(&mut self.queues, &mut batch, self.now, &self.idle_scratch);
        self.batch_scratch = batch;
        self.sched_ops += inserted;
        let launch_at = if self.cfg.model_sched_overhead {
            let cost = self.cfg.sched_base_cost + self.cfg.sched_insert_cost * inserted;
            self.sched_time += cost;
            let (_, end) = self.manager.reserve(self.now, cost);
            end
        } else {
            self.now
        };
        self.events.push(launch_at, Ev::Launch);
    }

    /// Rebuilds the per-type idle-instance counts in
    /// [`SocSim::idle_scratch`].
    fn refresh_idle_counts(&mut self) {
        let insts = &self.insts;
        self.idle_scratch.clear();
        self.idle_scratch.extend(self.type_insts.iter().map(|ids| {
            ids.iter().filter(|&&i| insts[i].running.is_none() && !insts[i].quarantined).count()
        }));
    }

    // ------------------------------------------------------------------
    // Launching
    // ------------------------------------------------------------------

    fn try_launch_all(&mut self) {
        for t in 0..self.type_insts.len() {
            while let Some(&inst_idx) = self.type_insts[t]
                .iter()
                .find(|&&i| self.insts[i].running.is_none() && !self.insts[i].quarantined)
            {
                let insts = &self.insts;
                let Some((entry, pin)) = self.policy.pop_placed(
                    &mut self.queues,
                    relief_dag::AccTypeId(t as u32),
                    self.now,
                    &|i| insts.get(i).is_some_and(|u| u.running.is_none() && !u.quarantined),
                ) else {
                    break;
                };
                if self.cancels_on && self.dags[entry.slot as usize].cancelled {
                    // Reclaimed queue slot: a timed-out request's entry is
                    // dropped on pop, leaving the unit to live work. The
                    // entry's pin kept the slot valid until this check.
                    self.unpin_dag(entry.slot);
                    continue;
                }
                let chosen = match pin {
                    // A placement-aware policy (schedule replay) pins the
                    // instance; it only releases a task whose pin is idle.
                    Some(i) => i,
                    // Otherwise prefer the instance that enables
                    // colocation: the idle instance whose previously
                    // executed node is a parent of this task with its
                    // output still live there.
                    None => self
                        .colocation_instance(t, entry.key, entry.slot)
                        .filter(|&i| self.insts[i].running.is_none() && !self.insts[i].quarantined)
                        .unwrap_or(inst_idx),
                };
                self.launch(chosen, entry);
            }
        }
    }

    /// The idle instance of type `t` on which `key` would colocate, if
    /// any. `last_node` may name a long-retired instance, but it is only
    /// ever *compared* against keys of the live instance in `slot`;
    /// serials are never reused, so a stale tracker can never match — and
    /// the node lookup happens on the live side only after a match.
    fn colocation_instance(&self, t: usize, key: TaskKey, slot: u32) -> Option<usize> {
        if !self.cfg.forwarding || self.cfg.output_partitions < 2 {
            return None;
        }
        let d = &self.dags[slot as usize];
        let parents = d.dag.parents(NodeId(key.node));
        self.type_insts[t].iter().copied().find(|&i| {
            self.insts[i].last_node.is_some_and(|ln| {
                parents.iter().any(|&p| {
                    let pk = TaskKey::new(key.instance, p.0);
                    pk == ln && self.node_rt(slot, p.0).out.spad().is_some_and(|(si, _)| si == i)
                })
            })
        })
    }

    fn node_rt(&self, slot: u32, node: u32) -> &NodeRt {
        &self.dags[slot as usize].nodes[node as usize]
    }

    fn node_rt_mut(&mut self, slot: u32, node: u32) -> &mut NodeRt {
        &mut self.dags[slot as usize].nodes[node as usize]
    }

    fn launch(&mut self, inst_idx: usize, entry: TaskEntry) {
        let key = entry.key;
        let slot = entry.slot;
        self.node_rt_mut(slot, key.node).phase = NodePhase::Launched;
        self.tracer.emit(self.now.as_ps(), || EventKind::TaskDispatched {
            task: tref(key),
            inst: inst_idx as u32,
        });
        // Colocation check: the previously executed node on this
        // accelerator is a parent whose output is still live here.
        let coloc_part = if self.cfg.forwarding && self.cfg.output_partitions >= 2 {
            let d = &self.dags[slot as usize];
            d.dag.parents(NodeId(key.node)).iter().find_map(|&p| {
                let pk = TaskKey::new(key.instance, p.0);
                (self.insts[inst_idx].last_node == Some(pk))
                    .then(|| self.node_rt(slot, p.0).out.spad())
                    .flatten()
                    .filter(|&(si, part)| {
                        si == inst_idx && self.insts[inst_idx].parts[part].holder == Some(pk)
                    })
                    .map(|(_, part)| part)
            })
        } else {
            None
        };
        // The popped entry's pin transfers to the running task.
        self.insts[inst_idx].running = Some(Running {
            key,
            slot,
            phase: RunPhase::WaitPartition,
            out_part: usize::MAX,
            coloc_part,
            input_bytes: 0,
            fwd_inputs: 0,
            coloc_inputs: 0,
            compute_start: Time::ZERO,
        });
        self.try_alloc_and_proceed(inst_idx);
    }

    /// Attempts to claim an output partition; on success, starts the input
    /// phase. On failure, triggers a lazy write-back if that is what blocks
    /// reuse, and leaves the task in `WaitPartition`.
    fn try_alloc_and_proceed(&mut self, inst_idx: usize) {
        let (key, slot, coloc_part) = {
            let r = self.insts[inst_idx].running.as_ref().expect("task assigned");
            if r.phase != RunPhase::WaitPartition {
                return;
            }
            (r.key, r.slot, r.coloc_part)
        };

        let mut chosen: Option<usize> = None;
        let mut lazy_wb: Option<(TaskKey, u32)> = None;
        for p in 0..self.insts[inst_idx].parts.len() {
            if Some(p) == coloc_part {
                continue;
            }
            let part = self.insts[inst_idx].parts[p];
            match part.holder {
                None => {
                    chosen = Some(p);
                    break;
                }
                Some(h) => {
                    if part.ongoing_reads > 0 {
                        continue; // wait for readers to finish
                    }
                    // The holder's hold keeps its slot alive, so the
                    // dense index carried in the partition stays valid.
                    let rt = self.node_rt(part.holder_slot, h.node);
                    if rt.phase != NodePhase::Done {
                        continue; // still being produced
                    }
                    match rt.out {
                        OutLoc::WbInFlight { .. } => continue, // wait for WB
                        OutLoc::Spad { .. } if rt.pending_readers > 0 => {
                            // Data still needed but only in SPAD: lazily
                            // write it back before reuse.
                            lazy_wb = Some((h, part.holder_slot));
                            continue;
                        }
                        _ => {
                            chosen = Some(p);
                            break;
                        }
                    }
                }
            }
        }

        let Some(p) = chosen else {
            if let Some((h, h_slot)) = lazy_wb {
                self.issue_writeback(h, h_slot, true);
            }
            return; // stay in WaitPartition; retried on partition events
        };

        // Claim the partition: transition the old holder's output state
        // and move the hold to the claimant (claim before release, so an
        // instance evicting its own older output never hits zero holds).
        let evicted = self.insts[inst_idx].parts[p].holder.map(|old| {
            let old_slot = self.insts[inst_idx].parts[p].holder_slot;
            let rt = self.node_rt_mut(old_slot, old.node);
            rt.out = match rt.out {
                OutLoc::SpadAndDram { .. } => OutLoc::Dram,
                OutLoc::Spad { .. } => OutLoc::Dropped,
                other => other,
            };
            old_slot
        });
        self.insts[inst_idx].parts[p].holder = Some(key);
        self.insts[inst_idx].parts[p].holder_slot = slot;
        self.dags[slot as usize].holds += 1;
        if let Some(old_slot) = evicted {
            self.dags[old_slot as usize].holds -= 1;
            self.maybe_retire(old_slot);
        }
        {
            let r = self.insts[inst_idx].running.as_mut().expect("task assigned");
            r.out_part = p;
        }
        self.start_inputs(inst_idx);
    }

    /// Classifies every input edge (colocation / forward / DRAM), starts
    /// the DMA transfers, and accounts the data-movement statistics.
    fn start_inputs(&mut self, inst_idx: usize) {
        let (key, slot) = {
            let r = self.insts[inst_idx].running.as_ref().expect("task assigned");
            (r.key, r.slot)
        };
        let app_idx = self.dags[slot as usize].app_idx;
        // The Arc clone detaches the parent/child slices from `self`'s
        // borrow, so the loop needs no owned copy of either.
        let dag = Arc::clone(&self.dags[slot as usize].dag);
        let nid = NodeId(key.node);
        let coloc_part = self.insts[inst_idx].running.as_ref().expect("task assigned").coloc_part;

        let mut pending = 0usize;
        let mut input_bytes = 0u64;
        for &p in dag.parents(nid) {
            let pk = TaskKey::new(key.instance, p.0);
            let bytes = dag.node(p).output_bytes;
            input_bytes += bytes;
            self.app_stats[app_idx].edges_consumed += 1;

            // Colocation: data already in place on this accelerator.
            let is_coloc = coloc_part.is_some()
                && self.node_rt(slot, pk.node).out.spad() == coloc_part.map(|c| (inst_idx, c))
                && self.insts[inst_idx].last_node == Some(pk);
            if is_coloc {
                self.app_stats[app_idx].colocations += 1;
                self.colocated_bytes += bytes;
                self.consume_reader(slot, pk.node);
                self.insts[inst_idx].running.as_mut().expect("task assigned").coloc_inputs += 1;
                self.tracer.emit(self.now.as_ps(), || EventKind::InputSourced {
                    task: tref(key),
                    inst: inst_idx as u32,
                    parent: Some(tref(pk)),
                    source: InputSource::Colocated,
                    bytes,
                });
                continue;
            }

            // Forwarding: producer output still live in its scratchpad —
            // and the producing unit online (a quarantined unit's SPAD is
            // unreachable; consumers fall back to the checkpointed DRAM
            // copy).
            let fwd_src = if self.cfg.forwarding {
                self.node_rt(slot, pk.node)
                    .out
                    .spad()
                    .filter(|&(si, sp)| self.insts[si].parts[sp].holder == Some(pk))
                    .filter(|&(si, _)| !self.insts[si].quarantined)
            } else {
                None
            };
            let (route, src_spad) = match fwd_src {
                Some((si, sp)) => {
                    self.insts[si].parts[sp].ongoing_reads += 1;
                    self.app_stats[app_idx].forwards += 1;
                    self.insts[inst_idx].running.as_mut().expect("task assigned").fwd_inputs += 1;
                    self.spad_access_bytes += 2 * bytes; // producer read + local write
                    (Route { src: Port::Spad(si), dst: Port::Spad(inst_idx) }, Some((si, sp)))
                }
                None => {
                    debug_assert!(
                        self.node_rt(slot, pk.node).out.in_dram()
                            || !self.cfg.forwarding
                            || self
                                .node_rt(slot, pk.node)
                                .out
                                .spad()
                                .is_some_and(|(si, _)| self.insts[si].quarantined),
                        "parent output must be in DRAM when not forwardable"
                    );
                    self.spad_access_bytes += bytes; // local write
                    (Route { src: Port::Dram, dst: Port::Spad(inst_idx) }, None)
                }
            };
            self.tracer.emit(self.now.as_ps(), || EventKind::InputSourced {
                task: tref(key),
                inst: inst_idx as u32,
                parent: Some(tref(pk)),
                source: match src_spad {
                    Some((si, _)) => InputSource::Forwarded { from_inst: si as u32 },
                    None => InputSource::Dram,
                },
                bytes,
            });
            let (id, first) = self.engine.begin(route, bytes, inst_idx, self.now);
            self.track(
                id,
                Purpose::InputEdge {
                    child: key,
                    parent: pk,
                    src_spad,
                    attempt: 0,
                    dst: inst_idx,
                    slot,
                },
            );
            self.events.push(first, Ev::Chunk(id));
            self.node_rt_mut(slot, key.node).actual_bytes += bytes;
            pending += 1;
        }

        let dram_input_bytes = dag.node(nid).dram_input_bytes;
        if dram_input_bytes > 0 {
            let bytes = dram_input_bytes;
            input_bytes += bytes;
            self.spad_access_bytes += bytes;
            self.tracer.emit(self.now.as_ps(), || EventKind::InputSourced {
                task: tref(key),
                inst: inst_idx as u32,
                parent: None,
                source: InputSource::Dram,
                bytes,
            });
            let route = Route { src: Port::Dram, dst: Port::Spad(inst_idx) };
            let (id, first) = self.engine.begin(route, bytes, inst_idx, self.now);
            self.track(id, Purpose::DramInput { child: key, attempt: 0, dst: inst_idx, slot });
            self.events.push(first, Ev::Chunk(id));
            self.node_rt_mut(slot, key.node).actual_bytes += bytes;
            pending += 1;
        }

        let r = self.insts[inst_idx].running.as_mut().expect("task assigned");
        r.input_bytes = input_bytes;
        if pending == 0 {
            self.start_compute(inst_idx);
        } else {
            r.phase = RunPhase::Inputs { pending };
        }
    }

    /// One child consumed one of the parent node's output copies.
    fn consume_reader(&mut self, slot: u32, parent_node: u32) {
        let rt = self.node_rt_mut(slot, parent_node);
        rt.pending_readers = rt.pending_readers.saturating_sub(1);
    }

    fn start_compute(&mut self, inst_idx: usize) {
        let (key, slot, input_bytes) = {
            let now = self.now;
            let r = self.insts[inst_idx].running.as_mut().expect("task assigned");
            r.phase = RunPhase::Compute;
            r.compute_start = now;
            (r.key, r.slot, r.input_bytes)
        };
        self.tracer.emit(self.now.as_ps(), || EventKind::ComputeStart {
            task: tref(key),
            inst: inst_idx as u32,
        });
        let d = &self.dags[slot as usize];
        let spec = d.dag.node(NodeId(key.node));
        let jitter = if self.cfg.compute_jitter > 0.0 {
            1.0 + self.rng.f64_range(-self.cfg.compute_jitter, self.cfg.compute_jitter)
        } else {
            1.0
        };
        let dur = spec.compute.scale(jitter);
        let out_bytes = spec.output_bytes;
        // Functional unit touches its inputs and output in the scratchpad.
        self.spad_access_bytes += input_bytes + out_bytes;
        self.insts[inst_idx].compute_busy += dur;
        let app_idx = self.dags[slot as usize].app_idx;
        self.per_app_compute_time[self.app_ids[app_idx].index()] += dur;
        self.node_rt_mut(slot, key.node).actual_compute = dur;
        self.events.push(self.now + dur, Ev::ComputeDone(inst_idx));
    }

    // ------------------------------------------------------------------
    // Completion (the manager's interrupt service routine, §III-C.2)
    // ------------------------------------------------------------------

    fn on_compute_done(&mut self, inst_idx: usize) {
        let r = self.insts[inst_idx].running.take().expect("compute was running");
        debug_assert_eq!(r.phase, RunPhase::Compute);
        let key = r.key;
        let slot = r.slot;
        // A timed-out (cancelled) request's node drains without
        // publishing: the output is discarded, the partition freed, and
        // the unit picks up live work. No `ComputeEnd` is emitted and no
        // fault verdict is drawn — the request's outcome is already
        // settled.
        if self.cancels_on && self.dags[slot as usize].cancelled {
            let part = &mut self.insts[inst_idx].parts[r.out_part];
            debug_assert_eq!(part.holder, Some(key));
            part.holder = None;
            self.dags[slot as usize].holds -= 1;
            self.unpin_dag(slot); // the drained task's pin; may retire
            self.retry_stalled();
            self.try_launch_all();
            return;
        }
        // Transient task fault (relief-fault): the attempt consumed its
        // resources, but the output is corrupt — discard and recover
        // instead of publishing. No `ComputeEnd` is emitted, so every
        // completed task still has exactly one compute span.
        if self.fault.enabled() {
            let attempt = self.node_rt(slot, key.node).attempts;
            if self.fault.task_faults(key.instance, key.node, attempt) {
                self.on_task_fault(inst_idx, r, attempt);
                return;
            }
        }
        self.insts[inst_idx].last_node = Some(key);
        // All-loads-and-stores-to-DRAM baseline (Fig. 5 normalization).
        {
            let out = self.dags[slot as usize].dag.node(NodeId(key.node)).output_bytes;
            self.all_dram_baseline_bytes += r.input_bytes + out;
        }
        {
            let app_idx = self.dags[slot as usize].app_idx;
            self.tracer.emit(self.now.as_ps(), || EventKind::ComputeEnd {
                task: tref(key),
                inst: inst_idx as u32,
                start_ps: r.compute_start.as_ps(),
                app: Arc::clone(&self.app_symbols[app_idx]),
                forwarded_inputs: r.fwd_inputs,
                colocated_inputs: r.coloc_inputs,
            });
        }

        // Publish the output into the claimed partition.
        {
            let rt = self.node_rt_mut(slot, key.node);
            rt.phase = NodePhase::Done;
            rt.out = OutLoc::Spad { inst: inst_idx, part: r.out_part };
        }
        if self.node_rt(slot, key.node).faulted {
            self.node_rt_mut(slot, key.node).faulted = false;
            self.fault_stats.recovered += 1;
        }
        self.last_completion = self.now;

        // Per-node statistics.
        let (app_idx, node_deadline, dag_done, dag_runtime_met, dag_arrival) = {
            let d = &mut self.dags[slot as usize];
            d.remaining -= 1;
            let nd = d.arrival + d.deadlines.node_deadline(NodeId(key.node));
            let dag_done = d.remaining == 0 && !d.aborted;
            let met = self.now.saturating_since(d.arrival) <= d.dag.relative_deadline();
            (d.app_idx, nd, dag_done, met, d.arrival)
        };
        {
            let stats = &mut self.app_stats[app_idx];
            stats.nodes_completed += 1;
            if self.now <= node_deadline {
                stats.node_deadlines_met += 1;
            }
        }
        if let Some(fe) = &mut self.frontend {
            fe.on_node_done(self.now, app_idx, dag_arrival, self.now <= node_deadline);
        }
        {
            // Table VIII sign convention: (actual − predicted) / predicted,
            // so negative means the predictor overestimated. Bounded-memory mode
            // drops the O(total-requests) sample to stay bounded.
            let rt = self.node_rt(slot, key.node);
            if rt.pred_compute.as_ps() > 0 && !self.cfg.bounded_memory {
                let err = (rt.actual_compute.as_ps() as f64 - rt.pred_compute.as_ps() as f64)
                    / rt.pred_compute.as_ps() as f64;
                self.prediction.compute_rel_errors.push(err);
            }
        }

        // Wake children whose dependencies are now satisfied. The Arc
        // clone detaches the child slice from `self`, so no owned copy.
        let dag = Arc::clone(&self.dags[slot as usize].dag);
        let children = dag.children(NodeId(key.node));
        let mut newly_ready = std::mem::take(&mut self.ready_scratch);
        newly_ready.clear();
        for &c in children {
            let num_parents = dag.parents(c).len();
            let rt = &mut self.dags[slot as usize].nodes[c.index()];
            rt.completed_parents += 1;
            if rt.completed_parents == num_parents {
                rt.phase = NodePhase::Ready;
                newly_ready.push(c);
            }
        }

        // Colocation prediction for the data-movement predictor (§III-B):
        // the earliest-deadline newly ready child colocates with the
        // finisher if they share an accelerator type.
        let coloc_child = if self.cfg.dm_predictor == DataMovePredictor::Predicted {
            let d = &self.dags[slot as usize];
            let finisher_acc = dag.node(NodeId(key.node)).acc;
            newly_ready
                .iter()
                .copied()
                .min_by_key(|&c| d.deadlines.node_deadline(c))
                .filter(|&c| dag.node(c).acc == finisher_acc)
        } else {
            None
        };

        let mut batch = self.take_batch_buf();
        for &c in &newly_ready {
            let coloc_edge = (coloc_child == Some(c)).then(|| {
                dag.parents(c)
                    .iter()
                    .position(|&p| p.0 == key.node)
                    .expect("finisher is a parent")
            });
            batch.push(self.make_entry(TaskKey::new(key.instance, c.0), slot, true, coloc_edge));
        }
        self.ready_scratch = newly_ready;
        self.enqueue_batch(batch);

        // Write-back decision (§III-C.2): write back immediately unless
        // every child is next in line to forward. A Ready child is next in
        // line iff it is escalated or at its queue head (Ready ⟺ queued is
        // a simulator invariant); an already Launched/Done child is
        // forwarding or colocating right now, which also counts.
        //
        // Under fault injection the deferral is disabled (checkpointing
        // mode): every output gets a DRAM copy so a faulted retry — or a
        // consumer cut off by a quarantined forwarding source — always has
        // verified data to re-read. Forwarding itself still happens; only
        // the write-back *elision* is given up.
        let all_next_in_line = !self.fault.enabled()
            && self.cfg.forwarding
            && !children.is_empty()
            && match self.policy.writeback_elision(key) {
                // Schedule replay: the decision is part of the plan (the
                // live decision hinged on the recording policy's
                // escalations, which replay does not re-enact).
                Some(elide) => elide,
                None => children.iter().all(|&c| {
                    let ck = TaskKey::new(key.instance, c.0);
                    match self.node_rt(slot, c.0).phase {
                        NodePhase::Waiting | NodePhase::Aborted => false,
                        NodePhase::Launched | NodePhase::Done => true,
                        NodePhase::Ready => {
                            self.queues.is_escalated_or_head(dag.node(c).acc, ck)
                        }
                    }
                }),
            };
        if !all_next_in_line {
            self.issue_writeback(key, slot, false);
        }

        if dag_done {
            self.on_dag_done(key.instance, slot, app_idx, dag_runtime_met);
        }
        // The finished task's pin releases last: a completed instance
        // retires only once its partitions are evicted (the holds), so
        // this is a no-op unless the run is draining oddly — but the
        // accounting stays uniform.
        self.unpin_dag(slot);
    }

    fn on_dag_done(&mut self, instance: u32, slot: u32, app_idx: usize, met: bool) {
        self.tracer.emit(self.now.as_ps(), || EventKind::DagDone { instance, met });
        self.active_work -= 1;
        let faults = self.dags[slot as usize].faults;
        if !met && faults > 0 {
            // The instance absorbed fault-recovery delay and missed its
            // deadline: attribute the miss (a fault-free miss under the
            // same contention is possible, but the attribution is what the
            // resilience campaign sweeps).
            self.fault_stats.fault_attributed_misses += 1;
            self.tracer
                .emit(self.now.as_ps(), || EventKind::FaultAttributedMiss { instance, faults });
        }
        let runtime = self.now.saturating_since(self.dags[slot as usize].arrival);
        let stats = &mut self.app_stats[app_idx];
        stats.dags_completed += 1;
        if met {
            stats.dag_deadlines_met += 1;
        }
        // Bounded-memory mode: the per-completion runtime sample is the one
        // unbounded closed-loop accumulator; drop it there.
        if !self.cfg.bounded_memory {
            stats.dag_runtimes.push(runtime);
        }
        if let Some(fe) = &mut self.frontend {
            let d = &self.dags[slot as usize];
            fe.on_complete(self.now, app_idx, instance, d.first_arrival, d.attempt, met);
        }
        if self.apps[app_idx].repeat {
            self.pending_arrivals += 1;
            self.events.push(self.now, Ev::Arrival(app_idx));
        }
    }

    // ------------------------------------------------------------------
    // Fault recovery (relief-fault)
    // ------------------------------------------------------------------

    /// Handles a corrupt compute attempt: release the claimed output
    /// partition, restore the parents' reader counts (the retry will
    /// re-consume every edge), and either schedule a backoff re-queue or
    /// abort the task when its retry budget is exhausted.
    fn on_task_fault(&mut self, inst_idx: usize, r: Running, attempt: u32) {
        let key = r.key;
        let slot = r.slot;
        self.fault_stats.task_faults += 1;
        self.dags[slot as usize].faults += 1;
        self.tracer.emit(self.now.as_ps(), || EventKind::TaskFaulted {
            task: tref(key),
            inst: inst_idx as u32,
            attempt,
        });
        // Release the output partition: nothing was published into it.
        {
            let part = &mut self.insts[inst_idx].parts[r.out_part];
            debug_assert_eq!(part.holder, Some(key));
            debug_assert_eq!(part.ongoing_reads, 0, "unpublished output cannot have readers");
            part.holder = None;
            self.dags[slot as usize].holds -= 1;
        }
        // Every input edge was consumed exactly once by compute end
        // (colocated edges at input classification, transferred edges at
        // delivery); restore the counts so the retry's re-consumption
        // keeps each parent's reader bookkeeping exact. Checkpointing mode
        // guarantees each parent output still has a DRAM copy to re-read.
        let dag = Arc::clone(&self.dags[slot as usize].dag);
        for &p in dag.parents(NodeId(key.node)) {
            self.node_rt_mut(slot, p.0).pending_readers += 1;
        }
        {
            let rt = self.node_rt_mut(slot, key.node);
            debug_assert_eq!(rt.out, OutLoc::NotProduced);
            rt.faulted = true;
        }
        let max_retries = self.fault.cfg().max_retries;
        if attempt < max_retries {
            self.node_rt_mut(slot, key.node).attempts = attempt + 1;
            self.node_rt_mut(slot, key.node).phase = NodePhase::Waiting; // Ready ⟺ queued
            let backoff = Dur::from_ps(self.fault.backoff_ps(attempt));
            // The scheduled requeue takes its own pin before the running
            // task's pin drops below.
            self.dags[slot as usize].pins += 1;
            self.events.push(self.now + backoff, Ev::Requeue { slot, key });
        } else {
            self.fault_stats.tasks_aborted += 1;
            self.node_rt_mut(slot, key.node).phase = NodePhase::Aborted;
            let was_aborted = std::mem::replace(&mut self.dags[slot as usize].aborted, true);
            if !was_aborted {
                self.active_work -= 1;
                // The instance will never complete; later sibling aborts
                // must not report the request again.
                if let Some(fe) = &mut self.frontend {
                    fe.on_abort(self.now, self.dags[slot as usize].app_idx);
                }
            }
            self.tracer.emit(self.now.as_ps(), || EventKind::TaskAborted {
                task: tref(key),
                attempts: attempt + 1,
            });
        }
        self.unpin_dag(slot); // the faulted task's pin
        // The freed partition and idle unit may unblock stalled work.
        self.retry_stalled();
        self.try_launch_all();
    }

    /// A faulted task's backoff expired: rebuild its ready-queue entry
    /// (laxity and predictions recomputed from current state — the retry
    /// is *not* a forwarding candidate, so RELIEF's feasibility check sees
    /// it without escalating it) and re-insert it.
    fn on_requeue(&mut self, slot: u32, key: TaskKey) {
        if self.dags[slot as usize].cancelled {
            // The request timed out while the retry backed off; the
            // requeue's pin was the last thing keeping the husk alive.
            self.unpin_dag(slot);
            return;
        }
        debug_assert_eq!(self.node_rt(slot, key.node).phase, NodePhase::Waiting);
        let attempt = self.node_rt(slot, key.node).attempts;
        let acc = {
            let d = &self.dags[slot as usize];
            d.dag.node(NodeId(key.node)).acc
        };
        self.fault_stats.task_retries += 1;
        self.tracer.emit(self.now.as_ps(), || EventKind::TaskRetried {
            task: tref(key),
            acc: acc.0,
            attempt,
        });
        self.node_rt_mut(slot, key.node).phase = NodePhase::Ready;
        let mut batch = self.take_batch_buf();
        batch.push(self.make_entry(key, slot, false, None));
        // The fresh queue entry re-pinned the instance; the requeue's own
        // pin hands off to it.
        self.dags[slot as usize].pins -= 1;
        self.enqueue_batch(batch);
    }

    /// A deterministic outage window opened: take the unit offline. The
    /// quarantine is non-preemptive (a task already running here drains),
    /// but the unit leaves the dispatch candidate set and its scratchpad
    /// is denied as a forwarding source until the restore fires.
    fn on_unit_down(&mut self, inst_idx: usize) {
        let Some(w) = self.next_outage[inst_idx] else { return };
        self.insts[inst_idx].quarantined = true;
        self.fault_stats.unit_quarantines += 1;
        self.tracer.emit(self.now.as_ps(), || EventKind::UnitQuarantined {
            inst: inst_idx as u32,
            until_ps: w.up_ps,
        });
        self.events.push(Time::from_ps(w.up_ps), Ev::UnitUp(inst_idx));
    }

    /// The outage's repair completed: the unit rejoins the candidate set.
    /// The next outage window is armed only while work remains, so a
    /// drained simulation is not kept alive by an infinite outage stream.
    fn on_unit_up(&mut self, inst_idx: usize) {
        self.insts[inst_idx].quarantined = false;
        self.tracer
            .emit(self.now.as_ps(), || EventKind::UnitRestored { inst: inst_idx as u32 });
        self.events.push(self.now, Ev::Launch);
        // Cancelled instances never finish their remaining nodes, so they
        // must not keep the outage stream (and thus the run) alive.
        let outstanding = self.pending_arrivals > 0 || self.active_work > 0;
        self.next_outage[inst_idx] = if outstanding {
            let next = self.outage_iters[inst_idx].next();
            if let Some(w) = next {
                self.events.push(Time::from_ps(w.down_ps), Ev::UnitDown(inst_idx));
            }
            next
        } else {
            None
        };
    }

    // ------------------------------------------------------------------
    // Write-back
    // ------------------------------------------------------------------

    /// Starts writing `key`'s output back to main memory, if it is live in
    /// a scratchpad and not already written back or in flight. `lazy`
    /// marks write-backs triggered by partition reclamation rather than
    /// task completion (§III-C.2).
    fn issue_writeback(&mut self, key: TaskKey, slot: u32, lazy: bool) {
        let (inst, part) = match self.node_rt(slot, key.node).out {
            OutLoc::Spad { inst, part } => (inst, part),
            _ => return,
        };
        self.node_rt_mut(slot, key.node).out = OutLoc::WbInFlight { inst, part };
        let bytes = {
            let d = &self.dags[slot as usize];
            d.dag.node(NodeId(key.node)).output_bytes
        };
        self.spad_access_bytes += bytes; // producer SPAD read
        self.node_rt_mut(slot, key.node).actual_bytes += bytes;
        self.tracer.emit(self.now.as_ps(), || EventKind::WritebackIssued {
            task: tref(key),
            inst: inst as u32,
            bytes,
            lazy,
        });
        let route = Route { src: Port::Spad(inst), dst: Port::Dram };
        let (id, first) = self.engine.begin(route, bytes, inst, self.now);
        self.track(id, Purpose::WriteBack { node: key, slot });
        self.events.push(first, Ev::Chunk(id));
    }

    // ------------------------------------------------------------------
    // Transfer progress
    // ------------------------------------------------------------------

    /// Records an in-flight transfer's purpose under its dense slot id.
    /// The transfer pins its owning DAG instance until untracked.
    fn track(&mut self, id: TransferId, purpose: Purpose) {
        self.dags[purpose.dag_slot() as usize].pins += 1;
        let slot = id.slot();
        if slot >= self.transfers.len() {
            self.transfers.resize(slot + 1, None);
            self.transfer_ids.resize(slot + 1, None);
            self.chunk_seq.resize(slot + 1, 0);
        }
        debug_assert!(self.transfers[slot].is_none(), "slot reused while purpose still tracked");
        self.transfers[slot] = Some(purpose);
        self.transfer_ids[slot] = Some(id);
        self.chunk_seq[slot] = 0;
    }

    fn on_chunk(&mut self, id: TransferId) {
        if self.cancels_on && !self.engine.is_live(id) {
            // The transfer was cancelled (ECC invalidation or request
            // timeout) after this chunk event was scheduled.
            return;
        }
        // Per-chunk ECC verdict on forwarded edges (relief-fault): each
        // chunk event marks one chunk's arrival, so the chunk that just
        // landed is checked before the engine advances the transfer.
        if self.fault.enabled() {
            if let Some(Purpose::InputEdge {
                child,
                parent,
                src_spad: Some(src),
                attempt,
                dst,
                slot,
            }) = self.transfers[id.slot()]
            {
                let chunk = self.chunk_seq[id.slot()];
                self.chunk_seq[id.slot()] = chunk + 1;
                if self.fault.ecc_chunk_faults(child.instance, child.node, parent.node, chunk, attempt)
                {
                    let req =
                        Refetch { child, parent, attempt, dst: dst as u32, slot };
                    self.on_ecc_fault(id, src, req);
                    return;
                }
            }
        }
        match self.engine.on_chunk_done(id, self.now) {
            Progress::Chunk(next) => self.events.push(next, Ev::Chunk(id)),
            Progress::Done { start, end, bytes } => {
                let purpose = self.transfers[id.slot()].take().expect("tracked transfer");
                self.on_transfer_done(purpose, start, end, bytes);
                // Unpin after the handler: a fault recovery inside it may
                // re-track a fresh transfer for the same instance, and the
                // pin count must never dip to zero in between.
                self.unpin_dag(purpose.dag_slot());
            }
        }
    }

    fn on_transfer_done(&mut self, purpose: Purpose, start: Time, end: Time, bytes: u64) {
        let dur = end.saturating_since(start);
        match purpose {
            Purpose::InputEdge { child, parent, src_spad, attempt, dst, slot } => {
                self.account_mem_time(slot, bytes, src_spad.is_some());
                if src_spad.is_none() {
                    self.observe_bandwidth(slot, child.node, bytes, dur);
                }
                if let Some((si, sp)) = src_spad {
                    let p = &mut self.insts[si].parts[sp];
                    p.ongoing_reads = p.ongoing_reads.saturating_sub(1);
                }
                // DMA corruption (relief-fault): the bytes moved (and were
                // accounted above) but are unusable. The edge is consumed
                // only on successful delivery, so the retry's bookkeeping
                // stays exact.
                if self.fault.enabled()
                    && self.fault.dma_faults(child.instance, child.node, parent.node, attempt)
                {
                    self.on_dma_fault(child, Some(parent), bytes, attempt, dst, slot);
                    return;
                }
                self.consume_reader(slot, parent.node);
                self.input_transfer_done(child, dst);
                // A partition may have become reusable.
                self.retry_stalled();
            }
            Purpose::DramInput { child, attempt, dst, slot } => {
                self.account_mem_time(slot, bytes, false);
                self.observe_bandwidth(slot, child.node, bytes, dur);
                if self.fault.enabled()
                    && self.fault.dma_faults(child.instance, child.node, u32::MAX, attempt)
                {
                    self.on_dma_fault(child, None, bytes, attempt, dst, slot);
                    return;
                }
                self.input_transfer_done(child, dst);
            }
            Purpose::WriteBack { node, slot } => {
                self.account_mem_time(slot, bytes, false);
                self.observe_bandwidth(slot, node.node, bytes, dur);
                if let OutLoc::WbInFlight { inst, part } = self.node_rt(slot, node.node).out {
                    self.node_rt_mut(slot, node.node).out = OutLoc::SpadAndDram { inst, part };
                }
                // Children stalled on this write-back (forwarding disabled)
                // and tasks stalled on the partition can proceed now.
                self.retry_stalled();
            }
        }
    }

    /// Re-issues a corrupt input delivery from DRAM. The forwarding window
    /// is *lost* on retry: even if the first attempt pulled from the
    /// producer's scratchpad, the retry reads the checkpointed DRAM copy
    /// (issued at the producer's completion, since fault injection forces
    /// write-backs), and the edge no longer counts as forwarded — the
    /// forwarding statistics recorded at issue time stand for the bytes
    /// that did move, while the recovery traffic is plain DRAM traffic.
    /// `FaultPlan::dma_faults` never faults attempt `max_retries`, so the
    /// chain is bounded by a verified final read.
    fn on_dma_fault(
        &mut self,
        child: TaskKey,
        parent: Option<TaskKey>,
        bytes: u64,
        attempt: u32,
        dst: usize,
        slot: u32,
    ) {
        self.fault_stats.dma_faults += 1;
        self.dags[slot as usize].faults += 1;
        self.tracer.emit(self.now.as_ps(), || EventKind::DmaFaulted {
            task: tref(child),
            parent: parent.map(tref),
            bytes,
            attempt,
        });
        let inst_idx = self.consumer_inst(child, dst);
        self.spad_access_bytes += bytes; // the retry rewrites the local SPAD
        self.node_rt_mut(slot, child.node).actual_bytes += bytes;
        let route = Route { src: Port::Dram, dst: Port::Spad(inst_idx) };
        let (id, first) = self.engine.begin(route, bytes, inst_idx, self.now);
        let purpose = match parent {
            Some(pk) => Purpose::InputEdge {
                child,
                parent: pk,
                src_spad: None,
                attempt: attempt + 1,
                dst: inst_idx,
                slot,
            },
            None => Purpose::DramInput { child, attempt: attempt + 1, dst: inst_idx, slot },
        };
        self.track(id, purpose);
        self.events.push(first, Ev::Chunk(id));
        // The released forwarding-source partition may unblock a claim.
        self.retry_stalled();
    }

    /// A forwarded chunk failed its ECC check: the forwarding window is
    /// invalidated. The whole transfer is cancelled (chunks that already
    /// moved keep their attribution — the bytes crossed the wire before
    /// failing verification), the producer partition's reader count
    /// drops, and after a bounded backoff the edge re-fetches the
    /// parent's checkpointed DRAM copy — which exists by construction,
    /// since fault injection forces write-backs.
    /// `req` carries the failing edge with its *current* attempt number;
    /// the parked re-fetch is stored with the attempt bumped.
    fn on_ecc_fault(&mut self, id: TransferId, src: (usize, usize), req: Refetch) {
        let attempt = req.attempt;
        self.fault_stats.ecc_faults += 1;
        self.fault_stats.forward_invalidations += 1;
        self.dags[req.slot as usize].faults += 1;
        let moved = self.engine.cancel(id, self.now);
        // The cancelled transfer's pin on the instance transfers to the
        // parked re-fetch below, so no count changes hands here.
        self.transfers[id.slot()] = None;
        self.account_mem_time(req.slot, moved, true);
        let (si, sp) = src;
        {
            let p = &mut self.insts[si].parts[sp];
            p.ongoing_reads = p.ongoing_reads.saturating_sub(1);
        }
        self.tracer.emit(self.now.as_ps(), || EventKind::EccCorrupted {
            task: tref(req.child),
            parent: tref(req.parent),
            attempt,
        });
        let backoff = Dur::from_ps(self.fault.backoff_ps(attempt));
        let req = Refetch { attempt: attempt + 1, ..req };
        let idx = match self.free_refetches.pop() {
            Some(i) => {
                self.refetches[i as usize] = req;
                i
            }
            None => {
                self.refetches.push(req);
                self.refetches.len() as u32 - 1
            }
        };
        self.events.push(self.now + backoff, Ev::EccRefetch(idx));
        // The released reader may unblock a partition claim.
        self.retry_stalled();
    }

    /// An ECC invalidation's backoff expired: re-read the corrupted edge
    /// from DRAM. The consumer cannot have moved (tasks are
    /// non-preemptive and it is still in its input phase); if its request
    /// was cancelled in the meantime the re-fetch is dropped — the unit
    /// was already released.
    fn on_ecc_refetch(&mut self, idx: u32) {
        let Refetch { child, parent, attempt, dst, slot } = self.refetches[idx as usize];
        self.free_refetches.push(idx);
        let dst = dst as usize;
        if self.dags[slot as usize].cancelled {
            // The request timed out during the backoff; drop the parked
            // pin (the unit was already released at cancellation).
            self.unpin_dag(slot);
            return;
        }
        let bytes = {
            let d = &self.dags[slot as usize];
            d.dag.node(NodeId(parent.node)).output_bytes
        };
        self.spad_access_bytes += bytes; // the retry rewrites the local SPAD
        self.node_rt_mut(slot, child.node).actual_bytes += bytes;
        let route = Route { src: Port::Dram, dst: Port::Spad(dst) };
        let (id, first) = self.engine.begin(route, bytes, dst, self.now);
        self.track(id, Purpose::InputEdge { child, parent, src_spad: None, attempt, dst, slot });
        // The fresh transfer re-pinned the instance; the parked re-fetch's
        // pin hands off to it.
        self.dags[slot as usize].pins -= 1;
        self.events.push(first, Ev::Chunk(id));
    }

    /// Charges a transfer's *service* time (volume over the path's peak
    /// bandwidth) to its application. Table II's "Memory" columns are sum
    /// totals that do not account for overlap, so queuing delay — which
    /// double-counts overlapped transfers — is deliberately excluded here;
    /// contention still shows up in end-to-end time and occupancy.
    fn account_mem_time(&mut self, slot: u32, bytes: u64, forwarded: bool) {
        let rate = if forwarded {
            self.cfg.mem.interconnect_bandwidth
        } else {
            self.cfg.mem.dram_bandwidth
        };
        let app_idx = self.dags[slot as usize].app_idx;
        self.per_app_mem_time[self.app_ids[app_idx].index()] += Dur::for_bytes(bytes, rate);
    }

    fn observe_bandwidth(&mut self, slot: u32, node: u32, bytes: u64, dur: Dur) {
        if bytes == 0 || dur.is_zero() {
            return;
        }
        let achieved = bytes as f64 / dur.as_secs_f64();
        let pred = self.node_rt(slot, node).pred_bw;
        if pred > 0.0 && !self.cfg.bounded_memory {
            // (actual − predicted) / predicted: Max always overestimates
            // under contention, yielding Table VIII's negative errors.
            // Bounded-memory mode drops the sample but keeps feeding the predictor.
            self.prediction.bw_rel_errors.push((achieved - pred) / pred);
        }
        self.mem_pred.observe_bandwidth(achieved);
    }

    /// The accelerator instance running `child`: the index carried in the
    /// transfer's [`Purpose`]. Tasks are non-preemptive, so the consumer
    /// cannot migrate while its inputs are in flight; debug builds check
    /// that the carried instance still runs `child`.
    fn consumer_inst(&self, child: TaskKey, carried: usize) -> usize {
        debug_assert!(
            self.insts[carried].running.as_ref().is_some_and(|r| r.key == child),
            "stale consumer instance carried in transfer purpose"
        );
        carried
    }

    fn input_transfer_done(&mut self, child: TaskKey, dst: usize) {
        let inst_idx = self.consumer_inst(child, dst);
        let done = {
            let r = self.insts[inst_idx].running.as_mut().expect("running");
            match &mut r.phase {
                RunPhase::Inputs { pending } => {
                    *pending -= 1;
                    *pending == 0
                }
                _ => unreachable!("input transfer completed outside input phase"),
            }
        };
        if done {
            self.start_compute(inst_idx);
        }
    }

    /// Conservation invariants, checked at the end of every run in debug
    /// builds and under the `invariants` feature:
    ///
    /// * bytes begun == bytes completed + bytes cancelled (once no
    ///   transfer is in flight — a truncated run legitimately leaves
    ///   in-flight remainders);
    /// * each instance's `remaining` counter equals its count of
    ///   not-completed nodes, so no task is ever both completed and
    ///   cancelled/aborted.
    #[cfg(any(debug_assertions, feature = "invariants"))]
    fn check_invariants(&self) {
        let (begun, completed, cancelled) = self.engine.byte_ledger();
        if !self.truncated && self.transfers.iter().all(Option::is_none) {
            assert_eq!(
                begun,
                completed + cancelled,
                "byte conservation violated: begun {begun} != completed {completed} \
                 + cancelled {cancelled}"
            );
        }
        for (i, d) in self.dags.iter().enumerate() {
            if d.retired {
                // A retired slot's node storage went back to the pool; its
                // remaining-vs-phases equality was asserted at retirement.
                continue;
            }
            let not_done = d.nodes.iter().filter(|n| n.phase != NodePhase::Done).count();
            assert_eq!(
                d.remaining, not_done,
                "instance {i}: remaining counter disagrees with node phases"
            );
        }
    }

    /// Retries every task stalled in `WaitPartition`.
    fn retry_stalled(&mut self) {
        for i in 0..self.insts.len() {
            let stalled = self.insts[i]
                .running
                .as_ref()
                .is_some_and(|r| r.phase == RunPhase::WaitPartition);
            if stalled {
                self.try_alloc_and_proceed(i);
            }
        }
    }

    // ------------------------------------------------------------------
    // Finalization
    // ------------------------------------------------------------------

    fn finalize(mut self) -> SimResult {
        self.fault_stats.channel_outages = self.engine.channel_outages_applied();
        #[cfg(any(debug_assertions, feature = "invariants"))]
        self.check_invariants();
        // Data-movement prediction errors (Table VIII): compare per
        // completed node once all movement is settled. Retired instances
        // folded their contributions at retirement; merging those with the
        // still-live instances and sorting by admission serial reproduces
        // the exact push order of a walk over never-recycled storage.
        if !self.cfg.bounded_memory {
            let mut dm = std::mem::take(&mut self.retired_dm);
            for d in &self.dags {
                if d.retired {
                    continue;
                }
                for rt in &d.nodes {
                    if rt.phase == NodePhase::Done && rt.actual_bytes > 0 && rt.pred_bytes > 0 {
                        let err = (rt.actual_bytes as f64 - rt.pred_bytes as f64)
                            / rt.pred_bytes as f64;
                        dm.push((d.serial, err));
                    }
                }
            }
            dm.sort_by_key(|&(serial, _)| serial);
            self.prediction.dm_rel_errors.extend(dm.into_iter().map(|(_, err)| err));
        }

        let exec_time = match self.cfg.time_limit {
            Some(limit) if self.truncated => limit.saturating_since(Time::ZERO),
            _ => self.last_completion.saturating_since(Time::ZERO),
        };

        // Starvation: a repeating app that never completed while others did.
        let any_completed = self.app_stats.iter().any(|a| a.dags_completed > 0);
        for (i, app) in self.apps.iter().enumerate() {
            if app.repeat && any_completed && self.app_stats[i].dags_completed == 0 {
                self.app_stats[i].starved = true;
            }
        }

        let traffic = TrafficStats {
            dram_read_bytes: self.engine.dram_read_bytes(),
            dram_write_bytes: self.engine.dram_write_bytes(),
            spad_to_spad_bytes: self.engine.spad_to_spad_bytes(),
            colocated_bytes: self.colocated_bytes,
            spad_access_bytes: self.spad_access_bytes,
            all_dram_bytes: self.all_dram_baseline_bytes,
        };
        // The only point where the dense AppId-indexed accumulators take
        // their public string-keyed form: one pass over the app specs
        // builds all three maps (app specs sharing a symbol collapse to
        // the same key with the same dense accumulator, exactly as the
        // separate per-map loops did).
        let mut apps_map = BTreeMap::new();
        let mut per_app_mem_time = BTreeMap::new();
        let mut per_app_compute_time = BTreeMap::new();
        for (a, id) in self.app_stats.iter().zip(&self.app_ids) {
            let name = a.name.clone();
            per_app_mem_time.insert(name.clone(), self.per_app_mem_time[id.index()]);
            per_app_compute_time.insert(name.clone(), self.per_app_compute_time[id.index()]);
            apps_map.insert(name, a.clone());
        }
        let edges_total = self.app_stats.iter().map(|a| a.edges_consumed).sum();
        let stats = RunStats {
            policy: self.cfg.policy.name().to_string(),
            exec_time,
            traffic,
            apps: apps_map,
            accel_busy: self.insts.iter().map(|i| i.compute_busy).sum(),
            interconnect_busy: self.engine.interconnect_busy(),
            dram_busy: self.engine.dram_busy(),
            scheduler_ops: self.sched_ops,
            scheduler_time: self.sched_time,
            edges_total,
            faults: self.fault_stats,
            service: self.frontend.take().map(Frontend::into_stats).unwrap_or_default(),
        };
        let trace = match &self.span_sink {
            Some(sink) => Trace { spans: sink.borrow_mut().take_spans() },
            None => Trace::default(),
        };
        SimResult {
            stats,
            per_app_mem_time,
            per_app_compute_time,
            prediction: self.prediction,
            trace,
            events_dispatched: self.events.dispatched(),
            live_high_water: self.dag_slots.slots() as u64,
        }
    }
}
