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
use crate::ledger::Ledger;
use crate::model::AppModel;
use crate::result::SimResult;
use crate::trace::{SpanCollector, Trace};
use crate::workload::AppSpec;
use relief_core::predict::DataMovePredictor;
use relief_core::{BandwidthPredictor, Policy, ReadyQueues, TaskEntry, TaskKey};
use relief_dag::{Dag, NodeId};
use relief_fault::{FaultDomain, Refetch, TaskFault};
use relief_mem::{Port, Progress, Route, TransferEngine, TransferId};
use relief_metrics::{RunStats, TrafficStats};
use relief_service::Frontend;
use relief_sim::{Dur, EventQueue, SlotAlloc, SplitMix64, StallError, StallKind, Time, Timeline};
use relief_trace::{EventKind, InputSource, ResourceId, TaskRef, Tracer};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Why [`SocSim::fork`] cannot copy a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForkError {
    /// The run serves an open-loop stream (`cfg.stream` is enabled): the
    /// request frontend's admission, breaker and service state is not
    /// copied.
    OpenLoopStream,
}

impl fmt::Display for ForkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForkError::OpenLoopStream => {
                write!(f, "cannot fork an open-loop run: the request frontend is not copied")
            }
        }
    }
}

impl std::error::Error for ForkError {}

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
    pred_bytes: u64,
    pred_bw: f64,
    actual_bytes: u64,
    /// 0-based compute attempt (only ever nonzero under fault injection).
    attempts: u32,
}

impl NodeRt {
    fn new(children: usize) -> Self {
        NodeRt {
            phase: NodePhase::Waiting,
            completed_parents: 0,
            pending_readers: children,
            out: OutLoc::NotProduced,
            pred_bytes: 0,
            pred_bw: 0.0,
            actual_bytes: 0,
            attempts: 0,
        }
    }
}

/// `(actual, predicted)` bytes moved by each completed node, in node
/// order: what an instance reports to [`Ledger::data_moved`].
fn moved_bytes(nodes: &[NodeRt]) -> impl Iterator<Item = (u64, u64)> + '_ {
    nodes.iter().filter(|rt| rt.phase == NodePhase::Done).map(|rt| (rt.actual_bytes, rt.pred_bytes))
}

/// One live DAG instance.
#[derive(Debug, Clone)]
struct DagInst {
    app_idx: usize,
    dag: Arc<Dag>,
    arrival: Time,
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
    /// Every [`TaskKey`], trace event, fault verdict, and statistic
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

#[derive(Debug, Clone)]
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
    /// When compute began (trace, and the measured compute time).
    compute_start: Time,
}

/// One accelerator instance.
#[derive(Debug, Clone)]
struct AccInst {
    running: Option<Running>,
    /// Previously executed node — the colocation tracker (§III-B).
    last_node: Option<TaskKey>,
    parts: Vec<Partition>,
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
    /// payload is the re-fetch's handle in the fault domain — parked out of
    /// line so `Ev` stays two words (the event queue is a sorted vec that
    /// memmoves on insert; a fat variant would tax every event, and
    /// re-fetches are rare).
    EccRefetch(u32),
    /// A streamed request's deadline-derived timeout expired. A timeout
    /// deliberately outlives resolved requests, so it carries both the
    /// storage slot and the admission serial: a mismatch (or a retired
    /// slot) means the slot was recycled and the event is stale.
    Timeout { slot: u32, serial: u32 },
}

/// The watchdog's view of progress: when simulated time last advanced,
/// and the dispatch count at that moment.
#[derive(Debug, Default)]
struct Watchdog {
    last_time: Time,
    last_advance: u64,
}

/// Every queued event pays `Ev`'s size in the event queue's insert
/// memmoves, so fat payloads must be parked out of line (see
/// [`Ev::EccRefetch`]).
const _: () = assert!(std::mem::size_of::<Ev>() <= 16);

/// One in-flight transfer the simulator tracks.
#[derive(Debug, Clone, Copy)]
struct Tracked {
    /// The engine's id, so the chaos paths (ECC invalidation, timeout
    /// cancellation) can address the transfer.
    id: TransferId,
    purpose: Purpose,
    /// Delivered chunks so far, the ECC verdict's chunk identity.
    chunks: u32,
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
    events: EventQueue<Ev>,
    now: Time,
    seq: u64,
    /// In-flight transfers, indexed by the engine's dense slot id
    /// ([`TransferId::slot`]): a bounds check instead of a hash probe on
    /// every chunk event, with slot reuse keeping the column at the
    /// high-water mark of concurrent transfers.
    transfers: Vec<Option<Tracked>>,
    manager: Timeline,
    /// The DRAM bandwidth predictor (§III-B), fed every achieved rate.
    bw: BandwidthPredictor,
    /// Per app spec, its constants (`model.rs`): symbol, deadlines,
    /// compute predictions and predicted DRAM bytes. Forks share it.
    models: Rc<[AppModel]>,
    rng: SplitMix64,
    /// The fault domain (`relief-fault`): verdicts, recovery rules, outage
    /// schedules, parked ECC re-fetches and fault statistics. Its verdicts
    /// are pure functions of `cfg.fault`, so fault schedules are identical
    /// at any campaign parallelism.
    faults: FaultDomain,
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
    // --- hot-path scratch buffers (reused across events; emptied after
    // each use — see DESIGN.md "Hot-path architecture") ---
    batch_scratch: Vec<TaskEntry>,
    ready_scratch: Vec<NodeId>,
    idle_scratch: Vec<usize>,
    /// Every statistic the run accumulates toward its [`RunStats`].
    ledger: Ledger,
    /// Fan-out handle shared (as clones) by every instrumented component.
    tracer: Tracer,
    /// Internal sink distilling `ComputeEnd` events into the ASCII
    /// schedule trace; attached only when `cfg.record_trace` is set.
    span_sink: Option<Rc<RefCell<SpanCollector>>>,
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
        // Arm the first deterministic outage window of every instance.
        let mut faults = FaultDomain::new(&cfg.fault, total_insts);
        for i in 0..total_insts {
            if let Some(at) = faults.arm_outage(i) {
                events.push(at, Ev::UnitDown(i));
            }
        }
        let mut sim = SocSim {
            policy: cfg.policy.build(),
            queues: ReadyQueues::new(num_types),
            engine: TransferEngine::new(cfg.mem, total_insts),
            insts,
            type_insts,
            dags: Vec::new(),
            dag_slots: SlotAlloc::new(),
            next_dag_serial: 0,
            node_pools: vec![Vec::new(); apps.len()],
            active_work: 0,
            events,
            now: Time::ZERO,
            seq: 0,
            transfers: Vec::new(),
            manager: Timeline::new(),
            bw: cfg.bw_predictor.build(cfg.mem.dram_bandwidth),
            models: AppModel::table(&cfg, &apps).into(),
            rng: SplitMix64::new(cfg.seed),
            pending_arrivals,
            cancels_on: faults.enabled() || frontend.as_ref().is_some_and(Frontend::self_heal_on),
            faults,
            frontend,
            batch_scratch: Vec::new(),
            ready_scratch: Vec::new(),
            idle_scratch: Vec::new(),
            ledger: Ledger::new(&apps, cfg.bounded_memory),
            tracer: Tracer::off(),
            span_sink: None,
            truncated: false,
            cfg,
            apps,
        };
        // Deterministic DRAM-channel blackout windows: installed before any
        // transfer begins, so the engine's gate sees the schedule from
        // picosecond zero.
        if let Some(windows) = sim.faults.channel_windows() {
            sim.engine.set_dram_outages(windows);
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
        self.faults.set_tracer(self.tracer.clone());
        if let Some(fe) = &mut self.frontend {
            fe.set_tracer(self.tracer.clone());
        }
    }

    /// Runs the simulation to completion (all work drained, or the
    /// configured time limit reached) and returns the collected results.
    ///
    /// The loop pops and dispatches one event at a time, checking the
    /// time limit against the head of the queue before each.
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
        let mut watch = Watchdog::default();
        while let Some(at) = self.events.peek_time() {
            if self.cfg.time_limit.is_some_and(|limit| at > limit) {
                // A truncated run counts exactly one event past the limit
                // as dispatched (the first one popped there); the
                // continuous-contention corpus cells pin this.
                self.events.pop();
                self.truncated = true;
                break;
            }
            self.step(&mut watch)?;
        }
        self.finish()
    }

    /// Dispatches every event scheduled before `t`, then pauses so
    /// [`fork`](Self::fork) can copy the state. The first event at or
    /// after `t` stays queued, as does one past the configured time limit
    /// (left for [`try_run`](Self::try_run) to truncate at). Resuming with
    /// `try_run`, or pausing again at a later `t`, dispatches exactly the
    /// events an uninterrupted run would, in the same order.
    ///
    /// The watchdog's no-progress window restarts at each call. That is
    /// exact: every event at one instant is dispatched within one call,
    /// and the window only counts events since simulated time last
    /// advanced.
    ///
    /// # Errors
    ///
    /// Returns [`StallError`] when the no-progress window elapses before
    /// `t` (a livelock).
    pub fn run_until(&mut self, t: Time) -> Result<(), StallError> {
        let mut watch = Watchdog::default();
        let limit = self.cfg.time_limit;
        while self.events.peek_time().is_some_and(|at| at < t && limit.is_none_or(|l| at <= l)) {
            self.step(&mut watch)?;
        }
        Ok(())
    }

    /// Pops and dispatches the head event, then applies the watchdog's
    /// no-progress window: the one dispatch step of
    /// [`try_run`](Self::try_run) and [`run_until`](Self::run_until).
    /// A livelock is reported at the first event past the window.
    #[inline(always)]
    fn step(&mut self, watch: &mut Watchdog) -> Result<(), StallError> {
        let Some((at, ev)) = self.events.pop() else { return Ok(()) };
        self.now = at;
        if at > watch.last_time {
            // The event that advances time is the first of the window.
            watch.last_time = at;
            watch.last_advance = self.events.dispatched() - 1;
        }
        self.dispatch(ev);
        let window = self.cfg.watchdog_window;
        if window > 0 && self.events.dispatched() - watch.last_advance > window {
            return Err(self.stall(StallKind::NoProgressWindow));
        }
        Ok(())
    }

    /// Copies a paused simulation (see [`run_until`](Self::run_until)):
    /// every queued event, in-flight transfer, scratchpad partition,
    /// ready queue, predictor, RNG draw position, fault cursor and
    /// statistic, with `policy` in place of the policy object and
    /// `tracer`'s sinks in place of the attached ones (the internal span
    /// collector of `cfg.record_trace` is copied with its spans). The
    /// original is untouched and may be forked again.
    ///
    /// The policy object's state is not copied: pass one that continues
    /// where the original's left off, such as a
    /// [`ScheduleReplay`](relief_core::ScheduleReplay) of the launches not
    /// yet dispatched. Then resuming the fork reproduces the uninterrupted
    /// run's results, event count and trace from the pause on.
    ///
    /// # Errors
    ///
    /// Returns [`ForkError::OpenLoopStream`] when `cfg.stream` is enabled:
    /// the request frontend's state is not copied.
    pub fn fork(&self, policy: Box<dyn Policy>, tracer: &Tracer) -> Result<SocSim, ForkError> {
        if self.frontend.is_some() {
            return Err(ForkError::OpenLoopStream);
        }
        let mut sim = SocSim {
            cfg: self.cfg.clone(),
            apps: self.apps.clone(),
            policy,
            queues: self.queues.clone(),
            engine: self.engine.clone(),
            insts: self.insts.clone(),
            type_insts: self.type_insts.clone(),
            dags: self.dags.clone(),
            dag_slots: self.dag_slots.clone(),
            next_dag_serial: self.next_dag_serial,
            node_pools: self.node_pools.clone(),
            active_work: self.active_work,
            events: self.events.clone(),
            now: self.now,
            seq: self.seq,
            transfers: self.transfers.clone(),
            manager: self.manager.clone(),
            bw: self.bw.clone(),
            models: Rc::clone(&self.models),
            rng: self.rng.clone(),
            faults: self.faults.clone(),
            pending_arrivals: self.pending_arrivals,
            frontend: None,
            cancels_on: self.cancels_on,
            // The scratch buffers are empty between events.
            batch_scratch: Vec::new(),
            ready_scratch: Vec::new(),
            idle_scratch: Vec::new(),
            ledger: self.ledger.clone(),
            tracer: Tracer::off(),
            span_sink: None,
            truncated: self.truncated,
        };
        if let Some(spans) = &self.span_sink {
            let copy = Rc::new(RefCell::new(spans.borrow().clone()));
            sim.tracer.attach(copy.clone());
            sim.span_sink = Some(copy);
        }
        sim.tracer.merge(tracer);
        sim.wire_tracer();
        Ok(sim)
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
            app: Arc::clone(&self.models[app_idx].symbol),
            nodes: remaining as u32,
        });

        let dag = Arc::clone(&self.dags[slot as usize].dag);
        let mut batch = self.take_batch_buf();
        for n in dag.roots() {
            self.dags[slot as usize].nodes[n.index()].phase = NodePhase::Ready;
            batch.push(self.make_entry(TaskKey::new(instance, n.0), slot, false, 0));
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

    /// Reports the instance's data movement to the ledger, returns its
    /// `NodeRt` storage to the app's pool, and releases the slot for
    /// reuse.
    fn retire(&mut self, slot: u32) {
        let s = slot as usize;
        debug_assert_eq!(
            self.dags[s].remaining,
            self.dags[s].nodes.iter().filter(|n| n.phase != NodePhase::Done).count(),
            "remaining counter disagrees with node phases at retirement"
        );
        let nodes = std::mem::take(&mut self.dags[s].nodes);
        // Reported here so `finalize` stays O(live set).
        self.ledger.data_moved(self.dags[s].serial, moved_bytes(&nodes));
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
            let Some(Tracked { id, purpose, .. }) = self.transfers[t] else { continue };
            let (src_spad, pslot) = match purpose {
                Purpose::InputEdge { src_spad, slot: pslot, .. } => (src_spad, pslot),
                Purpose::DramInput { slot: pslot, .. } => (None, pslot),
                Purpose::WriteBack { .. } => continue,
            };
            if pslot != slot {
                continue;
            }
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
    /// predicted DRAM bytes, less the `coloc_bytes` of an in-edge
    /// predicted to colocate, over predicted bandwidth), deadline
    /// resolved for the active policy's scheme, forwarding-candidate flag
    /// for RELIEF. The entry pins the instance (carried in
    /// [`TaskEntry::slot`]) until it is popped.
    fn make_entry(
        &mut self,
        key: TaskKey,
        slot: u32,
        fwd_candidate: bool,
        coloc_bytes: u64,
    ) -> TaskEntry {
        let nid = NodeId(key.node);
        let d = &self.dags[slot as usize];
        let acc = d.dag.node(nid).acc;
        let model = &self.models[d.app_idx];
        let pred_bytes = model.dram_bytes[nid.index()] - coloc_bytes;
        let pred_bw = self.bw.predict();
        let runtime =
            model.compute[nid.index()] + Dur::for_bytes(pred_bytes, pred_bw.max(1.0) as u64);
        let rel = match self.policy.deadline_scheme() {
            relief_core::DeadlineScheme::Dag => model.deadlines.dag,
            relief_core::DeadlineScheme::NodeCriticalPath => model.deadlines.node_deadline(nid),
            relief_core::DeadlineScheme::HetSchedSdr => model.deadlines.hetsched_deadline(nid),
        };
        let deadline = d.arrival + rel;

        let d = &mut self.dags[slot as usize];
        let rt = &mut d.nodes[nid.index()];
        rt.pred_bytes = pred_bytes;
        rt.pred_bw = pred_bw;
        d.pins += 1;

        let seq = self.seq;
        self.seq += 1;
        let mut e = TaskEntry::new(key, acc, runtime, deadline).with_seq(seq).with_slot(slot);
        if fwd_candidate {
            e = e.forwarding_candidate();
        }
        e
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
        self.ledger.scheduled(inserted);
        let launch_at = if self.cfg.model_sched_overhead {
            let cost = self.cfg.sched_base_cost + self.cfg.sched_insert_cost * inserted;
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

            // Colocation: data already in place on this accelerator.
            let is_coloc = coloc_part.is_some()
                && self.node_rt(slot, pk.node).out.spad() == coloc_part.map(|c| (inst_idx, c))
                && self.insts[inst_idx].last_node == Some(pk);
            if is_coloc {
                self.ledger.edge(app_idx, InputSource::Colocated, bytes);
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
                    self.insts[inst_idx].running.as_mut().expect("task assigned").fwd_inputs += 1;
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
                    (Route { src: Port::Dram, dst: Port::Spad(inst_idx) }, None)
                }
            };
            let source = match src_spad {
                Some((si, _)) => InputSource::Forwarded { from_inst: si as u32 },
                None => InputSource::Dram,
            };
            self.ledger.edge(app_idx, source, bytes);
            self.tracer.emit(self.now.as_ps(), || EventKind::InputSourced {
                task: tref(key),
                inst: inst_idx as u32,
                parent: Some(tref(pk)),
                source,
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
            self.ledger.spad_port(bytes);
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
        // Functional unit touches its inputs and output in the scratchpad.
        self.ledger.compute(d.app_idx, dur, input_bytes + spec.output_bytes);
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
        let attempt = self.node_rt(slot, key.node).attempts;
        let verdict = self.faults.compute_done(self.now, tref(key), inst_idx as u32, attempt);
        if let Some(verdict) = verdict {
            self.on_task_fault(inst_idx, r, attempt, verdict);
            return;
        }
        self.insts[inst_idx].last_node = Some(key);
        {
            let app_idx = self.dags[slot as usize].app_idx;
            self.tracer.emit(self.now.as_ps(), || EventKind::ComputeEnd {
                task: tref(key),
                inst: inst_idx as u32,
                start_ps: r.compute_start.as_ps(),
                app: Arc::clone(&self.models[app_idx].symbol),
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

        // Per-node statistics.
        let (app_idx, node_met, dag_done, dag_runtime_met, dag_arrival, touched) = {
            let d = &mut self.dags[slot as usize];
            d.remaining -= 1;
            let nd = d.arrival + self.models[d.app_idx].deadlines.node_deadline(NodeId(key.node));
            let dag_done = d.remaining == 0 && !d.aborted;
            let met = self.now.saturating_since(d.arrival) <= d.dag.relative_deadline();
            // The all-DRAM baseline counts the node's inputs and output.
            let touched = r.input_bytes + d.dag.node(NodeId(key.node)).output_bytes;
            (d.app_idx, self.now <= nd, dag_done, met, d.arrival, touched)
        };
        // The measured compute time is the jittered duration
        // `ComputeDone` was scheduled after.
        let predicted = self.models[app_idx].compute[key.node as usize];
        let actual = self.now - r.compute_start;
        self.ledger.node_done(app_idx, self.now, node_met, touched, predicted, actual);
        if let Some(fe) = &mut self.frontend {
            fe.on_node_done(self.now, app_idx, dag_arrival, node_met);
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
            let deadlines = &self.models[self.dags[slot as usize].app_idx].deadlines;
            let finisher_acc = dag.node(NodeId(key.node)).acc;
            newly_ready
                .iter()
                .copied()
                .min_by_key(|&c| deadlines.node_deadline(c))
                .filter(|&c| dag.node(c).acc == finisher_acc)
        } else {
            None
        };

        let mut batch = self.take_batch_buf();
        let output_bytes = dag.node(NodeId(key.node)).output_bytes;
        for &c in &newly_ready {
            let coloc_bytes = if coloc_child == Some(c) { output_bytes } else { 0 };
            batch.push(self.make_entry(TaskKey::new(key.instance, c.0), slot, true, coloc_bytes));
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
        let all_next_in_line = !self.faults.enabled()
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
        // A miss after fault-recovery delay is attributed to the faults (a
        // fault-free miss under the same contention is possible, but the
        // attribution is what the resilience campaign sweeps).
        self.faults.dag_done(self.now, instance, met, self.dags[slot as usize].faults);
        let runtime = self.now.saturating_since(self.dags[slot as usize].arrival);
        self.ledger.dag_done(app_idx, met, runtime);
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
    /// re-consume every edge), and act on the fault domain's verdict:
    /// re-queue the task after its backoff, or abort it.
    fn on_task_fault(&mut self, inst_idx: usize, r: Running, attempt: u32, verdict: TaskFault) {
        let key = r.key;
        let slot = r.slot;
        self.dags[slot as usize].faults += 1;
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
        debug_assert_eq!(self.node_rt(slot, key.node).out, OutLoc::NotProduced);
        match verdict {
            TaskFault::Retry(backoff) => {
                let rt = self.node_rt_mut(slot, key.node);
                rt.attempts = attempt + 1;
                rt.phase = NodePhase::Waiting; // Ready ⟺ queued
                self.events.push(self.now + backoff, Ev::Requeue { slot, key });
                // The scheduled requeue takes its own pin before the
                // running task's pin drops below.
                self.dags[slot as usize].pins += 1;
            }
            TaskFault::Abort => {
                self.node_rt_mut(slot, key.node).phase = NodePhase::Aborted;
                let was_aborted = std::mem::replace(&mut self.dags[slot as usize].aborted, true);
                if !was_aborted {
                    self.active_work -= 1;
                    // The instance will never complete; later sibling
                    // aborts must not report the request again. Any
                    // breaker transition precedes the abort's record.
                    if let Some(fe) = &mut self.frontend {
                        fe.on_abort(self.now, self.dags[slot as usize].app_idx);
                    }
                }
                self.faults.aborted(self.now, tref(key), attempt + 1);
            }
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
        self.faults.retried(self.now, tref(key), acc.0, attempt);
        self.node_rt_mut(slot, key.node).phase = NodePhase::Ready;
        let mut batch = self.take_batch_buf();
        batch.push(self.make_entry(key, slot, false, 0));
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
        let Some(up) = self.faults.unit_down(self.now, inst_idx) else { return };
        self.insts[inst_idx].quarantined = true;
        self.events.push(up, Ev::UnitUp(inst_idx));
    }

    /// The outage's repair completed: the unit rejoins the candidate set.
    /// The next outage window is armed only while work remains, so a
    /// drained simulation is not kept alive by an infinite outage stream.
    fn on_unit_up(&mut self, inst_idx: usize) {
        self.insts[inst_idx].quarantined = false;
        // Cancelled instances never finish their remaining nodes, so they
        // must not keep the outage stream (and thus the run) alive.
        let outstanding = self.pending_arrivals > 0 || self.active_work > 0;
        let next_down = self.faults.unit_up(self.now, inst_idx, outstanding);
        self.events.push(self.now, Ev::Launch);
        if let Some(at) = next_down {
            self.events.push(at, Ev::UnitDown(inst_idx));
        }
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
        self.ledger.spad_port(bytes); // producer SPAD read
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
        }
        debug_assert!(self.transfers[slot].is_none(), "slot reused while purpose still tracked");
        self.transfers[slot] = Some(Tracked { id, purpose, chunks: 0 });
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
        if self.faults.enabled() {
            let t = self.transfers[id.slot()].as_mut().expect("live transfers are tracked");
            let chunk = t.chunks;
            t.chunks += 1;
            if let Purpose::InputEdge { src_spad: Some(src), child, parent, attempt, dst, slot } =
                t.purpose
            {
                let task = tref(child);
                if self.faults.ecc_chunk_faults(task, parent.node, chunk, attempt) {
                    let req = Refetch { task, parent: parent.node, attempt, dst: dst as u32, slot };
                    self.on_ecc_fault(id, src, req);
                    return;
                }
            }
        }
        match self.engine.on_chunk_done(id, self.now) {
            Progress::Chunk(next) => self.events.push(next, Ev::Chunk(id)),
            Progress::Done { start, end, bytes } => {
                let purpose = self.transfers[id.slot()].take().expect("tracked transfer").purpose;
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
                let task = tref(child);
                if self.faults.delivery_corrupt(self.now, task, Some(parent.node), bytes, attempt) {
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
                if self.faults.delivery_corrupt(self.now, tref(child), None, bytes, attempt) {
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
    /// The fault domain never corrupts delivery attempt `max_retries`, so
    /// the chain is bounded by a verified final read.
    fn on_dma_fault(
        &mut self,
        child: TaskKey,
        parent: Option<TaskKey>,
        bytes: u64,
        attempt: u32,
        dst: usize,
        slot: u32,
    ) {
        self.dags[slot as usize].faults += 1;
        let inst_idx = self.consumer_inst(child, dst);
        self.reread(child, parent, bytes, attempt + 1, inst_idx, slot);
        // The released forwarding-source partition may unblock a claim.
        self.retry_stalled();
    }

    /// Starts delivery attempt `attempt` of `child`'s input from DRAM into
    /// its unit `dst`: the edge from `parent`, or the primary input when
    /// `parent` is `None`. The retry rewrites the local scratchpad.
    fn reread(
        &mut self,
        child: TaskKey,
        parent: Option<TaskKey>,
        bytes: u64,
        attempt: u32,
        dst: usize,
        slot: u32,
    ) {
        self.ledger.spad_port(bytes);
        self.node_rt_mut(slot, child.node).actual_bytes += bytes;
        let route = Route { src: Port::Dram, dst: Port::Spad(dst) };
        let (id, first) = self.engine.begin(route, bytes, dst, self.now);
        let purpose = match parent {
            Some(parent) => {
                Purpose::InputEdge { child, parent, src_spad: None, attempt, dst, slot }
            }
            None => Purpose::DramInput { child, attempt, dst, slot },
        };
        self.track(id, purpose);
        self.events.push(first, Ev::Chunk(id));
    }

    /// A forwarded chunk failed its ECC check: the forwarding window is
    /// invalidated. The whole transfer is cancelled (chunks that already
    /// moved keep their attribution — the bytes crossed the wire before
    /// failing verification), the producer partition's reader count
    /// drops, and the fault domain parks a re-fetch of the parent's
    /// checkpointed DRAM copy — which exists by construction, since fault
    /// injection forces write-backs — due after a bounded backoff.
    fn on_ecc_fault(&mut self, id: TransferId, src: (usize, usize), req: Refetch) {
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
        let (due, idx) = self.faults.ecc_corrupted(self.now, req);
        self.events.push(due, Ev::EccRefetch(idx));
        // The released reader may unblock a partition claim.
        self.retry_stalled();
    }

    /// An ECC invalidation's backoff expired: re-read the corrupted edge
    /// from DRAM. The consumer cannot have moved (tasks are
    /// non-preemptive and it is still in its input phase); if its request
    /// was cancelled in the meantime the re-fetch is dropped — the unit
    /// was already released.
    fn on_ecc_refetch(&mut self, idx: u32) {
        let Refetch { task, parent, attempt, dst, slot } = self.faults.take_refetch(idx);
        if self.dags[slot as usize].cancelled {
            // The request timed out during the backoff; drop the parked
            // pin (the unit was already released at cancellation).
            self.unpin_dag(slot);
            return;
        }
        let bytes = self.dags[slot as usize].dag.node(NodeId(parent)).output_bytes;
        let child = TaskKey::new(task.instance, task.node);
        let parent = TaskKey::new(task.instance, parent);
        self.reread(child, Some(parent), bytes, attempt, dst as usize, slot);
        // The fresh transfer re-pinned the instance; the parked re-fetch's
        // pin hands off to it.
        self.dags[slot as usize].pins -= 1;
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
        self.ledger.mem_time(self.dags[slot as usize].app_idx, Dur::for_bytes(bytes, rate));
    }

    fn observe_bandwidth(&mut self, slot: u32, node: u32, bytes: u64, dur: Dur) {
        if bytes == 0 || dur.is_zero() {
            return;
        }
        let achieved = bytes as f64 / dur.as_secs_f64();
        // Max always overestimates under contention, yielding Table VIII's
        // negative errors. The predictor is fed in bounded-memory mode too.
        self.ledger.bandwidth(achieved, self.node_rt(slot, node).pred_bw);
        self.bw.observe(achieved);
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
        #[cfg(any(debug_assertions, feature = "invariants"))]
        self.check_invariants();
        // Data-movement prediction errors (Table VIII) of the instances
        // still live; retired ones reported theirs at retirement.
        for d in self.dags.iter().filter(|d| !d.retired) {
            self.ledger.data_moved(d.serial, moved_bytes(&d.nodes));
        }
        let measured = RunStats {
            policy: self.cfg.policy.name().to_string(),
            traffic: TrafficStats {
                dram_read_bytes: self.engine.dram_read_bytes(),
                dram_write_bytes: self.engine.dram_write_bytes(),
                spad_to_spad_bytes: self.engine.spad_to_spad_bytes(),
                ..TrafficStats::default()
            },
            interconnect_busy: self.engine.interconnect_busy(),
            dram_busy: self.engine.dram_busy(),
            scheduler_time: self.manager.stats().busy,
            faults: self.faults.into_stats(self.engine.channel_outages_applied()),
            service: self.frontend.take().map(Frontend::into_stats).unwrap_or_default(),
            ..RunStats::default()
        };
        let trace = match &self.span_sink {
            Some(sink) => Trace { spans: sink.borrow_mut().take_spans() },
            None => Trace::default(),
        };
        let cap = self.cfg.time_limit.filter(|_| self.truncated);
        SimResult {
            trace,
            events_dispatched: self.events.dispatched(),
            live_high_water: self.dag_slots.slots() as u64,
            ..self.ledger.finish(cap, measured)
        }
    }
}
