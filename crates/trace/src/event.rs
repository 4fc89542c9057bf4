//! The structured event taxonomy emitted by every layer of the simulator.
//!
//! Events deliberately use raw integers (`u64` picoseconds, `u32`
//! instance/node ids) rather than the typed wrappers from `relief-sim` /
//! `relief-core`: this crate sits *below* every other crate in the
//! workspace, so it cannot name their types. The emitting layers convert
//! at the instrumentation point.

use std::fmt;
use std::sync::Arc;

/// Identity of one task: DAG instance index plus node index. Mirrors
/// `relief_core::TaskKey` and renders the same way (`d3:n7`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskRef {
    /// Index of the DAG instance the task belongs to.
    pub instance: u32,
    /// Node index within the DAG.
    pub node: u32,
}

impl fmt::Display for TaskRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}:n{}", self.instance, self.node)
    }
}

/// One end of a data transfer: main memory or an accelerator scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The DRAM channel.
    Dram,
    /// The scratchpad of accelerator instance `0` (by instance index).
    Spad(u32),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Dram => write!(f, "dram"),
            Endpoint::Spad(i) => write!(f, "spad{i}"),
        }
    }
}

/// Where a task input physically came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSource {
    /// Loaded from main memory.
    Dram,
    /// SPAD-to-SPAD forward from another accelerator instance.
    Forwarded {
        /// Producing accelerator instance index.
        from_inst: u32,
    },
    /// Producer output already resident in this instance's scratchpad.
    Colocated,
}

impl fmt::Display for InputSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputSource::Dram => write!(f, "dram"),
            InputSource::Forwarded { from_inst } => write!(f, "fwd(inst{from_inst})"),
            InputSource::Colocated => write!(f, "coloc"),
        }
    }
}

/// Why a forwarding-node priority escalation was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DenyReason {
    /// No idle accelerator budget: every possible forward slot is taken.
    NoIdleBudget,
    /// Algorithm 2 found no victim whose laxity can absorb the insertion.
    Infeasible,
}

impl fmt::Display for DenyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenyReason::NoIdleBudget => write!(f, "no-idle-budget"),
            DenyReason::Infeasible => write!(f, "infeasible"),
        }
    }
}

/// QoS class of a tenant's requests (SQUASH-style per-class contracts).
///
/// The one definition of the class: trace events carry it, the service
/// frontend re-exports it as `relief_service::QosClass`, and the
/// per-class statistics in `relief-metrics` are indexed by
/// [`QosClass::index`]. It lives here because this crate sits below the
/// others.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QosClass {
    /// Interactive traffic: full admission headroom.
    Latency,
    /// Default traffic class.
    #[default]
    Standard,
    /// Scavenger traffic: first to be shed under overload.
    BestEffort,
}

impl QosClass {
    /// Every class, in severity order.
    pub const ALL: [QosClass; 3] = [QosClass::Latency, QosClass::Standard, QosClass::BestEffort];

    /// Stable display/index name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QosClass::Latency => "latency",
            QosClass::Standard => "standard",
            QosClass::BestEffort => "besteffort",
        }
    }

    /// Dense index, the position in [`QosClass::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses a class name as written by [`QosClass::name`] (plus common
    /// short forms).
    ///
    /// # Errors
    ///
    /// Returns the offending string on an unknown name.
    pub fn parse(s: &str) -> Result<QosClass, String> {
        match s {
            "latency" | "lat" => Ok(QosClass::Latency),
            "standard" | "std" => Ok(QosClass::Standard),
            "besteffort" | "be" => Ok(QosClass::BestEffort),
            other => Err(format!("unknown qos class '{other}'")),
        }
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which admission check shed a streamed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedCause {
    /// The tenant's token bucket was empty.
    Bucket,
    /// The class's share of the global in-flight cap was full.
    Capacity,
    /// The tenant's circuit breaker was open (or a half-open probe draw
    /// failed).
    Breaker,
}

impl fmt::Display for ShedCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedCause::Bucket => write!(f, "token-bucket"),
            ShedCause::Capacity => write!(f, "in-flight-cap"),
            ShedCause::Breaker => write!(f, "circuit-breaker"),
        }
    }
}

/// A single-server resource whose occupancy is traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceId {
    /// The hardware-manager scheduling engine.
    Manager,
    /// The DRAM channel.
    Dram,
    /// DMA engine `0`.
    Dma(u32),
    /// Interconnect lane `0`.
    IcnLane(u32),
    /// Scratchpad port of accelerator instance `0`.
    SpadPort(u32),
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceId::Manager => write!(f, "manager"),
            ResourceId::Dram => write!(f, "dram"),
            ResourceId::Dma(i) => write!(f, "dma{i}"),
            ResourceId::IcnLane(i) => write!(f, "icn{i}"),
            ResourceId::SpadPort(i) => write!(f, "spad-port{i}"),
        }
    }
}

/// A timestamped structured event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event, in picoseconds.
    pub at_ps: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Everything the stack can report. Variants are grouped by the crate
/// that emits them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    // ---- relief-sim ----
    /// The simulation kernel dispatched an event from its queue.
    EventDispatched {
        /// Running count of dispatched events (0-based).
        index: u64,
    },
    /// A traced [`ResourceId`] was reserved for `[start_ps, end_ps)`.
    ResourceBusy {
        /// Which resource.
        resource: ResourceId,
        /// Reservation start, picoseconds.
        start_ps: u64,
        /// Reservation end, picoseconds.
        end_ps: u64,
    },

    // ---- relief-mem ----
    /// A DMA transfer was accepted by the transfer engine.
    DmaStart {
        /// Engine-assigned transfer id.
        xfer: u64,
        /// DMA engine index carrying the transfer.
        dma: u32,
        /// Source endpoint.
        src: Endpoint,
        /// Destination endpoint.
        dst: Endpoint,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A DMA transfer fully completed.
    DmaEnd {
        /// Engine-assigned transfer id (matches the `DmaStart`).
        xfer: u64,
        /// DMA engine index that carried the transfer.
        dma: u32,
        /// Source endpoint.
        src: Endpoint,
        /// Destination endpoint.
        dst: Endpoint,
        /// Payload size in bytes.
        bytes: u64,
        /// When the first chunk started moving, picoseconds.
        start_ps: u64,
        /// Total time chunks spent waiting for resources, picoseconds.
        queued_ps: u64,
    },
    /// A DMA transfer was cancelled mid-flight; no `DmaEnd` follows.
    DmaCancelled {
        /// Engine-assigned transfer id (matches the `DmaStart`).
        xfer: u64,
        /// DMA engine index that carried the transfer.
        dma: u32,
        /// Source endpoint.
        src: Endpoint,
        /// Destination endpoint.
        dst: Endpoint,
        /// Bytes actually moved before the cancel (chunks completed).
        bytes: u64,
    },
    /// A DRAM-channel blackout window delayed a chunk start.
    ChannelOutage {
        /// Blackout window start, picoseconds.
        start_ps: u64,
        /// Blackout window end (chunk starts resume), picoseconds.
        end_ps: u64,
    },

    // ---- relief-core ----
    /// RELIEF Algorithm 1 escalated a forwarding node to the queue front.
    EscalationGranted {
        /// The escalated task.
        task: TaskRef,
        /// Accelerator type the task queued on.
        acc: u32,
        /// Laxity-order position the node would have taken — i.e. how many
        /// queued entries the escalation jumped past.
        index: u64,
    },
    /// RELIEF declined to escalate a forwarding node.
    EscalationDenied {
        /// The rejected task.
        task: TaskRef,
        /// Accelerator type the task queued on.
        acc: u32,
        /// Why escalation was rejected.
        reason: DenyReason,
    },
    /// RELIEF Algorithm 2 evaluated whether an escalation is feasible.
    FeasibilityCheck {
        /// The candidate forwarding task.
        task: TaskRef,
        /// Accelerator type whose queue was inspected.
        acc: u32,
        /// Queue position the candidate would take.
        index: u64,
        /// The verdict.
        feasible: bool,
    },
    /// A laxity-driven pop bypassed `skipped` queued tasks (queue
    /// reordering at dispatch time).
    QueueBypass {
        /// The task that was popped out of order.
        task: TaskRef,
        /// Accelerator type of the queue.
        acc: u32,
        /// How many earlier entries were skipped.
        skipped: u64,
    },

    // ---- relief-accel ----
    /// A DAG instance arrived and its tasks entered the system.
    DagArrived {
        /// DAG instance index.
        instance: u32,
        /// Application symbol/name, shared by every record of the app.
        app: Arc<str>,
        /// Node count of the DAG.
        nodes: u32,
    },
    /// A task's dependencies resolved; it entered a ready queue.
    TaskReady {
        /// The task.
        task: TaskRef,
        /// Accelerator type it queues on.
        acc: u32,
    },
    /// The manager dispatched a task to a concrete accelerator instance.
    TaskDispatched {
        /// The task.
        task: TaskRef,
        /// Accelerator instance index it runs on.
        inst: u32,
    },
    /// One input edge of a dispatched task was sourced.
    InputSourced {
        /// The consuming task.
        task: TaskRef,
        /// Accelerator instance the task runs on.
        inst: u32,
        /// The producing task, if the input is an edge (DRAM loads of
        /// primary inputs have no producer).
        parent: Option<TaskRef>,
        /// Where the bytes came from.
        source: InputSource,
        /// Edge payload in bytes.
        bytes: u64,
    },
    /// A task's functional unit started computing.
    ComputeStart {
        /// The task.
        task: TaskRef,
        /// Accelerator instance index.
        inst: u32,
    },
    /// A task's functional unit finished. Self-contained record of the
    /// whole compute span so span-based views need no other events; they
    /// label the span `"<app>:n<node>"`.
    ComputeEnd {
        /// The task.
        task: TaskRef,
        /// Accelerator instance index.
        inst: u32,
        /// Compute start time, picoseconds.
        start_ps: u64,
        /// Symbol of the task's application, shared by every record of
        /// the app.
        app: Arc<str>,
        /// Inputs that arrived via SPAD-to-SPAD forwarding.
        forwarded_inputs: u32,
        /// Inputs consumed in place via colocation.
        colocated_inputs: u32,
    },
    /// A task output write-back to DRAM was issued.
    WritebackIssued {
        /// The producing task.
        task: TaskRef,
        /// Accelerator instance index holding the output.
        inst: u32,
        /// Output size in bytes.
        bytes: u64,
        /// True when this is a lazy write-back (partition reclaimed later
        /// than compute completion).
        lazy: bool,
    },
    /// A DAG instance finished all nodes.
    DagDone {
        /// DAG instance index.
        instance: u32,
        /// Whether the end-to-end deadline was met.
        met: bool,
    },

    // ---- relief-fault ----
    /// A task's compute attempt produced a corrupt output; the output was
    /// discarded and the task will be re-queued (or aborted).
    TaskFaulted {
        /// The faulted task.
        task: TaskRef,
        /// Accelerator instance the attempt ran on.
        inst: u32,
        /// 0-based attempt index that faulted.
        attempt: u32,
    },
    /// A previously faulted task re-entered its ready queue after its
    /// backoff delay.
    TaskRetried {
        /// The retried task.
        task: TaskRef,
        /// Accelerator type it re-queues on.
        acc: u32,
        /// 0-based index of the new attempt.
        attempt: u32,
    },
    /// A task exhausted its retry budget; it and its DAG instance are
    /// abandoned (sibling tasks still drain, the DAG never completes).
    TaskAborted {
        /// The aborted task.
        task: TaskRef,
        /// Total attempts consumed (`max_retries + 1`).
        attempts: u32,
    },
    /// An input DMA transfer delivered corrupt data; the edge retries
    /// from DRAM (any forwarding window is lost).
    DmaFaulted {
        /// The consuming task.
        task: TaskRef,
        /// The producing task, if the input is an edge.
        parent: Option<TaskRef>,
        /// Edge payload in bytes (re-transferred in full).
        bytes: u64,
        /// 0-based delivery attempt that faulted.
        attempt: u32,
    },
    /// An accelerator unit went offline and left the dispatch candidate
    /// set (non-preemptive: a task already running on it completes).
    UnitQuarantined {
        /// Accelerator instance index.
        inst: u32,
        /// When the matching restore fires, picoseconds.
        until_ps: u64,
    },
    /// A quarantined accelerator unit came back online.
    UnitRestored {
        /// Accelerator instance index.
        inst: u32,
    },
    /// A DAG instance missed its deadline after suffering at least one
    /// fault — the miss is attributed to fault recovery.
    FaultAttributedMiss {
        /// DAG instance index.
        instance: u32,
        /// Faults (task + DMA) the instance absorbed.
        faults: u64,
    },
    /// A forwarded chunk failed its ECC check: the in-flight forward was
    /// cancelled and the edge re-fetches from DRAM after backoff.
    EccCorrupted {
        /// The consuming task.
        task: TaskRef,
        /// The producing task whose forwarded output was corrupted.
        parent: TaskRef,
        /// 0-based delivery attempt that was invalidated.
        attempt: u32,
    },

    // ---- relief-service ----
    /// The open-loop frontend generated a request (before admission).
    StreamArrival {
        /// Tenant (stream) index.
        tenant: u32,
        /// Per-tenant request index.
        index: u64,
        /// The tenant's QoS class.
        class: QosClass,
    },
    /// The admission controller let a request in; a DAG instance was
    /// released.
    RequestAdmitted {
        /// Tenant (stream) index.
        tenant: u32,
        /// Per-tenant request index.
        index: u64,
        /// DAG instance index the request became.
        instance: u32,
    },
    /// The admission controller shed a request; no DAG instance exists.
    RequestShed {
        /// Tenant (stream) index.
        tenant: u32,
        /// Per-tenant request index.
        index: u64,
        /// The tenant's QoS class.
        class: QosClass,
        /// Which check rejected it.
        cause: ShedCause,
    },
    /// An admitted request's DAG instance ran to completion.
    RequestCompleted {
        /// Tenant (stream) index.
        tenant: u32,
        /// DAG instance index.
        instance: u32,
        /// The tenant's QoS class.
        class: QosClass,
        /// Arrival-to-completion time, picoseconds.
        sojourn_ps: u64,
        /// Whether the DAG deadline was met.
        met: bool,
    },
    /// An admitted request overran its timeout; its DAG instance was
    /// cancelled and the admission slot reclaimed.
    RequestTimedOut {
        /// Tenant (stream) index.
        tenant: u32,
        /// DAG instance index of the cancelled attempt.
        instance: u32,
        /// The tenant's QoS class.
        class: QosClass,
        /// 0-based attempt index that timed out (hedges increment it).
        attempt: u32,
    },
    /// A timed-out request was relaunched as a fresh DAG instance under
    /// the class's hedge budget.
    HedgeLaunched {
        /// Tenant (stream) index.
        tenant: u32,
        /// DAG instance index of the replacement attempt.
        instance: u32,
        /// 1-based attempt index of the hedge.
        attempt: u32,
    },
    /// A tenant's circuit breaker tripped open after consecutive failures.
    BreakerOpened {
        /// Tenant (stream) index.
        tenant: u32,
        /// Consecutive failures that tripped it.
        failures: u32,
    },
    /// A tenant's breaker entered half-open and admits seeded probes.
    BreakerHalfOpen {
        /// Tenant (stream) index.
        tenant: u32,
    },
    /// A tenant's breaker closed again after enough probe successes.
    BreakerClosed {
        /// Tenant (stream) index.
        tenant: u32,
        /// Total time the breaker spent not-closed, picoseconds.
        open_ps: u64,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>14} {}", self.at_ps, self.kind)
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use EventKind::*;
        match self {
            EventDispatched { index } => write!(f, "dispatch #{index}"),
            ResourceBusy { resource, start_ps, end_ps } => {
                write!(f, "busy {resource} {start_ps}..{end_ps}")
            }
            DmaStart { xfer, dma, src, dst, bytes } => {
                write!(f, "dma-start #{xfer} dma{dma} {src}->{dst} {bytes}B")
            }
            DmaEnd { xfer, dma, src, dst, bytes, start_ps, queued_ps } => write!(
                f,
                "dma-end #{xfer} dma{dma} {src}->{dst} {bytes}B start={start_ps} queued={queued_ps}"
            ),
            DmaCancelled { xfer, dma, src, dst, bytes } => {
                write!(f, "dma-cancel #{xfer} dma{dma} {src}->{dst} {bytes}B")
            }
            ChannelOutage { start_ps, end_ps } => {
                write!(f, "channel-outage {start_ps}..{end_ps}")
            }
            EscalationGranted { task, acc, index } => {
                write!(f, "escalation-granted {task} acc{acc} idx={index}")
            }
            EscalationDenied { task, acc, reason } => {
                write!(f, "escalation-denied {task} acc{acc} {reason}")
            }
            FeasibilityCheck { task, acc, index, feasible } => write!(
                f,
                "feasibility {task} acc{acc} idx={index} {}",
                if *feasible { "feasible" } else { "infeasible" }
            ),
            QueueBypass { task, acc, skipped } => {
                write!(f, "queue-bypass {task} acc{acc} skipped={skipped}")
            }
            DagArrived { instance, app, nodes } => {
                write!(f, "dag-arrival inst{instance} {app} nodes={nodes}")
            }
            TaskReady { task, acc } => write!(f, "task-ready {task} acc{acc}"),
            TaskDispatched { task, inst } => write!(f, "task-dispatch {task} inst{inst}"),
            InputSourced { task, inst, parent, source, bytes } => {
                write!(f, "input {task} inst{inst} <- {source}")?;
                if let Some(p) = parent {
                    write!(f, " from {p}")?;
                }
                write!(f, " {bytes}B")
            }
            ComputeStart { task, inst } => write!(f, "compute-start {task} inst{inst}"),
            ComputeEnd { task, inst, start_ps, app, forwarded_inputs, colocated_inputs } => {
                write!(
                    f,
                    "compute-end {task} inst{inst} start={start_ps} fwd={forwarded_inputs} coloc={colocated_inputs} {app}:n{}",
                    task.node
                )
            }
            WritebackIssued { task, inst, bytes, lazy } => {
                write!(f, "writeback {task} inst{inst} {bytes}B lazy={lazy}")
            }
            DagDone { instance, met } => write!(f, "dag-done inst{instance} met={met}"),
            TaskFaulted { task, inst, attempt } => {
                write!(f, "task-fault {task} inst{inst} attempt={attempt}")
            }
            TaskRetried { task, acc, attempt } => {
                write!(f, "task-retry {task} acc{acc} attempt={attempt}")
            }
            TaskAborted { task, attempts } => {
                write!(f, "task-abort {task} attempts={attempts}")
            }
            DmaFaulted { task, parent, bytes, attempt } => {
                write!(f, "dma-fault {task}")?;
                if let Some(p) = parent {
                    write!(f, " from {p}")?;
                }
                write!(f, " {bytes}B attempt={attempt}")
            }
            UnitQuarantined { inst, until_ps } => {
                write!(f, "unit-quarantine inst{inst} until={until_ps}")
            }
            UnitRestored { inst } => write!(f, "unit-restore inst{inst}"),
            FaultAttributedMiss { instance, faults } => {
                write!(f, "fault-miss inst{instance} faults={faults}")
            }
            EccCorrupted { task, parent, attempt } => {
                write!(f, "ecc-corrupt {task} from {parent} attempt={attempt}")
            }
            StreamArrival { tenant, index, class } => {
                write!(f, "stream-arrival t{tenant}#{index} {class}")
            }
            RequestAdmitted { tenant, index, instance } => {
                write!(f, "request-admit t{tenant}#{index} inst{instance}")
            }
            RequestShed { tenant, index, class, cause } => {
                write!(f, "request-shed t{tenant}#{index} {class} {cause}")
            }
            RequestCompleted { tenant, instance, class, sojourn_ps, met } => write!(
                f,
                "request-complete t{tenant} inst{instance} {class} sojourn={sojourn_ps} met={met}"
            ),
            RequestTimedOut { tenant, instance, class, attempt } => write!(
                f,
                "request-timeout t{tenant} inst{instance} {class} attempt={attempt}"
            ),
            HedgeLaunched { tenant, instance, attempt } => {
                write!(f, "hedge-launch t{tenant} inst{instance} attempt={attempt}")
            }
            BreakerOpened { tenant, failures } => {
                write!(f, "breaker-open t{tenant} failures={failures}")
            }
            BreakerHalfOpen { tenant } => write!(f, "breaker-half-open t{tenant}"),
            BreakerClosed { tenant, open_ps } => {
                write!(f, "breaker-close t{tenant} open={open_ps}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        let ev = TraceEvent {
            at_ps: 1_500_000,
            kind: EventKind::EscalationGranted {
                task: TaskRef { instance: 2, node: 5 },
                acc: 1,
                index: 0,
            },
        };
        assert_eq!(ev.to_string(), "       1500000 escalation-granted d2:n5 acc1 idx=0");
    }

    #[test]
    fn service_display_is_stable() {
        let arrival = EventKind::StreamArrival {
            tenant: 1,
            index: 42,
            class: QosClass::Latency,
        };
        assert_eq!(arrival.to_string(), "stream-arrival t1#42 latency");
        let admit = EventKind::RequestAdmitted { tenant: 0, index: 3, instance: 7 };
        assert_eq!(admit.to_string(), "request-admit t0#3 inst7");
        let shed = EventKind::RequestShed {
            tenant: 2,
            index: 9,
            class: QosClass::BestEffort,
            cause: ShedCause::Capacity,
        };
        assert_eq!(shed.to_string(), "request-shed t2#9 besteffort in-flight-cap");
        let done = EventKind::RequestCompleted {
            tenant: 0,
            instance: 7,
            class: QosClass::Standard,
            sojourn_ps: 1_000,
            met: true,
        };
        assert_eq!(done.to_string(), "request-complete t0 inst7 standard sojourn=1000 met=true");
    }

    #[test]
    fn chaos_display_is_stable() {
        let cancel = EventKind::DmaCancelled {
            xfer: 9,
            dma: 1,
            src: Endpoint::Spad(2),
            dst: Endpoint::Spad(3),
            bytes: 2048,
        };
        assert_eq!(cancel.to_string(), "dma-cancel #9 dma1 spad2->spad3 2048B");
        let outage = EventKind::ChannelOutage { start_ps: 100, end_ps: 400 };
        assert_eq!(outage.to_string(), "channel-outage 100..400");
        let ecc = EventKind::EccCorrupted {
            task: TaskRef { instance: 1, node: 2 },
            parent: TaskRef { instance: 1, node: 0 },
            attempt: 0,
        };
        assert_eq!(ecc.to_string(), "ecc-corrupt d1:n2 from d1:n0 attempt=0");
        let timeout = EventKind::RequestTimedOut {
            tenant: 0,
            instance: 4,
            class: QosClass::Latency,
            attempt: 0,
        };
        assert_eq!(timeout.to_string(), "request-timeout t0 inst4 latency attempt=0");
        let hedge = EventKind::HedgeLaunched { tenant: 0, instance: 5, attempt: 1 };
        assert_eq!(hedge.to_string(), "hedge-launch t0 inst5 attempt=1");
        let opened = EventKind::BreakerOpened { tenant: 2, failures: 3 };
        assert_eq!(opened.to_string(), "breaker-open t2 failures=3");
        let half = EventKind::BreakerHalfOpen { tenant: 2 };
        assert_eq!(half.to_string(), "breaker-half-open t2");
        let closed = EventKind::BreakerClosed { tenant: 2, open_ps: 777 };
        assert_eq!(closed.to_string(), "breaker-close t2 open=777");
        let shed = EventKind::RequestShed {
            tenant: 2,
            index: 11,
            class: QosClass::Standard,
            cause: ShedCause::Breaker,
        };
        assert_eq!(shed.to_string(), "request-shed t2#11 standard circuit-breaker");
    }

    #[test]
    fn input_with_and_without_parent() {
        let with = EventKind::InputSourced {
            task: TaskRef { instance: 0, node: 1 },
            inst: 3,
            parent: Some(TaskRef { instance: 0, node: 0 }),
            source: InputSource::Forwarded { from_inst: 2 },
            bytes: 4096,
        };
        assert_eq!(with.to_string(), "input d0:n1 inst3 <- fwd(inst2) from d0:n0 4096B");
        let without = EventKind::InputSourced {
            task: TaskRef { instance: 0, node: 0 },
            inst: 3,
            parent: None,
            source: InputSource::Dram,
            bytes: 64,
        };
        assert_eq!(without.to_string(), "input d0:n0 inst3 <- dram 64B");
    }
}
