//! Scheduling policies.
//!
//! Every policy sorts per-accelerator-type ready queues (§II-B) and pops
//! the head when an accelerator of that type idles. They differ in the
//! order key, the deadline-assignment scheme, and — uniquely for RELIEF —
//! in escalating newly ready *forwarding nodes* to the queue front.

mod adaptive;
mod fcfs;
mod gedf;
mod hetsched;
mod ll;
mod relief;
mod replay;

pub use adaptive::{Adaptive, AdaptiveParams, SchedMode};
pub use fcfs::Fcfs;
pub use gedf::{GedfD, GedfN};
pub use hetsched::HetSched;
pub use ll::{Lax, Ll};
pub use relief::{is_feasible, Relief};
pub use replay::{Schedule, ScheduleRecorder, ScheduleReplay, ScheduledLaunch};

use crate::queue::ReadyQueues;
use crate::task::{TaskEntry, TaskKey};
use relief_dag::AccTypeId;
use relief_sim::Time;
use relief_trace::{EventKind, TaskRef, Tracer};
use std::fmt;

/// Converts a scheduler task key into the trace layer's id type.
pub(crate) fn task_ref(key: TaskKey) -> TaskRef {
    TaskRef { instance: key.instance, node: key.node }
}

/// How per-node absolute deadlines are derived from the DAG deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeadlineScheme {
    /// Every node inherits the DAG's deadline (GEDF-D; also LL/LAX/RELIEF's
    /// *laxity pool* interpretation — see below).
    Dag,
    /// Critical-path method: a node's deadline leaves exactly enough time
    /// for the longest downstream chain (GEDF-N, LL, LAX, RELIEF).
    NodeCriticalPath,
    /// HetSched's Eq. 2: `deadline = SDR × DAG deadline`.
    HetSchedSdr,
}

/// A non-preemptive accelerator scheduling policy.
///
/// Implementations mutate [`ReadyQueues`] only through its sorted-insert /
/// front-escalation API, so every policy preserves the queue invariants the
/// hardware manager relies on.
pub trait Policy {
    /// Which policy this is.
    fn kind(&self) -> PolicyKind;

    /// Deadline-assignment scheme this policy expects in
    /// [`TaskEntry::deadline`].
    fn deadline_scheme(&self) -> DeadlineScheme;

    /// Inserts a batch of newly ready tasks at `now`.
    ///
    /// The batch is "the children of one finishing node whose dependencies
    /// are now satisfied" (or the roots of an arriving DAG); RELIEF's
    /// Algorithm 1 needs them together, the baselines insert them one by
    /// one. `idle` gives the number of idle accelerator instances per
    /// accelerator type id.
    ///
    /// The policy drains `batch`, leaving it empty; callers own the buffer
    /// so the simulator can reuse one scratch `Vec` across events.
    fn enqueue_ready(
        &mut self,
        queues: &mut ReadyQueues,
        batch: &mut Vec<TaskEntry>,
        now: Time,
        idle: &[usize],
    );

    /// Selects the next task to launch on an idle accelerator of type
    /// `acc`, or `None` when its queue is empty.
    fn pop(&mut self, queues: &mut ReadyQueues, acc: AccTypeId, now: Time) -> Option<TaskEntry>;

    /// Like [`pop`](Policy::pop), but with placement control: returns the
    /// selected task together with an optional *global accelerator
    /// instance index* the task must launch on. `is_idle(inst)` reports
    /// whether a global instance index is currently idle (and not
    /// quarantined), letting a placement-aware policy refuse to release a
    /// task whose prescribed instance is busy.
    ///
    /// The default implementation delegates to `pop` with no pin, so
    /// every online policy keeps its existing behavior; only schedule
    /// replay ([`ScheduleReplay`]) overrides this.
    fn pop_placed(
        &mut self,
        queues: &mut ReadyQueues,
        acc: AccTypeId,
        now: Time,
        is_idle: &dyn Fn(usize) -> bool,
    ) -> Option<(TaskEntry, Option<usize>)> {
        let _ = is_idle;
        self.pop(queues, acc, now).map(|e| (e, None))
    }

    /// Prescribes the simulator's write-back decision for `producer`'s
    /// output at compute completion: `Some(true)` elides the eager DRAM
    /// write-back (all consumers will forward), `Some(false)` forces it,
    /// `None` (the default, and every online policy) lets the simulator
    /// derive the decision from queue escalation state. Only schedule
    /// replay ([`ScheduleReplay`]) prescribes: the live decision depends
    /// on the originating policy's escalations, which a replay does not
    /// re-enact, so bit-exact replay must carry the decision in the plan.
    fn writeback_elision(&self, _producer: TaskKey) -> Option<bool> {
        None
    }

    /// Attaches a tracer for scheduling-decision events (escalations,
    /// feasibility verdicts, queue bypasses). Policies without decision
    /// events ignore it.
    fn set_tracer(&mut self, _tracer: Tracer) {}
}

/// Identifies a policy; use [`build`](PolicyKind::build) to instantiate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PolicyKind {
    /// First come, first served (GAM+'s non-preemptive round-robin).
    Fcfs,
    /// Global EDF with DAG deadlines (VIP).
    GedfD,
    /// Global EDF with critical-path node deadlines.
    GedfN,
    /// Least-laxity first.
    Ll,
    /// LL with negative-laxity de-prioritization (Yeh et al.).
    Lax,
    /// Least-laxity first with SDR deadlines (Amarnath et al.).
    HetSched,
    /// This paper: relaxed least-laxity with forwarding escalation.
    Relief,
    /// RELIEF plus LAX's de-prioritization (§V-E ablation).
    ReliefLax,
    /// RELIEF over HetSched's laxity distribution (the §VII extension:
    /// each node lends only its SDR share of the DAG's laxity).
    ReliefHet,
    /// RELIEF with the feasibility check disabled (ablation: escalate
    /// whenever an instance is idle, regardless of victims' laxity).
    ReliefUnthrottled,
    /// DAS-style runtime switch (Goksoy et al.): FCFS while the SoC is
    /// lightly loaded, RELIEF once per-epoch queue depth / laxity slack
    /// signals memory pressure.
    Adaptive,
}

impl PolicyKind {
    /// The six policies of the paper's main comparison (Figs. 4–8).
    pub const MAIN: [PolicyKind; 6] = [
        PolicyKind::Fcfs,
        PolicyKind::GedfD,
        PolicyKind::GedfN,
        PolicyKind::Lax,
        PolicyKind::HetSched,
        PolicyKind::Relief,
    ];

    /// The eight policies of the fairness study (Figs. 9–10, Table VII).
    pub const ALL: [PolicyKind; 8] = [
        PolicyKind::Fcfs,
        PolicyKind::GedfD,
        PolicyKind::GedfN,
        PolicyKind::Lax,
        PolicyKind::ReliefLax,
        PolicyKind::Ll,
        PolicyKind::HetSched,
        PolicyKind::Relief,
    ];

    /// Extension and ablation variants beyond the paper's evaluation
    /// (§VII future work; feasibility-check ablation; the DAS-style
    /// adaptive switch).
    pub const EXTENSIONS: [PolicyKind; 3] =
        [PolicyKind::ReliefHet, PolicyKind::ReliefUnthrottled, PolicyKind::Adaptive];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::GedfD => "GEDF-D",
            PolicyKind::GedfN => "GEDF-N",
            PolicyKind::Ll => "LL",
            PolicyKind::Lax => "LAX",
            PolicyKind::HetSched => "HetSched",
            PolicyKind::Relief => "RELIEF",
            PolicyKind::ReliefLax => "RELIEF-LAX",
            PolicyKind::ReliefHet => "RELIEF-HET",
            PolicyKind::ReliefUnthrottled => "RELIEF-NOTHROTTLE",
            PolicyKind::Adaptive => "ADAPTIVE",
        }
    }

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn Policy> {
        match self {
            PolicyKind::Fcfs => Box::new(Fcfs::new()),
            PolicyKind::GedfD => Box::new(GedfD::new()),
            PolicyKind::GedfN => Box::new(GedfN::new()),
            PolicyKind::Ll => Box::new(Ll::new()),
            PolicyKind::Lax => Box::new(Lax::new()),
            PolicyKind::HetSched => Box::new(HetSched::new()),
            PolicyKind::Relief => Box::new(Relief::new()),
            PolicyKind::ReliefLax => Box::new(Relief::with_lax_deprioritization()),
            PolicyKind::ReliefHet => Box::new(Relief::over_hetsched()),
            PolicyKind::ReliefUnthrottled => Box::new(Relief::without_feasibility()),
            PolicyKind::Adaptive => Box::new(Adaptive::new()),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared insertion helper: sorted insert of each batch entry under `key`,
/// draining the caller's batch buffer.
pub(crate) fn insert_batch(
    queues: &mut ReadyQueues,
    batch: &mut Vec<TaskEntry>,
    key: impl Fn(&TaskEntry) -> i128 + Copy,
) {
    for entry in batch.drain(..) {
        queues.insert_sorted(entry, key);
    }
}

/// Pop with LAX's de-prioritization: an escalated forwarding head always
/// launches; otherwise the first non-negative-laxity task bypasses any
/// negative-laxity tasks ahead of it; if every task is negative, the head
/// launches. An out-of-order pop emits a `QueueBypass` trace event.
pub(crate) fn pop_lax(
    queues: &mut ReadyQueues,
    acc: AccTypeId,
    now: Time,
    tracer: &Tracer,
) -> Option<TaskEntry> {
    let q = queues.queue(acc);
    if q.front()?.is_fwd {
        return queues.pop_front(acc);
    }
    // No escalated front means no escalated prefix, so the whole queue is
    // laxity-sorted and "first task with curr_laxity ≥ 0" — i.e. stored
    // laxity ≥ now — is a binary search.
    let i = queues.first_laxity_at_least(acc, now.as_ps() as i128);
    if i < queues.queue(acc).len() {
        let entry = queues.remove_at(acc, i);
        if i > 0 {
            tracer.emit(now.as_ps(), || EventKind::QueueBypass {
                task: task_ref(entry.key),
                acc: acc.0,
                skipped: i as u64,
            });
        }
        Some(entry)
    } else {
        queues.pop_front(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(PolicyKind::Relief.to_string(), "RELIEF");
        assert_eq!(PolicyKind::GedfD.name(), "GEDF-D");
        assert_eq!(PolicyKind::ReliefLax.name(), "RELIEF-LAX");
    }

    #[test]
    fn build_round_trips_kind() {
        for kind in PolicyKind::ALL.into_iter().chain(PolicyKind::EXTENSIONS) {
            assert_eq!(kind.build().kind(), kind);
        }
    }

    #[test]
    fn deadline_schemes() {
        use DeadlineScheme::*;
        assert_eq!(PolicyKind::Fcfs.build().deadline_scheme(), Dag);
        assert_eq!(PolicyKind::GedfD.build().deadline_scheme(), Dag);
        assert_eq!(PolicyKind::GedfN.build().deadline_scheme(), NodeCriticalPath);
        assert_eq!(PolicyKind::Ll.build().deadline_scheme(), NodeCriticalPath);
        assert_eq!(PolicyKind::Lax.build().deadline_scheme(), NodeCriticalPath);
        assert_eq!(PolicyKind::HetSched.build().deadline_scheme(), HetSchedSdr);
        assert_eq!(PolicyKind::Relief.build().deadline_scheme(), NodeCriticalPath);
        assert_eq!(PolicyKind::ReliefLax.build().deadline_scheme(), NodeCriticalPath);
    }
}
