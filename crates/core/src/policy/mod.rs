//! Scheduling policies.
//!
//! Every policy sorts per-accelerator-type ready queues (§II-B) and pops
//! from them when an accelerator of that type idles. The online policies
//! differ only in four things, a [`PolicyKind`]'s row of the policy
//! table (see the crate docs): the deadline scheme, the order key,
//! whether newly ready *forwarding nodes* escalate to the queue front
//! (RELIEF), and the pop rule. One `Policy` impl runs any row;
//! [`Adaptive`] switches between two.

mod adaptive;
mod online;
mod replay;

pub use adaptive::{Adaptive, AdaptiveParams, SchedMode};
pub use online::is_feasible;
use online::Online;
pub use replay::{Schedule, ScheduleRecorder, ScheduleReplay, ScheduledLaunch};

use crate::queue::ReadyQueues;
use crate::task::{TaskEntry, TaskKey};
use relief_dag::AccTypeId;
use relief_sim::Time;
use relief_trace::Tracer;
use std::fmt;

/// How per-node absolute deadlines are derived from the DAG deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeadlineScheme {
    /// Every node inherits the DAG's deadline (FCFS, which never reads
    /// it, and GEDF-D).
    Dag,
    /// Critical-path method: a node's deadline leaves exactly enough time
    /// for the longest downstream chain (GEDF-N, LL, LAX, RELIEF,
    /// RELIEF-LAX, RELIEF-NOTHROTTLE and ADAPTIVE).
    NodeCriticalPath,
    /// HetSched's Eq. 2: `deadline = SDR × DAG deadline` (HetSched and
    /// RELIEF-HET).
    HetSchedSdr,
}

/// What the sorted region of a ready queue is ordered by; equal keys
/// fall back to arrival order (the queue's `seq` tiebreak).
#[derive(Debug, Clone, Copy)]
enum OrderKey {
    /// Arrival order alone: a constant key keeps every entry in one tie
    /// class.
    Arrival,
    /// Absolute deadline.
    Deadline,
    /// Stored laxity, `deadline − runtime`: Eq. 1 without the clock,
    /// which every queued task shares.
    Laxity,
}

impl OrderKey {
    /// The sort key of `t`.
    fn of(self, t: &TaskEntry) -> i128 {
        match self {
            OrderKey::Arrival => 0,
            OrderKey::Deadline => t.deadline.as_ps() as i128,
            OrderKey::Laxity => t.laxity,
        }
    }
}

/// Whether forwarding candidates may jump to the queue front
/// (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Escalation {
    /// Never: a candidate takes its key position like any task.
    Off,
    /// Within the idle-instance budget, when [`is_feasible`]
    /// (Algorithm 2) accepts.
    Throttled,
    /// Within the idle-instance budget, without the feasibility check.
    Unthrottled,
}

/// Which queued task an idle accelerator takes.
#[derive(Debug, Clone, Copy)]
enum PopRule {
    /// The queue head.
    Head,
    /// LAX's de-prioritization: an escalated head still launches first,
    /// but otherwise the first task with non-negative current laxity
    /// bypasses the negative-laxity tasks ahead of it.
    LaxBypass,
}

/// One row of the policy table.
#[derive(Debug, Clone, Copy)]
struct Row {
    scheme: DeadlineScheme,
    key: OrderKey,
    escalation: Escalation,
    pop: PopRule,
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

    /// The kind's row of the policy table, or `None` for
    /// [`Adaptive`](PolicyKind::Adaptive), which switches between the
    /// FCFS and RELIEF rows.
    const fn row(self) -> Option<Row> {
        use DeadlineScheme::{Dag, HetSchedSdr, NodeCriticalPath};
        use Escalation::{Off, Throttled, Unthrottled};
        use OrderKey::{Arrival, Deadline, Laxity};
        use PopRule::{Head, LaxBypass};
        let (scheme, key, escalation, pop) = match self {
            PolicyKind::Fcfs => (Dag, Arrival, Off, Head),
            PolicyKind::GedfD => (Dag, Deadline, Off, Head),
            PolicyKind::GedfN => (NodeCriticalPath, Deadline, Off, Head),
            PolicyKind::Ll => (NodeCriticalPath, Laxity, Off, Head),
            PolicyKind::Lax => (NodeCriticalPath, Laxity, Off, LaxBypass),
            PolicyKind::HetSched => (HetSchedSdr, Laxity, Off, Head),
            PolicyKind::Relief => (NodeCriticalPath, Laxity, Throttled, Head),
            PolicyKind::ReliefLax => (NodeCriticalPath, Laxity, Throttled, LaxBypass),
            PolicyKind::ReliefHet => (HetSchedSdr, Laxity, Throttled, Head),
            PolicyKind::ReliefUnthrottled => (NodeCriticalPath, Laxity, Unthrottled, Head),
            PolicyKind::Adaptive => return None,
        };
        Some(Row { scheme, key, escalation, pop })
    }

    /// The deadline scheme the kind's policy expects in
    /// [`TaskEntry::deadline`].
    pub const fn deadline_scheme(self) -> DeadlineScheme {
        match self.row() {
            Some(row) => row.scheme,
            // Both of Adaptive's modes see critical-path node deadlines.
            // RELIEF needs them for its laxity math; FCFS orders by
            // arrival and never reads a deadline, while every queued
            // entry's laxity stays meaningful for the pressure signal.
            None => DeadlineScheme::NodeCriticalPath,
        }
    }

    /// Instantiates the policy: [`Adaptive`] for
    /// [`Adaptive`](PolicyKind::Adaptive), the policy of the kind's row
    /// for every other kind.
    ///
    /// # Examples
    ///
    /// ```
    /// use relief_core::{PolicyKind, ReadyQueues, TaskEntry, TaskKey};
    /// use relief_dag::AccTypeId;
    /// use relief_sim::{Dur, Time};
    ///
    /// let mut p = PolicyKind::Fcfs.build();
    /// let mut q = ReadyQueues::new(1);
    /// let mk = |n, seq| TaskEntry::new(TaskKey::new(0, n), AccTypeId(0), Dur::ZERO, Time::MAX)
    ///     .with_seq(seq);
    /// p.enqueue_ready(&mut q, &mut vec![mk(7, 0)], Time::ZERO, &[1]);
    /// p.enqueue_ready(&mut q, &mut vec![mk(3, 1)], Time::ZERO, &[1]);
    /// // Arrival order (seq) wins, not node id or deadline.
    /// assert_eq!(p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap().key.node, 7);
    /// ```
    pub fn build(self) -> Box<dyn Policy> {
        match self {
            PolicyKind::Adaptive => Box::new(Adaptive::new()),
            kind => Box::new(Online::new(kind)),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
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
            let policy = kind.build();
            assert_eq!(policy.kind(), kind);
            assert_eq!(policy.deadline_scheme(), kind.deadline_scheme(), "{kind}");
        }
    }

    #[test]
    fn deadline_schemes() {
        use DeadlineScheme::*;
        assert_eq!(PolicyKind::Fcfs.deadline_scheme(), Dag);
        assert_eq!(PolicyKind::GedfD.deadline_scheme(), Dag);
        assert_eq!(PolicyKind::GedfN.deadline_scheme(), NodeCriticalPath);
        assert_eq!(PolicyKind::Ll.deadline_scheme(), NodeCriticalPath);
        assert_eq!(PolicyKind::Lax.deadline_scheme(), NodeCriticalPath);
        assert_eq!(PolicyKind::HetSched.deadline_scheme(), HetSchedSdr);
        assert_eq!(PolicyKind::Relief.deadline_scheme(), NodeCriticalPath);
        assert_eq!(PolicyKind::ReliefLax.deadline_scheme(), NodeCriticalPath);
        assert_eq!(PolicyKind::ReliefHet.deadline_scheme(), HetSchedSdr);
        assert_eq!(PolicyKind::ReliefUnthrottled.deadline_scheme(), NodeCriticalPath);
        assert_eq!(PolicyKind::Adaptive.deadline_scheme(), NodeCriticalPath);
    }
}
