//! Schedule recording and replay.
//!
//! A [`Schedule`] is a concrete launch plan: the global sequence of
//! `(task, accelerator instance)` dispatch decisions of one run.
//! [`ScheduleRecorder`] captures one from a live simulation's trace
//! stream, and [`ScheduleReplay`] is a [`Policy`] that feeds a schedule
//! back through the simulator, releasing each task only to its prescribed
//! instance and only in the prescribed per-type order.
//!
//! Replay is the verification keystone of the oracle bound (`relief-oracle`):
//! the search *predicts* a makespan for the schedule it emits, and replay
//! through the full simulator must reproduce that prediction bit-exactly.
//! It is also pinned directly against the online policies: replaying the
//! recorded schedule of a RELIEF run reproduces that run's `RunStats`
//! bit-exactly, because the prescribed per-type orders and instance pins
//! regenerate the recorded event sequence (and therefore the same RNG
//! draw order) without consulting laxity at all.
//!
//! Replay is *strict*: once a type's prescription is exhausted, or while
//! the next prescribed task is not yet ready or its pinned instance is
//! busy, the policy releases nothing. It is only meaningful for
//! deterministic, fault-free, closed-population runs — the configurations
//! the oracle accepts.

use crate::policy::{DeadlineScheme, Policy, PolicyKind};
use crate::queue::ReadyQueues;
use crate::task::{TaskEntry, TaskKey};
use relief_dag::AccTypeId;
use relief_sim::Time;
use relief_trace::{EventKind, Kind, KindSet, TraceEvent, TraceSink};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// One dispatch decision: launch `task` on global accelerator instance
/// `inst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduledLaunch {
    /// The task being launched.
    pub task: TaskKey,
    /// Global accelerator instance index (the simulator's instance
    /// numbering: type-major, in `acc_instances` order).
    pub inst: u32,
}

/// A complete (or prefix) launch plan, in global dispatch order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The launches, ordered by dispatch time (ties in simulator
    /// processing order).
    pub launches: Vec<ScheduledLaunch>,
    /// When recorded from a trace, the producers whose output was written
    /// back to DRAM *eagerly* at compute completion (the §III-C.2
    /// write-back decision came out "not all children next in line").
    /// Sorted and deduplicated. `None` for schedules built without a
    /// trace (e.g. oracle search prefixes): replay then re-derives the
    /// decision from queue state instead of prescribing it.
    ///
    /// This is part of the plan, not a statistic: the decision depends on
    /// escalation state of the originating policy, which replay does not
    /// reproduce, so bit-exact replay must prescribe it.
    pub eager_writebacks: Option<Vec<TaskKey>>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Number of launches in the plan.
    pub fn len(&self) -> usize {
        self.launches.len()
    }

    /// True when the plan prescribes nothing.
    pub fn is_empty(&self) -> bool {
        self.launches.is_empty()
    }

    /// The plan extended by one launch (used by the oracle search to grow
    /// prefixes). The extension is no longer the recorded run, so any
    /// prescribed write-back decisions are dropped.
    #[must_use]
    pub fn extended(&self, launch: ScheduledLaunch) -> Self {
        let mut launches = Vec::with_capacity(self.launches.len() + 1);
        launches.extend_from_slice(&self.launches);
        launches.push(launch);
        Schedule { launches, eager_writebacks: None }
    }
}

/// A [`TraceSink`] that records the launch plan of a live run: the
/// dispatch sequence plus the eager write-back decisions.
#[derive(Debug, Default)]
pub struct ScheduleRecorder {
    launches: Vec<ScheduledLaunch>,
    eager_writebacks: Vec<TaskKey>,
}

impl ScheduleRecorder {
    /// Creates a shared handle suitable for `Tracer::attach`.
    #[must_use]
    pub fn shared() -> Rc<RefCell<ScheduleRecorder>> {
        Rc::new(RefCell::new(ScheduleRecorder::default()))
    }

    /// The schedule recorded so far.
    #[must_use]
    pub fn schedule(&self) -> Schedule {
        let mut eager = self.eager_writebacks.clone();
        eager.sort_unstable();
        eager.dedup();
        Schedule { launches: self.launches.clone(), eager_writebacks: Some(eager) }
    }

    /// Number of dispatches recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.launches.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.launches.is_empty()
    }
}

impl TraceSink for ScheduleRecorder {
    fn emit(&mut self, ev: TraceEvent) {
        match ev.kind {
            EventKind::TaskDispatched { task, inst } => {
                self.launches.push(ScheduledLaunch {
                    task: TaskKey::new(task.instance, task.node),
                    inst,
                });
            }
            EventKind::WritebackIssued { task, lazy: false, .. } => {
                self.eager_writebacks.push(TaskKey::new(task.instance, task.node));
            }
            _ => {}
        }
    }

    fn kinds(&self) -> KindSet {
        KindSet::of(&[Kind::TaskDispatched, Kind::WritebackIssued])
    }
}

/// The schedule-replay policy (see the module docs).
#[derive(Debug)]
pub struct ScheduleReplay {
    /// Remaining prescription per accelerator type, in dispatch order.
    prescribed: Vec<VecDeque<ScheduledLaunch>>,
    /// Prescribed eager write-backs (sorted), when the schedule recorded
    /// them. `None` leaves the simulator's queue-state-based write-back
    /// decision in force.
    eager_writebacks: Option<Vec<TaskKey>>,
    /// Which [`PolicyKind`] this replay stands in for. Determines the
    /// deadline scheme (so task entries carry the same deadlines as the
    /// impersonated run) and the `kind()` label. Placement and ordering
    /// always come from the schedule, never from the impersonated policy.
    impersonates: PolicyKind,
}

impl ScheduleReplay {
    /// Builds a replay of `schedule` for a platform whose accelerator
    /// type `t` has `acc_instances[t]` instances (global instance indices
    /// are type-major in that order, matching the simulator's numbering).
    /// By default the replay impersonates FCFS.
    ///
    /// Launches whose instance index falls outside the platform are
    /// dropped; replaying a schedule on the wrong platform stalls rather
    /// than panics.
    pub fn new(schedule: &Schedule, acc_instances: &[usize]) -> Self {
        let mut first_inst = Vec::with_capacity(acc_instances.len());
        let mut total = 0usize;
        for &n in acc_instances {
            first_inst.push(total);
            total += n;
        }
        let type_of = |inst: u32| -> Option<usize> {
            let inst = inst as usize;
            if inst >= total {
                return None;
            }
            Some(first_inst.partition_point(|&f| f <= inst) - 1)
        };
        let mut prescribed = vec![VecDeque::new(); acc_instances.len()];
        for &launch in &schedule.launches {
            if let Some(t) = type_of(launch.inst) {
                prescribed[t].push_back(launch);
            }
        }
        ScheduleReplay {
            prescribed,
            eager_writebacks: schedule.eager_writebacks.clone(),
            impersonates: PolicyKind::Fcfs,
        }
    }

    /// Sets the policy this replay impersonates (deadline scheme +
    /// `kind()` label).
    #[must_use]
    pub fn impersonating(mut self, kind: PolicyKind) -> Self {
        self.impersonates = kind;
        self
    }

    /// Launches still prescribed (across all types). Zero after a
    /// complete replay; nonzero means the replay stalled (or the schedule
    /// was a prefix).
    pub fn remaining(&self) -> usize {
        self.prescribed.iter().map(VecDeque::len).sum()
    }
}

impl Policy for ScheduleReplay {
    fn kind(&self) -> PolicyKind {
        self.impersonates
    }

    fn deadline_scheme(&self) -> DeadlineScheme {
        // The impersonated policy's scheme, so replayed entries carry
        // identical deadlines (and thus identical deadline metrics).
        self.impersonates.deadline_scheme()
    }

    fn enqueue_ready(
        &mut self,
        queues: &mut ReadyQueues,
        batch: &mut Vec<TaskEntry>,
        _now: Time,
        _idle: &[usize],
    ) {
        // FIFO insertion; order within the queue is irrelevant because
        // pop_placed selects by key, but insert_sorted keeps the queue-op
        // accounting on the same code path as every other policy.
        for entry in batch.drain(..) {
            queues.insert_sorted(entry, |_| 0);
        }
    }

    fn pop(&mut self, queues: &mut ReadyQueues, acc: AccTypeId, now: Time) -> Option<TaskEntry> {
        // Placement-blind callers (none in the simulator's launch path)
        // get the prescribed order without the instance pin.
        self.pop_placed(queues, acc, now, &|_| true).map(|(e, _)| e)
    }

    fn pop_placed(
        &mut self,
        queues: &mut ReadyQueues,
        acc: AccTypeId,
        _now: Time,
        is_idle: &dyn Fn(usize) -> bool,
    ) -> Option<(TaskEntry, Option<usize>)> {
        let next = *self.prescribed.get(acc.0 as usize)?.front()?;
        if !is_idle(next.inst as usize) {
            return None;
        }
        let pos = queues.queue(acc).iter().position(|t| t.key == next.task)?;
        let entry = queues.remove_at(acc, pos);
        self.prescribed[acc.0 as usize].pop_front();
        Some((entry, Some(next.inst as usize)))
    }

    fn writeback_elision(&self, producer: TaskKey) -> Option<bool> {
        self.eager_writebacks
            .as_ref()
            .map(|eager| eager.binary_search(&producer).is_err())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relief_sim::Dur;

    fn launch(instance: u32, node: u32, inst: u32) -> ScheduledLaunch {
        ScheduledLaunch { task: TaskKey::new(instance, node), inst }
    }

    fn entry(node: u32, acc: u32) -> TaskEntry {
        TaskEntry::new(TaskKey::new(0, node), AccTypeId(acc), Dur::from_us(1), Time::from_us(100))
            .with_seq(node as u64)
    }

    #[test]
    fn recorder_is_a_sink() {
        use relief_trace::{TaskRef, Tracer};
        let rec = ScheduleRecorder::shared();
        let tracer = Tracer::to_sink(rec.clone());
        let task = |instance, node| TaskRef { instance, node };
        let writeback = |t, lazy| EventKind::WritebackIssued { task: t, inst: 0, bytes: 64, lazy };
        // Kinds the recorder does not subscribe to leave no mark, even
        // when handed to it directly.
        let ready = EventKind::TaskReady { task: task(0, 0), acc: 0 };
        rec.borrow_mut().emit(TraceEvent { at_ps: 0, kind: ready });
        tracer.emit(1, || EventKind::TaskDispatched { task: task(0, 0), inst: 2 });
        tracer.emit(2, || EventKind::TaskDispatched { task: task(1, 3), inst: 0 });
        tracer.emit(3, || EventKind::EventDispatched { index: 0 });
        // An eager write-back, a lazy one, then the first eager one again
        // and an earlier eager one: the plan keeps the eager producers
        // sorted, each once.
        tracer.emit(4, || writeback(task(1, 3), false));
        tracer.emit(5, || writeback(task(0, 1), true));
        tracer.emit(6, || writeback(task(1, 3), false));
        tracer.emit(7, || writeback(task(0, 0), false));
        let schedule = rec.borrow().schedule();
        assert_eq!(schedule.launches, vec![launch(0, 0, 2), launch(1, 3, 0)]);
        let eager = vec![TaskKey::new(0, 0), TaskKey::new(1, 3)];
        assert_eq!(schedule.eager_writebacks, Some(eager));
    }

    #[test]
    fn replay_releases_only_prescribed_head_on_idle_inst() {
        // Platform: type 0 has insts {0,1}, type 1 has inst {2}.
        let schedule = Schedule {
            launches: vec![launch(0, 1, 1), launch(0, 0, 0), launch(0, 2, 2)],
            ..Schedule::new()
        };
        let mut p = ScheduleReplay::new(&schedule, &[2, 1]);
        let mut q = ReadyQueues::new(2);
        let mut batch = vec![entry(0, 0), entry(1, 0)];
        p.enqueue_ready(&mut q, &mut batch, Time::ZERO, &[2, 1]);

        // Prescribed head for type 0 is node 1 on inst 1. While inst 1 is
        // busy, nothing launches even though inst 0 idles.
        assert!(p.pop_placed(&mut q, AccTypeId(0), Time::ZERO, &|i| i == 0).is_none());
        let (e, pin) = p.pop_placed(&mut q, AccTypeId(0), Time::ZERO, &|_| true).unwrap();
        assert_eq!((e.key.node, pin), (1, Some(1)));
        let (e, pin) = p.pop_placed(&mut q, AccTypeId(0), Time::ZERO, &|_| true).unwrap();
        assert_eq!((e.key.node, pin), (0, Some(0)));
        // Type 0 prescription exhausted: strict replay releases nothing.
        let mut batch = vec![entry(5, 0)];
        p.enqueue_ready(&mut q, &mut batch, Time::ZERO, &[2, 1]);
        assert!(p.pop_placed(&mut q, AccTypeId(0), Time::ZERO, &|_| true).is_none());
        assert_eq!(p.remaining(), 1);
    }

    #[test]
    fn replay_waits_for_prescribed_task_to_become_ready() {
        let schedule =
            Schedule { launches: vec![launch(0, 7, 0), launch(0, 1, 0)], ..Schedule::new() };
        let mut p = ScheduleReplay::new(&schedule, &[1]);
        let mut q = ReadyQueues::new(1);
        let mut batch = vec![entry(1, 0)];
        p.enqueue_ready(&mut q, &mut batch, Time::ZERO, &[1]);
        // Node 7 is prescribed first but not ready yet: hold node 1 back.
        assert!(p.pop_placed(&mut q, AccTypeId(0), Time::ZERO, &|_| true).is_none());
        let mut batch = vec![entry(7, 0)];
        p.enqueue_ready(&mut q, &mut batch, Time::ZERO, &[1]);
        let (e, pin) = p.pop_placed(&mut q, AccTypeId(0), Time::ZERO, &|_| true).unwrap();
        assert_eq!((e.key.node, pin), (7, Some(0)));
        let (e, _) = p.pop_placed(&mut q, AccTypeId(0), Time::ZERO, &|_| true).unwrap();
        assert_eq!(e.key.node, 1);
        assert_eq!(p.remaining(), 0);
    }

    #[test]
    fn out_of_range_instances_are_dropped() {
        let schedule = Schedule { launches: vec![launch(0, 0, 9)], ..Schedule::new() };
        let p = ScheduleReplay::new(&schedule, &[1]);
        assert_eq!(p.remaining(), 0);
    }

    #[test]
    fn impersonation_sets_kind_and_scheme() {
        let p = ScheduleReplay::new(&Schedule::new(), &[1])
            .impersonating(PolicyKind::Relief);
        assert_eq!(p.kind(), PolicyKind::Relief);
        assert_eq!(p.deadline_scheme(), DeadlineScheme::NodeCriticalPath);
        let q = ScheduleReplay::new(&Schedule::new(), &[1]);
        assert_eq!(q.kind(), PolicyKind::Fcfs);
        assert_eq!(q.deadline_scheme(), DeadlineScheme::Dag);
    }

    #[test]
    fn impersonated_scheme_matches_the_built_policy() {
        for kind in PolicyKind::ALL.into_iter().chain(PolicyKind::EXTENSIONS) {
            let p = ScheduleReplay::new(&Schedule::new(), &[1]).impersonating(kind);
            assert_eq!(p.deadline_scheme(), kind.build().deadline_scheme(), "{kind:?}");
            // Re-impersonating replaces the scheme too.
            let q = p.impersonating(PolicyKind::Fcfs);
            assert_eq!(q.deadline_scheme(), DeadlineScheme::Dag, "{kind:?}");
        }
    }

    #[test]
    fn extended_grows_a_prefix() {
        let s = Schedule::new().extended(launch(0, 0, 0)).extended(launch(0, 1, 0));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.launches[1], launch(0, 1, 0));
    }
}
