//! Ready-queue task entries.

use crate::laxity::stored_laxity;
use relief_dag::AccTypeId;
use relief_sim::{Dur, Time};
use std::fmt;

/// Globally unique task identity: a DAG instance plus a node within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskKey {
    /// DAG-instance identifier assigned by the runtime.
    pub instance: u32,
    /// Node index within the instance's graph.
    pub node: u32,
}

impl TaskKey {
    /// Creates a key.
    pub fn new(instance: u32, node: u32) -> Self {
        TaskKey { instance, node }
    }
}

impl fmt::Display for TaskKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}:n{}", self.instance, self.node)
    }
}

/// One schedulable task as the policies see it.
///
/// Mirrors the scheduling-relevant part of the paper's `struct node`
/// (Table III): predicted runtime, absolute deadline (already resolved for
/// the active policy's deadline scheme), and the laxity bookkeeping used by
/// Algorithms 1 and 2. The paper stores laxity as `deadline − runtime` and
/// subtracts the current time only when manipulating the ready queue; we do
/// the same, so feasibility debits (Algorithm 2, line 13) mutate the stored
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskEntry {
    /// Which task this is.
    pub key: TaskKey,
    /// Accelerator type the task runs on.
    pub acc: AccTypeId,
    /// Predicted runtime (compute + memory estimate).
    pub runtime: Dur,
    /// Absolute deadline under the active policy's deadline scheme.
    pub deadline: Time,
    /// Arrival sequence number; FIFO tie-breaker and the FCFS order key.
    pub seq: u64,
    /// Stored laxity in picoseconds: `deadline − runtime`, minus any
    /// feasibility debits. Subtract the current time to get Eq. 1's laxity.
    pub laxity: i128,
    /// Cached policy sort key, written by
    /// [`ReadyQueues::insert_sorted`](crate::ReadyQueues::insert_sorted) on
    /// enqueue and kept in lockstep with `laxity` by feasibility debits.
    /// Queues binary-search on `(sort_key, seq)`, so it must never drift
    /// from the active policy's key while the entry is queued.
    pub sort_key: i128,
    /// True while the entry sits at the front of its queue as an escalated
    /// forwarding node (set by RELIEF, Algorithm 1 line 18).
    pub is_fwd: bool,
    /// True if the task *could* forward: its parent has just finished, so
    /// the producer's output is still live in its scratchpad. Roots and
    /// re-inserted tasks are not candidates.
    pub fwd_candidate: bool,
    /// Runtime-internal storage slot of the owning DAG instance. The
    /// public identity (`key.instance`) is a monotonic admission serial;
    /// a runtime that recycles instance storage carries the dense slot
    /// here so the hot path indexes its arena without a serial→slot map.
    /// Policies must never order or compare on it. Defaults to
    /// `key.instance` (slot == serial when nothing recycles).
    pub slot: u32,
}

impl TaskEntry {
    /// Creates an entry with laxity derived from `deadline − runtime`.
    pub fn new(key: TaskKey, acc: AccTypeId, runtime: Dur, deadline: Time) -> Self {
        TaskEntry {
            key,
            acc,
            runtime,
            deadline,
            seq: 0,
            laxity: stored_laxity(deadline, runtime),
            sort_key: 0,
            is_fwd: false,
            fwd_candidate: false,
            slot: key.instance,
        }
    }

    /// Sets the arrival sequence number.
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the runtime-internal instance slot (see [`TaskEntry::slot`]).
    pub fn with_slot(mut self, slot: u32) -> Self {
        self.slot = slot;
        self
    }

    /// Marks the entry as a forwarding candidate (its parent just finished).
    pub fn forwarding_candidate(mut self) -> Self {
        self.fwd_candidate = true;
        self
    }

    /// Current laxity at `now` (Eq. 1): stored laxity minus the clock.
    pub fn curr_laxity(&self, now: Time) -> i128 {
        self.laxity - now.as_ps() as i128
    }

    /// Predicted runtime in picoseconds, as the signed type laxity math
    /// uses.
    pub fn runtime_ps(&self) -> i128 {
        self.runtime.as_ps() as i128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laxity_derivation() {
        let t = TaskEntry::new(TaskKey::new(1, 2), AccTypeId(0), Dur::from_us(10), Time::from_us(100));
        assert_eq!(t.laxity, 90_000_000); // (100 - 10)us in ps
        assert_eq!(t.curr_laxity(Time::from_us(50)), 40_000_000);
        assert_eq!(t.curr_laxity(Time::from_us(95)), -5_000_000);
    }

    #[test]
    fn negative_stored_laxity() {
        // Runtime exceeding the deadline yields negative laxity from t=0.
        let t = TaskEntry::new(TaskKey::new(0, 0), AccTypeId(0), Dur::from_us(10), Time::from_us(4));
        assert_eq!(t.laxity, -6_000_000);
        assert!(t.curr_laxity(Time::ZERO) < 0);
    }

    #[test]
    fn builders() {
        let t = TaskEntry::new(TaskKey::new(0, 1), AccTypeId(3), Dur::ZERO, Time::ZERO)
            .with_seq(42)
            .forwarding_candidate();
        assert_eq!(t.seq, 42);
        assert!(t.fwd_candidate);
        assert!(!t.is_fwd);
        assert_eq!(t.slot, 0, "slot defaults to key.instance");
        assert_eq!(t.with_slot(9).slot, 9);
    }

    #[test]
    fn key_display() {
        assert_eq!(TaskKey::new(3, 7).to_string(), "d3:n7");
    }
}
