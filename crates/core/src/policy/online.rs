//! The online policies: one [`Policy`] impl that runs any row of the
//! policy table.
//!
//! The paper's §II-C baselines share one non-preemptive ready-queue
//! discipline and differ only in their order key, deadline scheme and pop
//! rule. RELIEF (RElaxing Least-laxIty to Enable Forwarding, Algorithms 1
//! and 2) is LL plus throttled forwarding escalation. So [`Online`] is the
//! RELIEF body with each of those choices read from a [`PolicyKind`]'s
//! row.

use crate::policy::{DeadlineScheme, Escalation, Policy, PolicyKind, PopRule, Row};
use crate::queue::ReadyQueues;
use crate::task::{TaskEntry, TaskKey};
use relief_dag::AccTypeId;
use relief_sim::Time;
use relief_trace::{DenyReason, EventKind, TaskRef, Tracer};

/// Converts a scheduler task key into the trace layer's id type.
fn task_ref(key: TaskKey) -> TaskRef {
    TaskRef { instance: key.instance, node: key.node }
}

/// The paper's feasibility check (Algorithm 2).
///
/// Decides whether escalating forwarding node `fnode` to the front of
/// `acc`'s queue is unlikely to cause deadline misses, where `index` is the
/// position laxity order would have given `fnode`:
///
/// 1. Scan the queue from the head up to `index` for the first entry that
///    is *not* itself an escalated forwarding node and has positive current
///    laxity. Already-escalated entries must not block further escalations,
///    and negative-laxity entries are expected to miss their deadline with
///    or without the promotion.
/// 2. The escalation is feasible iff that entry's laxity exceeds `fnode`'s
///    runtime — because the queue is laxity-sorted, every later entry then
///    tolerates the delay too. With no such entry, escalation is feasible.
/// 3. On success, debit `fnode`'s runtime from the stored laxity of every
///    entry ahead of `index`, charging them for the delay they will absorb.
///
/// The scan is a prefix walk by design — that *is* the algorithm, not
/// queue-implementation overhead — and the debit goes through
/// [`ReadyQueues::debit_ahead`] so the cached sort keys stay consistent.
///
/// Returns whether the escalation may proceed; mutates laxities only when
/// it returns `true`.
pub fn is_feasible(
    queues: &mut ReadyQueues,
    acc: AccTypeId,
    fnode: &TaskEntry,
    index: usize,
    now: Time,
) -> bool {
    let mut can_forward = true;
    for node in queues.queue(acc).iter().take(index) {
        let curr_laxity = node.curr_laxity(now);
        if !node.is_fwd && curr_laxity > 0 {
            can_forward = curr_laxity > fnode.runtime_ps();
            break;
        }
    }
    if can_forward {
        queues.debit_ahead(acc, index, fnode.runtime_ps());
    }
    can_forward
}

/// Every online policy but [`Adaptive`](crate::Adaptive): the policy of
/// one [`PolicyKind`]'s row of the policy table (see the crate docs).
///
/// Every task is inserted at its order-key position, except that a row
/// with escalation on runs RELIEF's Algorithm 1: newly ready *forwarding
/// nodes* — children whose parent has just finished, so their input is
/// still live in the producer's scratchpad — go to the front of their
/// ready queue, provided
///
/// * the number of escalated entries does not exceed the number of idle
///   accelerator instances of that type (so every escalated node really is
///   next to run while its data is still live), and
/// * [`is_feasible`] accepts the promotion, unless the row is the
///   unthrottled ablation.
///
/// Failed candidates fall back to their key position. Laxity is stored
/// as `deadline − runtime` and the clock is subtracted at
/// queue-manipulation time, exactly as in the paper.
#[derive(Debug, Clone)]
pub(crate) struct Online {
    kind: PolicyKind,
    row: Row,
    tracer: Tracer,
    /// Reused per-enqueue buffer for forwarding candidates, so the per-event
    /// path allocates nothing.
    cand_scratch: Vec<TaskEntry>,
}

impl Online {
    /// Creates the policy of `kind`'s row.
    ///
    /// # Panics
    ///
    /// Panics for [`PolicyKind::Adaptive`], which switches between two
    /// rows and has none of its own; [`PolicyKind::build`] never asks.
    pub(crate) fn new(kind: PolicyKind) -> Self {
        let Some(row) = kind.row() else {
            panic!("{kind} has no row of the policy table");
        };
        Online { kind, row, tracer: Tracer::off(), cand_scratch: Vec::new() }
    }

    /// Inserts `entry` at its position under the row's order key.
    pub(crate) fn insert(&self, queues: &mut ReadyQueues, entry: TaskEntry) {
        let key = self.row.key;
        queues.insert_sorted(entry, |t| key.of(t));
    }

    /// LAX's pop: an escalated forwarding head always launches; otherwise
    /// the first non-negative-laxity task bypasses any negative-laxity
    /// tasks ahead of it; if every task is negative, the head launches. An
    /// out-of-order pop emits a `QueueBypass` trace event.
    fn pop_bypassing(
        &self,
        queues: &mut ReadyQueues,
        acc: AccTypeId,
        now: Time,
    ) -> Option<TaskEntry> {
        if queues.queue(acc).front()?.is_fwd {
            return queues.pop_front(acc);
        }
        // No escalated front means no escalated prefix, so the whole queue is
        // laxity-sorted and "first task with curr_laxity ≥ 0" — i.e. stored
        // laxity ≥ now — is a binary search.
        let i = queues.first_laxity_at_least(acc, now.as_ps() as i128);
        if i < queues.queue(acc).len() {
            let entry = queues.remove_at(acc, i);
            if i > 0 {
                self.tracer.emit(now.as_ps(), || EventKind::QueueBypass {
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
}

impl Policy for Online {
    fn kind(&self) -> PolicyKind {
        self.kind
    }

    fn deadline_scheme(&self) -> DeadlineScheme {
        self.row.scheme
    }

    fn enqueue_ready(
        &mut self,
        queues: &mut ReadyQueues,
        batch: &mut Vec<TaskEntry>,
        now: Time,
        idle: &[usize],
    ) {
        // Split the batch: forwarding candidates of an escalating row
        // (collected into the reused scratch buffer) versus everything
        // else (DAG roots, re-inserted work, any task of a baseline),
        // which takes its key position.
        let escalating = self.row.escalation != Escalation::Off;
        for entry in batch.drain(..) {
            if escalating && entry.fwd_candidate {
                self.cand_scratch.push(entry);
            } else {
                self.insert(queues, entry);
            }
        }
        if self.cand_scratch.is_empty() {
            return;
        }

        // Algorithm 1 visits candidates grouped by accelerator type (the
        // per-type laxity-sorted `fwd_nodes` lists), each group in
        // ascending-laxity order; one sort over the flat buffer produces
        // exactly that traversal.
        self.cand_scratch.sort_by_key(|t| (t.acc, t.laxity, t.seq));
        let cands = &self.cand_scratch;
        let throttled = self.row.escalation == Escalation::Throttled;
        let mut i = 0;
        while i < cands.len() {
            let acc = cands[i].acc;
            // Escalations already sitting un-launched at the front count
            // against the idle budget: every escalated node must be next in
            // line, or its producer's data may be overwritten.
            let already_escalated = queues.fwd_prefix(acc);
            let mut max_forwards = idle
                .get(acc.0 as usize)
                .copied()
                .unwrap_or(0)
                .saturating_sub(already_escalated);

            while i < cands.len() && cands[i].acc == acc {
                let mut node = cands[i];
                i += 1;
                node.sort_key = self.row.key.of(&node);
                let index = queues.find_pos(acc, &node);
                let task = task_ref(node.key);
                // Run Algorithm 2 only when an idle instance exists and the
                // throttle is enabled; trace its verdict when it runs.
                let check_passed = if max_forwards > 0 && throttled {
                    let ok = is_feasible(queues, acc, &node, index, now);
                    self.tracer.emit(now.as_ps(), || EventKind::FeasibilityCheck {
                        task,
                        acc: acc.0,
                        index: index as u64,
                        feasible: ok,
                    });
                    ok
                } else {
                    true
                };
                if max_forwards > 0 && check_passed {
                    self.tracer.emit(now.as_ps(), || EventKind::EscalationGranted {
                        task,
                        acc: acc.0,
                        index: index as u64,
                    });
                    queues.push_front_fwd(node);
                    max_forwards -= 1;
                } else {
                    let reason = if max_forwards == 0 {
                        DenyReason::NoIdleBudget
                    } else {
                        DenyReason::Infeasible
                    };
                    self.tracer.emit(now.as_ps(), || EventKind::EscalationDenied {
                        task,
                        acc: acc.0,
                        reason,
                    });
                    self.insert(queues, node);
                }
            }
        }
        self.cand_scratch.clear();
    }

    fn pop(&mut self, queues: &mut ReadyQueues, acc: AccTypeId, now: Time) -> Option<TaskEntry> {
        match self.row.pop {
            PopRule::Head => queues.pop_front(acc),
            PopRule::LaxBypass => self.pop_bypassing(queues, acc, now),
        }
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relief_sim::Dur;
    use relief_trace::CountersSink;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn mk(node: u32, runtime_us: u64, deadline_us: u64) -> TaskEntry {
        TaskEntry::new(
            TaskKey::new(0, node),
            AccTypeId(0),
            Dur::from_us(runtime_us),
            Time::from_us(deadline_us),
        )
        .with_seq(node as u64)
    }

    fn fwd(node: u32, runtime_us: u64, deadline_us: u64) -> TaskEntry {
        mk(node, runtime_us, deadline_us).forwarding_candidate()
    }

    /// `kind`'s policy with a counters sink tallying its trace events.
    fn traced(kind: PolicyKind) -> (Online, Rc<RefCell<CountersSink>>) {
        let tally = CountersSink::shared();
        let mut p = Online::new(kind);
        p.set_tracer(Tracer::to_sink(tally.clone()));
        (p, tally)
    }

    /// Escalations granted and denied so far.
    fn verdicts(tally: &RefCell<CountersSink>) -> (u64, u64) {
        let sink = tally.borrow();
        (sink.counters().escalations_granted, sink.counters().escalations_denied)
    }

    /// Pops `acc` 0 at time zero until the queue is empty.
    fn pop_all(p: &mut dyn Policy, q: &mut ReadyQueues) -> Vec<u32> {
        std::iter::from_fn(|| p.pop(q, AccTypeId(0), Time::ZERO).map(|t| t.key.node)).collect()
    }

    #[test]
    fn fcfs_pops_in_arrival_order_across_batches() {
        let mut p = PolicyKind::Fcfs.build();
        let mut q = ReadyQueues::new(1);
        let mut batch = vec![mk(2, 1, 5).with_seq(20), mk(0, 1, 5).with_seq(0)];
        p.enqueue_ready(&mut q, &mut batch, Time::ZERO, &[1]);
        p.enqueue_ready(&mut q, &mut vec![mk(1, 1, 5).with_seq(10)], Time::ZERO, &[1]);
        assert_eq!(pop_all(p.as_mut(), &mut q), vec![0, 1, 2]);
    }

    #[test]
    fn fcfs_empty_pop_is_none() {
        let mut p = PolicyKind::Fcfs.build();
        let mut q = ReadyQueues::new(1);
        assert!(p.pop(&mut q, AccTypeId(0), Time::ZERO).is_none());
    }

    #[test]
    fn gedf_n_orders_by_deadline() {
        let mut p = PolicyKind::GedfN.build();
        let mut q = ReadyQueues::new(1);
        let mut batch = vec![mk(0, 1, 30).with_seq(0), mk(1, 1, 10).with_seq(1)];
        p.enqueue_ready(&mut q, &mut batch, Time::ZERO, &[1]);
        p.enqueue_ready(&mut q, &mut vec![mk(2, 1, 20).with_seq(2)], Time::ZERO, &[1]);
        assert_eq!(pop_all(p.as_mut(), &mut q), vec![1, 2, 0]);
    }

    #[test]
    fn gedf_d_equal_deadlines_fall_back_to_arrival_order() {
        let mut p = PolicyKind::GedfD.build();
        let mut q = ReadyQueues::new(1);
        p.enqueue_ready(&mut q, &mut vec![mk(5, 1, 50).with_seq(2)], Time::ZERO, &[1]);
        p.enqueue_ready(&mut q, &mut vec![mk(3, 1, 50).with_seq(0)], Time::ZERO, &[1]);
        p.enqueue_ready(&mut q, &mut vec![mk(4, 1, 50).with_seq(1)], Time::ZERO, &[1]);
        assert_eq!(pop_all(p.as_mut(), &mut q), vec![3, 4, 5]);
    }

    #[test]
    fn ll_orders_by_laxity_not_deadline() {
        let mut p = PolicyKind::Ll.build();
        let mut q = ReadyQueues::new(1);
        // node 0: laxity 30-1=29; node 1: laxity 40-25=15 (later deadline,
        // less laxity).
        p.enqueue_ready(&mut q, &mut vec![mk(0, 1, 30), mk(1, 25, 40)], Time::ZERO, &[1]);
        assert_eq!(p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap().key.node, 1);
        assert_eq!(p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap().key.node, 0);
    }

    #[test]
    fn lax_bypasses_negative_laxity() {
        let mut p = PolicyKind::Lax.build();
        let mut q = ReadyQueues::new(1);
        // node 0 has negative laxity (runtime > deadline); node 1 positive.
        p.enqueue_ready(&mut q, &mut vec![mk(0, 50, 10), mk(1, 5, 100)], Time::ZERO, &[1]);
        // LL order would put node 0 first; LAX pops node 1 first.
        assert_eq!(q.queue(AccTypeId(0))[0].key.node, 0);
        assert_eq!(p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap().key.node, 1);
        assert_eq!(p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap().key.node, 0);
    }

    #[test]
    fn lax_falls_back_to_head_when_all_negative() {
        let mut p = PolicyKind::Lax.build();
        let mut q = ReadyQueues::new(1);
        p.enqueue_ready(&mut q, &mut vec![mk(0, 50, 10), mk(1, 70, 20)], Time::ZERO, &[1]);
        // Laxities: node 0 = -40us, node 1 = -50us; both negative, so LAX
        // falls back to the LL head (node 1, least laxity).
        assert_eq!(p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap().key.node, 1);
    }

    #[test]
    fn lax_deprioritization_depends_on_now() {
        let mut p = PolicyKind::Lax.build();
        let mut q = ReadyQueues::new(1);
        // Laxities 29us (node 0) and 15us (node 1), both positive at t=0.
        p.enqueue_ready(&mut q, &mut vec![mk(0, 1, 30), mk(1, 25, 40)], Time::ZERO, &[1]);
        // At t=20us: node 1 laxity = 15-20 < 0, node 0 = 29-20 > 0.
        assert_eq!(p.pop(&mut q, AccTypeId(0), Time::from_us(20)).unwrap().key.node, 0);
    }

    #[test]
    fn hetsched_orders_by_laxity() {
        let mut p = PolicyKind::HetSched.build();
        let mut q = ReadyQueues::new(1);
        let mut batch = vec![mk(0, 5, 50), mk(1, 5, 20), mk(2, 15, 25)];
        p.enqueue_ready(&mut q, &mut batch, Time::ZERO, &[1]);
        // Laxities: 45, 15, 10 -> pop order 2, 1, 0.
        assert_eq!(pop_all(p.as_mut(), &mut q), vec![2, 1, 0]);
    }

    #[test]
    fn escalates_forwarding_node_over_lower_laxity_work() {
        let (mut p, tally) = traced(PolicyKind::Relief);
        let mut q = ReadyQueues::new(1);
        // Existing ready node: laxity 90us, plenty of slack.
        p.enqueue_ready(&mut q, &mut vec![mk(0, 10, 100)], Time::ZERO, &[1]);
        // Forwarding candidate with *higher* laxity would sort behind it,
        // but gets escalated because node 0 can absorb 5us of delay.
        p.enqueue_ready(&mut q, &mut vec![fwd(1, 5, 200)], Time::ZERO, &[1]);
        let head = p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap();
        assert_eq!(head.key.node, 1);
        assert!(head.is_fwd);
        assert_eq!(verdicts(&tally).0, 1);
        // Node 0 was debited the candidate's runtime: 90 - 5 = 85us stored.
        assert_eq!(q.queue(AccTypeId(0))[0].laxity, 85_000_000);
    }

    #[test]
    fn feasibility_rejects_when_victim_cannot_absorb_delay() {
        let (mut p, tally) = traced(PolicyKind::Relief);
        let mut q = ReadyQueues::new(1);
        // Victim has laxity 4us; candidate runtime 5us > 4us -> reject.
        p.enqueue_ready(&mut q, &mut vec![mk(0, 6, 10)], Time::ZERO, &[1]);
        p.enqueue_ready(&mut q, &mut vec![fwd(1, 5, 200)], Time::ZERO, &[1]);
        assert_eq!(verdicts(&tally), (0, 1));
        // Vanilla LL order: victim first (lower laxity), laxity untouched.
        assert_eq!(pop_all(&mut p, &mut q), vec![0, 1]);
    }

    #[test]
    fn negative_laxity_victims_do_not_block_escalation() {
        let (mut p, tally) = traced(PolicyKind::Relief);
        let mut q = ReadyQueues::new(1);
        // Victim already doomed (negative laxity): bypassing it is free.
        p.enqueue_ready(&mut q, &mut vec![mk(0, 50, 10)], Time::ZERO, &[1]);
        p.enqueue_ready(&mut q, &mut vec![fwd(1, 5, 200)], Time::ZERO, &[1]);
        assert_eq!(verdicts(&tally).0, 1);
        assert_eq!(p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap().key.node, 1);
    }

    #[test]
    fn throttled_by_idle_instance_count() {
        let (mut p, tally) = traced(PolicyKind::Relief);
        let mut q = ReadyQueues::new(1);
        // Two candidates, one idle instance: only one escalation.
        p.enqueue_ready(&mut q, &mut vec![fwd(0, 1, 100), fwd(1, 1, 120)], Time::ZERO, &[1]);
        assert_eq!(verdicts(&tally), (1, 1));
        // The lower-laxity candidate (node 0) is escalated first.
        let head = p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap();
        assert_eq!(head.key.node, 0);
        assert!(head.is_fwd);
        let second = p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap();
        assert!(!second.is_fwd);
    }

    #[test]
    fn existing_unlaunched_escalations_consume_budget() {
        let (mut p, tally) = traced(PolicyKind::Relief);
        let mut q = ReadyQueues::new(1);
        p.enqueue_ready(&mut q, &mut vec![fwd(0, 1, 100)], Time::ZERO, &[1]);
        assert_eq!(verdicts(&tally).0, 1);
        // Queue still holds the escalated node; a new candidate with the
        // same single idle instance must not be escalated.
        p.enqueue_ready(&mut q, &mut vec![fwd(1, 1, 100)], Time::ZERO, &[1]);
        assert_eq!(verdicts(&tally), (1, 1));
    }

    #[test]
    fn zero_idle_instances_never_escalate() {
        let (mut p, tally) = traced(PolicyKind::Relief);
        let mut q = ReadyQueues::new(1);
        p.enqueue_ready(&mut q, &mut vec![fwd(0, 1, 100)], Time::ZERO, &[0]);
        assert_eq!(verdicts(&tally).0, 0);
        assert!(!q.queue(AccTypeId(0))[0].is_fwd);
    }

    #[test]
    fn multiple_idle_instances_allow_multiple_escalations() {
        let (mut p, tally) = traced(PolicyKind::Relief);
        let mut q = ReadyQueues::new(1);
        p.enqueue_ready(&mut q, &mut vec![fwd(0, 1, 100), fwd(1, 1, 120)], Time::ZERO, &[2]);
        assert_eq!(verdicts(&tally).0, 2);
        // Pseudocode order: candidates popped by ascending laxity and each
        // pushed to the *front*, so the later (higher-laxity) push leads.
        assert_eq!(pop_all(&mut p, &mut q), vec![1, 0]);
    }

    #[test]
    fn non_candidates_take_the_ll_path() {
        let (mut p, tally) = traced(PolicyKind::Relief);
        let mut q = ReadyQueues::new(1);
        p.enqueue_ready(&mut q, &mut vec![mk(0, 10, 100), mk(1, 10, 50)], Time::ZERO, &[1]);
        assert_eq!(verdicts(&tally).0, 0);
        assert_eq!(pop_all(&mut p, &mut q), vec![1, 0]); // pure laxity order
    }

    #[test]
    fn feasibility_scans_only_ahead_of_laxity_position() {
        let now = Time::ZERO;
        let acc = AccTypeId(0);
        let mut q = ReadyQueues::new(1);
        q.insert_sorted(mk(0, 1, 5), |t| t.laxity); // laxity 4us
        q.insert_sorted(mk(1, 1, 100), |t| t.laxity); // laxity 99us
        // Candidate with laxity between them: index 1. Victim is node 0
        // (4us) which cannot absorb a 10us runtime -> infeasible.
        let cand = fwd(2, 10, 60);
        assert!(!is_feasible(&mut q, acc, &cand, 1, now));
        // Same candidate at index 0 (it would be first anyway): no victims
        // ahead -> feasible, and nothing is debited.
        assert!(is_feasible(&mut q, acc, &cand, 0, now));
        assert_eq!(q.queue(acc)[0].laxity, 4_000_000);
    }

    #[test]
    fn feasibility_skips_fwd_entries_when_scanning() {
        let now = Time::ZERO;
        let acc = AccTypeId(0);
        let mut q = ReadyQueues::new(1);
        q.insert_sorted(mk(1, 1, 100), |t| t.laxity);
        // Tiny-laxity entry, but already escalated: must not block others.
        q.push_front_fwd(mk(0, 1, 2));
        let cand = fwd(2, 10, 60);
        assert!(is_feasible(&mut q, acc, &cand, 2, now));
        // Both entries ahead of index were debited.
        assert_eq!(q.queue(acc)[0].laxity, 1_000_000 - 10_000_000);
        assert_eq!(q.queue(acc)[1].laxity, 99_000_000 - 10_000_000);
    }

    #[test]
    fn relief_lax_pop_bypasses_negative_laxity() {
        let mut p = Online::new(PolicyKind::ReliefLax);
        assert_eq!(p.kind(), PolicyKind::ReliefLax);
        let mut q = ReadyQueues::new(1);
        p.enqueue_ready(&mut q, &mut vec![mk(0, 50, 10), mk(1, 5, 100)], Time::ZERO, &[0]);
        assert_eq!(p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap().key.node, 1);
    }

    #[test]
    fn relief_lax_pop_respects_escalated_head() {
        let mut p = Online::new(PolicyKind::ReliefLax);
        let mut q = ReadyQueues::new(1);
        // Escalated candidate with negative laxity at the head must still
        // launch first (its input data is live *now*).
        p.enqueue_ready(&mut q, &mut vec![mk(0, 5, 100)], Time::ZERO, &[1]);
        p.enqueue_ready(&mut q, &mut vec![fwd(1, 50, 10)], Time::ZERO, &[1]);
        let head = p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap();
        assert_eq!(head.key.node, 1);
        assert!(head.is_fwd);
    }

    #[test]
    fn unthrottled_variant_ignores_feasibility() {
        // Victim cannot absorb the delay, but the ablation escalates anyway.
        let (mut p, tally) = traced(PolicyKind::ReliefUnthrottled);
        assert_eq!(p.kind(), PolicyKind::ReliefUnthrottled);
        let mut q = ReadyQueues::new(1);
        p.enqueue_ready(&mut q, &mut vec![mk(0, 6, 10)], Time::ZERO, &[1]);
        p.enqueue_ready(&mut q, &mut vec![fwd(1, 5, 200)], Time::ZERO, &[1]);
        assert_eq!(verdicts(&tally).0, 1);
        assert_eq!(p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap().key.node, 1);
        // Still bounded by the idle-instance budget, though.
        let (mut p2, tally2) = traced(PolicyKind::ReliefUnthrottled);
        let mut q2 = ReadyQueues::new(1);
        p2.enqueue_ready(&mut q2, &mut vec![fwd(0, 1, 50), fwd(1, 1, 60)], Time::ZERO, &[1]);
        assert_eq!(verdicts(&tally2).0, 1);
    }

    #[test]
    fn hetsched_variant_reports_sdr_scheme() {
        let p = Online::new(PolicyKind::ReliefHet);
        assert_eq!(p.kind(), PolicyKind::ReliefHet);
        assert_eq!(p.deadline_scheme(), DeadlineScheme::HetSchedSdr);
        // Plain RELIEF keeps the LL scheme.
        let relief = Online::new(PolicyKind::Relief);
        assert_eq!(relief.deadline_scheme(), DeadlineScheme::NodeCriticalPath);
    }

    #[test]
    #[should_panic(expected = "no row")]
    fn adaptive_has_no_row() {
        let _ = Online::new(PolicyKind::Adaptive);
    }

    #[test]
    fn candidate_falls_back_to_laxity_position_when_rejected() {
        let mut p = Online::new(PolicyKind::Relief);
        let mut q = ReadyQueues::new(1);
        p.enqueue_ready(&mut q, &mut vec![mk(0, 6, 10), mk(1, 5, 300)], Time::ZERO, &[1]);
        // Candidate laxity (200-5=195us) sorts between node 0 (4us) and
        // node 1 (295us); rejection inserts it exactly there.
        p.enqueue_ready(&mut q, &mut vec![fwd(2, 5, 200)], Time::ZERO, &[1]);
        let order: Vec<u32> = q.queue(AccTypeId(0)).iter().map(|t| t.key.node).collect();
        assert_eq!(order, vec![0, 2, 1]);
    }
}
