//! Per-accelerator-type ready queues.
//!
//! The hardware manager keeps one sorted ready queue per accelerator type
//! (§II-B); policies differ only in the sort key and in how (RELIEF) or
//! whether (the baselines) they escalate forwarding nodes. Escalated
//! entries sit at the *front* of a queue, marked `is_fwd`; the remainder of
//! the queue is kept sorted by the active policy's key.
//!
//! # Hot-path invariants
//!
//! Every entry caches its policy sort key in [`TaskEntry::sort_key`]
//! (written by [`insert_sorted`](ReadyQueues::insert_sorted)), and a
//! per-queue counter tracks the length of the escalated (`is_fwd`) prefix.
//! Together these make [`find_pos`](ReadyQueues::find_pos) a binary search
//! over the sorted region instead of a head-to-tail walk: the prefix
//! counter gives the region's start in O(1) and the cached keys make each
//! probe a pair comparison. FIFO-among-equals is preserved because the
//! search key is `(sort_key, seq)` with the same `seq` tiebreak the linear
//! scan used.
//!
//! The cached keys stay valid because every mutation flows through this
//! type: sorted inserts write the key, RELIEF's feasibility debits go
//! through [`debit_ahead`](ReadyQueues::debit_ahead) (which adjusts
//! `laxity` and `sort_key` in lockstep — a uniform debit of a queue prefix
//! preserves sorted order), and escalated entries live outside the sorted
//! region entirely.

use crate::task::{TaskEntry, TaskKey};
use relief_dag::AccTypeId;
use std::collections::VecDeque;

/// Ready queues indexed by accelerator type.
#[derive(Debug, Clone, Default)]
pub struct ReadyQueues {
    queues: Vec<VecDeque<TaskEntry>>,
    /// Number of escalated (`is_fwd`) entries at the front of each queue.
    fwd_prefix: Vec<usize>,
    /// Route position queries through the pre-optimisation linear scans
    /// (reference hot path; results are identical by construction).
    reference_linear_scans: bool,
    ops: u64,
}

/// First index in `q[start..]` for which `pred` is false, assuming `pred`
/// is monotone (true-prefix / false-suffix) over that region. `VecDeque`
/// indexing is O(1), so this is a plain binary search.
fn partition_point_from(
    q: &VecDeque<TaskEntry>,
    start: usize,
    pred: impl Fn(&TaskEntry) -> bool,
) -> usize {
    let mut lo = start;
    let mut hi = q.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(&q[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl ReadyQueues {
    /// Creates empty queues for `num_acc_types` accelerator types.
    pub fn new(num_acc_types: usize) -> Self {
        ReadyQueues {
            queues: vec![VecDeque::new(); num_acc_types],
            fwd_prefix: vec![0; num_acc_types],
            reference_linear_scans: false,
            ops: 0,
        }
    }

    /// Number of accelerator types.
    pub fn num_types(&self) -> usize {
        self.queues.len()
    }

    /// Read access to one queue.
    ///
    /// # Panics
    ///
    /// Panics if `acc` is out of range.
    pub fn queue(&self, acc: AccTypeId) -> &VecDeque<TaskEntry> {
        &self.queues[acc.0 as usize]
    }

    /// Number of escalated (`is_fwd`) entries at the front of `acc`'s
    /// queue, i.e. where the sorted region starts.
    pub fn fwd_prefix(&self, acc: AccTypeId) -> usize {
        self.fwd_prefix[acc.0 as usize]
    }

    /// Total queued tasks across all types.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// True when every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Number of elementary queue operations that touched an entry
    /// (inserts, successful pops, removals, feasibility debits) — a proxy
    /// for scheduler work. Accesses that find nothing to operate on (e.g. a
    /// pop from an empty queue) are not counted.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Routes position queries through the pre-optimisation linear scans.
    /// Only the cost model changes: the linear and binary paths return
    /// identical results (pinned by the `queue_properties` suite). Used by
    /// the simulator's reference hot path.
    pub fn set_reference_linear_scans(&mut self, on: bool) {
        self.reference_linear_scans = on;
    }

    /// The insertion index for `entry`: after the escalated (`is_fwd`)
    /// prefix, before the first entry with a strictly greater
    /// `(sort_key, seq)` pair (FIFO among equals). This is the paper's
    /// `find_pos`, as a binary search over the sorted region.
    ///
    /// `entry.sort_key` must already hold the active policy's key.
    pub fn find_pos(&self, acc: AccTypeId, entry: &TaskEntry) -> usize {
        if self.reference_linear_scans {
            return self.find_pos_linear(acc, entry);
        }
        let q = self.queue(acc);
        let start = self.fwd_prefix[acc.0 as usize];
        let target = (entry.sort_key, entry.seq);
        partition_point_from(q, start, |t| (t.sort_key, t.seq) <= target)
    }

    /// Reference implementation of [`find_pos`](Self::find_pos): the
    /// original head-to-tail walk. Kept as the oracle for the binary-search
    /// property tests and as the reference hot path's cost model.
    pub fn find_pos_linear(&self, acc: AccTypeId, entry: &TaskEntry) -> usize {
        let q = self.queue(acc);
        let start = q.iter().take_while(|t| t.is_fwd).count();
        let target = (entry.sort_key, entry.seq);
        let mut pos = start;
        for t in q.iter().skip(start) {
            if (t.sort_key, t.seq) > target {
                break;
            }
            pos += 1;
        }
        pos
    }

    /// Inserts `entry` at the position returned by
    /// [`find_pos`](Self::find_pos), caching `key(entry)` as its sort key.
    pub fn insert_sorted(
        &mut self,
        mut entry: TaskEntry,
        key: impl Fn(&TaskEntry) -> i128,
    ) {
        entry.is_fwd = false;
        entry.sort_key = key(&entry);
        let pos = self.find_pos(entry.acc, &entry);
        self.ops += 1;
        self.queues[entry.acc.0 as usize].insert(pos, entry);
    }

    /// Pushes an escalated forwarding node at the front of its queue
    /// (Algorithm 1, line 17), growing the escalated prefix.
    pub fn push_front_fwd(&mut self, mut entry: TaskEntry) {
        entry.is_fwd = true;
        self.ops += 1;
        self.fwd_prefix[entry.acc.0 as usize] += 1;
        self.queues[entry.acc.0 as usize].push_front(entry);
    }

    /// Pops the head of `acc`'s queue.
    pub fn pop_front(&mut self, acc: AccTypeId) -> Option<TaskEntry> {
        let popped = self.queues[acc.0 as usize].pop_front()?;
        self.ops += 1;
        if popped.is_fwd {
            self.fwd_prefix[acc.0 as usize] -= 1;
        }
        Some(popped)
    }

    /// Removes and returns the entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove_at(&mut self, acc: AccTypeId, index: usize) -> TaskEntry {
        // Documented panic: callers pass indices from their own scan.
        #[allow(clippy::expect_used)]
        let removed = self.queues[acc.0 as usize].remove(index).expect("index in bounds");
        self.ops += 1;
        if removed.is_fwd {
            self.fwd_prefix[acc.0 as usize] -= 1;
        }
        removed
    }

    /// True when `key` is queued on `acc` as an escalated entry or at the
    /// very head — i.e. it is next in line to launch. O(escalated prefix),
    /// which is bounded by the type's instance count.
    pub fn is_escalated_or_head(&self, acc: AccTypeId, key: TaskKey) -> bool {
        let q = self.queue(acc);
        if self.reference_linear_scans {
            return match q.iter().position(|t| t.key == key) {
                Some(i) => i == 0 || q[i].is_fwd,
                None => false,
            };
        }
        q.front().is_some_and(|t| t.key == key)
            || q.iter().take(self.fwd_prefix[acc.0 as usize]).any(|t| t.key == key)
    }

    /// Index of the first entry in `acc`'s sorted region whose *stored
    /// laxity* is at least `threshold` (picoseconds), or the queue length
    /// if none. Valid only under laxity-keyed policies, where
    /// `sort_key == laxity` and the region is laxity-sorted; used by LAX's
    /// de-prioritization pop.
    pub fn first_laxity_at_least(&self, acc: AccTypeId, threshold: i128) -> usize {
        let q = self.queue(acc);
        let start = self.fwd_prefix[acc.0 as usize];
        debug_assert!(
            q.iter().skip(start).all(|t| t.sort_key == t.laxity),
            "laxity search requires laxity-keyed entries"
        );
        if self.reference_linear_scans {
            return q
                .iter()
                .position(|t| t.laxity >= threshold)
                .unwrap_or(q.len());
        }
        partition_point_from(q, start, |t| t.laxity < threshold)
    }

    /// Debits `amount` from the stored laxity (and cached sort key) of
    /// every entry ahead of `index` in `acc`'s queue — Algorithm 2's
    /// line 13, charging the entries an escalated node will delay. A
    /// uniform debit of a queue prefix preserves the sorted-region order,
    /// so the binary-search invariant survives.
    pub fn debit_ahead(&mut self, acc: AccTypeId, index: usize, amount: i128) {
        if index > 0 {
            self.ops += 1;
        }
        for node in self.queues[acc.0 as usize].iter_mut().take(index) {
            node.laxity -= amount;
            node.sort_key -= amount;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relief_sim::{Dur, Time};

    fn entry(node: u32, laxity_us: i128) -> TaskEntry {
        let mut e = TaskEntry::new(
            TaskKey::new(0, node),
            AccTypeId(0),
            Dur::ZERO,
            Time::ZERO,
        );
        e.laxity = laxity_us * 1_000_000;
        e
    }

    fn by_laxity(t: &TaskEntry) -> i128 {
        t.laxity
    }

    #[test]
    fn sorted_insert_is_stable() {
        let mut q = ReadyQueues::new(1);
        q.insert_sorted(entry(0, 10), by_laxity);
        q.insert_sorted(entry(1, 5), by_laxity);
        q.insert_sorted(entry(2, 10), by_laxity); // tie with node 0: goes after
        q.insert_sorted(entry(3, 7), by_laxity);
        let order: Vec<u32> = q.queue(AccTypeId(0)).iter().map(|t| t.key.node).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    #[test]
    fn fwd_prefix_is_skipped_by_sorted_insert() {
        let mut q = ReadyQueues::new(1);
        q.push_front_fwd(entry(9, 100)); // escalated, huge laxity, still first
        q.insert_sorted(entry(1, 5), by_laxity);
        q.insert_sorted(entry(2, 1), by_laxity);
        let order: Vec<u32> = q.queue(AccTypeId(0)).iter().map(|t| t.key.node).collect();
        assert_eq!(order, vec![9, 2, 1]);
        assert!(q.queue(AccTypeId(0))[0].is_fwd);
        assert_eq!(q.fwd_prefix(AccTypeId(0)), 1);
    }

    #[test]
    fn fwd_prefix_counter_tracks_pops_and_removals() {
        let mut q = ReadyQueues::new(1);
        q.push_front_fwd(entry(0, 1));
        q.push_front_fwd(entry(1, 2));
        q.insert_sorted(entry(2, 3), by_laxity);
        assert_eq!(q.fwd_prefix(AccTypeId(0)), 2);
        assert!(q.pop_front(AccTypeId(0)).unwrap().is_fwd);
        assert_eq!(q.fwd_prefix(AccTypeId(0)), 1);
        q.remove_at(AccTypeId(0), 0);
        assert_eq!(q.fwd_prefix(AccTypeId(0)), 0);
        q.remove_at(AccTypeId(0), 0); // plain entry: prefix unaffected
        assert_eq!(q.fwd_prefix(AccTypeId(0)), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn escalated_or_head_queries() {
        let mut q = ReadyQueues::new(2);
        q.insert_sorted(entry(4, 2), by_laxity);
        q.insert_sorted(entry(5, 9), by_laxity);
        q.push_front_fwd(entry(6, 50));
        // Escalated entry and the head... node 6 is both; node 4 sits at
        // index 1 behind the escalation; node 5 at the tail.
        assert!(q.is_escalated_or_head(AccTypeId(0), TaskKey::new(0, 6)));
        assert!(!q.is_escalated_or_head(AccTypeId(0), TaskKey::new(0, 4)));
        assert!(!q.is_escalated_or_head(AccTypeId(0), TaskKey::new(0, 5)));
        assert!(!q.is_escalated_or_head(AccTypeId(1), TaskKey::new(0, 4)));
        // With the escalation gone, node 4 is the head.
        q.pop_front(AccTypeId(0));
        assert!(q.is_escalated_or_head(AccTypeId(0), TaskKey::new(0, 4)));
    }

    #[test]
    fn pop_and_remove() {
        let mut q = ReadyQueues::new(1);
        q.insert_sorted(entry(0, 3), by_laxity);
        q.insert_sorted(entry(1, 1), by_laxity);
        q.insert_sorted(entry(2, 2), by_laxity);
        assert_eq!(q.pop_front(AccTypeId(0)).unwrap().key.node, 1);
        assert_eq!(q.remove_at(AccTypeId(0), 1).key.node, 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queues() {
        let mut q = ReadyQueues::new(3);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop_front(AccTypeId(2)), None);
    }

    #[test]
    fn ops_counts_only_entry_touching_operations() {
        let mut q = ReadyQueues::new(1);
        assert_eq!(q.ops(), 0);
        // Pops from an empty queue are not scheduler work.
        assert_eq!(q.pop_front(AccTypeId(0)), None);
        assert_eq!(q.pop_front(AccTypeId(0)), None);
        assert_eq!(q.ops(), 0);
        q.insert_sorted(entry(0, 5), by_laxity); // +1
        q.push_front_fwd(entry(1, 9)); // +1
        assert_eq!(q.ops(), 2);
        assert!(q.pop_front(AccTypeId(0)).is_some()); // +1
        q.debit_ahead(AccTypeId(0), 1, 1_000); // touches node 0: +1
        q.debit_ahead(AccTypeId(0), 0, 1_000); // empty prefix: no-op
        assert_eq!(q.ops(), 4);
        assert!(q.pop_front(AccTypeId(0)).is_some()); // +1
        assert_eq!(q.pop_front(AccTypeId(0)), None); // empty again: no-op
        assert_eq!(q.ops(), 5);
    }

    #[test]
    fn debit_ahead_keeps_sort_key_in_sync() {
        let mut q = ReadyQueues::new(1);
        q.insert_sorted(entry(0, 10), by_laxity);
        q.insert_sorted(entry(1, 20), by_laxity);
        q.insert_sorted(entry(2, 30), by_laxity);
        q.debit_ahead(AccTypeId(0), 2, 4_000_000);
        let queue = q.queue(AccTypeId(0));
        assert_eq!(queue[0].laxity, 6_000_000);
        assert_eq!(queue[0].sort_key, 6_000_000);
        assert_eq!(queue[1].laxity, 16_000_000);
        assert_eq!(queue[1].sort_key, 16_000_000);
        assert_eq!(queue[2].laxity, 30_000_000); // beyond index: untouched
        // The region is still sorted, so a subsequent insert lands right.
        q.insert_sorted(entry(3, 8), by_laxity); // 8_000_000: between 6 and 16
        let order: Vec<u32> = q.queue(AccTypeId(0)).iter().map(|t| t.key.node).collect();
        assert_eq!(order, vec![0, 3, 1, 2]);
    }

    #[test]
    fn first_laxity_at_least_matches_linear_scan() {
        let mut q = ReadyQueues::new(1);
        for (n, lax) in [(0, -5), (1, -2), (2, 0), (3, 3), (4, 3), (5, 9)] {
            q.insert_sorted(entry(n, lax), by_laxity);
        }
        for threshold_us in [-10, -5, -1, 0, 3, 4, 9, 10] {
            let t = threshold_us * 1_000_000;
            let linear = q
                .queue(AccTypeId(0))
                .iter()
                .position(|e| e.laxity >= t)
                .unwrap_or(q.queue(AccTypeId(0)).len());
            assert_eq!(q.first_laxity_at_least(AccTypeId(0), t), linear, "threshold {t}");
        }
    }
}
