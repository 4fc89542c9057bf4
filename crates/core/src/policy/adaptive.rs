//! DAS-style adaptive scheduling: a per-epoch switch between FCFS and
//! RELIEF.
//!
//! Goksoy et al. (DAS, arXiv:2109.11069) observe that a cheap policy is
//! good enough while an SoC is lightly loaded and that a sophisticated
//! one only pays for itself under pressure, so a low-overhead runtime
//! switch between the two captures most of the sophisticated policy's
//! benefit at a fraction of its scheduling cost. [`Adaptive`] transplants
//! that idea onto this codebase's pair of extremes: FCFS (cheapest
//! insert, no escalation) and RELIEF (laxity-sorted insert plus
//! forwarding escalation).
//!
//! The switch is evaluated at most once per *scheduling epoch*
//! ([`AdaptiveParams::epoch`]): the first scheduler invocation inside a
//! new epoch samples two signals over the ready queues —
//!
//! * **queue depth**: total queued tasks across all accelerator types,
//! * **laxity slack**: the minimum current laxity (Eq. 1) of any queued
//!   task,
//!
//! and applies hysteresis with two thresholds per signal: pressure
//! (depth ≥ `depth_hi` or slack ≤ `slack_lo`) engages RELIEF, relief
//! (depth ≤ `depth_lo` and slack ≥ `slack_hi`, or an empty queue) falls
//! back to FCFS, and anything in between holds the current mode so a
//! square-wave load cannot thrash the scheduler. On a switch the queues
//! are re-keyed in place under the target row's order key (arrival for
//! FCFS, laxity for RELIEF); escalated-prefix state is dropped, since
//! escalation windows do not survive a policy change.

use crate::policy::{DeadlineScheme, Online, Policy, PolicyKind};
use crate::queue::ReadyQueues;
use crate::task::TaskEntry;
use relief_dag::AccTypeId;
use relief_sim::{Dur, Time};
use relief_trace::Tracer;

/// Which of the two inner policies is currently active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Low-pressure mode: FIFO order, cheapest scheduling path.
    Fcfs,
    /// High-pressure mode: RELIEF's laxity order plus forwarding
    /// escalation.
    Relief,
}

/// Knobs for the adaptive switch. All thresholds operate on the signals
/// sampled at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveParams {
    /// Scheduling-epoch length; the switch is evaluated at most once per
    /// epoch, on the first scheduler invocation inside it.
    pub epoch: Dur,
    /// Engage RELIEF when total queue depth reaches this many tasks.
    pub depth_hi: usize,
    /// Allow falling back to FCFS only when depth is at most this.
    pub depth_lo: usize,
    /// Engage RELIEF when the minimum current laxity (ps) drops to this.
    pub slack_lo: i128,
    /// Allow falling back to FCFS only when the minimum current laxity
    /// (ps) has recovered to at least this.
    pub slack_hi: i128,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        AdaptiveParams {
            epoch: Dur::from_us(50),
            depth_hi: 6,
            depth_lo: 2,
            slack_lo: 0,
            slack_hi: Dur::from_us(50).as_ps() as i128,
        }
    }
}

/// The DAS-style adaptive policy (see the module docs).
#[derive(Debug)]
pub struct Adaptive {
    params: AdaptiveParams,
    mode: SchedMode,
    /// Index of the last epoch in which the switch was evaluated. Starts
    /// at 0, so the starting mode always survives the first epoch — and
    /// an epoch longer than the whole run never re-evaluates at all.
    epoch_idx: u64,
    switches: u64,
    /// The policies of the two modes' rows.
    fcfs: Online,
    relief: Online,
}

impl Default for Adaptive {
    fn default() -> Self {
        Adaptive::new()
    }
}

impl Adaptive {
    /// Creates the adaptive policy with default parameters, starting in
    /// FCFS mode (the cheap policy, as DAS does).
    pub fn new() -> Self {
        Adaptive::with_params(AdaptiveParams::default())
    }

    /// Creates the adaptive policy with explicit parameters, starting in
    /// FCFS mode.
    pub fn with_params(params: AdaptiveParams) -> Self {
        Adaptive {
            params,
            mode: SchedMode::Fcfs,
            epoch_idx: 0,
            switches: 0,
            fcfs: Online::new(PolicyKind::Fcfs),
            relief: Online::new(PolicyKind::Relief),
        }
    }

    /// Sets the starting mode (the mode held until the first epoch
    /// boundary decides otherwise).
    pub fn starting_in(mut self, mode: SchedMode) -> Self {
        self.mode = mode;
        self
    }

    /// The currently active mode.
    pub fn mode(&self) -> SchedMode {
        self.mode
    }

    /// Number of mode switches performed so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The configured parameters.
    pub fn params(&self) -> AdaptiveParams {
        self.params
    }

    /// The policy of the current mode's row.
    fn active(&mut self) -> &mut Online {
        match self.mode {
            SchedMode::Fcfs => &mut self.fcfs,
            SchedMode::Relief => &mut self.relief,
        }
    }

    /// Evaluates the switch if `now` has entered a new epoch.
    fn maybe_switch(&mut self, queues: &mut ReadyQueues, now: Time) {
        let epoch_ps = self.params.epoch.as_ps().max(1);
        let idx = now.as_ps() / epoch_ps;
        if idx <= self.epoch_idx {
            return;
        }
        self.epoch_idx = idx;
        let depth = queues.len();
        let min_slack = min_current_laxity(queues, now);
        let target = match self.mode {
            SchedMode::Fcfs => {
                let pressure = depth >= self.params.depth_hi
                    || min_slack.is_some_and(|s| s <= self.params.slack_lo);
                if pressure {
                    SchedMode::Relief
                } else {
                    SchedMode::Fcfs
                }
            }
            SchedMode::Relief => {
                let relaxed = depth <= self.params.depth_lo
                    && min_slack.is_none_or(|s| s >= self.params.slack_hi);
                if relaxed {
                    SchedMode::Fcfs
                } else {
                    SchedMode::Relief
                }
            }
        };
        if target != self.mode {
            self.mode = target;
            self.switches += 1;
            resort(queues, self.active());
        }
    }
}

/// Minimum current laxity (Eq. 1) over every queued task, or `None` when
/// nothing is queued.
fn min_current_laxity(queues: &ReadyQueues, now: Time) -> Option<i128> {
    let mut min = None;
    for t in 0..queues.num_types() {
        for e in queues.queue(AccTypeId(t as u32)) {
            let l = e.curr_laxity(now);
            min = Some(match min {
                None => l,
                Some(m) if l < m => l,
                Some(m) => m,
            });
        }
    }
    min
}

/// Re-keys every queue for the new mode: drains each queue and reinserts
/// its entries under the `target` row's order key. Escalated (`is_fwd`)
/// markers are dropped — an escalation window granted under the old mode
/// is not honored across a switch.
fn resort(queues: &mut ReadyQueues, target: &Online) {
    let mut drained: Vec<TaskEntry> = Vec::with_capacity(queues.len());
    for t in 0..queues.num_types() {
        let acc = AccTypeId(t as u32);
        while let Some(e) = queues.pop_front(acc) {
            drained.push(e);
        }
    }
    for e in drained {
        target.insert(queues, e);
    }
}

impl Policy for Adaptive {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Adaptive
    }

    fn deadline_scheme(&self) -> DeadlineScheme {
        PolicyKind::Adaptive.deadline_scheme()
    }

    fn enqueue_ready(
        &mut self,
        queues: &mut ReadyQueues,
        batch: &mut Vec<TaskEntry>,
        now: Time,
        idle: &[usize],
    ) {
        self.maybe_switch(queues, now);
        self.active().enqueue_ready(queues, batch, now, idle);
    }

    fn pop(&mut self, queues: &mut ReadyQueues, acc: AccTypeId, now: Time) -> Option<TaskEntry> {
        self.maybe_switch(queues, now);
        self.active().pop(queues, acc, now)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.fcfs.set_tracer(tracer.clone());
        self.relief.set_tracer(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKey;

    fn mk(node: u32, runtime_us: u64, deadline_us: u64, seq: u64) -> TaskEntry {
        TaskEntry::new(
            TaskKey::new(0, node),
            AccTypeId(0),
            Dur::from_us(runtime_us),
            Time::from_us(deadline_us),
        )
        .with_seq(seq)
    }

    fn params() -> AdaptiveParams {
        AdaptiveParams {
            epoch: Dur::from_us(10),
            depth_hi: 4,
            depth_lo: 1,
            slack_lo: 0,
            slack_hi: Dur::from_us(20).as_ps() as i128,
        }
    }

    /// Fills the queue to `depth` with generously slack tasks.
    fn fill(p: &mut Adaptive, q: &mut ReadyQueues, depth: usize, t: Time) {
        let mut batch: Vec<TaskEntry> =
            (0..depth as u32).map(|i| mk(i, 1, 100_000, i as u64)).collect();
        p.enqueue_ready(q, &mut batch, t, &[0]);
    }

    #[test]
    fn starts_in_fcfs_and_orders_by_arrival() {
        let mut p = Adaptive::with_params(params());
        assert_eq!(p.mode(), SchedMode::Fcfs);
        assert_eq!(p.kind(), PolicyKind::Adaptive);
        let mut q = ReadyQueues::new(1);
        // Later deadline first: FCFS must keep arrival order anyway.
        let mut batch = vec![mk(0, 1, 900, 0), mk(1, 1, 100, 1)];
        p.enqueue_ready(&mut q, &mut batch, Time::ZERO, &[1]);
        assert_eq!(p.pop(&mut q, AccTypeId(0), Time::ZERO).unwrap().key.node, 0);
    }

    #[test]
    fn deep_queue_engages_relief_at_epoch_boundary() {
        let mut p = Adaptive::with_params(params());
        let mut q = ReadyQueues::new(1);
        fill(&mut p, &mut q, 5, Time::from_us(1));
        assert_eq!(p.mode(), SchedMode::Fcfs, "no evaluation inside the first epoch");
        // First invocation inside epoch 1 samples depth 5 >= depth_hi 4.
        p.enqueue_ready(&mut q, &mut Vec::new(), Time::from_us(11), &[1]);
        assert_eq!(p.mode(), SchedMode::Relief);
        assert_eq!(p.switches(), 1);
    }

    #[test]
    fn switch_resorts_queue_for_new_mode() {
        let mut p = Adaptive::with_params(params());
        let mut q = ReadyQueues::new(1);
        // Arrival order 0,1,2,3,4 but descending slack for later nodes.
        let mut batch: Vec<TaskEntry> =
            (0..5).map(|i| mk(i, 1, 1_000 - 100 * i as u64, i as u64)).collect();
        p.enqueue_ready(&mut q, &mut batch, Time::ZERO, &[0]);
        let fifo: Vec<u32> = q.queue(AccTypeId(0)).iter().map(|t| t.key.node).collect();
        assert_eq!(fifo, vec![0, 1, 2, 3, 4]);
        p.pop(&mut q, AccTypeId(0), Time::from_us(11)); // epoch 1: switch
        assert_eq!(p.mode(), SchedMode::Relief);
        // Remaining entries are now in ascending-laxity order.
        let lax: Vec<i128> = q.queue(AccTypeId(0)).iter().map(|t| t.laxity).collect();
        let mut sorted = lax.clone();
        sorted.sort_unstable();
        assert_eq!(lax, sorted);
    }

    #[test]
    fn hysteresis_holds_mode_between_thresholds() {
        let mut p = Adaptive::with_params(params());
        let mut q = ReadyQueues::new(1);
        fill(&mut p, &mut q, 5, Time::from_us(1));
        p.enqueue_ready(&mut q, &mut Vec::new(), Time::from_us(11), &[1]);
        assert_eq!(p.mode(), SchedMode::Relief);
        // Square-wave between the thresholds: depth oscillates 2..=3,
        // inside (depth_lo, depth_hi) — the mode must hold for epochs on
        // end, not track the wave.
        for epoch in 2..30u64 {
            let now = Time::from_us(10 * epoch + 1);
            if q.len() > 2 {
                while q.len() > 2 {
                    q.pop_front(AccTypeId(0));
                }
            } else {
                let mut batch = vec![mk(100 + epoch as u32, 1, 100_000, 100 + epoch)];
                p.enqueue_ready(&mut q, &mut batch, now, &[0]);
            }
            p.enqueue_ready(&mut q, &mut Vec::new(), now, &[0]);
        }
        assert_eq!(p.mode(), SchedMode::Relief);
        assert_eq!(p.switches(), 1, "square wave inside the band must not thrash");
    }

    #[test]
    fn drained_queue_relaxes_back_to_fcfs() {
        let mut p = Adaptive::with_params(params());
        let mut q = ReadyQueues::new(1);
        fill(&mut p, &mut q, 5, Time::from_us(1));
        p.enqueue_ready(&mut q, &mut Vec::new(), Time::from_us(11), &[1]);
        assert_eq!(p.mode(), SchedMode::Relief);
        while q.pop_front(AccTypeId(0)).is_some() {}
        p.enqueue_ready(&mut q, &mut Vec::new(), Time::from_us(21), &[1]);
        assert_eq!(p.mode(), SchedMode::Fcfs);
        assert_eq!(p.switches(), 2);
    }

    #[test]
    fn negative_slack_engages_relief_even_when_shallow() {
        let mut p = Adaptive::with_params(params());
        let mut q = ReadyQueues::new(1);
        // One task, already past its deadline at epoch evaluation time.
        let mut batch = vec![mk(0, 10, 5, 0)];
        p.enqueue_ready(&mut q, &mut batch, Time::ZERO, &[0]);
        p.enqueue_ready(&mut q, &mut Vec::new(), Time::from_us(11), &[0]);
        assert_eq!(p.mode(), SchedMode::Relief);
    }

    #[test]
    fn epoch_longer_than_horizon_never_switches() {
        let mut p = Adaptive::with_params(AdaptiveParams {
            epoch: Dur::from_ms(100),
            ..params()
        });
        let mut q = ReadyQueues::new(1);
        for step in 0..50u64 {
            fill(&mut p, &mut q, 6, Time::from_us(step * 20));
            while q.pop_front(AccTypeId(0)).is_some() {}
        }
        assert_eq!(p.mode(), SchedMode::Fcfs);
        assert_eq!(p.switches(), 0);
    }

    #[test]
    fn starting_mode_is_configurable() {
        let p = Adaptive::with_params(params()).starting_in(SchedMode::Relief);
        assert_eq!(p.mode(), SchedMode::Relief);
        assert_eq!(p.deadline_scheme(), DeadlineScheme::NodeCriticalPath);
    }
}
