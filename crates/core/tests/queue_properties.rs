//! Property-style tests of the ready-queue invariants every policy must
//! preserve under arbitrary interleavings of batch insertions and pops.
//!
//! Scripts are generated with the in-tree SplitMix64 generator instead of
//! proptest (unfetchable in the sandbox): fixed seeds, deterministic
//! cases, and every failure message carries the case seed for replay.

use relief_core::{PolicyKind, ReadyQueues, TaskEntry, TaskKey};
use relief_dag::AccTypeId;
use relief_sim::{Dur, SplitMix64, Time};

/// One scripted scheduler interaction.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a batch of tasks (runtime µs, deadline µs, fwd candidate).
    Enqueue(Vec<(u64, u64, bool)>),
    /// Pop for an idle accelerator.
    Pop,
    /// Advance the clock.
    Advance(u64),
}

fn random_op(rng: &mut SplitMix64) -> Op {
    match rng.u32_below(3) {
        0 => {
            let n = 1 + rng.usize_below(3);
            let batch = (0..n)
                .map(|_| {
                    (1 + rng.u64_below(199), 1 + rng.u64_below(1999), rng.chance(0.5))
                })
                .collect();
            Op::Enqueue(batch)
        }
        1 => Op::Pop,
        _ => Op::Advance(1 + rng.u64_below(299)),
    }
}

fn random_script(rng: &mut SplitMix64) -> Vec<Op> {
    let len = 1 + rng.usize_below(39);
    (0..len).map(|_| random_op(rng)).collect()
}

/// Drives a policy through a script, checking invariants after each step.
fn drive(policy_kind: PolicyKind, script: Vec<Op>, idle: usize, ctx: &str) {
    let mut policy = policy_kind.build();
    let mut queues = ReadyQueues::new(1);
    let acc = AccTypeId(0);
    let mut now = Time::ZERO;
    let mut next_node = 0u32;
    let mut seq = 0u64;
    let mut queued = 0usize;
    let mut idle_now = idle;

    for op in script {
        match op {
            Op::Enqueue(batch) => {
                let mut entries: Vec<TaskEntry> = batch
                    .into_iter()
                    .map(|(rt, ddl, fwd)| {
                        let mut e = TaskEntry::new(
                            TaskKey::new(0, next_node),
                            acc,
                            Dur::from_us(rt),
                            now + Dur::from_us(ddl),
                        )
                        .with_seq(seq);
                        next_node += 1;
                        seq += 1;
                        if fwd {
                            e = e.forwarding_candidate();
                        }
                        e
                    })
                    .collect();
                queued += entries.len();
                policy.enqueue_ready(&mut queues, &mut entries, now, &[idle_now]);
            }
            Op::Pop => {
                let popped = policy.pop(&mut queues, acc, now);
                assert_eq!(popped.is_some(), queued > 0, "{ctx}: pop iff non-empty");
                if popped.is_some() {
                    queued -= 1;
                    idle_now = idle_now.saturating_sub(1);
                }
            }
            Op::Advance(us) => now += Dur::from_us(us),
        }

        // Invariant 1: no entries lost or duplicated.
        assert_eq!(queues.len(), queued, "{ctx}");
        let q = queues.queue(acc);
        // Invariant 2: escalated entries form a prefix...
        let fwd_prefix = q.iter().take_while(|t| t.is_fwd).count();
        assert!(
            q.iter().skip(fwd_prefix).all(|t| !t.is_fwd),
            "{ctx}: is_fwd entries must be a queue prefix"
        );
        // ...bounded by the idle budget, and absent under the six
        // baselines, which never escalate.
        let budget = match policy_kind {
            PolicyKind::Fcfs
            | PolicyKind::GedfD
            | PolicyKind::GedfN
            | PolicyKind::Ll
            | PolicyKind::Lax
            | PolicyKind::HetSched => 0,
            _ => idle,
        };
        assert!(
            fwd_prefix <= budget,
            "{ctx}: escalations ({fwd_prefix}) exceed the budget ({budget})"
        );
        // Invariant 3: the non-escalated suffix is sorted by the policy's
        // key (laxity/deadline/seq), allowing equal keys.
        let sorted_by = |key: &dyn Fn(&TaskEntry) -> i128| {
            q.iter()
                .skip(fwd_prefix)
                .zip(q.iter().skip(fwd_prefix + 1))
                .all(|(a, b)| key(a) <= key(b))
        };
        let ok = match policy_kind {
            PolicyKind::Fcfs => sorted_by(&|t: &TaskEntry| t.seq as i128),
            PolicyKind::GedfD | PolicyKind::GedfN => {
                sorted_by(&|t: &TaskEntry| t.deadline.as_ps() as i128)
            }
            // Adaptive flips between FCFS (constant key) and RELIEF
            // (laxity) ordering; the invariant is the cached sort key.
            PolicyKind::Adaptive => sorted_by(&|t: &TaskEntry| t.sort_key),
            _ => sorted_by(&|t: &TaskEntry| t.laxity),
        };
        assert!(ok, "{ctx}: queue must stay key-sorted");
        // Invariant 4: no task id appears twice.
        let mut keys: Vec<TaskKey> = q.iter().map(|t| t.key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), q.len(), "{ctx}");
    }
}

#[test]
fn queue_invariants_hold_for_every_policy() {
    let all: Vec<PolicyKind> =
        PolicyKind::ALL.iter().copied().chain(PolicyKind::EXTENSIONS).collect();
    let mut rng = SplitMix64::new(0x0BAD_5EED);
    for case in 0..64 {
        let policy = all[rng.usize_below(all.len())];
        let idle = rng.usize_below(3);
        let script = random_script(&mut rng);
        drive(policy, script, idle, &format!("case={case} policy={policy} idle={idle}"));
    }
}

/// The binary-search `find_pos` must agree with the original linear scan on
/// every queue shape: duplicate sort keys (FIFO tie classes), escalated
/// `is_fwd` prefixes of varying length, and probe keys below/inside/above
/// the queued range.
#[test]
fn binary_find_pos_matches_linear_scan() {
    let acc = AccTypeId(0);
    let mut rng = SplitMix64::new(0x51D3_CA57);
    let mut seq = 0u64;
    for case in 0..256 {
        let mut queues = ReadyQueues::new(1);
        // Keys drawn from a narrow range force plenty of duplicates.
        let key_range = 1 + rng.u64_below(8);
        let n = rng.usize_below(24);
        for i in 0..n {
            let mut e = TaskEntry::new(TaskKey::new(0, i as u32), acc, Dur::ZERO, Time::ZERO)
                .with_seq(seq);
            seq += 1;
            e.laxity = rng.u64_below(key_range) as i128 * 1_000_000;
            queues.insert_sorted(e, |t| t.laxity);
        }
        for i in 0..rng.usize_below(4) {
            let mut e =
                TaskEntry::new(TaskKey::new(1, i as u32), acc, Dur::ZERO, Time::ZERO).with_seq(seq);
            seq += 1;
            // Escalated entries carry arbitrary keys; find_pos must skip them.
            e.laxity = rng.u64_below(99) as i128 * 1_000_000;
            e.sort_key = e.laxity;
            queues.push_front_fwd(e);
        }
        for probe in 0..8 {
            let mut e =
                TaskEntry::new(TaskKey::new(2, probe), acc, Dur::ZERO, Time::ZERO).with_seq(seq);
            seq += 1;
            // Occasionally reuse an in-range duplicate key, occasionally go
            // outside the range entirely.
            e.sort_key = rng.u64_below(key_range + 2) as i128 * 1_000_000 - 1_000_000;
            assert_eq!(
                queues.find_pos(acc, &e),
                queues.find_pos_linear(acc, &e),
                "case={case} probe={probe} key={}",
                e.sort_key
            );
        }
    }
}

/// Pops drain the queue in a policy-consistent order: for LL, popped
/// laxities are non-decreasing when popped back-to-back at one instant.
#[test]
fn ll_pops_in_laxity_order() {
    let mut rng = SplitMix64::new(0x11AA);
    for case in 0..64 {
        let n = 1 + rng.usize_below(19);
        let mut policy = PolicyKind::Ll.build();
        let mut queues = ReadyQueues::new(1);
        let mut entries: Vec<TaskEntry> = (0..n)
            .map(|i| {
                TaskEntry::new(
                    TaskKey::new(0, i as u32),
                    AccTypeId(0),
                    Dur::from_us(1 + rng.u64_below(99)),
                    Time::from_us(1 + rng.u64_below(999)),
                )
                .with_seq(i as u64)
            })
            .collect();
        policy.enqueue_ready(&mut queues, &mut entries, Time::ZERO, &[1]);
        let mut last = i128::MIN;
        while let Some(t) = policy.pop(&mut queues, AccTypeId(0), Time::ZERO) {
            assert!(t.laxity >= last, "case={case}");
            last = t.laxity;
        }
    }
}

/// LAX never pops a negative-laxity task while a non-negative one is
/// queued (unless the head is an escalated forwarding node).
#[test]
fn lax_never_prefers_doomed_tasks() {
    let mut rng = SplitMix64::new(0x22BB);
    for case in 0..64 {
        let n = 2 + rng.usize_below(18);
        let now = Time::from_us(rng.u64_below(400));
        let mut policy = PolicyKind::Lax.build();
        let mut queues = ReadyQueues::new(1);
        let mut entries: Vec<TaskEntry> = (0..n)
            .map(|i| {
                TaskEntry::new(
                    TaskKey::new(0, i as u32),
                    AccTypeId(0),
                    Dur::from_us(1 + rng.u64_below(499)),
                    Time::from_us(1 + rng.u64_below(599)),
                )
                .with_seq(i as u64)
            })
            .collect();
        policy.enqueue_ready(&mut queues, &mut entries, Time::ZERO, &[1]);
        while let Some(t) = policy.pop(&mut queues, AccTypeId(0), now) {
            if t.curr_laxity(now) < 0 {
                // Everything still queued must also be negative.
                assert!(
                    queues.queue(AccTypeId(0)).iter().all(|r| r.curr_laxity(now) < 0),
                    "case={case}: LAX popped a doomed task over a viable one"
                );
            }
        }
    }
}
