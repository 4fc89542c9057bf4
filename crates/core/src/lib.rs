//! RELIEF: data movement-aware accelerator scheduling.
//!
//! This crate is the paper's primary contribution: an online,
//! least-laxity-based scheduling framework for hardware accelerator
//! managers, with **forwarding-aware priority escalation** (RELIEF,
//! Algorithm 1) guarded by a laxity-driven **feasibility check**
//! (Algorithm 2), plus the five state-of-the-art baselines it is evaluated
//! against (§II-C).
//!
//! All of them share one non-preemptive ready-queue discipline, so each
//! is a row of one table: the deadline scheme of its task entries, the
//! order key of its queues (ties go to the earlier arrival), whether
//! forwarding candidates escalate to the queue front, and which task an
//! idle accelerator pops. One `Policy` impl runs any row, and
//! [`PolicyKind::build`] builds it:
//!
//! | [`PolicyKind`] | Deadline scheme | Order key | Escalation | Pop |
//! |---|---|---|---|---|
//! | [`Fcfs`](PolicyKind::Fcfs) | DAG deadline | arrival | off | head |
//! | [`GedfD`](PolicyKind::GedfD) | DAG deadline | deadline | off | head |
//! | [`GedfN`](PolicyKind::GedfN) | critical-path node deadline | deadline | off | head |
//! | [`Ll`](PolicyKind::Ll) | critical-path node deadline | laxity (Eq. 1) | off | head |
//! | [`Lax`](PolicyKind::Lax) | critical-path node deadline | laxity | off | LAX bypass |
//! | [`HetSched`](PolicyKind::HetSched) | SDR × DAG deadline (Eq. 2) | laxity | off | head |
//! | [`Relief`](PolicyKind::Relief) | critical-path node deadline | laxity | throttled (Alg. 2) | head |
//! | [`ReliefLax`](PolicyKind::ReliefLax) | critical-path node deadline | laxity | throttled | LAX bypass |
//! | [`ReliefHet`](PolicyKind::ReliefHet) | SDR × DAG deadline | laxity | throttled | head |
//! | [`ReliefUnthrottled`](PolicyKind::ReliefUnthrottled) | critical-path node deadline | laxity | unthrottled | head |
//!
//! FCFS never reads its deadlines. The LAX bypass lets the first task
//! with non-negative current laxity overtake the negative-laxity tasks
//! ahead of it, unless the head is an escalated forwarding node.
//! [`Adaptive`] is no row: it switches between the FCFS and RELIEF rows
//! per epoch, under critical-path node deadlines.
//!
//! The framework is deliberately mechanism-agnostic: it never touches
//! scratchpads or DMA. It orders per-accelerator-type **ready queues**
//! ([`ReadyQueues`]) of [`TaskEntry`]s and leaves data movement to the
//! hardware-manager model (`relief-accel`), mirroring how the paper's
//! policy slots into an existing manager runtime.
//!
//! # Examples
//!
//! Run the RELIEF insertion path directly:
//!
//! ```
//! use relief_core::{PolicyKind, ReadyQueues, TaskEntry, TaskKey};
//! use relief_dag::AccTypeId;
//! use relief_sim::{Dur, Time};
//!
//! let mut policy = PolicyKind::Relief.build();
//! let mut queues = ReadyQueues::new(1);
//! // One idle accelerator of type 0 -> a forwarding candidate is escalated.
//! let task = TaskEntry::new(TaskKey::new(0, 0), AccTypeId(0), Dur::from_us(10), Time::from_us(100))
//!     .forwarding_candidate();
//! policy.enqueue_ready(&mut queues, &mut vec![task], Time::ZERO, &[1]);
//! let head = policy.pop(&mut queues, AccTypeId(0), Time::ZERO).expect("queued");
//! assert!(head.is_fwd);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]


pub mod laxity;
pub mod policy;
pub mod predict;
pub mod queue;
pub mod task;

pub use policy::{
    Adaptive, AdaptiveParams, DeadlineScheme, Policy, PolicyKind, SchedMode, Schedule,
    ScheduleRecorder, ScheduleReplay, ScheduledLaunch,
};
pub use predict::{BandwidthPredictor, DataMovePredictor};
pub use queue::ReadyQueues;
pub use task::{TaskEntry, TaskKey};
