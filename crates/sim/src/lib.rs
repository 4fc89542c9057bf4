//! Deterministic discrete-event simulation kernel for the RELIEF SoC model.
//!
//! This crate provides the three primitives every component of the simulated
//! SoC is built on:
//!
//! * [`Time`] / [`Dur`] — simulated time as integer picoseconds, so that
//!   bandwidth arithmetic on sub-nanosecond bus transactions stays exact.
//! * [`EventQueue`] — a priority queue of timed events with deterministic
//!   FIFO tie-breaking: one vector kept sorted on `(time, push order)`,
//!   sized for the few dozen events the SoC model ever has pending.
//! * [`Timeline`] — a single-server resource model with busy-time
//!   accounting, used for the DRAM channel and the hardware manager.
//!
//! The kernel is intentionally free of wall-clock access, threads, and global
//! state: given the same inputs, a simulation always produces the same event
//! trace.
//!
//! # Examples
//!
//! ```
//! use relief_sim::{EventQueue, Time, Dur};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(Time::from_ns(20), "late");
//! q.push(Time::from_ns(10), "early");
//! q.push(Time::from_ns(10), "early-second");
//!
//! assert_eq!(q.pop(), Some((Time::from_ns(10), "early")));
//! assert_eq!(q.pop(), Some((Time::from_ns(10), "early-second")));
//! assert_eq!(q.pop(), Some((Time::from_ns(20), "late")));
//! assert_eq!(q.pop(), None);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod queue;
pub mod rng;
pub mod slab;
pub mod stall;
pub mod time;
pub mod timeline;

pub use queue::EventQueue;
pub use rng::{fnv1a, SplitMix64};
pub use slab::SlotAlloc;
pub use stall::{StallError, StallKind};
pub use time::{Dur, Time};
pub use timeline::{BusyStats, Timeline};

// Thread-safety audit: the campaign engine moves these values across
// worker threads, so losing `Send + Sync` (e.g. by adding an `Rc` field)
// must fail the build here rather than in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Time>();
    assert_send_sync::<Dur>();
    assert_send_sync::<SplitMix64>();
};
