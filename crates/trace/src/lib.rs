//! Structured event tracing for the RELIEF simulator.
//!
//! `relief-trace` is the observability foundation of the workspace: a
//! zero-dependency crate that every other layer can emit typed, timestamped
//! events into. It sits *below* `relief-sim` in the dependency graph, so
//! events use raw integers (picoseconds, instance/node indices) that the
//! emitting layers convert at the instrumentation point.
//!
//! The pieces:
//!
//! * [`TraceEvent`] / [`EventKind`] — the taxonomy: simulation-kernel
//!   dispatches and resource occupancy, DMA transfer lifecycles, scheduler
//!   decisions (escalations, feasibility verdicts, queue bypasses), and
//!   the full task lifecycle (ready → dispatched → compute → writeback)
//!   with forwarding/colocation provenance.
//! * [`Tracer`] / [`TraceSink`] — a cloneable fan-out handle over shared
//!   sinks. Each sink declares the [`Kind`]s it consumes
//!   ([`TraceSink::kinds`], a [`KindSet`]; every kind by default) and
//!   receives only those. With no sink attached, [`Tracer::emit`] is one
//!   branch and the event is never constructed; a kind no attached sink
//!   consumes costs one mask test and is never delivered.
//!   [`RingBufferSink`] is the bounded in-memory collector; [`NullSink`]
//!   measures plumbing overhead.
//! * [`chrome`] — hand-rolled Chrome/Perfetto `trace.json` export (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>).
//! * [`text`] — the canonical line-oriented format, deterministic
//!   byte-for-byte for deterministic runs.
//! * [`diff`] — first-divergence comparison backing the `trace-diff`
//!   binary: determinism as an enforceable regression test.
//! * [`EventCounters`] — aggregates that `relief-metrics` reconciles
//!   against its independently computed `RunStats`; [`CountersSink`]
//!   folds them on the fly and subscribes to exactly the kinds they fold.
//!
//! # Examples
//!
//! ```
//! use relief_trace::{EventKind, RingBufferSink, TaskRef, Tracer, text};
//!
//! let ring = RingBufferSink::shared(1024);
//! let mut tracer = Tracer::off();
//! tracer.attach(ring.clone());
//!
//! tracer.emit(2_000_000, || EventKind::TaskReady {
//!     task: TaskRef { instance: 0, node: 3 },
//!     acc: 1,
//! });
//!
//! let events = ring.borrow().snapshot();
//! assert_eq!(text::to_text(&events), "       2000000 task-ready d0:n3 acc1\n");
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]


pub mod chrome;
pub mod counters;
pub mod diff;
pub mod event;
pub mod kind;
pub mod sink;
pub mod text;

pub use counters::{CountersSink, EventCounters};
pub use diff::{first_divergence_lines, Divergence, DivergenceCause};
pub use event::{
    DenyReason, Endpoint, EventKind, InputSource, QosClass, ResourceId, ShedCause, TaskRef,
    TraceEvent,
};
pub use kind::{Kind, KindSet};
pub use sink::{NullSink, RingBufferSink, TraceSink, Tracer};
