//! SoC simulator for RELIEF: accelerators, scratchpad forwarding, and the
//! hardware-manager runtime.
//!
//! This crate models the platform of the paper's Table VI end to end:
//!
//! * [`kinds`] — the seven elementary accelerators of Table I with their
//!   profiled compute times, scratchpad capacities, and calibrated
//!   transfer volumes;
//! * [`config`] — the SoC configuration (instances per type, memory
//!   system, policy, predictors, forwarding switches, manager overhead);
//! * [`sim`] — the discrete-event simulation: hardware-manager runtime
//!   (ready queues, drivers, interrupt service), double-buffered
//!   scratchpad outputs with `ongoing_reads` WAR tracking, the
//!   scratchpad-to-scratchpad forwarding mechanism, colocation, and the
//!   write-back rules of §III-C.
//!
//! # Examples
//!
//! Run Canny-like work under two policies and compare forwards:
//!
//! ```
//! use relief_accel::{AppSpec, SocConfig, SocSim};
//! use relief_core::PolicyKind;
//! use relief_dag::{AccTypeId, DagBuilder, NodeSpec};
//! use relief_sim::Dur;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), relief_dag::DagError> {
//! let mut b = DagBuilder::new("chain", Dur::from_ms(1));
//! let n: Vec<_> = (0..4)
//!     .map(|_| b.add_node(NodeSpec::new(AccTypeId(0), Dur::from_us(10)).with_output_bytes(8192)))
//!     .collect();
//! b.add_chain(&n)?;
//! let dag = Arc::new(b.build()?);
//!
//! let run = |p| {
//!     SocSim::new(SocConfig::generic(vec![1], p), vec![AppSpec::once("A", dag.clone())])
//!         .run()
//!         .stats
//! };
//! let relief = run(PolicyKind::Relief);
//! assert_eq!(relief.apps["A"].colocations, 3); // whole chain colocates
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]


pub mod config;
pub mod kinds;
mod ledger;
pub mod result;
pub mod sim;
pub mod trace;
pub mod workload;

pub use config::{BwPredictorKind, SocConfig};
pub use kinds::{AccKind, PLANE_BYTES};
pub use result::{ErrorSum, PredictionStats, SimResult};
pub use sim::{ForkError, SocSim};
pub use trace::{Span, SpanCollector, Trace};
pub use workload::AppSpec;

// Thread-safety audit for the campaign engine's worker contract: the
// *inputs* a worker receives (`SocConfig`, `AppSpec`) and the *outputs*
// it returns (`SimResult`) must cross threads...
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<SocConfig>();
    assert_send_sync::<SimResult>();
    assert_send::<AppSpec>();
};

// ...while `SocSim` itself must NOT: it shares `Rc<RefCell<…>>` trace
// sinks with its policy, so each worker is required to construct, run,
// and drop the whole simulator thread-locally (the second leg of the
// determinism contract in `relief_bench::campaign`). If `SocSim` ever
// became `Send`, the `AmbiguousIfSend` impls below would both apply and
// this constant would stop compiling — a prompt to re-review that the
// engine's construct-inside-worker invariant still holds.
trait AmbiguousIfSend<A> {
    fn some_item() {}
}
impl<T: ?Sized> AmbiguousIfSend<()> for T {}
#[allow(dead_code)]
struct NotSendGuard;
impl<T: ?Sized + Send> AmbiguousIfSend<NotSendGuard> for T {}
const _: fn() = <SocSim as AmbiguousIfSend<_>>::some_item;
