//! RELIEF: data movement-aware accelerator scheduling — facade crate.
//!
//! A faithful reproduction of *RELIEF: Relieving Memory Pressure In SoCs
//! Via Data Movement-Aware Accelerator Scheduling* (HPCA 2024) as a Rust
//! workspace. This crate re-exports the subcrates so applications can
//! depend on a single package:
//!
//! * [`sim`] — discrete-event kernel (time, events, resource timelines)
//! * [`dag`] — task graphs, critical-path analysis, deadline assignment
//! * [`mem`] — DRAM / bus / crossbar / DMA contention models
//! * [`core`] — the scheduling policies (FCFS, GEDF-D/N, LL, LAX,
//!   HetSched, RELIEF, RELIEF-LAX) and runtime predictors
//! * [`fault`] — deterministic, seeded fault-injection plans (task, DMA,
//!   accelerator-unit outages) and the recovery knobs
//! * [`service`] — the open-loop streaming frontend: deterministic
//!   arrival processes, per-tenant QoS classes, token-bucket admission
//! * [`accel`] — the seven elementary accelerators, forwarding mechanism,
//!   hardware manager, and the end-to-end SoC simulator
//! * [`workloads`] — the five benchmark applications and the paper's
//!   contention scenarios
//! * [`metrics`] — statistics, the memory energy model, reporting
//! * [`oracle`] — the ahead-of-time scheduling bound: beam search through
//!   the simulator's timing model, replayable schedules, "% of oracle"
//! * [`trace`] — structured event tracing, Chrome/Perfetto export, and
//!   the `trace-diff` regression tool
//! * [`bench`](mod@bench) — the paper-experiment harness and the deterministic
//!   parallel campaign engine (`bench::campaign`)
//!
//! # Quickstart
//!
//! ```
//! use relief::prelude::*;
//!
//! // Run the Canny + LSTM mix (lane detection, §IV-C) under RELIEF.
//! let apps = vec![
//!     AppSpec::once("C", App::Canny.dag()),
//!     AppSpec::once("L", App::Lstm.dag()),
//! ];
//! let result = SocSim::new(SocConfig::mobile(PolicyKind::Relief), apps).run();
//! assert_eq!(result.stats.apps["C"].dags_completed, 1);
//! assert!(result.stats.forwards() + result.stats.colocations() > 0);
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub use relief_accel as accel;
pub use relief_bench as bench;
pub use relief_core as core;
pub use relief_dag as dag;
pub use relief_fault as fault;
pub use relief_mem as mem;
pub use relief_metrics as metrics;
pub use relief_oracle as oracle;
pub use relief_service as service;
pub use relief_sim as sim;
pub use relief_trace as trace;
pub use relief_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use relief_accel::{AppSpec, BwPredictorKind, SocConfig, SocSim};
    pub use relief_core::{PolicyKind, ReadyQueues, TaskEntry, TaskKey};
    pub use relief_dag::{AccTypeId, Dag, DagBuilder, NodeId, NodeSpec};
    pub use relief_fault::{FaultConfig, FaultDomain};
    pub use relief_metrics::{EnergyModel, Histogram, RunStats};
    pub use relief_service::{
        AdmissionConfig, ArrivalProcess, QosClass, StreamConfig, StreamPlan, TenantCfg,
    };
    pub use relief_sim::{Dur, SplitMix64, Time};
    pub use relief_trace::{RingBufferSink, Tracer};
    pub use relief_workloads::{App, Contention, Mix, CONTINUOUS_TIME_LIMIT};
}
