//! Statistics, energy modeling, and reporting for RELIEF experiments.
//!
//! The simulator in `relief-accel` fills a [`RunStats`] per run; the bench
//! harness aggregates runs with [`summary`] helpers and renders the paper's
//! tables with [`report::Table`].
//!
//! # Examples
//!
//! ```
//! use relief_metrics::summary::geometric_mean;
//! let g = geometric_mean([2.0, 8.0].into_iter());
//! assert!((g - 4.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]


pub mod energy;
pub mod hist;
pub mod reconcile;
pub mod report;
pub mod stats;
pub mod summary;

pub use energy::{EnergyBreakdown, EnergyModel};
pub use hist::Histogram;
pub use reconcile::{reconcile, Mismatch};
pub use stats::{AppStats, ClassServiceStats, FaultStats, RunStats, ServiceStats, TrafficStats};

// Thread-safety audit: per-run statistics are the campaign engine's
// cross-thread output payload; keep them `Send + Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RunStats>();
    assert_send_sync::<AppStats>();
    assert_send_sync::<TrafficStats>();
    assert_send_sync::<FaultStats>();
    assert_send_sync::<ServiceStats>();
    assert_send_sync::<Histogram>();
    assert_send_sync::<Mismatch>();
};
