//! The metric catalogue and the simulated outcomes every workload reports.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; a test keeps the two in step.

use relief_accel::SimResult;
use relief_metrics::summary::geometric_mean;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as written in `BENCHMARK.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run of every workload.
/// Host-time values come first; `sim_*` values are simulated outcomes,
/// deterministic per seed.
pub const END_TO_END: [MetricDef; 6] = [
    def("pass_ms_p50", "ms", Lower),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("sim_makespan_us", "sim-us", Lower),
    def("sim_dram_mb", "MB", Lower),
    def("sim_fwd_pct", "%", Higher),
];

/// Per-layer metrics, reported by every traced run of every workload;
/// a layer a workload bypasses reads 0.
pub const PER_LAYER: [MetricDef; 51] = [
    def("accel.events", "count", Lower),
    def("accel.ns_per_event", "ns/event", Lower),
    def("accel.new_ms", "ms/pass", Lower),
    def("accel.run_ms", "ms/pass", Lower),
    def("accel.live_hw", "count", Lower),
    def("accel.occupancy_pct", "%", Higher),
    def("core.policy_calls", "count", Lower),
    def("core.policy_ns_per_call", "ns/call", Lower),
    def("core.policy_self_pct", "%", Lower),
    def("core.sched_ops", "count", Lower),
    def("core.escalations", "count", Higher),
    def("core.feasibility_checks", "count", Lower),
    def("core.queue_bypasses", "count", Lower),
    def("core.ready_wait_us", "sim-us/task", Lower),
    def("core.node_dl_pct", "%", Higher),
    def("mem.dma_xfers", "count", Lower),
    def("mem.writebacks", "count", Lower),
    def("mem.dma_wait_us", "sim-us/xfer", Lower),
    def("mem.dram_util_pct", "%", Lower),
    def("mem.ic_util_pct", "%", Lower),
    def("mem.spad_mb", "MB", Higher),
    def("mem.forwards", "count", Higher),
    def("mem.colocations", "count", Higher),
    def("sim.queue_ns_per_event", "ns/event", Lower),
    def("svc.arrivals", "count", Higher),
    def("svc.admitted", "count", Higher),
    def("svc.admit_pct", "%", Higher),
    def("svc.shed_bucket", "count", Lower),
    def("svc.shed_capacity", "count", Lower),
    def("svc.shed_breaker", "count", Lower),
    def("svc.plan_ns_per_arrival", "ns/arrival", Lower),
    def("svc.lat_p50_us", "sim-us", Lower),
    def("svc.lat_p99_us", "sim-us", Lower),
    def("svc.attain_pct", "%", Higher),
    def("svc.goodput_per_s", "1/s", Higher),
    def("svc.timeouts", "count", Lower),
    def("svc.hedges", "count", Lower),
    def("svc.breaker_opens", "count", Lower),
    def("fault.injected", "count", Lower),
    def("fault.fwd_invalidations", "count", Lower),
    def("fault.outages", "count", Lower),
    def("trace.overhead_pct", "%", Lower),
    def("oracle.ms", "ms/pass", Lower),
    def("campaign.exec_ms", "ms/pass", Lower),
    def("campaign.cells", "count", Lower),
    def("cache.hits", "count", Higher),
    def("cache.simulated", "count", Lower),
    def("cache.lookup_us", "us/cell", Lower),
    def("cache.store_us", "us/cell", Lower),
    def("cache.mb", "MB", Lower),
    def("render.ms", "ms/pass", Lower),
];

/// The simulated outcome of one pass, aggregated over its cells: the
/// `sim_*` end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Geometric mean of per-cell `exec_time`, simulated µs.
    pub makespan_us: f64,
    /// DRAM traffic summed over cells, MB.
    pub dram_mb: f64,
    /// Edges forwarded or colocated, % of edges.
    pub fwd_pct: f64,
}

impl SimOutcome {
    /// Aggregates `results`.
    #[must_use]
    pub fn of(results: &[&SimResult]) -> SimOutcome {
        let stats = || results.iter().map(|r| &r.stats);
        let edges: u64 = stats().map(|s| s.edges_total).sum();
        let moved: u64 = stats().map(|s| s.forwards() + s.colocations()).sum();
        SimOutcome {
            makespan_us: geometric_mean(stats().map(|s| s.exec_time.as_ps() as f64 / 1e6)),
            dram_mb: stats().map(|s| s.traffic.dram_bytes()).sum::<u64>() as f64 / 1e6,
            fwd_pct: if edges == 0 {
                0.0
            } else {
                100.0 * moved as f64 / edges as f64
            },
        }
    }

    /// The `sim_*` end-to-end metrics, by name.
    #[must_use]
    pub fn named(&self) -> [(&'static str, f64); 3] {
        [
            ("sim_makespan_us", self.makespan_us),
            ("sim_dram_mb", self.dram_mb),
            ("sim_fwd_pct", self.fwd_pct),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "duplicate metric {n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
