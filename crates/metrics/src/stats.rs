//! Per-run statistics containers.
//!
//! These are passive data structures (public fields, C-spirit) filled by the
//! SoC simulator and consumed by the experiment harness. Everything the
//! paper's figures report is derivable from a [`RunStats`].

use crate::hist::Histogram;
use relief_sim::Dur;
use std::collections::BTreeMap;
use std::fmt;

/// Byte-level data-movement accounting (basis of Figs. 5 and 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Bytes read from main memory.
    pub dram_read_bytes: u64,
    /// Bytes written to main memory.
    pub dram_write_bytes: u64,
    /// Bytes moved scratchpad-to-scratchpad (forwards).
    pub spad_to_spad_bytes: u64,
    /// Bytes whose movement was eliminated entirely by colocation.
    pub colocated_bytes: u64,
    /// Total bytes that crossed any scratchpad port (DMA in/out plus
    /// functional-unit reads/writes); drives scratchpad energy.
    pub spad_access_bytes: u64,
    /// Bytes the same execution would have moved through main memory if
    /// every load and store went to DRAM (each executed node's inputs read
    /// plus output written) — the normalization base of Fig. 5.
    pub all_dram_bytes: u64,
}

impl TrafficStats {
    /// Total main-memory traffic.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Upper bound on observed traffic: DRAM plus forwarded plus
    /// colocation-eliminated bytes. Always ≤ [`all_dram_bytes`]
    /// (forwarding and colocation only remove movement).
    ///
    /// [`all_dram_bytes`]: TrafficStats::all_dram_bytes
    pub fn total_if_all_dram(&self) -> u64 {
        self.dram_bytes() + self.spad_to_spad_bytes + self.colocated_bytes
    }

    /// Fraction of the all-DRAM baseline that hit main memory (Fig. 5's
    /// lower bars), in `[0, 1]`. Zero when nothing executed.
    pub fn dram_fraction(&self) -> f64 {
        if self.all_dram_bytes == 0 {
            0.0
        } else {
            self.dram_bytes() as f64 / self.all_dram_bytes as f64
        }
    }

    /// Fraction of the all-DRAM baseline moved scratchpad-to-scratchpad
    /// (Fig. 5's upper bars), in `[0, 1]`.
    pub fn spad_fraction(&self) -> f64 {
        if self.all_dram_bytes == 0 {
            0.0
        } else {
            self.spad_to_spad_bytes as f64 / self.all_dram_bytes as f64
        }
    }

    /// Accumulates another run's traffic into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.spad_to_spad_bytes += other.spad_to_spad_bytes;
        self.colocated_bytes += other.colocated_bytes;
        self.spad_access_bytes += other.spad_access_bytes;
        self.all_dram_bytes += other.all_dram_bytes;
    }
}

/// Per-application outcome within a mix (basis of Figs. 9, 10 and Table VII).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AppStats {
    /// Application symbol (C, D, G, H, L).
    pub name: String,
    /// DAG instances that ran to completion.
    pub dags_completed: u64,
    /// Completed DAG instances that met the DAG deadline.
    pub dag_deadlines_met: u64,
    /// Nodes that ran to completion.
    pub nodes_completed: u64,
    /// Completed nodes that met their critical-path node deadline.
    pub node_deadlines_met: u64,
    /// End-to-end runtimes of completed DAG instances.
    pub dag_runtimes: Vec<Dur>,
    /// The application's relative deadline (denominator of slowdown).
    pub deadline: Dur,
    /// Edges consumed by completed-or-started nodes (forward opportunities).
    pub edges_consumed: u64,
    /// Edges satisfied by SPAD-to-SPAD forwarding.
    pub forwards: u64,
    /// Edges satisfied by colocation (no data movement at all).
    pub colocations: u64,
    /// True when the application never completed a single DAG instance while
    /// others did (starvation; rendered as `inf` slowdown in Fig. 10).
    pub starved: bool,
}

impl AppStats {
    /// Mean slowdown = runtime / deadline over completed instances.
    /// `None` when nothing completed.
    pub fn mean_slowdown(&self) -> Option<f64> {
        if self.dag_runtimes.is_empty() || self.deadline.is_zero() {
            return None;
        }
        let sum: f64 =
            self.dag_runtimes.iter().map(|r| r.as_ps() as f64 / self.deadline.as_ps() as f64).sum();
        Some(sum / self.dag_runtimes.len() as f64)
    }

    /// Worst observed slowdown; `None` when nothing completed.
    pub fn max_slowdown(&self) -> Option<f64> {
        if self.deadline.is_zero() {
            return None;
        }
        self.dag_runtimes
            .iter()
            .map(|r| r.as_ps() as f64 / self.deadline.as_ps() as f64)
            .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.max(s))))
    }

    /// Fraction of completed nodes that met their deadline, in `[0, 1]`.
    pub fn node_deadline_ratio(&self) -> f64 {
        if self.nodes_completed == 0 {
            0.0
        } else {
            self.node_deadlines_met as f64 / self.nodes_completed as f64
        }
    }

    /// Fraction of completed DAGs that met their deadline, in `[0, 1]`.
    pub fn dag_deadline_ratio(&self) -> f64 {
        if self.dags_completed == 0 {
            0.0
        } else {
            self.dag_deadlines_met as f64 / self.dags_completed as f64
        }
    }
}

/// Fault-injection and recovery accounting (the resilience campaign's
/// raw material). All-zero when fault injection is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Task compute attempts that produced a corrupt output.
    pub task_faults: u64,
    /// Input DMA transfers that delivered corrupt data.
    pub dma_faults: u64,
    /// Faulted tasks re-queued after backoff.
    pub task_retries: u64,
    /// Tasks abandoned after exhausting their retry budget.
    pub tasks_aborted: u64,
    /// Previously faulted tasks whose retry eventually completed.
    pub recovered: u64,
    /// Accelerator-unit quarantine (offline) events.
    pub unit_quarantines: u64,
    /// DAG deadline misses on instances that absorbed at least one fault.
    pub fault_attributed_misses: u64,
    /// Forwarded chunks that failed their ECC check.
    pub ecc_faults: u64,
    /// Forwarding windows invalidated by ECC corruption (the edge fell
    /// back to a DRAM re-fetch after backoff).
    pub forward_invalidations: u64,
    /// DRAM-channel blackout windows that delayed a chunk start.
    pub channel_outages: u64,
}

impl FaultStats {
    /// Total injected faults of any kind.
    pub fn injected(&self) -> u64 {
        self.task_faults + self.dma_faults + self.ecc_faults
    }
}

/// QoS class names in dense-index order; `ClassServiceStats` at index `i`
/// of [`ServiceStats::classes`] describes `SERVICE_CLASSES[i]` traffic
/// (the same order as `relief_service::QosClass::index`).
pub const SERVICE_CLASSES: [&str; 3] = ["latency", "standard", "besteffort"];

/// One QoS class's slice of a service run.
///
/// The counters are run totals (used by trace reconciliation); the
/// histograms are warm-up-truncated — only samples completing at or after
/// the configured warm-up time are recorded, so tail quantiles describe
/// steady state rather than the cold-start transient.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClassServiceStats {
    /// Requests the stream generated.
    pub arrivals: u64,
    /// Requests the admission controller let in.
    pub admitted: u64,
    /// Requests shed by an empty per-tenant token bucket.
    pub shed_bucket: u64,
    /// Requests shed by the class's share of the in-flight cap.
    pub shed_capacity: u64,
    /// Requests shed by an open (or probing half-open) circuit breaker.
    /// Zero unless self-healing is enabled.
    pub shed_breaker: u64,
    /// Admitted instances cancelled by their request timeout. Zero unless
    /// self-healing is enabled.
    pub timed_out: u64,
    /// Hedged replacement attempts launched after a timeout. Zero unless
    /// self-healing is enabled.
    pub hedged: u64,
    /// Admitted instances that ran to completion.
    pub completed: u64,
    /// Completed instances that met their DAG deadline.
    pub dag_deadlines_met: u64,
    /// Node completions sampled after warm-up.
    pub nodes_measured: u64,
    /// Sampled node completions that met their node deadline.
    pub node_deadlines_met: u64,
    /// End-to-end sojourn time (arrival to completion) of instances
    /// completing after warm-up.
    pub sojourn: Histogram,
    /// Arrival-to-node-completion latency of nodes completing after
    /// warm-up.
    pub node_latency: Histogram,
}

impl ClassServiceStats {
    /// Total shed requests.
    pub fn shed(&self) -> u64 {
        self.shed_bucket + self.shed_capacity + self.shed_breaker
    }

    /// Deadline attainment: instances that met the DAG deadline over
    /// *generated* requests (shed requests count as misses), in `[0, 1]`.
    pub fn attainment(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.dag_deadlines_met as f64 / self.arrivals as f64
        }
    }
}

/// Steady-state accounting of one open-loop service run; all-default (and
/// omitted from `Debug` output) when streaming is disabled.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Warm-up truncation point, picoseconds.
    pub warmup_ps: u64,
    /// Request-generation horizon, picoseconds.
    pub duration_ps: u64,
    /// Per-class breakdowns, indexed per [`SERVICE_CLASSES`].
    pub classes: [ClassServiceStats; 3],
    /// In-flight transfers cancelled by request timeouts (each also emits
    /// a `DmaCancelled` trace record). Zero unless self-healing is
    /// enabled.
    pub timeout_cancelled_xfers: u64,
    /// Attempts consumed per completed request (1 = no hedge), recorded
    /// at completion. Empty unless self-healing is enabled.
    pub retry_hist: Histogram,
    /// Time each circuit breaker spent not-closed, recorded when it
    /// closes again. Empty unless self-healing is enabled.
    pub open_hist: Histogram,
}

impl ServiceStats {
    /// Total generated requests across classes.
    pub fn arrivals(&self) -> u64 {
        self.classes.iter().map(|c| c.arrivals).sum()
    }

    /// Total admitted requests across classes.
    pub fn admitted(&self) -> u64 {
        self.classes.iter().map(|c| c.admitted).sum()
    }

    /// Total bucket-shed requests across classes.
    pub fn shed_bucket(&self) -> u64 {
        self.classes.iter().map(|c| c.shed_bucket).sum()
    }

    /// Total capacity-shed requests across classes.
    pub fn shed_capacity(&self) -> u64 {
        self.classes.iter().map(|c| c.shed_capacity).sum()
    }

    /// Total breaker-shed requests across classes.
    pub fn shed_breaker(&self) -> u64 {
        self.classes.iter().map(|c| c.shed_breaker).sum()
    }

    /// Total timed-out instances across classes.
    pub fn timed_out(&self) -> u64 {
        self.classes.iter().map(|c| c.timed_out).sum()
    }

    /// Total hedged replacement attempts across classes.
    pub fn hedged(&self) -> u64 {
        self.classes.iter().map(|c| c.hedged).sum()
    }

    /// Total completed instances across classes.
    pub fn completed(&self) -> u64 {
        self.classes.iter().map(|c| c.completed).sum()
    }

    /// Fraction of generated requests shed, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        let arrivals = self.arrivals();
        if arrivals == 0 {
            0.0
        } else {
            (self.shed_bucket() + self.shed_capacity() + self.shed_breaker()) as f64
                / arrivals as f64
        }
    }

    /// Goodput of one class: deadline-meeting completions per simulated
    /// second of the generation horizon.
    pub fn goodput_per_s(&self, class: usize) -> f64 {
        if self.duration_ps == 0 {
            return 0.0;
        }
        self.classes[class].dag_deadlines_met as f64 / (self.duration_ps as f64 / 1e12)
    }
}

/// Everything one simulation run reports.
#[derive(Clone, PartialEq, Default)]
pub struct RunStats {
    /// Scheduling policy that produced this run.
    pub policy: String,
    /// End-to-end execution time (initiation of all apps to completion of
    /// the last, or the continuous-contention cap).
    pub exec_time: Dur,
    /// Data-movement accounting.
    pub traffic: TrafficStats,
    /// Per-application outcomes, keyed by app symbol.
    pub apps: BTreeMap<String, AppStats>,
    /// Sum over accelerators of compute busy time (numerator of Fig. 7).
    pub accel_busy: Dur,
    /// Time the interconnect had at least one transaction in flight
    /// (numerator of Fig. 13 occupancy).
    pub interconnect_busy: Dur,
    /// Busy time of the DRAM channel.
    pub dram_busy: Dur,
    /// Scheduler ready-queue operations performed.
    pub scheduler_ops: u64,
    /// Total modeled scheduler overhead.
    pub scheduler_time: Dur,
    /// Total edges in all *completed or attempted* work (denominator of
    /// Fig. 4).
    pub edges_total: u64,
    /// Fault-injection and recovery accounting; all-zero (and omitted from
    /// `Debug` output) when fault injection is disabled.
    pub faults: FaultStats,
    /// Open-loop service accounting; all-default (and omitted from
    /// `Debug` output) when streaming is disabled.
    pub service: ServiceStats,
}

/// Hand-written so fault-free, stream-free runs render exactly as they
/// did before those fields existed: campaign stdout is `{:?}` of
/// `RunStats`, and its golden outputs must stay byte-identical at fault
/// rate 0 / stream disabled. The `faults` and `service` fields are
/// appended only when some counter is nonzero.
impl fmt::Debug for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("RunStats");
        d.field("policy", &self.policy)
            .field("exec_time", &self.exec_time)
            .field("traffic", &self.traffic)
            .field("apps", &self.apps)
            .field("accel_busy", &self.accel_busy)
            .field("interconnect_busy", &self.interconnect_busy)
            .field("dram_busy", &self.dram_busy)
            .field("scheduler_ops", &self.scheduler_ops)
            .field("scheduler_time", &self.scheduler_time)
            .field("edges_total", &self.edges_total);
        if self.faults != FaultStats::default() {
            d.field("faults", &self.faults);
        }
        if self.service != ServiceStats::default() {
            d.field("service", &self.service);
        }
        d.finish()
    }
}

impl RunStats {
    /// Total forwards across applications.
    pub fn forwards(&self) -> u64 {
        self.apps.values().map(|a| a.forwards).sum()
    }

    /// Total colocations across applications.
    pub fn colocations(&self) -> u64 {
        self.apps.values().map(|a| a.colocations).sum()
    }

    /// Fig. 4 numerator over denominator: (forwards + colocations) / edges,
    /// as a percentage. Returns 0 when no edges were consumed.
    pub fn forward_percent(&self) -> f64 {
        if self.edges_total == 0 {
            0.0
        } else {
            100.0 * (self.forwards() + self.colocations()) as f64 / self.edges_total as f64
        }
    }

    /// Colocations / edges as a percentage.
    pub fn colocation_percent(&self) -> f64 {
        if self.edges_total == 0 {
            0.0
        } else {
            100.0 * self.colocations() as f64 / self.edges_total as f64
        }
    }

    /// Accelerator occupancy as defined in Fig. 7: total accelerator compute
    /// time over end-to-end execution time.
    pub fn accel_occupancy(&self) -> f64 {
        if self.exec_time.is_zero() {
            0.0
        } else {
            self.accel_busy.as_ps() as f64 / self.exec_time.as_ps() as f64
        }
    }

    /// Interconnect occupancy as defined in Fig. 13.
    pub fn interconnect_occupancy(&self) -> f64 {
        if self.exec_time.is_zero() {
            0.0
        } else {
            (self.interconnect_busy.as_ps() as f64 / self.exec_time.as_ps() as f64).min(1.0)
        }
    }

    /// Percent of node deadlines met across all applications (Fig. 8).
    pub fn node_deadline_percent(&self) -> f64 {
        let done: u64 = self.apps.values().map(|a| a.nodes_completed).sum();
        let met: u64 = self.apps.values().map(|a| a.node_deadlines_met).sum();
        if done == 0 {
            0.0
        } else {
            100.0 * met as f64 / done as f64
        }
    }

    /// Percent of DAG deadlines met across all applications (Fig. 9b/10b).
    pub fn dag_deadline_percent(&self) -> f64 {
        let done: u64 = self.apps.values().map(|a| a.dags_completed).sum();
        let met: u64 = self.apps.values().map(|a| a.dag_deadlines_met).sum();
        if done == 0 {
            0.0
        } else {
            100.0 * met as f64 / done as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(forwards: u64, colocs: u64) -> AppStats {
        AppStats {
            name: "C".into(),
            deadline: Dur::from_us(100),
            dag_runtimes: vec![Dur::from_us(50), Dur::from_us(150)],
            dags_completed: 2,
            dag_deadlines_met: 1,
            nodes_completed: 10,
            node_deadlines_met: 8,
            edges_consumed: 12,
            forwards,
            colocations: colocs,
            starved: false,
        }
    }

    #[test]
    fn traffic_totals() {
        let t = TrafficStats {
            dram_read_bytes: 10,
            dram_write_bytes: 5,
            spad_to_spad_bytes: 20,
            colocated_bytes: 7,
            spad_access_bytes: 99,
            all_dram_bytes: 60,
        };
        assert_eq!(t.dram_bytes(), 15);
        assert_eq!(t.total_if_all_dram(), 42);
        assert_eq!(t.dram_fraction(), 0.25);
        assert_eq!(t.spad_fraction(), 20.0 / 60.0);
        assert_eq!(TrafficStats::default().dram_fraction(), 0.0);
        let mut u = t;
        u.merge(&t);
        assert_eq!(u.dram_bytes(), 30);
        assert_eq!(u.spad_access_bytes, 198);
        assert_eq!(u.all_dram_bytes, 120);
    }

    #[test]
    fn slowdowns() {
        let a = app(3, 1);
        assert_eq!(a.mean_slowdown(), Some(1.0));
        assert_eq!(a.max_slowdown(), Some(1.5));
        assert_eq!(a.node_deadline_ratio(), 0.8);
        assert_eq!(a.dag_deadline_ratio(), 0.5);
    }

    #[test]
    fn empty_app_has_no_slowdown() {
        let a = AppStats::default();
        assert_eq!(a.mean_slowdown(), None);
        assert_eq!(a.max_slowdown(), None);
        assert_eq!(a.node_deadline_ratio(), 0.0);
    }

    #[test]
    fn run_percentages() {
        let mut r = RunStats { edges_total: 24, exec_time: Dur::from_us(200), ..Default::default() };
        r.apps.insert("C".into(), app(3, 1));
        r.apps.insert("D".into(), app(5, 3));
        assert_eq!(r.forwards(), 8);
        assert_eq!(r.colocations(), 4);
        assert!((r.forward_percent() - 50.0).abs() < 1e-12);
        assert!((r.colocation_percent() - 100.0 * 4.0 / 24.0).abs() < 1e-12);
        r.accel_busy = Dur::from_us(300);
        assert!((r.accel_occupancy() - 1.5).abs() < 1e-12);
        assert!((r.node_deadline_percent() - 80.0).abs() < 1e-12);
        assert!((r.dag_deadline_percent() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn debug_omits_faults_only_when_fault_free() {
        let clean = RunStats { policy: "relief".into(), ..Default::default() };
        let rendered = format!("{clean:?}");
        assert!(
            !rendered.contains("faults"),
            "fault-free runs must render without the fault field (golden stability): {rendered}"
        );
        assert!(rendered.ends_with("edges_total: 0 }"), "{rendered}");
        let mut faulty = clean;
        faulty.faults.task_faults = 2;
        let rendered = format!("{faulty:?}");
        assert!(rendered.contains("faults: FaultStats"), "{rendered}");
        assert!(rendered.contains("task_faults: 2"), "{rendered}");
    }

    #[test]
    fn debug_omits_service_only_when_stream_free() {
        let clean = RunStats { policy: "relief".into(), ..Default::default() };
        let rendered = format!("{clean:?}");
        assert!(
            !rendered.contains("service"),
            "stream-free runs must render without the service field (golden stability): {rendered}"
        );
        let mut streamed = clean;
        streamed.service.classes[0].arrivals = 5;
        let rendered = format!("{streamed:?}");
        assert!(rendered.contains("service: ServiceStats"), "{rendered}");
        assert!(rendered.contains("arrivals: 5"), "{rendered}");
    }

    #[test]
    fn fault_totals() {
        let f = FaultStats { task_faults: 3, dma_faults: 4, ..Default::default() };
        assert_eq!(f.injected(), 7);
    }

    #[test]
    fn service_totals_and_rates() {
        let mut s = ServiceStats { duration_ps: 2_000_000_000_000, ..Default::default() }; // 2 s
        s.classes[0] = ClassServiceStats {
            arrivals: 10,
            admitted: 8,
            shed_bucket: 1,
            shed_capacity: 1,
            completed: 8,
            dag_deadlines_met: 6,
            ..Default::default()
        };
        s.classes[2] = ClassServiceStats {
            arrivals: 10,
            admitted: 4,
            shed_bucket: 2,
            shed_capacity: 4,
            completed: 4,
            dag_deadlines_met: 2,
            ..Default::default()
        };
        assert_eq!(s.arrivals(), 20);
        assert_eq!(s.admitted(), 12);
        assert_eq!(s.shed_bucket(), 3);
        assert_eq!(s.shed_capacity(), 5);
        assert_eq!(s.completed(), 12);
        assert!((s.shed_rate() - 0.4).abs() < 1e-12);
        assert!((s.goodput_per_s(0) - 3.0).abs() < 1e-12);
        assert_eq!(s.classes[0].shed(), 2);
        assert!((s.classes[0].attainment() - 0.6).abs() < 1e-12);
        assert!(s.classes[0].attainment() > s.classes[2].attainment());
        assert_eq!(ClassServiceStats::default().attainment(), 0.0);
        assert_eq!(ServiceStats::default().shed_rate(), 0.0);
        assert_eq!(ServiceStats::default().goodput_per_s(0), 0.0);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let r = RunStats::default();
        assert_eq!(r.forward_percent(), 0.0);
        assert_eq!(r.accel_occupancy(), 0.0);
        assert_eq!(r.interconnect_occupancy(), 0.0);
        assert_eq!(r.node_deadline_percent(), 0.0);
        assert_eq!(r.dag_deadline_percent(), 0.0);
    }
}
