//! SoC configuration (Table VI platform).

use crate::kinds::AccKind;
use relief_core::predict::DataMovePredictor;
use relief_core::{BandwidthPredictor, PolicyKind};
use relief_fault::FaultConfig;
use relief_mem::MemConfig;
use relief_service::StreamConfig;
use relief_sim::{Dur, Time};

/// Which bandwidth-prediction scheme to instantiate (§III-B / Table VIII).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BwPredictorKind {
    /// Assume peak effective bandwidth (the paper's default).
    Max,
    /// Last observed value.
    Last,
    /// Mean of the last `n` observations (paper: n = 15).
    Average(usize),
    /// EWMA with weight `alpha` (paper: α = 0.25).
    Ewma(f64),
}

impl BwPredictorKind {
    /// Builds the predictor for a given peak bandwidth.
    pub fn build(&self, max_bw: u64) -> BandwidthPredictor {
        match *self {
            BwPredictorKind::Max => BandwidthPredictor::max(max_bw),
            BwPredictorKind::Last => BandwidthPredictor::last(max_bw),
            BwPredictorKind::Average(n) => BandwidthPredictor::average(max_bw, n),
            BwPredictorKind::Ewma(a) => BandwidthPredictor::ewma(max_bw, a),
        }
    }
}

/// Full configuration of one simulated SoC run.
#[derive(Debug, Clone)]
pub struct SocConfig {
    /// Number of accelerator instances per accelerator type id.
    pub acc_instances: Vec<usize>,
    /// Memory-system parameters.
    pub mem: MemConfig,
    /// Active scheduling policy.
    pub policy: PolicyKind,
    /// Bandwidth-prediction scheme for laxity estimation.
    pub bw_predictor: BwPredictorKind,
    /// Data-movement-prediction scheme for laxity estimation.
    pub dm_predictor: DataMovePredictor,
    /// Forwarding hardware present: scratchpad-to-scratchpad forwarding
    /// and colocation (running a consumer on its producer's accelerator
    /// with zero data movement, which also needs `output_partitions >= 2`).
    pub forwarding: bool,
    /// Output scratchpad partitions per accelerator, 1 to 3 (Table IV;
    /// the evaluated platform double-buffers output).
    pub output_partitions: usize,
    /// Hard simulation cap (the paper uses 50 ms for continuous
    /// contention). `None` runs until all work drains.
    pub time_limit: Option<Time>,
    /// Whether the hardware manager's scheduling latency is modeled.
    pub model_sched_overhead: bool,
    /// Fixed ISR cost per completion interrupt.
    pub sched_base_cost: Dur,
    /// Cost per ready-queue insertion (policy-dependent; Fig. 12).
    pub sched_insert_cost: Dur,
    /// Relative uniform jitter applied to actual compute times, so the
    /// compute predictor has something to mispredict (Table VIII measures
    /// 0.03 % error on real hardware models).
    pub compute_jitter: f64,
    /// RNG seed (jitter only; the simulator is otherwise deterministic).
    pub seed: u64,
    /// Record a per-task schedule trace (see `relief_accel::trace`).
    pub record_trace: bool,
    /// Fault-injection plan knobs (`relief-fault`). The default injects
    /// nothing and leaves every output byte-identical to a fault-free
    /// build; any enabled knob also switches the simulator into
    /// checkpointing mode (every output is written back to DRAM so
    /// retries always have a verified copy to re-read).
    pub fault: FaultConfig,
    /// Open-loop streaming knobs (`relief-service`). The default is
    /// disabled and leaves every output byte-identical to a build without
    /// the service layer; when enabled, tenant `t` streams instances of
    /// the workload's app spec at index `t` and the closed-loop t=0
    /// releases are replaced by the arrival plan.
    pub stream: StreamConfig,
    /// Watchdog no-progress window: the maximum events dispatched without
    /// simulated time advancing before the run is declared livelocked and
    /// converted into a [`relief_sim::StallError`]. The default is far
    /// above any legitimate burst of same-timestamp events; `0` disables the
    /// watchdog. Detection only — a run that never trips it is
    /// byte-identical at any setting.
    pub watchdog_window: u64,
    /// Bounded-memory mode: drop the O(total-requests) per-instance DAG
    /// runtimes so an arbitrarily long run's memory stays bounded by the
    /// in-flight set, and record no prediction-error sample. This
    /// *changes the reported statistics* (the runtimes come back empty,
    /// and every [`PredictionStats`](crate::PredictionStats) sum empty),
    /// so paper campaigns must leave it off; long overloaded serving runs
    /// (the repository benchmark's `serve-overload` workload) set it.
    /// Scheduling decisions, traces, and event counts are unaffected.
    pub bounded_memory: bool,
}

impl SocConfig {
    /// Per-insert scheduler cost defaults per policy, shaped after Fig. 12:
    /// RELIEF's sorted insert plus feasibility scan costs the most, FCFS's
    /// tail append the least.
    pub fn default_insert_cost(policy: PolicyKind) -> Dur {
        let ns = match policy {
            PolicyKind::Fcfs => 150,
            PolicyKind::GedfD => 300,
            PolicyKind::GedfN => 320,
            PolicyKind::Ll => 350,
            PolicyKind::Lax => 380,
            PolicyKind::HetSched => 420,
            PolicyKind::Relief => 700,
            PolicyKind::ReliefLax => 750,
            PolicyKind::ReliefHet => 700,
            PolicyKind::ReliefUnthrottled => 550,
            // FCFS-priced while relaxed, RELIEF-priced under pressure;
            // a single modeled cost splits the difference low, since the
            // switch exists to spend most epochs in the cheap mode.
            PolicyKind::Adaptive => 250,
        };
        Dur::from_ns(ns)
    }

    /// The paper's mobile platform: one instance of each of the seven
    /// elementary accelerators, LPDDR5 + full-duplex bus, double-buffered
    /// outputs, Max predictors, forwarding and colocation available.
    pub fn mobile(policy: PolicyKind) -> Self {
        SocConfig {
            acc_instances: vec![1; AccKind::ALL.len()],
            mem: MemConfig::default(),
            policy,
            bw_predictor: BwPredictorKind::Max,
            dm_predictor: DataMovePredictor::Max,
            forwarding: true,
            output_partitions: 2,
            time_limit: None,
            model_sched_overhead: true,
            sched_base_cost: Dur::from_ns(200),
            sched_insert_cost: Self::default_insert_cost(policy),
            compute_jitter: 0.0005,
            seed: 0x5EED,
            record_trace: false,
            fault: FaultConfig::default(),
            stream: StreamConfig::default(),
            watchdog_window: 2_000_000,
            bounded_memory: false,
        }
    }

    /// A generic platform for tests and synthetic workloads: `instances[i]`
    /// accelerators of type `i`.
    pub fn generic(instances: Vec<usize>, policy: PolicyKind) -> Self {
        SocConfig { acc_instances: instances, ..Self::mobile(policy) }
    }

    /// Switches the policy (and its default insert cost).
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self.sched_insert_cost = Self::default_insert_cost(policy);
        self
    }

    /// Disables forwarding and colocation (the Table II "no fwd" baseline).
    pub fn without_forwarding(mut self) -> Self {
        self.forwarding = false;
        self
    }

    /// Caps simulated time (continuous contention uses 50 ms).
    pub fn with_time_limit(mut self, limit: Time) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Installs a fault-injection plan.
    pub fn with_fault(mut self, fault: FaultConfig) -> Self {
        self.fault = fault;
        self
    }

    /// Installs an open-loop streaming plan.
    pub fn with_stream(mut self, stream: StreamConfig) -> Self {
        self.stream = stream;
        self
    }

    /// Enables bounded-memory mode (see [`SocConfig::bounded_memory`]).
    pub fn with_bounded_memory(mut self) -> Self {
        self.bounded_memory = true;
        self
    }

    /// Total accelerator instances.
    pub fn total_instances(&self) -> usize {
        self.acc_instances.iter().sum()
    }

    /// Validates invariants the simulator relies on.
    ///
    /// # Panics
    ///
    /// Panics on zero accelerator types, an output partition count
    /// outside 1..=3, a negative/NaN jitter, or an invalid fault or
    /// stream configuration.
    pub fn validate(&self) {
        assert!(!self.acc_instances.is_empty(), "need at least one accelerator type");
        assert!(
            (1..=3).contains(&self.output_partitions),
            "need 1 to 3 output partitions (Table IV)"
        );
        assert!(
            self.compute_jitter.is_finite() && (0.0..1.0).contains(&self.compute_jitter),
            "compute jitter must be in [0, 1)"
        );
        if let Err(e) = self.fault.validate() {
            panic!("{e}");
        }
        if let Err(e) = self.stream.validate() {
            panic!("{e}");
        }
        self.mem.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobile_platform_shape() {
        let c = SocConfig::mobile(PolicyKind::Relief);
        assert_eq!(c.acc_instances, vec![1; 7]);
        assert_eq!(c.total_instances(), 7);
        assert_eq!(c.output_partitions, 2);
        assert!(c.forwarding);
        c.validate();
    }

    #[test]
    fn builders() {
        let c = SocConfig::mobile(PolicyKind::Fcfs)
            .with_policy(PolicyKind::Relief)
            .without_forwarding()
            .with_time_limit(Time::from_ms(50));
        assert_eq!(c.policy, PolicyKind::Relief);
        assert!(!c.forwarding);
        assert_eq!(c.time_limit, Some(Time::from_ms(50)));
        assert_eq!(c.sched_insert_cost, SocConfig::default_insert_cost(PolicyKind::Relief));
    }

    #[test]
    fn insert_costs_ordered_like_fig12() {
        let c = |p| SocConfig::default_insert_cost(p);
        assert!(c(PolicyKind::Fcfs) < c(PolicyKind::GedfD));
        assert!(c(PolicyKind::HetSched) < c(PolicyKind::Relief));
    }

    #[test]
    fn bw_predictor_kinds_build() {
        assert_eq!(BwPredictorKind::Max.build(100).predict(), 100.0);
        assert!(matches!(BwPredictorKind::Last.build(7), BandwidthPredictor::Last { max: 7, .. }));
        assert!(matches!(
            BwPredictorKind::Average(15).build(7),
            BandwidthPredictor::Average { max: 7, n: 15, .. }
        ));
        assert!(matches!(
            BwPredictorKind::Ewma(0.25).build(7),
            BandwidthPredictor::Ewma { max: 7, alpha, .. } if alpha == 0.25
        ));
    }

    #[test]
    #[should_panic(expected = "invalid fault config")]
    fn bad_fault_rate_rejected() {
        let mut c = SocConfig::mobile(PolicyKind::Fcfs);
        c.fault.task_fault_rate = 1.5;
        c.validate();
    }

    #[test]
    fn default_fault_config_is_disabled() {
        let c = SocConfig::mobile(PolicyKind::Relief);
        assert!(!c.fault.enabled());
        let f = FaultConfig { task_fault_rate: 0.1, ..FaultConfig::default() };
        let c = c.with_fault(f.clone());
        assert!(c.fault.enabled());
        assert_eq!(c.fault, f);
        c.validate();
    }

    #[test]
    fn default_stream_config_is_disabled() {
        use relief_service::{QosClass, TenantCfg};
        let c = SocConfig::mobile(PolicyKind::Relief);
        assert!(!c.stream.enabled());
        let s = StreamConfig {
            duration_ps: 1_000_000,
            tenants: vec![TenantCfg::new(QosClass::Latency, 1000.0)],
            ..StreamConfig::default()
        };
        let c = c.with_stream(s.clone());
        assert!(c.stream.enabled());
        assert_eq!(c.stream, s);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "invalid stream config")]
    fn bad_stream_warmup_rejected() {
        let mut c = SocConfig::mobile(PolicyKind::Fcfs);
        c.stream.warmup_ps = 10;
        c.stream.duration_ps = 5;
        c.validate();
    }

    #[test]
    fn zero_partitions_rejected() {
        let validate = |parts| {
            let c = SocConfig { output_partitions: parts, ..SocConfig::mobile(PolicyKind::Fcfs) };
            std::panic::catch_unwind(|| c.validate())
                .map_err(|e| e.downcast_ref::<&str>().map(|s| s.to_string()))
        };
        for parts in [0, 4] {
            let err = Some("need 1 to 3 output partitions (Table IV)".to_string());
            assert_eq!(validate(parts), Err(err), "{parts}");
        }
        for parts in 1..=3 {
            assert_eq!(validate(parts), Ok(()), "{parts}");
        }
    }
}
