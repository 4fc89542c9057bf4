//! The run ledger: every statistic one simulation accumulates toward its
//! [`RunStats`], and the rules that fill it.
//!
//! [`SocSim`](crate::SocSim) reports simulator events here — an input
//! edge sourced, a compute started, a node or DAG instance done, a
//! transfer's service time, a bandwidth observation, a retiring
//! instance's bytes — and the [`Ledger`] decides which counters each
//! event moves. That keeps four rules in one place each: the Fig. 5/6
//! traffic accounting, the bounded-memory sample rule, the exec-time and
//! starvation rules, and the admission-order merge of data-movement
//! samples. The ledger never reads the SoC; other components' own
//! measurements (engine bytes and busy times, the manager's busy time,
//! fault and service statistics) reach [`finish`](Ledger::finish) in a
//! partly filled [`RunStats`].

use crate::result::{PredictionStats, SimResult};
use crate::trace::Trace;
use crate::workload::AppSpec;
use relief_metrics::{AppStats, RunStats, TrafficStats};
use relief_sim::{Dur, Time};
use relief_trace::InputSource;
use std::collections::BTreeMap;

/// One app symbol's counters.
#[derive(Debug, Clone, Default)]
struct Tally {
    stats: AppStats,
    /// Summed DMA service time (Table II "Mem").
    mem_time: Dur,
    /// Summed compute time (Table II "Compute").
    compute_time: Dur,
    /// Some spec of the symbol re-arrives on completion, so it can starve.
    repeats: bool,
}

/// The statistics of one run, in the making. Clones with the simulation
/// it belongs to ([`SocSim::fork`](crate::SocSim::fork)).
#[derive(Debug, Clone, Default)]
pub(crate) struct Ledger {
    /// `SocConfig::bounded_memory`: record no prediction sample and no
    /// DAG runtime (the O(total-requests) vector) and keep every count.
    bounded: bool,
    /// App spec index → the index of its symbol's tally.
    app_tally: Vec<usize>,
    /// One tally per symbol: the first spec of a symbol names it and
    /// gives its deadline.
    tallies: Vec<Tally>,
    /// The scratchpad-side traffic counters; the DRAM and SPAD-to-SPAD
    /// byte counts are the transfer engine's.
    traffic: TrafficStats,
    sched_ops: u64,
    last_completion: Time,
    /// Compute and bandwidth error sums, added in event order; the
    /// data-movement sum is added at [`finish`](Self::finish).
    prediction: PredictionStats,
    /// Data-movement errors tagged with their instance's admission
    /// serial: instances report at retirement or at the end of the run,
    /// so [`finish`](Self::finish) restores admission order.
    dm: Vec<(u32, f64)>,
}

/// Table VIII's signed relative error: negative means the predictor
/// overestimated.
fn rel_error(actual: f64, predicted: f64) -> f64 {
    (actual - predicted) / predicted
}

impl Ledger {
    /// An empty ledger for `apps`; `bounded` is `SocConfig::bounded_memory`.
    pub(crate) fn new(apps: &[AppSpec], bounded: bool) -> Ledger {
        let mut tallies: Vec<Tally> = Vec::new();
        let app_tally = apps
            .iter()
            .map(|a| {
                let known = tallies.iter().position(|t| t.stats.name == a.symbol);
                let t = known.unwrap_or_else(|| {
                    let (name, deadline) = (a.symbol.clone(), a.dag.relative_deadline());
                    let stats = AppStats { name, deadline, ..AppStats::default() };
                    tallies.push(Tally { stats, ..Tally::default() });
                    tallies.len() - 1
                });
                tallies[t].repeats |= a.repeat;
                t
            })
            .collect();
        Ledger { bounded, app_tally, tallies, ..Ledger::default() }
    }

    /// A task of app spec `app` consumed one input edge of `bytes` from
    /// `source`. A colocated edge moves nothing; a forward crosses two
    /// scratchpad ports (producer read, local write), a DRAM read one.
    pub(crate) fn edge(&mut self, app: usize, source: InputSource, bytes: u64) {
        let stats = &mut self.tallies[self.app_tally[app]].stats;
        stats.edges_consumed += 1;
        match source {
            InputSource::Colocated => {
                stats.colocations += 1;
                self.traffic.colocated_bytes += bytes;
            }
            InputSource::Forwarded { .. } => {
                stats.forwards += 1;
                self.traffic.spad_access_bytes += 2 * bytes;
            }
            InputSource::Dram => self.traffic.spad_access_bytes += bytes,
        }
    }

    /// `bytes` crossed one scratchpad port outside an input edge: a
    /// primary DRAM input, a write-back's producer read, a re-read.
    pub(crate) fn spad_port(&mut self, bytes: u64) {
        self.traffic.spad_access_bytes += bytes;
    }

    /// A task of app spec `app` started `dur` of compute, its functional
    /// unit touching `touched_bytes` of inputs and output in the
    /// scratchpad.
    pub(crate) fn compute(&mut self, app: usize, dur: Dur, touched_bytes: u64) {
        self.traffic.spad_access_bytes += touched_bytes;
        self.tallies[self.app_tally[app]].compute_time += dur;
    }

    /// A node of app spec `app` completed at `now`, meeting its node
    /// deadline or not. `touched_bytes` (inputs plus output) is what an
    /// all-DRAM execution would have moved (Fig. 5's normalization);
    /// `predicted` and `actual` are its compute times.
    pub(crate) fn node_done(
        &mut self,
        app: usize,
        now: Time,
        met: bool,
        touched_bytes: u64,
        predicted: Dur,
        actual: Dur,
    ) {
        self.traffic.all_dram_bytes += touched_bytes;
        self.last_completion = now;
        let stats = &mut self.tallies[self.app_tally[app]].stats;
        stats.nodes_completed += 1;
        stats.node_deadlines_met += u64::from(met);
        if predicted.as_ps() > 0 && !self.bounded {
            let (actual, predicted) = (actual.as_ps() as f64, predicted.as_ps() as f64);
            self.prediction.compute_rel_errors.add(rel_error(actual, predicted));
        }
    }

    /// A DAG instance of app spec `app` completed after `runtime`.
    pub(crate) fn dag_done(&mut self, app: usize, met: bool, runtime: Dur) {
        let stats = &mut self.tallies[self.app_tally[app]].stats;
        stats.dags_completed += 1;
        stats.dag_deadlines_met += u64::from(met);
        if !self.bounded {
            stats.dag_runtimes.push(runtime);
        }
    }

    /// A transfer of app spec `app` took `dur` of service time.
    pub(crate) fn mem_time(&mut self, app: usize, dur: Dur) {
        self.tallies[self.app_tally[app]].mem_time += dur;
    }

    /// A DRAM transfer achieved `achieved` bytes/s against the `predicted`
    /// bandwidth captured at its task's ready-queue insertion (0: none).
    pub(crate) fn bandwidth(&mut self, achieved: f64, predicted: f64) {
        if predicted > 0.0 && !self.bounded {
            self.prediction.bw_rel_errors.add(rel_error(achieved, predicted));
        }
    }

    /// The instance with admission serial `serial` moved `(actual,
    /// predicted)` bytes per completed node, in node order.
    pub(crate) fn data_moved(&mut self, serial: u32, nodes: impl IntoIterator<Item = (u64, u64)>) {
        if self.bounded {
            return;
        }
        for (actual, predicted) in nodes {
            if actual > 0 && predicted > 0 {
                self.dm.push((serial, rel_error(actual as f64, predicted as f64)));
            }
        }
    }

    /// `n` tasks went through the policy into the ready queues.
    pub(crate) fn scheduled(&mut self, n: u64) {
        self.sched_ops += n;
    }

    /// Closes the run. `cap` is the time limit of a truncated run, which
    /// is then its execution time; `stats` carries the other components'
    /// measurements. The result's executed-task trace and its two
    /// diagnostics are left empty: they are the simulator's.
    pub(crate) fn finish(mut self, cap: Option<Time>, mut stats: RunStats) -> SimResult {
        // A stable sort: each serial reported once, in node order. The
        // sum then adds in admission order, whatever the report order.
        self.dm.sort_by_key(|&(serial, _)| serial);
        for (_, err) in self.dm {
            self.prediction.dm_rel_errors.add(err);
        }
        stats.exec_time = cap.unwrap_or(self.last_completion).saturating_since(Time::ZERO);
        stats.traffic = TrafficStats {
            colocated_bytes: self.traffic.colocated_bytes,
            spad_access_bytes: self.traffic.spad_access_bytes,
            all_dram_bytes: self.traffic.all_dram_bytes,
            ..stats.traffic
        };
        stats.scheduler_ops = self.sched_ops;
        stats.accel_busy = self.tallies.iter().map(|a| a.compute_time).sum();
        stats.edges_total = self.tallies.iter().map(|a| a.stats.edges_consumed).sum();
        // Starvation, judged per symbol: a repeating app that never
        // completed while others did.
        let any_completed = self.tallies.iter().any(|a| a.stats.dags_completed > 0);
        let (mut mem, mut compute) = (BTreeMap::new(), BTreeMap::new());
        for mut a in self.tallies {
            a.stats.starved = a.repeats && any_completed && a.stats.dags_completed == 0;
            mem.insert(a.stats.name.clone(), a.mem_time);
            compute.insert(a.stats.name.clone(), a.compute_time);
            stats.apps.insert(a.stats.name.clone(), a.stats);
        }
        SimResult {
            stats,
            per_app_mem_time: mem,
            per_app_compute_time: compute,
            prediction: self.prediction,
            trace: Trace::default(),
            events_dispatched: 0,
            live_high_water: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::ErrorSum;
    use relief_dag::{AccTypeId, DagBuilder, NodeSpec};
    use std::sync::Arc;

    /// A one-node app spec of `symbol` with relative deadline `deadline_us`.
    fn spec(symbol: &str, deadline_us: u64, repeat: bool) -> AppSpec {
        let mut b = DagBuilder::new(symbol, Dur::from_us(deadline_us));
        b.add_node(NodeSpec::new(AccTypeId(0), Dur::from_us(1)));
        let dag = Arc::new(b.build().unwrap());
        AppSpec { repeat, ..AppSpec::once(symbol, dag) }
    }

    fn finish(ledger: Ledger) -> SimResult {
        ledger.finish(None, RunStats::default())
    }

    #[test]
    fn each_input_source_moves_exactly_its_counters() {
        let forward = InputSource::Forwarded { from_inst: 3 };
        // (source, colocations, forwards, colocated bytes, scratchpad bytes)
        for (source, colocs, fwds, coloc_bytes, spad_bytes) in [
            (InputSource::Colocated, 1, 0, 100, 0),
            (forward, 0, 1, 0, 200),
            (InputSource::Dram, 0, 0, 0, 100),
        ] {
            let mut ledger = Ledger::new(&[spec("A", 10, false)], false);
            ledger.edge(0, source, 100);
            let r = finish(ledger);
            let a = &r.stats.apps["A"];
            let counts = (a.edges_consumed, a.colocations, a.forwards);
            assert_eq!(counts, (1, colocs, fwds), "{source}");
            let t = r.stats.traffic;
            assert_eq!((t.colocated_bytes, t.spad_access_bytes), (coloc_bytes, spad_bytes));
            assert_eq!((t.all_dram_bytes, t.dram_bytes(), r.stats.edges_total), (0, 0, 1));
        }
    }

    #[test]
    fn specs_sharing_a_symbol_pool_under_the_first() {
        let apps = [spec("A", 10, false), spec("B", 20, false), spec("A", 30, false)];
        let mut ledger = Ledger::new(&apps, false);
        ledger.edge(0, InputSource::Dram, 1);
        ledger.edge(2, InputSource::Colocated, 1);
        ledger.compute(0, Dur::from_us(2), 0);
        ledger.compute(2, Dur::from_us(3), 0);
        ledger.compute(1, Dur::from_us(4), 0);
        ledger.mem_time(2, Dur::from_us(5));
        ledger.dag_done(2, true, Dur::from_us(6));
        ledger.scheduled(7);
        let r = finish(ledger);
        assert_eq!(r.stats.apps.keys().collect::<Vec<_>>(), ["A", "B"]);
        let a = &r.stats.apps["A"];
        assert_eq!((a.name.as_str(), a.deadline), ("A", Dur::from_us(10)));
        assert_eq!((a.edges_consumed, a.colocations, a.dags_completed), (2, 1, 1));
        assert_eq!(a.dag_runtimes, [Dur::from_us(6)]);
        assert_eq!(r.per_app_compute_time["A"], Dur::from_us(5));
        assert_eq!(r.per_app_mem_time["A"], Dur::from_us(5));
        assert_eq!(r.per_app_mem_time["B"], Dur::ZERO);
        assert_eq!(r.stats.accel_busy, Dur::from_us(9));
        assert_eq!((r.stats.edges_total, r.stats.scheduler_ops), (2, 7));
    }

    /// Every event kind at least once, samples included.
    fn eventful(bounded: bool) -> SimResult {
        let mut ledger = Ledger::new(&[spec("A", 10, false)], bounded);
        ledger.edge(0, InputSource::Forwarded { from_inst: 1 }, 64);
        ledger.spad_port(8);
        ledger.compute(0, Dur::from_us(3), 16);
        ledger.node_done(0, Time::from_us(4), true, 80, Dur::from_us(2), Dur::from_us(3));
        ledger.dag_done(0, false, Dur::from_us(4));
        ledger.mem_time(0, Dur::from_us(1));
        ledger.bandwidth(3.0, 4.0);
        ledger.data_moved(0, [(96, 64)]);
        ledger.scheduled(1);
        finish(ledger)
    }

    #[test]
    fn bounded_mode_drops_every_sample_and_keeps_every_count() {
        let bounded = eventful(true);
        assert_eq!(bounded.prediction, PredictionStats::default());
        assert!(bounded.stats.apps["A"].dag_runtimes.is_empty());

        let mut full = eventful(false);
        let p = &full.prediction;
        assert_eq!((p.compute_rel_errors.count, p.bw_rel_errors.count), (1, 1));
        assert_eq!(p.dm_rel_errors, ErrorSum { count: 1, sum: 0.5 });
        assert_eq!(full.stats.apps["A"].dag_runtimes, [Dur::from_us(4)]);
        full.stats.apps.get_mut("A").unwrap().dag_runtimes.clear();
        assert_eq!(format!("{:?}", full.stats), format!("{:?}", bounded.stats));
        assert_eq!(full.per_app_mem_time, bounded.per_app_mem_time);
        assert_eq!(full.per_app_compute_time, bounded.per_app_compute_time);
    }

    #[test]
    fn data_movement_samples_come_out_in_admission_order() {
        let mut ledger = Ledger::new(&[spec("A", 10, false)], false);
        // Error (actual − predicted) / predicted. Serial 2's node rounds
        // to 1e16, where one ulp is 2, so the sum depends on the order the
        // samples add in. Zero-byte nodes give no sample.
        ledger.data_moved(2, [(10_000_000_000_000_001, 1), (0, 10)]);
        ledger.data_moved(0, [(20, 10), (20, 10), (10, 0)]);
        ledger.data_moved(1, [(15, 10)]);
        let r = finish(ledger);
        let admission_order = [1.0, 1.0, 0.5, 1e16];
        let sum = r.prediction.dm_rel_errors;
        assert_eq!(sum.count, 4);
        assert_eq!(sum.sum.to_bits(), admission_order.iter().sum::<f64>().to_bits());
        // 1e16 + 2 in admission order; report order would round every
        // small sample away and give 1e16.
        assert_eq!(sum.sum, 1e16 + 2.0);
        assert_eq!([1e16, 1.0, 1.0, 0.5].iter().sum::<f64>(), 1e16);

        // Within a serial the samples keep node order: 1e16 first rounds
        // each 1.0 away, where any sort by error would add 1.0 + 1.0
        // first and give 1e16 + 2.
        let mut ledger = Ledger::new(&[spec("A", 10, false)], false);
        ledger.data_moved(0, [(10_000_000_000_000_001, 1), (20, 10), (20, 10)]);
        let sum = finish(ledger).prediction.dm_rel_errors;
        assert_eq!((sum.count, sum.sum.to_bits()), (3, 1e16f64.to_bits()));
        assert_eq!([1.0, 1.0, 1e16].iter().sum::<f64>(), 1e16 + 2.0);
    }

    #[test]
    fn exec_time_is_the_cap_when_truncated_else_the_last_completion() {
        let mut ledger = Ledger::new(&[spec("A", 10, false)], false);
        for t in [3, 7] {
            ledger.node_done(0, Time::from_us(t), true, 0, Dur::ZERO, Dur::ZERO);
        }
        let truncated = ledger.clone().finish(Some(Time::from_us(50)), RunStats::default());
        assert_eq!(truncated.stats.exec_time, Dur::from_us(50));
        assert_eq!(finish(ledger).stats.exec_time, Dur::from_us(7));
    }

    #[test]
    fn only_a_repeating_app_without_completions_starves_while_another_completes() {
        let apps = [spec("A", 10, true), spec("B", 10, true), spec("C", 10, false)];
        let starved = |r: &SimResult| {
            r.stats.apps.values().filter(|a| a.starved).map(|a| a.name.clone()).collect::<Vec<_>>()
        };
        let idle = Ledger::new(&apps, false);
        assert!(starved(&finish(idle.clone())).is_empty(), "nobody completed");
        let mut ledger = idle;
        ledger.dag_done(1, true, Dur::from_us(1));
        assert_eq!(starved(&finish(ledger)), ["A"]);
    }
}
