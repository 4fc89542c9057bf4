//! The fault domain: what a fault does to one run.
//!
//! The simulator calls a [`FaultDomain`] wherever hardware can misbehave
//! and acts on its verdicts: discard a compute attempt and re-queue it
//! after a backoff or abort it, re-read a corrupt input from DRAM, park
//! an ECC re-fetch, take a unit offline and bring it back. The domain
//! itself never touches the SoC and schedules no events: it draws the
//! verdicts, keeps the retry budget and the outage schedules, counts
//! [`FaultStats`] and emits the eight fault trace events.

use crate::{
    FaultConfig, Outage, OutageSchedule, DOMAIN_CHANNEL, DOMAIN_DMA, DOMAIN_ECC, DOMAIN_TASK,
    DOMAIN_UNIT,
};
use relief_metrics::FaultStats;
use relief_sim::{fnv1a, Dur, SplitMix64, Time};
use relief_trace::{EventKind, TaskRef, Tracer};

/// What the simulator does about a corrupt compute attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFault {
    /// Re-queue the task after this exponential backoff.
    Retry(Dur),
    /// The retry budget is spent: abandon the task, which never completes
    /// and neither does its DAG instance, then report it with
    /// [`FaultDomain::aborted`].
    Abort,
}

/// One ECC re-fetch, parked by the domain across its backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refetch {
    /// The consuming task.
    pub task: TaskRef,
    /// Node index of the producing parent, in `task`'s instance.
    pub parent: u32,
    /// 0-based delivery attempt: the invalidated one when parked, the
    /// re-fetch's own when taken back.
    pub attempt: u32,
    /// The consumer's accelerator instance, kept for the simulator.
    pub dst: u32,
    /// The simulator's storage slot of `task`'s instance.
    pub slot: u32,
}

/// The fault domain of one run: the stateless verdicts of a
/// [`FaultConfig`], the recovery rules (retry budget, exponential backoff,
/// outage arming, ECC re-fetch parking), the run's [`FaultStats`] and the
/// fault trace events.
///
/// A clone carries the outage cursors, armed windows, parked re-fetches and
/// statistics; its tracer shares the original's sinks until
/// [`set_tracer`](Self::set_tracer) replaces it.
///
/// # Examples
///
/// ```
/// use relief_fault::{FaultConfig, FaultDomain, TaskFault};
/// use relief_sim::{Dur, Time};
/// use relief_trace::TaskRef;
///
/// let cfg = FaultConfig { task_fault_rate: 0.999, max_retries: 1, ..FaultConfig::default() };
/// let mut faults = FaultDomain::new(&cfg, 0);
/// let task = TaskRef { instance: 0, node: 0 };
/// // Attempt 0 faults and retries after the base backoff; attempt 1
/// // faults with the retry budget spent.
/// let backoff = Dur::from_ps(cfg.retry_backoff_ps);
/// assert_eq!(faults.compute_done(Time::ZERO, task, 0, 0), Some(TaskFault::Retry(backoff)));
/// assert_eq!(faults.compute_done(Time::ZERO, task, 0, 1), Some(TaskFault::Abort));
/// assert_eq!(faults.into_stats(0).task_faults, 2);
/// ```
#[derive(Debug, Clone)]
pub struct FaultDomain {
    cfg: FaultConfig,
    /// `cfg.enabled()`, computed once: the simulator asks on every chunk
    /// event.
    enabled: bool,
    stats: FaultStats,
    /// Per-unit outage streams (empty when unit outages are off).
    outages: Vec<OutageSchedule>,
    /// The armed outage window per unit, if any.
    armed: Vec<Option<Outage>>,
    /// Parked ECC re-fetches, indexed by their handle.
    refetches: Vec<Refetch>,
    /// Free handles in `refetches`.
    free_refetches: Vec<u32>,
    tracer: Tracer,
}

/// The hash identity of a task.
fn ident(task: TaskRef) -> u64 {
    (u64::from(task.instance) << 32) | u64::from(task.node)
}

impl FaultDomain {
    /// The fault domain of `cfg` on a platform of `units` accelerator
    /// instances. No outage is armed yet; see
    /// [`arm_outage`](Self::arm_outage).
    #[must_use]
    pub fn new(cfg: &FaultConfig, units: usize) -> FaultDomain {
        let (mttf, repair) = (cfg.unit_mttf_ps, cfg.unit_repair_ps);
        FaultDomain {
            outages: (0..units as u64)
                .map(|u| OutageSchedule::new(cfg.seed, DOMAIN_UNIT, u, mttf, repair))
                .collect(),
            armed: vec![None; units],
            cfg: cfg.clone(),
            enabled: cfg.enabled(),
            stats: FaultStats::default(),
            refetches: Vec::new(),
            free_refetches: Vec::new(),
            tracer: Tracer::off(),
        }
    }

    /// Routes the fault trace events to `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// True when any fault kind can fire. When false, no verdict fires
    /// and no outage is armed.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The stateless coin flip: hash `(seed, domain, a, b)` into a
    /// SplitMix64 stream and threshold its first uniform draw.
    fn decide(&self, domain: u8, a: u64, b: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let mut bytes = [0u8; 25];
        bytes[..8].copy_from_slice(&self.cfg.seed.to_le_bytes());
        bytes[8] = domain;
        bytes[9..17].copy_from_slice(&a.to_le_bytes());
        bytes[17..25].copy_from_slice(&b.to_le_bytes());
        SplitMix64::new(fnv1a(&bytes)).chance(rate)
    }

    /// Whether compute attempt `attempt` of `task` is corrupt.
    fn task_faults(&self, task: TaskRef, attempt: u32) -> bool {
        self.decide(DOMAIN_TASK, ident(task), u64::from(attempt), self.cfg.task_fault_rate)
    }

    /// Whether delivery attempt `attempt` into `task` from parent node
    /// `parent` ([`u32::MAX`] for the primary DRAM input) is corrupt.
    /// Attempt `max_retries` and later never fault: the modeled fallback
    /// is a verified DRAM read.
    fn dma_faults(&self, task: TaskRef, parent: u32, attempt: u32) -> bool {
        let b = (u64::from(parent) << 32) | u64::from(attempt);
        attempt < self.cfg.max_retries
            && self.decide(DOMAIN_DMA, ident(task), b, self.cfg.dma_fault_rate)
    }

    /// Whether chunk `chunk` of delivery attempt `attempt` of the forwarded
    /// input into `task` from parent node `parent` fails its ECC check.
    /// Attempt `max_retries` and later never fault (the fallback DRAM read
    /// is ECC-verified), so edge deliveries stay bounded. The chunk index
    /// is folded in at 24 bits and the attempt at 8, which covers every
    /// transfer the simulator models (chunks are 4 KiB, payloads well
    /// under 64 GiB, retry budgets single-digit).
    #[must_use]
    pub fn ecc_chunk_faults(&self, task: TaskRef, parent: u32, chunk: u32, attempt: u32) -> bool {
        let b = (u64::from(parent) << 32)
            | (u64::from(chunk & 0x00FF_FFFF) << 8)
            | u64::from(attempt & 0xFF);
        attempt < self.cfg.max_retries
            && self.decide(DOMAIN_ECC, ident(task), b, self.cfg.ecc_chunk_rate)
    }

    /// Re-dispatch delay after fault number `attempt`: exponential backoff
    /// with a shift cap, so the delay saturates instead of overflowing.
    fn backoff(&self, attempt: u32) -> Dur {
        Dur::from_ps(self.cfg.retry_backoff_ps.saturating_mul(1u64 << attempt.min(16)))
    }

    /// The DRAM channel's blackout windows as `(down_ps, up_ps)` pairs, for
    /// the transfer engine's gate; `None` when channel outages are off.
    #[must_use]
    pub fn channel_windows(&self) -> Option<impl Iterator<Item = (u64, u64)> + Clone> {
        let (mttf, repair) = (self.cfg.dram_mttf_ps, self.cfg.dram_repair_ps);
        let windows = OutageSchedule::new(self.cfg.seed, DOMAIN_CHANNEL, 0, mttf, repair);
        (mttf > 0).then(|| windows.map(|w| (w.down_ps, w.up_ps)))
    }

    /// Arms `unit`'s next outage window and returns when it opens; `None`
    /// when unit outages are off.
    pub fn arm_outage(&mut self, unit: usize) -> Option<Time> {
        self.armed[unit] = self.outages[unit].next();
        self.armed[unit].map(|w| Time::from_ps(w.down_ps))
    }

    /// `unit`'s armed outage window opened at `now`: counts and traces the
    /// quarantine and returns when the unit is restored.
    pub fn unit_down(&mut self, now: Time, unit: usize) -> Option<Time> {
        let w = self.armed[unit]?;
        self.stats.unit_quarantines += 1;
        self.tracer.emit(now.as_ps(), || EventKind::UnitQuarantined {
            inst: unit as u32,
            until_ps: w.up_ps,
        });
        Some(Time::from_ps(w.up_ps))
    }

    /// `unit` was restored at `now`. While work is `outstanding`, arms its
    /// next window and returns when it opens; otherwise disarms the unit,
    /// so a drained simulation is not kept alive by an endless outage
    /// stream.
    pub fn unit_up(&mut self, now: Time, unit: usize, outstanding: bool) -> Option<Time> {
        self.tracer.emit(now.as_ps(), || EventKind::UnitRestored { inst: unit as u32 });
        if outstanding {
            return self.arm_outage(unit);
        }
        self.armed[unit] = None;
        None
    }

    /// Compute attempt `attempt` of `task` on unit `inst` ended at `now`.
    /// A corrupt attempt is counted and traced, and the verdict says
    /// whether to retry it or, once `max_retries` retries are spent,
    /// abort it. A clean attempt after a fault counts as recovered.
    pub fn compute_done(
        &mut self,
        now: Time,
        task: TaskRef,
        inst: u32,
        attempt: u32,
    ) -> Option<TaskFault> {
        if !self.task_faults(task, attempt) {
            self.stats.recovered += u64::from(attempt > 0);
            return None;
        }
        self.stats.task_faults += 1;
        self.tracer.emit(now.as_ps(), || EventKind::TaskFaulted { task, inst, attempt });
        Some(if attempt < self.cfg.max_retries {
            TaskFault::Retry(self.backoff(attempt))
        } else {
            TaskFault::Abort
        })
    }

    /// `task` was abandoned at `now` after `attempts` compute attempts.
    pub fn aborted(&mut self, now: Time, task: TaskRef, attempts: u32) {
        self.stats.tasks_aborted += 1;
        self.tracer.emit(now.as_ps(), || EventKind::TaskAborted { task, attempts });
    }

    /// `task`'s backoff expired at `now`: it re-enters the ready queue of
    /// accelerator type `acc` as compute attempt `attempt`.
    pub fn retried(&mut self, now: Time, task: TaskRef, acc: u32, attempt: u32) {
        self.stats.task_retries += 1;
        self.tracer.emit(now.as_ps(), || EventKind::TaskRetried { task, acc, attempt });
    }

    /// Whether delivery attempt `attempt` of `bytes` into `task`, from
    /// parent node `parent` (`None` for the primary DRAM input), arrived
    /// corrupt at `now`. A corrupt delivery is counted and traced; the
    /// simulator re-reads it from DRAM as attempt `attempt + 1`.
    pub fn delivery_corrupt(
        &mut self,
        now: Time,
        task: TaskRef,
        parent: Option<u32>,
        bytes: u64,
        attempt: u32,
    ) -> bool {
        if !self.dma_faults(task, parent.unwrap_or(u32::MAX), attempt) {
            return false;
        }
        self.stats.dma_faults += 1;
        self.tracer.emit(now.as_ps(), || EventKind::DmaFaulted {
            task,
            parent: parent.map(|node| TaskRef { instance: task.instance, node }),
            bytes,
            attempt,
        });
        true
    }

    /// A forwarded chunk of `req`'s edge failed its ECC check at `now`, in
    /// delivery attempt `req.attempt`, and the simulator cancelled the
    /// transfer. Counts the fault and the lost forwarding window, parks
    /// the DRAM re-fetch as attempt `req.attempt + 1`, and returns when it
    /// is due and its handle for [`take_refetch`](Self::take_refetch).
    pub fn ecc_corrupted(&mut self, now: Time, req: Refetch) -> (Time, u32) {
        self.stats.ecc_faults += 1;
        self.stats.forward_invalidations += 1;
        let attempt = req.attempt;
        self.tracer.emit(now.as_ps(), || EventKind::EccCorrupted {
            task: req.task,
            parent: TaskRef { instance: req.task.instance, node: req.parent },
            attempt,
        });
        let req = Refetch { attempt: attempt + 1, ..req };
        let idx = match self.free_refetches.pop() {
            Some(i) => {
                self.refetches[i as usize] = req;
                i
            }
            None => {
                self.refetches.push(req);
                self.refetches.len() as u32 - 1
            }
        };
        (now + self.backoff(attempt), idx)
    }

    /// The re-fetch parked under `idx`, whose handle is free again.
    pub fn take_refetch(&mut self, idx: u32) -> Refetch {
        self.free_refetches.push(idx);
        self.refetches[idx as usize]
    }

    /// DAG instance `instance` completed at `now`, meeting its deadline
    /// when `met`, after absorbing `faults` faults. A miss after a fault
    /// is attributed to fault recovery.
    pub fn dag_done(&mut self, now: Time, instance: u32, met: bool, faults: u64) {
        if !met && faults > 0 {
            self.stats.fault_attributed_misses += 1;
            self.tracer.emit(now.as_ps(), || EventKind::FaultAttributedMiss { instance, faults });
        }
    }

    /// The run's fault statistics, given how many DRAM blackout windows
    /// delayed a chunk start (the transfer engine counts those).
    #[must_use]
    pub fn into_stats(self, channel_outages: u64) -> FaultStats {
        FaultStats { channel_outages, ..self.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relief_metrics::{reconcile, Mismatch, RunStats};
    use relief_trace::{EventCounters, RingBufferSink, TraceEvent};
    use std::cell::RefCell;
    use std::rc::Rc;

    const US: u64 = 1_000_000;

    fn task(instance: u32, node: u32) -> TaskRef {
        TaskRef { instance, node }
    }

    fn faulty() -> FaultConfig {
        FaultConfig {
            task_fault_rate: 0.3,
            dma_fault_rate: 0.2,
            ecc_chunk_rate: 0.1,
            unit_mttf_ps: 10 * US,
            dram_mttf_ps: 20 * US,
            ..FaultConfig::default()
        }
    }

    /// A domain over `cfg` with 4 units whose trace events a ring buffer
    /// records.
    fn traced(cfg: &FaultConfig) -> (FaultDomain, Rc<RefCell<RingBufferSink>>) {
        let ring = RingBufferSink::shared(4096);
        let mut faults = FaultDomain::new(cfg, 4);
        faults.set_tracer(Tracer::to_sink(ring.clone()));
        (faults, ring)
    }

    /// The first task of instance 0 whose attempt 0 faults under `cfg`.
    fn faulting_task(cfg: &FaultConfig) -> TaskRef {
        let faults = FaultDomain::new(cfg, 0);
        (0..1024).map(|n| task(0, n)).find(|&t| faults.task_faults(t, 0)).unwrap()
    }

    /// An outage window as `(down, up)`.
    type Window = (Option<Time>, Option<Time>);

    /// Every verdict and outage window of `cfg` over 8 units and 8
    /// instances of 64 nodes at every attempt: 8 outage windows per unit,
    /// then the task, primary-input DMA and chunk-0 ECC verdicts.
    fn schedule(cfg: &FaultConfig) -> (Vec<Window>, Vec<[bool; 3]>) {
        let mut faults = FaultDomain::new(cfg, 8);
        let mut windows = Vec::new();
        for u in 0..8 {
            let mut down = faults.arm_outage(u);
            for _ in 0..8 {
                let up = faults.unit_down(Time::ZERO, u);
                windows.push((down, up));
                down = faults.unit_up(Time::ZERO, u, true);
            }
        }
        let mut verdicts = Vec::new();
        for d in 0..8 {
            for n in 0..64 {
                for a in 0..=cfg.max_retries {
                    let t = task(d, n);
                    verdicts.push([
                        faults.task_faults(t, a),
                        faults.dma_faults(t, u32::MAX, a),
                        faults.ecc_chunk_faults(t, 0, 0, a),
                    ]);
                }
            }
        }
        (windows, verdicts)
    }

    #[test]
    fn enabled_matches_the_config_for_every_knob() {
        let d = FaultConfig::default();
        for cfg in [
            FaultConfig { task_fault_rate: 0.1, ..d.clone() },
            FaultConfig { dma_fault_rate: 0.1, ..d.clone() },
            FaultConfig { ecc_chunk_rate: 0.1, ..d.clone() },
            FaultConfig { unit_mttf_ps: 1_000_000, ..d.clone() },
            FaultConfig { dram_mttf_ps: 1_000_000, ..d.clone() },
        ] {
            assert!(cfg.enabled());
            assert!(FaultDomain::new(&cfg, 2).enabled(), "{cfg:?}");
        }
        assert!(!FaultDomain::new(&d, 2).enabled());
    }

    #[test]
    fn the_default_config_is_inert() {
        let cfg = FaultConfig::default();
        let (mut faults, ring) = traced(&cfg);
        assert!(!faults.enabled());
        assert!(faults.channel_windows().is_none());
        for u in 0..4 {
            assert_eq!(faults.arm_outage(u), None);
            assert_eq!(faults.unit_down(Time::ZERO, u), None);
        }
        for n in 0..256 {
            let t = task(0, n);
            assert_eq!(faults.compute_done(Time::ZERO, t, 0, 0), None);
            assert!(!faults.delivery_corrupt(Time::ZERO, t, None, 64, 0));
            assert!(!faults.delivery_corrupt(Time::ZERO, t, Some(0), 64, 0));
            assert!(!faults.ecc_chunk_faults(t, 0, n, 0));
        }
        faults.dag_done(Time::ZERO, 0, false, 0);
        assert!(ring.borrow().snapshot().is_empty());
        assert_eq!(faults.into_stats(0), FaultStats::default());
    }

    #[test]
    fn a_faulting_task_retries_with_exponential_backoff_then_aborts() {
        let cfg = FaultConfig { task_fault_rate: 0.999, retry_backoff_ps: 100, ..faulty() };
        let (mut faults, ring) = traced(&cfg);
        let t = task(3, 5);
        for a in 0..=cfg.max_retries {
            let expected = if a < cfg.max_retries {
                TaskFault::Retry(Dur::from_ps(100 << a))
            } else {
                TaskFault::Abort
            };
            assert_eq!(faults.compute_done(Time::from_ps(7), t, 2, a), Some(expected));
            let events = ring.borrow_mut().take();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].at_ps, 7);
            assert_eq!(events[0].kind, EventKind::TaskFaulted { task: t, inst: 2, attempt: a });
        }
        assert_eq!(faults.into_stats(0).task_faults, u64::from(cfg.max_retries) + 1);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let faults = FaultDomain::new(&FaultConfig { retry_backoff_ps: 100, ..faulty() }, 0);
        assert_eq!(faults.backoff(3), Dur::from_ps(800));
        assert!(faults.backoff(u32::MAX) >= faults.backoff(16));
    }

    #[test]
    fn recovered_counts_clean_attempts_after_a_fault() {
        let cfg = FaultConfig { task_fault_rate: 0.3, ..FaultConfig::default() };
        let mut faults = FaultDomain::new(&cfg, 0);
        let clean =
            |f: &FaultDomain, a| (0..1024).map(|n| task(1, n)).find(|&t| !f.task_faults(t, a));
        let first = clean(&faults, 0).unwrap();
        assert_eq!(faults.compute_done(Time::ZERO, first, 0, 0), None);
        let retry = clean(&faults, 2).unwrap();
        assert_eq!(faults.compute_done(Time::ZERO, retry, 0, 2), None);
        let faulted = faulting_task(&cfg);
        assert!(faults.compute_done(Time::ZERO, faulted, 0, 0).is_some());
        let stats = faults.into_stats(0);
        assert_eq!((stats.recovered, stats.task_faults), (1, 1));
    }

    #[test]
    fn deliveries_fault_below_the_budget_and_name_their_parent() {
        let cfg = FaultConfig { dma_fault_rate: 0.999, max_retries: 2, ..FaultConfig::default() };
        let (mut faults, ring) = traced(&cfg);
        let t = task(4, 9);
        for a in [2, 3, 7] {
            assert!(!faults.delivery_corrupt(Time::ZERO, t, None, 64, a), "attempt {a}");
            assert!(!faults.delivery_corrupt(Time::ZERO, t, Some(1), 64, a), "attempt {a}");
        }
        assert!(ring.borrow().snapshot().is_empty());
        assert!(faults.delivery_corrupt(Time::from_ps(5), t, None, 4096, 1));
        assert!(faults.delivery_corrupt(Time::from_ps(6), t, Some(2), 512, 0));
        let kinds: Vec<EventKind> = ring.borrow_mut().take().into_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::DmaFaulted { task: t, parent: None, bytes: 4096, attempt: 1 },
                EventKind::DmaFaulted { task: t, parent: Some(task(4, 2)), bytes: 512, attempt: 0 },
            ]
        );
        assert_eq!(faults.into_stats(0).dma_faults, 2);
    }

    #[test]
    fn ecc_invalidations_park_a_backed_off_refetch_and_reuse_handles() {
        let cfg = FaultConfig { ecc_chunk_rate: 0.5, retry_backoff_ps: 100, ..faulty() };
        let (mut faults, ring) = traced(&cfg);
        let req = Refetch { task: task(2, 3), parent: 1, attempt: 1, dst: 6, slot: 9 };
        let (due, idx) = faults.ecc_corrupted(Time::from_ps(1_000), req);
        assert_eq!(due, Time::from_ps(1_200));
        assert_eq!(
            ring.borrow_mut().take()[0].kind,
            EventKind::EccCorrupted { task: task(2, 3), parent: task(2, 1), attempt: 1 }
        );
        let (_, other) = faults.ecc_corrupted(Time::ZERO, Refetch { attempt: 0, ..req });
        assert_ne!(idx, other, "live handles are distinct");
        assert_eq!(faults.take_refetch(idx), Refetch { attempt: 2, ..req });
        let (due, reused) = faults.ecc_corrupted(Time::ZERO, Refetch { slot: 4, ..req });
        assert_eq!((due, reused), (Time::from_ps(200), idx), "a taken handle is reused");
        assert_eq!(faults.take_refetch(reused), Refetch { attempt: 2, slot: 4, ..req });
        assert_eq!(faults.take_refetch(other), Refetch { attempt: 1, ..req });
        let stats = faults.into_stats(0);
        assert_eq!((stats.ecc_faults, stats.forward_invalidations), (3, 3));
    }

    #[test]
    fn ecc_verdicts_are_pure_bounded_and_chunk_sensitive() {
        let cfg = FaultConfig { ecc_chunk_rate: 0.5, max_retries: 2, ..FaultConfig::default() };
        let a = FaultDomain::new(&cfg, 0);
        let fwd: Vec<bool> = (0..256).map(|c| a.ecc_chunk_faults(task(1, 2), 0, c, 0)).collect();
        let again = FaultDomain::new(&cfg, 0);
        let same: Vec<bool> =
            (0..256).map(|c| again.ecc_chunk_faults(task(1, 2), 0, c, 0)).collect();
        assert_eq!(fwd, same, "ECC verdicts must be pure functions of identity");
        assert!(fwd.iter().any(|&v| v) && !fwd.iter().all(|&v| v));
        // The fallback attempt never faults, so re-fetches terminate.
        assert!((0..256).all(|c| !a.ecc_chunk_faults(task(1, 2), 0, c, 2)));
        let next: Vec<bool> = (0..256).map(|c| a.ecc_chunk_faults(task(1, 2), 0, c, 1)).collect();
        assert_ne!(fwd, next, "attempts must not alias");
    }

    #[test]
    fn outages_follow_the_unit_schedule_until_work_drains() {
        let cfg = faulty();
        let (mut faults, ring) = traced(&cfg);
        let (mttf, repair) = (cfg.unit_mttf_ps, cfg.unit_repair_ps);
        let mut expected = OutageSchedule::new(cfg.seed, DOMAIN_UNIT, 2, mttf, repair);
        let expected = [expected.next().unwrap(), expected.next().unwrap()];
        let up = Time::from_ps(expected[0].up_ps);
        assert_eq!(faults.arm_outage(2), Some(Time::from_ps(expected[0].down_ps)));
        assert_eq!(faults.unit_down(Time::from_ps(expected[0].down_ps), 2), Some(up));
        assert_eq!(faults.unit_up(up, 2, true), Some(Time::from_ps(expected[1].down_ps)));
        assert_eq!(faults.unit_down(Time::ZERO, 2), Some(Time::from_ps(expected[1].up_ps)));
        // Drained: the restore disarms the unit.
        assert_eq!(faults.unit_up(Time::from_ps(expected[1].up_ps), 2, false), None);
        assert_eq!(faults.unit_down(Time::ZERO, 2), None);
        let kinds: Vec<EventKind> = ring.borrow_mut().take().into_iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::UnitQuarantined { inst: 2, until_ps: expected[0].up_ps },
                EventKind::UnitRestored { inst: 2 },
                EventKind::UnitQuarantined { inst: 2, until_ps: expected[1].up_ps },
                EventKind::UnitRestored { inst: 2 },
            ]
        );
        assert_eq!(faults.into_stats(0).unit_quarantines, 2);
    }

    #[test]
    fn channel_windows_are_deterministic_and_distinct_from_units() {
        let cfg = FaultConfig { dram_repair_ps: 300, ..faulty() };
        let windows = |cfg: &FaultConfig| -> Vec<(u64, u64)> {
            FaultDomain::new(cfg, 0).channel_windows().unwrap().take(16).collect()
        };
        let a = windows(&cfg);
        assert_eq!(a, windows(&cfg));
        assert!(a.windows(2).all(|w| w[0].0 < w[0].1 && w[0].1 < w[1].0));
        assert!(a.iter().all(|w| w.1 - w.0 == 300));
        // Same MTTF as unit 0, other hash domain: another schedule.
        let same_mttf = FaultConfig { dram_mttf_ps: cfg.unit_mttf_ps, ..cfg.clone() };
        let mut faults = FaultDomain::new(&same_mttf, 1);
        let unit0 = faults.arm_outage(0).unwrap().as_ps();
        assert_ne!(windows(&same_mttf)[0].0, unit0, "channel and unit domains must differ");
    }

    #[test]
    fn verdicts_are_pure_order_independent_and_seed_sensitive() {
        let cfg = faulty();
        let a = schedule(&cfg);
        assert_eq!(a, schedule(&cfg), "same seed and spec must yield the same schedule");
        assert!(a.1.iter().any(|v| v[0]), "rate 0.3 over 512 identities must fault a task");
        assert!(a.0.iter().all(|w| w.0 < w.1), "every unit arms 8 windows");
        // Reverse query order answers the same.
        let faults = FaultDomain::new(&cfg, 0);
        let keys: Vec<(TaskRef, u32)> =
            (0..4).flat_map(|d| (0..16).map(move |n| (task(d, n), d % 3))).collect();
        let fwd: Vec<bool> = keys.iter().map(|&(t, a)| faults.task_faults(t, a)).collect();
        let mut rev: Vec<bool> =
            keys.iter().rev().map(|&(t, a)| faults.task_faults(t, a)).collect();
        rev.reverse();
        assert_eq!(fwd, rev);
        let reseeded = schedule(&FaultConfig { seed: 0xDEAD, ..cfg });
        assert_ne!(a.0, reseeded.0, "reseeding must move the outage windows");
        assert_ne!(a.1, reseeded.1, "reseeding must move the verdicts");
    }

    #[test]
    fn rates_hold_and_domains_do_not_alias() {
        let cfg = FaultConfig { task_fault_rate: 0.25, dma_fault_rate: 0.25, ..faulty() };
        let faults = FaultDomain::new(&cfg, 0);
        let task_hits: Vec<bool> = (0..4000).map(|n| faults.task_faults(task(0, n), 0)).collect();
        let hits = task_hits.iter().filter(|&&v| v).count();
        assert!((800..1200).contains(&hits), "0.25 rate produced {hits}/4000 faults");
        let dma: Vec<bool> = (0..4000).map(|n| faults.dma_faults(task(0, n), 0, 0)).collect();
        assert_ne!(task_hits, dma, "task and DMA domains must not alias");
    }

    #[test]
    fn dag_done_attributes_only_faulted_misses() {
        let (mut faults, ring) = traced(&faulty());
        faults.dag_done(Time::ZERO, 1, true, 3);
        faults.dag_done(Time::ZERO, 2, false, 0);
        faults.dag_done(Time::from_ps(9), 3, false, 2);
        let events: Vec<TraceEvent> = ring.borrow_mut().take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::FaultAttributedMiss { instance: 3, faults: 2 });
        assert_eq!(faults.into_stats(0).fault_attributed_misses, 1);
    }

    #[test]
    fn every_counter_reconciles_with_its_events() {
        let cfg = FaultConfig { task_fault_rate: 0.5, dma_fault_rate: 0.5, ..faulty() };
        let (mut faults, ring) = traced(&cfg);
        for n in 0..64 {
            let t = task(n % 4, n);
            let now = Time::from_ps(u64::from(n));
            match faults.compute_done(now, t, 0, n % 4) {
                Some(TaskFault::Retry(_)) => faults.retried(now, t, 1, n % 4 + 1),
                Some(TaskFault::Abort) => faults.aborted(now, t, n % 4 + 1),
                None => {}
            }
            faults.delivery_corrupt(now, t, (n % 2 == 0).then_some(0), 64, n % 4);
            if faults.ecc_chunk_faults(t, 0, 0, 0) {
                let req = Refetch { task: t, parent: 0, attempt: 0, dst: 0, slot: 0 };
                let (_, idx) = faults.ecc_corrupted(now, req);
                faults.take_refetch(idx);
            }
            faults.dag_done(now, n, n % 3 == 0, u64::from(n % 2));
        }
        for u in 0..4 {
            faults.arm_outage(u);
            faults.unit_down(Time::ZERO, u);
            faults.unit_up(Time::ZERO, u, u % 2 == 0);
        }
        let counters = EventCounters::from_events(&ring.borrow().snapshot());
        let faults = faults.into_stats(0);
        for (kind, count) in [
            (counters.task_faults, faults.task_faults),
            (counters.task_retries, faults.task_retries),
            (counters.tasks_aborted, faults.tasks_aborted),
            (counters.dma_faults, faults.dma_faults),
            (counters.unit_quarantines, faults.unit_quarantines),
            (counters.fault_attributed_misses, faults.fault_attributed_misses),
            (counters.ecc_faults, faults.ecc_faults),
        ] {
            assert!(kind > 0, "every fault kind fires");
            assert_eq!(kind, count);
        }
        // The transfer engine emits `DmaCancelled`, so only its counter
        // sees no event here.
        let stats = RunStats { faults, ..RunStats::default() };
        let mismatch = Mismatch {
            field: "dma_cancels",
            from_events: 0,
            from_stats: faults.forward_invalidations,
        };
        assert_eq!(reconcile(&counters, &stats), [mismatch]);
    }
}
