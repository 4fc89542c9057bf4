//! Oracle scheduling bound: ahead-of-time search over the deterministic
//! simulator.
//!
//! The paper evaluates RELIEF only against online heuristics, so none of
//! the reported numbers say how far any policy is from optimal. Following
//! the Dijkstra-Through-Time idea (Roche, arXiv:2112.10486), this crate
//! searches *ahead of time* for a concrete per-node placement/ordering
//! schedule over the same deterministic timing model the policies run
//! under, and reports the best makespan it can prove reachable.
//!
//! # How the search stays honest
//!
//! Classic oracle searches re-implement a cost model and then hope it
//! matches the simulator. Here the cost model *is* the simulator: a
//! search state is a [`Schedule`] prefix (the global launch sequence so
//! far), and evaluating a state means replaying that prefix through the
//! full `SocSim` via [`ScheduleReplay`] — DMA chunking, forwarding
//! windows, write-back rules, manager overhead and all. The replay is
//! strict: once the prefix is exhausted the simulator drains whatever is
//! in flight and stops launching, so the evaluation yields
//!
//! * the prefix makespan (last completion among launched tasks), and
//! * the *frontier*: tasks that became ready but were never launched.
//!
//! Every frontier task × every instance of its accelerator type is a
//! legal continuation (the replay waits for readiness and idleness, and a
//! task's enablers always precede it in the growing prefix, so extended
//! prefixes stay realizable). Search states are therefore exactly the
//! realizable launch sequences, and the *predicted* makespan of a
//! complete schedule is, by construction, bit-identical to what replaying
//! that schedule through the simulator produces — the conformance
//! property the test suite pins.
//!
//! # Pruning, heuristic, and the beam-width knob
//!
//! Two prefixes with equal makespan generally leave the SoC in different
//! states (different scratchpad liveness, different in-flight DMA), so
//! merging them on a summary key would be unsound; only *identical*
//! prefixes are interchangeable, and those never arise twice under
//! beam expansion. Pruning therefore comes from ranking: children are
//! ordered by `f = max(prefix makespan, max over frontier tasks of
//! ready-time + remaining critical path)`, where the remaining critical
//! path is the longest compute chain from the task to a DAG exit scaled
//! by `(1 − compute_jitter)` — a lower bound on any completion of that
//! task, i.e. an admissible critical-path heuristic. A beam keeps the
//! best `w` children per level, so large DAGs degrade to near-optimal
//! instead of exploding.
//!
//! A plain beam is *not* monotone in `w` (a wider beam can crowd out the
//! lucky child a narrow beam was forced to take), so [`solve`] runs a
//! width ladder — passes at widths `1..=w` — and returns the best
//! terminal over all passes. Widening the ladder only adds passes, which
//! makes the reported bound monotone non-increasing in `beam_width`.
//!
//! # Incremental evaluation
//!
//! Like Dijkstra-Through-Time, the search expands a state from its
//! parent's state rather than from scratch. Each beam node keeps its
//! replay paused ([`SocSim::run_until`]) before its *divergence bound*:
//! the minimum over its frontier tasks of `max(ready time, last launch of
//! the task's type)`. Replay is strict per type, so no one-launch
//! extension can dispatch its new launch earlier, and until then the
//! extension's replay is the parent's event for event. A child is
//! evaluated by forking the paused run ([`SocSim::fork`]) under a
//! [`ScheduleReplay`] of the launches not dispatched yet plus the new
//! one, and running the fork to the end. Only the `w` survivors of a
//! level get a paused run of their own. The bound never decreases from
//! parent to child.
//!
//! A launch removes at most one task from a frontier, and an incomplete
//! prefix always has a nonempty one, so a pass needs at least this
//! level's child count plus `max(1, f_min − k)` children `k` levels on,
//! where `f_min` is the beam's smallest frontier. A pass whose lower
//! bound exceeds the remaining budget is charged the whole budget and
//! skipped, exactly as it would have ended. Neither shortcut changes a
//! result: every [`OracleResult`] field equals the from-scratch search's.
//!
//! # The bound is safe even when the search is weak
//!
//! Before searching, [`solve`] records every online policy's own run
//! (via [`ScheduleRecorder`]) and keeps those schedules as incumbents,
//! each paired with the configuration it was recorded under. The final
//! oracle is the minimum over incumbents and search terminals, so
//! `oracle ≤ every online policy` holds *by construction*, for any beam
//! width, on every workload the search accepts.
//!
//! Accepted workloads are the deterministic, finite, fault-free ones:
//! no repeating apps, no fault injection, no open-loop streaming, no
//! time-limit truncation. Everything else is rejected up front.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use relief_accel::{AppSpec, SimResult, SocConfig, SocSim};
use relief_core::{PolicyKind, Schedule, ScheduleRecorder, ScheduleReplay, ScheduledLaunch, TaskKey};
use relief_dag::{Dag, DagTiming, NodeId};
use relief_sim::{Dur, Time};
use relief_trace::{EventKind, Kind, KindSet, TraceEvent, TraceSink, Tracer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Search knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleOptions {
    /// Width ladder ceiling: beam passes run at widths `1..=beam_width`.
    pub beam_width: usize,
    /// Hard cap on prefix evaluations (each one a strict replay of the
    /// prefix to the end, resumed from a fork of its parent's paused
    /// replay). When exhausted the search stops and the incumbents carry
    /// the bound; a ladder pass that provably needs more than what is
    /// left is charged the rest of the cap without running.
    pub max_expansions: u64,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions { beam_width: 3, max_expansions: 50_000 }
    }
}

/// Why a workload/configuration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleError(String);

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle: {}", self.0)
    }
}

impl std::error::Error for OracleError {}

/// One online policy's recorded run.
#[derive(Debug, Clone)]
pub struct OnlineRun {
    /// The policy.
    pub policy: PolicyKind,
    /// Its makespan in picoseconds.
    pub makespan_ps: u64,
    /// Its recorded launch sequence.
    pub schedule: Schedule,
}

/// The oracle bound for one scenario.
#[derive(Debug, Clone)]
pub struct OracleResult {
    /// Oracle makespan in picoseconds: `min` over every online incumbent
    /// and every search terminal.
    pub makespan_ps: u64,
    /// The schedule achieving [`makespan_ps`](Self::makespan_ps).
    pub schedule: Schedule,
    /// The policy whose configuration the winning schedule replays under
    /// (an incumbent's own policy, or the search's evaluation policy).
    /// [`OracleResult::replay`] must — and does — rebuild this exact
    /// configuration to reproduce the makespan bit-exactly.
    pub impersonates: PolicyKind,
    /// Whether the winner came from the search (false: an online
    /// incumbent was never beaten).
    pub from_search: bool,
    /// Every online policy's makespan, in [`ONLINE_POLICIES`] order.
    pub online: Vec<OnlineRun>,
    /// Prefix evaluations the search spent.
    pub expansions: u64,
    /// The width ladder ceiling the search ran with.
    pub beam_width: usize,
}

impl OracleResult {
    /// The best online policy's makespan (ps).
    pub fn best_online_ps(&self) -> u64 {
        self.online.iter().map(|r| r.makespan_ps).min().unwrap_or(0)
    }

    /// One online policy's makespan (ps), if it was run.
    pub fn online_ps(&self, policy: PolicyKind) -> Option<u64> {
        self.online.iter().find(|r| r.policy == policy).map(|r| r.makespan_ps)
    }

    /// `policy`'s makespan as a percentage of the oracle bound (≥ 100 up
    /// to rounding; the "% of oracle" table column).
    pub fn percent_of_oracle(&self, policy: PolicyKind) -> Option<f64> {
        let m = self.online_ps(policy)?;
        if self.makespan_ps == 0 {
            return None;
        }
        Some(m as f64 * 100.0 / self.makespan_ps as f64)
    }

    /// Replays the winning schedule through the full simulator under the
    /// configuration it was found with. The returned run's
    /// `stats.exec_time` equals [`makespan_ps`](Self::makespan_ps)
    /// bit-exactly — the conformance contract.
    pub fn replay(
        &self,
        mk_cfg: impl Fn(PolicyKind) -> SocConfig,
        apps: &[AppSpec],
    ) -> SimResult {
        let cfg = mk_cfg(self.impersonates);
        let replay = ScheduleReplay::new(&self.schedule, &cfg.acc_instances)
            .impersonating(self.impersonates);
        SocSim::new(cfg, apps.to_vec()).with_policy_object(Box::new(replay)).run()
    }
}

/// The online policies the oracle is required to dominate: the paper's
/// fairness set plus the in-tree extensions.
pub const ONLINE_POLICIES: [PolicyKind; 11] = [
    PolicyKind::Fcfs,
    PolicyKind::GedfD,
    PolicyKind::GedfN,
    PolicyKind::Lax,
    PolicyKind::ReliefLax,
    PolicyKind::Ll,
    PolicyKind::HetSched,
    PolicyKind::Relief,
    PolicyKind::ReliefHet,
    PolicyKind::ReliefUnthrottled,
    PolicyKind::Adaptive,
];

/// The policy whose configuration search prefixes are evaluated under.
/// Any fixed choice is sound (each candidate is compared under its own
/// recorded configuration); FCFS models the cheapest manager, which is
/// the natural overhead model for a schedule that needs no online
/// decisions.
pub const SEARCH_POLICY: PolicyKind = PolicyKind::Fcfs;

/// Computes the oracle bound for one scenario.
///
/// `mk_cfg` materializes the platform for a given policy — pass the same
/// constructor the online runs use (e.g. `SocConfig::mobile`, or
/// `RunSpec::config` via a closure) so per-policy defaults like the
/// modeled insert cost match the published numbers. `apps` is the
/// workload; it must be finite and deterministic.
///
/// # Errors
///
/// Rejects repeating (continuous) apps, fault injection, open-loop
/// streaming, time-limit truncation, and empty workloads.
pub fn solve(
    mk_cfg: impl Fn(PolicyKind) -> SocConfig,
    apps: &[AppSpec],
    opts: &OracleOptions,
) -> Result<OracleResult, OracleError> {
    validate(&mk_cfg(SEARCH_POLICY), apps)?;
    let search = Searcher::new(&mk_cfg, apps);
    Ok(run_ladder(&mk_cfg, apps, opts, |width, expansions| {
        search.beam_pass(width, opts.max_expansions, expansions)
    }))
}

/// Records every online incumbent, then runs `pass` at widths
/// `1..=beam_width` and keeps the best terminal that strictly beats the
/// incumbents. `pass(width, expansions)` returns its best terminal and
/// charges its prefix evaluations to `expansions`.
fn run_ladder(
    mk_cfg: impl Fn(PolicyKind) -> SocConfig,
    apps: &[AppSpec],
    opts: &OracleOptions,
    mut pass: impl FnMut(usize, &mut u64) -> Option<(u64, Schedule)>,
) -> OracleResult {
    // Incumbents: record every online policy's own run.
    let mut online = Vec::with_capacity(ONLINE_POLICIES.len());
    for policy in ONLINE_POLICIES {
        let recorder = ScheduleRecorder::shared();
        let tracer = Tracer::to_sink(recorder.clone());
        let result =
            SocSim::new(mk_cfg(policy), apps.to_vec()).with_tracer(&tracer).run();
        online.push(OnlineRun {
            policy,
            makespan_ps: result.stats.exec_time.as_ps(),
            schedule: recorder.borrow().schedule(),
        });
    }

    // Start from the best incumbent; the search must strictly beat it.
    #[allow(clippy::expect_used)] // ONLINE_POLICIES is non-empty.
    let best = online
        .iter()
        .min_by_key(|r| r.makespan_ps)
        .expect("at least one online policy");
    let mut makespan_ps = best.makespan_ps;
    let mut schedule = best.schedule.clone();
    let mut impersonates = best.policy;
    let mut from_search = false;

    let mut expansions = 0u64;
    for width in 1..=opts.beam_width.max(1) {
        if let Some((ps, sched)) = pass(width, &mut expansions) {
            if ps < makespan_ps {
                makespan_ps = ps;
                schedule = sched;
                impersonates = SEARCH_POLICY;
                from_search = true;
            }
        }
    }

    OracleResult {
        makespan_ps,
        schedule,
        impersonates,
        from_search,
        online,
        expansions,
        beam_width: opts.beam_width.max(1),
    }
}

fn validate(cfg: &SocConfig, apps: &[AppSpec]) -> Result<(), OracleError> {
    if apps.is_empty() {
        return Err(OracleError("empty workload".into()));
    }
    if apps.iter().any(|a| a.repeat) {
        return Err(OracleError(
            "continuous (repeating) apps have no finite schedule".into(),
        ));
    }
    if cfg.fault.enabled() {
        return Err(OracleError("fault injection breaks replay determinism".into()));
    }
    if cfg.stream.enabled() {
        return Err(OracleError("open-loop streaming has no finite schedule".into()));
    }
    if cfg.time_limit.is_some() {
        return Err(OracleError("time-limited runs truncate the schedule".into()));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Search internals
// ---------------------------------------------------------------------

/// What a strict prefix replay revealed.
#[derive(Clone)]
struct Eval {
    /// Last completion among launched tasks (ps).
    makespan_ps: u64,
    /// Ranking score: `max(makespan, readiest lower bound over the
    /// frontier)`.
    f_ps: u64,
    /// Ready-but-never-launched tasks, in readiness (event) order.
    frontier: Vec<(TaskKey, u32)>,
    /// Divergence bound: the minimum over frontier tasks `y` of
    /// `max(ready(y), last launch of y's type)`. No one-launch extension
    /// of the prefix can dispatch its new launch earlier, so every
    /// extension's replay equals this prefix's replay before this instant.
    /// `u64::MAX` for a complete schedule.
    bound_ps: u64,
}

/// A prefix's replay paused before its divergence bound, and the probe
/// that watched it up to the pause.
struct Base {
    sim: SocSim,
    probe: Rc<RefCell<ProbeSink>>,
}

#[derive(Clone)]
struct BeamNode {
    schedule: Schedule,
    eval: Eval,
    /// The prefix's replay paused before `eval.bound_ps`, which every
    /// child evaluation forks; `None` for a complete schedule.
    base: Option<Rc<Base>>,
}

struct Searcher {
    /// Per app symbol: remaining-critical-path table (ps, jitter-scaled)
    /// indexed by node.
    cp: BTreeMap<String, Vec<u64>>,
    /// Instances per accelerator type (the replay's platform shape).
    acc_instances: Vec<usize>,
    /// Global instance indices per accelerator type.
    type_insts: Vec<Vec<u32>>,
    /// Total launches in a complete schedule.
    total_tasks: usize,
    /// The empty prefix, shared by every pass of the ladder.
    root: BeamNode,
}

impl Searcher {
    fn new(mk_cfg: impl Fn(PolicyKind) -> SocConfig, apps: &[AppSpec]) -> Self {
        let mut cfg = mk_cfg(SEARCH_POLICY);
        // Prefix replays stop issuing work mid-DAG on purpose; the
        // drained-with-work-left watchdog would misread that as a hang.
        cfg.watchdog_window = 0;
        // Admissible remaining work: the longest pure-compute chain to an
        // exit can only be shortened by negative jitter, never by memory
        // time, so scaling by (1 − jitter) keeps it a lower bound.
        let scale = (1.0 - cfg.compute_jitter).max(0.0);
        let mut cp = BTreeMap::new();
        for app in apps {
            cp.entry(app.symbol.clone())
                .or_insert_with(|| critical_path_table(&app.dag, scale));
        }
        let mut type_insts = Vec::with_capacity(cfg.acc_instances.len());
        let mut next = 0u32;
        for &n in &cfg.acc_instances {
            type_insts.push((next..next + n as u32).collect());
            next += n as u32;
        }
        let total_tasks = apps.iter().map(|a| a.dag.len()).sum();
        let acc_instances = cfg.acc_instances.clone();

        // The empty prefix: evaluate a fork of the unstarted run, then
        // pause the run itself before the root's divergence bound.
        let probe = Rc::new(RefCell::new(ProbeSink::new(next as usize)));
        let replay =
            ScheduleReplay::new(&Schedule::new(), &acc_instances).impersonating(SEARCH_POLICY);
        let sim = SocSim::new(cfg, apps.to_vec())
            .with_policy_object(Box::new(replay))
            .with_tracer(&Tracer::to_sink(probe.clone()));
        let mut searcher = Searcher {
            cp,
            acc_instances,
            type_insts,
            total_tasks,
            root: BeamNode { schedule: Schedule::new(), eval: Eval::complete(0), base: None },
        };
        let mut start = Base { sim, probe };
        let eval = searcher.evaluate(&start, &Schedule::new());
        let base = (!eval.frontier.is_empty()).then(|| {
            pause(&mut start.sim, eval.bound_ps);
            Rc::new(start)
        });
        searcher.root = BeamNode { schedule: Schedule::new(), eval, base };
        searcher
    }

    /// One beam pass at `width`. Returns the best terminal `(makespan,
    /// schedule)` it reached, if any.
    fn beam_pass(
        &self,
        width: usize,
        max_expansions: u64,
        expansions: &mut u64,
    ) -> Option<(u64, Schedule)> {
        let mut beam = vec![self.root.clone()];
        for level in 0..self.total_tasks {
            if self.doomed(&beam, level, max_expansions.saturating_sub(*expansions)) {
                // The full pass would stop at the budget with nothing to
                // show; charge what it would have spent.
                *expansions = max_expansions;
                return None;
            }
            let mut children: Vec<(Rc<Base>, BeamNode)> = Vec::new();
            for node in &beam {
                let Some(base) = &node.base else { continue };
                for &(task, acc) in &node.eval.frontier {
                    for &inst in &self.type_insts[acc as usize] {
                        if *expansions >= max_expansions {
                            return None;
                        }
                        *expansions += 1;
                        let schedule = node.schedule.extended(ScheduledLaunch { task, inst });
                        let eval = self.evaluate(base, &schedule);
                        debug_assert!(
                            eval.frontier.len() + 1 >= node.eval.frontier.len(),
                            "a launch removes at most one task from a frontier"
                        );
                        debug_assert!(
                            eval.bound_ps >= node.eval.bound_ps,
                            "the divergence bound never decreases from parent to child"
                        );
                        let child = BeamNode { schedule, eval, base: None };
                        children.push((Rc::clone(base), child));
                    }
                }
            }
            if children.is_empty() {
                return None;
            }
            // Stable sort on f: generation order (beam-major, frontier
            // order, instance order) is deterministic, so ties resolve
            // the same way on every run.
            children.sort_by_key(|(_, c)| c.eval.f_ps);
            children.truncate(width);
            // Only survivors get a paused base, forked from their parent's.
            beam = children
                .into_iter()
                .map(|(parent, mut child)| {
                    if !child.eval.frontier.is_empty() {
                        let (mut sim, probe) = self.resume(&parent, &child.schedule);
                        pause(&mut sim, child.eval.bound_ps);
                        child.base = Some(Rc::new(Base { sim, probe }));
                    }
                    child
                })
                .collect();
        }
        beam.into_iter()
            .filter(|n| n.schedule.len() == self.total_tasks)
            .map(|n| (n.eval.makespan_ps, n.schedule))
            .min_by(|a, b| a.0.cmp(&b.0))
    }

    /// Whether the pass at `level` provably needs more than `budget` more
    /// evaluations: this level's exact child count, plus at least
    /// `max(1, f_min − k)` children at each later level `k` steps on,
    /// where `f_min` is the smallest frontier in the beam. A launch
    /// removes at most one task from a frontier, and an incomplete prefix
    /// always has a nonempty one.
    fn doomed(&self, beam: &[BeamNode], level: usize, budget: u64) -> bool {
        let here: u64 = beam
            .iter()
            .flat_map(|n| &n.eval.frontier)
            .map(|&(_, acc)| self.type_insts[acc as usize].len() as u64)
            .sum();
        let f_min = beam.iter().map(|n| n.eval.frontier.len()).min().unwrap_or(0) as u64;
        let later: u64 =
            (1..(self.total_tasks - level) as u64).map(|k| f_min.saturating_sub(k).max(1)).sum();
        here + later > budget
    }

    /// Forks `base` into the replay of `schedule`, whose launches the base
    /// has not dispatched yet, with a copy of the base's probe attached.
    fn resume(&self, base: &Base, schedule: &Schedule) -> (SocSim, Rc<RefCell<ProbeSink>>) {
        let probe = Rc::new(RefCell::new(base.probe.borrow().clone()));
        // Replay is strict per type, so the base dispatched the first
        // `launched` launches of each instance.
        let mut skip: Vec<u32> = probe.borrow().launched.iter().map(|&(n, _)| n).collect();
        let launches = schedule
            .launches
            .iter()
            .filter(|l| match skip.get_mut(l.inst as usize) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    false
                }
                _ => true,
            })
            .copied()
            .collect();
        let rest = Schedule { launches, eager_writebacks: None };
        let replay = ScheduleReplay::new(&rest, &self.acc_instances).impersonating(SEARCH_POLICY);
        #[allow(clippy::expect_used)] // `validate` rejected open-loop streams.
        let sim = base
            .sim
            .fork(Box::new(replay), &Tracer::to_sink(probe.clone()))
            .expect("closed-loop runs fork");
        (sim, probe)
    }

    /// Strict replay of a schedule prefix: `base`'s paused run resumed
    /// under the prefix's remaining launches.
    fn evaluate(&self, base: &Base, schedule: &Schedule) -> Eval {
        let (sim, probe) = self.resume(base, schedule);
        let result = sim.run();
        let makespan_ps = result.stats.exec_time.as_ps();
        let probe = probe.borrow();
        let mut eval = Eval::complete(makespan_ps);
        for &(task, acc, ready_ps) in &probe.pending {
            let remaining = probe
                .instance_app
                .get(&task.instance)
                .and_then(|sym| self.cp.get(&**sym))
                .and_then(|t| t.get(task.node as usize))
                .copied()
                .unwrap_or(0);
            eval.f_ps = eval.f_ps.max(ready_ps.saturating_add(remaining));
            let last_launch = self.type_insts[acc as usize]
                .iter()
                .map(|&i| probe.launched[i as usize].1)
                .max()
                .unwrap_or(0);
            eval.bound_ps = eval.bound_ps.min(ready_ps.max(last_launch));
            eval.frontier.push((task, acc));
        }
        eval
    }
}

impl Eval {
    /// A prefix with makespan `makespan_ps` and, so far, no frontier.
    fn complete(makespan_ps: u64) -> Eval {
        Eval { makespan_ps, f_ps: makespan_ps, frontier: Vec::new(), bound_ps: u64::MAX }
    }
}

/// Pauses `sim` before `bound_ps`.
fn pause(sim: &mut SocSim, bound_ps: u64) {
    #[allow(clippy::expect_used)] // The search's configuration disables the watchdog.
    sim.run_until(Time::from_ps(bound_ps)).expect("no watchdog in search replays");
}

/// `cp[n]` = longest compute chain from `n` to an exit (inclusive), in
/// picoseconds scaled by `scale`.
fn critical_path_table(dag: &Dag, scale: f64) -> Vec<u64> {
    let scaled = |n: NodeId| Dur::from_ps((dag.node(n).compute.as_ps() as f64 * scale) as u64);
    let timing = DagTiming::compute(dag, scaled);
    dag.node_ids().map(|n| timing.downstream(n).as_ps()).collect()
}

/// Follows one replay: the ready tasks it has not dispatched, each
/// instance's dispatches, and instance→app identity. Cloned into every
/// fork of a paused replay, so a fork's probe covers the whole run.
#[derive(Clone)]
struct ProbeSink {
    /// Ready, not yet dispatched tasks with their accelerator type and
    /// ready time, in readiness (event) order.
    pending: Vec<(TaskKey, u32, u64)>,
    /// Per global accelerator instance: launches dispatched and the time
    /// of the latest one.
    launched: Vec<(u32, u64)>,
    instance_app: BTreeMap<u32, Arc<str>>,
}

impl ProbeSink {
    fn new(instances: usize) -> ProbeSink {
        ProbeSink {
            pending: Vec::new(),
            launched: vec![(0, 0); instances],
            instance_app: BTreeMap::new(),
        }
    }
}

impl TraceSink for ProbeSink {
    fn emit(&mut self, ev: TraceEvent) {
        match ev.kind {
            EventKind::TaskReady { task, acc } => {
                self.pending.push((TaskKey::new(task.instance, task.node), acc, ev.at_ps));
            }
            EventKind::TaskDispatched { task, inst } => {
                let key = TaskKey::new(task.instance, task.node);
                if let Some(i) = self.pending.iter().position(|p| p.0 == key) {
                    self.pending.remove(i);
                }
                if let Some(l) = self.launched.get_mut(inst as usize) {
                    *l = (l.0 + 1, ev.at_ps);
                }
            }
            EventKind::DagArrived { instance, app, .. } => {
                self.instance_app.insert(instance, app);
            }
            _ => {}
        }
    }

    fn kinds(&self) -> KindSet {
        KindSet::of(&[Kind::TaskReady, Kind::TaskDispatched, Kind::DagArrived])
    }
}

/// The search as it was before incremental evaluation: every prefix
/// replayed through a fresh simulator from t = 0. Kept only to pin that
/// the incremental search returns identical results.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::HashSet;

    /// [`solve`](super::solve) with the from-scratch search.
    pub(crate) fn solve(
        mk_cfg: impl Fn(PolicyKind) -> SocConfig,
        apps: &[AppSpec],
        opts: &OracleOptions,
    ) -> Result<OracleResult, OracleError> {
        validate(&mk_cfg(SEARCH_POLICY), apps)?;
        let search = Searcher::new(&mk_cfg, apps);
        Ok(run_ladder(&mk_cfg, apps, opts, |width, expansions| {
            search.beam_pass(width, opts.max_expansions, expansions)
        }))
    }

    /// What a strict prefix replay revealed.
    struct Eval {
        /// Last completion among launched tasks (ps).
        makespan_ps: u64,
        /// Ranking score: `max(makespan, readiest lower bound over the
        /// frontier)`.
        f_ps: u64,
        /// Ready-but-never-launched tasks, in readiness (event) order.
        frontier: Vec<(TaskKey, u32)>,
    }

    struct BeamNode {
        schedule: Schedule,
        eval: Eval,
    }

    struct Searcher<'a, F: Fn(PolicyKind) -> SocConfig> {
        mk_cfg: &'a F,
        apps: &'a [AppSpec],
        /// Per app symbol: remaining-critical-path table (ps, jitter-scaled)
        /// indexed by node.
        cp: BTreeMap<String, Vec<u64>>,
        /// Global instance indices per accelerator type.
        type_insts: Vec<Vec<u32>>,
        /// Total launches in a complete schedule.
        total_tasks: usize,
    }

    impl<'a, F: Fn(PolicyKind) -> SocConfig> Searcher<'a, F> {
        fn new(mk_cfg: &'a F, apps: &'a [AppSpec]) -> Self {
            let cfg = mk_cfg(SEARCH_POLICY);
            // Admissible remaining work: the longest pure-compute chain to an
            // exit can only be shortened by negative jitter, never by memory
            // time, so scaling by (1 − jitter) keeps it a lower bound.
            let scale = (1.0 - cfg.compute_jitter).max(0.0);
            let mut cp = BTreeMap::new();
            for app in apps {
                cp.entry(app.symbol.clone())
                    .or_insert_with(|| critical_path_table(&app.dag, scale));
            }
            let mut type_insts = Vec::with_capacity(cfg.acc_instances.len());
            let mut next = 0u32;
            for &n in &cfg.acc_instances {
                type_insts.push((next..next + n as u32).collect());
                next += n as u32;
            }
            let total_tasks = apps.iter().map(|a| a.dag.len()).sum();
            Searcher { mk_cfg, apps, cp, type_insts, total_tasks }
        }

        /// One beam pass at `width`. Returns the best terminal `(makespan,
        /// schedule)` it reached, if any.
        fn beam_pass(
            &self,
            width: usize,
            max_expansions: u64,
            expansions: &mut u64,
        ) -> Option<(u64, Schedule)> {
            let root = Schedule::new();
            let mut beam = vec![BeamNode { eval: self.evaluate(&root), schedule: root }];
            for _level in 0..self.total_tasks {
                let mut children: Vec<BeamNode> = Vec::new();
                for node in &beam {
                    for &(task, acc) in &node.eval.frontier {
                        for &inst in &self.type_insts[acc as usize] {
                            if *expansions >= max_expansions {
                                return None;
                            }
                            *expansions += 1;
                            let schedule = node.schedule.extended(ScheduledLaunch { task, inst });
                            let eval = self.evaluate(&schedule);
                            children.push(BeamNode { schedule, eval });
                        }
                    }
                }
                if children.is_empty() {
                    return None;
                }
                // Stable sort on f: generation order (beam-major, frontier
                // order, instance order) is deterministic, so ties resolve
                // the same way on every run.
                children.sort_by_key(|c| c.eval.f_ps);
                children.truncate(width);
                beam = children;
            }
            beam.into_iter()
                .filter(|n| n.schedule.len() == self.total_tasks)
                .map(|n| (n.eval.makespan_ps, n.schedule))
                .min_by(|a, b| a.0.cmp(&b.0))
        }

        /// Strict replay of a schedule prefix through the full simulator.
        fn evaluate(&self, schedule: &Schedule) -> Eval {
            let mut cfg = (self.mk_cfg)(SEARCH_POLICY);
            // Prefix replays stop issuing work mid-DAG on purpose; the
            // drained-with-work-left watchdog would misread that as a hang.
            cfg.watchdog_window = 0;
            let probe = ProbeSink::shared();
            let tracer = Tracer::to_sink(probe.clone());
            let replay = ScheduleReplay::new(schedule, &cfg.acc_instances).impersonating(SEARCH_POLICY);
            let result = SocSim::new(cfg, self.apps.to_vec())
                .with_policy_object(Box::new(replay))
                .with_tracer(&tracer)
                .run();
            let makespan_ps = result.stats.exec_time.as_ps();
            let probe = probe.borrow();
            let mut f_ps = makespan_ps;
            let mut frontier = Vec::new();
            for &(task, acc, ready_ps) in &probe.ready {
                if probe.dispatched.contains(&task) {
                    continue;
                }
                let remaining = probe
                    .instance_app
                    .get(&task.instance)
                    .and_then(|sym| self.cp.get(&**sym))
                    .and_then(|t| t.get(task.node as usize))
                    .copied()
                    .unwrap_or(0);
                f_ps = f_ps.max(ready_ps.saturating_add(remaining));
                frontier.push((task, acc));
            }
            Eval { makespan_ps, f_ps, frontier }
        }
    }

    /// Collects readiness, dispatch, and instance→app identity from one run.
    #[derive(Default)]
    struct ProbeSink {
        ready: Vec<(TaskKey, u32, u64)>,
        dispatched: HashSet<TaskKey>,
        instance_app: BTreeMap<u32, Arc<str>>,
    }

    impl ProbeSink {
        fn shared() -> Rc<RefCell<ProbeSink>> {
            Rc::new(RefCell::new(ProbeSink::default()))
        }
    }

    impl TraceSink for ProbeSink {
        fn emit(&mut self, ev: TraceEvent) {
            match ev.kind {
                EventKind::TaskReady { task, acc } => {
                    self.ready.push((TaskKey::new(task.instance, task.node), acc, ev.at_ps));
                }
                EventKind::TaskDispatched { task, .. } => {
                    self.dispatched.insert(TaskKey::new(task.instance, task.node));
                }
                EventKind::DagArrived { instance, app, .. } => {
                    self.instance_app.insert(instance, app);
                }
                _ => {}
            }
        }

        fn kinds(&self) -> KindSet {
            KindSet::of(&[Kind::TaskReady, Kind::TaskDispatched, Kind::DagArrived])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relief_dag::{AccTypeId, DagBuilder, NodeSpec};
    use relief_sim::Dur;

    fn diamond() -> Arc<Dag> {
        let mut b = DagBuilder::new("diamond", Dur::from_ms(2));
        let src = b.add_node(
            NodeSpec::new(AccTypeId(0), Dur::from_us(20)).with_output_bytes(32 * 1024),
        );
        let l = b.add_node(
            NodeSpec::new(AccTypeId(1), Dur::from_us(40)).with_output_bytes(16 * 1024),
        );
        let r = b.add_node(
            NodeSpec::new(AccTypeId(1), Dur::from_us(60)).with_output_bytes(16 * 1024),
        );
        let sink = b.add_node(NodeSpec::new(AccTypeId(0), Dur::from_us(10)));
        b.add_edge(src, l).unwrap();
        b.add_edge(src, r).unwrap();
        b.add_edge(l, sink).unwrap();
        b.add_edge(r, sink).unwrap();
        Arc::new(b.build().unwrap())
    }

    fn mk_cfg(policy: PolicyKind) -> SocConfig {
        SocConfig::generic(vec![1, 2], policy)
    }

    fn apps() -> Vec<AppSpec> {
        vec![AppSpec::once("D", diamond())]
    }

    #[test]
    fn oracle_dominates_every_online_policy() {
        let res = solve(mk_cfg, &apps(), &OracleOptions::default()).unwrap();
        for run in &res.online {
            assert!(
                res.makespan_ps <= run.makespan_ps,
                "oracle {} > {} under {}",
                res.makespan_ps,
                run.makespan_ps,
                run.policy
            );
        }
        assert_eq!(res.schedule.len(), 4);
    }

    #[test]
    fn prediction_equals_replay_bit_exactly() {
        let res = solve(mk_cfg, &apps(), &OracleOptions::default()).unwrap();
        let replayed = res.replay(mk_cfg, &apps());
        assert_eq!(replayed.stats.exec_time.as_ps(), res.makespan_ps);
    }

    #[test]
    fn wider_ladder_never_hurts() {
        let at = |w| {
            solve(mk_cfg, &apps(), &OracleOptions { beam_width: w, ..Default::default() })
                .unwrap()
                .makespan_ps
        };
        let (w1, w2, w3) = (at(1), at(2), at(3));
        assert!(w2 <= w1, "width 2 ({w2}) worse than width 1 ({w1})");
        assert!(w3 <= w2, "width 3 ({w3}) worse than width 2 ({w2})");
    }

    #[test]
    fn rejects_unfinishable_configs() {
        let continuous = vec![AppSpec::continuous("D", diamond())];
        assert!(solve(mk_cfg, &continuous, &OracleOptions::default()).is_err());
        assert!(solve(mk_cfg, &[], &OracleOptions::default()).is_err());
        let limited =
            |p: PolicyKind| mk_cfg(p).with_time_limit(relief_sim::Time::from_ms(1));
        assert!(solve(limited, &apps(), &OracleOptions::default()).is_err());
    }

    #[test]
    fn exhausted_expansion_budget_still_bounds_via_incumbents() {
        let res = solve(
            mk_cfg,
            &apps(),
            &OracleOptions { beam_width: 3, max_expansions: 1 },
        )
        .unwrap();
        assert!(!res.from_search);
        assert_eq!(res.makespan_ps, res.best_online_ps());
        let replayed = res.replay(mk_cfg, &apps());
        assert_eq!(replayed.stats.exec_time.as_ps(), res.makespan_ps);
    }

    #[test]
    fn percent_of_oracle_is_at_least_hundred() {
        let res = solve(mk_cfg, &apps(), &OracleOptions::default()).unwrap();
        for run in &res.online {
            let pct = res.percent_of_oracle(run.policy).unwrap();
            assert!(pct >= 100.0 - 1e-9, "{} at {pct}%", run.policy);
        }
    }

    /// Asserts that the incremental search and the from-scratch reference
    /// return the same result, field for field; returns it.
    fn assert_matches_reference(
        label: &str,
        mk_cfg: impl Fn(PolicyKind) -> SocConfig,
        apps: &[AppSpec],
        opts: &OracleOptions,
    ) -> OracleResult {
        let fast = solve(&mk_cfg, apps, opts).unwrap();
        let slow = reference::solve(&mk_cfg, apps, opts).unwrap();
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{label}: {opts:?}");
        fast
    }

    #[test]
    fn incremental_search_matches_the_reference_on_table_ii() {
        use relief_workloads::App;
        // The campaign table's budget.
        let opts = OracleOptions { beam_width: 2, max_expansions: 600 };
        let expansions: Vec<u64> = App::ALL
            .iter()
            .map(|&app| {
                let apps = vec![AppSpec::once(app.symbol(), app.dag())];
                assert_matches_reference(app.symbol(), SocConfig::mobile, &apps, &opts).expansions
            })
            .collect();
        assert_eq!(expansions, [40, 44, 600, 74, 600]);
    }

    #[test]
    fn incremental_search_matches_the_reference_on_generated_scenarios() {
        use relief_workloads::synthetic::{random_dag, SyntheticParams};
        let platforms: [&[usize]; 4] = [&[1, 2], &[2, 1, 1], &[1], &[2, 2]];
        let (mut exhausted, mut searched) = (0, 0);
        for seed in 0..24u64 {
            let instances = platforms[seed as usize % platforms.len()].to_vec();
            let params = SyntheticParams {
                nodes: 4 + (seed % 4) as usize,
                acc_types: instances.len() as u32,
                edge_prob: 0.3,
                compute_us: (5, 40),
                output_bytes: (4 * 1024, 64 * 1024),
                deadline: Dur::from_ms(5),
            };
            let mut apps = vec![AppSpec::once("S0", random_dag(&params, seed))];
            if seed % 3 != 0 {
                apps.push(AppSpec::once("S1", random_dag(&params, seed ^ 0x9e37)));
            }
            let mk_cfg = |p: PolicyKind| SocConfig::generic(instances.clone(), p);
            let label = format!("seed {seed}");
            let wide = OracleOptions { beam_width: 3, max_expansions: 100_000 };
            let need = assert_matches_reference(&label, mk_cfg, &apps, &wide).expansions;
            // A budget the ladder exactly fits, one it misses by one
            // evaluation, and one spent early in the first pass.
            for (beam_width, max_expansions) in [(3, need), (3, need - 1), (1, 15)] {
                let opts = OracleOptions { beam_width, max_expansions };
                let res = assert_matches_reference(&label, mk_cfg, &apps, &opts);
                exhausted += usize::from(res.expansions == opts.max_expansions);
                searched += usize::from(res.from_search);
            }
        }
        // Both the exhausted-budget path and search wins are exercised.
        assert!(exhausted > 0 && searched > 0, "exhausted {exhausted}, searched {searched}");
    }

    #[test]
    fn critical_path_table_follows_backward_edges() {
        // Node 2 feeds node 0, which feeds node 1: index order is not
        // topological, so node 2's chain must still include 0 and 1.
        let mut b = DagBuilder::new("backward", Dur::from_ms(1));
        let n: Vec<NodeId> = [10, 20, 30]
            .into_iter()
            .map(|us| b.add_node(NodeSpec::new(AccTypeId(0), Dur::from_us(us))))
            .collect();
        b.add_edge(n[2], n[0]).unwrap();
        b.add_edge(n[0], n[1]).unwrap();
        let cp = critical_path_table(&b.build().unwrap(), 1.0);
        let us: Vec<u64> = cp.iter().map(|ps| ps / 1_000_000).collect();
        assert_eq!(us, [30, 20, 60]);
    }

    #[test]
    fn critical_path_table_is_longest_chain() {
        let cp = critical_path_table(&diamond(), 1.0);
        let us = |n: usize| cp[n] / 1_000_000;
        assert_eq!(us(3), 10);
        assert_eq!(us(1), 50);
        assert_eq!(us(2), 70);
        assert_eq!(us(0), 90);
    }
}
