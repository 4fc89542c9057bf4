//! One function per paper artifact, each returning the rendered text
//! `all_experiments` prints.
//!
//! Every simulated artifact is a `*_with(&Ctx)` function that answers
//! each simulation from a campaign-prewarmed [`Ctx`], falling back to
//! inline execution on cache misses with byte-identical output; pass
//! `&Ctx::empty()` to simulate everything inline. The [`grid`] module is
//! the single source of truth for the canonical
//! [`RunSpec`](grid::RunSpec)s both sides use, so a cache hit and an
//! inline run are always the same simulation.
//! Only [`fig12`] takes no context: it times the host, not the
//! simulator.

use crate::campaign::Ctx;
use crate::{PolicySweep, FAIRNESS_POLICIES, MAIN_POLICIES};
use relief_accel::{AppSpec, BwPredictorKind, SocConfig};
use relief_core::predict::DataMovePredictor;
use relief_core::PolicyKind;
use relief_metrics::report::Table;
use relief_metrics::summary::geometric_mean;
use relief_metrics::EnergyModel;
use relief_workloads::{App, Contention, Mix};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Canonical [`RunSpec`](crate::campaign::RunSpec)s for every simulation
/// the paper artifacts need, plus [`grid::full_grid`] — the deduplicated
/// union the campaign engine prewarms before `all_experiments` renders.
pub mod grid {
    use super::*;
    use crate::campaign::{PlatformSpec, WorkloadSpec};
    pub use crate::campaign::RunSpec;
    use std::collections::BTreeSet;

    /// The Table VI mobile platform.
    pub fn mobile() -> PlatformSpec {
        PlatformSpec::mobile()
    }

    /// Mobile with forwarding and colocation hardware removed
    /// (Table II's "no fwd" baseline).
    pub fn mobile_nofwd() -> PlatformSpec {
        PlatformSpec::custom("mobile-nofwd", |p| SocConfig::mobile(p).without_forwarding())
    }

    /// Mobile with a crossbar interconnect instead of the bus (Fig. 13).
    pub fn mobile_xbar() -> PlatformSpec {
        PlatformSpec::custom("mobile-xbar", |p| {
            let mut cfg = SocConfig::mobile(p);
            cfg.mem = cfg.mem.with_crossbar();
            cfg
        })
    }

    /// The Fig. 2 pedagogical platform: one A and one B accelerator,
    /// schedule trace recorded.
    pub fn fig2_platform() -> PlatformSpec {
        PlatformSpec::custom("fig2[1A+1B]", |p| {
            let mut cfg = SocConfig::generic(vec![1, 1], p);
            cfg.record_trace = true;
            cfg
        })
    }

    /// Mobile with explicit bandwidth / data-movement predictors
    /// (Table VIII, Fig. 11).
    pub fn predictor_platform(bw: BwPredictorKind, dm: DataMovePredictor) -> PlatformSpec {
        let bw_label = match bw {
            BwPredictorKind::Max => "max".to_string(),
            BwPredictorKind::Last => "last".to_string(),
            BwPredictorKind::Average(n) => format!("avg{n}"),
            BwPredictorKind::Ewma(a) => format!("ewma{a}"),
        };
        let dm_label = match dm {
            DataMovePredictor::Max => "max",
            DataMovePredictor::Predicted => "pred",
        };
        PlatformSpec::custom(format!("pred[bw={bw_label},dm={dm_label}]"), move |p| {
            let mut cfg = SocConfig::mobile(p);
            cfg.bw_predictor = bw;
            cfg.dm_predictor = dm;
            cfg
        })
    }

    /// One paper mix under one policy on the mobile platform — the cell
    /// every contention sweep is made of.
    pub fn mix_run(policy: PolicyKind, contention: Contention, mix: &Mix) -> RunSpec {
        RunSpec::new(policy, WorkloadSpec::mix(contention, mix), mobile())
    }

    /// One application running alone (Table II), with or without
    /// forwarding hardware.
    pub fn solo_run(app: App, forwarding: bool) -> RunSpec {
        let workload = WorkloadSpec::custom(format!("solo/{}", app.symbol()), None, move || {
            vec![AppSpec::once(app.symbol(), app.dag())]
        });
        let platform = if forwarding { mobile() } else { mobile_nofwd() };
        RunSpec::new(PolicyKind::Relief, workload, platform)
    }

    /// The Fig. 2 example DAGs under one policy.
    pub fn fig2_run(policy: PolicyKind) -> RunSpec {
        RunSpec::new(
            policy,
            WorkloadSpec::custom("fig2", None, super::fig2_workload),
            fig2_platform(),
        )
    }

    /// RELIEF on one high-contention mix with explicit predictors.
    pub fn predictor_run(bw: BwPredictorKind, dm: DataMovePredictor, mix: &Mix) -> RunSpec {
        RunSpec::new(
            PolicyKind::Relief,
            WorkloadSpec::mix(Contention::High, mix),
            predictor_platform(bw, dm),
        )
    }

    /// RELIEF on one high-contention mix over the crossbar (Fig. 13).
    pub fn xbar_run(mix: &Mix) -> RunSpec {
        RunSpec::new(
            PolicyKind::Relief,
            WorkloadSpec::mix(Contention::High, mix),
            mobile_xbar(),
        )
    }

    /// The union of every run the paper artifacts consume, deduplicated
    /// by canonical label, in stable order. `all_experiments` executes
    /// this grid on the campaign engine and renders from the cache;
    /// Fig. 12 is absent because it measures *host* wall-clock latency,
    /// not simulated behavior.
    pub fn full_grid() -> Vec<RunSpec> {
        let mut specs = Vec::new();
        // Figs. 4–10, Tables VII & XIII base cells: every policy × mix.
        for contention in Contention::ALL {
            for mix in contention.mixes() {
                for &policy in &FAIRNESS_POLICIES {
                    specs.push(mix_run(policy, contention, &mix));
                }
            }
        }
        // Table II solo calibration runs.
        for app in App::ALL {
            specs.push(solo_run(app, true));
            specs.push(solo_run(app, false));
        }
        // Fig. 2 example schedules.
        for &policy in &FAIRNESS_POLICIES {
            specs.push(fig2_run(policy));
        }
        // Table VIII / Fig. 11 predictor variants and Fig. 13 crossbar.
        for mix in Contention::High.mixes() {
            for bw in [
                BwPredictorKind::Max,
                BwPredictorKind::Last,
                BwPredictorKind::Average(15),
                BwPredictorKind::Ewma(0.25),
            ] {
                specs.push(predictor_run(bw, DataMovePredictor::Max, &mix));
            }
            specs.push(predictor_run(BwPredictorKind::Max, DataMovePredictor::Predicted, &mix));
            specs.push(predictor_run(
                BwPredictorKind::Average(15),
                DataMovePredictor::Predicted,
                &mix,
            ));
            specs.push(xbar_run(&mix));
        }
        let mut seen = BTreeSet::new();
        specs.retain(|s| seen.insert(s.label()));
        specs
    }
}

/// Table II: absolute time in compute vs data movement per application,
/// comparing no-forwarding to forwarding-whenever-possible (ideal).
pub fn table2_with(ctx: &Ctx) -> String {
    let mut t = Table::with_columns(&[
        "app",
        "compute us",
        "paper",
        "mem (no fwd) us",
        "paper",
        "mem (ideal) us",
        "paper",
    ]);
    let paper: [(App, f64, f64, f64); 5] = [
        (App::Canny, 3539.37, 237.74, 173.29),
        (App::Deblur, 15610.58, 509.80, 420.06),
        (App::Gru, 1249.31, 3343.72, 1608.01),
        (App::Harris, 6157.30, 372.19, 303.16),
        (App::Lstm, 1470.02, 3879.98, 1797.77),
    ];
    for (app, p_compute, p_nofwd, p_ideal) in paper {
        let nofwd = ctx.run(&grid::solo_run(app, false));
        let ideal = ctx.run(&grid::solo_run(app, true));
        t.row(vec![
            app.name().to_string(),
            format!("{:.2}", ideal.per_app_compute_time[app.symbol()].as_us_f64()),
            format!("{p_compute:.2}"),
            format!("{:.2}", nofwd.per_app_mem_time[app.symbol()].as_us_f64()),
            format!("{p_nofwd:.2}"),
            format!("{:.2}", ideal.per_app_mem_time[app.symbol()].as_us_f64()),
            format!("{p_ideal:.2}"),
        ]);
    }
    format!("[Table II] compute vs data movement, modeled vs paper\n{}", t.render())
}

/// The Figure 2 pedagogical scenario, reconstructed (the figure text in
/// the source is garbled, so the DAGs are rebuilt to exhibit the same
/// dynamics): three DAGs with an identical A→A→B→B chain and a *common*
/// deadline contend for one A and one B accelerator. Equal deadlines make
/// every deadline/laxity-driven baseline round-robin between the DAGs,
/// forfeiting the colocation windows; RELIEF keeps each chain together.
pub fn fig2_workload() -> Vec<AppSpec> {
    use relief_dag::{AccTypeId, DagBuilder, NodeSpec};
    use relief_sim::Dur;
    let node = |acc: u32, t_us: u64| {
        NodeSpec::new(AccTypeId(acc), Dur::from_us(t_us)).with_output_bytes(16_384)
    };
    #[allow(clippy::expect_used)] // four fresh nodes wired in a line
    let chain = |name: &str| {
        let mut b = DagBuilder::new(name, Dur::from_us(340));
        let ids = [node(0, 20), node(0, 30), node(1, 50), node(1, 30)]
            .into_iter()
            .map(|n| b.add_node(n))
            .collect::<Vec<_>>();
        b.add_chain(&ids).expect("fresh nodes");
        std::sync::Arc::new(b.build().expect("hand-built dag is valid"))
    };
    vec![
        AppSpec::once("D1", chain("d1")),
        AppSpec::once("D2", chain("d2")),
        AppSpec::once("D3", chain("d3")),
    ]
}

/// Fig. 2: schedules of the example DAGs under each policy. RELIEF
/// achieves the ideal schedule: maximum colocations, all deadlines met,
/// shortest makespan.
pub fn fig2_with(ctx: &Ctx) -> String {
    let mut t = Table::with_columns(&[
        "policy",
        "forwards",
        "colocations",
        "DAG deadlines met",
        "makespan us",
    ]);
    let names = vec!["  A".to_string(), "  B".to_string()];
    let mut schedules = String::new();
    for policy in FAIRNESS_POLICIES {
        let r = ctx.run(&grid::fig2_run(policy));
        let met: u64 = r.stats.apps.values().map(|a| a.dag_deadlines_met).sum();
        t.row(vec![
            policy.name().to_string(),
            r.stats.forwards().to_string(),
            r.stats.colocations().to_string(),
            format!("{met}/3"),
            format!("{:.0}", r.stats.exec_time.as_us_f64()),
        ]);
        let _ = writeln!(schedules, "-- {} --\n{}", policy.name(), r.trace.render(&names));
    }
    format!(
        "[Fig. 2] example-DAG schedules (reconstruction)\n{}\n\
         schedules ('=' colocated input, '~' forwarded, '.' DRAM):\n{schedules}",
        t.render()
    )
}

/// Figs. 4a–d: percent of edges satisfied by forwards + colocations.
pub fn fig4_with(ctx: &Ctx) -> String {
    sweep_all_contention(ctx, "Fig. 4", "forwards+colocations / edges (%)", 1, |r| {
        r.stats.forward_percent()
    })
}

/// Figs. 5a–d: data movement reaching DRAM as a percent of the all-DRAM
/// baseline (the paper's lower bars; 100 − this − SPAD% = colocated). A
/// mix whose edges all colocate moves no bytes scratchpad to scratchpad,
/// so a SPAD-to-SPAD block with such a mix ends in a `Gmean>0` row (see
/// [`fig4_colocations_with`]).
pub fn fig5_with(ctx: &Ctx) -> String {
    let mut out = String::new();
    for contention in Contention::ALL {
        let dram = PolicySweep::collect_with(ctx, contention, &MAIN_POLICIES, |r| {
            100.0 * r.stats.traffic.dram_fraction()
        });
        let spad = PolicySweep::collect_with(ctx, contention, &MAIN_POLICIES, |r| {
            100.0 * r.stats.traffic.spad_fraction()
        });
        let _ = writeln!(
            out,
            "[Fig. 5 — {contention} contention]\n{}\n{}",
            dram.render("DRAM traffic (% of all-DRAM baseline)", 1),
            zero_aware_table(&spad, "SPAD-to-SPAD traffic (% of all-DRAM baseline)"),
        );
    }
    out
}

/// Fig. 6: main-memory and scratchpad energy under high contention,
/// normalized to LAX.
pub fn fig6_with(ctx: &Ctx) -> String {
    let model = EnergyModel::new();
    let energy = |r: &relief_accel::SimResult| model.energy(&r.stats.traffic, r.stats.exec_time);
    let mut dram_rows = Vec::new();
    let mut spad_rows = Vec::new();
    for mix in Contention::High.mixes() {
        let base = energy(&ctx.run(&grid::mix_run(PolicyKind::Lax, Contention::High, &mix)));
        let mut dram = Vec::new();
        let mut spad = Vec::new();
        for p in MAIN_POLICIES {
            let e = energy(&ctx.run(&grid::mix_run(p, Contention::High, &mix)));
            dram.push(e.dram_nj / base.dram_nj);
            spad.push(e.spad_nj / base.spad_nj);
        }
        dram_rows.push((mix.label(), dram));
        spad_rows.push((mix.label(), spad));
    }
    let render = |name: &str, rows: &[(String, Vec<f64>)]| {
        let mut cols = vec!["mix".to_string()];
        cols.extend(MAIN_POLICIES.iter().map(|p| p.name().to_string()));
        let mut t = Table::new(cols);
        for (label, values) in rows {
            t.num_row(label, values, 3);
        }
        let gmeans: Vec<f64> = (0..MAIN_POLICIES.len())
            .map(|i| geometric_mean(rows.iter().map(|(_, v)| v[i])))
            .collect();
        t.num_row("Gmean", &gmeans, 3);
        format!("[{name}]\n{}", t.render())
    };
    format!(
        "{}\n{}",
        render("Fig. 6 — DRAM energy (norm. to LAX), high contention", &dram_rows),
        render("Fig. 6 — SPAD energy (norm. to LAX), high contention", &spad_rows),
    )
}

/// Figs. 7a–d: accelerator occupancy.
pub fn fig7_with(ctx: &Ctx) -> String {
    sweep_all_contention(ctx, "Fig. 7", "accelerator occupancy", 3, |r| {
        r.stats.accel_occupancy()
    })
}

/// Figs. 8a–d: percent of node deadlines met.
pub fn fig8_with(ctx: &Ctx) -> String {
    sweep_all_contention(ctx, "Fig. 8", "node deadlines met (%)", 1, |r| {
        r.stats.node_deadline_percent()
    })
}

/// Fig. 9: per-application slowdown and DAG deadlines met under high
/// contention, eight policies.
pub fn fig9_with(ctx: &Ctx) -> String {
    fairness(ctx, Contention::High, "Fig. 9")
}

/// Fig. 10: the same under continuous contention (`inf` = starved).
pub fn fig10_with(ctx: &Ctx) -> String {
    fairness(ctx, Contention::Continuous, "Fig. 10")
}

fn fairness(ctx: &Ctx, contention: Contention, name: &str) -> String {
    let mut out = String::new();
    let mut slow = Table::with_columns(&["mix", "policy", "slowdown per app", "max", "variance"]);
    let mut ddl = {
        let mut cols = vec!["mix".to_string()];
        cols.extend(FAIRNESS_POLICIES.iter().map(|p| p.name().to_string()));
        Table::new(cols)
    };
    for mix in contention.mixes() {
        let mut ddl_row = Vec::new();
        for p in FAIRNESS_POLICIES {
            let r = ctx.run(&grid::mix_run(p, contention, &mix));
            let slowdowns: Vec<(String, f64)> = mix
                .apps
                .iter()
                .map(|a| {
                    let st = &r.stats.apps[a.symbol()];
                    let s = if st.starved || st.dags_completed == 0 {
                        f64::INFINITY
                    } else {
                        st.mean_slowdown().unwrap_or(f64::INFINITY)
                    };
                    (a.symbol().to_string(), s)
                })
                .collect();
            let finite: Vec<f64> =
                slowdowns.iter().map(|(_, s)| *s).filter(|s| s.is_finite()).collect();
            let max = slowdowns.iter().map(|(_, s)| *s).fold(0.0f64, f64::max);
            let var = relief_metrics::summary::variance(&finite);
            slow.row(vec![
                mix.label(),
                p.name().to_string(),
                slowdowns
                    .iter()
                    .map(|(a, s)| {
                        if s.is_finite() {
                            format!("{a}:{s:.2}")
                        } else {
                            format!("{a}:inf")
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" "),
                if max.is_finite() { format!("{max:.2}") } else { "inf".into() },
                format!("{var:.4}"),
            ]);
            ddl_row.push(r.stats.dag_deadline_percent());
        }
        ddl.num_row(&mix.label(), &ddl_row, 1);
    }
    let _ = writeln!(out, "[{name}a — slowdown, {contention} contention]\n{}", slow.render());
    let _ = writeln!(out, "[{name}b — DAG deadlines met (%), {contention} contention]\n{}", ddl.render());
    out
}

/// Table VII: finished DAG instances per application under continuous
/// contention.
pub fn table7_with(ctx: &Ctx) -> String {
    let mut out = String::new();
    for mix in Contention::Continuous.mixes() {
        let mut cols = vec!["policy".to_string()];
        cols.extend(mix.apps.iter().map(|a| a.symbol().to_string()));
        let mut t = Table::new(cols);
        for p in FAIRNESS_POLICIES {
            let r = ctx.run(&grid::mix_run(p, Contention::Continuous, &mix));
            let mut row = vec![p.name().to_string()];
            row.extend(
                mix.apps.iter().map(|a| r.stats.apps[a.symbol()].dags_completed.to_string()),
            );
            t.row(row);
        }
        let _ = writeln!(out, "[Table VII — mix {}]\n{}", mix.label(), t.render());
    }
    out
}

/// Runs RELIEF on one high-contention mix with the given predictors.
fn relief_with_predictors<'a>(
    ctx: &Ctx<'a>,
    mix: &Mix,
    bw: BwPredictorKind,
    dm: DataMovePredictor,
) -> Cow<'a, relief_accel::SimResult> {
    ctx.run(&grid::predictor_run(bw, dm, mix))
}

/// Table VIII: predictor accuracy, plus forwards / node deadlines met per
/// bandwidth predictor, under high contention.
pub fn table8_with(ctx: &Ctx) -> String {
    use relief_accel::PredictionStats as P;
    let bw_kinds = [
        BwPredictorKind::Max,
        BwPredictorKind::Last,
        BwPredictorKind::Average(15),
        BwPredictorKind::Ewma(0.25),
    ];
    let mut t = Table::with_columns(&[
        "mix",
        "compute err %",
        "DM err %",
        "BW err: Max",
        "Last",
        "Average",
        "EWMA",
        "fwd: Max",
        "Last",
        "Avg",
        "EWMA",
        "ddl: Max",
        "Last",
        "Avg",
        "EWMA",
    ]);
    let mut abs_gmeans: Vec<Vec<f64>> = vec![Vec::new(); 6];
    for mix in Contention::High.mixes() {
        let mut row = vec![mix.label()];
        // Compute + DM errors measured with the Predicted DM scheme.
        let base =
            relief_with_predictors(ctx, &mix, BwPredictorKind::Max, DataMovePredictor::Predicted);
        let comp = P::mean_signed_pct(&base.prediction.compute_rel_errors);
        let dm = P::mean_signed_pct(&base.prediction.dm_rel_errors);
        row.push(format!("{comp:.2}"));
        row.push(format!("{dm:.2}"));
        // The paper's Gmean row uses the absolute values of the per-mix
        // signed errors.
        abs_gmeans[0].push(comp.abs());
        abs_gmeans[1].push(dm.abs());
        let mut fwd = Vec::new();
        let mut ddl = Vec::new();
        for (i, bw) in bw_kinds.iter().enumerate() {
            let r = relief_with_predictors(ctx, &mix, *bw, DataMovePredictor::Max);
            let signed = P::mean_signed_pct(&r.prediction.bw_rel_errors);
            row.push(format!("{signed:.2}"));
            abs_gmeans[2 + i].push(signed.abs());
            fwd.push((r.stats.forwards() + r.stats.colocations()).to_string());
            ddl.push(format!(
                "{}",
                r.stats.apps.values().map(|a| a.node_deadlines_met).sum::<u64>()
            ));
        }
        row.extend(fwd);
        row.extend(ddl);
        t.row(row);
    }
    let mut footer = vec!["Gmean |err|".to_string()];
    footer.extend(abs_gmeans.iter().map(|v| {
        format!("{:.2}", geometric_mean(v.iter().copied()))
    }));
    t.row(footer);
    format!(
        "[Table VIII] predictor accuracy under high contention \
         (signed %, negative = overestimation)\n{}",
        t.render()
    )
}

/// Fig. 11: node deadlines met with predictive BW / DM predictors,
/// normalized to the Max predictors.
pub fn fig11_with(ctx: &Ctx) -> String {
    let variants: [(&str, BwPredictorKind, DataMovePredictor); 3] = [
        ("Pred. BW", BwPredictorKind::Average(15), DataMovePredictor::Max),
        ("Pred. DM", BwPredictorKind::Max, DataMovePredictor::Predicted),
        ("Pred. BW + Pred. DM", BwPredictorKind::Average(15), DataMovePredictor::Predicted),
    ];
    let mut cols = vec!["mix".to_string()];
    cols.extend(variants.iter().map(|(n, _, _)| n.to_string()));
    let mut t = Table::new(cols);
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for mix in Contention::High.mixes() {
        let base =
            relief_with_predictors(ctx, &mix, BwPredictorKind::Max, DataMovePredictor::Max)
                .stats
                .node_deadline_percent();
        let mut row = Vec::new();
        for (i, (_, bw, dm)) in variants.iter().enumerate() {
            let v = relief_with_predictors(ctx, &mix, *bw, *dm).stats.node_deadline_percent();
            let norm = if base > 0.0 { v / base } else { 0.0 };
            row.push(norm);
            columns[i].push(norm);
        }
        t.num_row(&mix.label(), &row, 3);
    }
    let gmeans: Vec<f64> =
        columns.iter().map(|c| geometric_mean(c.iter().copied())).collect();
    t.num_row("Gmean", &gmeans, 3);
    format!(
        "[Fig. 11] node deadlines met with dynamic predictors, normalized to Max predictors\n{}",
        t.render()
    )
}

/// Fig. 12: average and tail latency of one ready-queue insertion per
/// policy, measured on the host (the paper measures a Cortex-A7; relative
/// ordering is the reproducible part).
///
/// This artifact times *host* wall-clock latency with `Instant`, so it is
/// inherently nondeterministic and never campaign-executed. `relief-bench
/// all_experiments` caches the rendered text as the `fig12-host-latency`
/// artifact, so a warm rerun prints it byte-identically and `--no-cache`
/// re-measures.
pub fn fig12() -> String {
    use relief_core::{ReadyQueues, TaskEntry, TaskKey};
    use relief_dag::AccTypeId;
    use relief_sim::{Dur, Time};
    use std::time::Instant;

    let mut t = Table::with_columns(&["policy", "avg ns", "p99 ns", "modeled cost ns"]);
    for policy in FAIRNESS_POLICIES {
        let mut samples = Vec::with_capacity(2048);
        for trial in 0..2048u64 {
            let mut p = policy.build();
            let mut q = ReadyQueues::new(1);
            // Pre-fill a realistically sized queue (tens of entries).
            let mut prefill: Vec<TaskEntry> = (0..32)
                .map(|i| {
                    TaskEntry::new(
                        TaskKey::new(0, i),
                        AccTypeId(0),
                        Dur::from_us(10 + (i as u64 * 7) % 40),
                        Time::from_us(100 + (i as u64 * 13) % 400),
                    )
                    .with_seq(i as u64)
                })
                .collect();
            p.enqueue_ready(&mut q, &mut prefill, Time::ZERO, &[1]);
            let entry = TaskEntry::new(
                TaskKey::new(1, 0),
                AccTypeId(0),
                Dur::from_us(15),
                Time::from_us(100 + (trial % 197)),
            )
            .with_seq(1000)
            .forwarding_candidate();
            let start = Instant::now();
            p.enqueue_ready(&mut q, &mut vec![entry], Time::from_us(1), &[1]);
            samples.push(start.elapsed().as_nanos() as f64);
        }
        samples.sort_by(f64::total_cmp);
        let avg: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let p99 = samples[(samples.len() * 99) / 100 - 1];
        t.row(vec![
            policy.name().to_string(),
            format!("{avg:.0}"),
            format!("{p99:.0}"),
            format!("{}", SocConfig::default_insert_cost(policy).as_ns_f64()),
        ]);
    }
    format!(
        "[Fig. 12] scheduler insert latency on the host (paper: Cortex-A7; \
         compare relative ordering)\n{}",
        t.render()
    )
}

/// Fig. 13: interconnect occupancy and execution time, bus vs crossbar,
/// under high contention; normalized to LAX on the bus.
pub fn fig13_with(ctx: &Ctx) -> String {
    let mut t = Table::with_columns(&[
        "mix",
        "occ %: LAX",
        "RELIEF-Bus",
        "RELIEF-XBar",
        "time/LAX: RELIEF-Bus",
        "RELIEF-XBar",
    ]);
    let mut occ_cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut time_cols: Vec<Vec<f64>> = vec![Vec::new(); 2];
    for mix in Contention::High.mixes() {
        let lax = ctx.run(&grid::mix_run(PolicyKind::Lax, Contention::High, &mix));
        let relief_bus = ctx.run(&grid::mix_run(PolicyKind::Relief, Contention::High, &mix));
        let relief_xbar = ctx.run(&grid::xbar_run(&mix));

        let occ = [
            100.0 * lax.stats.interconnect_occupancy(),
            100.0 * relief_bus.stats.interconnect_occupancy(),
            100.0 * relief_xbar.stats.interconnect_occupancy(),
        ];
        let base = lax.stats.exec_time.as_us_f64();
        let times = [
            relief_bus.stats.exec_time.as_us_f64() / base,
            relief_xbar.stats.exec_time.as_us_f64() / base,
        ];
        for (i, v) in occ.iter().enumerate() {
            occ_cols[i].push(*v);
        }
        for (i, v) in times.iter().enumerate() {
            time_cols[i].push(*v);
        }
        t.row(vec![
            mix.label(),
            format!("{:.1}", occ[0]),
            format!("{:.1}", occ[1]),
            format!("{:.1}", occ[2]),
            format!("{:.3}", times[0]),
            format!("{:.3}", times[1]),
        ]);
    }
    t.row(vec![
        "Gmean".to_string(),
        format!("{:.1}", geometric_mean(occ_cols[0].iter().copied())),
        format!("{:.1}", geometric_mean(occ_cols[1].iter().copied())),
        format!("{:.1}", geometric_mean(occ_cols[2].iter().copied())),
        format!("{:.3}", geometric_mean(time_cols[0].iter().copied())),
        format!("{:.3}", geometric_mean(time_cols[1].iter().copied())),
    ]);
    format!("[Fig. 13] interconnect sensitivity under high contention\n{}", t.render())
}

fn sweep_all_contention(
    ctx: &Ctx,
    name: &str,
    header: &str,
    precision: usize,
    metric: impl Fn(&relief_accel::SimResult) -> f64 + Copy,
) -> String {
    let mut out = String::new();
    for contention in Contention::ALL {
        let sweep = PolicySweep::collect_with(ctx, contention, &MAIN_POLICIES, metric);
        let _ = writeln!(
            out,
            "[{name} — {contention} contention]\n{}",
            sweep.render(header, precision)
        );
    }
    out
}

/// Colocation-only percentage sweep, printed right after Fig. 4 (the
/// figure stacks COL under FWD). A mix may colocate nothing (D alone
/// reads every input from DRAM or a forward), and one 0 pulls a geometric
/// mean to 0, so a block with a zero entry ends in a `Gmean>0` row: each
/// column's geometric mean over its nonzero entries.
pub fn fig4_colocations_with(ctx: &Ctx) -> String {
    let mut out = String::new();
    for contention in Contention::ALL {
        let sweep = PolicySweep::collect_with(ctx, contention, &MAIN_POLICIES, |r| {
            r.stats.colocation_percent()
        });
        let _ = writeln!(
            out,
            "[Fig. 4 (colocations only) — {contention} contention]\n{}",
            zero_aware_table(&sweep, "colocations / edges (%)")
        );
    }
    out
}

/// Renders a percentage sweep at one decimal. A sweep with a zero entry
/// ends in a `Gmean>0` row, each column's geometric mean over its nonzero
/// entries; any other ends in the plain `Gmean` row.
fn zero_aware_table(sweep: &PolicySweep, header: &str) -> String {
    if !sweep.rows.iter().any(|(_, values)| values.contains(&0.0)) {
        return sweep.render(header, 1);
    }
    let nonzero: Vec<f64> = (0..sweep.policies.len())
        .map(|i| geometric_mean(sweep.rows.iter().map(|(_, v)| v[i]).filter(|&v| v > 0.0)))
        .collect();
    sweep.render_with_footer(header, 1, "Gmean>0", &nonzero)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::RunSpec;

    fn footer(table: String) -> Vec<String> {
        table.lines().last().unwrap().split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn colocation_gmean_skips_zero_entries() {
        let sweep = |d: f64| PolicySweep {
            policies: vec![PolicyKind::Fcfs, PolicyKind::Relief],
            rows: vec![
                ("C".to_string(), vec![4.0, 2.0]),
                ("D".to_string(), vec![d, d]),
                ("G".to_string(), vec![9.0, 32.0]),
            ],
        };
        // D's 0 is left out of the footer, which says so.
        assert_eq!(footer(zero_aware_table(&sweep(0.0), "h")), ["Gmean>0", "6.0", "8.0"]);
        // Without a zero entry the footer is the plain geometric mean.
        assert_eq!(footer(zero_aware_table(&sweep(1.0), "h")), ["Gmean", "3.3", "4.0"]);
    }

    /// Fig. 5's low-contention SPAD-to-SPAD shape: G and L colocate every
    /// edge and move nothing scratchpad to scratchpad. The clamped
    /// geometric mean printed 0.0 over entries up to 39.5; the footer
    /// now skips the zeros.
    #[test]
    fn fig5_spad_gmean_skips_all_colocated_mixes() {
        let sweep = PolicySweep {
            policies: vec![PolicyKind::Fcfs, PolicyKind::Relief],
            rows: vec![
                ("C".to_string(), vec![28.3, 32.9]),
                ("D".to_string(), vec![39.5, 39.5]),
                ("G".to_string(), vec![0.0, 0.0]),
                ("H".to_string(), vec![31.8, 31.8]),
                ("L".to_string(), vec![0.0, 0.0]),
            ],
        };
        let plain = footer(sweep.render("h", 1));
        assert_eq!(plain, ["Gmean", "0.0", "0.0"], "the clamp the footer replaces");
        assert_eq!(footer(zero_aware_table(&sweep, "h")), ["Gmean>0", "32.9", "34.6"]);
    }

    #[test]
    fn fig2_workload_shape() {
        let apps = fig2_workload();
        assert_eq!(apps.len(), 3);
        for app in &apps {
            assert_eq!(app.dag.len(), 4);
            assert_eq!(app.dag.edge_count(), 3);
            assert_eq!(app.dag.relative_deadline(), relief_sim::Dur::from_us(340));
            assert!(!app.repeat);
        }
    }

    #[test]
    fn fig2_report_contains_schedules_and_all_policies() {
        let out = fig2_with(&Ctx::empty());
        for p in FAIRNESS_POLICIES {
            assert!(out.contains(p.name()), "missing {p}");
        }
        assert!(out.contains("colocated input"));
        assert!(out.contains("=D1:n1"), "RELIEF schedule must show a colocation");
    }

    #[test]
    fn table2_reports_all_five_apps() {
        let out = table2_with(&Ctx::empty());
        for app in relief_workloads::App::ALL {
            assert!(out.contains(app.name()), "missing {app}");
        }
        assert!(out.contains("Table II"));
    }

    #[test]
    fn fig12_measures_every_policy() {
        let out = fig12();
        assert!(out.contains("RELIEF"));
        assert!(out.contains("FCFS"));
        assert!(out.contains("p99"));
    }

    #[test]
    fn full_grid_is_deduplicated_and_covers_every_axis() {
        let specs = grid::full_grid();
        let labels: Vec<String> = specs.iter().map(RunSpec::label).collect();
        let unique: std::collections::BTreeSet<&String> = labels.iter().collect();
        assert_eq!(labels.len(), unique.len(), "duplicate run specs in the grid");
        // 8 policies × 35 mixes + 10 solo + 8 fig2 + 10 × (6 predictor + 1 xbar).
        assert_eq!(labels.len(), 8 * 35 + 10 + 8 + 10 * 7);
        assert!(labels.iter().any(|l| l.contains("mobile-nofwd")));
        assert!(labels.iter().any(|l| l.contains("mobile-xbar")));
        assert!(labels.iter().any(|l| l.contains("fig2")));
        assert!(labels.iter().any(|l| l.contains("pred[bw=avg15,dm=pred]")));
    }

    #[test]
    fn cached_and_inline_runs_render_identically() {
        // Prewarm only the Fig. 2 cells, then render: cache hits and
        // misses must be indistinguishable in the output.
        let specs: Vec<RunSpec> = FAIRNESS_POLICIES.iter().map(|&p| grid::fig2_run(p)).collect();
        let some = crate::campaign::execute(
            specs,
            &crate::campaign::ExecOptions { jobs: 2, ..Default::default() },
        );
        let ctx = Ctx::from_results(&some);
        assert_eq!(ctx.len(), 8);
        assert_eq!(fig2_with(&ctx), fig2_with(&Ctx::empty()));
    }
}
