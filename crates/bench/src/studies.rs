//! The studies `relief-bench` prints beside the paper artifacts, each
//! rendered as the exact text its command writes to stdout:
//!
//! - [`platform`] — the modeled platform against the paper's
//!   configuration tables: Table I (elementary accelerators), Table V
//!   (benchmarks) and Table VI (simulation setup). These are inputs
//!   rather than results, so it documents the calibration instead of
//!   reproducing measurements.
//! - [`ablations`] — RELIEF's design choices (motivated by §III-A and
//!   §VII): the feasibility check (RELIEF vs RELIEF-NOTHROTTLE), laxity
//!   distribution (RELIEF vs RELIEF-HET, the §VII future-work
//!   comparison), 1 / 2 / 3 scratchpad output partitions, and modeled
//!   manager latency on vs off.
//! - [`sensitivity`] — platform sweeps motivated by the paper's
//!   introduction ("this bottleneck will worsen as SoCs become more
//!   heterogeneous"): DRAM bandwidth ×¼ to ×4, 1 vs 2 instances of every
//!   accelerator type, and the transfer chunk size (a model-fidelity
//!   knob, DESIGN.md §6).
//! - [`rnn_scaling`] — GRU + LSTM at sequence lengths 2–32 beside Canny.
//!   The paper fixes length 8 "with simulation time" in mind (§IV-A);
//!   this simulator sweeps it in seconds. Deadlines scale linearly from
//!   the paper's 7 ms at length 8.
//!
//! The three simulated studies render from a [`Ctx`]: their commands
//! execute [`ablations_grid`], [`sensitivity_grid`] or
//! [`rnn_scaling_grid`] on the campaign engine first.

use crate::campaign::{Ctx, PlatformSpec, RunSpec, WorkloadSpec};
use crate::experiments::grid;
use relief_accel::kinds::AccKind;
use relief_accel::{AppSpec, SimResult, SocConfig};
use relief_core::PolicyKind;
use relief_mem::MemConfig;
use relief_metrics::report::Table;
use relief_metrics::summary::geometric_mean;
use relief_sim::Dur;
use relief_workloads::{variants, App, Contention, Mix};

/// Tables I, V and VI.
pub fn platform() -> String {
    let bw = MemConfig::default().dram_bandwidth;
    let mut t1 = Table::with_columns(&[
        "accelerator",
        "SPAD B (Table I)",
        "compute us (Table I)",
        "output B (calibrated)",
        "standalone mem us",
    ]);
    for kind in AccKind::ALL {
        // Standalone memory time: typical input volume + output through
        // DRAM (see kinds.rs for the per-kind input assumptions).
        let in_bytes = match kind {
            AccKind::CannyNonMax | AccKind::ElemMatrix => 2 * relief_accel::PLANE_BYTES,
            AccKind::Isp => AccKind::isp_raw_input_bytes(),
            AccKind::Grayscale => relief_accel::PLANE_BYTES / 2 + AccKind::Isp.output_bytes(),
            _ => relief_accel::PLANE_BYTES,
        };
        let mem = Dur::for_bytes(in_bytes + kind.output_bytes(), bw);
        t1.row(vec![
            kind.name().to_string(),
            kind.spad_bytes().to_string(),
            format!("{:.2}", kind.compute_time().as_us_f64()),
            kind.output_bytes().to_string(),
            format!("{:.2}", mem.as_us_f64()),
        ]);
    }
    let mut t5 = Table::with_columns(&[
        "benchmark",
        "symbol",
        "nodes",
        "edges",
        "deadline ms",
        "compute us (= Table II)",
    ]);
    for app in App::ALL {
        let d = app.dag();
        t5.row(vec![
            app.name().to_string(),
            app.symbol().to_string(),
            d.len().to_string(),
            d.edge_count().to_string(),
            format!("{:.1}", app.deadline().as_ms_f64()),
            format!("{:.2}", d.total_compute().as_us_f64()),
        ]);
    }
    let m = MemConfig::default();
    let mut t6 = Table::with_columns(&["parameter", "value"]);
    t6.row(vec!["accelerators".into(), "7 types x 1 instance, 1 GHz, double-buffered output".into()]);
    t6.row(vec![
        "DRAM".into(),
        format!(
            "LPDDR5-6400, effective {:.2} GB/s (peak 12.8 GB/s x ~50% efficiency)",
            m.dram_bandwidth as f64 / 1e9
        ),
    ]);
    t6.row(vec![
        "interconnect".into(),
        format!("full-duplex bus, {:.1} GB/s per direction (crossbar optional)", m.interconnect_bandwidth as f64 / 1e9),
    ]);
    t6.row(vec!["transfer chunking".into(), format!("{} B", m.chunk_bytes)]);
    t6.row(vec![
        "hardware manager".into(),
        "modeled ISR + per-insert latency (Fig. 12 defaults)".into(),
    ]);
    format!(
        "[Table I] elementary accelerators\n{}\n[Table V] benchmarks\n{}\n\
         [Table VI] simulation setup\n{}\n",
        t1.render(),
        t5.render(),
        t6.render()
    )
}

/// The policies Ablations 1 and 2 compare.
const ABLATION_POLICIES: [PolicyKind; 4] =
    [PolicyKind::Relief, PolicyKind::ReliefUnthrottled, PolicyKind::ReliefHet, PolicyKind::HetSched];
const PARTITIONS: [usize; 3] = [1, 2, 3];
const OVERHEAD: [bool; 2] = [true, false];

fn partitions_platform(parts: usize) -> PlatformSpec {
    tweaked(format!("mobile-parts{parts}"), move |cfg| cfg.output_partitions = parts)
}

fn overhead_platform(modeled: bool) -> PlatformSpec {
    let label = if modeled { "mobile-modeled-overhead" } else { "mobile-zero-overhead" };
    tweaked(label.into(), move |cfg| cfg.model_sched_overhead = modeled)
}

/// Every run [`ablations`] reads, in rendering order.
pub fn ablations_grid() -> Vec<RunSpec> {
    let mixes = Contention::High.mixes();
    let mut runs: Vec<RunSpec> = mixes
        .iter()
        .flat_map(|mix| ABLATION_POLICIES.map(|p| grid::mix_run(p, Contention::High, mix)))
        .collect();
    let tweaks = PARTITIONS.map(partitions_platform).into_iter();
    for platform in tweaks.chain(OVERHEAD.map(overhead_platform)) {
        runs.extend(mixes.iter().map(|mix| cell(&platform, PolicyKind::Relief, mix)));
    }
    runs
}

/// Ablations 1–4, high contention, rendered from `ctx`.
pub fn ablations(ctx: &Ctx) -> String {
    let policies = ABLATION_POLICIES;
    let mut cols = vec!["mix".to_string()];
    for p in policies {
        cols.push(format!("fwd% {}", p.name()));
    }
    for p in policies {
        cols.push(format!("ddl% {}", p.name()));
    }
    let mut t = Table::new(cols);
    let mut fwd_cols = vec![Vec::new(); policies.len()];
    let mut ddl_cols = vec![Vec::new(); policies.len()];
    for mix in Contention::High.mixes() {
        let mut row = vec![mix.label()];
        let mut ddl_cells = Vec::new();
        for (i, &p) in policies.iter().enumerate() {
            let r = ctx.run(&grid::mix_run(p, Contention::High, &mix));
            let fwd = r.stats.forward_percent();
            let ddl = r.stats.node_deadline_percent();
            row.push(format!("{fwd:.1}"));
            ddl_cells.push(format!("{ddl:.1}"));
            fwd_cols[i].push(fwd);
            ddl_cols[i].push(ddl);
        }
        row.extend(ddl_cells);
        t.row(row);
    }
    let mut footer = vec!["Gmean".to_string()];
    for c in fwd_cols.iter().chain(&ddl_cols) {
        footer.push(format!("{:.1}", geometric_mean(c.iter().copied())));
    }
    t.row(footer);
    let mut out = format!(
        "[Ablation 1+2] feasibility check & laxity distribution, high contention\n{}\n",
        t.render()
    );

    // Gmeans over the high-contention mixes of RELIEF runs on a tweaked
    // platform, one column per metric.
    let gmeans = |platform: &PlatformSpec, metrics: &[fn(&SimResult) -> f64]| {
        let mixes = Contention::High.mixes();
        let runs: Vec<&SimResult> =
            mixes.iter().map(|mix| ctx.run(&cell(platform, PolicyKind::Relief, mix))).collect();
        metrics.iter().map(|m| geometric_mean(runs.iter().map(|r| m(r)))).collect::<Vec<_>>()
    };
    let exec_ms = |r: &SimResult| r.stats.exec_time.as_ms_f64();
    let ddl = |r: &SimResult| r.stats.node_deadline_percent();

    let mut t = Table::with_columns(&["partitions", "fwd+coloc %", "ddl %", "DRAM MB", "exec ms"]);
    for parts in PARTITIONS {
        let g = gmeans(&partitions_platform(parts), &[
            |r| r.stats.forward_percent(),
            ddl,
            |r| r.stats.traffic.dram_bytes() as f64 / 1e6,
            exec_ms,
        ]);
        t.row(vec![
            parts.to_string(),
            format!("{:.1}", g[0]),
            format!("{:.1}", g[1]),
            format!("{:.2}", g[2]),
            format!("{:.2}", g[3]),
        ]);
    }
    out += &format!(
        "[Ablation 3] scratchpad output partitions (RELIEF, high contention, gmean)\n{}\n",
        t.render()
    );

    let mut t = Table::with_columns(&["manager overhead", "exec ms (gmean)", "ddl %"]);
    for modeled in OVERHEAD {
        let g = gmeans(&overhead_platform(modeled), &[exec_ms, ddl]);
        t.row(vec![
            if modeled { "modeled (Fig. 12 costs)" } else { "zero" }.to_string(),
            format!("{:.3}", g[0]),
            format!("{:.1}", g[1]),
        ]);
    }
    out += &format!(
        "[Ablation 4] hardware-manager scheduling latency (RELIEF, high contention)\n{}\n",
        t.render()
    );
    out
}

const BW_SCALES: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];
const REPLICATIONS: [usize; 2] = [1, 2];
const CHUNKS: [u64; 4] = [1024, 4096, 16_384, 65_536];

/// A mobile platform with one knob changed, labeled by it.
fn tweaked(label: String, tweak: impl Fn(&mut SocConfig) + Send + Sync + 'static) -> PlatformSpec {
    PlatformSpec::custom(label, move |p| {
        let mut cfg = SocConfig::mobile(p);
        tweak(&mut cfg);
        cfg
    })
}

fn bandwidth_platform(scale: f64) -> PlatformSpec {
    tweaked(format!("mobile-bw-x{scale}"), move |cfg| {
        cfg.mem.dram_bandwidth = (cfg.mem.dram_bandwidth as f64 * scale) as u64;
    })
}

fn replication_platform(n: usize) -> PlatformSpec {
    tweaked(format!("mobile-rep{n}"), move |cfg| cfg.acc_instances = vec![n; cfg.acc_instances.len()])
}

fn chunk_platform(chunk: u64) -> PlatformSpec {
    tweaked(format!("mobile-chunk{chunk}"), move |cfg| cfg.mem.chunk_bytes = chunk)
}

/// One high-contention cell on a tweaked platform.
fn cell(platform: &PlatformSpec, policy: PolicyKind, mix: &Mix) -> RunSpec {
    RunSpec::new(policy, WorkloadSpec::mix(Contention::High, mix), platform.clone())
}

/// Every run [`sensitivity`] reads, in rendering order.
pub fn sensitivity_grid() -> Vec<RunSpec> {
    let both = [PolicyKind::Lax, PolicyKind::Relief];
    let axes = (BW_SCALES.map(|s| (bandwidth_platform(s), &both[..])).into_iter())
        .chain(REPLICATIONS.map(|n| (replication_platform(n), &both[..])))
        .chain(CHUNKS.map(|c| (chunk_platform(c), &both[1..])));
    let mixes = Contention::High.mixes();
    let mut grid = Vec::new();
    for (platform, policies) in axes {
        for &policy in policies {
            grid.extend(mixes.iter().map(|m| cell(&platform, policy, m)));
        }
    }
    grid
}

/// Sensitivity sweeps 1–3, rendered from `ctx`.
pub fn sensitivity(ctx: &Ctx) -> String {
    let gmean = |platform: &PlatformSpec, policy, metric: fn(&SimResult) -> f64| {
        geometric_mean(
            Contention::High.mixes().iter().map(|mix| metric(ctx.run(&cell(platform, policy, mix)))),
        )
    };
    let exec_ms = |r: &SimResult| r.stats.exec_time.as_ms_f64();
    let fwd = |r: &SimResult| r.stats.forward_percent();
    let (lax, relief) = (PolicyKind::Lax, PolicyKind::Relief);

    let mut t = Table::with_columns(&[
        "DRAM BW scale",
        "exec ms LAX",
        "exec ms RELIEF",
        "RELIEF speedup",
        "ddl% LAX",
        "ddl% RELIEF",
    ]);
    for scale in BW_SCALES {
        let platform = bandwidth_platform(scale);
        let (lax_t, rel_t) = (gmean(&platform, lax, exec_ms), gmean(&platform, relief, exec_ms));
        let ddl = |r: &SimResult| r.stats.node_deadline_percent();
        t.row(vec![
            format!("x{scale}"),
            format!("{lax_t:.2}"),
            format!("{rel_t:.2}"),
            format!("{:.3}", lax_t / rel_t),
            format!("{:.1}", gmean(&platform, lax, ddl)),
            format!("{:.1}", gmean(&platform, relief, ddl)),
        ]);
    }
    let mut out = format!(
        "[Sensitivity 1] effective DRAM bandwidth (high contention, gmean).\n\
         The slower the memory, the more forwarding matters.\n{}\n",
        t.render()
    );

    let mut t = Table::with_columns(&[
        "instances/type",
        "fwd+coloc % LAX",
        "RELIEF",
        "exec ms LAX",
        "RELIEF",
    ]);
    for n in REPLICATIONS {
        let platform = replication_platform(n);
        t.row(vec![
            n.to_string(),
            format!("{:.1}", gmean(&platform, lax, fwd)),
            format!("{:.1}", gmean(&platform, relief, fwd)),
            format!("{:.2}", gmean(&platform, lax, exec_ms)),
            format!("{:.2}", gmean(&platform, relief, exec_ms)),
        ]);
    }
    out += &format!(
        "[Sensitivity 2] accelerator replication (high contention, gmean)\n{}\n",
        t.render()
    );

    let mut t = Table::with_columns(&["chunk bytes", "exec ms RELIEF", "fwd+coloc %"]);
    for chunk in CHUNKS {
        let platform = chunk_platform(chunk);
        t.row(vec![
            chunk.to_string(),
            format!("{:.3}", gmean(&platform, relief, exec_ms)),
            format!("{:.1}", gmean(&platform, relief, fwd)),
        ]);
    }
    out += &format!(
        "[Sensitivity 3] transfer chunk granularity (model-fidelity check: \
         results must be stable)\n{}\n",
        t.render()
    );
    out
}

const RNN_LENGTHS: [usize; 5] = [2, 4, 8, 16, 32];

/// Canny + GRU + LSTM at one sequence length, deadlines scaled linearly.
fn rnn_cell(len: usize, policy: PolicyKind) -> RunSpec {
    let deadline = Dur::from_us((7_000 * len as u64) / 8);
    let workload = WorkloadSpec::custom(format!("rnn-len{len}"), None, move || {
        vec![
            AppSpec::once("C", App::Canny.dag()),
            AppSpec::once("G", variants::gru(len, deadline)),
            AppSpec::once("L", variants::lstm(len, deadline)),
        ]
    });
    RunSpec::new(policy, workload, PlatformSpec::mobile())
}

/// Every run [`rnn_scaling`] reads, in rendering order.
pub fn rnn_scaling_grid() -> Vec<RunSpec> {
    RNN_LENGTHS
        .iter()
        .flat_map(|&len| [PolicyKind::Lax, PolicyKind::Relief].map(|policy| rnn_cell(len, policy)))
        .collect()
}

/// The RNN sequence-length table, rendered from `ctx`.
pub fn rnn_scaling(ctx: &Ctx) -> String {
    let mut t = Table::with_columns(&[
        "seq len",
        "fwd+coloc %: LAX",
        "RELIEF",
        "DRAM MB: LAX",
        "RELIEF",
        "exec ms: LAX",
        "RELIEF",
    ]);
    for len in RNN_LENGTHS {
        let lax = &ctx.run(&rnn_cell(len, PolicyKind::Lax)).stats;
        let relief = &ctx.run(&rnn_cell(len, PolicyKind::Relief)).stats;
        t.row(vec![
            len.to_string(),
            format!("{:.1}", lax.forward_percent()),
            format!("{:.1}", relief.forward_percent()),
            format!("{:.2}", lax.traffic.dram_bytes() as f64 / 1e6),
            format!("{:.2}", relief.traffic.dram_bytes() as f64 / 1e6),
            format!("{:.2}", lax.exec_time.as_ms_f64()),
            format!("{:.2}", relief.exec_time.as_ms_f64()),
        ]);
    }
    format!(
        "[RNN scaling] Canny + GRU + LSTM at growing sequence lengths \
         (paper fixes len = 8 for simulation time)\n{}\n",
        t.render()
    )
}
