//! Ablation studies of RELIEF's design choices (beyond the paper's
//! figures; motivated by §III-A and §VII):
//!
//! 1. **Feasibility check** — RELIEF vs RELIEF-NOTHROTTLE: what the
//!    laxity-driven throttle buys in deadlines for the forwards it costs.
//! 2. **Laxity distribution** — RELIEF (LL pool) vs RELIEF-HET (HetSched
//!    SDR shares): the paper's §VII future-work comparison.
//! 3. **Output partitions** — 1 / 2 / 3 scratchpad output partitions:
//!    double buffering is what keeps producer data alive for consumers.
//! 4. **Scheduler overhead** — modeled manager latency on vs off.

use relief_bench::{config_for, run_mix_with};
use relief_core::PolicyKind;
use relief_metrics::report::Table;
use relief_metrics::summary::geometric_mean;
use relief_workloads::Contention;

fn main() {
    // No flags: reject any argument rather than silently ignore it.
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument '{arg}'\nusage: ablations (takes no arguments)");
        std::process::exit(2);
    }
    feasibility_and_laxity();
    partitions();
    overhead();
}

fn feasibility_and_laxity() {
    let policies = [
        PolicyKind::Relief,
        PolicyKind::ReliefUnthrottled,
        PolicyKind::ReliefHet,
        PolicyKind::HetSched,
    ];
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
        for (i, p) in policies.iter().enumerate() {
            let r = run_mix_with(config_for(*p, Contention::High), &mix);
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
    for c in &fwd_cols {
        footer.push(format!("{:.1}", geometric_mean(c.iter().copied())));
    }
    for c in &ddl_cols {
        footer.push(format!("{:.1}", geometric_mean(c.iter().copied())));
    }
    t.row(footer);
    println!(
        "[Ablation 1+2] feasibility check & laxity distribution, high contention\n{}",
        t.render()
    );
}

fn partitions() {
    let mut t = Table::with_columns(&["partitions", "fwd+coloc %", "ddl %", "DRAM MB", "exec ms"]);
    for parts in [1usize, 2, 3] {
        let mut fwd = Vec::new();
        let mut ddl = Vec::new();
        let mut dram = Vec::new();
        let mut exec = Vec::new();
        for mix in Contention::High.mixes() {
            let mut cfg = config_for(PolicyKind::Relief, Contention::High);
            cfg.output_partitions = parts;
            let r = run_mix_with(cfg, &mix);
            fwd.push(r.stats.forward_percent());
            ddl.push(r.stats.node_deadline_percent());
            dram.push(r.stats.traffic.dram_bytes() as f64 / 1e6);
            exec.push(r.stats.exec_time.as_ms_f64());
        }
        t.row(vec![
            parts.to_string(),
            format!("{:.1}", geometric_mean(fwd.into_iter())),
            format!("{:.1}", geometric_mean(ddl.into_iter())),
            format!("{:.2}", geometric_mean(dram.into_iter())),
            format!("{:.2}", geometric_mean(exec.into_iter())),
        ]);
    }
    println!(
        "[Ablation 3] scratchpad output partitions (RELIEF, high contention, gmean)\n{}",
        t.render()
    );
}

fn overhead() {
    let mut t = Table::with_columns(&["manager overhead", "exec ms (gmean)", "ddl %"]);
    for modeled in [true, false] {
        let mut exec = Vec::new();
        let mut ddl = Vec::new();
        for mix in Contention::High.mixes() {
            let mut cfg = config_for(PolicyKind::Relief, Contention::High);
            cfg.model_sched_overhead = modeled;
            let r = run_mix_with(cfg, &mix);
            exec.push(r.stats.exec_time.as_ms_f64());
            ddl.push(r.stats.node_deadline_percent());
        }
        t.row(vec![
            if modeled { "modeled (Fig. 12 costs)" } else { "zero" }.to_string(),
            format!("{:.3}", geometric_mean(exec.into_iter())),
            format!("{:.1}", geometric_mean(ddl.into_iter())),
        ]);
    }
    println!(
        "[Ablation 4] hardware-manager scheduling latency (RELIEF, high contention)\n{}",
        t.render()
    );
}
