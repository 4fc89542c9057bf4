//! Prints the modeled platform against the paper's configuration tables:
//! Table I (elementary accelerators), Table V (benchmarks), and Table VI
//! (simulation setup). These are inputs rather than results, so this
//! binary documents the calibration instead of reproducing measurements.

use relief_accel::kinds::AccKind;
use relief_mem::MemConfig;
use relief_metrics::report::Table;
use relief_sim::Dur;
use relief_workloads::App;

fn main() {
    // No flags: reject any argument rather than silently ignore it.
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument '{arg}'\nusage: platform (takes no arguments)");
        std::process::exit(2);
    }
    table1();
    table5();
    table6();
}

fn table1() {
    let bw = MemConfig::default().dram_bandwidth;
    let mut t = Table::with_columns(&[
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
            AccKind::Grayscale => {
                relief_accel::PLANE_BYTES / 2 + AccKind::Isp.output_bytes()
            }
            _ => relief_accel::PLANE_BYTES,
        };
        let mem = Dur::for_bytes(in_bytes + kind.output_bytes(), bw);
        t.row(vec![
            kind.name().to_string(),
            kind.spad_bytes().to_string(),
            format!("{:.2}", kind.compute_time().as_us_f64()),
            kind.output_bytes().to_string(),
            format!("{:.2}", mem.as_us_f64()),
        ]);
    }
    println!("[Table I] elementary accelerators\n{}", t.render());
}

fn table5() {
    let mut t = Table::with_columns(&[
        "benchmark",
        "symbol",
        "nodes",
        "edges",
        "deadline ms",
        "compute us (= Table II)",
    ]);
    for app in App::ALL {
        let d = app.dag();
        t.row(vec![
            app.name().to_string(),
            app.symbol().to_string(),
            d.len().to_string(),
            d.edge_count().to_string(),
            format!("{:.1}", app.deadline().as_ms_f64()),
            format!("{:.2}", d.total_compute().as_us_f64()),
        ]);
    }
    println!("[Table V] benchmarks\n{}", t.render());
}

fn table6() {
    let m = MemConfig::default();
    let mut t = Table::with_columns(&["parameter", "value"]);
    t.row(vec!["accelerators".into(), "7 types x 1 instance, 1 GHz, double-buffered output".into()]);
    t.row(vec![
        "DRAM".into(),
        format!(
            "LPDDR5-6400, effective {:.2} GB/s (peak 12.8 GB/s x ~50% efficiency)",
            m.dram_bandwidth as f64 / 1e9
        ),
    ]);
    t.row(vec![
        "interconnect".into(),
        format!("full-duplex bus, {:.1} GB/s per direction (crossbar optional)", m.interconnect_bandwidth as f64 / 1e9),
    ]);
    t.row(vec!["transfer chunking".into(), format!("{} B", m.chunk_bytes)]);
    t.row(vec![
        "hardware manager".into(),
        "modeled ISR + per-insert latency (Fig. 12 defaults)".into(),
    ]);
    println!("[Table VI] simulation setup\n{}", t.render());
}
