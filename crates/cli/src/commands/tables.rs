//! Regeneration of the paper's Tables 4, 6, 7 and 8.

use super::{ObsCtx, Opts};
use crate::diag;
use crate::output::{fmt_sig, render_csv, render_table};
use enprop_clustersim::ClusterSpec;
use enprop_core::{best_ppr_config, single_node_row, table4_obs, ClusterModel};
use enprop_workloads::catalog;

fn emit(opts: &Opts, rows: Vec<Vec<String>>) {
    if opts.csv {
        print!("{}", render_csv(&rows));
    } else {
        print!("{}", render_table(&rows));
    }
}

/// Table 4: cluster validation — model vs simulated testbed errors.
/// The validation jobs land on the telemetry trace when recording is on.
pub fn table4_cmd(opts: &Opts, ctx: &mut ObsCtx) {
    println!("Table 4: Cluster validation (model vs simulated measurement)\n");
    let mut rows = vec![vec![
        "Domain".into(),
        "Program".into(),
        "Time err [%]".into(),
        "Paper [%]".into(),
        "Energy err [%]".into(),
        "Paper [%]".into(),
    ]];
    for row in table4_obs(opts.samples, opts.seed, &mut ctx.rec) {
        rows.push(vec![
            row.domain.into(),
            row.program.into(),
            format!("{:.1}", row.report.time_error_pct),
            format!("{:.0}", row.paper_errors.0),
            format!("{:.1}", row.report.energy_error_pct),
            format!("{:.0}", row.paper_errors.1),
        ]);
    }
    emit(opts, rows);
}

/// Table 6: performance-to-power ratio at each node's most
/// energy-efficient configuration.
pub fn table6_cmd(opts: &Opts) {
    println!("Table 6: Performance-to-power ratio (most efficient config per node)\n");
    let mut rows = vec![vec![
        "Program".into(),
        "PPR unit".into(),
        "A9 node".into(),
        "K10 node".into(),
        "A9 config".into(),
        "K10 config".into(),
    ]];
    for w in catalog::all() {
        let a9 = best_ppr_config(&w, "A9");
        let k10 = best_ppr_config(&w, "K10");
        rows.push(vec![
            w.name.into(),
            format!("({}/s)/W", w.unit),
            fmt_sig(a9.ppr),
            fmt_sig(k10.ppr),
            format!("{}c @ {:.1} GHz", a9.cores, a9.freq / 1e9),
            format!("{}c @ {:.1} GHz", k10.cores, k10.freq / 1e9),
        ]);
    }
    emit(opts, rows);
}

/// Table 7: single-node energy proportionality metrics.
pub fn table7_cmd(opts: &Opts) {
    println!("Table 7: Single-node energy proportionality\n");
    let mut rows = vec![vec![
        "Program".into(),
        "DPR A9".into(),
        "DPR K10".into(),
        "IPR A9".into(),
        "IPR K10".into(),
        "EPM A9".into(),
        "EPM K10".into(),
        "LDR A9".into(),
        "LDR K10".into(),
    ]];
    for w in catalog::all() {
        let a9 = single_node_row(&w, "A9").metrics;
        let k10 = single_node_row(&w, "K10").metrics;
        rows.push(vec![
            w.name.into(),
            format!("{:.2}", a9.dpr),
            format!("{:.2}", k10.dpr),
            format!("{:.2}", a9.ipr),
            format!("{:.2}", k10.ipr),
            format!("{:.2}", a9.epm),
            format!("{:.2}", k10.epm),
            format!("{:.2}", a9.ldr),
            format!("{:.2}", k10.ldr),
        ]);
    }
    emit(opts, rows);
    if !opts.csv {
        diag::note(
            "\nNote (§III-B): all four metrics collapse to functions of IPR for the\n\
             linear model curves; absolute idle powers differ 25x (A9 1.8 W, K10 45 W).",
        );
    }
}

/// Table 8: cluster-wide energy proportionality for the budget mixes.
pub fn table8_cmd(opts: &Opts) {
    println!("Table 8: Cluster-wide energy proportionality (1 kW budget)\n");
    let mixes = [(128u32, 0u32), (64, 8), (0, 16)];
    let mut header = vec!["Program".to_string()];
    for metric in ["DPR", "IPR", "EPM", "LDR"] {
        for (a9, k10) in mixes {
            header.push(format!("{metric} {a9}A9:{k10}K10"));
        }
    }
    let mut rows = vec![header];
    for w in catalog::all() {
        let metrics: Vec<_> = mixes
            .iter()
            .map(|&(a9, k10)| ClusterModel::new(w.clone(), ClusterSpec::a9_k10(a9, k10)).metrics())
            .collect();
        let mut row = vec![w.name.to_string()];
        row.extend(metrics.iter().map(|m| format!("{:.2}", m.dpr)));
        row.extend(metrics.iter().map(|m| format!("{:.2}", m.ipr)));
        row.extend(metrics.iter().map(|m| format!("{:.2}", m.epm)));
        row.extend(metrics.iter().map(|m| format!("{:.2}", m.ldr)));
        rows.push(row);
    }
    emit(opts, rows);
    if !opts.csv {
        let k10_idle = ClusterSpec::a9_k10(0, 16).idle_w();
        let a9_idle = ClusterSpec::a9_k10(128, 0).idle_w();
        diag::note(format!(
            "\nNote (§III-C): the most 'proportional' cluster (16 K10) idles at {k10_idle:.0} W,\n\
             ~{:.1}x the 128-A9 cluster ({a9_idle:.0} W) — proportionality is not efficiency.",
            k10_idle / a9_idle
        ));
    }
}

/// Table 5: the heterogeneous node types (spec sheet).
pub fn table5_cmd(opts: &Opts) {
    use enprop_nodesim::NodeSpec;
    println!("Table 5: Types of heterogeneous nodes\n");
    let mut rows = vec![vec![
        "Node".into(),
        "ISA".into(),
        "Clock".into(),
        "Cores".into(),
        "L1d/core".into(),
        "L2".into(),
        "L3".into(),
        "Memory".into(),
        "I/O".into(),
        "P_idle".into(),
    ]];
    let fmt_bytes = |b: u64| -> String {
        if b == 0 {
            "NA".into()
        } else if b >= 1 << 30 {
            format!("{}GB", b >> 30)
        } else if b >= 1 << 20 {
            format!("{}MB", b >> 20)
        } else {
            format!("{}KB", b >> 10)
        }
    };
    for spec in [
        NodeSpec::cortex_a9(),
        NodeSpec::opteron_k10(),
        NodeSpec::cortex_a15(),
        NodeSpec::xeon_e5(),
    ] {
        rows.push(vec![
            spec.name.into(),
            spec.isa.into(),
            format!("{:.1}-{:.1} GHz", spec.fmin() / 1e9, spec.fmax() / 1e9),
            spec.cores.to_string(),
            fmt_bytes(spec.l1d_per_core),
            fmt_bytes(spec.l2_total),
            fmt_bytes(spec.l3_total),
            fmt_bytes(spec.memory),
            format!("{:.0} Mbps", spec.net_bandwidth * 8.0 / 1e6),
            format!("{:.1} W", spec.power.sys_idle_w),
        ]);
    }
    if opts.csv {
        print!("{}", render_csv(&rows));
    } else {
        print!("{}", render_table(&rows));
        diag::note("\n(A15 and XeonE5 are extension node types; see DESIGN.md)");
    }
}
