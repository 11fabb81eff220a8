//! Figure 7: normalized latency for hotspot, ping-pong, and HPC traces.

use serde::{Deserialize, Serialize};

use super::EvalConfig;
use crate::error::BaldurError;
use crate::net::metrics::LatencyReport;
use crate::net::runner::{run, NetworkKind, RunConfig, Workload};
use crate::net::traffic::Pattern;
use crate::net::workloads::{HpcApp, TraceParams};
use crate::registry::{
    fmt_ns, json_of, no_overrides, outln, section, ExperimentSpec, Output, Params,
};
use crate::sim::stats::geometric_mean;
use crate::sweep::Sweep;

const LABEL: &str = "fig7";
// Every historical key was written at version 1; bump on
// payload-semantics changes.
const VERSION: u32 = 1;

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig7",
    artifact: "Figure 7",
    summary: "workload latency: hotspot, ping-pongs, and HPC traces on five networks",
    version: VERSION,
    labels: &[LABEL],
    axes: &[],
    flags: &[],
    modes: &[],
    output_columns: &[
        "workload",
        "network",
        "avg_ns",
        "p99_ns",
        "normalized_avg",
        "normalized_p99",
    ],
    golden: Some("fig7.csv"),
    csv_default: None,
    json_default: None,
    gnuplot: None,
    all_figures: no_overrides,
    run: run_hook,
};

/// One measured cell of Figure 7.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Workload name (hotspot / ping_pong1 / ping_pong2 / AMG / CR / FB / MG).
    pub workload: String,
    /// Network name.
    pub network: String,
    /// The measured report.
    pub report: LatencyReport,
}

/// The Figure 7 workload set: hotspot, both ping-pongs, and the four HPC
/// traces, on all five networks.
pub fn figure7(sw: &Sweep, cfg: &EvalConfig) -> Vec<Fig7Row> {
    let mut workloads: Vec<(String, Workload)> = vec![
        (
            "hotspot".into(),
            Workload::Synthetic {
                pattern: Pattern::Hotspot,
                load: 0.7,
                packets_per_node: cfg.packets_per_node.min(200),
            },
        ),
        (
            "ping_pong1".into(),
            Workload::PingPong1 {
                rounds: cfg.pingpong_rounds,
            },
        ),
        (
            "ping_pong2".into(),
            Workload::PingPong2 {
                rounds: cfg.pingpong_rounds,
            },
        ),
    ];
    for app in HpcApp::ALL {
        workloads.push((
            app.name().into(),
            Workload::Hpc {
                app,
                params: TraceParams::default_scale(),
            },
        ));
    }
    let mut items: Vec<(String, String, RunConfig)> = Vec::new();
    for (wname, wl) in &workloads {
        for (nname, net) in NetworkKind::paper_lineup(cfg.nodes) {
            let rc = RunConfig {
                seed: cfg.seed,
                ..RunConfig::new(cfg.nodes, net, *wl)
            };
            items.push((wname.clone(), nname, rc));
        }
    }
    sw.map(LABEL, VERSION, items, |(wname, nname, rc)| Fig7Row {
        workload: wname.clone(),
        network: nname.clone(),
        report: run(rc),
    })
}

/// Normalizes Figure 7 rows to Baldur per workload and returns
/// `(workload, network, normalized_avg, normalized_p99)` tuples.
///
/// A workload whose Baldur baseline row is missing (its job failed and
/// was dropped by the sweep) has no denominator, so its rows are skipped
/// rather than panicking — partial sweeps render partial tables.
pub fn normalize_fig7(rows: &[Fig7Row]) -> Vec<(String, String, f64, f64)> {
    let mut out = Vec::new();
    for row in rows {
        let Some(baldur) = rows
            .iter()
            .find(|r| r.workload == row.workload && r.network == "baldur")
        else {
            continue;
        };
        out.push((
            row.workload.clone(),
            row.network.clone(),
            row.report.avg_ns / baldur.report.avg_ns,
            row.report.p99_ns / baldur.report.p99_ns,
        ));
    }
    out
}

/// Geometric-mean normalized latency per network across workloads
/// (`(network, geomean_avg, geomean_p99)`), as quoted in Sec. V-B.
pub fn fig7_geomeans(rows: &[Fig7Row]) -> Vec<(String, f64, f64)> {
    let normalized = normalize_fig7(rows);
    let mut networks: Vec<String> = normalized.iter().map(|r| r.1.clone()).collect();
    networks.sort();
    networks.dedup();
    networks
        .into_iter()
        .map(|net| {
            let avg: Vec<f64> = normalized
                .iter()
                .filter(|r| r.1 == net)
                .map(|r| r.2)
                .collect();
            let p99: Vec<f64> = normalized
                .iter()
                .filter(|r| r.1 == net)
                .map(|r| r.3)
                .collect();
            (net, geometric_mean(&avg), geometric_mean(&p99))
        })
        .collect()
}

fn run_hook(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let rows = figure7(sw, &cfg);
    let workloads = [
        "hotspot",
        "ping_pong1",
        "ping_pong2",
        "AMG",
        "CR",
        "FB",
        "MG",
    ];
    let mut out = String::new();
    section(
        &mut out,
        &format!("Figure 7: absolute latency ({} nodes)", cfg.nodes),
    );
    outln!(
        out,
        "{:>12} | {:>14} | {:>12} | {:>12}",
        "workload",
        "network",
        "avg",
        "p99"
    );
    for w in &workloads {
        for r in rows.iter().filter(|r| r.workload == *w) {
            outln!(
                out,
                "{:>12} | {:>14} | {:>12} | {:>12}",
                r.workload,
                r.network,
                fmt_ns(r.report.avg_ns),
                fmt_ns(r.report.p99_ns)
            );
        }
    }
    section(&mut out, "Figure 7: normalized to Baldur (avg / p99)");
    let norm = normalize_fig7(&rows);
    for w in &workloads {
        for (wl, net, a, pn) in norm.iter().filter(|r| r.0 == *w) {
            outln!(out, "{wl:>12} | {net:>14} | {a:>8.2}x | {pn:>8.2}x");
        }
    }
    section(
        &mut out,
        "Geomean normalized latency per network (paper Sec. V-B)",
    );
    for (net, a, pn) in fig7_geomeans(&rows) {
        outln!(out, "{net:>14} | avg {a:>7.2}x | p99 {pn:>7.2}x");
    }
    Ok(Output {
        console: out,
        csv: Some(crate::csv::fig7(&rows)),
        json: Some(json_of("fig7", &rows)?),
        files: Vec::new(),
    })
}
