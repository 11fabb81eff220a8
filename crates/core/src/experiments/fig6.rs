//! Figure 6: average and tail latency versus input load, four synthetic
//! patterns x five networks.

use serde::{Deserialize, Serialize};

use super::EvalConfig;
use crate::error::BaldurError;
use crate::net::metrics::LatencyReport;
use crate::net::runner::{run, NetworkKind, RunConfig, Workload};
use crate::net::traffic::Pattern;
use crate::registry::{
    fmt_ns, json_of, networks_axis, no_overrides, outln, section, Axis, AxisKind, ExperimentSpec,
    Output, Params,
};
use crate::sweep::Sweep;

const LABEL: &str = "fig6";
// Every historical key was written at version 1; bump on
// payload-semantics changes.
const VERSION: u32 = 1;

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig6",
    artifact: "Figure 6",
    summary: "average and tail latency versus input load, four patterns x five networks",
    version: VERSION,
    labels: &[LABEL],
    axes: &[
        Axis {
            name: "loads",
            kind: AxisKind::F64List,
            default: "0.1,0.3,0.5,0.7,0.9",
            help: "offered input loads to sweep",
        },
        Axis {
            name: "networks",
            kind: AxisKind::StrList,
            default: "baldur,electrical_mb,dragonfly,fattree,ideal",
            help: "networks to compare (paper lineup by default)",
        },
    ],
    flags: &[],
    modes: &[],
    output_columns: &[
        "pattern",
        "network",
        "load",
        "avg_ns",
        "p99_ns",
        "drop_rate",
        "delivered",
        "generated",
    ],
    golden: Some("fig6.csv"),
    csv_default: None,
    json_default: None,
    gnuplot: Some(("fig6.gp", FIG6_GP)),
    all_figures: no_overrides,
    run: run_hook,
};

const FIG6_GP: &str = r#"# gnuplot -e "pattern='random_permutation'" fig6.gp
set datafile separator ','
set logscale y
set xlabel 'input load'
set ylabel 'average latency (ns)'
set key outside
if (!exists("pattern")) pattern = 'random_permutation'
set title sprintf('Figure 6: %s', pattern)
plot for [net in "baldur electrical_mb dragonfly fattree ideal"] \
  '< grep -E "^'.pattern.','.net.'," fig6.csv' using 3:4 with linespoints title net
"#;

/// One measured cell of Figure 6.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Traffic pattern name.
    pub pattern: String,
    /// Network name.
    pub network: String,
    /// Offered input load.
    pub load: f64,
    /// The measured report.
    pub report: LatencyReport,
}

/// The Figure 6 load sweep: average + tail latency for four patterns on
/// every network of `lineup` (the registry's `networks` axis;
/// [`NetworkKind::paper_lineup`] is the paper's five).
pub fn figure6(
    sw: &Sweep,
    cfg: &EvalConfig,
    lineup: &[(String, NetworkKind)],
    loads: &[f64],
) -> Vec<Fig6Row> {
    let patterns = [
        Pattern::RandomPermutation,
        Pattern::Transpose,
        Pattern::Bisection,
        Pattern::GroupPermutation,
    ];
    let mut items: Vec<(String, String, f64, RunConfig)> = Vec::new();
    for &pattern in &patterns {
        for (name, net) in lineup {
            for &load in loads {
                let rc = RunConfig {
                    seed: cfg.seed,
                    ..RunConfig::new(
                        cfg.nodes,
                        net.clone(),
                        Workload::Synthetic {
                            pattern,
                            load,
                            packets_per_node: cfg.packets_per_node,
                        },
                    )
                };
                items.push((pattern.name().to_string(), name.clone(), load, rc));
            }
        }
    }
    sw.map(LABEL, VERSION, items, |(pattern, name, load, rc)| Fig6Row {
        pattern: pattern.clone(),
        network: name.clone(),
        load: *load,
        report: run(rc),
    })
}

fn run_hook(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let loads = p.f64_list("loads")?;
    let lineup = networks_axis(p, cfg.nodes)?;
    let rows = figure6(sw, &cfg, &lineup, &loads);
    let mut out = String::new();
    for pattern in [
        "random_permutation",
        "transpose",
        "bisection",
        "group_permutation",
    ] {
        section(
            &mut out,
            &format!(
                "Figure 6: {pattern} ({} nodes, {} pkts/node)",
                cfg.nodes, cfg.packets_per_node
            ),
        );
        outln!(
            out,
            "{:>14} | {}",
            "network",
            loads
                .iter()
                .map(|l| format!("{l:>22.2}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        for (net, _) in &lineup {
            let cells: Vec<String> = loads
                .iter()
                .map(|&l| {
                    // A missing cell means that job failed and was
                    // dropped by the sweep; render a hole, not a panic.
                    match rows
                        .iter()
                        .find(|r| r.pattern == pattern && &r.network == net && r.load == l)
                    {
                        Some(r) => format!(
                            "{:>10}/{:>11}",
                            fmt_ns(r.report.avg_ns),
                            fmt_ns(r.report.p99_ns)
                        ),
                        None => format!("{:>10}/{:>11}", "-", "-"),
                    }
                })
                .collect();
            outln!(out, "{net:>14} | {}", cells.join(" "));
        }
        outln!(out, "(cells are avg/p99 latency)");
    }
    Ok(Output {
        console: out,
        csv: Some(crate::csv::fig6(&rows)),
        json: Some(json_of("fig6", &rows)?),
        files: Vec::new(),
    })
}
