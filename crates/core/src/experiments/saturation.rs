//! Offered versus accepted load (the saturation companion to Figure 6).

use serde::{Deserialize, Serialize};

use super::EvalConfig;
use crate::error::BaldurError;
use crate::net::runner::{run, NetworkKind, RunConfig, Workload};
use crate::net::traffic::Pattern;
use crate::registry::{
    json_of, networks_axis, outln, outp, section, Axis, AxisKind, ExperimentSpec, Output, Params,
};
use crate::sweep::Sweep;

const LABEL: &str = "saturation";

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "saturation",
    artifact: "Figure 6 companion",
    summary: "accepted versus offered load under uniform-random traffic",
    labels: &[LABEL],
    axes: &[
        Axis {
            name: "loads",
            kind: AxisKind::F64List,
            default: "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
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
    output_columns: &["network", "offered", "accepted", "avg_ns"],
    golden: None,
    csv_default: None,
    json_default: None,
    gnuplot: Some(("saturation.gp", SAT_GP)),
    all_figures: all_figures_overrides,
    run: run_hook,
};

const SAT_GP: &str = r#"set datafile separator ','
set xlabel 'offered load'
set ylabel 'accepted load'
set key left top
set title 'Saturation: accepted vs offered'
plot for [net in "baldur electrical_mb dragonfly fattree ideal"] \
  '< grep "^'.net.'," saturation.csv' using 2:3 with linespoints title net, x with lines dt 2 title 'ideal slope'
"#;

// `all_figures` has always run this sweep on the Figure 6 load grid
// rather than the standalone binary's denser ten-point grid.
fn all_figures_overrides(_cfg: &EvalConfig) -> Vec<(&'static str, String)> {
    vec![("loads", "0.1,0.3,0.5,0.7,0.9".to_string())]
}

/// One cell of the offered-vs-accepted saturation analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SaturationRow {
    /// Network name.
    pub network: String,
    /// Offered input load.
    pub offered: f64,
    /// Accepted load (delivered bandwidth / link rate).
    pub accepted: f64,
    /// Average latency at this point, ns.
    pub avg_ns: f64,
}

/// Sweeps offered load under uniform-random traffic and reports the
/// accepted throughput of every network — the classical saturation curve
/// backing Figure 6's "saturates at higher input loads" observation — on
/// every network of `lineup` (the registry's `networks` axis).
pub fn saturation(
    sw: &Sweep,
    cfg: &EvalConfig,
    lineup: &[(String, NetworkKind)],
    loads: &[f64],
) -> Vec<SaturationRow> {
    let mut items: Vec<(String, f64, RunConfig)> = Vec::new();
    for (name, net) in lineup {
        for &load in loads {
            let rc = RunConfig {
                seed: cfg.seed,
                ..RunConfig::new(
                    cfg.nodes,
                    net.clone(),
                    Workload::Synthetic {
                        pattern: Pattern::UniformRandom,
                        load,
                        packets_per_node: cfg.packets_per_node,
                    },
                )
            };
            items.push((name.clone(), load, rc));
        }
    }
    let link = crate::net::config::LinkParams::paper();
    sw.map(LABEL, items, |(name, load, rc)| {
        let r = run(rc);
        SaturationRow {
            network: name.clone(),
            offered: *load,
            accepted: r.accepted_load(rc.nodes, link.packet_time().as_ps()),
            avg_ns: r.avg_ns,
        }
    })
}

fn run_hook(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let loads = p.f64_list("loads")?;
    let lineup = networks_axis(p, cfg.nodes)?;
    let rows = saturation(sw, &cfg, &lineup, &loads);
    let mut out = String::new();
    section(
        &mut out,
        &format!(
            "Saturation: accepted load vs offered (uniform random, {} nodes)",
            cfg.nodes
        ),
    );
    outp!(out, "{:>14}", "network");
    for l in &loads {
        outp!(out, "{l:>7.1}");
    }
    outln!(out);
    for (net, _) in &lineup {
        outp!(out, "{net:>14}");
        for &l in &loads {
            // A missing cell means that job failed and was dropped by
            // the sweep; render a hole, not a panic.
            match rows.iter().find(|r| &r.network == net && r.offered == l) {
                Some(r) => outp!(out, "{:>7.2}", r.accepted),
                None => outp!(out, "{:>7}", "-"),
            }
        }
        outln!(out);
    }
    outln!(
        out,
        "(a network saturates where accepted stops tracking offered)"
    );
    Ok(Output {
        console: out,
        csv: Some(crate::csv::saturation(&rows)),
        json: Some(json_of("saturation", &rows)?),
        files: Vec::new(),
    })
}
