//! Sec. IV-E: the worst-case simultaneous-injection drop tool.

use serde::{Deserialize, Serialize};

use crate::error::BaldurError;
use crate::net::traffic::Pattern;
use crate::registry::{
    json_of, outln, section, Axis, AxisKind, ExperimentSpec, Flag, Output, Params,
};
use crate::sweep::Sweep;

use super::EvalConfig;

const LABEL: &str = "droptool";
const REQ_LABEL: &str = "droptool_req";

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "droptool",
    artifact: "Sec. IV-E",
    summary: "worst-case burst drop rate and required multiplicity per scale",
    labels: &[LABEL, REQ_LABEL],
    axes: &[Axis {
        name: "scales",
        kind: AxisKind::U32List,
        default: "256,1024,8192,65536",
        help: "network scales (nodes) to analyze",
    }],
    flags: &[Flag {
        name: "big",
        help: "extend the sweep to 1M+ nodes (the paper's exascale check)",
    }],
    modes: &[],
    output_columns: &[],
    golden: None,
    csv_default: None,
    json_default: None,
    gnuplot: None,
    all_figures: all_figures_overrides,
    run: run_hook,
};

// `all_figures` has always stopped at 8K nodes to bound runtime.
fn all_figures_overrides(_cfg: &EvalConfig) -> Vec<(&'static str, String)> {
    vec![("scales", "256,1024,8192".to_string())]
}

/// One drop-tool row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DropRow {
    /// Network scale.
    pub nodes: u32,
    /// Pattern name.
    pub pattern: String,
    /// Multiplicity.
    pub multiplicity: u32,
    /// Worst-case simultaneous-burst drop rate.
    pub drop_rate: f64,
}

/// The Sec. IV-E "in-house tool" study: worst-case drop rate versus
/// multiplicity and scale, plus the required multiplicity per scale.
pub fn droptool_study(sw: &Sweep, scales: &[u32], seed: u64) -> (Vec<DropRow>, Vec<(u32, u32)>) {
    let patterns = [
        Pattern::RandomPermutation,
        Pattern::Transpose,
        Pattern::Bisection,
    ];
    let mut items: Vec<(u32, Pattern, u32, u64)> = Vec::new();
    for &nodes in scales {
        for &pattern in &patterns {
            for m in 1..=5 {
                items.push((nodes, pattern, m, seed));
            }
        }
    }
    let rows = sw.map(LABEL, items, |(nodes, pattern, m, seed)| {
        let r = crate::net::droptool::worst_case(*nodes, *m, *pattern, *seed);
        DropRow {
            nodes: *nodes,
            pattern: pattern.name().into(),
            multiplicity: *m,
            drop_rate: r.drop_rate,
        }
    });
    let req_items: Vec<(u32, u64)> = scales.iter().map(|&n| (n, seed)).collect();
    let required = sw.map(REQ_LABEL, req_items, |(n, seed)| {
        (
            *n,
            crate::net::droptool::required_multiplicity(*n, &patterns, 0.01, 3, *seed),
        )
    });
    (rows, required)
}

fn run_hook(sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let cfg = p.cfg;
    let mut scales = p.u32_list("scales")?;
    if p.flag("big") {
        scales.push(1 << 20);
    }
    let (rows, required) = droptool_study(sw, &scales, cfg.seed);
    let mut out = String::new();
    section(&mut out, "Worst-case burst drop rate (%)");
    outln!(
        out,
        "{:>9} | {:>18} | m=1    m=2    m=3    m=4    m=5",
        "nodes",
        "pattern"
    );
    let mut by_key: std::collections::BTreeMap<(u32, String), Vec<f64>> = Default::default();
    for r in &rows {
        by_key
            .entry((r.nodes, r.pattern.clone()))
            .or_default()
            .push(r.drop_rate * 100.0);
    }
    for ((nodes, pattern), drops) in &by_key {
        let cells: Vec<String> = drops.iter().map(|d| format!("{d:>6.2}")).collect();
        outln!(out, "{nodes:>9} | {pattern:>18} | {}", cells.join(" "));
    }
    section(
        &mut out,
        "Required multiplicity for <1% worst-case burst drops",
    );
    for (nodes, m) in &required {
        outln!(out, "{nodes:>9} nodes -> m = {m}");
    }
    outln!(out, "(paper: m=4 at 1K, m=5 sufficient for >1M)");
    Ok(Output {
        console: out,
        csv: None,
        json: Some(json_of("droptool", &(rows, required))?),
        files: Vec::new(),
    })
}
