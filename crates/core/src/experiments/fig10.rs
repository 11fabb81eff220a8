//! Figure 10: Baldur cost per server node versus scale.

use serde::{Deserialize, Serialize};

use crate::cost::components::{FATTREE_2560_COST_PER_NODE, OCS_COST_PER_NODE};
use crate::error::BaldurError;
use crate::power::scaling::paper_scales;
use crate::registry::{json_of, no_overrides, outln, section, ExperimentSpec, Output, Params};
use crate::sweep::Sweep;

const LABEL: &str = "fig10";

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig10",
    artifact: "Figure 10",
    summary: "cost per node versus scale, with component breakdowns",
    labels: &[LABEL],
    axes: &[],
    flags: &[],
    modes: &[],
    output_columns: &[
        "scale",
        "nodes",
        "interposers",
        "fibers",
        "faus",
        "rfecs",
        "transceivers",
        "total",
    ],
    golden: Some("fig10.csv"),
    csv_default: None,
    json_default: None,
    gnuplot: None,
    all_figures: no_overrides,
    run: run_hook,
};

/// One Figure 10 cost row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Row {
    /// Scale label.
    pub label: String,
    /// Nodes instantiated.
    pub nodes: u64,
    /// Cost breakdown, USD/node.
    pub breakdown: crate::cost::CostBreakdown,
}

/// The Figure 10 cost sweep — one cached job per scale.
pub fn figure10(sw: &Sweep) -> Vec<Fig10Row> {
    sw.map(LABEL, paper_scales(), fig10_row)
}

fn fig10_row(item: &(u64, String)) -> Fig10Row {
    let (requested, label) = item;
    Fig10Row {
        label: label.clone(),
        nodes: requested.next_power_of_two(),
        breakdown: crate::cost::cost_per_node(*requested),
    }
}

fn run_hook(sw: &Sweep, _p: &Params) -> Result<Output, BaldurError> {
    let rows = figure10(sw);
    let mut out = String::new();
    section(&mut out, "Figure 10: cost per node (USD)");
    outln!(
        out,
        "{:>10} | {:>12} {:>8} {:>8} {:>8} {:>8} | {:>9} | dominant",
        "scale",
        "interposers",
        "fibers",
        "faus",
        "rfecs",
        "xcvrs",
        "total"
    );
    for r in &rows {
        let b = &r.breakdown;
        outln!(
            out,
            "{:>10} | {:>12.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0} | {:>9.0} | {}",
            r.label,
            b.interposers,
            b.fibers,
            b.faus,
            b.rfecs,
            b.transceivers,
            b.total(),
            b.dominant()
        );
    }
    outln!(
        out,
        "(anchors: paper Baldur ~523 USD/node at 1K-2K; fat-tree {FATTREE_2560_COST_PER_NODE:.0}; OCS {OCS_COST_PER_NODE:.0})"
    );
    Ok(Output {
        console: out,
        csv: Some(crate::csv::fig10(&rows)),
        json: Some(json_of("fig10", &rows)?),
        files: Vec::new(),
    })
}
