//! Figure 9: sensitivity of the 1M-scale power comparison to switch-power
//! modelling error.

use serde::{Deserialize, Serialize};

use crate::error::BaldurError;
use crate::power::networks::NetworkPower;
use crate::power::sensitivity::Scenario;
use crate::registry::{json_of, no_overrides, outln, section, ExperimentSpec, Output, Params};
use crate::sweep::Sweep;

const LABEL: &str = "fig9";
// Every historical key was written at version 1; bump on
// payload-semantics changes.
const VERSION: u32 = 1;

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig9",
    artifact: "Figure 9",
    summary: "switch-power sensitivity of the 1M-scale comparison",
    version: VERSION,
    labels: &[LABEL],
    axes: &[],
    flags: &[],
    modes: &[],
    output_columns: &[],
    golden: None,
    csv_default: None,
    json_default: None,
    gnuplot: None,
    all_figures: no_overrides,
    run: run_hook,
};

/// One Figure 9 scenario row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Row {
    /// Scenario name.
    pub scenario: String,
    /// `(network, per-node W, Baldur improvement factor)`.
    pub entries: Vec<(String, f64, f64)>,
}

/// The Figure 9 sensitivity analysis at the 1M-1.4M scale — one cached
/// job per scenario.
pub fn figure9(sw: &Sweep) -> Vec<Fig9Row> {
    let scale = 1_048_576;
    let items: Vec<(String, u64)> = ["baseline", "pessimistic", "optimistic"]
        .into_iter()
        .map(|name| (name.to_string(), scale))
        .collect();
    sw.map(LABEL, VERSION, items, fig9_row)
}

fn fig9_row(item: &(String, u64)) -> Fig9Row {
    let (name, scale) = item;
    let s = match name.as_str() {
        "pessimistic" => Scenario::PESSIMISTIC,
        "optimistic" => Scenario::OPTIMISTIC,
        _ => Scenario::BASELINE,
    };
    Fig9Row {
        scenario: name.clone(),
        entries: NetworkPower::ALL
            .iter()
            .map(|&n| {
                (
                    n.name().to_string(),
                    s.per_node_w(n, *scale),
                    s.improvement(n, *scale),
                )
            })
            .collect(),
    }
}

fn run_hook(sw: &Sweep, _p: &Params) -> Result<Output, BaldurError> {
    let rows = figure9(sw);
    let mut out = String::new();
    section(
        &mut out,
        "Figure 9: switch-power sensitivity at the 1M-1.4M scale",
    );
    for row in &rows {
        outln!(out, "-- {}", row.scenario);
        for (net, w, imp) in &row.entries {
            if net == "baldur" {
                outln!(out, "{net:>14}: {w:>8.1} W/node");
            } else {
                outln!(out, "{net:>14}: {w:>8.1} W/node   Baldur wins {imp:>5.1}x");
            }
        }
    }
    outln!(
        out,
        "(paper pessimistic case: 5.1x / 8.2x / 14.7x vs dragonfly / fat-tree / MB)"
    );
    Ok(Output {
        console: out,
        csv: None,
        json: Some(json_of("fig9", &rows)?),
        files: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_pessimistic_still_wins() {
        let rows = figure9(&Sweep::new(0));
        let pess = rows.iter().find(|r| r.scenario == "pessimistic").unwrap();
        for (name, _, improvement) in &pess.entries {
            if name != "baldur" {
                assert!(*improvement > 3.0, "{name}: {improvement}");
            }
        }
    }
}
