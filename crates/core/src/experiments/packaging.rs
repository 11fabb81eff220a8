//! Sec. IV-G: cabinets, PCBs, interposers under fiber-pitch and power
//! constraints.

use crate::error::BaldurError;
use crate::registry::{json_of, no_overrides, outln, section, ExperimentSpec, Output, Params};
use crate::sweep::Sweep;

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "packaging",
    artifact: "Sec. IV-G",
    summary: "packaging plan at four scales under fiber and power limits",
    labels: &[],
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

fn run_hook(_sw: &Sweep, _p: &Params) -> Result<Output, BaldurError> {
    let mut out = String::new();
    section(&mut out, "Sec. IV-G packaging");
    outln!(
        out,
        "{:>10} | m | stages | {:>11} | {:>7} | fiber-lim | power-lim | cabinets | TL area",
        "nodes",
        "interposers",
        "pcbs"
    );
    let mut rows = Vec::new();
    for nodes in [1_024u64, 16_384, 131_072, 1 << 20] {
        let p = crate::cost::packaging_for(nodes);
        outln!(
            out,
            "{:>10} | {} | {:>6} | {:>11} | {:>7} | {:>9} | {:>9} | {:>8} | {:>6.2}%",
            p.nodes,
            p.multiplicity,
            p.stages,
            p.interposers,
            p.pcbs,
            p.cabinets_fiber_limited,
            p.cabinets_power_limited,
            p.cabinets(),
            p.tl_area_fraction * 100.0
        );
        rows.push(p);
    }
    outln!(
        out,
        "(paper: 1 cabinet at 1K; 752 at 1M with fiber pitch binding, 176 power-only)"
    );
    Ok(Output {
        console: out,
        csv: None,
        json: Some(json_of("packaging", &rows)?),
        files: Vec::new(),
    })
}
