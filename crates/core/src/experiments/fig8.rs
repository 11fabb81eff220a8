//! Figure 8: power per server node versus network scale.

use crate::error::BaldurError;
use crate::power::networks::NetworkPower;
use crate::power::scaling::{paper_scales, scaling_sweep, ScalePoint};
use crate::registry::{json_of, no_overrides, outln, section, ExperimentSpec, Output, Params};
use crate::sweep::Sweep;

const LABEL: &str = "fig8";

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig8",
    artifact: "Figure 8",
    summary: "power per node versus network scale, with component breakdowns",
    labels: &[LABEL],
    axes: &[],
    flags: &[],
    modes: &[],
    output_columns: &[
        "scale",
        "network",
        "nodes",
        "transceivers_w",
        "serdes_w",
        "buffers_w",
        "switching_w",
        "total_w",
    ],
    golden: Some("fig8.csv"),
    csv_default: None,
    json_default: None,
    gnuplot: Some(("fig8.gp", FIG8_GP)),
    all_figures: no_overrides,
    run: run_hook,
};

const FIG8_GP: &str = r#"set datafile separator ','
set logscale y
set ylabel 'power per node (W)'
set style data histogram
set style fill solid
set title 'Figure 8: power per node vs scale'
plot for [net in "baldur electrical_mb dragonfly fattree"] \
  '< grep ",'.net.'," fig8.csv' using 8:xtic(1) title net
"#;

/// The Figure 8 power sweep at the paper's four scales — one cached job
/// per scale.
pub fn figure8(sw: &Sweep) -> Vec<ScalePoint> {
    sw.map(LABEL, paper_scales(), |point| {
        match scaling_sweep(std::slice::from_ref(point)).pop() {
            Some(row) => row,
            None => unreachable!("scaling_sweep returns one point per scale"),
        }
    })
}

fn run_hook(sw: &Sweep, _p: &Params) -> Result<Output, BaldurError> {
    let sweep = figure8(sw);
    let mut out = String::new();
    section(&mut out, "Figure 8: power per node (W)");
    outln!(
        out,
        "{:>10} | {:>10} {:>14} {:>10} {:>10} | min..max improvement",
        "scale",
        "baldur",
        "electrical_mb",
        "dragonfly",
        "fattree"
    );
    for p in &sweep {
        let b = p.total_w(NetworkPower::Baldur);
        let mb = p.total_w(NetworkPower::ElectricalMultiButterfly);
        let df = p.total_w(NetworkPower::Dragonfly);
        let ft = p.total_w(NetworkPower::FatTree);
        let imps = [mb / b, df / b, ft / b];
        let lo = imps.iter().cloned().fold(f64::MAX, f64::min);
        let hi = imps.iter().cloned().fold(0.0f64, f64::max);
        outln!(
            out,
            "{:>10} | {b:>10.2} {mb:>14.1} {df:>10.1} {ft:>10.1} | {lo:.1}x .. {hi:.1}x",
            p.label
        );
    }
    outln!(out, "(paper: 3.2x-26.4x at 1K-2K, 14.6x-31.0x at 1M-1.4M)");
    if !sweep.is_empty() {
        section(&mut out, "Component breakdown at 1K-2K and 1M-1.4M");
        for idx in [0, sweep.len() - 1] {
            let p = &sweep[idx];
            outln!(out, "-- {}", p.label);
            for (n, size, b) in &p.entries {
                outln!(
                    out,
                    "{:>14} ({:>9} nodes): xcvr {:>6.2} serdes {:>6.2} buf {:>7.2} switch {:>8.2} = {:>8.2} W",
                    n.name(), size, b.transceivers_w, b.serdes_w, b.buffers_w, b.switching_w,
                    b.total_w()
                );
            }
        }
    }
    Ok(Output {
        console: out,
        csv: Some(crate::csv::fig8(&sweep)),
        json: Some(json_of("fig8", &sweep)?),
        files: Vec::new(),
    })
}
