//! Figure 5: the 2x2 switch waveform, reproduced at gate level.
//!
//! Prints an ASCII timing diagram and (with the `vcd` axis set to a
//! path) emits a VCD file for a waveform viewer.

use serde::{Deserialize, Serialize};

use crate::error::BaldurError;
use crate::registry::{
    json_of, outln, outp, section, Axis, AxisKind, ExperimentSpec, Output, Params,
};
use crate::sweep::Sweep;

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "fig5",
    artifact: "Figure 5",
    summary: "gate-level 2x2 switch waveform (ASCII + VCD)",
    labels: &[],
    axes: &[Axis {
        name: "vcd",
        kind: AxisKind::Str,
        default: "",
        help: "path to write a VCD waveform file (empty: skip)",
    }],
    flags: &[],
    modes: &[],
    output_columns: &[],
    golden: None,
    csv_default: None,
    json_default: None,
    gnuplot: None,
    all_figures: all_figures_overrides,
    run: run_hook,
};

// `all_figures` has always dropped a viewable waveform file alongside
// the JSON artifacts.
fn all_figures_overrides(_cfg: &super::EvalConfig) -> Vec<(&'static str, String)> {
    vec![("vcd", "fig5.vcd".to_string())]
}

/// The Figure 5 waveform reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Waveform {
    /// Full VCD document for a waveform viewer.
    pub vcd: String,
    /// ASCII rendering for terminals.
    pub ascii: String,
    /// Which output port carried the packet.
    pub output_port: usize,
}

/// Runs the gate-level 2x2 switch on one packet (routing bits `[0, 1]`)
/// and captures the Figure 5 signal set.
pub fn figure5() -> Fig5Waveform {
    use crate::phy::length_code::LengthCode;
    use crate::phy::packet_wave::assemble;
    use crate::tl::netlist::{CircuitSim, Netlist, RunOutcome};
    use crate::tl::switch::{build_switch, SwitchParams};

    let t = crate::phy::waveform::BIT_PERIOD_FS;
    let p = SwitchParams::paper();
    let code = LengthCode::paper();
    let mut n = Netlist::new();
    let sw = build_switch(&mut n, p, 1);
    let mut sim = CircuitSim::new(n);
    let probes = [
        sw.inputs[0],
        sw.taps[0].envelope,
        sw.taps[0].route,
        sw.taps[0].valid[0],
        sw.taps[0].mask,
        sw.grants[0][0],
        sw.outputs[0],
        sw.outputs[1],
    ];
    for w in probes {
        sim.probe(w);
    }
    let pw = assemble(&code, &[false, true], b"FIG5", 10 * t);
    sim.drive(sw.inputs[0], &pw.wave);
    let outcome = sim.run(pw.end + 3_000_000);
    assert!(
        matches!(outcome, RunOutcome::Settled { .. }),
        "switch failed to settle"
    );
    let out0 = !sim.probed(sw.outputs[0]).is_dark();
    Fig5Waveform {
        vcd: crate::tl::vcd::to_vcd(&sim, "baldur_switch"),
        ascii: crate::tl::vcd::to_ascii(&sim, 0, pw.end + 200_000, t / 2),
        output_port: usize::from(!out0),
    }
}

fn run_hook(_sw: &Sweep, p: &Params) -> Result<Output, BaldurError> {
    let f = figure5();
    let mut out = String::new();
    section(
        &mut out,
        "Figure 5: switch simulation waveform (routing bit 0 -> output 0)",
    );
    outp!(out, "{}", f.ascii);
    outln!(out, "\npacket exited on output port {}", f.output_port);
    let files = match p.opt_str("vcd")? {
        Some(path) => vec![(path.to_string(), f.vcd.clone())],
        None => Vec::new(),
    };
    Ok(Output {
        console: out,
        csv: None,
        json: Some(json_of("fig5", &f.output_port)?),
        files,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_routes_bit0_to_port0() {
        let f = figure5();
        assert_eq!(f.output_port, 0);
        assert!(f.vcd.contains("$var wire 1"));
        assert!(f.ascii.contains('█'));
    }
}
