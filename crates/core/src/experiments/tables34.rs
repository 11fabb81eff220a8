//! Tables III/IV + the Sec. IV-B encoding-overhead analysis.

use crate::error::BaldurError;
use crate::registry::{no_overrides, outln, section, ExperimentSpec, Output, Params};
use crate::sweep::Sweep;

pub(crate) static SPEC: ExperimentSpec = ExperimentSpec {
    name: "tables34",
    artifact: "Tables III/IV",
    summary: "TL device/gate parameter tables and length-code overhead",
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
    use crate::phy::overhead::length_code_overhead;
    use crate::tl::device::{TlDevice, TlGate};

    let mut out = String::new();
    section(&mut out, "Table III: TL device parameters");
    let d = TlDevice::PAPER;
    outln!(
        out,
        "junction capacitance     {:>8.1} fF",
        d.junction_capacitance_ff
    );
    outln!(
        out,
        "recombination lifetime   {:>8.1} ps",
        d.recombination_lifetime_ps
    );
    outln!(
        out,
        "photon lifetime          {:>8.2} ps",
        d.photon_lifetime_ps
    );
    outln!(out, "wavelength               {:>8.0} nm", d.wavelength_nm);
    outln!(
        out,
        "threshold current        {:>8.1} mA",
        d.threshold_current_ma
    );
    outln!(
        out,
        "bias current             {:>8.1} mA",
        d.bias_current_ma
    );

    section(&mut out, "Table IV: TL gate figures of merit");
    let g = TlGate::PAPER;
    outln!(
        out,
        "area {:>5.0} um^2 | rise/fall {:>4.1} ps | delay {:>5.2} ps | power {:>6.3} mW | {:>3.0} Gbps | {:.2} fJ/bit",
        g.area_um2,
        g.rise_fall_ps,
        g.delay_ps,
        g.power_mw,
        g.data_rate_gbps,
        g.energy_per_bit_fj()
    );

    section(&mut out, "Sec. IV-B: length-code bandwidth overhead");
    for (bits, payload) in [(8u64, 512u64), (10, 512), (20, 512), (8, 64)] {
        let o = length_code_overhead(bits, payload);
        outln!(
            out,
            "{bits:>3} routing bits + {payload:>4} B payload -> {:>6.3}% overhead",
            o.fraction * 100.0
        );
    }
    outln!(out, "(paper quotes ~0.34% for 8 routing bits + 512 B)");
    Ok(Output::console_only(out))
}
