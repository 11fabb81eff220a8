//! Fault-injection suite: the CI smoke contract (conservation +
//! determinism under failures) and the degradation-curve shape.
//!
//! Runs on a small topology so the whole file finishes in seconds; the
//! same checks at sweep scale live in `baldur-bench --bin faults
//! --smoke`. Every run here that drains also passes the models'
//! drained-state audits, asserted in debug builds (no packet leaked:
//! each one delivered, dropped, or GaveUp).

use baldur::prelude::*;

const SEED: u64 = 0x5EED_FA17;

fn workload(packets_per_node: u32) -> Workload {
    Workload::Synthetic {
        pattern: Pattern::UniformRandom,
        load: 0.5,
        packets_per_node,
    }
}

fn faulted_networks() -> Vec<(String, NetworkKind)> {
    NetworkKind::paper_lineup(64)
        .into_iter()
        .filter(|(_, n)| !matches!(n, NetworkKind::Ideal))
        .collect()
}

fn run_at(network: NetworkKind, fraction: f64) -> LatencyReport {
    let mut cfg = RunConfig::new(64, network, workload(30))
        .with_faults(FaultPlan::degradation(SEED, fraction));
    cfg.seed = SEED;
    baldur::run(&cfg)
}

/// The golden smoke check: 5% failures, fixed seed — packet conservation
/// holds at drain and the run is bit-reproducible, on every network that
/// can fail.
#[test]
fn five_percent_failures_conserve_packets_and_reproduce() {
    for (name, network) in faulted_networks() {
        let a = run_at(network.clone(), 0.05);
        let b = run_at(network, 0.05);
        assert_eq!(
            a.delivered + a.abandoned,
            a.generated,
            "{name}: packets leaked under faults"
        );
        assert!(a.generated > 0, "{name}");
        assert_eq!(a.delivered, b.delivered, "{name}");
        assert_eq!(a.abandoned, b.abandoned, "{name}");
        assert_eq!(a.avg_ns.to_bits(), b.avg_ns.to_bits(), "{name}");
        assert_eq!(a.p99_ns.to_bits(), b.p99_ns.to_bits(), "{name}");
        assert_eq!(a.retransmissions, b.retransmissions, "{name}");
    }
}

/// Kill sets nest, so goodput is monotone non-increasing in the failed
/// fraction — the degradation curve can never zig-zag.
#[test]
fn goodput_degrades_monotonically_in_the_failed_fraction() {
    for (name, network) in faulted_networks() {
        let mut last = f64::INFINITY;
        for fraction in [0.0, 0.05, 0.10, 0.20] {
            let r = run_at(network.clone(), fraction);
            let goodput = r.delivery_ratio();
            assert!(
                goodput <= last + 1e-12,
                "{name}: goodput rose from {last} to {goodput} at fraction {fraction}"
            );
            last = goodput;
        }
        // And 20% failures must actually bite.
        assert!(last < 1.0, "{name}: no degradation at 20% failures");
    }
}

/// A fault-free plan (fraction 0) is bit-identical to no plan at all:
/// the fault machinery draws no randomness until something actually
/// fails.
#[test]
fn empty_fault_plan_matches_fault_free_run() {
    for (name, network) in faulted_networks() {
        let faulted = run_at(network.clone(), 0.0);
        let mut cfg = RunConfig::new(64, network, workload(30));
        cfg.seed = SEED;
        let plain = baldur::run(&cfg);
        assert_eq!(plain.delivered, faulted.delivered, "{name}");
        assert_eq!(plain.abandoned, 0, "{name}");
        assert_eq!(plain.avg_ns.to_bits(), faulted.avg_ns.to_bits(), "{name}");
        assert_eq!(plain.p99_ns.to_bits(), faulted.p99_ns.to_bits(), "{name}");
    }
}

/// A mid-run fail/revive staircase produces per-epoch rows whose goodput
/// dips in the failure epoch and recovers after revival.
#[test]
fn staircase_plan_reports_degradation_epochs() {
    let epoch_ps = 50_000_000; // 50 us per epoch
    let plan = FaultPlan::staircase(SEED, epoch_ps, &[0.0, 0.15, 0.0]);
    let mut cfg = RunConfig::new(
        64,
        NetworkKind::Baldur(BaldurParams::paper_for(64)),
        workload(200),
    )
    .with_faults(plan);
    cfg.seed = SEED;
    let r = baldur::run(&cfg);
    assert_eq!(r.epochs.len(), 3, "{:?}", r.epochs);
    let goodputs: Vec<f64> = r.epochs.iter().map(|e| e.goodput()).collect();
    assert!(
        goodputs[1] < goodputs[0],
        "failure epoch must dip: {goodputs:?}"
    );
    assert!(
        goodputs[2] > goodputs[1],
        "revival epoch must recover: {goodputs:?}"
    );
    assert_eq!(r.delivered + r.abandoned, r.generated);
}

/// The electrical baselines abandon packets at dead routers but never
/// wedge: credits are refunded upstream, so the rest of the fabric keeps
/// delivering and the run drains.
#[test]
fn electrical_networks_stay_live_at_heavy_failures() {
    for (name, network) in faulted_networks() {
        if matches!(network, NetworkKind::Baldur(_)) {
            continue;
        }
        let r = run_at(network, 0.20);
        assert!(r.delivered > 0, "{name}: nothing delivered at 20%");
        assert!(r.abandoned > 0, "{name}: 20% failures lost nothing");
        assert_eq!(r.delivered + r.abandoned, r.generated, "{name}");
    }
}
