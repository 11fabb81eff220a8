//! Baldur runs that cross the port table's epochs.
//!
//! Each switch output port's busy-until time is a 4-byte offset from one
//! epoch base, and the table rebases (every offset swept, the base moved
//! to the claim's time) whenever a claim would not fit. An epoch is
//! 2^32 ps, about 4.3 ms. No other test or benchmark workload runs that
//! long, so these two low-load 64-node open-loop runs are the model-level
//! check that a rebase keeps every port's time exact. The digests are the
//! SHA-256 of each exact `LatencyReport`, recorded with the 8-byte
//! absolute `Time` per port that the offset table replaced.

use baldur::net::baldur_net;
use baldur::net::config::{BaldurParams, LinkParams, RunSpec};
use baldur::net::driver::Driver;
use baldur::net::faults::{FaultKind, FaultPlan};
use baldur::net::metrics::LatencyReport;
use baldur::net::traffic::Pattern;

const SEED: u64 = 0xBA1D;
const NODES: u32 = 64;
/// One port-table epoch, ps.
const EPOCH_PS: u64 = 1 << 32;

fn open_loop(plan: FaultPlan) -> LatencyReport {
    let link = LinkParams::paper();
    // About 82 µs between a node's packets: 250 of them span about 20 ms,
    // four to five epochs.
    let driver = Driver::open_loop(NODES, Pattern::UniformRandom, 0.002, 250, &link, SEED);
    let spec = RunSpec {
        horizon_ns: Some(1_000_000_000),
        plan,
        ..RunSpec::new(link, SEED)
    };
    let (r, _) = baldur_net::simulate(
        NODES,
        BaldurParams::paper_for(u64::from(NODES)),
        driver,
        &spec,
    );
    assert_eq!(r.generated, 250 * u64::from(NODES));
    assert_eq!(r.delivered, r.generated);
    assert!(r.oracle.is_clean(), "oracle: {:?}", r.oracle);
    assert!(
        r.last_delivery_ns * 1e3 > (3 * EPOCH_PS) as f64,
        "last delivery at {} ns does not reach the fourth epoch",
        r.last_delivery_ns
    );
    r
}

fn digest(r: &LatencyReport) -> String {
    let text = serde_json::to_string_exact(r).expect("the vendored renderer never fails");
    baldur::hash::hex_digest(text.as_bytes())
}

#[test]
fn healthy_run_across_port_epochs_is_pinned() {
    let r = open_loop(FaultPlan::new(SEED));
    assert_eq!(
        digest(&r),
        "f93b3abe4672893a762c2982cb7a5ed7768b025169c486aaf727a1f29d6f3e06"
    );
}

#[test]
fn link_outage_across_an_epoch_boundary_is_pinned() {
    // Path 0 of both directions of every stage-1 switch is down from
    // 3.9 ms to 4.7 ms, so the first rebase (at about 4.29 ms) sweeps a
    // table whose traffic is squeezed onto paths 1..m.
    let switches = NODES / 2;
    let mut plan = FaultPlan::new(SEED);
    for switch in 0..switches {
        for dir in 0..2 {
            plan = plan.outage(
                3_900_000_000,
                800_000_000,
                FaultKind::LinkDown {
                    stage: 1,
                    switch,
                    dir,
                    path: 0,
                },
            );
        }
    }
    let r = open_loop(plan);
    assert_eq!(
        digest(&r),
        "42b21d6d7ae4c17976add0cf07cf36f602b9fd3b05837a67ebf1a0149a3ef511"
    );
}
