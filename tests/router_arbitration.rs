//! Multi-word request sets in the electrical router model.
//!
//! `router_net` keeps, per output port, a bitset of the input queues
//! whose head requests that port, stored in `ceil(radix × vcs / 64)`
//! words. Every benchmark cell and golden has at most 48 input queues
//! per router, so none of them reaches a second word. These two runs do:
//! a fat-tree with k = 22 (66 queues per router) and a dragonfly with
//! radix 23 (69 queues per router), each under a saturated 4x uniform
//! storm. The digests are the SHA-256 of each exact `LatencyReport`,
//! recorded with the original radix × VC queue scan, so the bitset
//! arbiter must grant in exactly the order that scan did.

use baldur::net::config::{LinkParams, RouterParams, RunSpec};
use baldur::net::driver::Driver;
use baldur::net::metrics::LatencyReport;
use baldur::net::router_net;
use baldur::net::routing::RoutingAlg;
use baldur::net::traffic::Pattern;
use baldur::topo::{Dragonfly, FatTree, RouterGraph};

const SEED: u64 = 0xBA1D;

fn storm(graph: RouterGraph, alg: RoutingAlg, nodes: u32) -> LatencyReport {
    let link = LinkParams::paper();
    let driver = Driver::storm(nodes, Pattern::UniformRandom, 4.0, 4, &link, SEED);
    let r = router_net::simulate(
        graph,
        alg,
        RouterParams::paper(),
        driver,
        &RunSpec::new(link, SEED),
    )
    .0;
    assert_eq!(r.generated, 4 * u64::from(nodes));
    assert_eq!(r.delivered, r.generated, "lossless under backpressure");
    assert!(r.oracle.is_clean(), "oracle: {:?}", r.oracle);
    r
}

fn digest(r: &LatencyReport) -> String {
    let text = serde_json::to_string_exact(r).expect("the vendored renderer never fails");
    baldur::hash::hex_digest(text.as_bytes())
}

#[test]
fn fattree_k22_two_word_request_sets_are_pinned() {
    let ft = FatTree::new(22);
    let nodes = ft.node_count() as u32;
    let graph = ft.build_graph(10_000, 50_000, 100_000);
    assert_eq!(graph.radix(0) * RouterParams::paper().vcs, 66);
    let r = storm(graph, RoutingAlg::FatTree(ft), nodes);
    assert_eq!(
        digest(&r),
        "69b3f216bc8bb44591ffca6daba2a0ccfdf51e4c4883d1e6c9f9226e9c3c423d"
    );
}

#[test]
fn dragonfly_radix23_two_word_request_sets_are_pinned() {
    // Seven groups connect the last global port (slot 5 of each group's
    // first router), whose input queues sit at bits 66..69.
    let df = Dragonfly::with_groups(6, 7);
    let nodes = df.node_count() as u32;
    let graph = df.build_graph(10_000, 100_000);
    assert_eq!(graph.radix(0) * RouterParams::paper().vcs, 69);
    let r = storm(graph, RoutingAlg::Dragonfly(df), nodes);
    assert_eq!(
        digest(&r),
        "465058c3c4cf6050f8e3cd56f6ccfdc8dbc99d80a43ccc26f3d0e52737eed33a"
    );
}
