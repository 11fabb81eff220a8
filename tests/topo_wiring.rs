//! The staged topologies' inter-stage wiring, pinned by digest.
//!
//! Every `(stage, switch, dir)` candidate list, walked in stage, switch,
//! dir, path order, is serialized as little-endian `(switch, port)` pairs
//! and hashed with SHA-256. The digests were recorded with the original
//! per-switch nested link lists, so any change to how the wiring is stored
//! or computed must reproduce the same targets in the same order.

use baldur::topo::multibutterfly::{LinkTarget, Wiring};
use baldur::topo::{MultiButterfly, Omega};

const SEED: u64 = 0xBA1D;

fn push(bytes: &mut Vec<u8>, t: LinkTarget) {
    bytes.extend_from_slice(&t.switch.to_le_bytes());
    bytes.extend_from_slice(&t.port.to_le_bytes());
}

fn mb_digest(mb: &MultiButterfly) -> String {
    let m = mb.multiplicity() as usize;
    let mut bytes = Vec::new();
    for stage in 0..mb.stages() - 1 {
        for switch in 0..mb.switches_per_stage() {
            for dir in 0..2 {
                let targets = mb.next_targets(stage, switch, dir).expect("inner stage");
                assert_eq!(targets.len(), m);
                for t in targets {
                    push(&mut bytes, t);
                }
            }
        }
    }
    assert!(mb.next_targets(mb.stages() - 1, 0, 0).is_none());
    assert!(mb.validate().is_ok());
    baldur::hash::hex_digest(&bytes)
}

#[test]
fn randomized_1k_m4_wiring_is_pinned() {
    let mb = MultiButterfly::with_wiring(1024, 4, SEED, Wiring::Randomized);
    assert_eq!(
        mb_digest(&mb),
        "d8ac3898b06ea38931e8facd5ec0c2cb3395a072204f0630cd2f2540af9f819a"
    );
}

#[test]
fn randomized_16k_m5_wiring_is_pinned() {
    let mb = MultiButterfly::with_wiring(16_384, 5, SEED, Wiring::Randomized);
    assert_eq!(
        mb_digest(&mb),
        "f5143fb5808ef98ddd16d6c99151d2e6cc80dbf9c5995ff235d18b79beac790d"
    );
}

#[test]
fn dilated_64_m2_wiring_is_pinned() {
    let mb = MultiButterfly::with_wiring(64, 2, SEED, Wiring::Dilated);
    assert_eq!(
        mb_digest(&mb),
        "d555cf12a648caf6d472d9b710dd5fbcd348fdebf7064c3bc2add44e55aaefd5"
    );
}

#[test]
fn omega_64_m2_wiring_is_pinned() {
    let omega = Omega::new(64, 2);
    let mut bytes = Vec::new();
    for stage in 0..omega.stages() - 1 {
        for switch in 0..omega.switches_per_stage() {
            for dir in 0..2 {
                for path in 0..omega.multiplicity() {
                    push(
                        &mut bytes,
                        omega.target(stage, switch, dir, path).expect("inner stage"),
                    );
                }
            }
        }
    }
    assert!(omega.target(omega.stages() - 1, 0, 0, 0).is_none());
    assert_eq!(
        baldur::hash::hex_digest(&bytes),
        "c05b973e2f5888ac09f9d33fddb50b0a172c6f6997e659a657bf05504ecb0ab4"
    );
}
