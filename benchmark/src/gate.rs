//! The output gate: what makes a cell's simulated result correct.
//!
//! * conservation — every generated packet has exactly one terminal
//!   outcome: `generated == delivered + abandoned + expired + ingress_drops`;
//! * fingerprint — the SHA-256 of the serialized `LatencyReport` matches
//!   the one pinned in `expected.json` for [`DEFAULT_SEED`], and, for any
//!   seed, the one of the run's first repetition;
//! * projection — the traced rebuild of a cell reproduces the untraced
//!   run's counts and latency bits (checked in `main.rs`).
//!
//! Oracle violations are simulated outputs, not failures: the starvation
//! watermark fires on some paper-faithful electrical cells, and the
//! fingerprint already pins how many.
//!
//! [`DEFAULT_SEED`]: crate::workloads::DEFAULT_SEED

use std::collections::BTreeMap;
use std::path::Path;

use baldur::net::metrics::LatencyReport;
use serde::{Deserialize, Serialize};

/// The parts of a report that a traced rebuild must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Projection {
    /// Events the kernel executed.
    pub events: u64,
    /// Packets the workload generated.
    pub generated: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets abandoned after the retry limit.
    pub abandoned: u64,
    /// Packets expired past their deadline.
    pub expired: u64,
    /// Packets refused at a bounded ingress queue.
    pub ingress_drops: u64,
    /// Forwarding attempts that ended in a drop.
    pub drop_attempts: u64,
    /// Source retransmissions.
    pub retransmissions: u64,
    /// Network traversals, retransmissions included.
    pub injections: u64,
    /// Bits of the mean latency.
    pub avg_bits: u64,
    /// Bits of the 99th-percentile latency.
    pub p99_bits: u64,
}

impl Projection {
    /// Projects `r`.
    pub fn of(r: &LatencyReport) -> Projection {
        Projection {
            events: r.events,
            generated: r.generated,
            delivered: r.delivered,
            abandoned: r.abandoned,
            expired: r.expired,
            ingress_drops: r.ingress_drops,
            drop_attempts: r.drop_attempts,
            retransmissions: r.retransmissions,
            injections: r.injections,
            avg_bits: r.avg_ns.to_bits(),
            p99_bits: r.p99_ns.to_bits(),
        }
    }

    /// Whether every generated packet reached exactly one terminal outcome.
    pub fn conserves(&self) -> bool {
        self.generated == self.delivered + self.abandoned + self.expired + self.ingress_drops
    }
}

/// SHA-256 (hex) of the report's exact serialization.
pub fn fingerprint(r: &LatencyReport) -> String {
    let text = serde_json::to_string_exact(r).expect("the vendored renderer never fails");
    baldur::hash::hex_digest(text.as_bytes())
}

/// Pinned fingerprints: workload → cell id → fingerprint.
pub type Expected = BTreeMap<String, BTreeMap<String, String>>;

/// Reads `expected.json` (an absent file pins nothing).
pub fn load_expected(path: &Path) -> Result<Expected, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Expected::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Writes `expected.json`.
pub fn save_expected(path: &Path, expected: &Expected) -> Result<(), String> {
    let text = serde_json::to_string_pretty(expected).expect("the vendored renderer never fails");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}
