//! The host-clock side of the bench harness.
//!
//! This module is the **only** place in the repository allowed to read
//! `std::time::Instant` (the repo-wide determinism lint enforces it).
//! It supplies the monotonic nanosecond source and the peak-RSS probe
//! behind `scaling`'s advisory `wall_ns` and `peak_rss_bytes` columns;
//! nothing it measures is gated.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call (the process epoch).
///
/// This is the function pointer handed to the clock-free core; only
/// deltas are ever meaningful.
pub fn monotonic_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident-set size of this process in bytes: the `VmHWM` line of
/// `/proc/self/status`, kilobytes scaled up. Zero when the file is
/// missing or malformed (non-Linux, stripped procfs) — memory reporting
/// is advisory, exactly like the wall clock.
///
/// Lives here with the other OS reads: the clock-free core calls this
/// through the probe installed by [`install_for_registry`].
pub fn peak_rss_bytes_os() -> u64 {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").unwrap_or_default())
}

/// Extracts `VmHWM:  <n> kB` from a `/proc/self/status` body, in bytes.
pub fn parse_vm_hwm(status: &str) -> u64 {
    for line in status.lines() {
        let Some(rest) = line.strip_prefix("VmHWM:") else {
            continue;
        };
        let kb: u64 = rest
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .unwrap_or(0);
        return kb.saturating_mul(1024);
    }
    0
}

/// Arms the clock-free core for a bench-binary run: installs
/// [`monotonic_ns`] as the wall-clock source and [`peak_rss_bytes_os`]
/// as the memory probe.
pub fn install_for_registry() {
    baldur::experiments::install_wall_clock(monotonic_ns);
    baldur::experiments::install_memory_probe(peak_rss_bytes_os);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_ns_is_nondecreasing() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }

    #[test]
    fn parse_vm_hwm_reads_kilobytes() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nThreads:\t8\n";
        assert_eq!(parse_vm_hwm(status), 123_456 * 1024);
        assert_eq!(parse_vm_hwm("Name:\tperf\n"), 0);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), 0);
    }

    #[test]
    fn peak_rss_probe_is_positive_on_linux() {
        // The test process has touched memory; /proc is present on the
        // CI image. Elsewhere the probe degrades to zero by contract.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes_os() > 0);
        }
    }
}
