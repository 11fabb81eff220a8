//! Failed-edge masking for staged topologies.
//!
//! A fault-injection layer needs to take individual inter-stage links out
//! of service without rebuilding the topology. [`EdgeMask`] is a dense
//! bitset over the `(stage, output-port)` space of a staged network: the
//! network model consults it during path arbitration and simply skips
//! masked ports, so a failed link behaves exactly like a permanently busy
//! one (failure-aware routing falls out of the ordinary multiplicity
//! scan).
//!
//! The mask is dimension-agnostic: callers index ports however the owning
//! model does (Baldur uses `switch * 2m + dir * m + path`).

/// A dense failed-edge bitset over `(stage, port)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeMask {
    stages: u32,
    ports_per_stage: u32,
    failed: Vec<bool>,
    failed_count: usize,
}

impl EdgeMask {
    /// An all-healthy mask for `stages` stages of `ports_per_stage`
    /// output ports each.
    pub fn new(stages: u32, ports_per_stage: u32) -> Self {
        EdgeMask {
            stages,
            ports_per_stage,
            failed: vec![false; stages as usize * ports_per_stage as usize],
            failed_count: 0,
        }
    }

    fn index(&self, stage: u32, port: u32) -> Option<usize> {
        if stage < self.stages && port < self.ports_per_stage {
            Some((stage * self.ports_per_stage + port) as usize)
        } else {
            None
        }
    }

    /// Marks the edge behind `(stage, port)` as failed. Out-of-range
    /// coordinates are ignored (a fault plan may be written for a larger
    /// topology than the one under test).
    pub fn fail(&mut self, stage: u32, port: u32) {
        if let Some(i) = self.index(stage, port) {
            if !self.failed[i] {
                self.failed[i] = true;
                self.failed_count += 1;
            }
        }
    }

    /// Returns the edge behind `(stage, port)` to service.
    pub fn restore(&mut self, stage: u32, port: u32) {
        if let Some(i) = self.index(stage, port) {
            if self.failed[i] {
                self.failed[i] = false;
                self.failed_count -= 1;
            }
        }
    }

    /// True when `(stage, port)` is currently failed.
    #[inline]
    pub fn is_failed(&self, stage: u32, port: u32) -> bool {
        match self.index(stage, port) {
            Some(i) => self.failed[i],
            None => false,
        }
    }

    /// True when no edge is failed — the hot-path fast-out.
    #[inline]
    pub fn is_all_healthy(&self) -> bool {
        self.failed_count == 0
    }

    /// Number of currently failed edges.
    pub fn failed_count(&self) -> usize {
        self.failed_count
    }

    /// Clears every failure.
    pub fn restore_all(&mut self) {
        self.failed.iter_mut().for_each(|f| *f = false);
        self.failed_count = 0;
    }

    /// Bytes reserved by the flag table (capacity, not occupancy).
    pub fn state_bytes(&self) -> u64 {
        self.failed.capacity() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_and_restore_round_trip() {
        let mut m = EdgeMask::new(3, 8);
        assert!(m.is_all_healthy());
        m.fail(1, 5);
        m.fail(2, 0);
        assert!(m.is_failed(1, 5));
        assert!(m.is_failed(2, 0));
        assert!(!m.is_failed(0, 5));
        assert_eq!(m.failed_count(), 2);
        m.restore(1, 5);
        assert!(!m.is_failed(1, 5));
        assert_eq!(m.failed_count(), 1);
        m.restore_all();
        assert!(m.is_all_healthy());
    }

    #[test]
    fn double_fail_counts_once() {
        let mut m = EdgeMask::new(2, 2);
        m.fail(0, 0);
        m.fail(0, 0);
        assert_eq!(m.failed_count(), 1);
        m.restore(0, 0);
        assert!(m.is_all_healthy());
    }

    #[test]
    fn out_of_range_is_ignored() {
        let mut m = EdgeMask::new(2, 4);
        m.fail(9, 9);
        m.restore(9, 9);
        assert!(m.is_all_healthy());
        assert!(!m.is_failed(9, 9));
    }
}
