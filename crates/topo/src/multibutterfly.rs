//! The randomized multi-butterfly (paper Sec. IV, after Chong et al. \[14\]
//! and Upfal \[18\]).
//!
//! Structure: `log2(N)` stages of radix-2 switches with path multiplicity
//! `m` (each switch has `2m` input and `2m` output ports, `m` per logical
//! direction). At stage `s` the switches are partitioned into `2^s` sorting
//! groups by the destination bits already consumed; each switch's `m`
//! direction-`d` outputs connect to *random* switches in the direction-`d`
//! sub-group of the next stage, balanced so every next-stage switch receives
//! exactly `2m` links. This balanced random wiring is what gives the
//! "expansion" property that makes the network immune to worst-case
//! permutations.
//!
//! The same object describes both Baldur (bufferless optical switches) and
//! the electrical multi-butterfly baseline (buffered routers) — they differ
//! only in the switch model applied by `baldur-net`.
//!
//! Storage: one flat table with one `u32` per link, `switch << 1 | bit`.
//! Both wirings give round `r` of a direction the target ports `2r` and
//! `2r + 1`, and round `r` is path `r`, so the input port is always
//! `2 * path + bit` and is rebuilt on read: [`MultiButterfly::target`]
//! for one path, [`MultiButterfly::next_targets`] for all `m` in path
//! order. That is 4 bytes a link instead of a stored `(switch, port)`
//! pair's 8; about 42 MB at 128K endpoints and m = 5.
//!
//! Build: the table is `stages - 1` contiguous stage blocks of
//! `switches * 2m` links, and stage `s` draws only from its own
//! `(s, group, dir)` streams (`StreamRng::named(seed, "mbwire", ..)`) and
//! writes only its own block. So each inner stage is one job of
//! `baldur_sim::par`'s job loop, and the table is the same at any worker
//! count: which thread builds a stage changes neither its draws nor the
//! links they land on. Tables of at least 2^20 links (the 16K m = 5
//! build and up) use `par::thread_count(0)` workers, that is
//! `BALDUR_THREADS` or the machine's parallelism, at most one per stage;
//! smaller ones, every 1K build among them, run on the caller's thread,
//! where a spawned thread would cost more than the stages it takes. A
//! build inside a sweep job runs inline there (see `par`).

use std::sync::{Mutex, PoisonError};

use baldur_sim::par;
use baldur_sim::rng::StreamRng;
use serde::{Deserialize, Serialize};

use crate::graph::NodeId;

/// One inter-stage link target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkTarget {
    /// Switch index (within the whole next stage).
    pub switch: u32,
    /// Input port on that switch (0..2m).
    pub port: u32,
}

/// How the inter-stage links are arranged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Wiring {
    /// Balanced random wiring between sorting groups — the paper's
    /// multi-butterfly with the "expansion" property.
    Randomized,
    /// Conventional (dilated) butterfly wiring: all `m` direction-`d`
    /// links of a switch go to its single structural successor. Kept as
    /// the ablation baseline that *lacks* expansion and is therefore
    /// vulnerable to worst-case permutations.
    Dilated,
}

/// A randomized multi-butterfly topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiButterfly {
    nodes: u32,
    stages: u32,
    multiplicity: u32,
    wiring: Wiring,
    /// One flat table of every inter-stage link, one `u32` each: the
    /// target in stage+1 of (`stage`, `switch`, `dir`, `path`) sits at
    /// `((stage * switches + switch) * 2 + dir) * m + path` and holds
    /// `switch << 1 | bit`; the input port `2 * path + bit` is rebuilt by
    /// [`unpack`]. The final stage has no entries (its outputs go to
    /// nodes).
    links: Vec<u32>,
}

/// Link tables at least this long are built on several threads; see the
/// module doc.
const PARALLEL_LINKS: usize = 1 << 20;

/// Links in the table of a `nodes`-node build with multiplicity `m`: `2m`
/// per switch on every stage but the last.
fn link_count(nodes: u32, m: u32) -> usize {
    (nodes.trailing_zeros() as usize - 1) * (nodes / 2) as usize * 2 * m as usize
}

/// The stored form of the link on path `path` to input port
/// `2 * path + bit` of `switch`.
fn pack(switch: u32, bit: u32) -> u32 {
    switch << 1 | bit
}

/// Rebuilds the [`LinkTarget`] of the link stored as `link` on `path`.
#[inline]
fn unpack(link: u32, path: u32) -> LinkTarget {
    LinkTarget {
        switch: link >> 1,
        port: 2 * path + (link & 1),
    }
}

/// Fills `links`, the block of stage `s` (`switches * 2m` links, the
/// target of (`switch`, `dir`, `path`) at `(switch * 2 + dir) * m + path`),
/// from the stage's own random streams.
fn wire_stage(links: &mut [u32], s: u32, switches: u32, m: u32, seed: u64, wiring: Wiring) {
    let slot = |switch: u32, dir: u32, path: u32| {
        (switch as usize * 2 + dir as usize) * m as usize + path as usize
    };
    let groups = 1u32 << s;
    let group_width = switches / groups; // switches per group at s
    let next_width = group_width / 2; // switches per subgroup at s+1
    let mut slots: Vec<u32> = Vec::with_capacity(group_width as usize);
    for g in 0..groups {
        for dir in 0..2u32 {
            // Next-stage group `2g + dir` starts at this switch index
            // (groups are contiguous destination-row blocks).
            let next_group_base = (2 * g + dir) * next_width;
            match wiring {
                Wiring::Randomized => {
                    // Balanced random wiring: the m direction-`dir` outputs
                    // of the group_width source switches fill exactly the
                    // 2m inputs of the next_width target switches. Build m
                    // rounds; each round matches sources to target slots
                    // two-to-one via a shuffled slot list.
                    let mut rng = StreamRng::named(
                        seed,
                        "mbwire",
                        (u64::from(s) << 40) | (u64::from(g) << 8) | u64::from(dir),
                    );
                    for round in 0..m {
                        // Each round hands every target switch exactly 2
                        // links, on its input ports (2*round) and
                        // (2*round + 1).
                        slots.clear();
                        slots.extend((0..next_width).flat_map(|t| {
                            let switch = next_group_base + t;
                            [pack(switch, 0), pack(switch, 1)]
                        }));
                        rng.shuffle(&mut slots);
                        for (src, &target) in slots.iter().enumerate() {
                            let switch = g * group_width + src as u32;
                            links[slot(switch, dir, round)] = target;
                        }
                    }
                }
                Wiring::Dilated => {
                    // Conventional butterfly fold: sources i and
                    // i + next_width both map to target i % next_width;
                    // each contributes m links on disjoint port halves.
                    for src in 0..group_width {
                        let switch = g * group_width + src;
                        let target = next_group_base + src % next_width;
                        let half = src / next_width; // 0 or 1
                        for round in 0..m {
                            links[slot(switch, dir, round)] = pack(target, half);
                        }
                    }
                }
            }
        }
    }
}

impl MultiButterfly {
    /// Builds a multi-butterfly for `nodes` servers (a power of two ≥ 4)
    /// with path multiplicity `multiplicity`, wiring randomized by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not a power of two ≥ 4 or `multiplicity` is 0.
    pub fn new(nodes: u32, multiplicity: u32, seed: u64) -> Self {
        Self::with_wiring(nodes, multiplicity, seed, Wiring::Randomized)
    }

    /// Builds with an explicit [`Wiring`] mode (`seed` is unused for
    /// [`Wiring::Dilated`]).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not a power of two ≥ 4 or `multiplicity` is 0.
    pub fn with_wiring(nodes: u32, multiplicity: u32, seed: u64, wiring: Wiring) -> Self {
        assert!(
            nodes >= 4 && nodes.is_power_of_two(),
            "nodes must be a power of two >= 4"
        );
        assert!(multiplicity >= 1, "multiplicity must be >= 1");
        let workers = if link_count(nodes, multiplicity) >= PARALLEL_LINKS {
            par::thread_count(0)
        } else {
            1
        };
        Self::build(nodes, multiplicity, seed, wiring, workers)
    }

    /// [`MultiButterfly::with_wiring`] on `workers` threads (inputs
    /// already checked): one job per inner stage, each owning its stage's
    /// block of the table.
    fn build(nodes: u32, m: u32, seed: u64, wiring: Wiring, workers: usize) -> Self {
        let stages = nodes.trailing_zeros();
        let switches = nodes / 2;
        let stride = switches as usize * 2 * m as usize; // links per stage
        let mut links = vec![u32::MAX; link_count(nodes, m)];
        let jobs: Vec<(u32, Mutex<&mut [u32]>)> = (0..)
            .zip(links.chunks_exact_mut(stride))
            .map(|(s, block)| (s, Mutex::new(block)))
            .collect();
        par::par_map(workers, jobs, |(s, block)| {
            // Only this job ever locks its block, so the lock is never
            // poisoned when taken.
            let mut block = block.lock().unwrap_or_else(PoisonError::into_inner);
            wire_stage(&mut block, *s, switches, m, seed, wiring);
        });

        MultiButterfly {
            nodes,
            stages,
            multiplicity: m,
            wiring,
            links,
        }
    }

    /// The wiring mode this instance was built with.
    pub fn wiring(&self) -> Wiring {
        self.wiring
    }

    /// Number of server nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Number of stages (`log2(nodes)`).
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Switches per stage (`nodes / 2`).
    pub fn switches_per_stage(&self) -> u32 {
        self.nodes / 2
    }

    /// Total switches in the network.
    pub fn total_switches(&self) -> u64 {
        u64::from(self.stages) * u64::from(self.switches_per_stage())
    }

    /// Path multiplicity m.
    pub fn multiplicity(&self) -> u32 {
        self.multiplicity
    }

    /// The first-stage switch a node injects into.
    pub fn ingress_switch(&self, node: NodeId) -> u32 {
        node.0 / 2
    }

    /// The routing bits for `dst`, most-significant first: bit `s` selects
    /// the direction at stage `s`.
    pub fn routing_bits(&self, dst: NodeId) -> Vec<bool> {
        (0..self.stages)
            .rev()
            .map(|b| (dst.0 >> b) & 1 == 1)
            .collect()
    }

    /// The direction (0 or 1) a packet for `dst` takes at `stage`.
    pub fn direction(&self, dst: NodeId, stage: u32) -> u32 {
        (dst.0 >> (self.stages - 1 - stage)) & 1
    }

    /// Index of (`stage`, `switch`, `dir`, `path`) in the link table.
    #[inline]
    fn link_index(&self, stage: u32, switch: u32, dir: u32, path: u32) -> usize {
        let m = self.multiplicity as usize;
        ((stage as usize * self.switches_per_stage() as usize + switch as usize) * 2 + dir as usize)
            * m
            + path as usize
    }

    /// The `m` candidate next-stage targets for (`stage`, `switch`,
    /// `dir`), in path order. For the final stage this is `None`: the
    /// packet exits to [`MultiButterfly::egress_node`].
    pub fn next_targets(
        &self,
        stage: u32,
        switch: u32,
        dir: u32,
    ) -> Option<impl ExactSizeIterator<Item = LinkTarget> + '_> {
        let m = self.multiplicity;
        let at = self.link_index(stage, switch, dir, 0);
        let links = self.links.get(at..at + m as usize)?;
        Some(links.iter().zip(0..m).map(|(&l, path)| unpack(l, path)))
    }

    /// The `path`-th candidate next-stage target from (`stage`,
    /// `switch`, `dir`); `None` at the final stage or for `path >= m`.
    #[inline]
    pub fn target(&self, stage: u32, switch: u32, dir: u32, path: u32) -> Option<LinkTarget> {
        if path >= self.multiplicity {
            return None;
        }
        let link = *self.links.get(self.link_index(stage, switch, dir, path))?;
        Some(unpack(link, path))
    }

    /// Bytes the link table reserves (the topology's share of a model's
    /// state accounting).
    pub fn state_bytes(&self) -> u64 {
        (self.links.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// The node a final-stage switch's direction-`dir` outputs reach.
    pub fn egress_node(&self, final_switch: u32, dir: u32) -> NodeId {
        NodeId(2 * final_switch + dir)
    }

    /// Follows one concrete path (taking path index `path_choice % m` at
    /// every hop) and returns the switch sequence plus the destination
    /// reached — used by tests to prove deliverability.
    pub fn trace_route(&self, src: NodeId, dst: NodeId, path_choice: u32) -> (Vec<u32>, NodeId) {
        let mut switch = self.ingress_switch(src);
        let mut path = vec![switch];
        for s in 0..self.stages - 1 {
            let dir = self.direction(dst, s);
            let choice = path_choice % self.multiplicity;
            switch = self
                .target(s, switch, dir, choice)
                .expect("inner stage")
                .switch;
            path.push(switch);
        }
        let dir = self.direction(dst, self.stages - 1);
        (path, self.egress_node(switch, dir))
    }

    /// Checks the sorting-group invariants; used by tests and debug builds.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let switches = self.switches_per_stage();
        let m = self.multiplicity as usize;
        let stride = switches as usize * 2 * m;
        if self.links.len() != (self.stages as usize - 1) * stride {
            return Err(format!("link table holds {} entries", self.links.len()));
        }
        // Each target input port must be used exactly once per stage:
        // `used[switch * 2m + port]`, cleared between stages.
        let mut used = vec![false; stride];
        for (s, stage_links) in self.links.chunks_exact(stride).enumerate() {
            let s = s as u32;
            let groups = 1u32 << (s + 1); // target groups at stage s+1
            let next_width = switches / groups;
            used.fill(false);
            for (i, &link) in stage_links.iter().enumerate() {
                let sw = (i / (2 * m)) as u32;
                let dir = ((i / m) % 2) as u32;
                let t = unpack(link, (i % m) as u32);
                let group = sw / (switches / (1 << s));
                let want_group = 2 * group + dir;
                let tg = t.switch / next_width;
                if tg != want_group {
                    return Err(format!(
                        "stage {s} switch {sw} dir {dir}: target {} in group {tg}, want {want_group}",
                        t.switch
                    ));
                }
                // In range: `tg == want_group` bounds `t.switch`, and
                // `t.port = 2 * path + bit < 2m` by construction.
                let slot = &mut used[t.switch as usize * 2 * m + t.port as usize];
                if *slot {
                    return Err(format!(
                        "stage {} target {}:{} double-filled",
                        s + 1,
                        t.switch,
                        t.port
                    ));
                }
                *slot = true;
            }
            if let Some(i) = used.iter().position(|&u| !u) {
                return Err(format!(
                    "stage {} switch {} has unfilled inputs",
                    s + 1,
                    i / (2 * m)
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(mb: &MultiButterfly, stage: u32, switch: u32, dir: u32) -> Vec<LinkTarget> {
        mb.next_targets(stage, switch, dir)
            .expect("inner stage")
            .collect()
    }

    #[test]
    fn small_network_dimensions() {
        let mb = MultiButterfly::new(16, 2, 1);
        assert_eq!(mb.stages(), 4);
        assert_eq!(mb.switches_per_stage(), 8);
        assert_eq!(mb.total_switches(), 32);
        assert!(mb.validate().is_ok());
    }

    #[test]
    fn every_path_reaches_the_right_destination() {
        let mb = MultiButterfly::new(64, 3, 7);
        assert!(mb.validate().is_ok());
        for src in 0..64 {
            for dst in (0..64).step_by(7) {
                for choice in 0..3 {
                    let (_, reached) = mb.trace_route(NodeId(src), NodeId(dst), choice);
                    assert_eq!(reached, NodeId(dst), "src {src} dst {dst} path {choice}");
                }
            }
        }
    }

    #[test]
    fn routing_bits_msb_first() {
        let mb = MultiButterfly::new(16, 1, 0);
        assert_eq!(
            mb.routing_bits(NodeId(0b1010)),
            vec![true, false, true, false]
        );
        assert_eq!(mb.direction(NodeId(0b1010), 0), 1);
        assert_eq!(mb.direction(NodeId(0b1010), 3), 0);
    }

    #[test]
    fn wiring_is_deterministic_per_seed() {
        let a = MultiButterfly::new(32, 4, 99);
        let b = MultiButterfly::new(32, 4, 99);
        let c = MultiButterfly::new(32, 4, 100);
        for s in 0..a.stages() - 1 {
            for sw in 0..a.switches_per_stage() {
                for d in 0..2 {
                    assert_eq!(targets(&a, s, sw, d), targets(&b, s, sw, d));
                }
            }
        }
        // A different seed rewires at least something.
        let differs = (0..a.switches_per_stage())
            .any(|sw| (0..2).any(|d| targets(&a, 0, sw, d) != targets(&c, 0, sw, d)));
        assert!(differs);
    }

    #[test]
    fn target_is_the_path_th_candidate_on_port_two_path_plus_bit() {
        for wiring in [Wiring::Randomized, Wiring::Dilated] {
            for m in 1..=5 {
                for nodes in [8, 64, 1024] {
                    let mb = MultiButterfly::with_wiring(nodes, m, 0xBA1D, wiring);
                    let last = mb.stages() - 1;
                    for s in 0..last {
                        for sw in 0..mb.switches_per_stage() {
                            for d in 0..2 {
                                assert_eq!(
                                    mb.next_targets(s, sw, d).map(|t| t.len()),
                                    Some(m as usize)
                                );
                                for p in 0..m {
                                    let t = mb.target(s, sw, d, p).expect("inner stage");
                                    let nth = mb
                                        .next_targets(s, sw, d)
                                        .and_then(|mut t| t.nth(p as usize));
                                    assert_eq!(Some(t), nth, "{wiring:?} m {m} n {nodes}");
                                    let link = mb.links[mb.link_index(s, sw, d, p)];
                                    assert_eq!(t.switch, link >> 1);
                                    assert_eq!(t.port, 2 * p + (link & 1));
                                }
                                assert_eq!(mb.target(s, sw, d, m), None, "path past m");
                            }
                        }
                    }
                    assert!(mb.next_targets(last, 0, 0).is_none());
                    assert_eq!(mb.target(last, 0, 0, 0), None);
                }
            }
        }
    }

    #[test]
    fn the_table_is_the_same_at_every_worker_count() {
        // Inner stages: 9 at 1K, 13 at 16K, 3 at 16 nodes. So 3 workers
        // split the stages unevenly, and 8 workers are more than 16
        // nodes has stages.
        for (nodes, m, wiring) in [
            (1024, 4, Wiring::Randomized),
            (16_384, 5, Wiring::Randomized),
            (1024, 4, Wiring::Dilated),
            (16, 2, Wiring::Randomized),
        ] {
            let serial = MultiButterfly::build(nodes, m, 0xBA1D, wiring, 1);
            assert!(serial.validate().is_ok());
            for workers in [2, 3, 8] {
                let parallel = MultiButterfly::build(nodes, m, 0xBA1D, wiring, workers);
                assert!(
                    parallel.links == serial.links,
                    "{wiring:?} {nodes} nodes m {m}: table differs at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn only_tables_past_the_cut_build_in_parallel() {
        // `tests/topo_wiring.rs` pins the 16K m = 5 table by digest, so
        // tier-1 covers the parallel path; every 1K build stays serial.
        assert_eq!(link_count(16_384, 5), 1_064_960);
        assert!(link_count(16_384, 5) >= PARALLEL_LINKS);
        assert_eq!(link_count(1024, 4), 36_864);
        assert!(link_count(1024, 5) < PARALLEL_LINKS);
        for (nodes, m) in [(16, 2), (1024, 4), (16_384, 5)] {
            let mb = MultiButterfly::new(nodes, m, 1);
            assert_eq!(mb.links.len(), link_count(nodes, m));
        }
    }

    #[test]
    fn validate_reports_a_double_filled_port() {
        for wiring in [Wiring::Randomized, Wiring::Dilated] {
            let mut mb = MultiButterfly::with_wiring(16, 2, 1, wiring);
            assert!(mb.validate().is_ok());
            // Switches 0 and 1 of stage 0 both feed group 0 in direction
            // 0: copying one's path-0 link onto the other's fills one
            // port twice (and leaves another empty).
            let (from, to) = (mb.link_index(0, 0, 0, 0), mb.link_index(0, 1, 0, 0));
            mb.links[to] = mb.links[from];
            let err = mb.validate().expect_err("a double-filled port");
            assert!(err.contains("double-filled"), "{wiring:?}: {err}");
        }
    }

    #[test]
    fn randomization_spreads_targets() {
        // With m=4 and a large first-stage group, a switch's 4 up-targets
        // should usually not all collide on one target switch.
        let mb = MultiButterfly::new(256, 4, 3);
        let mut all_same = 0;
        for sw in 0..mb.switches_per_stage() {
            let t = targets(&mb, 0, sw, 0);
            if t.iter().all(|x| x.switch == t[0].switch) {
                all_same += 1;
            }
        }
        assert!(all_same < 4, "{all_same} switches had fully-collided paths");
    }

    #[test]
    fn egress_nodes_cover_all_destinations() {
        let mb = MultiButterfly::new(32, 2, 5);
        let mut seen = [false; 32];
        for sw in 0..mb.switches_per_stage() {
            for d in 0..2 {
                seen[mb.egress_node(sw, d).0 as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        MultiButterfly::new(24, 2, 0);
    }

    #[test]
    fn dilated_wiring_is_valid_and_deterministic() {
        let a = MultiButterfly::with_wiring(64, 3, 1, Wiring::Dilated);
        let b = MultiButterfly::with_wiring(64, 3, 999, Wiring::Dilated);
        assert!(a.validate().is_ok());
        // Seed-independent: the structure is fixed.
        for s in 0..a.stages() - 1 {
            for sw in 0..a.switches_per_stage() {
                for d in 0..2 {
                    assert_eq!(targets(&a, s, sw, d), targets(&b, s, sw, d));
                }
            }
        }
        assert_eq!(a.wiring(), Wiring::Dilated);
    }

    #[test]
    fn dilated_wiring_still_delivers_correctly() {
        let mb = MultiButterfly::with_wiring(64, 2, 0, Wiring::Dilated);
        for src in (0..64).step_by(5) {
            for dst in (0..64).step_by(7) {
                for choice in 0..2 {
                    let (_, reached) = mb.trace_route(NodeId(src), NodeId(dst), choice);
                    assert_eq!(reached, NodeId(dst));
                }
            }
        }
    }

    #[test]
    fn dilated_lacks_path_diversity() {
        // All m links of a direction go to one successor: the defining
        // structural difference from the randomized multi-butterfly.
        let mb = MultiButterfly::with_wiring(256, 4, 0, Wiring::Dilated);
        for sw in 0..mb.switches_per_stage() {
            let t = targets(&mb, 0, sw, 0);
            assert!(t.iter().all(|x| x.switch == t[0].switch));
        }
    }
}
