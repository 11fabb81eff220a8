//! Reproducible random-number streams.
//!
//! Every stochastic element of the reproduction (topology wiring, traffic
//! pattern pairing, inter-arrival draws, jitter injection) pulls from a
//! [`StreamRng`] derived from a master seed plus a named stream, so that a
//! run is a pure function of its configuration. ChaCha8 is used because it
//! is counter-based, portable across platforms, and fast enough to never
//! appear in profiles. The cipher core is implemented here directly (the
//! build environment has no crates.io access, so `rand_chacha` is
//! unavailable); the keystream is the standard ChaCha with 8 rounds, a
//! 64-bit block counter, and a zero nonce.

use std::ops::{Bound, RangeBounds};

/// Identifies an independent random stream within one experiment.
///
/// Streams derived from the same master seed but different labels/indices
/// are statistically independent, so e.g. re-wiring the topology does not
/// perturb the traffic draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId {
    /// Stable label for the subsystem (e.g. `b"topology"`).
    pub label: [u8; 8],
    /// Index within the subsystem (e.g. node id).
    pub index: u64,
}

impl StreamId {
    /// Creates a stream id from a label (at most 8 bytes, zero-padded) and
    /// an index.
    ///
    /// # Panics
    ///
    /// Panics if `label` is longer than 8 bytes.
    pub fn new(label: &[u8], index: u64) -> Self {
        assert!(label.len() <= 8, "stream label too long");
        let mut l = [0u8; 8];
        l[..label.len()].copy_from_slice(label);
        StreamId { label: l, index }
    }
}

/// The ChaCha8 keystream generator: 256-bit key, 64-bit block counter,
/// 64-bit (zero) nonce, eight rounds.
#[derive(Debug, Clone)]
struct ChaCha8 {
    /// Key words 4..12 of the initial state.
    key: [u32; 8],
    /// Block counter (state words 12..14).
    counter: u64,
    /// Current 16-word output block.
    block: [u32; 16],
    /// Next word to emit from `block`; 16 forces a refill.
    word_idx: usize,
}

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

impl ChaCha8 {
    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            key[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha8 {
            key,
            counter: 0,
            block: [0; 16],
            word_idx: 16,
        }
    }

    #[inline]
    fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(7);
    }

    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        // Nonce (words 14..16) stays zero: streams are separated by key.
        let initial = state;
        for _ in 0..4 {
            // One double round: a column round then a diagonal round.
            Self::quarter_round(&mut state, 0, 4, 8, 12);
            Self::quarter_round(&mut state, 1, 5, 9, 13);
            Self::quarter_round(&mut state, 2, 6, 10, 14);
            Self::quarter_round(&mut state, 3, 7, 11, 15);
            Self::quarter_round(&mut state, 0, 5, 10, 15);
            Self::quarter_round(&mut state, 1, 6, 11, 12);
            Self::quarter_round(&mut state, 2, 7, 8, 13);
            Self::quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, init) in state.iter_mut().zip(initial.iter()) {
            *out = out.wrapping_add(*init);
        }
        self.block = state;
        self.counter = self.counter.wrapping_add(1);
        self.word_idx = 0;
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.word_idx >= 16 {
            self.refill();
        }
        let w = self.block[self.word_idx];
        self.word_idx += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

/// Integer types [`StreamRng::gen_range`] can sample uniformly.
pub trait UniformInt: Copy {
    /// Widens to the sampling domain.
    fn to_u64(self) -> u64;
    /// Narrows back from the sampling domain (the value is guaranteed to
    /// fit by construction).
    fn from_u64(v: u64) -> Self;
    /// The largest representable value, widened.
    const MAX_U64: u64;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn to_u64(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_u64(v: u64) -> Self {
                v as $t
            }
            const MAX_U64: u64 = <$t>::MAX as u64;
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize);

/// Whether [`StreamRng::gen_range`] keeps the draw `v` for a range of
/// `span` values (`1 <= span < 2^64`): `v` must lie below the zone
/// `u64::MAX - u64::MAX % span`, the largest multiple of `span` below 2^64,
/// so that `v % span` is unbiased. The zone is at least
/// `u64::MAX - span + 1`, so the first test settles all but about
/// `span / 2^64` of the draws without a division.
#[inline]
fn accept(v: u64, span: u64) -> bool {
    v <= u64::MAX - span || v < u64::MAX - u64::MAX % span
}

/// A deterministic random stream.
#[derive(Debug, Clone)]
pub struct StreamRng {
    inner: ChaCha8,
}

impl StreamRng {
    /// Derives the stream identified by `id` from `master_seed`.
    pub fn derive(master_seed: u64, id: StreamId) -> Self {
        // SplitMix64-style mixing of (seed, label, index) into a 256-bit key.
        let mut state = master_seed ^ 0x9E37_79B9_7F4A_7C15;
        let label = u64::from_le_bytes(id.label);
        let mut key = [0u8; 32];
        let mut feed = |x: u64, out: &mut [u8]| {
            state = state.wrapping_add(x).wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            out.copy_from_slice(&z.to_le_bytes());
        };
        feed(master_seed, &mut key[0..8]);
        feed(label, &mut key[8..16]);
        feed(id.index, &mut key[16..24]);
        feed(label ^ id.index.rotate_left(17), &mut key[24..32]);
        StreamRng {
            inner: ChaCha8::from_seed(key),
        }
    }

    /// Convenience: derives a stream from a textual label.
    pub fn named(master_seed: u64, label: &str, index: u64) -> Self {
        Self::derive(master_seed, StreamId::new(label.as_bytes(), index))
    }

    /// The next 32 uniformly random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    /// The next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform sample from `range` (unbiased via rejection sampling).
    ///
    /// A draw `v` is kept when it lies below the largest multiple of the
    /// range's span that fits in 64 bits, and is then reduced with one
    /// `v % span`. That multiple is never below `u64::MAX - span + 1`, so
    /// every `v <= u64::MAX - span` is kept without computing it; only
    /// the rare draw above pays a second `%`. Which draws
    /// are kept, and so every value returned, is the same as testing the
    /// zone on each draw.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformInt,
        R: RangeBounds<T>,
    {
        let lo = match range.start_bound() {
            Bound::Included(&s) => s.to_u64(),
            Bound::Excluded(&s) => s.to_u64() + 1,
            Bound::Unbounded => 0,
        };
        let hi_inclusive = match range.end_bound() {
            Bound::Included(&e) => e.to_u64(),
            Bound::Excluded(&e) => {
                assert!(e.to_u64() > 0, "empty range");
                e.to_u64() - 1
            }
            Bound::Unbounded => T::MAX_U64,
        };
        assert!(lo <= hi_inclusive, "empty range");
        if lo == 0 && hi_inclusive == u64::MAX {
            return T::from_u64(self.next_u64());
        }
        let span = hi_inclusive - lo + 1;
        loop {
            let v = self.next_u64();
            if accept(v, span) {
                return T::from_u64(lo + v % span);
            }
        }
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw with success probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// An exponentially distributed sample with the given `mean`
    /// (inter-arrival draws for the open-loop traffic model, Sec. V-A Eq. 1).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        // Inverse CDF; 1-u avoids ln(0).
        let u = self.gen_f64();
        -mean * (1.0 - u).ln()
    }

    /// A normal sample (Marsaglia polar method), used for timing
    /// jitter (Sec. IV-F).
    pub fn gen_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        loop {
            let u = self.gen_f64() * 2.0 - 1.0;
            let v = self.gen_f64() * 2.0 - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return mu + sigma * u * factor;
            }
        }
    }

    /// Fisher–Yates shuffles `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i);
            slice.swap(i, j);
        }
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 test vector machinery only covers ChaCha20; cross-check the
    /// 8-round core against the independently published ChaCha8 keystream
    /// for the all-zero key and nonce (first block, words 0..4).
    #[test]
    fn chacha8_keystream_matches_reference() {
        let mut core = ChaCha8::from_seed([0u8; 32]);
        let first: Vec<u32> = (0..4).map(|_| core.next_u32()).collect();
        // From the eSTREAM/chacha reference implementation output
        // ("expand 32-byte k", zero key, zero IV, 8 rounds), first 16 bytes:
        // 3e00ef2f895f40d67f5bb8e81f09a5a1 2c840ec3ce9a7f3b181be188ef711a1e.
        let expected = [
            u32::from_le_bytes([0x3e, 0x00, 0xef, 0x2f]),
            u32::from_le_bytes([0x89, 0x5f, 0x40, 0xd6]),
            u32::from_le_bytes([0x7f, 0x5b, 0xb8, 0xe8]),
            u32::from_le_bytes([0x1f, 0x09, 0xa5, 0xa1]),
        ];
        assert_eq!(first, expected);
    }

    #[test]
    fn same_seed_same_stream_is_deterministic() {
        let mut a = StreamRng::named(42, "traffic", 7);
        let mut b = StreamRng::named(42, "traffic", 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = StreamRng::named(42, "traffic", 7);
        let mut b = StreamRng::named(42, "traffic", 8);
        let mut c = StreamRng::named(42, "topology", 7);
        let av: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let cv: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_ne!(av, bv);
        assert_ne!(av, cv);
        assert_ne!(bv, cv);
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = StreamRng::named(9, "range", 0);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v: usize = rng.gen_range(0..7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let v: u32 = rng.gen_range(5..=9);
            assert!((5..=9).contains(&v));
        }
    }

    /// The accept test `gen_range` made before the `v <= u64::MAX - span`
    /// shortcut: compute the zone on every draw.
    fn zone_accept(v: u64, span: u64) -> bool {
        v < u64::MAX - u64::MAX % span
    }

    #[test]
    fn accept_matches_the_zone_test_at_its_edges() {
        let spans = [
            1,
            2,
            3,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX,
        ];
        for span in spans {
            let zone = u64::MAX - u64::MAX % span;
            for v in [
                0,
                u64::MAX - span,
                u64::MAX - span + 1,
                zone - 1,
                zone,
                u64::MAX,
            ] {
                assert_eq!(accept(v, span), zone_accept(v, span), "v {v} span {span}");
            }
        }
    }

    /// `gen_range(lo..=hi)` as it was before the shortcut: two `%` a draw.
    fn two_modulo_gen_range(rng: &mut StreamRng, lo: u64, hi: u64) -> u64 {
        let span = hi - lo + 1;
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = rng.next_u64();
            if v < zone {
                return lo + v % span;
            }
        }
    }

    #[test]
    fn one_division_draws_match_the_two_modulo_draws() {
        let mut rng = StreamRng::named(0xBA1D, "mbwire", 7);
        let mut old = rng.clone();
        // Spans shrink as a 65,536-slot `shuffle`'s do, restarting at the
        // top; then spans just past 2^63, where half the draws are rejected.
        for k in 0..100_000u64 {
            let i = 65_535 - k % 65_535;
            let got: usize = rng.gen_range(0..=i as usize);
            assert_eq!(got as u64, two_modulo_gen_range(&mut old, 0, i), "draw {k}");
        }
        for k in 0..1_000u64 {
            let got: u64 = rng.gen_range(3..=(1 << 63) + 3);
            assert_eq!(
                got,
                two_modulo_gen_range(&mut old, 3, (1 << 63) + 3),
                "draw {k}"
            );
        }
        assert_eq!(rng.next_u64(), old.next_u64(), "streams end in step");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = StreamRng::named(1, "exp", 0);
        let n = 200_000;
        let mean = 163_840.0 / 0.7;
        let sum: f64 = (0..n).map(|_| rng.gen_exp(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!((sample_mean / mean - 1.0).abs() < 0.02, "{sample_mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = StreamRng::named(1, "norm", 0);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_normal(0.0, 1.237)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.53).abs() < 0.05, "var {var}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = StreamRng::named(3, "perm", 0);
        let p = rng.permutation(257);
        let mut seen = vec![false; 257];
        for &x in &p {
            assert!(!seen[x]);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "stream label too long")]
    fn long_label_panics() {
        StreamId::new(b"far-too-long-label", 0);
    }
}
