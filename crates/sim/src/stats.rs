//! Summary statistics for latency reporting.
//!
//! The paper reports average and 99th-percentile ("tail") packet latency per
//! configuration, plus geometric means across workloads (Figure 7). This
//! module provides:
//!
//! * [`Streaming`] — Welford mean/variance + min/max without storing samples,
//! * [`Reservoir`] — exact percentiles over all samples (used at the scales
//!   this reproduction runs at), with an optional cap that degrades to
//!   uniform reservoir sampling,
//! * [`geometric_mean`] — for cross-workload aggregation.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance/min/max (Welford's algorithm).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Streaming {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Streaming {
    /// An empty accumulator.
    pub fn new() -> Self {
        Streaming {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Streaming) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance; `NaN` when empty.
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest observation; `NaN` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation; `NaN` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// Sample store with exact percentiles up to a capacity, degrading to
/// uniform reservoir sampling beyond it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    samples: Vec<f64>,
    // xorshift state for the reservoir replacement draws; deterministic.
    state: u64,
}

impl Reservoir {
    /// A reservoir that stores up to `cap` samples exactly.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "capacity must be positive");
        Reservoir {
            cap,
            seen: 0,
            samples: Vec::new(),
            state: 0x243F_6A88_85A3_08D3,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(x);
        } else {
            let j = self.next_u64() % self.seen;
            if (j as usize) < self.cap {
                self.samples[j as usize] = x;
            }
        }
    }

    /// Number of observations offered (not necessarily retained).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// True while every observation is retained, so percentiles are exact.
    pub fn is_exact(&self) -> bool {
        self.seen as usize <= self.cap
    }

    /// The `q`-quantile (`q` in `[0, 1]`) using nearest-rank interpolation;
    /// `NaN` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.samples.clone();
        // total_cmp gives NaN a fixed sort position (after +inf) instead of
        // panicking, so a single bad sample cannot abort a whole run.
        sorted.sort_by(f64::total_cmp);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// The paper's "tail latency": the 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// Geometric mean of strictly positive values; `NaN` for an empty slice.
///
/// # Panics
///
/// Panics if any value is non-positive.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_basic_moments() {
        let mut s = Streaming::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn streaming_merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0 + 50.0).collect();
        let mut whole = Streaming::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = Streaming::new();
        let mut b = Streaming::new();
        for &x in &data[..300] {
            a.push(x);
        }
        for &x in &data[300..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn reservoir_exact_quantiles() {
        let mut r = Reservoir::with_capacity(10_000);
        for i in 1..=100 {
            r.push(i as f64);
        }
        assert!(r.is_exact());
        assert!((r.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((r.quantile(1.0) - 100.0).abs() < 1e-12);
        assert!((r.quantile(0.5) - 50.5).abs() < 1e-12);
        assert!((r.p99() - 99.01).abs() < 1e-9);
    }

    #[test]
    fn reservoir_quantile_survives_nan_sample() {
        // Regression: sort_by(partial_cmp().expect()) used to abort on a
        // NaN sample. total_cmp sorts NaN after +inf, so finite quantiles
        // stay sane and only the extreme upper quantile sees the NaN.
        let mut r = Reservoir::with_capacity(100);
        for i in 1..=9 {
            r.push(i as f64);
        }
        r.push(f64::NAN);
        assert!((r.quantile(0.0) - 1.0).abs() < 1e-12);
        assert!((r.quantile(0.5) - 5.5).abs() < 1e-12);
        assert!(r.quantile(1.0).is_nan());
    }

    /// Independent reference: linear interpolation between order statistics
    /// on a fully sorted copy, written from the definition rather than by
    /// calling back into `Reservoir`.
    fn exact_quantile(data: &[f64], q: f64) -> f64 {
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = q * (sorted.len() as f64 - 1.0);
        let below = rank.floor() as usize;
        let above = rank.ceil() as usize;
        let w = rank - below as f64;
        sorted[below] + (sorted[above] - sorted[below]) * w
    }

    #[test]
    fn reservoir_quantiles_match_exact_sorted_reference() {
        // Several sizes, including ones that don't divide the quantile
        // grid evenly; xorshift data so values are unordered and distinct.
        for n in [1usize, 2, 3, 7, 100, 997] {
            let mut r = Reservoir::with_capacity(1000);
            let mut x = 0x9E37_79B9u64 | 1;
            let mut data = Vec::with_capacity(n);
            for _ in 0..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = (x % 1_000_003) as f64 / 7.0;
                r.push(v);
                data.push(v);
            }
            assert!(r.is_exact());
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let got = r.quantile(q);
                let want = exact_quantile(&data, q);
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "n={n} q={q}: got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn reservoir_single_sample_is_every_quantile() {
        let mut r = Reservoir::with_capacity(8);
        r.push(42.5);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(r.quantile(q), 42.5, "q={q}");
        }
    }

    #[test]
    fn reservoir_quantile_is_monotone_in_q() {
        let mut r = Reservoir::with_capacity(100);
        for i in 0..64u64 {
            r.push((i.wrapping_mul(0x9E37_79B9) % 1000) as f64);
        }
        let mut last = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = f64::from(i) / 100.0;
            let v = r.quantile(q);
            assert!(v >= last, "quantile regressed at q={q}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn reservoir_empty_quantile_is_nan() {
        let r = Reservoir::with_capacity(4);
        assert!(r.quantile(0.5).is_nan());
    }

    #[test]
    fn reservoir_sampling_stays_close() {
        let mut r = Reservoir::with_capacity(4096);
        for i in 0..100_000u64 {
            r.push(i as f64);
        }
        assert!(!r.is_exact());
        let med = r.quantile(0.5);
        assert!((med - 50_000.0).abs() < 5_000.0, "median {med}");
    }

    #[test]
    fn geomean() {
        assert!((geometric_mean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn geomean_rejects_nonpositive() {
        geometric_mean(&[1.0, 0.0]);
    }
}
