//! Exact quantiles, streaming moments, and correlation measures.
//!
//! The characterization analyses mostly operate on per-method sample
//! vectors extracted from the trace store, so they use *exact* order
//! statistics here (as the paper's offline analysis pipeline would), while
//! online fleet aggregation uses [`crate::hist::LogHistogram`].

/// Returns the `q`-quantile of `sorted` using linear interpolation between
/// closest ranks, or `None` if the slice is empty.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or the slice is not sorted in debug
/// builds.
///
/// # Examples
///
/// ```
/// use rpclens_simcore::stats::percentile;
///
/// let v = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&v, 0.5), Some(2.5));
/// assert_eq!(percentile(&v, 1.0), Some(4.0));
/// ```
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0,1], got {q}"
    );
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    if sorted.is_empty() {
        return None;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sorts a sample vector and returns it, dropping non-finite values.
///
/// The result is the stable ascending sort. Without a `-0.0` among the
/// values, equal finite values have equal bits, so the sorted sequence is
/// unique and the faster unstable total-order sort yields exactly it.
pub fn sorted_finite(mut values: Vec<f64>) -> Vec<f64> {
    values.retain(|v| v.is_finite());
    if values.iter().any(|v| is_negative_zero(*v)) {
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    } else {
        values.sort_unstable_by(f64::total_cmp);
    }
    values
}

fn is_negative_zero(v: f64) -> bool {
    v == 0.0 && v.is_sign_negative()
}

/// The `q`-quantile of unsorted `values`, bit-identical to
/// `percentile(&sorted_finite(values), q)` but found by selection: only
/// the two ranks the interpolation reads are put in place.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn select_percentile(mut values: Vec<f64>, q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0,1], got {q}"
    );
    values.retain(|v| v.is_finite());
    if values.iter().any(|v| is_negative_zero(*v)) {
        // `-0.0 == 0.0` with different bits: which one a rank holds
        // depends on the stable sort's input order, so sort.
        return percentile(&sorted_finite(values), q);
    }
    if values.is_empty() {
        return None;
    }
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let (_, &mut lo_value, above) = values.select_nth_unstable_by(lo, f64::total_cmp);
    let hi_value = if hi == lo {
        lo_value
    } else {
        // `hi == lo + 1`: the smallest value above rank `lo`.
        *above
            .iter()
            .min_by(|a, b| a.total_cmp(b))
            .expect("hi is a rank")
    };
    Some(lo_value + (hi_value - lo_value) * frac)
}

/// A compact multi-quantile summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileSummary {
    /// Number of samples summarised.
    pub count: usize,
    /// 1st percentile.
    pub p01: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl QuantileSummary {
    /// Builds a summary from an unsorted sample vector, or `None` if empty
    /// after dropping non-finite values.
    pub fn from_samples(values: Vec<f64>) -> Option<Self> {
        Self::from_sorted(&sorted_finite(values))
    }

    /// Builds a summary from finite samples already sorted ascending, or
    /// `None` if there are none.
    pub fn from_sorted(sorted: &[f64]) -> Option<Self> {
        if sorted.is_empty() {
            return None;
        }
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some(QuantileSummary {
            count: sorted.len(),
            p01: percentile(sorted, 0.01)?,
            p10: percentile(sorted, 0.10)?,
            p50: percentile(sorted, 0.50)?,
            p90: percentile(sorted, 0.90)?,
            p95: percentile(sorted, 0.95)?,
            p99: percentile(sorted, 0.99)?,
            mean,
        })
    }

    /// Retrieves a named quantile; `q` must be one of the stored levels.
    pub fn get(&self, q: f64) -> Option<f64> {
        match q {
            0.01 => Some(self.p01),
            0.10 => Some(self.p10),
            0.50 => Some(self.p50),
            0.90 => Some(self.p90),
            0.95 => Some(self.p95),
            0.99 => Some(self.p99),
            _ => None,
        }
    }
}

/// Streaming mean/variance via Welford's algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineMoments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Population variance, or `None` if empty.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// Population standard deviation, or `None` if empty.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &OnlineMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        *self = OnlineMoments { n, mean, m2 };
    }
}

/// A mergeable streaming summary: count, sum, min, max, mean, variance.
///
/// This is the per-shard accumulator for parallel fleet runs: each worker
/// pushes its own observations, and the coordinator folds the shard
/// accumulators together with [`StreamingStats::merge`] in shard order.
/// Count, sum, min, and max merge exactly; mean and variance merge via
/// Chan's parallel update (numerically stable, but — like any floating
/// point reduction — the last few bits can differ from a single-pass
/// computation, so anything that must be bit-identical across shard
/// counts should be recomputed from merged exact state instead).
#[derive(Debug, Clone, Copy)]
pub struct StreamingStats {
    moments: OnlineMoments,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingStats {
    /// The empty accumulator stores the fold identities (`min = +inf`,
    /// `max = -inf`, `sum = 0`), which is what lets [`StreamingStats::push`]
    /// and [`StreamingStats::merge`] update the extremes unconditionally.
    /// The identities never escape: `min()`/`max()` gate on the count.
    fn default() -> Self {
        StreamingStats {
            moments: OnlineMoments::default(),
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation; non-finite values are ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        // No first-observation branch: the empty extremes are the fold
        // identities, so `min`/`max` fold unconditionally (cmov, not a
        // data-dependent jump).
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.sum += x;
        self.moments.push(x);
    }

    /// Number of (finite) observations.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count() > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count() > 0).then_some(self.max)
    }

    /// Mean of observations, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        self.moments.mean()
    }

    /// Population variance, or `None` if empty.
    pub fn variance(&self) -> Option<f64> {
        self.moments.variance()
    }

    /// Population standard deviation, or `None` if empty.
    pub fn std_dev(&self) -> Option<f64> {
        self.moments.std_dev()
    }

    /// Merges another accumulator into this one.
    ///
    /// Branchless at this level: the extremes and the sum fold
    /// unconditionally because the empty accumulator holds the fold
    /// identities (`+inf`/`-inf`/`0`). Only the moments update keeps its
    /// empty-side guards, inside [`OnlineMoments::merge`] — those
    /// preserve the exact bit patterns of the seeded-copy path, and in
    /// shard folds both sides are always non-empty so the guards are
    /// perfectly predicted.
    pub fn merge(&mut self, other: &StreamingStats) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.moments.merge(&other.moments);
    }
}

/// Pearson correlation coefficient of two equal-length slices, or `None` if
/// fewer than two points or either side has zero variance.
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// Spearman rank correlation of two equal-length slices.
///
/// Ties receive their average rank. Returns `None` under the same
/// conditions as [`pearson`].
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let rx = ranks(x);
    let ry = ranks(y);
    pearson(&rx, &ry)
}

/// Assigns average ranks (1-based) to a slice, averaging ties.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite"));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 0.25), Some(20.0));
        assert_eq!(percentile(&v, 0.5), Some(30.0));
        assert_eq!(percentile(&v, 0.875), Some(45.0));
        assert_eq!(percentile(&v, 1.0), Some(50.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn sorted_finite_drops_nan_and_sorts() {
        let v = sorted_finite(vec![3.0, f64::NAN, 1.0, f64::INFINITY, 2.0]);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    /// Tie-heavy samples of both signs with non-finite values to drop,
    /// and zeros of both signs when `signed_zeros`.
    fn tie_heavy(n: usize, seed: u64, signed_zeros: bool) -> Vec<f64> {
        let mut rng = crate::rng::Prng::seed_from(seed);
        let special = [
            0.0,
            f64::NAN,
            f64::INFINITY,
            if signed_zeros { -0.0 } else { -1.5 },
        ];
        (0..n)
            .map(|_| match rng.index(12) {
                i @ 0..=3 => special[i],
                i => (rng.index(64) as f64 - 8.0) * 0.125 * i as f64,
            })
            .collect()
    }

    #[test]
    fn sorted_finite_is_bit_identical_to_the_stable_sort() {
        for (n, seed) in [(0, 1), (1, 2), (2, 3), (17, 4), (5_000, 5)] {
            for v in [tie_heavy(n, seed, false), tie_heavy(n, seed, true)] {
                let mut stable: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
                stable.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&sorted_finite(v)), bits(&stable), "n={n}");
            }
        }
    }

    #[test]
    fn select_percentile_is_bit_identical_to_sorting() {
        let mut inputs = vec![vec![], vec![7.5], vec![2.0, 1.0], vec![3.0; 9]];
        for (n, seed) in [(2, 6), (3, 7), (101, 8), (100_000, 9)] {
            inputs.extend([tie_heavy(n, seed, false), tie_heavy(n, seed, true)]);
        }
        for v in inputs {
            for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
                let want = percentile(&sorted_finite(v.clone()), q).map(f64::to_bits);
                let got = select_percentile(v.clone(), q).map(f64::to_bits);
                assert_eq!(got, want, "n={} q={q}", v.len());
            }
        }
    }

    #[test]
    fn quantile_summary_orders_levels() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = QuantileSummary::from_samples(samples).unwrap();
        assert_eq!(s.count, 1000);
        assert!(s.p01 < s.p10 && s.p10 < s.p50 && s.p50 < s.p90);
        assert!(s.p90 < s.p95 && s.p95 < s.p99);
        assert!((s.p50 - 500.5).abs() < 1e-9);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert_eq!(s.get(0.5), Some(s.p50));
        assert_eq!(s.get(0.33), None);
    }

    #[test]
    fn quantile_summary_empty_is_none() {
        assert!(QuantileSummary::from_samples(vec![]).is_none());
        assert!(QuantileSummary::from_samples(vec![f64::NAN]).is_none());
    }

    #[test]
    fn online_moments_match_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = OnlineMoments::new();
        for &x in &data {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((m.variance().unwrap() - 4.0).abs() < 1e-12);
        assert!((m.std_dev().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn online_moments_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineMoments::new();
        let mut left = OnlineMoments::new();
        let mut right = OnlineMoments::new();
        for (i, &x) in data.iter().enumerate() {
            whole.push(x);
            if i < 37 {
                left.push(x);
            } else {
                right.push(x);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((left.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn pearson_detects_perfect_linearity() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 2.0).collect();
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_rejects_degenerate_inputs() {
        assert!(pearson(&[1.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[5.0, 5.0]).is_none());
        assert!(pearson(&[1.0, 2.0, 3.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn spearman_captures_monotone_nonlinear_relation() {
        let x: Vec<f64> = (1..100).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v.exp().min(1e300)).collect();
        // Nonlinear but perfectly monotone.
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ranks_average_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn streaming_stats_merge_with_empty_is_identity() {
        // The guard-free merge leans on the empty accumulator's identity
        // extremes; merging an empty side in either direction must leave
        // the populated accumulator's public view untouched.
        let mut s = StreamingStats::new();
        for x in [3.0, -1.5, 7.25] {
            s.push(x);
        }
        let mut merged = s;
        merged.merge(&StreamingStats::new());
        assert_eq!(merged.count(), s.count());
        assert_eq!(merged.sum(), s.sum());
        assert_eq!(merged.min(), s.min());
        assert_eq!(merged.max(), s.max());
        assert_eq!(merged.mean(), s.mean());
        assert_eq!(merged.variance(), s.variance());
        let mut seeded = StreamingStats::new();
        seeded.merge(&s);
        assert_eq!(seeded.count(), s.count());
        assert_eq!(seeded.min(), s.min());
        assert_eq!(seeded.max(), s.max());
        assert_eq!(seeded.mean(), s.mean());
        assert_eq!(seeded.variance(), s.variance());
        // Two empties stay empty (and keep yielding None).
        let mut e = StreamingStats::new();
        e.merge(&StreamingStats::new());
        assert_eq!(e.count(), 0);
        assert_eq!(e.min(), None);
        assert_eq!(e.max(), None);
    }

    proptest! {
        #[test]
        fn percentile_is_monotone_in_q(
            mut values in proptest::collection::vec(-1e6f64..1e6, 2..100),
            q1 in 0.0f64..=1.0,
            q2 in 0.0f64..=1.0,
        ) {
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let a = percentile(&values, lo).unwrap();
            let b = percentile(&values, hi).unwrap();
            prop_assert!(a <= b + 1e-9);
        }

        #[test]
        fn streaming_stats_sharded_merge_equals_single_pass(
            values in proptest::collection::vec(-1e6f64..1e6, 1..200),
            shards in 1usize..8,
        ) {
            let mut single = StreamingStats::new();
            for &x in &values {
                single.push(x);
            }
            // Partition into contiguous chunks as the fleet driver does,
            // then fold shard accumulators in order.
            let chunk = values.len().div_ceil(shards);
            let mut merged = StreamingStats::new();
            for part in values.chunks(chunk) {
                let mut local = StreamingStats::new();
                for &x in part {
                    local.push(x);
                }
                merged.merge(&local);
            }
            prop_assert_eq!(merged.count(), single.count());
            prop_assert_eq!(merged.min(), single.min());
            prop_assert_eq!(merged.max(), single.max());
            prop_assert!((merged.sum() - single.sum()).abs() <= 1e-6 * single.sum().abs().max(1.0));
            let (ms, ss) = (merged.mean().unwrap(), single.mean().unwrap());
            prop_assert!((ms - ss).abs() <= 1e-9 * ss.abs().max(1.0), "{} vs {}", ms, ss);
            let (mv, sv) = (merged.variance().unwrap(), single.variance().unwrap());
            prop_assert!((mv - sv).abs() <= 1e-6 * sv.abs().max(1.0), "{} vs {}", mv, sv);
        }

        #[test]
        fn correlation_is_bounded(
            x in proptest::collection::vec(-100.0f64..100.0, 3..50),
        ) {
            let y: Vec<f64> = x.iter().map(|v| v * 2.0 + (v * 17.0).sin()).collect();
            if let Some(r) = pearson(&x, &y) {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            }
            if let Some(r) = spearman(&x, &y) {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            }
        }
    }
}
