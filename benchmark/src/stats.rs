//! Aggregation helpers: timing populations, percentiles, and the
//! attempted/failed tally behind `wrong_verdict_share`.

/// The `p`-th percentile (0 < p ≤ 100) of `sorted` by nearest rank: the
/// smallest sample with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty population");
    assert!((1..=100).contains(&p), "percentile {p} outside 1..=100");
    sorted[rank(sorted.len(), p) - 1]
}

/// One-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).max(1)
}

/// The highest whole percentile of `n` samples that still has at least
/// ten samples beyond it, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
}

/// A homogeneous population of wall times, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    samples: Vec<f64>,
}

impl Timing {
    /// Adds one sample.
    pub fn push(&mut self, ms: f64) {
        self.samples.push(ms);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        s
    }

    /// The `p`-th percentile, or `None` on an empty population.
    pub fn percentile(&self, p: u32) -> Option<f64> {
        (!self.is_empty()).then(|| percentile(&self.sorted(), p))
    }

    /// The median, or `None` on an empty population.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(50)
    }

    /// The arithmetic mean, or `None` on an empty population. Unlike the
    /// median it moves smoothly with the share of slow samples, so it
    /// does not jump when a box that alternates between two speeds
    /// spends a little more than half a run in the slower one.
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.samples.iter().sum::<f64>() / self.len() as f64)
    }

    /// `"mean M ms, p50 X ms, pT Y ms (n=N)"`, with `T` the highest
    /// percentile that has ten samples beyond it.
    pub fn describe(&self) -> String {
        let (Some(mean), Some(p50)) = (self.mean(), self.p50()) else {
            return "no samples".to_string();
        };
        let tail = match tail_percentile(self.len()) {
            Some(p) => format!(", p{p} {:.3} ms", self.percentile(p).unwrap_or(p50)),
            None => String::new(),
        };
        format!("mean {mean:.3} ms, p50 {p50:.3} ms{tail} (n={})", self.len())
    }
}

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errored or got a wrong verdict).
    pub failed: u64,
}

impl Tally {
    /// Accounts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn wrong_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Verdict accounting plus a timing population that skips warm-up: every
/// operation counts toward the tally, but warm-up operations (the cold
/// first solve) contribute no timing.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Timings of the operations after warm-up.
    pub timing: Timing,
    /// Every operation, warm-up included.
    pub tally: Tally,
}

impl Ledger {
    /// Accounts one operation that took `ms` and was right when `ok`;
    /// a `warmup` operation is tallied but not timed.
    pub fn record(&mut self, ms: f64, ok: bool, warmup: bool) {
        self.tally.record(ok);
        if !warmup {
            self.timing.push(ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 91), 10.0);
        assert_eq!(percentile(&v, 100), 10.0);
        assert_eq!(percentile(&[7.0], 1), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(30), Some(66));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 20..2000 {
            let p = tail_percentile(n).expect("n >= 20 has a tail");
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(n - rank(n, p + 1) < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn timing_describes_median_tail_and_count() {
        let mut t = Timing::default();
        assert_eq!(t.describe(), "no samples");
        for i in 1..=100 {
            t.push(f64::from(i));
        }
        assert_eq!(t.p50(), Some(50.0));
        assert_eq!(t.mean(), Some(50.5));
        assert_eq!(
            t.describe(),
            "mean 50.500 ms, p50 50.000 ms, p90 90.000 ms (n=100)"
        );
        let mut small = Timing::default();
        assert_eq!(small.mean(), None);
        small.push(2.0);
        assert_eq!(small.describe(), "mean 2.000 ms, p50 2.000 ms (n=1)");
    }

    #[test]
    fn mean_moves_smoothly_where_the_median_jumps() {
        // Two speeds, 6 ms and 9 ms: the median jumps from one to the
        // other as the slow share crosses one half; the mean moves by a
        // thirtieth of the gap per sample.
        let run = |slow: usize| {
            let mut t = Timing::default();
            for i in 0..30 {
                t.push(if i < slow { 9.0 } else { 6.0 });
            }
            t
        };
        let (a, b) = (run(14), run(16));
        assert_eq!((a.p50(), b.p50()), (Some(6.0), Some(9.0)));
        let step = b.mean().unwrap() - a.mean().unwrap();
        assert!((step - 2.0 * 3.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_is_tallied_but_not_timed() {
        let mut l = Ledger::default();
        l.record(500.0, false, true);
        l.record(10.0, true, false);
        l.record(12.0, true, false);
        assert_eq!(
            l.tally,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        assert_eq!(l.timing.len(), 2);
        assert_eq!(l.timing.p50(), Some(10.0));
        assert!((l.tally.wrong_share() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tally_has_no_wrong_share() {
        assert_eq!(Tally::default().wrong_share(), 0.0);
    }
}
