//! Order statistics shared by every workload.

/// Ceiling nearest-rank percentile of an ascending sample: the smallest
/// value with at least `p` of the sample at or below it
/// (`idx = ⌈p·n⌉ − 1`). Empty samples give `NaN`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the nearest-rank `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// 1-based nearest rank `⌈p·n⌉` in `1..=n` (`n ≥ 1`). The epsilon keeps
/// products such as `0.95 × 200` from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 8] = [0.50, 0.75, 0.90, 0.95, 0.98, 0.99, 0.995, 0.999];

/// The tail percentile for `n` samples: the highest ladder entry with at
/// least ten samples beyond it, capped at `cap` so that a faster engine,
/// which fits more samples into the same run, is still compared at the
/// same percentile. `None` when even the median has fewer than ten
/// samples beyond it.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| p <= cap && beyond(n, p) >= 10)
}

/// A latency summary: median plus the tail percentile chosen by
/// [`tail_percentile`].
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
}

impl Latency {
    /// Summarise `samples` (any order). A sample too small for the
    /// ten-beyond rule reports its maximum as the tail, at p100.
    pub fn of(samples: &[f64], cap: f64) -> Latency {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (tail_p, tail) = match tail_percentile(v.len(), cap) {
            Some(p) => (p, percentile(&v, p)),
            None => (1.0, percentile(&v, 1.0)),
        };
        Latency {
            n: v.len(),
            p50: percentile(&v, 0.5),
            tail_p,
            tail,
        }
    }

    /// `p95 (n=240, 12 beyond)`.
    pub fn tail_note(&self) -> String {
        format!(
            "p{} (n={}, {} beyond)",
            fmt_pct(self.tail_p),
            self.n,
            beyond(self.n, self.tail_p)
        )
    }
}

fn fmt_pct(p: f64) -> String {
    let s = format!("{:.1}", p * 100.0);
    s.trim_end_matches(".0").to_string()
}

/// Median (nearest-rank) of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_ceiling_nearest_rank() {
        let v: Vec<f64> = (1..=160).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 159.0); // ⌈158.4⌉ = 159
        assert_eq!(percentile(&v, 0.50), 80.0);
        assert_eq!(percentile(&v, 1.00), 160.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.75), 3.0);
        assert_eq!(percentile(&v, 0.95), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(160, 0.99), 1);
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(40, 0.75), 10);
        assert_eq!(beyond(4, 0.5), 2);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // Too few samples for even the median.
        assert_eq!(tail_percentile(19, 1.0), None);
        assert_eq!(tail_percentile(20, 1.0), Some(0.50));
        assert_eq!(tail_percentile(39, 1.0), Some(0.50));
        assert_eq!(tail_percentile(40, 1.0), Some(0.75));
        assert_eq!(tail_percentile(99, 1.0), Some(0.75));
        assert_eq!(tail_percentile(100, 1.0), Some(0.90));
        assert_eq!(tail_percentile(200, 1.0), Some(0.95));
        assert_eq!(tail_percentile(1000, 1.0), Some(0.99));
        assert_eq!(tail_percentile(10_000, 1.0), Some(0.999));
        // The cap holds the percentile still as the sample grows.
        assert_eq!(tail_percentile(10_000, 0.95), Some(0.95));
        assert_eq!(tail_percentile(60, 0.95), Some(0.75));
    }

    #[test]
    fn latency_summary_reports_its_percentile() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let l = Latency::of(&v, 1.0);
        assert_eq!((l.n, l.p50, l.tail_p, l.tail), (200, 100.0, 0.95, 190.0));
        assert_eq!(l.tail_note(), "p95 (n=200, 10 beyond)");
        let l = Latency::of(&[3.0, 1.0, 2.0], 1.0);
        assert_eq!((l.p50, l.tail_p, l.tail), (2.0, 1.0, 3.0));
        assert_eq!(Latency::of(&v, 0.995).tail_note(), "p95 (n=200, 10 beyond)");
    }
}
