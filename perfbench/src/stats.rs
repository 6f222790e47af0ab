//! Latency summaries: the median plus the highest percentile the sample
//! supports, and deltas of the store's log2 histograms.

use faster_metrics::HistogramSnapshot;

/// Tail percentiles, in parts per million, highest first.
const TAILS_PPM: [u64; 6] = [999_990, 999_900, 999_000, 990_000, 900_000, 500_000];

/// Whether percentile `ppm` (parts per million) of `n` samples has at
/// least ten samples beyond it.
pub fn supported(n: usize, ppm: u64) -> bool {
    // n * (1 - p) >= 10, in integers: n * (1e6 - ppm) >= 10e6.
    (n as u128) * u128::from(1_000_000 - ppm) >= 10_000_000
}

/// The highest tail percentile (in ppm) with at least ten samples beyond
/// it, or `None` when even the median has fewer than ten above it.
pub fn highest_supported(n: usize) -> Option<u64> {
    TAILS_PPM.iter().copied().find(|&ppm| supported(n, ppm))
}

/// Nearest-rank percentile of an ascending slice.
pub fn nearest_rank(sorted: &[u64], ppm: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as u128 * u128::from(ppm)).div_ceil(1_000_000) as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Summary of one latency sample set, in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    /// The highest supported tail percentile as (percent, µs).
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    /// Summarizes nanosecond samples (sorted in place).
    pub fn from_ns(samples: &mut [u64]) -> Latency {
        samples.sort_unstable();
        let us = |ppm| nearest_rank(samples, ppm) as f64 / 1e3;
        Latency {
            samples: samples.len(),
            p50_us: us(500_000),
            p99_us: us(990_000),
            tail: highest_supported(samples.len()).map(|ppm| (ppm as f64 / 1e4, us(ppm))),
        }
    }

    /// One human-readable line: sample count, median, p99 and the tail.
    pub fn describe(&self, what: &str) -> String {
        let p99_note = if supported(self.samples, 990_000) {
            ""
        } else {
            " (fewer than 10 beyond)"
        };
        let tail = match self.tail {
            Some((pct, us)) => format!("p{pct}={us:.3}us"),
            None => "none".to_string(),
        };
        format!(
            "{what}: samples={} p50={:.3}us p99={:.3}us{p99_note}; highest supported {tail}",
            self.samples, self.p50_us, self.p99_us
        )
    }
}

/// Operations and latency samples bucketed by the one-second slice of the
/// measured window in which they completed, so a run reports the median
/// slice and a stall confined to one slice does not move it.
#[derive(Debug, Default)]
pub struct Sliced {
    slice_ns: u64,
    ops: Vec<u64>,
    lat_ns: Vec<Vec<u64>>,
}

/// Per-slice medians of one measured window.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Throughput of each slice that completed any operation.
    pub per_slice: Vec<f64>,
    /// Every sample of the window pooled, for the sample count and tail.
    pub pooled: Latency,
}

impl Sliced {
    /// Slices for a window of `seconds` (about one per second); `None` is
    /// a window bounded by work, kept as one slice.
    pub fn new(seconds: Option<f64>) -> Sliced {
        let (k, slice_ns) = match seconds {
            Some(s) => {
                let k = s.round().max(1.0);
                (k as usize, (s * 1e9 / k) as u64)
            }
            None => (1, u64::MAX),
        };
        Sliced {
            slice_ns,
            ops: vec![0; k],
            lat_ns: vec![Vec::new(); k],
        }
    }

    /// Records `ops` operations completing `elapsed` into the window, with
    /// their latency samples.
    pub fn record(&mut self, elapsed: std::time::Duration, ops: u64, lat_ns: &[u64]) {
        let i =
            ((elapsed.as_nanos() as u64) / self.slice_ns).min(self.ops.len() as u64 - 1) as usize;
        self.ops[i] += ops;
        self.lat_ns[i].extend_from_slice(lat_ns);
    }

    /// Adds another recorder of the same window (another thread).
    pub fn merge(&mut self, other: Sliced) {
        for (i, (ops, lat)) in other.ops.into_iter().zip(other.lat_ns).enumerate() {
            self.ops[i] += ops;
            self.lat_ns[i].extend(lat);
        }
    }

    /// Appends the slices of a later window.
    pub fn append(&mut self, other: Sliced) {
        self.slice_ns = other.slice_ns;
        self.ops.extend(other.ops);
        self.lat_ns.extend(other.lat_ns);
    }

    pub fn summary(mut self) -> Summary {
        let secs = self.slice_ns as f64 / 1e9;
        let (mut tput, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        let mut all = Vec::new();
        for (ops, lat) in self.ops.iter().zip(self.lat_ns.iter_mut()) {
            if *ops == 0 {
                continue;
            }
            let l = Latency::from_ns(lat);
            tput.push(*ops as f64 / secs);
            p50.push(l.p50_us);
            p99.push(l.p99_us);
            all.extend_from_slice(lat);
        }
        Summary {
            ops_per_s: median(&tput),
            p50_us: median(&p50),
            p99_us: median(&p99),
            per_slice: tput,
            pooled: Latency::from_ns(&mut all),
        }
    }
}

/// Median of a non-empty list (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The observations a histogram gained between two snapshots.
pub fn hist_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let counts: Vec<u64> = after
        .counts
        .iter()
        .zip(before.counts.iter().chain(std::iter::repeat(&0)))
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    HistogramSnapshot {
        total: counts.iter().sum(),
        sum: after.sum.saturating_sub(before.sum),
        max: after.max,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 needs n * 0.01 >= 10.
        assert!(!supported(999, 990_000));
        assert!(supported(1000, 990_000));
        assert_eq!(highest_supported(999), Some(900_000));
        assert_eq!(highest_supported(1000), Some(990_000));
        assert_eq!(highest_supported(9_999), Some(990_000));
        assert_eq!(highest_supported(10_000), Some(999_000));
        assert_eq!(highest_supported(1_000_000), Some(999_990));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(500_000));
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 500_000), 50);
        assert_eq!(nearest_rank(&v, 990_000), 99);
        assert_eq!(nearest_rank(&v, 999_000), 100);
        assert_eq!(nearest_rank(&[7], 990_000), 7);
        assert_eq!(nearest_rank(&[], 500_000), 0);
    }

    #[test]
    fn latency_summary_reports_tail_and_count() {
        let mut ns: Vec<u64> = (1..=2000).rev().map(|i| i * 1000).collect();
        let l = Latency::from_ns(&mut ns);
        assert_eq!(l.samples, 2000);
        assert_eq!(l.p50_us, 1000.0);
        assert_eq!(l.p99_us, 1980.0);
        // 2000 samples support p99 (20 beyond) but not p99.9 (2 beyond).
        assert_eq!(l.tail, Some((99.0, 1980.0)));
    }

    #[test]
    fn slices_report_the_median_slice() {
        use std::time::Duration;
        let mut a = Sliced::new(Some(3.0));
        // Slice 1 stalls: few ops, slow samples.
        a.record(Duration::from_millis(500), 100, &[10_000; 10]);
        a.record(Duration::from_millis(1500), 10, &[900_000; 10]);
        let mut b = Sliced::new(Some(3.0));
        b.record(Duration::from_millis(2500), 120, &[20_000; 10]);
        b.record(Duration::from_secs(9), 0, &[]); // past the end: last slice
        a.merge(b);
        let s = a.summary();
        assert_eq!(s.per_slice, vec![100.0, 10.0, 120.0]);
        assert_eq!(s.ops_per_s, 100.0);
        assert_eq!(s.p50_us, 20.0);
        assert_eq!(s.pooled.samples, 30);
        let mut w = Sliced::new(None);
        w.record(Duration::from_secs(100), 5, &[1]);
        assert_eq!(w.ops, vec![5]);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn histogram_delta_keeps_only_the_window() {
        let h = faster_metrics::LatencyHistogram::new();
        h.record(100);
        let before = h.snapshot();
        h.record(1000);
        h.record(1000);
        let d = hist_delta(&before, &h.snapshot());
        assert_eq!(d.total, 2);
        assert_eq!(d.sum, 2000);
        assert_eq!(d.mean(), 1000.0);
    }
}
