//! Percentiles, quartiles, answer digests and window counters.

use rede_common::fxhash::hash_bytes;
use rede_common::MetricsSnapshot;

/// Samples a nearest-rank percentile needs *beyond* its rank before it
/// is reported: p99 needs 1,000 samples, p90 needs 100, p50 needs 20.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` (rank `ceil(p·n)`), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above that rank.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Nearest-rank percentile, or the maximum when the sample is too small
/// for the rank (an upper bound; used only for harness self-checks).
pub fn rank_or_max(sorted: &[f64], p: f64) -> f64 {
    nearest_rank(sorted, p).unwrap_or_else(|| sorted.last().copied().unwrap_or(0.0))
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes the cut points.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// `x / y`, or 0 when there is nothing to divide by.
pub fn ratio(x: f64, y: f64) -> f64 {
    if y == 0.0 {
        0.0
    } else {
        x / y
    }
}

/// Order-insensitive digest of a multiset of records: the count plus two
/// wrapping sums of independently mixed 64-bit hashes. Two answers agree
/// when their digests are equal, whatever order pages arrived in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    a: u64,
    b: u64,
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit identity of one record's bytes.
pub fn record_hash(bytes: &[u8]) -> u64 {
    mix64(hash_bytes(0x9e37_79b9_7f4a_7c15, bytes) ^ bytes.len() as u64)
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        self.add_hash(record_hash(bytes));
    }

    pub fn add_hash(&mut self, h: u64) {
        self.rows += 1;
        self.a = self.a.wrapping_add(h);
        self.b = self.b.wrapping_add(mix64(h ^ 0x5851_f42d_4c95_7f2d));
    }
}

/// Counter movement over a measured window. Counters are deltas; gauges
/// (`snapshots_active`, `sessions_active`, `cursors_active`) and
/// high-water marks (`inflight_peak`, `pinned_peak`) are levels read at
/// the window's end — `MetricsSnapshot::since` saturating-subtracts them,
/// which turns a level into a meaningless "climb".
pub fn window(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        snapshots_active: after.snapshots_active,
        sessions_active: after.sessions_active,
        cursors_active: after.cursors_active,
        inflight_peak: after.inflight_peak,
        pinned_peak: after.pinned_peak,
        ..after.since(before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_needs_ten_samples_beyond_the_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.99), Some(990.0));
        assert_eq!(nearest_rank(&v, 0.50), Some(500.0));
        assert_eq!(nearest_rank(&v[..999], 0.99), None, "only 9 beyond p99");
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 0.90), Some(90.0));
        assert_eq!(nearest_rank(&w[..99], 0.90), None);
        assert_eq!(nearest_rank(&w[..20], 0.50), Some(10.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(rank_or_max(&w[..50], 0.99), 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn digest_is_order_insensitive_and_multiset_exact() {
        let rows: Vec<&[u8]> = vec![b"a", b"bb", b"ccc", b"bb"];
        let mut fwd = Digest::default();
        rows.iter().for_each(|r| fwd.add(r));
        let mut rev = Digest::default();
        rows.iter().rev().for_each(|r| rev.add(r));
        assert_eq!(fwd, rev);
        let mut missing = Digest::default();
        rows[..3].iter().for_each(|r| missing.add(r));
        assert_ne!(fwd, missing);
        let mut swapped = Digest::default();
        [b"a" as &[u8], b"bb", b"ccc", b"ccc"]
            .iter()
            .for_each(|r| swapped.add(r));
        assert_ne!(fwd, swapped, "a duplicate is not another row");
    }

    #[test]
    fn window_reads_gauges_and_peaks_as_levels_and_counters_as_deltas() {
        let before = MetricsSnapshot {
            tasks_spawned: 100,
            page_faults: 7,
            snapshots_active: 3,
            cursors_active: 5,
            sessions_active: 2,
            inflight_peak: 40,
            pinned_peak: 4096,
            ..MetricsSnapshot::default()
        };
        let after = MetricsSnapshot {
            tasks_spawned: 160,
            page_faults: 7,
            snapshots_active: 1,
            cursors_active: 5,
            sessions_active: 2,
            inflight_peak: 40,
            pinned_peak: 8192,
            ..MetricsSnapshot::default()
        };
        let w = window(&before, &after);
        assert_eq!(w.tasks_spawned, 60);
        assert_eq!(w.page_faults, 0);
        // `since` would report 0, 0, 0 and 0 here.
        assert_eq!(w.snapshots_active, 1);
        assert_eq!(w.cursors_active, 5);
        assert_eq!(w.sessions_active, 2);
        assert_eq!(w.inflight_peak, 40);
        assert_eq!(w.pinned_peak, 8192);
        let naive = after.since(&before);
        assert_eq!((naive.cursors_active, naive.inflight_peak), (0, 0));
    }
}
