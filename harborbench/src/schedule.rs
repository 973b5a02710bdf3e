//! Arrival schedules: a pure function of (seed, phase, rate, duration,
//! mix weights).
//!
//! The count is fixed at `round(rate × duration)` and the arrival times
//! are that many sorted uniform draws — a Poisson process conditioned on
//! its count — so two seeds offer exactly the same load and differ only
//! in timing. The query kinds follow the mix's exact largest-remainder
//! quota for that count, interleaved by smooth weighted round-robin: the
//! same kind sequence for every seed, with each kind spread evenly over
//! the window. (A seeded shuffle of the quota made which query ran after
//! which — and so the buffer pool's contents — vary between seeds more
//! than any code change under test.) Tenants alternate by arrival index,
//! so each tenant is offered half the load.

use rede_common::Xoshiro256;
use std::time::Duration;

/// One scheduled arrival, relative to the start of its phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub at: Duration,
    pub kind: usize,
    pub tenant: usize,
}

/// Exact per-kind counts for `n` arrivals: floor of each share, then the
/// largest remainders (ties to the more popular kind) take what is left.
pub fn quota(n: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| n as f64 * w / total).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.partial_cmp(&ra).unwrap().then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &k in order.iter().take(short) {
        counts[k] += 1;
    }
    counts
}

/// Smooth weighted round-robin over exact counts: each step credits
/// every kind its count and emits the kind with the most credit (ties to
/// the more popular kind), which then pays the total back.
pub fn interleave(counts: &[usize]) -> Vec<usize> {
    let total: i64 = counts.iter().map(|&c| c as i64).sum();
    let mut credit = vec![0i64; counts.len()];
    let mut out = Vec::with_capacity(total as usize);
    for _ in 0..total {
        for (c, &n) in credit.iter_mut().zip(counts) {
            *c += n as i64;
        }
        let best = (0..counts.len())
            .max_by(|&a, &b| credit[a].cmp(&credit[b]).then(b.cmp(&a)))
            .expect("at least one kind");
        credit[best] -= total;
        out.push(best);
    }
    out
}

/// The arrivals of one phase (`phase` separates the warm-up's stream
/// from the measured window's).
pub fn arrivals(
    seed: u64,
    phase: u64,
    rate_per_s: f64,
    duration: Duration,
    weights: &[f64],
    tenants: usize,
) -> Vec<Arrival> {
    let n = (rate_per_s * duration.as_secs_f64()).round() as usize;
    let root = Xoshiro256::new(seed).derive(phase);
    let mut times_rng = root.derive(1);
    let mut times: Vec<f64> = (0..n).map(|_| times_rng.gen_f64()).collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times
        .into_iter()
        .zip(interleave(&quota(n, weights)))
        .enumerate()
        .map(|(i, (t, kind))| Arrival {
            at: duration.mul_f64(t),
            kind,
            tenant: i % tenants.max(1),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZIPF: [f64; 5] = [1.0, 0.4665, 0.2987, 0.2176, 0.1703];

    #[test]
    fn the_schedule_is_a_pure_function_of_its_inputs() {
        let d = Duration::from_secs(10);
        let a = arrivals(7, 2, 45.0, d, &ZIPF, 2);
        assert_eq!(a, arrivals(7, 2, 45.0, d, &ZIPF, 2));
        assert_ne!(a, arrivals(8, 2, 45.0, d, &ZIPF, 2), "seed must matter");
        assert_ne!(a, arrivals(7, 1, 45.0, d, &ZIPF, 2), "phase must matter");
        assert_eq!(a.len(), 450);
        assert_eq!(arrivals(7, 2, 90.0, d, &ZIPF, 2).len(), 900);
        assert_eq!(arrivals(7, 2, 45.0, d / 2, &ZIPF, 2).len(), 225);
    }

    #[test]
    fn arrivals_are_sorted_inside_the_window_and_split_tenants_evenly() {
        let d = Duration::from_secs(3);
        let a = arrivals(1, 0, 100.0, d, &ZIPF, 2);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.iter().all(|x| x.at < d));
        let t0 = a.iter().filter(|x| x.tenant == 0).count();
        assert_eq!(t0, a.len() / 2);
    }

    #[test]
    fn every_seed_offers_the_exact_mix_quota() {
        let d = Duration::from_secs(10);
        let want = quota(450, &ZIPF);
        assert_eq!(want.iter().sum::<usize>(), 450);
        for seed in 0..5 {
            let a = arrivals(seed, 2, 45.0, d, &ZIPF, 2);
            let mut got = vec![0; ZIPF.len()];
            for x in &a {
                got[x.kind] += 1;
            }
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn interleaving_spreads_each_kind_evenly() {
        let seq = interleave(&[4, 2, 1]);
        assert_eq!(seq, vec![0, 1, 0, 2, 0, 1, 0]);
        let seq = interleave(&quota(450, &ZIPF));
        // Any 45 consecutive arrivals hold Q5' within two of its share.
        let share = quota(450, &ZIPF)[0] as f64 / 450.0;
        for w in seq.windows(45) {
            let n = w.iter().filter(|&&k| k == 0).count() as f64;
            assert!((n - 45.0 * share).abs() < 2.0, "{n}");
        }
    }

    #[test]
    fn quota_is_largest_remainder_rounding() {
        assert_eq!(quota(10, &[1.0, 1.0, 1.0]), vec![4, 3, 3]);
        assert_eq!(quota(0, &[1.0, 2.0]), vec![0, 0]);
        assert_eq!(quota(4, &[1.0, 1.0]), vec![2, 2]);
    }
}
