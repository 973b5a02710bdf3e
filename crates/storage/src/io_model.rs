//! Injectable I/O latency model and per-node admission control.
//!
//! This module is the substitution for the paper's physical testbed (24-HDD
//! RAID-6 arrays per node, `queue_depth = 1008`, 10 GbE fabric). Two
//! mechanisms together reproduce the behaviour the paper's evaluation
//! depends on:
//!
//! 1. **Latency injection** — every storage access sleeps for a configurable
//!    duration depending on its kind (local point read, remote point read,
//!    per-record sequential scan, index traversal). Because the sleeps are
//!    real, *concurrent* accesses genuinely overlap: an executor issuing
//!    1000 point reads from 1000 threads finishes in ~1 latency, while an
//!    executor issuing them from one thread per partition serializes them.
//!    That is exactly the SMPE-vs-partitioned-parallelism effect of Fig. 7.
//!
//! 2. **Admission control** — each node owns an [`IopsLimiter`], a counting
//!    semaphore bounding in-flight point reads (the paper sets the device
//!    queue depth to 1008). Massive parallelism beyond the device capacity
//!    queues up rather than speeding up further, bounding the benefit
//!    exactly as real hardware would.
//!
//! Latencies default to microseconds rather than the milliseconds of real
//! HDDs so experiments run in seconds; all *ratios* (random:sequential,
//! remote:local) follow the hardware the paper describes.

use parking_lot::{Condvar, Mutex};
use std::time::Duration;

/// Latency model for simulated storage accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoModel {
    /// One random point read served from a local partition.
    pub local_point_read: Duration,
    /// One random point read served by another node (adds network RTT).
    pub remote_point_read: Duration,
    /// Per-record cost of a sequential scan (amortized; charged per batch).
    pub scan_per_record: Duration,
    /// One B+-tree traversal (root-to-leaf; the interior is assumed cached,
    /// so this is cheaper than a data point read).
    pub index_lookup: Duration,
    /// Servicing one buffer-pool page fault: reading a ~4 KiB page back
    /// from the backing store. One positioned read, so it costs like a
    /// local point read rather than a per-record scan.
    pub page_fault: Duration,
    /// One WAL fsync: forcing buffered log frames to stable storage. A
    /// positioned write plus a device cache flush, so it is the most
    /// expensive single operation in the model; group commit exists to
    /// amortize it across concurrent committers.
    pub wal_fsync: Duration,
    /// Number of records whose scan cost is charged as one sleep. Batching
    /// avoids issuing a syscall per record while keeping total time honest.
    pub scan_batch: usize,
    /// Maximum in-flight point reads per node (device queue depth).
    pub queue_depth: usize,
}

impl IoModel {
    /// No injected latency and effectively unlimited queue depth. Used by
    /// unit tests and by experiments that only count accesses (Fig. 9).
    pub fn zero() -> IoModel {
        IoModel {
            local_point_read: Duration::ZERO,
            remote_point_read: Duration::ZERO,
            scan_per_record: Duration::ZERO,
            index_lookup: Duration::ZERO,
            page_fault: Duration::ZERO,
            wal_fsync: Duration::ZERO,
            scan_batch: 1024,
            queue_depth: usize::MAX,
        }
    }

    /// An HDD-cluster-like model scaled down by `scale` (1.0 = microseconds
    /// stand in for the testbed's milliseconds).
    ///
    /// Ratios follow the paper's testbed: a 10K RPM SAS random read is
    /// ~5-8 ms while sequential streaming amortizes to a few µs per
    /// ~150-byte record under contended RAID streams (real HDDs are
    /// 1000:1+ random:sequential; we use a *conservative* 250:1, which
    /// under-states ReDe's advantage); a 10 GbE RTT adds ~0.1-0.2 ms
    /// (remote:local ≈ 1.3:1). `scale = 1.0` compresses everything ~10×
    /// below real hardware so experiments run in seconds.
    pub fn hdd_like(scale: f64) -> IoModel {
        assert!(
            scale.is_finite() && scale >= 0.0,
            "IoModel::hdd_like scale must be finite and non-negative, got {scale}"
        );
        // `as u64` on an out-of-range f64 saturates since Rust 1.45, but the
        // *product* `x * 1000.0 * scale` can itself overflow to infinity for
        // huge scales; clamp explicitly so any such model saturates at
        // u64::MAX nanoseconds instead of depending on cast edge cases (the
        // same treatment `scan_cost` got for its batch multiplication).
        let us = |x: f64| {
            let ns = (x * 1000.0 * scale).min(u64::MAX as f64);
            Duration::from_nanos(ns as u64)
        };
        IoModel {
            local_point_read: us(500.0),
            remote_point_read: us(650.0),
            scan_per_record: us(2.0),
            index_lookup: us(120.0),
            page_fault: us(400.0),
            wal_fsync: us(2000.0),
            scan_batch: 1024,
            queue_depth: 1008,
        }
    }

    /// True if every latency is zero (lets hot paths skip sleeping).
    pub fn is_zero(&self) -> bool {
        self.local_point_read.is_zero()
            && self.remote_point_read.is_zero()
            && self.scan_per_record.is_zero()
            && self.index_lookup.is_zero()
            && self.page_fault.is_zero()
            && self.wal_fsync.is_zero()
    }

    /// Sleep for one WAL fsync (the group-commit leader pays this once on
    /// behalf of every committer it flushes).
    #[inline]
    pub fn pay_wal_fsync(&self) {
        maybe_sleep(self.wal_fsync);
    }

    /// Sleep for one local point read.
    #[inline]
    pub fn pay_local_read(&self) {
        maybe_sleep(self.local_point_read);
    }

    /// Sleep for one remote point read.
    #[inline]
    pub fn pay_remote_read(&self) {
        maybe_sleep(self.remote_point_read);
    }

    /// Sleep for one index traversal.
    #[inline]
    pub fn pay_index_lookup(&self) {
        maybe_sleep(self.index_lookup);
    }

    /// Sleep for one local point read served `mult`× slower than healthy
    /// (brown-out windows; `mult == 1` is exactly [`IoModel::pay_local_read`]).
    #[inline]
    pub fn pay_local_read_times(&self, mult: u32) {
        maybe_sleep(self.local_point_read.saturating_mul(mult));
    }

    /// Sleep for one index traversal served `mult`× slower than healthy.
    #[inline]
    pub fn pay_index_lookup_times(&self, mult: u32) {
        maybe_sleep(self.index_lookup.saturating_mul(mult));
    }

    /// Total modeled cost of scanning `n` records. Computed in 128-bit
    /// nanosecond arithmetic: the earlier `saturating_mul(n as u32)`
    /// silently truncated batch sizes above `u32::MAX`, undercharging
    /// very large scans.
    pub fn scan_cost(&self, n: usize) -> Duration {
        let ns = self.scan_per_record.as_nanos().saturating_mul(n as u128);
        if ns > u64::MAX as u128 {
            Duration::from_nanos(u64::MAX)
        } else {
            Duration::from_nanos(ns as u64)
        }
    }

    /// Sleep for scanning `n` records (one sleep, n × per-record cost).
    #[inline]
    pub fn pay_scan(&self, n: usize) {
        if n > 0 {
            maybe_sleep(self.scan_cost(n));
        }
    }

    /// Sleep once for servicing `n` buffer-pool page faults (one sleep,
    /// n × per-fault cost; 128-bit saturating math like `scan_cost`).
    /// Fault service time is charged on the access path that took the
    /// fault, *outside* the device permit: the simulated backing store
    /// stands apart from the point-read device queue the paper saturates.
    #[inline]
    pub fn pay_page_faults(&self, n: u64) {
        if n > 0 {
            let ns = self
                .page_fault
                .as_nanos()
                .saturating_mul(n as u128)
                .min(u64::MAX as u128) as u64;
            maybe_sleep(Duration::from_nanos(ns));
        }
    }

    /// Network RTT component of a remote access: `remote − local`. The
    /// fixed per-request cost batching amortizes.
    #[inline]
    pub fn rtt(&self) -> Duration {
        self.remote_point_read.saturating_sub(self.local_point_read)
    }

    /// Sleep one network RTT for a shuffle hop: a scan batch pulled across
    /// nodes by a placement-blind external-table scan (the baseline
    /// engine's charged shuffle model).
    #[inline]
    pub fn pay_shuffle(&self) {
        maybe_sleep(self.rtt());
    }

    /// Wall time a device spends serving one group of accesses `width` at
    /// a time: the group runs `ceil(n / width)` rounds in input order, and
    /// each round costs `base ×` the largest brown-out multiplier in it
    /// (`mult == 1` healthy). `width == 1` is the serial sum
    /// `Σ base × mult`; `width ≥ n` is one round, `base × max mult`. A
    /// `width` of 0 is treated as 1. 128-bit saturating nanosecond math,
    /// like [`IoModel::scan_cost`].
    pub fn group_cost(base: Duration, mults: &[u32], width: usize) -> Duration {
        let total: u128 = mults
            .chunks(width.max(1))
            .map(|round| {
                let mult = round.iter().copied().max().unwrap_or(0);
                base.as_nanos().saturating_mul(mult as u128)
            })
            .fold(0u128, u128::saturating_add);
        Duration::from_nanos(total.min(u64::MAX as u128) as u64)
    }

    /// Sleep once for a group of point reads served `width` at a time
    /// (see [`IoModel::group_cost`]).
    #[inline]
    pub fn pay_read_batch(&self, mults: &[u32], width: usize) {
        maybe_sleep(Self::group_cost(self.local_point_read, mults, width));
    }

    /// Sleep once for a group of index traversals served `width` at a time
    /// (see [`IoModel::group_cost`]).
    #[inline]
    pub fn pay_index_batch(&self, mults: &[u32], width: usize) {
        maybe_sleep(Self::group_cost(self.index_lookup, mults, width));
    }
}

#[inline]
fn maybe_sleep(d: Duration) {
    if !d.is_zero() {
        std::thread::sleep(d);
    }
}

/// A counting semaphore bounding in-flight I/Os on one node.
///
/// `std::sync::Semaphore` does not exist; this is a minimal Mutex+Condvar
/// implementation. Acquisition order is not FIFO-fair, which matches a disk
/// queue well enough for simulation purposes.
pub struct IopsLimiter {
    permits: Mutex<usize>,
    available: Condvar,
    capacity: usize,
}

impl IopsLimiter {
    /// A limiter with `capacity` concurrent permits. A capacity of
    /// `usize::MAX` never blocks.
    pub fn new(capacity: usize) -> IopsLimiter {
        IopsLimiter {
            permits: Mutex::new(capacity),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Acquire one permit, blocking until available; returns a guard that
    /// releases on drop.
    pub fn acquire(&self) -> IopsPermit<'_> {
        self.acquire_up_to(1)
    }

    /// Acquire between one and `n` permits (`n == 0` is treated as 1):
    /// block until at least one is free, then take as many as are free,
    /// up to `n`. The returned guard holds all of them
    /// ([`IopsPermit::count`]) and releases them together on drop. An
    /// unlimited limiter always grants `n`.
    pub fn acquire_up_to(&self, n: usize) -> IopsPermit<'_> {
        let n = n.max(1);
        let count = if self.capacity == usize::MAX {
            n
        } else {
            let mut permits = self.permits.lock();
            while *permits == 0 {
                self.available.wait(&mut permits);
            }
            let count = n.min(*permits);
            *permits -= count;
            count
        };
        IopsPermit {
            limiter: self,
            count,
        }
    }

    /// Permits currently available (diagnostic).
    pub fn available_permits(&self) -> usize {
        if self.capacity == usize::MAX {
            usize::MAX
        } else {
            *self.permits.lock()
        }
    }

    fn release(&self, count: usize) {
        if self.capacity != usize::MAX {
            let mut permits = self.permits.lock();
            *permits += count;
            drop(permits);
            if count == 1 {
                self.available.notify_one();
            } else {
                self.available.notify_all();
            }
        }
    }
}

impl std::fmt::Debug for IopsLimiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IopsLimiter")
            .field("capacity", &self.capacity)
            .field("available", &self.available_permits())
            .finish()
    }
}

/// RAII guard for one or more in-flight I/Os on one limiter.
pub struct IopsPermit<'a> {
    limiter: &'a IopsLimiter,
    count: usize,
}

impl IopsPermit<'_> {
    /// Permits this guard holds (1 from [`IopsLimiter::acquire`]).
    pub fn count(&self) -> usize {
        self.count
    }
}

impl Drop for IopsPermit<'_> {
    fn drop(&mut self) {
        self.limiter.release(self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn zero_model_is_zero() {
        assert!(IoModel::zero().is_zero());
        assert!(!IoModel::hdd_like(1.0).is_zero());
    }

    /// Regression: `is_zero` must consider *every* latency field — a model
    /// with only an index-lookup or scan cost is not zero, or a gated
    /// "zero-cost" cluster would silently sleep through those accesses.
    #[test]
    fn is_zero_audits_every_latency_field() {
        let fields: [fn(&mut IoModel, Duration); 6] = [
            |m, d| m.local_point_read = d,
            |m, d| m.remote_point_read = d,
            |m, d| m.scan_per_record = d,
            |m, d| m.index_lookup = d,
            |m, d| m.page_fault = d,
            |m, d| m.wal_fsync = d,
        ];
        for (i, set) in fields.iter().enumerate() {
            let mut m = IoModel::zero();
            set(&mut m, Duration::from_micros(1));
            assert!(!m.is_zero(), "field {i} alone must defeat is_zero");
        }
        // Queue depth and scan batching are not latencies.
        let mut m = IoModel::zero();
        m.queue_depth = 4;
        m.scan_batch = 1;
        assert!(m.is_zero());
    }

    #[test]
    fn width_one_group_cost_is_the_serial_sum() {
        let m = IoModel::hdd_like(1.0);
        let cost = |mults: &[u32], width| IoModel::group_cost(m.local_point_read, mults, width);
        assert_eq!(cost(&[1, 1, 1], 1), m.local_point_read * 3);
        // Brown-out multipliers apply per access.
        assert_eq!(cost(&[1, 4], 1), m.local_point_read * 5);
        assert_eq!(
            IoModel::group_cost(m.index_lookup, &[2, 2], 1),
            m.index_lookup * 4
        );
        assert_eq!(cost(&[], 1), Duration::ZERO);
        assert_eq!(cost(&[], 8), Duration::ZERO);
        // Width 0 cannot serve anything concurrently: it is width 1.
        assert_eq!(cost(&[1, 4], 0), cost(&[1, 4], 1));
    }

    #[test]
    fn wide_group_cost_is_the_slowest_access() {
        let m = IoModel::hdd_like(1.0);
        let cost = |mults: &[u32], width| IoModel::group_cost(m.local_point_read, mults, width);
        assert_eq!(cost(&[1; 8], 8), m.local_point_read);
        assert_eq!(cost(&[1; 8], 1008), m.local_point_read);
        assert_eq!(cost(&[1, 3, 2], 3), m.local_point_read * 3);
        assert_eq!(
            IoModel::group_cost(m.index_lookup, &[1, 1, 5, 1], 64),
            m.index_lookup * 5
        );
    }

    #[test]
    fn brownout_multipliers_apply_per_round() {
        let m = IoModel::hdd_like(1.0);
        let base = m.local_point_read;
        // Width 2 over [1, 4, 2, 1, 3]: rounds [1,4] [2,1] [3] cost 4 + 2 + 3.
        assert_eq!(IoModel::group_cost(base, &[1, 4, 2, 1, 3], 2), base * 9);
        // ceil(8 / 3) = 3 healthy rounds.
        assert_eq!(IoModel::group_cost(base, &[1; 8], 3), base * 3);
        // Every width lies between the slowest access and the serial sum,
        // and never costs more than a narrower one on healthy devices.
        let mults = [1, 4, 2, 1, 3, 1, 1, 2];
        let serial = IoModel::group_cost(base, &mults, 1);
        let mut prev = IoModel::group_cost(base, &[1; 8], 1);
        for width in 1..=mults.len() {
            let c = IoModel::group_cost(base, &mults, width);
            assert!(c >= base * 4 && c <= serial, "width {width}: {c:?}");
            let healthy = IoModel::group_cost(base, &[1; 8], width);
            assert!(healthy <= prev, "width {width}: {healthy:?} > {prev:?}");
            prev = healthy;
        }
    }

    #[test]
    fn rtt_is_the_remote_surcharge() {
        let m = IoModel::hdd_like(1.0);
        assert_eq!(m.rtt(), m.remote_point_read - m.local_point_read);
    }

    #[test]
    fn group_cost_saturates_instead_of_overflowing() {
        let base = Duration::from_secs(u64::MAX / 1_000_000_000);
        let max = Duration::from_nanos(u64::MAX);
        assert_eq!(IoModel::group_cost(base, &[u32::MAX, u32::MAX], 1), max);
        assert_eq!(IoModel::group_cost(base, &[u32::MAX, u32::MAX], 2), max);
    }

    #[test]
    fn hdd_like_scales() {
        let a = IoModel::hdd_like(1.0);
        let b = IoModel::hdd_like(2.0);
        assert_eq!(b.local_point_read, a.local_point_read * 2);
        assert_eq!(a.queue_depth, 1008);
    }

    #[test]
    fn hdd_like_saturates_on_huge_scale_instead_of_wrapping() {
        // 500 µs × 1e300 overflows any integer width; the model must pin at
        // u64::MAX nanoseconds, not wrap to something small.
        let m = IoModel::hdd_like(1e300);
        assert_eq!(m.local_point_read, Duration::from_nanos(u64::MAX));
        assert_eq!(m.remote_point_read, Duration::from_nanos(u64::MAX));
        // A merely-large finite scale must stay exact (no premature clamp).
        let big = IoModel::hdd_like(1e6);
        assert_eq!(big.local_point_read, Duration::from_millis(500_000));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn hdd_like_rejects_negative_scale() {
        let _ = IoModel::hdd_like(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn hdd_like_rejects_nan_scale() {
        let _ = IoModel::hdd_like(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn hdd_like_rejects_infinite_scale() {
        let _ = IoModel::hdd_like(f64::INFINITY);
    }

    #[test]
    fn random_to_sequential_ratio_is_large() {
        let m = IoModel::hdd_like(1.0);
        let ratio = m.local_point_read.as_nanos() / m.scan_per_record.as_nanos();
        assert!(
            ratio >= 100,
            "random reads must dwarf per-record scan cost, got {ratio}"
        );
    }

    #[test]
    fn scan_cost_survives_batches_beyond_u32_max() {
        let mut m = IoModel::zero();
        m.scan_per_record = Duration::from_nanos(2);
        let n = u32::MAX as usize + 5;
        // The truncating implementation computed `n as u32` = 4, i.e. 8 ns.
        assert_eq!(m.scan_cost(n), Duration::from_nanos(2 * n as u64));
        assert!(m.scan_cost(n) > m.scan_cost(u32::MAX as usize));
    }

    #[test]
    fn scan_cost_saturates_instead_of_overflowing() {
        let mut m = IoModel::zero();
        m.scan_per_record = Duration::from_secs(u64::MAX / 1_000_000_000);
        assert_eq!(m.scan_cost(usize::MAX), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn brownout_multiplier_scales_device_cost() {
        let m = IoModel::hdd_like(1.0);
        assert_eq!(
            m.local_point_read.saturating_mul(3),
            m.local_point_read * 3,
            "multiplied latency must not saturate at realistic scales"
        );
        // mult 1 must be indistinguishable from the healthy path (both are
        // a single sleep of `local_point_read`), so the zero-fault path
        // pays nothing extra.
        assert_eq!(m.local_point_read.saturating_mul(1), m.local_point_read);
    }

    #[test]
    fn scan_cost_matches_small_batches() {
        let m = IoModel::hdd_like(1.0);
        assert_eq!(m.scan_cost(1), m.scan_per_record);
        assert_eq!(m.scan_cost(1000), m.scan_per_record * 1000);
        assert_eq!(m.scan_cost(0), Duration::ZERO);
    }

    #[test]
    fn limiter_caps_concurrency() {
        let limiter = Arc::new(IopsLimiter::new(4));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..16 {
                let (l, inf, max) = (limiter.clone(), in_flight.clone(), max_seen.clone());
                s.spawn(move || {
                    for _ in 0..50 {
                        let _permit = l.acquire();
                        let now = inf.fetch_add(1, Ordering::SeqCst) + 1;
                        max.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        inf.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(max_seen.load(Ordering::SeqCst) <= 4);
        assert_eq!(limiter.available_permits(), 4);
    }

    #[test]
    fn unlimited_limiter_never_blocks() {
        let limiter = IopsLimiter::new(usize::MAX);
        let _a = limiter.acquire();
        let _b = limiter.acquire();
        assert_eq!(limiter.available_permits(), usize::MAX);
    }

    #[test]
    fn acquire_up_to_takes_what_is_free_and_returns_it_all() {
        let limiter = IopsLimiter::new(5);
        {
            let a = limiter.acquire_up_to(3);
            assert_eq!(a.count(), 3);
            assert_eq!(limiter.available_permits(), 2);
            // Only two are free: a request for eight takes those two.
            let b = limiter.acquire_up_to(8);
            assert_eq!(b.count(), 2);
            assert_eq!(limiter.available_permits(), 0);
            drop(a);
            assert_eq!(limiter.available_permits(), 3);
        }
        assert_eq!(limiter.available_permits(), 5);
        assert_eq!(limiter.acquire_up_to(0).count(), 1);
        assert_eq!(IopsLimiter::new(usize::MAX).acquire_up_to(40).count(), 40);
    }

    #[test]
    fn releasing_a_wide_guard_wakes_every_waiter() {
        let limiter = Arc::new(IopsLimiter::new(4));
        let wide = limiter.acquire_up_to(4);
        let acquired = Arc::new(AtomicUsize::new(0));
        let (held, max_held) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (l, a) = (limiter.clone(), acquired.clone());
                let (h, max) = (held.clone(), max_held.clone());
                s.spawn(move || {
                    let p = l.acquire();
                    a.fetch_add(1, Ordering::SeqCst);
                    max.fetch_max(h.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    // Hold until all four have acquired, or give up: a
                    // release that woke one waiter leaves the rest asleep.
                    let give_up = std::time::Instant::now() + Duration::from_millis(500);
                    while a.load(Ordering::SeqCst) < 4 && std::time::Instant::now() < give_up {
                        std::thread::yield_now();
                    }
                    h.fetch_sub(1, Ordering::SeqCst);
                    drop(p);
                });
            }
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(acquired.load(Ordering::SeqCst), 0);
            drop(wide);
        });
        assert_eq!(
            max_held.load(Ordering::SeqCst),
            4,
            "one release of four permits must wake all four waiters"
        );
        assert_eq!(limiter.available_permits(), 4);
    }

    #[test]
    fn permits_release_on_drop() {
        let limiter = IopsLimiter::new(1);
        {
            let _p = limiter.acquire();
            assert_eq!(limiter.available_permits(), 0);
        }
        assert_eq!(limiter.available_permits(), 1);
    }
}
