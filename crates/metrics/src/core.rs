//! Lock-free metric primitives: relaxed-atomic [`Counter`], [`Gauge`],
//! and the shard-per-worker log-bucketed [`Histogram`].
//!
//! Everything here is built for the search hot paths: recording is a
//! handful of relaxed atomic RMWs on a cache line owned (by convention)
//! by the recording worker, with no locks, no allocation, and no
//! ordering constraints. Reads ([`Counter::value`],
//! [`Histogram::snapshot`]) merge the shards; they race benignly with
//! writers and return a value that was true at *some* point during the
//! read — exactly the semantics a scrape endpoint needs.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// Number of log2 buckets a histogram keeps: bucket `i` counts samples
/// in `[2^i, 2^(i+1))`, so 64 buckets cover the full `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// Pads the wrapped value to a cache line so per-worker shards never
/// false-share (same trick as `problem_heap`'s counter stripes).
#[repr(align(64))]
struct CacheLine<T>(T);

/// The log2 bucket a sample lands in (`or 1` guards the zero sample).
#[inline]
fn bucket_of(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// A monotone counter, striped across `shards` cache lines.
///
/// `add(worker, n)` touches only the worker's own stripe; `value()` sums
/// all stripes. Stripe count is fixed at construction — workers beyond
/// it wrap (correct, just shared).
pub struct Counter {
    stripes: Box<[CacheLine<AtomicU64>]>,
}

impl Counter {
    /// A counter with `shards` independent stripes (min 1).
    pub fn new(shards: usize) -> Counter {
        Counter {
            stripes: (0..shards.max(1))
                .map(|_| CacheLine(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Adds `n` on `worker`'s stripe.
    #[inline]
    pub fn add(&self, worker: usize, n: u64) {
        self.stripes[worker % self.stripes.len()]
            .0
            .fetch_add(n, Relaxed);
    }

    /// Increments on `worker`'s stripe.
    #[inline]
    pub fn inc(&self, worker: usize) {
        self.add(worker, 1);
    }

    /// The sum of all stripes.
    pub fn value(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.load(Relaxed)).sum()
    }
}

/// A last-write-wins signed gauge (queue depths, occupancy, actives).
///
/// Gauges are written from cold paths (admission, slice boundaries), so
/// a single atomic cell suffices — no striping.
pub struct Gauge {
    cell: AtomicI64,
}

impl Gauge {
    /// A gauge reading zero.
    pub fn new() -> Gauge {
        Gauge {
            cell: AtomicI64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Relaxed);
    }

    /// Adjusts the gauge by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.cell.load(Relaxed)
    }

    /// Sets the gauge to a fraction scaled by 10^6 (six decimal digits of
    /// precision survive the integer cell; the exposition divides back).
    pub fn set_ratio(&self, ratio: f64) {
        self.set((ratio * 1e6) as i64);
    }

    /// Reads a [`Gauge::set_ratio`] gauge back as a fraction.
    pub fn ratio(&self) -> f64 {
        self.value() as f64 / 1e6
    }
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

/// One worker's private histogram shard: 64 log2 buckets plus the
/// moments and extrema needed for sums and clamped quantiles.
struct HistShard {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistShard {
    fn new() -> HistShard {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }
}

/// A shard-per-worker log-bucketed histogram.
///
/// Each worker records into its own shard ([`Histogram::record`] is a
/// few relaxed RMWs on worker-owned lines); [`Histogram::snapshot`]
/// merges the shards into an immutable [`HistSnapshot`] for quantile
/// estimation and exposition. Recording never overwrites or loses a
/// sample (every bucket/count/sum update is an atomic RMW), which the
/// release-mode concurrency property test pins down.
pub struct Histogram {
    shards: Box<[CacheLine<HistShard>]>,
}

impl Histogram {
    /// A histogram with `shards` worker shards (min 1).
    pub fn new(shards: usize) -> Histogram {
        Histogram {
            shards: (0..shards.max(1))
                .map(|_| CacheLine(HistShard::new()))
                .collect(),
        }
    }

    /// Records one sample on `worker`'s shard.
    #[inline]
    pub fn record(&self, worker: usize, v: u64) {
        self.shards[worker % self.shards.len()].0.record(v);
    }

    /// Merges samples recorded elsewhere (a [`HistSnapshot`] a worker
    /// kept privately) into `worker`'s shard, as if each had been
    /// [`record`](Self::record)ed there.
    pub fn merge(&self, worker: usize, snap: &HistSnapshot) {
        let s = &self.shards[worker % self.shards.len()].0;
        for (b, &n) in s.buckets.iter().zip(&snap.buckets) {
            if n > 0 {
                b.fetch_add(n, Relaxed);
            }
        }
        s.count.fetch_add(snap.count, Relaxed);
        s.sum.fetch_add(snap.sum, Relaxed);
        s.min.fetch_min(snap.min, Relaxed);
        s.max.fetch_max(snap.max, Relaxed);
    }

    /// Merges every shard into one immutable snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut snap = HistSnapshot::empty();
        for shard in self.shards.iter() {
            let s = &shard.0;
            let mut part = HistSnapshot::empty();
            for (i, b) in s.buckets.iter().enumerate() {
                part.buckets[i] = b.load(Relaxed);
            }
            part.count = s.count.load(Relaxed);
            part.sum = s.sum.load(Relaxed);
            part.min = s.min.load(Relaxed);
            part.max = s.max.load(Relaxed);
            snap.merge(&part);
        }
        snap
    }
}

/// An immutable merged view of a [`Histogram`] (or of one shard):
/// supports further merging (shard merge is associative and commutative
/// — the property tests check it) and clamped quantile estimation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts; bucket `i` covers `[2^i, 2^(i+1))`.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest recorded sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// A snapshot of zero samples.
    pub fn empty() -> HistSnapshot {
        HistSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample: the plain, single-owner counterpart of
    /// [`Histogram::record`], for a worker that keeps its samples private
    /// until the run ends.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges `other` in. Associative and commutative with
    /// [`HistSnapshot::empty`] as identity, so shards (and snapshots
    /// from different processes) merge in any grouping.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        // Sample sums wrap like the atomic `fetch_add` that accumulates
        // them (nanosecond totals stay far below 2^64 in practice).
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`): the upper bound of
    /// the first bucket whose cumulative count covers `q` of the mass,
    /// clamped into `[min, max]` so estimates never leave the recorded
    /// range (`min <= p50 <= p99 <= max` always holds). Returns 0 for an
    /// empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i is 2^(i+1) - 1.
                let ub = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return ub.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean sample, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_stripes_sum() {
        let c = Counter::new(4);
        for w in 0..16 {
            c.add(w, (w + 1) as u64);
        }
        assert_eq!(c.value(), (1..=16).sum::<u64>());
    }

    #[test]
    fn gauge_set_add_and_ratio_round_trip() {
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.value(), 4);
        g.set_ratio(0.375);
        assert!((g.ratio() - 0.375).abs() < 1e-6);
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn snapshot_record_buckets_powers_of_two() {
        let mut h = HistSnapshot::default();
        for v in [0u64, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.buckets[0], 2, "0 and 1 share the first bucket");
        assert_eq!(h.buckets[1], 2, "2 and 3");
        assert_eq!(h.buckets[10], 1, "1024");
        assert_eq!(h.count, 5);
        assert_eq!((h.min, h.max), (0, 1024));
        assert!((h.mean() - 206.0).abs() < 1e-9);
        assert!(h.quantile(0.5) <= 3);
        assert_eq!(h.quantile(1.0), 1024);
        assert_eq!(HistSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn snapshot_record_saturates_top_bucket() {
        let mut h = HistSnapshot::default();
        h.record(u64::MAX);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn merged_snapshot_equals_recording_on_the_shard() {
        let (direct, merged) = (Histogram::new(2), Histogram::new(2));
        let mut private = HistSnapshot::default();
        for v in [0u64, 7, 7, 300, 1 << 40] {
            direct.record(1, v);
            private.record(v);
        }
        merged.merge(1, &private);
        merged.merge(0, &HistSnapshot::default());
        assert_eq!(merged.snapshot(), direct.snapshot());
        assert_eq!(merged.snapshot(), private);
    }

    #[test]
    fn histogram_quantiles_are_clamped_to_recorded_range() {
        let h = Histogram::new(2);
        for v in [10u64, 11, 12, 13, 1000] {
            h.record(0, v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 1000);
        assert!(s.quantile(0.5) >= s.min);
        assert!(s.quantile(0.5) <= s.quantile(0.99));
        assert!(s.quantile(0.99) <= s.max);
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn empty_snapshot_is_merge_identity() {
        let h = Histogram::new(1);
        for v in 1..100u64 {
            h.record(0, v);
        }
        let s = h.snapshot();
        let mut merged = HistSnapshot::empty();
        merged.merge(&s);
        assert_eq!(merged, s);
        let mut other = s.clone();
        other.merge(&HistSnapshot::empty());
        assert_eq!(other, s);
    }
}
