//! Counters, gauges, and log-bucketed histograms.
//!
//! Histograms use a fixed 256-bucket logarithmic layout: four sub-buckets
//! per power-of-two octave, which bounds the relative quantile error at
//! ~25% while keeping `record` branch-free and allocation-free — cheap
//! enough for per-step timing inside the hottest simulator loops.
//! Snapshots are sparse (only non-empty buckets) and mergeable, so future
//! sharded runs can combine per-shard histograms without losing quantiles.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of histogram buckets: 64 octaves × 4 sub-buckets.
const BUCKETS: usize = 256;

/// Bucket index for a value: `0..=3` map directly, larger values land in
/// `octave * 4 + sub` where `sub` is the two bits below the leading one.
fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize;
    octave * 4 + ((v >> (octave - 2)) & 3) as usize
}

/// Smallest value that maps to the given bucket (inverse of [`bucket_index`]).
fn bucket_floor(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let octave = idx / 4;
    let sub = (idx % 4) as u64;
    (1u64 << octave) + sub * (1u64 << (octave - 2))
}

/// A log-bucketed histogram of `u64` observations (typically nanoseconds).
///
/// The live form only records and absorbs; quantiles, means and merges
/// are read off its [`HistogramSnapshot`].
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    max: u64,
    buckets: Box<[u64; BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            max: 0,
            buckets: Box::new([0; BUCKETS]),
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold a sparse snapshot back into this histogram (used when the
    /// supervisor absorbs a worker's per-attempt telemetry).
    pub fn absorb(&mut self, snap: &HistogramSnapshot) {
        self.count += snap.count;
        self.sum = self.sum.saturating_add(snap.sum);
        self.max = self.max.max(snap.max);
        for &(idx, n) in &snap.buckets {
            if (idx as usize) < BUCKETS {
                self.buckets[idx as usize] += n;
            }
        }
    }

    /// Sparse, serializable view of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (i as u32, n))
                .collect(),
        }
    }
}

/// Sparse, mergeable, serializable form of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations (saturating).
    pub sum: u64,
    /// Exact maximum observation.
    pub max: u64,
    /// Non-empty `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Merge another snapshot into this one (for sharded-run aggregation).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(idx, n) in &other.buckets {
            *merged.entry(idx).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }

    /// Approximate quantile (`q` in `[0, 1]`): the floor of the bucket
    /// holding the `ceil(q * count)`-th observation. `q = 1` returns the
    /// exact maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(idx, n) in &self.buckets {
            cumulative += n;
            if cumulative >= target {
                return bucket_floor(idx as usize).min(self.max);
            }
        }
        self.max
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Registry of named counters, gauges, and histograms.
///
/// Names follow a `subsystem.metric[_unit]` convention (see DESIGN.md §7),
/// e.g. `agenda.step_ns` or `faults.injected`. Lookups are `BTreeMap`-keyed
/// so snapshots render in a stable order.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Add `by` to the named counter, creating it at zero if absent.
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.ensure_counter(name) += by;
    }

    /// Get-or-create the named counter; exposed so callers can read back.
    fn ensure_counter(&mut self, name: &str) -> &mut u64 {
        if !self.counters.contains_key(name) {
            self.counters.insert(name.to_owned(), 0);
        }
        self.counters.get_mut(name).expect("counter just inserted")
    }

    /// Set the named gauge to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_owned(), v);
    }

    /// Record `v` into the named histogram, creating it if absent.
    pub fn observe(&mut self, name: &str, v: u64) {
        if !self.histograms.contains_key(name) {
            self.histograms
                .insert(name.to_owned(), Histogram::default());
        }
        self.histograms
            .get_mut(name)
            .expect("histogram just inserted")
            .record(v);
    }

    /// Fold a metrics snapshot into this registry: counters add, gauges
    /// overwrite, histograms merge bucket-wise.
    pub fn absorb(&mut self, snap: MetricsSnapshot) {
        for (name, v) in snap.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        self.gauges.extend(snap.gauges);
        for (name, h) in snap.histograms {
            self.histograms.entry(name).or_default().absorb(&h);
        }
    }

    /// Move the gauges out, leaving none.
    pub fn take_gauges(&mut self) -> BTreeMap<String, f64> {
        std::mem::take(&mut self.gauges)
    }

    /// Serializable view of every metric in the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Serializable, mergeable view of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges by name (last write wins on merge).
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name, in sparse form.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merge another snapshot into this one (sharded-run aggregation).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// True when no metric of any kind has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_floor_are_consistent() {
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1_000, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "index {idx} for {v}");
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor {floor} above value {v}");
            // The bucket's floor maps back to the same bucket.
            assert_eq!(bucket_index(floor), idx, "floor not idempotent for {v}");
        }
        // Relative error bound: floor is within 25% below the value.
        for v in [10u64, 77, 1_000, 123_456, 9_999_999] {
            let floor = bucket_floor(bucket_index(v));
            assert!(
                floor as f64 >= v as f64 * 0.75,
                "floor {floor} too far below {v}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1_000_000);
        let p50 = s.quantile(0.50);
        let p90 = s.quantile(0.90);
        let p99 = s.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99 && p99 <= s.max);
        // Log-bucket error bound: within 25% of the true quantile.
        assert!((375_000..=500_000).contains(&p50), "p50 = {p50}");
        assert!((675_000..=900_000).contains(&p90), "p90 = {p90}");
        assert_eq!(s.quantile(1.0), 1_000_000);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut whole = Histogram::default();
        for v in 0..500u64 {
            a.record(v * 7);
            whole.record(v * 7);
        }
        for v in 0..500u64 {
            b.record(v * 13 + 3);
            whole.record(v * 13 + 3);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn registry_absorb_accumulates() {
        let mut shard = MetricsRegistry::default();
        shard.inc("x.count", 3);
        shard.set_gauge("x.level", 0.5);
        shard.observe("x.ns", 100);
        let mut root = MetricsRegistry::default();
        root.inc("x.count", 1);
        root.absorb(shard.snapshot());
        root.absorb(shard.snapshot());
        let snap = root.snapshot();
        assert_eq!(snap.counters["x.count"], 7);
        assert_eq!(snap.gauges["x.level"], 0.5);
        assert_eq!(snap.histograms["x.ns"].count, 2);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0);
        assert!(s.buckets.is_empty());
    }
}
