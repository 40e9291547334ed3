//! Wall-clock measurement from outside the program: the one clock read,
//! interval sets whose union gives the wall time a layer was busy, the
//! timing [`StoreBackend`] wrapper, and the order statistics the report
//! prints.
//!
//! Wall readings never feed a virtual metric: virtual figures come only
//! from the program's own reports.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use apc_store::{StoreBackend, StoreError};

/// The benchmark's only wall-clock read.
pub fn now() -> Instant {
    // apc-lint: allow(wall-clock): the benchmark times the program from outside; no reading reaches a virtual metric or an output digest
    Instant::now()
}

/// Seconds elapsed since `t0`.
pub fn since(t0: Instant) -> f64 {
    now().duration_since(t0).as_secs_f64()
}

/// Lock a benchmark-owned mutex. Poisoning means a rank panicked while
/// recording, which the pass already reports as failed.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Closed wall intervals recorded from any thread.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Mutex<Vec<(Instant, Instant)>>,
}

impl Spans {
    /// Run `f`, recording the interval it took.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = now();
        let out = f();
        let t1 = now();
        lock(&self.spans).push((t0, t1));
        out
    }

    pub fn count(&self) -> usize {
        lock(&self.spans).len()
    }

    /// Summed duration of every interval (busy time across threads).
    pub fn sum_s(&self) -> f64 {
        lock(&self.spans)
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64())
            .sum()
    }

    /// Wall seconds covered by at least one interval. Rank threads run
    /// concurrently, so the union — not the sum — is what the layer adds
    /// to the run's wall time.
    pub fn union_s(&self) -> f64 {
        let mut v = lock(&self.spans).clone();
        v.sort_by_key(|s| s.0);
        let mut total = 0.0;
        let mut cur: Option<(Instant, Instant)> = None;
        for (a, b) in v {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    total += cb.duration_since(ca).as_secs_f64();
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            total += cb.duration_since(ca).as_secs_f64();
        }
        total
    }
}

/// Counters of a [`TimedBackend`].
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreCounts {
    pub gets: u64,
    pub range_gets: u64,
    pub get_bytes: u64,
    pub puts: u64,
    pub put_bytes: u64,
}

/// What a [`TimedBackend`] recorded; shared by every clone of the
/// wrapper so readers on many rank threads add to one record.
#[derive(Debug, Default)]
pub struct StoreTrace {
    pub reads: Spans,
    pub writes: Spans,
    counts: Mutex<StoreCounts>,
}

impl StoreTrace {
    pub fn counts(&self) -> StoreCounts {
        *lock(&self.counts)
    }
}

/// A [`StoreBackend`] that forwards every call and records its wall
/// interval and byte count. Used only in traced runs.
pub struct TimedBackend<B> {
    inner: B,
    trace: Arc<StoreTrace>,
}

impl<B> TimedBackend<B> {
    pub fn new(inner: B, trace: Arc<StoreTrace>) -> Self {
        Self { inner, trace }
    }
}

impl<B: StoreBackend> StoreBackend for TimedBackend<B> {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let r = self.trace.writes.time(|| self.inner.put(key, bytes));
        let mut c = lock(&self.trace.counts);
        c.puts += 1;
        c.put_bytes += bytes.len() as u64;
        r
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        let r = self.trace.reads.time(|| self.inner.get(key));
        let mut c = lock(&self.trace.counts);
        c.gets += 1;
        c.get_bytes += r.as_ref().map_or(0, |b| b.len() as u64);
        r
    }

    fn contains(&self, key: &str) -> Result<bool, StoreError> {
        self.inner.contains(key)
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>, StoreError> {
        let r = self
            .trace
            .reads
            .time(|| self.inner.get_range(key, offset, len));
        let mut c = lock(&self.trace.counts);
        c.range_gets += 1;
        c.get_bytes += r.as_ref().map_or(0, |b| b.len() as u64);
        r
    }

    fn size(&self, key: &str) -> Result<u64, StoreError> {
        self.inner.size(key)
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` that still has at least ten samples
/// beyond it: `(percentile, value)`, nearest-rank. `None` below eleven
/// samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    // Rank n - 10 (1-based) leaves exactly ten samples above it.
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, s[rank - 1]))
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, x) = tail(&v).expect("enough samples");
        assert_eq!(x, 90.0);
        assert_eq!(v.iter().filter(|&&y| y > x).count(), 10);
        assert!((p - 90.0).abs() < 1e-12);
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn union_merges_overlaps() {
        let s = Spans::default();
        let t0 = now();
        let d = |ms| t0 + Duration::from_millis(ms);
        lock(&s.spans).extend([(d(0), d(10)), (d(5), d(20)), (d(30), d(40))]);
        assert!((s.union_s() - 0.030).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
