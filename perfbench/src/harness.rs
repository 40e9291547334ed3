//! What every workload shares: its arguments, the geometry scale, the
//! repeated set-up, the timed passes, the output check, the end-to-end
//! metrics and the per-layer figures both traced runs report.

use std::panic::{catch_unwind, AssertUnwindSafe};

use apc_cm1::{ReflectivityDataset, StormModel};
use apc_comm::NetModel;
use apc_grid::{Dims3, DomainDecomp, ProcGrid};

use apc_core::IterationReport;
use apc_store::CacheStats;

use crate::clock::{median, now, peak_rss_mb, since, tail, StoreCounts};
use crate::digest::{self, Digest};

/// Geometry and repetition counts of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper geometry at 1:10 scale — what `BENCHMARK.json` measures.
    Full,
    /// The `tiny` geometry: every code path in well under a second, for
    /// the benchmark's own tests.
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// The pipeline workloads' dataset: 220×220×76 points in 1,600
    /// blocks of 11×11×19 on 8 ranks (the 440×440×76 paper-scaled
    /// geometry halved per horizontal axis), or `tiny` on 4 ranks.
    pub fn pipeline_dataset(self, seed: u64) -> ReflectivityDataset {
        match self {
            Scale::Full => {
                let decomp = DomainDecomp::new(
                    Dims3::new(220, 220, 76),
                    ProcGrid::auto2d(8),
                    Dims3::new(11, 11, 19),
                )
                .expect("the benchmark geometry tiles its domain");
                ReflectivityDataset::new(decomp, StormModel::new(seed))
            }
            Scale::Smoke => ReflectivityDataset::tiny(4, seed).expect("the tiny geometry"),
        }
    }

    /// Set-ups per run; `setup_s` is their median.
    pub fn setup_reps(self) -> usize {
        match self {
            Scale::Full => 3,
            Scale::Smoke => 1,
        }
    }

    /// Timed passes a run makes at least, whatever `--seconds` says.
    pub fn min_passes(self) -> usize {
        match self {
            Scale::Full => 5,
            Scale::Smoke => 2,
        }
    }
}

/// The network every session is built with.
pub fn net() -> NetModel {
    NetModel::blue_waters().for_paper_scale()
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Named values as a workload reports them; their units and print order
/// come from the metric lists in `main.rs`.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_owned(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (pipeline iterations, requests).
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub problems: Vec<String>,
    /// The values the workload measured (end-to-end, or per-layer).
    pub metrics: Metrics,
    /// Printed only: workload-specific figures and base counts.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Run `setup` `reps` times, keeping the last result; returns it with
/// the wall seconds of every repetition.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous set-up first so every repetition starts from
        // the same memory state.
        drop(last.take());
        let t0 = now();
        last = Some(setup());
        times.push(since(t0));
    }
    (last.expect("at least one set-up"), times)
}

/// One execution of a workload's timed phase.
#[derive(Debug)]
pub struct Pass {
    pub wall_s: f64,
    /// Wall milliseconds per pipeline iteration (rank 0's input calls).
    pub iter_ms: Vec<f64>,
    pub digest: Digest,
    /// Operations the pass attempted.
    pub ops: u64,
}

/// Turn rank 0's input-call instants plus the run's return into
/// per-iteration wall milliseconds.
pub fn intervals_ms(marks: &[std::time::Instant], end: std::time::Instant) -> Vec<f64> {
    let mut v: Vec<std::time::Instant> = marks.to_vec();
    v.push(end);
    v.windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
        .collect()
}

/// Run one untimed warm-up pass, then timed passes until `seconds` have
/// elapsed and at least `min_passes` were made. A panicking pass (a rank
/// panic, a poisoned session) ends the loop; its operations count as
/// failed, using `ops_per_pass` since it returned nothing.
pub fn run_passes(
    seconds: f64,
    min_passes: usize,
    ops_per_pass: u64,
    out: &mut Outcome,
    mut pass: impl FnMut() -> Pass,
) -> Vec<Pass> {
    let mut passes = Vec::new();
    let mut reference: Option<Digest> = None;
    let mut warm = true;
    let t0 = now();
    loop {
        match catch_unwind(AssertUnwindSafe(&mut pass)) {
            Ok(p) => {
                out.attempted += p.ops;
                match reference {
                    None => reference = Some(p.digest),
                    Some(d) if d != p.digest => {
                        out.failed += p.ops;
                        out.problems.push(format!(
                            "pass digest {} differs from the first pass's {}",
                            p.digest.hex(),
                            d.hex()
                        ));
                    }
                    Some(_) => {}
                }
                if warm {
                    warm = false;
                } else {
                    passes.push(p);
                }
            }
            Err(e) => {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_else(|| "non-string panic".to_owned());
                out.attempted += ops_per_pass;
                out.failed += ops_per_pass;
                out.problems.push(format!("a pass panicked: {msg}"));
                break;
            }
        }
        if passes.len() >= min_passes && since(t0) >= seconds {
            break;
        }
    }
    passes
}

/// The traced run must reproduce the untraced runs' outputs exactly.
pub fn check_traced(out: &mut Outcome, traced: Digest, untraced: Digest, ops: u64) {
    out.attempted += ops;
    if traced != untraced {
        out.failed += ops;
        out.problems.push(format!(
            "traced run digest {} differs from the untraced {}",
            traced.hex(),
            untraced.hex()
        ));
    }
}

/// Compare the run's digest with the recorded one for this seed, if any.
pub fn check_expected(out: &mut Outcome, args: &Args, digest: Digest, ops: u64) {
    let got = digest.hex();
    match digest::expected(&args.workload, args.scale.name(), args.seed) {
        Some(want) if want == got => out.note(format!("digest {got} matches the recorded one")),
        Some(want) => {
            out.failed += ops;
            out.problems
                .push(format!("digest {got} differs from the recorded {want}"));
        }
        None => out.note(format!(
            "digest {got} (no recorded digest for seed {}; checked for repeatability only)",
            args.seed
        )),
    }
}

/// The end-to-end metrics every workload reports, in the order of
/// `BENCHMARK.json`: `setup_s`, `run_s`, `iter_ms_p50`, `iter_ms_tail`,
/// `peak_rss_mb`.
pub fn wall_metrics(out: &mut Outcome, setups: &[f64], passes: &[Pass]) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let iters: Vec<f64> = passes.iter().flat_map(|p| p.iter_ms.clone()).collect();
    for (name, v, what) in [
        ("setup_s", setups, "set-ups"),
        ("run_s", &walls[..], "timed passes"),
    ] {
        out.metrics.put(name, median(v));
        let (lo, hi) = v.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
            (lo.min(w), hi.max(w))
        });
        out.note(format!(
            "{name} is the median of {} {what} (min {lo:.4} s, max {hi:.4} s)",
            v.len()
        ));
    }
    out.metrics.put("iter_ms_p50", median(&iters));
    match tail(&iters) {
        Some((pct, v)) => {
            out.metrics.put("iter_ms_tail", v);
            out.note(format!(
                "iter_ms_tail is p{pct:.2} of {} iteration samples over {} passes",
                iters.len(),
                passes.len()
            ));
        }
        None => {
            let max = iters.iter().copied().fold(0.0, f64::max);
            out.metrics.put("iter_ms_tail", max);
            out.note(format!(
                "iter_ms_tail is the maximum: only {} iteration samples",
                iters.len()
            ));
        }
    }
    out.metrics.put("peak_rss_mb", peak_rss_mb());
}

/// Failed operations over attempted ones, printed with its base counts.
pub fn note_failed_frac(out: &mut Outcome) {
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.note(format!(
        "failed_frac = {frac:.6} ({} failed of {} operations)",
        out.failed, out.attempted
    ));
}

/// `num / den` with an empty base reading as 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One numeric field of an [`IterationReport`].
pub type ReportField = fn(&IterationReport) -> f64;

/// Mean-per-iteration virtual step times.
pub const VIRT_STEPS: [(&str, ReportField); 5] = [
    ("virt.t_score", |r| r.t_score),
    ("virt.t_sort", |r| r.t_sort),
    ("virt.t_reduce", |r| r.t_reduce),
    ("virt.t_redistribute", |r| r.t_redistribute),
    ("virt.t_render", |r| r.t_render),
];

/// The `store` layer's metrics, with the cache's base counts as notes.
pub fn put_store(
    m: &mut Metrics,
    notes: &mut Vec<String>,
    reads: StoreCounts,
    get_s: f64,
    writes: StoreCounts,
    put_s: f64,
    cache: CacheStats,
) {
    m.put("store.gets", reads.gets as f64);
    m.put("store.range_gets", reads.range_gets as f64);
    m.put("store.get_bytes", reads.get_bytes as f64);
    m.put("store.get_s", get_s);
    m.put("store.puts", writes.puts as f64);
    m.put("store.put_bytes", writes.put_bytes as f64);
    m.put("store.put_s", put_s);
    let lookups = cache.hits + cache.misses;
    m.put(
        "store.cache_hit_ratio",
        ratio(cache.hits as f64, lookups as f64),
    );
    m.put(
        "store.prefetch_used_ratio",
        ratio(cache.prefetch_used as f64, cache.prefetched as f64),
    );
    notes.push(format!(
        "store cache base: {} hits of {lookups} lookups; {} of {} prefetched chunks used; {} evictions",
        cache.hits, cache.prefetch_used, cache.prefetched, cache.evictions
    ));
}

/// `trace.*`: the traced run's wall time and its overhead over the
/// untraced median.
pub fn put_trace(m: &mut Metrics, traced_run_s: f64, untraced_run_s: f64) {
    m.put("trace.run_s", traced_run_s);
    m.put("trace.untraced_run_s", untraced_run_s);
    m.put("trace.overhead_frac", traced_run_s / untraced_run_s - 1.0);
}

/// Put `core.residual_s` — the traced `run_s` minus the layers' self
/// times named in `self_times` — and check that the printed figures add
/// up. A negative residual means the replay attributed more wall time
/// to the layers than the run took; it is reported, not hidden.
pub fn put_residual(out: &mut Outcome, traced_run_s: f64, self_times: &[&str]) {
    let sum = |m: &Metrics| -> f64 {
        self_times
            .iter()
            .map(|n| m.get(n).expect("self time put before the residual"))
            .sum()
    };
    let residual = traced_run_s - sum(&out.metrics);
    out.metrics.put("core.residual_s", residual);
    let printed = sum(&out.metrics) + out.metrics.get("core.residual_s").unwrap_or(f64::NAN);
    if (printed - traced_run_s).abs() > 1e-9 * traced_run_s.max(1.0) {
        out.problems.push(format!(
            "layer self times + core.residual_s = {printed:.6} s, traced run_s = {traced_run_s:.6} s"
        ));
    }
    out.note(format!(
        "traced run_s {traced_run_s:.4} s = layer self times {:.4} s + core.residual_s {residual:.4} s ({:.1}%)",
        traced_run_s - residual,
        100.0 * residual / traced_run_s
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(digest: u8) -> Pass {
        let mut d = Digest::default();
        d.add(&digest);
        Pass {
            wall_s: 1.0,
            iter_ms: vec![1.0],
            digest: d,
            ops: 3,
        }
    }

    #[test]
    fn a_panicking_pass_fails_its_operations() {
        let mut out = Outcome::default();
        let mut n = 0;
        let passes = run_passes(0.0, 3, 3, &mut out, || {
            n += 1;
            assert!(n < 3, "rank 2 panicked");
            pass(0)
        });
        assert_eq!(passes.len(), 1, "the warm-up is not kept");
        assert_eq!((out.attempted, out.failed), (9, 3));
        assert!(!out.correct());
    }

    #[test]
    fn a_pass_with_another_digest_fails_its_operations() {
        let mut out = Outcome::default();
        let mut n = 0u8;
        run_passes(0.0, 2, 3, &mut out, || {
            n += 1;
            pass(n / 3)
        });
        assert_eq!((out.attempted, out.failed), (9, 3));
        assert!(!out.correct());
    }
}
