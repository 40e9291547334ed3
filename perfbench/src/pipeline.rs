//! The two synchronous-pipeline workloads and their traced layer replay.
//!
//! * `sweep-mem` regenerates a figure: fifteen configurations over input
//!   preloaded in memory, through one session and one shared
//!   [`StatsCache`]. Scoring, sorting and redistribution repeat on every
//!   configuration; after the first one rendering is mostly cache hits,
//!   and the store and codec are not used at all.
//! * `adapt-store` replays Algorithm 1 from a persisted, sharded Fpz
//!   store read back through the chunk cache with readahead, under a
//!   cache budget below one iteration's compressed working set and with
//!   no stats cache — so store, codec and render do the work `sweep-mem`
//!   skips.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use apc_cm1::{ReflectivityDataset, StoredTimeSeries};
use apc_comm::{sort, Runtime, Session};
use apc_core::selection::score_order;
use apc_core::{
    reduction_set, run_sweep_in_session, ExecPolicy, IterationReport, PipelineConfig,
    Redistribution, ScoredBlock, SortStrategy, StatsCache,
};
use apc_grid::{Block, BlockData, BlockId};
use apc_render::IsoStats;
use apc_store::{CodecKind, DirStore, StoreBackend};

use crate::clock::{lock, median, now, since, Spans, StoreTrace, TimedBackend};
use crate::digest::Digest;
use crate::harness::{
    check_expected, check_traced, intervals_ms, net, note_failed_frac, put_residual, put_store,
    put_trace, ratio, repeated_setup, run_passes, wall_metrics, Args, Outcome, Pass, Scale,
    VIRT_STEPS,
};

/// Iterations each configuration replays.
fn n_iterations(scale: Scale) -> usize {
    match scale {
        Scale::Full => 4,
        Scale::Smoke => 2,
    }
}

/// Chunks packed per shard container in the `adapt-store` dataset.
const CHUNKS_PER_SHARD: usize = 50;

/// `adapt-store`'s chunk-cache budget: below one iteration's compressed
/// working set (~5 MB at full scale), so each iteration reads cold.
fn store_cache_bytes(scale: Scale) -> usize {
    match scale {
        Scale::Full => 2 << 20,
        Scale::Smoke => 64 << 10,
    }
}

/// Iterations of each adaptive run excluded from the budget-miss count
/// while the controller settles.
const WARMUP_ITERS: usize = 1;

/// The figure sweep: percents {0, 40, 80, 95} × redistribution {None,
/// RoundRobin, RandomShuffle}, then FPZIP-scored, ITL-scored and
/// sample-sorted variants of 80 % round-robin.
pub fn sweep_configs(seed: u64) -> Vec<PipelineConfig> {
    let mut configs = Vec::new();
    for percent in [0.0, 40.0, 80.0, 95.0] {
        for r in [
            Redistribution::None,
            Redistribution::RoundRobin,
            Redistribution::RandomShuffle { seed },
        ] {
            configs.push(
                PipelineConfig::default()
                    .with_fixed_percent(percent)
                    .with_redistribution(r),
            );
        }
    }
    let variant = || {
        PipelineConfig::default()
            .with_fixed_percent(80.0)
            .with_redistribution(Redistribution::RoundRobin)
    };
    configs.push(variant().with_metric("FPZIP"));
    configs.push(variant().with_metric("ITL"));
    let mut sample = variant();
    sample.sort = SortStrategy::SampleSort;
    configs.push(sample);
    configs
}

/// `adapt-store`'s virtual time budgets: fixed fractions of a reference
/// iteration time near the unreduced round-robin pipeline's (~45 s at
/// full scale), so the controller has to reduce under every budget
/// whatever storm the seed draws.
fn adapt_configs(scale: Scale) -> Vec<PipelineConfig> {
    let reference = match scale {
        Scale::Full => 45.0,
        Scale::Smoke => 8.0,
    };
    [0.45, 0.65, 0.85]
        .iter()
        .map(|f| {
            PipelineConfig::default()
                .with_target(f * reference)
                .with_redistribution(Redistribution::RoundRobin)
        })
        .collect()
}

/// Times `adapt-store` replays its stored timeline per configuration,
/// giving the controller twice the steps the store holds iterations for.
const ADAPT_LAPS: usize = 2;

/// Where a pipeline workload's blocks come from.
enum Source {
    Mem(BTreeMap<(usize, usize), Vec<Block>>),
    Store {
        dir: PathBuf,
        stored: Box<StoredTimeSeries>,
    },
}

impl Source {
    fn blocks(&self, it: usize, rank: usize) -> Vec<Block> {
        match self {
            Source::Mem(map) => map[&(it, rank)].clone(),
            Source::Store { stored, .. } => read_blocks(stored, it, rank),
        }
    }
}

fn read_blocks(stored: &StoredTimeSeries, it: usize, rank: usize) -> Vec<Block> {
    stored
        .rank_blocks(it, rank)
        .unwrap_or_else(|e| panic!("store read failed for iteration {it} rank {rank}: {e}"))
}

impl Drop for Source {
    fn drop(&mut self) {
        if let Source::Store { dir, .. } = self {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A pipeline workload's prepared input.
struct Input {
    dataset: ReflectivityDataset,
    iters: Vec<usize>,
    source: Source,
    session: Session,
    synth_s: f64,
    spawn_s: f64,
}

/// A fresh directory for one stored dataset, inside the working
/// directory (the benchmark writes nowhere else).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = PathBuf::from(".perfbench-data").join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn(nranks: usize) -> (Session, f64) {
    let t0 = now();
    let session = Runtime::new(nranks, net()).session();
    (session, since(t0))
}

/// `sweep-mem` set-up: synthesize every `(iteration, rank)` block set.
fn setup_mem(scale: Scale, seed: u64) -> Input {
    let dataset = scale.pipeline_dataset(seed);
    let iters = dataset.sample_iterations(n_iterations(scale));
    let nranks = dataset.decomp().nranks();
    let t0 = now();
    let mut map = BTreeMap::new();
    for &it in &iters {
        for rank in 0..nranks {
            map.insert((it, rank), dataset.rank_blocks(it, rank));
        }
    }
    let synth_s = since(t0);
    let (session, spawn_s) = spawn(nranks);
    Input {
        dataset,
        iters,
        source: Source::Mem(map),
        session,
        synth_s,
        spawn_s,
    }
}

/// `adapt-store` set-up: write the sharded Fpz dataset to disk (storm
/// synthesis and encoding happen inside the write) and reopen it behind
/// the chunk cache with readahead. `trace` records the writes.
fn setup_store(scale: Scale, seed: u64, trace: Option<&Arc<StoreTrace>>) -> Input {
    let dataset = scale.pipeline_dataset(seed);
    let iters = dataset.sample_iterations(n_iterations(scale));
    let dir = scratch_dir("adapt-store");
    let t0 = now();
    let disk = DirStore::create(&dir).expect("create the dataset directory");
    let write = |b: Box<dyn StoreBackend>| {
        apc_cm1::write_dataset_sharded_to(&dataset, &iters, b, CodecKind::Fpz, CHUNKS_PER_SHARD)
            .map(drop)
    };
    match trace {
        Some(t) => write(Box::new(TimedBackend::new(disk, Arc::clone(t)))),
        None => write(Box::new(disk)),
    }
    .expect("write the stored dataset");
    let synth_s = since(t0);
    let stored = open_store(&dir, scale, None);
    let (session, spawn_s) = spawn(dataset.decomp().nranks());
    Input {
        dataset,
        iters,
        source: Source::Store {
            dir,
            stored: Box::new(stored),
        },
        session,
        synth_s,
        spawn_s,
    }
}

fn open_store(
    dir: &std::path::Path,
    scale: Scale,
    trace: Option<&Arc<StoreTrace>>,
) -> StoredTimeSeries {
    let disk = DirStore::open(dir).expect("reopen the dataset directory");
    let backend: Box<dyn StoreBackend> = match trace {
        Some(t) => Box::new(TimedBackend::new(disk, Arc::clone(t))),
        None => Box::new(disk),
    };
    StoredTimeSeries::from_backend_cached(backend, store_cache_bytes(scale))
        .expect("open the stored dataset")
}

/// What one pipeline pass produced.
struct Ran {
    reports: Vec<Vec<IterationReport>>,
    pass: Pass,
}

/// One pass of the timed phase: every configuration through
/// `run_sweep_in_session`, with `blocks` as the per-`(iteration, rank)`
/// input callback. Rank 0's calls mark the iteration boundaries.
fn run_once(
    session: &mut Session,
    dataset: &ReflectivityDataset,
    configs: &[PipelineConfig],
    iters: &[usize],
    blocks: &(dyn Fn(usize, usize) -> Vec<Block> + Sync),
) -> Ran {
    let marks = Mutex::new(Vec::new());
    let input = |it: usize, rank: usize| {
        if rank == 0 {
            lock(&marks).push(now());
        }
        blocks(it, rank)
    };
    let t0 = now();
    let reports = run_sweep_in_session(
        session,
        dataset.decomp(),
        dataset.coords(),
        configs,
        iters,
        &input,
    );
    let end = now();
    let mut digest = Digest::default();
    for series in &reports {
        digest.add(series);
    }
    let ops = reports.iter().map(Vec::len).sum::<usize>() as u64;
    Ran {
        reports,
        pass: Pass {
            wall_s: end.duration_since(t0).as_secs_f64(),
            iter_ms: intervals_ms(&marks.into_inner().unwrap_or_else(|p| p.into_inner()), end),
            digest,
            ops,
        },
    }
}

/// Attach a fresh stats cache (`sweep-mem`) or none (`adapt-store`).
fn with_cache(configs: &[PipelineConfig], cache: Option<&Arc<StatsCache>>) -> Vec<PipelineConfig> {
    configs
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.stats_cache = cache.cloned();
            c.exec = ExecPolicy::Serial;
            c
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    let store = args.workload == "adapt-store";
    let scale = args.scale;
    let mut out = Outcome::default();
    let write_trace = Arc::new(StoreTrace::default());
    let setup = |trace: Option<&Arc<StoreTrace>>| {
        if store {
            setup_store(scale, args.seed, trace)
        } else {
            setup_mem(scale, args.seed)
        }
    };
    // `setup_s` comes from the untraced run, which repeats the set-up;
    // the traced run sets up once, recording the store writes.
    let (mut input, setups) = if args.trace {
        repeated_setup(1, || setup(Some(&write_trace)))
    } else {
        repeated_setup(scale.setup_reps(), || setup(None))
    };
    let configs = if store {
        adapt_configs(scale)
    } else {
        sweep_configs(args.seed)
    };
    let Input {
        dataset,
        iters,
        source,
        session,
        synth_s,
        spawn_s,
    } = &mut input;
    let laps = if store { ADAPT_LAPS } else { 1 };
    let timeline: Vec<usize> = iters.repeat(laps);
    let ops_per_pass = (configs.len() * timeline.len()) as u64;

    // The timed phase, untraced.
    let mut last: Option<Vec<Vec<IterationReport>>> = None;
    let passes = run_passes(
        args.seconds,
        scale.min_passes(),
        ops_per_pass,
        &mut out,
        || {
            let cache = (!store).then(|| Arc::new(StatsCache::new()));
            let cfgs = with_cache(&configs, cache.as_ref());
            if let Source::Store { stored, .. } = &*source {
                stored.cache_clear();
            }
            let ran = run_once(session, dataset, &cfgs, &timeline, &|it, r| {
                source.blocks(it, r)
            });
            last = Some(ran.reports);
            ran.pass
        },
    );
    let (Some(reports), false) = (last, session.is_poisoned()) else {
        note_failed_frac(&mut out);
        return out;
    };
    let digest = passes.first().map(|p| p.digest).unwrap_or_default();
    check_expected(&mut out, args, digest, ops_per_pass);

    let nblocks = dataset.decomp().all_blocks().count();
    let all: Vec<&IterationReport> = reports.iter().flatten().collect();
    let n = all.len() as f64;
    let virt_insitu_s = all.iter().map(|r| r.t_total).sum::<f64>() / n;
    let reduced: usize = all.iter().map(|r| r.blocks_reduced).sum();
    let scored = nblocks * all.len();
    let reduced_frac = ratio(reduced as f64, scored as f64);
    out.note(format!(
        "reduced_frac = {reduced_frac:.6} ({reduced} blocks reduced of {scored} scored)"
    ));
    let mut miss_frac = 0.0;
    if store {
        let mut over = 0usize;
        let mut total = 0usize;
        for (cfg, series) in configs.iter().zip(&reports) {
            let budget = cfg.target_time.expect("adaptive configs carry a budget");
            for r in series.iter().skip(WARMUP_ITERS) {
                total += 1;
                over += usize::from(r.t_total > budget);
            }
        }
        miss_frac = ratio(over as f64, total as f64);
        out.note(format!(
            "virt_budget_miss_frac = {miss_frac:.6} ({over} of {total} post-warm-up iterations over budget)"
        ));
    }

    out.note(format!(
        "virt_insitu_s = {virt_insitu_s:.6} s (mean virtual t_total per iteration over {} iterations)",
        all.len()
    ));
    if !args.trace {
        wall_metrics(&mut out, &setups, &passes);
        note_failed_frac(&mut out);
        return out;
    }

    // The traced run: the same calls with the input callback and the
    // store reads timed.
    let untraced_run_s = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let input_spans = Spans::default();
    let captured: Mutex<BTreeMap<(usize, usize), Vec<Block>>> = Mutex::new(BTreeMap::new());
    let read_trace = Arc::new(StoreTrace::default());
    let traced_store = match &*source {
        Source::Store { dir, .. } => Some(open_store(dir, scale, Some(&read_trace))),
        Source::Mem(_) => None,
    };
    let cache = (!store).then(|| Arc::new(StatsCache::new()));
    let cfgs = with_cache(&configs, cache.as_ref());
    let traced = run_once(session, dataset, &cfgs, &timeline, &|it, r| {
        let blocks = input_spans.time(|| match &traced_store {
            Some(s) => read_blocks(s, it, r),
            None => source.blocks(it, r),
        });
        if traced_store.is_some() {
            lock(&captured).insert((it, r), blocks.clone());
        }
        blocks
    });
    check_traced(&mut out, traced.pass.digest, digest, ops_per_pass);
    let traced_run_s = traced.pass.wall_s;
    let lookups: usize = if store {
        0
    } else {
        all.iter().map(|r| nblocks - r.blocks_reduced).sum()
    };
    let stats_entries = cache.as_ref().map_or(0, |c| c.len());

    // The layer replay over the captured inputs.
    let captured = captured.into_inner().unwrap_or_else(|p| p.into_inner());
    let mut layers = LayerStats::default();
    let encoded = store.then(|| encode_all(dataset, &captured, &mut layers));
    let replay_input = |it: usize, r: usize| match &*source {
        Source::Mem(map) => map[&(it, r)].clone(),
        Source::Store { .. } => captured[&(it, r)].clone(),
    };
    let problems = replay_layers(
        session,
        dataset,
        &configs,
        &timeline,
        &reports,
        &replay_input,
        encoded.as_ref(),
        !store,
        &mut layers,
    );
    out.problems.extend(problems);

    let m = &mut out.metrics;
    m.put("cm1.synth_s", *synth_s);
    m.put(
        "cm1.points",
        (nblocks * dataset.decomp().block_dims().len() * iters.len()) as f64,
    );
    // Store reads run inside the input callbacks on every rank at once:
    // their share of the callbacks' busy time is their share of the
    // input phase's wall time. The rest is decode (measured by the
    // replay) and the callback's own work.
    let input_wall = input_spans.union_s();
    let get_share = ratio(read_trace.reads.sum_s(), input_spans.sum_s());
    let store_get_s = input_wall * get_share;
    let input_self = input_wall * (1.0 - get_share) - layers.decode_s;
    out.notes.push(format!(
        "core.input_s = input phase {input_wall:.4} s x {:.3} not in store reads - replayed decode {:.4} s{}",
        1.0 - get_share,
        layers.decode_s,
        if input_self < 0.0 { " (negative: clamped to 0)" } else { "" }
    ));
    m.put("core.input_s", input_self.max(0.0));
    m.put("core.input_calls", input_spans.count() as f64);
    m.put("core.session_spawn_s", *spawn_s);
    let cache_stats = traced_store
        .as_ref()
        .and_then(StoredTimeSeries::cache_stats)
        .unwrap_or_default();
    put_store(
        m,
        &mut out.notes,
        read_trace.counts(),
        store_get_s,
        write_trace.counts(),
        write_trace.writes.union_s(),
        cache_stats,
    );
    layers.put(m, &mut out.notes, lookups, stats_entries);
    for (name, f) in VIRT_STEPS {
        m.put(name, all.iter().map(|r| f(r)).sum::<f64>() / n);
    }
    m.put("virt.insitu_s", virt_insitu_s);
    m.put("virt.reduced_frac", reduced_frac);
    m.put("virt.budget_miss_frac", miss_frac);
    put_trace(m, traced_run_s, untraced_run_s);
    put_residual(
        &mut out,
        traced_run_s,
        &[
            "core.input_s",
            "store.get_s",
            "compress.decode_s",
            "metrics.score_s",
            "comm.sort_s",
            "grid.reduce_s",
            "redistribute.exchange_s",
            "render.iso_s",
        ],
    );
    note_failed_frac(&mut out);
    out
}

/// Each captured block set's chunk streams, keyed by `(iteration, rank)`.
type Encoded = BTreeMap<(usize, usize), Vec<Vec<u8>>>;

/// Per-layer wall seconds and work counts of the layer replay.
#[derive(Debug, Default)]
pub struct LayerStats {
    pub encode_s: f64,
    pub encoded_bytes: u64,
    pub raw_bytes: u64,
    pub decode_s: f64,
    pub decoded_bytes: u64,
    pub score_s: f64,
    pub blocks_scored: u64,
    pub points: u64,
    pub sort_s: f64,
    pub sorted_keys: u64,
    pub reduce_s: f64,
    pub blocks_reduced: u64,
    pub exchange_s: f64,
    pub blocks_moved: u64,
    pub bytes_moved: u64,
    pub render_s: f64,
    pub render_blocks: u64,
    pub triangles: u64,
}

impl LayerStats {
    fn put(
        &self,
        m: &mut crate::harness::Metrics,
        notes: &mut Vec<String>,
        lookups: usize,
        entries: usize,
    ) {
        m.put("compress.decode_s", self.decode_s);
        m.put("compress.decoded_bytes", self.decoded_bytes as f64);
        m.put("compress.encode_s", self.encode_s);
        m.put("compress.encoded_bytes", self.encoded_bytes as f64);
        m.put(
            "compress.ratio",
            ratio(self.encoded_bytes as f64, self.raw_bytes as f64),
        );
        m.put("metrics.score_s", self.score_s);
        m.put("metrics.blocks_scored", self.blocks_scored as f64);
        m.put("metrics.points", self.points as f64);
        m.put("comm.sort_s", self.sort_s);
        m.put("comm.sorted_keys", self.sorted_keys as f64);
        m.put("redistribute.exchange_s", self.exchange_s);
        m.put("redistribute.blocks_moved", self.blocks_moved as f64);
        m.put("redistribute.computed_bytes_moved", self.bytes_moved as f64);
        m.put("grid.reduce_s", self.reduce_s);
        m.put("grid.blocks_reduced", self.blocks_reduced as f64);
        m.put("render.iso_s", self.render_s);
        m.put("render.blocks", self.render_blocks as f64);
        m.put("render.triangles", self.triangles as f64);
        let hits = lookups.saturating_sub(entries);
        m.put(
            "render.stats_cache_hit_ratio",
            ratio(hits as f64, lookups as f64),
        );
        notes.push(format!(
            "render.stats_cache_hit_ratio base: {hits} hits of {lookups} full-block lookups ({entries} entries)"
        ));
    }
}

/// Encode every captured block with the store's chunk codec — the
/// `compress` layer's encode side, which the program runs inside the
/// set-up's dataset write.
fn encode_all(
    dataset: &ReflectivityDataset,
    captured: &BTreeMap<(usize, usize), Vec<Block>>,
    layers: &mut LayerStats,
) -> Encoded {
    let dims = dataset.decomp().block_dims();
    let t0 = now();
    let encoded: Encoded = captured
        .iter()
        .map(|(&k, blocks)| {
            let streams = blocks
                .iter()
                .map(|b| CodecKind::Fpz.encode_chunk(&b.samples(), dims))
                .collect();
            (k, streams)
        })
        .collect();
    layers.encode_s = since(t0);
    layers.encoded_bytes = encoded.values().flatten().map(|s| s.len() as u64).sum();
    layers.raw_bytes = captured
        .values()
        .flatten()
        .map(|b| (b.samples().len() * 4) as u64)
        .sum();
    encoded
}

/// Rank 0's per-phase wall seconds plus this rank's work counts.
#[derive(Debug, Default, Clone, Copy)]
struct RankReplay {
    decode_s: f64,
    score_s: f64,
    sort_s: f64,
    reduce_s: f64,
    exchange_s: f64,
    render_s: f64,
    decoded_bytes: u64,
    decode_mismatches: u64,
    scored: u64,
    points: u64,
    sorted_keys: u64,
    reduced: u64,
    moved: u64,
    moved_bytes: u64,
    rendered: u64,
}

/// Replay the captured inputs through each layer's public function in
/// the workload's own session, one barrier-separated phase per layer so
/// rank 0's clock sees each phase's wall time as the run does: decode
/// (store workloads), `score_blocks`, the configured sort,
/// `reduction_set` + `Block::downsample`, `assignment` + `exchange`, and
/// `batch_isosurface_stats` behind a mirror of the stats cache. Returns
/// the problems found when the replay's counted work disagrees with the
/// program's reports.
#[allow(clippy::too_many_arguments)]
pub fn replay_layers(
    session: &mut Session,
    dataset: &ReflectivityDataset,
    configs: &[PipelineConfig],
    iters: &[usize],
    reports: &[Vec<IterationReport>],
    input: &(dyn Fn(usize, usize) -> Vec<Block> + Sync),
    encoded: Option<&Encoded>,
    cache_render: bool,
    layers: &mut LayerStats,
) -> Vec<String> {
    let decomp = *dataset.decomp();
    let coords = dataset.coords();
    let dims = decomp.block_dims();
    let mirror: Mutex<BTreeMap<(usize, BlockId), IsoStats>> = Mutex::new(BTreeMap::new());
    let mut problems = Vec::new();
    for (ci, cfg) in configs.iter().enumerate() {
        // (per-rank totals, per-iteration (reduced, triangles) per rank)
        let per_rank: Vec<(RankReplay, Vec<(u64, u64)>)> = session.run(|rank| {
            let me = rank.rank();
            let scorer = apc_metrics::by_name(&cfg.metric).expect("known metric");
            let mut acc = RankReplay::default();
            let mut per_iter = Vec::new();
            for (ii, &it) in iters.iter().enumerate() {
                let mut blocks = input(it, me);
                let mut laps = Laps::start(rank);
                if let Some(enc) = encoded {
                    let streams = &enc[&(it, me)];
                    let decoded: Vec<Block> = blocks
                        .iter()
                        .zip(streams)
                        .map(|(b, s)| Block {
                            id: b.id,
                            extent: b.extent,
                            data: BlockData::Full(
                                CodecKind::Fpz
                                    .decode_chunk(s, dims)
                                    .expect("decode a chunk"),
                            ),
                        })
                        .collect();
                    laps.lap(rank, &mut acc.decode_s);
                    acc.decoded_bytes += decoded.iter().map(|b| b.nbytes() as u64).sum::<u64>();
                    acc.decode_mismatches += u64::from(decoded != blocks);
                    blocks = decoded;
                    laps.restart(rank);
                }
                let scores =
                    apc_metrics::score_blocks(scorer.as_ref(), &blocks, ExecPolicy::Serial);
                laps.lap(rank, &mut acc.score_s);
                acc.scored += scores.len() as u64;
                acc.points += scores.iter().map(|s| s.points as u64).sum::<u64>();
                let scored: Vec<ScoredBlock> = scores
                    .iter()
                    .map(|s| ScoredBlock {
                        id: s.id,
                        score: s.score,
                    })
                    .collect();
                laps.restart(rank);
                let sorted = match cfg.sort {
                    SortStrategy::GatherSortBroadcast => {
                        sort::gather_sort_broadcast(rank, scored, score_order)
                    }
                    SortStrategy::SampleSort => sort::sample_sort(rank, scored, score_order),
                };
                laps.lap(rank, &mut acc.sort_s);
                acc.sorted_keys += sorted.len() as u64;
                let to_reduce = reduction_set(&sorted, reports[ci][ii].percent_reduced);
                let mut reduced = 0u64;
                for b in &mut blocks {
                    if to_reduce.contains(&b.id) {
                        b.downsample(cfg.reduce_keep);
                        reduced += 1;
                    }
                }
                laps.lap(rank, &mut acc.reduce_s);
                acc.reduced += reduced;
                let held = if cfg.redistribution == Redistribution::None {
                    blocks
                } else {
                    let assign = apc_core::redistribute::assignment(
                        cfg.redistribution,
                        &sorted,
                        rank.nranks(),
                        |id| decomp.owner_of_block(id),
                    );
                    for b in blocks.iter().filter(|b| assign[b.id as usize] != me) {
                        acc.moved += 1;
                        acc.moved_bytes += b.nbytes() as u64;
                    }
                    laps.restart(rank);
                    let held = apc_core::redistribute::exchange(rank, blocks, &assign);
                    laps.lap(rank, &mut acc.exchange_s);
                    held
                };
                laps.restart(rank);
                let (cached, todo): (Vec<Block>, Vec<Block>) = held.into_iter().partition(|b| {
                    cache_render && !b.is_reduced() && lock(&mirror).contains_key(&(it, b.id))
                });
                let stats = apc_render::batch_isosurface_stats(
                    &todo,
                    coords,
                    cfg.isovalue,
                    ExecPolicy::Serial,
                );
                laps.lap(rank, &mut acc.render_s);
                acc.rendered += todo.len() as u64;
                let mut triangles: u64 = stats.iter().map(|s| s.triangles as u64).sum();
                {
                    let mut m = lock(&mirror);
                    triangles += cached
                        .iter()
                        .map(|b| m[&(it, b.id)].triangles as u64)
                        .sum::<u64>();
                    if cache_render {
                        for (b, s) in todo.iter().zip(&stats) {
                            if !b.is_reduced() {
                                m.insert((it, b.id), *s);
                            }
                        }
                    }
                }
                per_iter.push((reduced, triangles));
            }
            (acc, per_iter)
        });
        let r0 = per_rank[0].0;
        layers.decode_s += r0.decode_s;
        layers.score_s += r0.score_s;
        layers.sort_s += r0.sort_s;
        layers.reduce_s += r0.reduce_s;
        layers.exchange_s += r0.exchange_s;
        layers.render_s += r0.render_s;
        layers.sorted_keys += r0.sorted_keys;
        let mut mismatches = 0;
        for (acc, _) in &per_rank {
            layers.decoded_bytes += acc.decoded_bytes;
            layers.blocks_scored += acc.scored;
            layers.points += acc.points;
            layers.blocks_reduced += acc.reduced;
            layers.blocks_moved += acc.moved;
            layers.bytes_moved += acc.moved_bytes;
            layers.render_blocks += acc.rendered;
            mismatches += acc.decode_mismatches;
        }
        if mismatches > 0 {
            problems.push(format!(
                "config {ci}: {mismatches} decoded block sets differ from the program's input"
            ));
        }
        for (ii, report) in reports[ci].iter().enumerate() {
            let reduced: u64 = per_rank.iter().map(|(_, v)| v[ii].0).sum();
            let triangles: u64 = per_rank.iter().map(|(_, v)| v[ii].1).sum();
            layers.triangles += triangles;
            if reduced != report.blocks_reduced as u64 || triangles != report.triangles_total as u64
            {
                problems.push(format!(
                    "config {ci} iteration {}: replay reduced {reduced} blocks / {triangles} \
                     triangles, the program {} / {}",
                    report.iteration, report.blocks_reduced, report.triangles_total
                ));
            }
        }
    }
    problems
}

/// Barrier-separated phase timing on one rank: every rank waits at the
/// barrier, so rank 0's lap is the phase's wall time across the session.
struct Laps(std::time::Instant);

impl Laps {
    fn start(rank: &mut apc_comm::Rank) -> Self {
        rank.barrier();
        Laps(now())
    }

    /// Close the current phase into `slot` and open the next.
    fn lap(&mut self, rank: &mut apc_comm::Rank, slot: &mut f64) {
        rank.barrier();
        let t = now();
        *slot += t.duration_since(self.0).as_secs_f64();
        self.0 = t;
    }

    /// Open a new phase, leaving bookkeeping since the last lap untimed.
    fn restart(&mut self, rank: &mut apc_comm::Rank) {
        rank.barrier();
        self.0 = now();
    }
}
