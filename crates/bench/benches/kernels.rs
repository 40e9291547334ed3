//! Microbenchmarks of the hot kernels (`cargo bench -p apc-bench --bench
//! kernels`), self-harnessed with `std::time` so the suite has no external
//! benchmarking dependency.
//!
//! Three sections:
//!
//! 1. **Execution-policy comparison** — block scoring and isosurface
//!    extraction over a 64-block set, `Serial` vs `Threads(8)`, with the
//!    wall-clock speedup printed per kernel, plus a
//!    byte-identical-reports check between the two policies on a full
//!    pipeline run. On an N-core machine the speedup approaches
//!    `min(8, N)`; on a 1-core container it is ~1.0 by physics, and the
//!    determinism check is the part that must always hold.
//! 2. **Session vs spawn-per-run** — a small configuration sweep executed
//!    (a) the pre-session way, one fresh `Runtime::run` (thread spawn +
//!    join) per configuration, and (b) through one persistent
//!    `Runtime::session`. Reports the wall-clock comparison and checks the
//!    reports are byte-identical.
//! 3. **Store read vs in-memory generation** — one rank's per-iteration
//!    block input produced by (a) the synthetic simulation and (b) an
//!    `apc-store` chunked dataset under each codec (memory- and
//!    disk-backed, one-file-per-chunk and shard-container layouts), with
//!    stored sizes and a bit-exactness check for the lossless codecs.
//! 4. **Staged vs synchronous pipeline** — the dedicated-core staging mode
//!    on a tiny dataset, with both wall seconds and the headline virtual
//!    quantities (sync pipeline time vs staged sim-visible time).
//! 5. **Serial micro-timings** — metrics, codecs, marching tetrahedra,
//!    storm generation and the distributed sort, as throughput numbers.
//!
//! Besides the stdout tables, every timed row lands in
//! `target/experiments/bench_kernels.json` — the machine-readable
//! performance trajectory future changes diff against (schema documented
//! in README §Developing).

use std::time::Instant;

use apc_bench::harness::print_table;
use apc_cm1::{
    open_dataset, open_dataset_cached, write_dataset, write_dataset_sharded,
    write_dataset_sharded_to, write_dataset_to, ReflectivityDataset, StormModel, DBZ_ISOVALUE,
};
use apc_comm::{sort, NetModel, Runtime};
use apc_compress::{probe_ratios, FloatCodec, Fpz, Lz77, Zfpx};
use apc_core::{ExecPolicy, IterationReport, Pipeline, PipelineConfig};
use apc_grid::{Block, Dims3, RectilinearCoords};
use apc_metrics::{score_blocks, standard_six};
use apc_render::{batch_isosurface_stats, marching_tetrahedra};
use apc_store::{CodecKind, MemStore};

/// Median wall-clock seconds of `runs` invocations of `f`.
fn time_median<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Collects every timed row and serializes the machine-readable
/// performance trajectory (`target/experiments/bench_kernels.json`).
/// Names are stable slugs; `wall_s` is median wall seconds; `virtual_s`
/// carries the modeled virtual seconds where the row has one (pipeline
/// rows), else `null`.
#[derive(Default)]
struct Recorder {
    entries: Vec<(String, f64, Option<f64>)>,
}

impl Recorder {
    fn wall(&mut self, name: &str, wall_s: f64) {
        self.entries.push((name.to_string(), wall_s, None));
    }

    fn wall_and_virtual(&mut self, name: &str, wall_s: f64, virtual_s: f64) {
        self.entries
            .push((name.to_string(), wall_s, Some(virtual_s)));
    }

    fn write_json(&self) -> std::path::PathBuf {
        let path = apc_bench::harness::out_dir().join("bench_kernels.json");
        let mut body = String::from("{\n  \"schema\": 1,\n  \"entries\": [\n");
        for (i, (name, wall, virt)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let virt = match virt {
                Some(v) => format!("{v:.9}"),
                None => "null".to_string(),
            };
            body.push_str(&format!(
                "    {{\"name\": \"{name}\", \"wall_s\": {wall:.9}, \"virtual_s\": {virt}}}{comma}\n"
            ));
        }
        body.push_str("  ]\n}\n");
        std::fs::write(&path, body).expect("write bench_kernels.json");
        path
    }
}

/// 64 paper-scaled blocks of real storm data, mixing storm-core and
/// clear-air content (uneven per-block cost, like a real rank).
fn block_set() -> (Vec<Block>, RectilinearCoords) {
    let dataset = ReflectivityDataset::paper_scaled(64, 7).expect("dataset");
    let it = dataset.sample_iterations(3)[1];
    let mut blocks = Vec::with_capacity(64);
    let mut rank = 0;
    while blocks.len() < 64 {
        for b in dataset.rank_blocks(it, rank) {
            if blocks.len() < 64 {
                blocks.push(b);
            }
        }
        rank += 1;
    }
    (blocks, dataset.coords().clone())
}

/// The paper-scaled dataset, a sampled iteration and the block near the
/// storm center at that iteration.
fn storm_site() -> (ReflectivityDataset, usize, u32) {
    let dataset = ReflectivityDataset::paper_scaled(64, 7).expect("dataset");
    let it = dataset.sample_iterations(3)[1];
    let storm_center = dataset.storm().center(dataset.storm().tau(it));
    let gb = dataset.decomp().global_block_grid();
    let bi = (storm_center[0] * gb.nx as f32) as usize;
    let bj = (storm_center[1] * gb.ny as f32) as usize;
    let id = dataset.decomp().block_id_at((bi, bj, 1));
    (dataset, it, id)
}

/// One paper-scaled block near the storm center: dense, noisy content.
fn storm_block() -> (Vec<f32>, Dims3) {
    let (dataset, it, id) = storm_site();
    let block = dataset.block(it, id);
    let dims = block.dims();
    (block.samples().into_owned(), dims)
}

/// Every block of the rank that owns [`storm_block`]: storm core and its
/// surroundings, the batch one rank's chunk codec handles per iteration.
fn storm_rank_blocks() -> Vec<Block> {
    let (dataset, it, id) = storm_site();
    dataset.rank_blocks(it, dataset.decomp().owner_of_block(id))
}

fn bench_exec_policies(rec: &mut Recorder) {
    let (blocks, coords) = block_set();
    let par = ExecPolicy::Threads(8);
    let runs = 5;
    println!(
        "\nexecution-policy comparison: {} blocks, Serial vs Threads(8) on {} core(s)",
        blocks.len(),
        apc_par::available_cores()
    );

    let mut rows = Vec::new();
    for name in ["VAR", "LEA", "ITL", "FPZIP", "TRILIN"] {
        let scorer = apc_metrics::by_name(name).unwrap();
        let t_ser = time_median(runs, || {
            score_blocks(scorer.as_ref(), &blocks, ExecPolicy::Serial)
        });
        let t_par = time_median(runs, || score_blocks(scorer.as_ref(), &blocks, par));
        rec.wall(&format!("score/{name}/serial"), t_ser);
        rec.wall(&format!("score/{name}/threads8"), t_par);
        rows.push(vec![
            format!("score/{name}"),
            format!("{:.3}", t_ser * 1e3),
            format!("{:.3}", t_par * 1e3),
            format!("{:.2}x", t_ser / t_par.max(1e-12)),
        ]);
    }

    let t_ser = time_median(runs, || {
        batch_isosurface_stats(&blocks, &coords, DBZ_ISOVALUE, ExecPolicy::Serial)
    });
    let t_par = time_median(runs, || {
        batch_isosurface_stats(&blocks, &coords, DBZ_ISOVALUE, par)
    });
    rec.wall("isosurface/serial", t_ser);
    rec.wall("isosurface/threads8", t_par);
    rows.push(vec![
        "isosurface".into(),
        format!("{:.3}", t_ser * 1e3),
        format!("{:.3}", t_par * 1e3),
        format!("{:.2}x", t_ser / t_par.max(1e-12)),
    ]);

    let arrays: Vec<(Vec<f32>, (usize, usize, usize))> = blocks
        .iter()
        .map(|b| {
            let d = b.dims();
            (b.samples().into_owned(), (d.nx, d.ny, d.nz))
        })
        .collect();
    let t_ser = time_median(runs, || probe_ratios(&Fpz, &arrays, ExecPolicy::Serial));
    let t_par = time_median(runs, || probe_ratios(&Fpz, &arrays, par));
    rec.wall("probe/FPZIP/serial", t_ser);
    rec.wall("probe/FPZIP/threads8", t_par);
    rows.push(vec![
        "probe/FPZIP".into(),
        format!("{:.3}", t_ser * 1e3),
        format!("{:.3}", t_par * 1e3),
        format!("{:.2}x", t_ser / t_par.max(1e-12)),
    ]);

    print_table(
        "kernel wall-clock, Serial vs Threads(8)",
        &["kernel", "serial ms", "threads(8) ms", "speedup"],
        &rows,
    );
}

/// Full-pipeline determinism: the same seed under `Serial` and
/// `Threads(8)` must produce byte-identical reports (virtual time is
/// counted, not measured). Uses the pipeline directly — no driver clamp —
/// so the threaded path really executes even on small machines.
fn check_policy_determinism(rec: &mut Recorder) {
    // Dataset construction stays outside the timed body so the recorded
    // trajectory row measures the pipeline alone, like every other row.
    let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
    let iters = dataset.sample_iterations(3);
    let run = |exec: ExecPolicy| -> Vec<IterationReport> {
        let config = PipelineConfig::default()
            .deterministic()
            .with_fixed_percent(40.0)
            .with_exec(exec);
        let mut all = Runtime::new(4, NetModel::blue_waters()).run(|rank| {
            let mut p = Pipeline::new(config.clone(), *dataset.decomp(), dataset.coords().clone());
            iters
                .iter()
                .map(|&it| {
                    p.run_iteration(rank, dataset.rank_blocks(it, rank.rank()), it)
                        .0
                })
                .collect::<Vec<_>>()
        });
        all.swap_remove(0)
    };
    let mut serial = Vec::new();
    let wall = time_median(3, || serial = run(ExecPolicy::Serial));
    let threads = run(ExecPolicy::Threads(8));
    assert_eq!(
        serial, threads,
        "IterationReports must be byte-identical across policies"
    );
    rec.wall_and_virtual(
        "pipeline/sync/tiny4x3iters",
        wall,
        serial.iter().map(|r| r.t_total).sum(),
    );
    println!(
        "determinism: Serial and Threads(8) reports identical over {} iterations ✓",
        serial.len()
    );
}

/// Staged vs synchronous on the tiny dataset: wall seconds for each mode
/// plus the headline virtual quantities — the synchronous pipeline time
/// the simulation would eat inline, and what the staged simulation
/// actually sees.
fn bench_staged_vs_sync(rec: &mut Recorder) {
    use apc_core::{BackpressurePolicy, StagedParams};

    let dataset = ReflectivityDataset::tiny(4, 42).unwrap();
    let iters = dataset.sample_iterations(3);
    let sync_cfg = PipelineConfig::default()
        .deterministic()
        .with_fixed_percent(40.0);
    let mut sync = Vec::new();
    let t_sync = time_median(3, || {
        sync = apc_core::run_experiment(&dataset, sync_cfg.clone(), &iters);
    });
    let sync_virtual: f64 = sync.iter().map(|r| r.t_total).sum::<f64>() / sync.len() as f64;

    let params = StagedParams::new(1, 2, BackpressurePolicy::Block).with_sim_compute(sync_virtual);
    let staged_cfg = sync_cfg.with_staged(params);
    let mut staged_visible = 0.0;
    let t_staged = time_median(3, || {
        let mut session =
            Runtime::new(dataset.decomp().nranks(), NetModel::blue_waters()).session();
        let run = apc_core::run_staged_in_session(
            &mut session,
            dataset.decomp(),
            dataset.coords(),
            &staged_cfg,
            &iters,
            &|it, rank| dataset.rank_blocks(it, rank),
        );
        staged_visible = run.mean_sim_visible();
    });
    rec.wall_and_virtual("pipeline/sync/tiny4x3iters/mean", t_sync, sync_virtual);
    rec.wall_and_virtual(
        "pipeline/staged/tiny4x3iters/sim_visible",
        t_staged,
        staged_visible,
    );
    print_table(
        "staged vs synchronous (tiny dataset, 3 iterations, virtual s/iter)",
        &["mode", "wall ms", "sim-visible virtual s"],
        &[
            vec![
                "sync".into(),
                format!("{:.1}", t_sync * 1e3),
                format!("{sync_virtual:.3}"),
            ],
            vec![
                "staged 3:1".into(),
                format!("{:.1}", t_staged * 1e3),
                format!("{staged_visible:.3}"),
            ],
        ],
    );
    assert!(
        staged_visible < sync_virtual,
        "staging must beat inline visualization on the sim's critical path"
    );
}

/// Session vs spawn-per-run: the sweep-engine measurement. A fig07-style
/// percentage sweep (8 configurations, 16 ranks, 2 iterations each) runs
/// once with a fresh `Runtime::run` per configuration — tearing 16 threads
/// up and down 8 times — and once through a single persistent session.
/// Virtual-time reports must be byte-identical; only wall-clock differs.
fn bench_session_vs_respawn(rec: &mut Recorder) {
    let nranks = 16;
    let dataset = ReflectivityDataset::tiny(nranks, 42).unwrap();
    let iters = dataset.sample_iterations(2);
    let percents = [0.0, 20.0, 40.0, 60.0, 70.0, 80.0, 90.0, 100.0];
    let configs: Vec<PipelineConfig> = percents
        .iter()
        .map(|&p| {
            PipelineConfig::default()
                .deterministic()
                .with_fixed_percent(p)
        })
        .collect();
    let runtime = Runtime::new(nranks, NetModel::blue_waters());
    let run_config = |rank: &mut apc_comm::Rank, config: &PipelineConfig| {
        let mut p = Pipeline::new(config.clone(), *dataset.decomp(), dataset.coords().clone());
        iters
            .iter()
            .map(|&it| {
                p.run_iteration(rank, dataset.rank_blocks(it, rank.rank()), it)
                    .0
            })
            .collect::<Vec<_>>()
    };

    let runs = 3;
    let mut respawn_reports = Vec::new();
    let t_respawn = time_median(runs, || {
        respawn_reports = configs
            .iter()
            .map(|config| {
                let mut all = runtime.run(|rank| run_config(rank, config));
                all.swap_remove(0)
            })
            .collect::<Vec<_>>();
    });

    let mut session_reports = Vec::new();
    let t_session = time_median(runs, || {
        let mut session = runtime.session();
        session_reports = configs
            .iter()
            .map(|config| {
                let mut all = session.run(|rank| run_config(rank, config));
                all.swap_remove(0)
            })
            .collect::<Vec<_>>();
    });

    assert_eq!(
        respawn_reports, session_reports,
        "session and spawn-per-run sweeps must produce identical reports"
    );

    // The same sweep with an empty per-rank job isolates the pure
    // runtime overhead (thread spawn/join, channel setup) the session
    // removes — the pipeline rows bury it under compute on few-core
    // machines, but it is what grows to tens of thousands of spawns in a
    // full-scale 400-rank figure sweep.
    let noop_runs = 9;
    let t_respawn_noop = time_median(noop_runs, || {
        for _ in 0..configs.len() {
            runtime.run(|rank| rank.rank());
        }
    });
    let t_session_noop = time_median(noop_runs, || {
        let mut session = runtime.session();
        for _ in 0..configs.len() {
            session.run(|rank| rank.rank());
        }
    });

    rec.wall("sweep/spawn_per_run", t_respawn);
    rec.wall("sweep/session", t_session);
    rec.wall("sweep/spawn_per_run/noop", t_respawn_noop);
    rec.wall("sweep/session/noop", t_session_noop);
    print_table(
        &format!(
            "sweep wall-clock: {} configs × {} ranks, spawn-per-run vs one session",
            configs.len(),
            nranks
        ),
        &["strategy", "pipeline ms", "no-op ms", "threads spawned"],
        &[
            vec![
                "spawn-per-run".into(),
                format!("{:.2}", t_respawn * 1e3),
                format!("{:.3}", t_respawn_noop * 1e3),
                format!("{}", configs.len() * nranks),
            ],
            vec![
                "session".into(),
                format!("{:.2}", t_session * 1e3),
                format!("{:.3}", t_session_noop * 1e3),
                format!("{nranks}"),
            ],
            vec![
                "speedup".into(),
                format!("{:.2}x", t_respawn / t_session.max(1e-12)),
                format!("{:.2}x", t_respawn_noop / t_session_noop.max(1e-12)),
                String::new(),
            ],
        ],
    );
    println!("session sweep reports identical to spawn-per-run ✓");
}

/// Store read vs in-memory generation: the per-iteration block input of
/// one rank, produced three ways — regenerated from the storm model,
/// decoded from a memory-backed chunked store (per codec), and decoded
/// from a disk-backed store. Lossless codecs must reproduce the generated
/// blocks bit-exactly; sizes show what each codec buys.
fn bench_store_read(rec: &mut Recorder) {
    let dataset = ReflectivityDataset::tiny(4, 42).expect("tiny dataset");
    let it = dataset.sample_iterations(3)[1];
    let raw_bytes = dataset.decomp().subdomain_dims().len() * dataset.decomp().nranks() * 4;
    let runs = 5;
    let generated = dataset.rank_blocks(it, 0);

    let mut rows = Vec::new();
    let t_gen = time_median(runs, || dataset.rank_blocks(it, 0));
    rec.wall("store/generate_in_memory", t_gen);
    rows.push(vec![
        "generate (in-memory)".into(),
        format!("{:.3}", t_gen * 1e3),
        format!("{:.2}", raw_bytes as f64 / 1e6),
        "1.000".into(),
    ]);

    for codec in [CodecKind::Raw, CodecKind::Fpz, CodecKind::Lz] {
        let store =
            write_dataset_to(&dataset, &[it], MemStore::new(), codec).expect("write mem store");
        let from_store = store.read_rank_blocks(it, 0).expect("read rank blocks");
        assert_eq!(
            from_store,
            generated,
            "{} store read must be bit-exact",
            codec.name()
        );
        let stored = store.backend().nbytes();
        let t = time_median(runs, || store.read_rank_blocks(it, 0).expect("read"));
        rec.wall(&format!("store/mem_read/{}", codec.name()), t);
        rows.push(vec![
            format!("mem store / {}", codec.name()),
            format!("{:.3}", t * 1e3),
            format!("{:.2}", stored as f64 / 1e6),
            format!("{:.3}", stored as f64 / raw_bytes as f64),
        ]);
    }

    let dir = std::env::temp_dir().join("apc_kernels_bench_store");
    let _ = std::fs::remove_dir_all(&dir);
    write_dataset(&dataset, &[it], &dir, CodecKind::Fpz).expect("write dir store");
    let stored = open_dataset(&dir).expect("reopen dir store");
    assert_eq!(stored.rank_blocks(it, 0).expect("read"), generated);
    let t_disk = time_median(runs, || stored.rank_blocks(it, 0).expect("read"));
    rec.wall("store/dir_read/fpz", t_disk);
    rows.push(vec![
        "dir store / fpz".into(),
        format!("{:.3}", t_disk * 1e3),
        String::from("-"),
        String::from("-"),
    ]);
    let _ = std::fs::remove_dir_all(&dir);

    // The shard layout: same data packed into shard containers, read back
    // through byte-range partial reads (layout auto-detected from meta).
    const CHUNKS_PER_SHARD: usize = 16;
    let shard_mem = write_dataset_sharded_to(
        &dataset,
        &[it],
        MemStore::new(),
        CodecKind::Fpz,
        CHUNKS_PER_SHARD,
    )
    .expect("write sharded mem store");
    assert_eq!(
        shard_mem.read_rank_blocks(it, 0).expect("read"),
        generated,
        "sharded mem read must be bit-exact"
    );
    let stored = shard_mem.backend().inner().nbytes();
    let t_shard_mem = time_median(runs, || shard_mem.read_rank_blocks(it, 0).expect("read"));
    rec.wall("store/shard_mem_read/fpz", t_shard_mem);
    rows.push(vec![
        format!("sharded mem / fpz ({CHUNKS_PER_SHARD}/shard)"),
        format!("{:.3}", t_shard_mem * 1e3),
        format!("{:.2}", stored as f64 / 1e6),
        format!("{:.3}", stored as f64 / raw_bytes as f64),
    ]);

    let shard_dir = std::env::temp_dir().join("apc_kernels_bench_store_shard");
    let _ = std::fs::remove_dir_all(&shard_dir);
    write_dataset_sharded(
        &dataset,
        &[it],
        &shard_dir,
        CodecKind::Fpz,
        CHUNKS_PER_SHARD,
    )
    .expect("write sharded dir store");
    let stored = open_dataset(&shard_dir).expect("reopen sharded dir store");
    assert_eq!(
        stored.rank_blocks(it, 0).expect("read"),
        generated,
        "sharded dir read must be bit-exact"
    );
    let t_shard_dir = time_median(runs, || stored.rank_blocks(it, 0).expect("read"));
    rec.wall("store/shard_dir_read/fpz", t_shard_dir);
    rows.push(vec![
        format!("sharded dir / fpz ({CHUNKS_PER_SHARD}/shard)"),
        format!("{:.3}", t_shard_dir * 1e3),
        String::from("-"),
        String::from("-"),
    ]);
    let _ = std::fs::remove_dir_all(&shard_dir);

    // The chunk cache + readahead over the same sharded dir layout. Cold
    // = first touch through an emptied cache (range reads + insert
    // bookkeeping); warm = repeat reads answered from memory (no disk, no
    // shard index, no range syscalls — only the fpz decode remains);
    // prefetch_seq = a sequential sweep over every iteration, where
    // readahead keeps the next iteration's chunks one step ahead of
    // demand. Cold and warm use the *last* iteration (no successor), so
    // their timings measure the cache itself, not prefetch I/O.
    let iters3 = dataset.sample_iterations(3);
    let cache_dir = std::env::temp_dir().join("apc_kernels_bench_store_cached");
    let _ = std::fs::remove_dir_all(&cache_dir);
    write_dataset_sharded(
        &dataset,
        &iters3,
        &cache_dir,
        CodecKind::Fpz,
        CHUNKS_PER_SHARD,
    )
    .expect("write cached-bench dir store");
    let cached = open_dataset_cached(&cache_dir, 8 << 20).expect("reopen cached dir store");
    for &i in &iters3 {
        assert_eq!(
            cached.rank_blocks(i, 0).expect("read"),
            dataset.rank_blocks(i, 0),
            "cached read must be bit-exact (iteration {i})"
        );
    }
    let it_last = *iters3.last().expect("three iterations");
    let t_cold = time_median(runs, || {
        cached.cache_clear();
        cached.rank_blocks(it_last, 0).expect("read")
    });
    rec.wall("store/cached_read_cold", t_cold);
    rows.push(vec![
        "cached dir / fpz (cold)".into(),
        format!("{:.3}", t_cold * 1e3),
        String::from("-"),
        String::from("-"),
    ]);
    cached.cache_clear();
    let _ = cached.rank_blocks(it_last, 0).expect("warmup read");
    let t_warm = time_median(runs, || cached.rank_blocks(it_last, 0).expect("read"));
    rec.wall("store/cached_read_warm", t_warm);
    rows.push(vec![
        "cached dir / fpz (warm)".into(),
        format!("{:.3}", t_warm * 1e3),
        String::from("-"),
        String::from("-"),
    ]);
    let t_seq = time_median(runs, || {
        cached.cache_clear();
        for &i in &iters3 {
            cached.rank_blocks(i, 0).expect("read");
        }
    });
    rec.wall("store/prefetch_seq", t_seq);
    rows.push(vec![
        format!("cached dir / fpz (seq sweep, {} iters)", iters3.len()),
        format!("{:.3}", t_seq * 1e3),
        String::from("-"),
        String::from("-"),
    ]);
    let cache_stats = cached.cache_stats().expect("cached open reports stats");
    let _ = std::fs::remove_dir_all(&cache_dir);

    print_table(
        "block input: store read vs in-memory generation (one rank, one iteration)",
        &["source", "ms/rank", "stored MB (all ranks)", "ratio"],
        &rows,
    );
    println!("store reads bit-exact vs generation for every lossless codec ✓");
    println!(
        "cached warm read {:.2}x vs uncached sharded dir; readahead over the \
         sweep: {} prefetched, {} used, {} wasted",
        t_shard_dir / t_warm.max(1e-12),
        cache_stats.prefetched,
        cache_stats.prefetch_used,
        cache_stats.prefetched - cache_stats.prefetch_used
    );
}

fn bench_metrics(rec: &mut Recorder) {
    let (data, dims) = storm_block();
    let mut rows = Vec::new();
    for metric in standard_six() {
        let t = time_median(9, || metric.score(&data, dims));
        rec.wall(&format!("metric/{}", metric.name()), t);
        rows.push(vec![
            metric.name().to_string(),
            format!("{:.2}", t * 1e6),
            format!("{:.1}", data.len() as f64 / t / 1e6),
        ]);
    }
    print_table(
        "metrics (one 11x11x19 storm block)",
        &["metric", "us/block", "Mpts/s"],
        &rows,
    );
}

fn bench_codecs(rec: &mut Recorder) {
    let (data, dims) = storm_block();
    let shape = (dims.nx, dims.ny, dims.nz);
    let bytes = (data.len() * 4) as f64;
    let mut rows = Vec::new();
    let mut row = |name: &str, blocks: usize, bytes: f64, t: f64| {
        rec.wall(&format!("codec/{name}"), t);
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", t * 1e6 / blocks as f64),
            format!("{:.1}", bytes / t / 1e6),
        ]);
    };
    row(
        "fpz_encode",
        1,
        bytes,
        time_median(9, || Fpz.encode(&data, shape)),
    );
    row(
        "zfpx_encode",
        1,
        bytes,
        time_median(9, || Zfpx::default().encode(&data, shape)),
    );
    row(
        "lz77_encode",
        1,
        bytes,
        time_median(9, || Lz77.encode(&data, shape)),
    );
    let enc = Fpz.encode(&data, shape);
    row(
        "fpz_decode",
        1,
        bytes,
        time_median(9, || Fpz.decode(&enc, shape).unwrap()),
    );
    // One rank's blocks per timed body: a single block takes tens of
    // microseconds, too short for the gate to tell a regression from noise.
    let rank: Vec<(Vec<f32>, (usize, usize, usize))> = storm_rank_blocks()
        .iter()
        .map(|b| {
            let d = b.dims();
            (b.samples().into_owned(), (d.nx, d.ny, d.nz))
        })
        .collect();
    let rank_bytes = rank.iter().map(|(d, _)| d.len() * 4).sum::<usize>() as f64;
    let rank_enc: Vec<Vec<u8>> = rank.iter().map(|(d, s)| Fpz.encode(d, *s)).collect();
    row(
        "fpz_encode_rank",
        rank.len(),
        rank_bytes,
        time_median(9, || {
            rank.iter()
                .map(|(d, s)| Fpz.encode(d, *s).len())
                .sum::<usize>()
        }),
    );
    row(
        "fpz_decode_rank",
        rank.len(),
        rank_bytes,
        time_median(9, || {
            rank_enc
                .iter()
                .zip(&rank)
                .map(|(e, (_, s))| Fpz.decode(e, *s).unwrap().len())
                .sum::<usize>()
        }),
    );
    print_table(
        &format!(
            "codecs (one storm block; *_rank: its rank's {} blocks)",
            rank.len()
        ),
        &["codec", "us/block", "MB/s"],
        &rows,
    );
}

fn bench_isosurface_and_storm(rec: &mut Recorder) {
    let dims = Dims3::new(48, 48, 24);
    let coords = RectilinearCoords::uniform(dims, 1.0);
    let storm = StormModel::new(7);
    let field = storm.reflectivity(&coords, 300);
    let cells = ((dims.nx - 1) * (dims.ny - 1) * (dims.nz - 1)) as f64;
    let t_iso = time_median(9, || {
        marching_tetrahedra(field.as_slice(), dims, DBZ_ISOVALUE, |i, j, k| {
            coords.position(i, j, k)
        })
    });
    let gen_dims = Dims3::new(44, 44, 19);
    let gen_coords = RectilinearCoords::stretched(gen_dims, 1.0, 4, 1.12);
    let t_gen = time_median(9, || storm.reflectivity(&gen_coords, 300));
    rec.wall("field/marching_tetrahedra_48x48x24", t_iso);
    rec.wall("field/storm_reflectivity_44x44x19", t_gen);
    print_table(
        "field kernels",
        &["kernel", "ms", "Mitems/s"],
        &[
            vec![
                "marching_tetrahedra_48x48x24".into(),
                format!("{:.3}", t_iso * 1e3),
                format!("{:.1}", cells / t_iso / 1e6),
            ],
            vec![
                "storm_reflectivity_44x44x19".into(),
                format!("{:.3}", t_gen * 1e3),
                format!("{:.1}", gen_dims.len() as f64 / t_gen / 1e6),
            ],
        ],
    );
}

fn bench_distributed_sort(rec: &mut Recorder) {
    // 6400 scored blocks over 8 ranks, like one pipeline iteration.
    let make_input = |rank: usize| -> Vec<(u32, f64)> {
        (0..800u32)
            .map(|i| {
                let id = rank as u32 * 800 + i;
                (id, ((id as f64 * 0.61803).sin() * 1e3).round())
            })
            .collect()
    };
    let cmp = |a: &(u32, f64), b: &(u32, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
    let t_gsb = time_median(5, || {
        Runtime::new(8, NetModel::blue_waters())
            .run(|rank| sort::gather_sort_broadcast(rank, make_input(rank.rank()), cmp).len())
    });
    let t_ss = time_median(5, || {
        Runtime::new(8, NetModel::blue_waters())
            .run(|rank| sort::sample_sort(rank, make_input(rank.rank()), cmp).len())
    });
    rec.wall("sort/gather_sort_broadcast", t_gsb);
    rec.wall("sort/sample_sort", t_ss);
    print_table(
        "distributed sort (6400 blocks, 8 ranks)",
        &["strategy", "ms"],
        &[
            vec![
                "gather_sort_broadcast".into(),
                format!("{:.2}", t_gsb * 1e3),
            ],
            vec!["sample_sort".into(), format!("{:.2}", t_ss * 1e3)],
        ],
    );
}

fn bench_replay_fanout(rec: &mut Recorder) {
    // A miniature fig14: 4 replay servers, 16 clients, 8 requests each
    // over a persisted 8-iteration run — one wall row per routing mode,
    // with the modeled p99 latency as the virtual column.
    use std::sync::Arc;

    use apc_core::run_replay_serving;
    use apc_replay::{synth_run, ArrivalTrace, PoolParams, RouteMode, TraceSpec};
    use apc_serve::open_run;
    use apc_store::StoreBackend;

    const RUN_ID: &str = "bench-replay";
    let iterations: Vec<usize> = (1..=8).map(|i| i * 100).collect();
    let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    synth_run(
        Arc::clone(&backend),
        RUN_ID,
        &iterations,
        4,
        16,
        12,
        CodecKind::Fpz,
        None,
    );
    let (_, manifest) = open_run(Arc::clone(&backend), RUN_ID).expect("bench fixture opens");
    let tr = ArrivalTrace::generate(&TraceSpec::new(16, 8, 42), &manifest);

    let mut rows = Vec::new();
    for (slug, mode) in [
        ("pinned", RouteMode::Pinned),
        ("routed", RouteMode::Routed),
        ("steal", RouteMode::RoutedStealing),
    ] {
        let params = PoolParams::new(4, mode).with_cache_bytes(8 << 10);
        let mut last_p99 = 0.0;
        let t = time_median(3, || {
            let out = run_replay_serving(
                Arc::clone(&backend),
                RUN_ID,
                &tr,
                &params,
                ExecPolicy::Serial,
                NetModel::blue_waters(),
            );
            last_p99 = out.latency_percentile(99.0);
            out.requests.len()
        });
        rec.wall_and_virtual(&format!("replay/fanout_{slug}"), t, last_p99);
        rows.push(vec![
            mode.name().into(),
            format!("{:.2}", t * 1e3),
            format!("{last_p99:.4}"),
        ]);
    }
    print_table(
        "replay fan-out (4 servers, 16 clients, 128 requests)",
        &["mode", "wall ms", "p99 virtual s"],
        &rows,
    );
}

fn bench_adaptive_serving(rec: &mut Recorder) {
    // A miniature fig15: 4 stagers serving 64 closed-loop clients, fixed
    // fidelity vs a per-stager latency budget — one wall row per mode,
    // with the modeled p99 reply latency as the virtual column. The
    // per-byte wire charge is scaled up so reply size dominates the tail
    // even at bench scale, giving the fidelity ladder real leverage.
    use std::sync::Arc;

    use apc_core::{BackpressurePolicy, FrameSink, ServeParams, ServePolicy, StagedParams};
    use apc_grid::{DomainDecomp, ProcGrid};

    const NSIM: usize = 4;
    const NSTAGE: usize = 4;
    const CLIENTS: usize = 64;
    let n_total = NSIM + NSTAGE + CLIENTS;
    // One 2x2x8 block per rank (same 1-D decomposition trick as fig15).
    let decomp = DomainDecomp::new(
        Dims3::new(2 * n_total, 2, 8),
        ProcGrid::new(n_total, 1, 1),
        Dims3::new(2, 2, 8),
    )
    .expect("bench decomp");
    let dataset = ReflectivityDataset::new(decomp, StormModel::new(42));
    let iters = dataset.sample_iterations(8);

    let mut session = Runtime::new(n_total, NetModel::blue_waters())
        .stack_size(512 << 10)
        .session();
    let mut run_mode = |slug: &str, budget: Option<f64>| -> apc_core::ServingRun {
        let sink = FrameSink::new(
            Arc::new(MemStore::new()),
            &format!("bench-serve-{slug}"),
            CodecKind::Fpz,
        );
        let params = StagedParams::new(NSTAGE, 4, BackpressurePolicy::Block)
            .with_sim_compute(0.05)
            .with_persist(sink);
        let mut config = PipelineConfig::default()
            .deterministic()
            .with_fixed_percent(90.0)
            .with_staged(params);
        config.cost.base = 0.005;
        let mut serve = ServeParams::new(CLIENTS, 8, ServePolicy::BestEffort)
            .with_think_time(0.0)
            .with_cache_bytes(256 << 10)
            .with_serve_costs(1e-4, 2e-4);
        if let Some(b) = budget {
            serve = serve.with_latency_budget(b);
        }
        apc_core::run_staged_serving_in_session(
            &mut session,
            dataset.decomp(),
            dataset.coords(),
            &config,
            &iters,
            &serve,
            &|it, rank| dataset.rank_blocks(it, rank),
        )
    };

    let mut rows = Vec::new();
    for (slug, budget) in [("fixed", None), ("budget", Some(0.3))] {
        let mut last_p99 = 0.0;
        let mut last_mix = String::new();
        let t = time_median(3, || {
            let out = run_mode(slug, budget);
            last_p99 = out.latency_percentile(99.0);
            last_mix = out.fidelity_mix().summary();
            out.requests.len()
        });
        rec.wall_and_virtual(&format!("serve/adaptive_{slug}"), t, last_p99);
        rows.push(vec![
            slug.into(),
            format!("{:.2}", t * 1e3),
            format!("{last_p99:.4}"),
            last_mix.clone(),
        ]);
    }
    print_table(
        "adaptive serving (4 stagers, 64 clients, 512 requests)",
        &["mode", "wall ms", "p99 virtual s", "mix f/l/d/h"],
        &rows,
    );
}

fn main() {
    let t0 = Instant::now();
    let mut rec = Recorder::default();
    bench_exec_policies(&mut rec);
    check_policy_determinism(&mut rec);
    bench_session_vs_respawn(&mut rec);
    bench_store_read(&mut rec);
    bench_staged_vs_sync(&mut rec);
    bench_metrics(&mut rec);
    bench_codecs(&mut rec);
    bench_isosurface_and_storm(&mut rec);
    bench_distributed_sort(&mut rec);
    bench_replay_fanout(&mut rec);
    bench_adaptive_serving(&mut rec);
    let json = rec.write_json();
    println!("\nperf trajectory: {}", json.display());
    println!(
        "kernels bench completed in {:.1} s",
        t0.elapsed().as_secs_f64()
    );
}
