//! `serve-fanout`: the two serving executors, one after the other.
//!
//! * Phase 1 — a staged run persists frames while closed-loop client
//!   ranks (zero think time) are served under a latency budget, so the
//!   per-stager fidelity ladder engages (`run_staged_serving_in_session`).
//! * Phase 2 — the replay pool (`RoutedStealing`) serves a `synth_run`
//!   fixture to open-loop arrival traces at a few fixed rate multipliers
//!   (`run_replay_serving_in_session`). Each server's cache holds the
//!   hot window but not the whole run.
//!
//! Stage, serve and replay do work only here.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use apc_cm1::{ReflectivityDataset, StormModel};
use apc_comm::{Runtime, Session};
use apc_core::{
    run_replay_serving_in_session, run_staged_serving_in_session, BackpressurePolicy, ExecPolicy,
    Fidelity, FrameSink, IterationReport, PipelineConfig, ReplayRun, ServeParams, ServePolicy,
    ServingRun, StagedParams,
};
use apc_grid::{Block, Dims3, DomainDecomp, ProcGrid};
use apc_replay::{resolve, ArrivalTrace, PoolParams, PoolPlan, RouteMode, TraceSpec};
use apc_serve::{
    degrade_stream, frame_key, Frame, FrameReply, FrameRequest, RunManifest, ServedFrame,
};
use apc_store::{CacheStats, CodecKind, MemStore, StoreBackend};

use crate::clock::{lock, median, now, since, Spans, StoreTrace, TimedBackend};
use crate::digest::Digest;
use crate::harness::{
    check_expected, check_traced, intervals_ms, net, note_failed_frac, put_residual, put_store,
    put_trace, ratio, repeated_setup, run_passes, wall_metrics, Args, Metrics, Outcome, Pass,
    Scale, VIRT_STEPS,
};

/// Phase-1 shape: simulation, staging and client ranks. Client ranks are
/// OS threads, so they stay at 16 or fewer per phase.
struct Shape {
    nsim: usize,
    nstage: usize,
    clients: usize,
    requests_per_client: usize,
    iterations: usize,
    /// Phase-2 pool: servers, clients, requests per client, run length.
    servers: usize,
    replay_clients: usize,
    replay_requests: usize,
    replay_iterations: usize,
}

fn shape(scale: Scale) -> Shape {
    match scale {
        Scale::Full => Shape {
            nsim: 4,
            nstage: 4,
            clients: 8,
            requests_per_client: 1024,
            iterations: 32,
            servers: 4,
            replay_clients: 8,
            replay_requests: 300,
            replay_iterations: 48,
        },
        Scale::Smoke => Shape {
            nsim: 2,
            nstage: 2,
            clients: 4,
            requests_per_client: 8,
            iterations: 4,
            servers: 2,
            replay_clients: 4,
            replay_requests: 16,
            replay_iterations: 8,
        },
    }
}

/// Per-reply virtual serve costs (fixed dispatch + per-byte wire), as in
/// the adaptive-serving figure: the byte term dominates, so the fidelity
/// ladder has leverage on the tail.
const SERVICE_BASE: f64 = 1e-4;
const REPLY_PER_BYTE: f64 = 2e-6;
/// Phase-1 per-stager latency budget (virtual seconds): tight enough
/// that the ladder engages at this client count.
const LATENCY_BUDGET: f64 = 0.6;
/// Per-client start stagger of phase 1.
const CLIENT_RAMP: f64 = 4e-4;
/// Phase-2 arrival-rate multipliers over the trace's nominal rate; the
/// nominal one (1.0) gives `virt_reply_p99_s`.
const RATE_MULTIPLIERS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
/// Nominal per-client mean inter-arrival gaps of phase 2 (calm, burst):
/// a quarter of the trace generator's default rate, which the pool at
/// this size serves without a growing backlog.
const NOMINAL_INTERVALS: (f64, f64) = (8e-2, 8e-3);
/// The replay phase's p99 latency limit for `virt_capacity_rps`.
const LATENCY_LIMIT: f64 = 0.2;
/// Phase-2 frame size and per-server cache: the 4-iteration hot window
/// of 8 stagers fits, the whole run does not.
const REPLAY_STAGERS: usize = 8;
const REPLAY_WIDTH: usize = 64;
const REPLAY_HEIGHT: usize = 48;
const REPLAY_CACHE_BYTES: usize = 512 << 10;

/// Storm snapshots the staged run cycles through.
const SNAPSHOTS: usize = 4;

/// The snapshot the staged run's iteration `it` replays.
fn snapshot(iters: &[usize], it: usize) -> usize {
    iters
        .iter()
        .position(|&i| i == it)
        .expect("a staged iteration")
        % SNAPSHOTS
}

const SERVE_RUN: &str = "serve";
const REPLAY_RUN: &str = "replay";

/// One arrival trace of phase 2 with its offered rate.
struct Rate {
    multiplier: f64,
    trace: ArrivalTrace,
    /// Requests per virtual second over the trace's arrival span.
    offered_rps: f64,
}

struct Input {
    shape: Shape,
    dataset: ReflectivityDataset,
    iters: Vec<usize>,
    blocks: BTreeMap<(usize, usize), Vec<Block>>,
    stage_session: Session,
    fixture: Arc<MemStore>,
    manifest: RunManifest,
    rates: Vec<Rate>,
    pool_session: Session,
    synth_s: f64,
    spawn_s: f64,
    trace_gen_s: f64,
}

/// A 1-D decomposition with sixteen 8×8×16 blocks per rank, so the
/// session can have any rank count and every rank (client ranks
/// included) owns a slice of the domain the simulation ranks produce.
fn stage_dataset(nranks: usize, seed: u64) -> ReflectivityDataset {
    let decomp = DomainDecomp::new(
        Dims3::new(32 * nranks, 48, 16),
        ProcGrid::new(nranks, 1, 1),
        Dims3::new(8, 8, 16),
    )
    .expect("the staging geometry tiles its domain");
    ReflectivityDataset::new(decomp, StormModel::new(seed))
}

fn setup(scale: Scale, seed: u64) -> Input {
    let shape = shape(scale);
    let nranks = shape.nsim + shape.nstage + shape.clients;
    let dataset = stage_dataset(nranks, seed);
    let iters = dataset.sample_iterations(shape.iterations);
    // The staged run cycles through a few synthesized storm snapshots,
    // so its length does not multiply the set-up's synthesis cost.
    let t0 = now();
    let mut blocks = BTreeMap::new();
    for (i, &it) in iters.iter().enumerate().take(SNAPSHOTS) {
        for rank in 0..nranks {
            blocks.insert((i, rank), dataset.rank_blocks(it, rank));
        }
    }
    let synth_s = since(t0);

    let fixture = Arc::new(MemStore::new());
    let replay_iters: Vec<usize> = (0..shape.replay_iterations).map(|i| 10 * (i + 1)).collect();
    let manifest = apc_replay::synth_run(
        Arc::clone(&fixture) as Arc<dyn StoreBackend>,
        REPLAY_RUN,
        &replay_iters,
        REPLAY_STAGERS,
        REPLAY_WIDTH,
        REPLAY_HEIGHT,
        CodecKind::Fpz,
        None,
    );

    let t0 = now();
    let rates = RATE_MULTIPLIERS
        .iter()
        .map(|&m| {
            let (calm, burst) = NOMINAL_INTERVALS;
            let spec = TraceSpec::new(shape.replay_clients, shape.replay_requests, seed)
                .with_intervals(calm / m, burst / m);
            let trace = ArrivalTrace::generate(&spec, &manifest);
            let (lo, hi) = trace
                .arrivals
                .iter()
                .fold((f64::INFINITY, 0.0f64), |(lo, hi), a| {
                    (lo.min(a.time), hi.max(a.time))
                });
            let offered_rps = ratio(trace.len() as f64, hi - lo);
            Rate {
                multiplier: m,
                trace,
                offered_rps,
            }
        })
        .collect();
    let trace_gen_s = since(t0);

    let t0 = now();
    let stage_session = Runtime::new(nranks, net()).stack_size(512 << 10).session();
    let pool_session = Runtime::new(shape.servers + shape.replay_clients, net())
        .stack_size(512 << 10)
        .session();
    let spawn_s = since(t0);
    Input {
        shape,
        dataset,
        iters,
        blocks,
        stage_session,
        fixture,
        manifest,
        rates,
        pool_session,
        synth_s,
        spawn_s,
        trace_gen_s,
    }
}

fn staged_config(shape: &Shape, sink: FrameSink) -> PipelineConfig {
    let params = StagedParams::new(shape.nstage, 4, BackpressurePolicy::Block)
        .with_sim_compute(0.05)
        .with_persist(sink);
    let mut config = PipelineConfig::default()
        .deterministic()
        .with_fixed_percent(20.0)
        .with_exec(ExecPolicy::Serial)
        .with_staged(params);
    // Serving dynamics, not render cost, are under test: shrink the
    // paper-scale render charges so the virtual frame period stays below
    // the serving budget.
    config.cost.base = 0.005;
    config.cost.per_block /= 100.0;
    config.cost.per_cell /= 100.0;
    config.cost.per_triangle /= 100.0;
    config
}

fn serve_params(shape: &Shape) -> ServeParams {
    ServeParams::new(
        shape.clients,
        shape.requests_per_client,
        ServePolicy::BestEffort,
    )
    .with_think_time(0.0)
    .with_cache_bytes(256 << 10)
    .with_serve_costs(SERVICE_BASE, REPLY_PER_BYTE)
    .with_client_ramp(CLIENT_RAMP)
    .with_latency_budget(LATENCY_BUDGET)
}

fn pool_params(shape: &Shape) -> PoolParams {
    PoolParams::new(shape.servers, RouteMode::RoutedStealing).with_cache_bytes(REPLAY_CACHE_BYTES)
}

/// What one pass produced.
struct Ran {
    serving: ServingRun,
    replays: Vec<ReplayRun>,
    /// The phase-1 frame store, for the traced replay.
    frames: Arc<dyn StoreBackend>,
    /// Wall seconds of phase 1 (the rest of the pass is phase 2).
    phase1_s: f64,
}

/// One pass: phase 1 then phase 2 at every rate. `wrap` interposes on
/// both stores and `input_spans` times the input callback (the traced
/// run's instruments).
fn run_once(
    input: &mut Input,
    wrap: &dyn Fn(Arc<dyn StoreBackend>) -> Arc<dyn StoreBackend>,
    input_spans: Option<&Spans>,
) -> (Ran, Pass) {
    let Input {
        shape,
        dataset,
        iters,
        blocks,
        stage_session,
        fixture,
        rates,
        pool_session,
        ..
    } = input;
    let frames: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    let sink = FrameSink::new(wrap(Arc::clone(&frames)), SERVE_RUN, CodecKind::Fpz);
    let config = staged_config(shape, sink);
    let serve = serve_params(shape);
    let marks = Mutex::new(Vec::new());
    let callback = |it: usize, rank: usize| {
        if rank == 0 {
            lock(&marks).push(now());
        }
        match input_spans {
            Some(s) => s.time(|| blocks[&(snapshot(iters, it), rank)].clone()),
            None => blocks[&(snapshot(iters, it), rank)].clone(),
        }
    };
    let t0 = now();
    let serving = run_staged_serving_in_session(
        stage_session,
        dataset.decomp(),
        dataset.coords(),
        &config,
        iters,
        &serve,
        &callback,
    );
    let phase1_end = now();
    let params = pool_params(shape);
    let reader = wrap(Arc::clone(fixture) as Arc<dyn StoreBackend>);
    let replays: Vec<ReplayRun> = rates
        .iter()
        .map(|r| {
            run_replay_serving_in_session(
                pool_session,
                Arc::clone(&reader),
                REPLAY_RUN,
                &r.trace,
                &params,
                ExecPolicy::Serial,
            )
        })
        .collect();
    let end = now();

    let mut digest = Digest::default();
    digest.add(&serving.staged.frames);
    digest.add(&serving.requests);
    for run in &replays {
        digest.add(&run.requests);
    }
    let ops =
        (serving.requests.len() + replays.iter().map(|r| r.requests.len()).sum::<usize>()) as u64;
    let pass = Pass {
        wall_s: end.duration_since(t0).as_secs_f64(),
        iter_ms: intervals_ms(
            &marks.into_inner().unwrap_or_else(|p| p.into_inner()),
            phase1_end,
        ),
        digest,
        ops,
    };
    let ran = Ran {
        serving,
        replays,
        frames,
        phase1_s: phase1_end.duration_since(t0).as_secs_f64(),
    };
    (ran, pass)
}

pub fn run(args: &Args) -> Outcome {
    let scale = args.scale;
    let mut out = Outcome::default();
    let reps = if args.trace { 1 } else { scale.setup_reps() };
    let (mut input, setups) = repeated_setup(reps, || setup(scale, args.seed));
    let shape = shape(scale);
    let ops_per_pass = (shape.clients * shape.requests_per_client
        + RATE_MULTIPLIERS.len() * shape.replay_clients * shape.replay_requests)
        as u64;

    let mut last: Option<Ran> = None;
    let mut phase1 = Vec::new();
    let passes = run_passes(
        args.seconds,
        scale.min_passes(),
        ops_per_pass,
        &mut out,
        || {
            let (ran, pass) = run_once(&mut input, &|b| b, None);
            phase1.push(ran.phase1_s);
            last = Some(ran);
            pass
        },
    );
    let poisoned = input.stage_session.is_poisoned() || input.pool_session.is_poisoned();
    let (Some(ran), false) = (last, poisoned) else {
        note_failed_frac(&mut out);
        return out;
    };
    let digest = passes.first().map(|p| p.digest).unwrap_or_default();
    check_expected(&mut out, args, digest, ops_per_pass);
    serve_errors(&mut out, &ran, &input);
    out.note(format!(
        "phase 1 (staged serving) takes a median {:.4} s of each pass",
        median(&phase1)
    ));

    let serving = &ran.serving;
    let virt_insitu_s = serving.staged.mean_sim_visible();
    let summary = summarize(&mut out, &input, &ran);

    out.note(format!(
        "virt_insitu_s = {virt_insitu_s:.6} s (mean simulation-visible virtual seconds per staged iteration)"
    ));
    if !args.trace {
        wall_metrics(&mut out, &setups, &passes);
        note_failed_frac(&mut out);
        return out;
    }

    // The traced run: the same calls with the input callback and both
    // stores timed.
    let untraced_run_s = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let spans = Spans::default();
    let store_trace = Arc::new(StoreTrace::default());
    let wrap = |b: Arc<dyn StoreBackend>| -> Arc<dyn StoreBackend> {
        Arc::new(TimedBackend::new(b, Arc::clone(&store_trace)))
    };
    let (traced, traced_pass) = run_once(&mut input, &wrap, Some(&spans));
    check_traced(&mut out, traced_pass.digest, digest, ops_per_pass);
    let traced_run_s = traced_pass.wall_s;

    let m = &mut out.metrics;
    let points: usize = input
        .blocks
        .values()
        .flatten()
        .map(|b| b.samples().len())
        .sum();
    m.put("cm1.synth_s", input.synth_s);
    m.put("cm1.points", points as f64);
    let store_get_s = store_trace.reads.union_s();
    m.put("core.input_s", spans.union_s());
    m.put("core.input_calls", spans.count() as f64);
    m.put("core.session_spawn_s", input.spawn_s);
    put_store(
        m,
        &mut out.notes,
        store_trace.counts(),
        store_get_s,
        store_trace.counts(),
        store_trace.writes.union_s(),
        CacheStats::default(),
    );
    replay_layers(&mut out, &input, &traced, &summary);
    let m = &mut out.metrics;
    let reports: Vec<IterationReport> = traced.serving.staged.reports();
    let n = reports.len() as f64;
    for (name, f) in VIRT_STEPS {
        m.put(name, reports.iter().map(f).sum::<f64>() / n);
    }
    m.put("virt.insitu_s", virt_insitu_s);
    let nblocks = input.dataset.decomp().all_blocks().count();
    let reduced: usize = reports.iter().map(|r| r.blocks_reduced).sum();
    m.put(
        "virt.reduced_frac",
        ratio(reduced as f64, (nblocks * reports.len()) as f64),
    );
    m.put("virt.budget_miss_frac", summary.budget_miss_frac);
    put_trace(m, traced_run_s, untraced_run_s);
    put_residual(
        &mut out,
        traced_run_s,
        &[
            "core.input_s",
            "store.get_s",
            "store.put_s",
            "compress.encode_s",
            "serve.wire_s",
            "serve.degrade_s",
            "replay.plan_s",
        ],
    );
    note_failed_frac(&mut out);
    out
}

/// Typed serve errors count as failed operations: every phase-1 frame
/// the stagers persisted must decode.
fn serve_errors(out: &mut Outcome, ran: &Ran, input: &Input) {
    let nstage = input.shape.nstage;
    let mut bad = 0u64;
    for &it in &input.iters {
        for st in 0..nstage {
            let key = frame_key(SERVE_RUN, it as u64, st as u32);
            if let Ok(stream) = ran.frames.get(&key) {
                bad += u64::from(Frame::decode(&stream).is_err());
            }
        }
    }
    if bad > 0 {
        out.failed += bad;
        out.problems
            .push(format!("{bad} persisted frames fail to decode"));
    }
}

/// The workload-specific end-to-end figures, from virtual outputs only.
struct Summary {
    degraded_frac: f64,
    budget_miss_frac: f64,
    reply_p99_s: f64,
    capacity_rps: f64,
}

/// Compute the [`Summary`] and print it with its bases.
fn summarize(out: &mut Outcome, input: &Input, ran: &Ran) -> Summary {
    let serving = &ran.serving;
    let replies =
        serving.requests.len() + ran.replays.iter().map(|r| r.requests.len()).sum::<usize>();
    let degraded = serving
        .requests
        .iter()
        .filter(|r| r.fidelity != Fidelity::Full || !r.exact)
        .count()
        + ran
            .replays
            .iter()
            .map(ReplayRun::total_inexact)
            .sum::<usize>();
    let degraded_frac = ratio(degraded as f64, replies as f64);
    out.note(format!(
        "degraded_frac = {degraded_frac:.6} ({degraded} of {replies} replies below full fidelity or inexact)"
    ));
    // Post-warm-up: each client's second half of requests.
    let half = input.shape.requests_per_client / 2;
    let mut seen = vec![0usize; input.shape.clients];
    let (mut over, mut total) = (0usize, 0usize);
    for r in &serving.requests {
        seen[r.client] += 1;
        if seen[r.client] > half {
            total += 1;
            over += usize::from(r.latency > LATENCY_BUDGET);
        }
    }
    let budget_miss_frac = ratio(over as f64, total as f64);
    out.note(format!(
        "virt_budget_miss_frac = {budget_miss_frac:.6} ({over} of {total} post-warm-up replies over the {LATENCY_BUDGET} s budget)"
    ));
    let mut capacity = 0.0f64;
    let mut reply_p99_s = 0.0;
    for (rate, run) in input.rates.iter().zip(&ran.replays) {
        let p99 = run.latency_percentile(99.0);
        let ok = p99 <= LATENCY_LIMIT;
        if ok {
            capacity = capacity.max(rate.offered_rps);
        }
        out.note(format!(
            "replay x{:.2}: offered {:.1} req/s, virtual p99 {p99:.6} s ({} requests){}",
            rate.multiplier,
            rate.offered_rps,
            run.requests.len(),
            if ok { "" } else { " — over the limit" }
        ));
        if rate.multiplier == 1.0 {
            reply_p99_s = p99;
            out.note(format!("virt_reply_p99_s = {p99:.6} s at the nominal rate"));
        }
    }
    out.note(format!(
        "virt_capacity_rps = {capacity:.1} req/s (highest offered rate with virtual p99 <= {LATENCY_LIMIT} s)"
    ));
    out.note(format!(
        "phase-1 fidelity mix (full/lossy/dropped/header): {}",
        serving.fidelity_mix().summary()
    ));
    Summary {
        degraded_frac,
        budget_miss_frac,
        reply_p99_s,
        capacity_rps: capacity,
    }
}

/// The per-layer figures of the serving layers: counts from the runs,
/// wall seconds from replaying their captured inputs through `Frame`
/// encode/decode, the request/reply wire codecs, `degrade_stream` and
/// `PoolPlan::plan`.
fn replay_layers(out: &mut Outcome, input: &Input, ran: &Ran, summary: &Summary) {
    let shape = &input.shape;
    let m: &mut Metrics = &mut out.metrics;
    let serving = &ran.serving;

    // compress: the phase-1 frames the stagers encoded in the run.
    let streams: BTreeMap<(u64, u32), Vec<u8>> = input
        .iters
        .iter()
        .flat_map(|&it| (0..shape.nstage).map(move |st| (it as u64, st as u32)))
        .filter_map(|(it, st)| {
            ran.frames
                .get(&frame_key(SERVE_RUN, it, st))
                .ok()
                .map(|s| ((it, st), s))
        })
        .collect();
    let t0 = now();
    let frames: Vec<Frame> = streams
        .values()
        .map(|s| Frame::decode(s).expect("persisted frames decode"))
        .collect();
    let decode_s = since(t0);
    let t0 = now();
    let encoded: usize = frames.iter().map(|f| f.encode(CodecKind::Fpz).len()).sum();
    let encode_s = since(t0);
    let raw: usize = frames.iter().map(|f| f.pixels.len() * 4).sum();
    m.put("compress.decode_s", decode_s);
    m.put("compress.decoded_bytes", raw as f64);
    m.put("compress.encode_s", encode_s);
    m.put("compress.encoded_bytes", encoded as f64);
    m.put("compress.ratio", ratio(encoded as f64, raw as f64));

    let stream_for = |it: Option<u64>, st: u32| -> &[u8] {
        it.and_then(|it| streams.get(&(it, st)))
            .or_else(|| {
                streams
                    .range((0, st)..)
                    .find(|(k, _)| k.1 == st)
                    .map(|(_, v)| v)
            })
            .or_else(|| streams.values().next())
            .map_or(&[], Vec::as_slice)
    };
    let requested = |r: FrameRequest| match r {
        FrameRequest::AtIteration(it) => Some(it),
        FrameRequest::Range { start, .. } => Some(start),
        FrameRequest::Latest => None,
    };

    // serve: wire codecs for every reply of both phases, and the ladder.
    let fixture: BTreeMap<usize, Vec<u8>> = input
        .manifest
        .iterations
        .iter()
        .filter_map(|&it| {
            let key = frame_key(REPLAY_RUN, it as u64, 0);
            input.fixture.get(&key).ok().map(|s| (it, s))
        })
        .collect();
    let t0 = now();
    let mut wire_bytes = 0usize;
    let mut round_trip =
        |req: FrameRequest, nframes: usize, exact: bool, fidelity: Fidelity, stream: &[u8]| {
            let q = FrameRequest::decode(&req.encode()).expect("requests round-trip");
            let reply = FrameReply::Frames {
                exact,
                frames: (0..nframes)
                    .map(|_| ServedFrame {
                        iteration: requested(q).unwrap_or(0),
                        stager: 0,
                        cache_hit: false,
                        fidelity,
                        stream: stream.to_vec(),
                    })
                    .collect(),
            };
            let bytes = reply.encode();
            wire_bytes += bytes.len();
            FrameReply::decode(&bytes).expect("replies round-trip");
        };
    for r in &serving.requests {
        let st = (r.client % shape.nstage) as u32;
        round_trip(
            r.request,
            r.frames,
            r.exact,
            r.fidelity,
            stream_for(requested(r.request), st),
        );
    }
    for run in &ran.replays {
        for r in &run.requests {
            let stream = fixture_stream(&fixture, r.request);
            round_trip(r.request, r.frames, r.exact, Fidelity::Full, stream);
        }
    }
    let wire_s = since(t0);
    let t0 = now();
    let mut degraded = 0usize;
    for r in serving
        .requests
        .iter()
        .filter(|r| r.fidelity != Fidelity::Full)
    {
        let st = (r.client % shape.nstage) as u32;
        let stream = stream_for(requested(r.request), st);
        for _ in 0..r.frames {
            degrade_stream(stream, r.fidelity).expect("stored frames degrade");
            degraded += 1;
        }
    }
    let degrade_s = since(t0);
    let mut cache = CacheStats::default();
    for s in &serving.servers {
        cache.hits += s.cache.hits;
        cache.misses += s.cache.misses;
    }
    let mix = serving.fidelity_mix();
    m.put("serve.replies", serving.requests.len() as f64);
    m.put("serve.wire_s", wire_s);
    m.put("serve.degrade_s", degrade_s);
    m.put(
        "serve.cache_hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
    m.put("serve.fidelity_full", mix.full as f64);
    m.put("serve.fidelity_lossy", mix.lossy as f64);
    m.put("serve.fidelity_dropped", mix.dropped as f64);
    m.put("serve.fidelity_header", mix.header_only as f64);
    m.put("serve.degraded_frac", summary.degraded_frac);
    out.notes.push(format!(
        "serve base: {} cache hits of {} lookups; {degraded} frames re-run through degrade_stream; \
         {wire_bytes} reply bytes re-encoded",
        cache.hits,
        cache.hits + cache.misses
    ));

    // stage
    let m: &mut Metrics = &mut out.metrics;
    m.put("stage.sim_stall_virt_s", serving.staged.mean_sim_stall());
    m.put("stage.dropped", serving.staged.total_dropped() as f64);
    m.put("stage.degraded", serving.staged.total_degraded() as f64);

    // replay: the planner over each rate's trace, with the executor's
    // pessimistic all-miss cost estimate.
    let params = pool_params(shape);
    let mut plan_s = 0.0;
    for rate in &input.rates {
        let est: Vec<f64> = rate
            .trace
            .arrivals
            .iter()
            .map(|a| {
                let res = resolve(a.request, a.stager, a.tier, &input.manifest.iterations);
                res.keys().iter().fold(params.service_base, |c, &(it, st)| {
                    let bytes = input
                        .fixture
                        .size(&frame_key(REPLAY_RUN, it, st))
                        .unwrap_or(0);
                    c + params.miss_read + params.read_per_byte * bytes as f64
                })
            })
            .collect();
        let t0 = now();
        let plan = PoolPlan::plan(&rate.trace, &params, &input.manifest.iterations, &est);
        plan_s += since(t0);
        std::hint::black_box(plan);
    }
    let requests: usize = ran.replays.iter().map(|r| r.requests.len()).sum();
    let steals: usize = ran.replays.iter().map(|r| r.stolen_total).sum();
    let mut cache = CacheStats::default();
    for s in ran.replays.iter().flat_map(|r| &r.servers) {
        cache.hits += s.cache.hits;
        cache.misses += s.cache.misses;
    }
    m.put("replay.plan_s", plan_s);
    m.put("replay.trace_gen_s", input.trace_gen_s);
    m.put("replay.requests", requests as f64);
    m.put("replay.steals", steals as f64);
    m.put(
        "replay.cache_hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
    m.put("replay.virt_reply_p99_s", summary.reply_p99_s);
    m.put("replay.virt_capacity_rps", summary.capacity_rps);
    out.notes.push(format!(
        "replay base: {} cache hits of {} lookups; {steals} of {requests} requests stolen",
        cache.hits,
        cache.hits + cache.misses
    ));
}

/// A stored fixture frame standing in for a phase-2 reply's payload:
/// the requested iteration's, or the first one's for misses.
fn fixture_stream(fixture: &BTreeMap<usize, Vec<u8>>, req: FrameRequest) -> &[u8] {
    let it = match req {
        FrameRequest::AtIteration(it) | FrameRequest::Range { start: it, .. } => Some(it as usize),
        FrameRequest::Latest => fixture.keys().next_back().copied(),
    };
    it.and_then(|it| fixture.get(&it))
        .or_else(|| fixture.values().next())
        .map_or(&[], Vec::as_slice)
}
