//! Golden-report snapshots for the fig06–fig15 experiment families.
//!
//! Each figure's configuration grid is replayed at test scale (the `tiny`
//! geometry) and the resulting rows — [`IterationReport`]s for fig06–11,
//! staged frames for fig12, per-request serving logs for fig13–15 — are
//! serialized to CSV and compared **byte-for-byte** against in-repo
//! fixtures under `tests/golden/`. Virtual time is counted, not measured,
//! so these bytes are reproducible run-to-run and machine-to-machine for
//! one build environment; a refactor that changes any paper number — a
//! reordered reduction set, a perturbed cost constant, a broken cache
//! key, a request resolved differently — fails here with a diff instead
//! of silently shifting the figures.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! APC_UPDATE_GOLDEN=1 cargo test -p apc-bench --test golden_reports
//! ```
//!
//! and review the fixture diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use apc_cm1::ReflectivityDataset;
use apc_comm::NetModel;
use apc_core::{
    run_replay_serving, BackpressurePolicy, ExecPolicy, Fidelity, FrameRequest, FrameSink,
    IterationReport, PipelineConfig, Prepared, Redistribution, RequestLog, ServeParams,
    ServePolicy, ServingRun, StagedParams,
};
use apc_replay::{small_run, ArrivalTrace, PoolParams, RouteMode, TraceSpec};
use apc_store::{CodecKind, MemStore, StoreBackend};

/// Seed shared with `Scale::quick()` so shuffle-based rows mirror the
/// real experiments.
const SEED: u64 = 42;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn render_csv(rows: &[(String, Vec<IterationReport>)]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "config,{}",
        IterationReport::csv_header().replace(char::is_whitespace, "")
    )
    .unwrap();
    for (label, reports) in rows {
        for r in reports {
            writeln!(out, "{label},{}", r.to_csv_row()).unwrap();
        }
    }
    out
}

struct Golden {
    prepared: Prepared,
    component_iters: Vec<usize>,
    adapt_iters: Vec<usize>,
    mismatches: Vec<String>,
}

impl Golden {
    fn new() -> Self {
        let dataset = ReflectivityDataset::tiny(4, SEED).expect("tiny decomposition");
        let iterations = dataset.sample_iterations(6);
        let prepared = Prepared::from_dataset(
            dataset,
            iterations.clone(),
            ExecPolicy::Serial,
            NetModel::blue_waters(),
        );
        let component_iters = prepared.subset(3);
        Self {
            prepared,
            component_iters,
            adapt_iters: iterations,
            mismatches: Vec::new(),
        }
    }

    /// Sweep `configs` over `iters` and compare (or rewrite) the fixture.
    fn check(&mut self, name: &str, labeled: Vec<(String, PipelineConfig)>, iters: &[usize]) {
        let configs: Vec<PipelineConfig> = labeled.iter().map(|(_, c)| c.clone()).collect();
        let swept = self.prepared.run_sweep(&configs, iters);
        let rows: Vec<(String, Vec<IterationReport>)> = labeled
            .into_iter()
            .map(|(label, _)| label)
            .zip(swept)
            .collect();
        let got = render_csv(&rows);
        if let Some(m) = compare_fixture(name, &got) {
            self.mismatches.push(m);
        }
    }
}

/// Compare `got` with the `name` fixture (or rewrite it under
/// `APC_UPDATE_GOLDEN`), returning a description of the first difference.
fn compare_fixture(name: &str, got: &str) -> Option<String> {
    let path = golden_dir().join(format!("{name}.csv"));
    if std::env::var_os("APC_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden fixture");
        eprintln!("updated {}", path.display());
        return None;
    }
    let want = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            return Some(format!(
                "{name}: fixture {} unreadable ({e}); run with APC_UPDATE_GOLDEN=1",
                path.display()
            ))
        }
    };
    if got == want {
        return None;
    }
    let diff = want
        .lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, (a, b))| format!("first diff at line {}:\n  -{a}\n  +{b}", i + 1))
        .unwrap_or_else(|| {
            format!(
                "line count {} -> {}",
                want.lines().count(),
                got.lines().count()
            )
        });
    Some(format!("{name}: report bytes changed; {diff}"))
}

/// Fail the test on a fixture mismatch, naming the regeneration path.
fn assert_fixture(name: &str, got: &str) {
    if let Some(m) = compare_fixture(name, got) {
        panic!(
            "golden report mismatch:\n{m}\n(if the change is intentional, regenerate with \
             APC_UPDATE_GOLDEN=1 and review the fixture diff)"
        );
    }
}

#[test]
fn fig06_to_fig11_reports_match_golden_fixtures() {
    let mut g = Golden::new();

    // Fig 6 family: fixed reduction percentages, VAR, no redistribution.
    g.check(
        "fig06",
        [0.0, 80.0, 90.0, 98.0, 100.0]
            .iter()
            .map(|&p| {
                (
                    format!("p{p:.0}"),
                    PipelineConfig::default().with_fixed_percent(p),
                )
            })
            .collect(),
        &g.component_iters.clone(),
    );

    // Fig 7 family: the percentage sweep.
    g.check(
        "fig07",
        [0.0, 20.0, 40.0, 70.0, 90.0, 100.0]
            .iter()
            .map(|&p| {
                (
                    format!("p{p:.0}"),
                    PipelineConfig::default().with_fixed_percent(p),
                )
            })
            .collect(),
        &g.component_iters.clone(),
    );

    // Fig 8 family: redistribution (communication) time, LEA metric,
    // round-robin vs seeded random shuffle.
    g.check(
        "fig08",
        [0.0, 60.0, 100.0]
            .iter()
            .flat_map(|&p| {
                [
                    ("rr", Redistribution::RoundRobin),
                    ("shuffle", Redistribution::RandomShuffle { seed: SEED }),
                ]
                .into_iter()
                .map(move |(label, strat)| {
                    (
                        format!("{label}-p{p:.0}"),
                        PipelineConfig::default()
                            .with_metric("LEA")
                            .with_redistribution(strat)
                            .with_fixed_percent(p),
                    )
                })
            })
            .collect(),
        &g.component_iters.clone(),
    );

    // Fig 9 family: reduction × redistribution strategy grid.
    g.check(
        "fig09",
        [0.0, 90.0]
            .iter()
            .flat_map(|&p| {
                [
                    ("none", Redistribution::None),
                    ("rr", Redistribution::RoundRobin),
                    ("shuffle", Redistribution::RandomShuffle { seed: SEED }),
                ]
                .into_iter()
                .map(move |(label, strat)| {
                    (
                        format!("{label}-p{p:.0}"),
                        PipelineConfig::default()
                            .with_redistribution(strat)
                            .with_fixed_percent(p),
                    )
                })
            })
            .collect(),
        &g.component_iters.clone(),
    );

    // Fig 10 family: adaptation without redistribution.
    g.check(
        "fig10",
        [20.0, 5.0]
            .iter()
            .map(|&t| (format!("t{t:.0}"), PipelineConfig::default().with_target(t)))
            .collect(),
        &g.adapt_iters.clone(),
    );

    // Fig 11 family: adaptation of the full pipeline (round-robin).
    g.check(
        "fig11",
        [10.0, 3.0]
            .iter()
            .map(|&t| {
                (
                    format!("t{t:.0}"),
                    PipelineConfig::default()
                        .with_redistribution(Redistribution::RoundRobin)
                        .with_target(t),
                )
            })
            .collect(),
        &g.adapt_iters.clone(),
    );

    assert!(
        g.mismatches.is_empty(),
        "golden report mismatches:\n{}\n(if the change is intentional, regenerate with \
         APC_UPDATE_GOLDEN=1 and review the fixture diff)",
        g.mismatches.join("\n")
    );
}

#[test]
fn fig12_staged_frames_match_golden() {
    let g = Golden::new();
    let base = PipelineConfig::default().with_fixed_percent(40.0);
    let iters = g.adapt_iters.clone();
    // The solver computes for the synchronous pipeline's mean iteration
    // time, as in the figure.
    let sync = g.prepared.run(base.clone(), &iters);
    let sim_compute = sync.iter().map(|r| r.t_total).sum::<f64>() / sync.len() as f64;
    let mut out = String::new();
    writeln!(
        out,
        "config,{},t_sim_stall,t_sim_visible,slices_dropped,stagers_degraded,blocks_by_stager",
        IterationReport::csv_header().replace(char::is_whitespace, "")
    )
    .unwrap();
    for depth in [1usize, 4] {
        for (name, policy) in [
            ("block", BackpressurePolicy::Block),
            ("drop-oldest", BackpressurePolicy::DropOldest),
            (
                "degrade+25",
                BackpressurePolicy::DegradeHarder { boost: 25.0 },
            ),
        ] {
            let params = StagedParams::new(1, depth, policy).with_sim_compute(sim_compute);
            let run = g
                .prepared
                .run_staged(base.clone().with_staged(params), &iters);
            for f in &run.frames {
                let per_stager: Vec<String> =
                    f.blocks_by_stager.iter().map(ToString::to_string).collect();
                writeln!(
                    out,
                    "d{depth}-{name},{},{},{},{},{},{}",
                    f.report.to_csv_row(),
                    f.t_sim_stall,
                    f.t_sim_visible,
                    f.slices_dropped,
                    f.stagers_degraded,
                    per_stager.join(";")
                )
                .unwrap();
            }
        }
    }
    assert_fixture("fig12", &out);
}

/// The serving fixture: 8 tiny ranks split 2 sim / 2 viz / 4 clients.
fn serving_fixture() -> (Prepared, Vec<usize>) {
    let dataset = ReflectivityDataset::tiny(8, SEED).expect("tiny decomposition");
    let iterations = dataset.sample_iterations(4);
    let prepared = Prepared::from_dataset(
        dataset,
        iterations.clone(),
        ExecPolicy::Serial,
        NetModel::blue_waters(),
    );
    (prepared, iterations)
}

fn serve_tiny(prepared: &Prepared, iters: &[usize], serve: &ServeParams) -> ServingRun {
    let sink = FrameSink::new(Arc::new(MemStore::new()), "golden", CodecKind::Fpz);
    let params = StagedParams::new(2, 2, BackpressurePolicy::Block)
        .with_sim_compute(5.0)
        .with_persist(sink);
    let config = PipelineConfig::default()
        .deterministic()
        .with_fixed_percent(40.0)
        .with_staged(params);
    prepared.run_staged_serving(config, iters, serve)
}

fn request_label(q: FrameRequest) -> String {
    match q {
        FrameRequest::Latest => "latest".into(),
        FrameRequest::AtIteration(it) => format!("at:{it}"),
        FrameRequest::Range { start, end } => format!("range:{start}..{end}"),
    }
}

fn fidelity_label(f: Fidelity) -> String {
    match f {
        Fidelity::Lossy { tolerance } => format!("lossy:{tolerance}"),
        Fidelity::Dropped {
            keep_percent,
            tolerance,
        } => format!("dropped:{keep_percent}/{tolerance}"),
        other => other.name().into(),
    }
}

const REQUEST_HEADER: &str = "config,client,request,frames,cache_hits,exact,latency,fidelity";

fn request_rows(out: &mut String, label: &str, logs: &[RequestLog]) {
    for r in logs {
        writeln!(
            out,
            "{label},{},{},{},{},{},{},{}",
            r.client,
            request_label(r.request),
            r.frames,
            r.cache_hits,
            r.exact,
            r.latency,
            fidelity_label(r.fidelity)
        )
        .unwrap();
    }
}

#[test]
fn fig13_serving_requests_match_golden() {
    let (prepared, iters) = serving_fixture();
    let mut requests = format!("{REQUEST_HEADER}\n");
    let mut runs = String::from(
        "config,requests,frames_served,cache_hit_rate,deferred,inexact,p50_latency,p99_latency,\
         frames_per_vsecond\n",
    );
    // Both policies with a roomy cache, then best effort uncached (every
    // frame a charged store read).
    for (label, policy, cache_bytes) in [
        ("wait-for-frame", ServePolicy::WaitForFrame, 64 << 10),
        ("best-effort", ServePolicy::BestEffort, 64 << 10),
        ("best-effort-uncached", ServePolicy::BestEffort, 0),
    ] {
        let serve = ServeParams::new(4, 6, policy)
            .with_think_time(0.1)
            .with_cache_bytes(cache_bytes);
        let run = serve_tiny(&prepared, &iters, &serve);
        request_rows(&mut requests, label, &run.requests);
        writeln!(
            runs,
            "{label},{},{},{},{},{},{},{},{}",
            run.requests.len(),
            run.frames_served(),
            run.cache_hit_rate(),
            run.total_deferred(),
            run.total_inexact(),
            run.latency_percentile(50.0),
            run.latency_percentile(99.0),
            run.frames_per_virtual_second()
        )
        .unwrap();
    }
    assert_fixture("fig13", &requests);
    assert_fixture("fig13_runs", &runs);
}

#[test]
fn fig14_replay_requests_match_golden() {
    const RUN: &str = "golden-replay";
    let backend: Arc<dyn StoreBackend> = Arc::new(MemStore::new());
    let manifest = small_run(Arc::clone(&backend), RUN);
    let trace = ArrivalTrace::generate(&TraceSpec::new(8, 6, SEED), &manifest);
    let mut out = String::from(
        "mode,slot,client,tier,request,primary,executor,stolen,frames,cache_hits,exact,latency\n",
    );
    for mode in [
        RouteMode::Pinned,
        RouteMode::Routed,
        RouteMode::RoutedStealing,
    ] {
        let params = PoolParams::new(2, mode).with_cache_bytes(4 << 10);
        let run = run_replay_serving(
            Arc::clone(&backend),
            RUN,
            &trace,
            &params,
            ExecPolicy::Serial,
            NetModel::blue_waters(),
        );
        for r in &run.requests {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{}",
                mode.name(),
                r.slot,
                r.client,
                r.tier.name(),
                request_label(r.request),
                r.primary,
                r.executor,
                r.stolen,
                r.frames,
                r.cache_hits,
                r.exact,
                r.latency
            )
            .unwrap();
        }
    }
    assert_fixture("fig14", &out);
}

#[test]
fn fig15_adaptive_serving_matches_golden() {
    let (prepared, iters) = serving_fixture();
    let fixed = ServeParams::new(4, 6, ServePolicy::BestEffort)
        .with_think_time(0.1)
        .with_serve_costs(0.05, 1e-4);
    let mut requests = format!("{REQUEST_HEADER}\n");
    let mut runs = String::from(
        "mode,requests,frames_served,cache_hit_rate,p50_latency,p99_latency,full,lossy,dropped,\
         header_only,final_percent\n",
    );
    // No budget, then budgets that settle the controller on each
    // degraded rung: header-only, dropped and lossy.
    for (mode, serve) in [
        ("fixed", fixed),
        ("budget-0.01", fixed.with_latency_budget(0.01)),
        ("budget-10", fixed.with_latency_budget(10.0)),
        ("budget-25", fixed.with_latency_budget(25.0)),
    ] {
        let run = serve_tiny(&prepared, &iters, &serve);
        request_rows(&mut requests, mode, &run.requests);
        let mix = run.fidelity_mix();
        let final_percent: Vec<String> = run
            .servers
            .iter()
            .map(|s| s.final_percent.to_string())
            .collect();
        writeln!(
            runs,
            "{mode},{},{},{},{},{},{},{},{},{},{}",
            run.requests.len(),
            run.frames_served(),
            run.cache_hit_rate(),
            run.latency_percentile(50.0),
            run.latency_percentile(99.0),
            mix.full,
            mix.lossy,
            mix.dropped,
            mix.header_only,
            final_percent.join(";")
        )
        .unwrap();
    }
    assert_fixture("fig15", &requests);
    assert_fixture("fig15_runs", &runs);
}
