//! The repository's benchmark: three workloads through the public entry
//! points of `apc-core`, each with its end-to-end metrics and an output
//! check, plus a traced run that breaks the same work down per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-mem|adapt-store|serve-fanout|all> --seed <n> \
//!     --seconds <s> --trace <0|1> [--smoke]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare <a.out> <b.out>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
//! it are a human-readable table, the workload-specific figures with
//! their base counts, and a machine stamp (`nproc`, CPU model, `rustc`,
//! commit, seed). `compare` prints the metric ratios of two saved
//! outputs and refuses outputs stamped with different `nproc`.
//!
//! The benchmark measures from outside the program only: it times its
//! own calls into the public entry points, the input callback and a
//! timing `StoreBackend` it hands the program, and reads the counters
//! the program returns. It drives everything from one thread and spawns
//! none of its own; every run uses `ExecPolicy::Serial`.

mod clock;
mod digest;
mod harness;
mod pipeline;
mod serve;

use harness::{Args, Outcome, Scale};

/// One printed metric: a listed name, its value and its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

const WORKLOADS: [&str; 3] = ["sweep-mem", "adapt-store", "serve-fanout"];

/// Every per-layer metric, in print order, with its unit. A workload
/// that bypasses a layer reports that layer's figures as zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cm1.synth_s", "s"),
    ("cm1.points", "count"),
    ("core.input_s", "s"),
    ("core.input_calls", "count"),
    ("core.session_spawn_s", "s"),
    ("core.residual_s", "s"),
    ("store.gets", "count"),
    ("store.range_gets", "count"),
    ("store.get_bytes", "bytes"),
    ("store.get_s", "s"),
    ("store.puts", "count"),
    ("store.put_bytes", "bytes"),
    ("store.put_s", "s"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.prefetch_used_ratio", "ratio"),
    ("compress.decode_s", "s"),
    ("compress.decoded_bytes", "bytes"),
    ("compress.encode_s", "s"),
    ("compress.encoded_bytes", "bytes"),
    ("compress.ratio", "ratio"),
    ("metrics.score_s", "s"),
    ("metrics.blocks_scored", "count"),
    ("metrics.points", "count"),
    ("comm.sort_s", "s"),
    ("comm.sorted_keys", "count"),
    ("redistribute.exchange_s", "s"),
    ("redistribute.blocks_moved", "count"),
    ("redistribute.computed_bytes_moved", "bytes-computed"),
    ("grid.reduce_s", "s"),
    ("grid.blocks_reduced", "count"),
    ("render.iso_s", "s"),
    ("render.blocks", "count"),
    ("render.triangles", "count"),
    ("render.stats_cache_hit_ratio", "ratio"),
    ("stage.sim_stall_virt_s", "s"),
    ("stage.dropped", "count"),
    ("stage.degraded", "count"),
    ("serve.replies", "count"),
    ("serve.wire_s", "s"),
    ("serve.degrade_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.fidelity_full", "count"),
    ("serve.fidelity_lossy", "count"),
    ("serve.fidelity_dropped", "count"),
    ("serve.fidelity_header", "count"),
    ("serve.degraded_frac", "ratio"),
    ("replay.plan_s", "s"),
    ("replay.trace_gen_s", "s"),
    ("replay.requests", "count"),
    ("replay.steals", "count"),
    ("replay.cache_hit_ratio", "ratio"),
    ("replay.virt_reply_p99_s", "s"),
    ("replay.virt_capacity_rps", "1/s"),
    ("virt.t_score", "s"),
    ("virt.t_sort", "s"),
    ("virt.t_reduce", "s"),
    ("virt.t_redistribute", "s"),
    ("virt.t_render", "s"),
    ("virt.insitu_s", "s"),
    ("virt.reduced_frac", "ratio"),
    ("virt.budget_miss_frac", "ratio"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Every end-to-end metric, in print order, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("compare") => compare(&argv[1..]),
        _ => match parse(&argv) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("perfbench: {e}");
                2
            }
        },
    };
    std::process::exit(code);
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => args.scale = Scale::Smoke,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Run one workload, or with `all` every workload untraced and traced,
/// printing each result. Correctness is reported in the result line, not
/// in the exit code, which is non-zero only when no result was printed.
fn run(args: &Args) -> i32 {
    let workloads: Vec<(&str, bool)> = if args.workload == "all" {
        WORKLOADS
            .iter()
            .flat_map(|&w| [(w, false), (w, true)])
            .collect()
    } else {
        vec![(args.workload.as_str(), args.trace)]
    };
    for (workload, trace) in workloads {
        let a = Args {
            workload: workload.to_owned(),
            trace,
            ..args.clone()
        };
        let (out, metrics) = run_workload(&a);
        print(&a, &out, &metrics);
    }
    let _ = std::fs::remove_dir(".perfbench-data");
    0
}

fn run_workload(args: &Args) -> (Outcome, Vec<Metric>) {
    let mut out = match args.workload.as_str() {
        "serve-fanout" => serve::run(args),
        _ => pipeline::run(args),
    };
    let metrics = select(&mut out, args.trace);
    (out, metrics)
}

/// The metrics of the JSON line, in the listed order: every listed one,
/// zero for a layer the workload bypasses. A metric the workload put that
/// is not listed, a listed end-to-end metric it did not put, or a value
/// that is not finite is a benchmark bug and fails the run.
fn select(out: &mut Outcome, trace: bool) -> Vec<Metric> {
    let list = if trace { PER_LAYER } else { END_TO_END };
    for (name, _) in &out.metrics.0 {
        if !list.iter().any(|(n, _)| n == name) {
            out.problems.push(format!("unlisted metric {name}"));
        }
    }
    let mut picked = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = match out.metrics.get(name) {
            Some(v) => v,
            None if trace || !out.problems.is_empty() => 0.0,
            None => {
                out.problems
                    .push(format!("missing end-to-end metric {name}"));
                0.0
            }
        };
        if !value.is_finite() {
            out.problems.push(format!("{name} is not finite"));
        }
        picked.push(Metric {
            name: name.to_owned(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }
    picked
}

/// Print the table, the notes, the stamp and the JSON line; returns
/// whether the output checked.
fn print(args: &Args, out: &Outcome, metrics: &[Metric]) -> bool {
    let mode = if args.trace {
        "traced per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "== {} ({} scale, seed {}): {mode} metrics ==",
        args.workload,
        args.scale.name(),
        args.seed
    );
    for m in metrics {
        println!("  {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        println!("  - {n}");
    }
    for p in &out.problems {
        println!("  ! {p}");
    }
    println!("stamp {}", stamp(args));
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    out.correct()
}

/// The machine stamp recorded with every result.
fn stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|r| r.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let command = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let rustc = command("rustc", &["--version"]);
    let commit = command("git", &["rev-parse", "--short=12", "HEAD"]);
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" commit={commit} seed={} workload={} scale={} trace={}",
        args.seed,
        args.workload,
        args.scale.name(),
        u8::from(args.trace)
    )
}

/// `compare <a> <b>`: metric ratios b/a of two saved outputs, refused
/// when their stamps record different `nproc`.
fn compare(files: &[String]) -> i32 {
    let [a, b] = files else {
        eprintln!("perfbench: compare takes two saved outputs");
        return 2;
    };
    let read = |path: &str| -> Result<(String, Vec<(String, f64)>), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let nproc = text
            .lines()
            .filter_map(|l| l.strip_prefix("stamp "))
            .next_back()
            .and_then(|s| s.split_whitespace().find_map(|f| f.strip_prefix("nproc=")))
            .ok_or(format!("{path}: no stamp line"))?
            .to_owned();
        let last = text.lines().last().ok_or(format!("{path}: empty"))?;
        Ok((nproc, parse_metrics(last)))
    };
    let ((na, ma), (nb, mb)) = match (read(a), read(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    if na != nb {
        eprintln!("perfbench: refusing to compare results taken with nproc={na} and nproc={nb}");
        return 3;
    }
    println!("{:<36} {:>16} {:>16} {:>10}", "metric", "a", "b", "b/a");
    for (name, va) in &ma {
        if let Some((_, vb)) = mb.iter().find(|(n, _)| n == name) {
            println!("{name:<36} {va:>16.6} {vb:>16.6} {:>10.4}", vb / va);
        }
    }
    0
}

/// The `(name, value)` pairs of a result line this program printed.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    line.split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .filter_map(|w| {
            let name = w[0].rsplit('"').next()?.to_owned();
            let value = w[1].split(',').next()?.trim().parse().ok()?;
            Some((name, value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, seed: u64, trace: bool) -> (Outcome, Vec<Metric>) {
        let args = Args {
            workload: workload.to_owned(),
            seed,
            seconds: 0.0,
            trace,
            scale: Scale::Smoke,
        };
        let (out, metrics) = run_workload(&args);
        let _ = std::fs::remove_dir(".perfbench-data");
        assert!(
            print(&args, &out, &metrics),
            "{workload} trace={trace}: {:?}",
            out.problems
        );
        (out, metrics)
    }

    /// Both recorded seeds untraced (the digest check included), then
    /// the traced run.
    fn check(workload: &str) {
        for seed in [1, 2] {
            let (e2e, metrics) = smoke(workload, seed, false);
            assert_eq!(metrics.len(), END_TO_END.len());
            for m in &metrics {
                assert!(
                    m.value > 0.0,
                    "{workload}: end-to-end {} is {}",
                    m.name,
                    m.value
                );
            }
            assert!(
                e2e.notes
                    .iter()
                    .any(|n| n.contains("matches the recorded one")),
                "{workload} seed {seed}: no recorded digest checked"
            );
        }
        let (_, layers) = smoke(workload, 1, true);
        assert_eq!(layers.len(), PER_LAYER.len());
    }

    #[test]
    fn sweep_mem_smoke() {
        check("sweep-mem");
    }

    #[test]
    fn adapt_store_smoke() {
        check("adapt-store");
    }

    #[test]
    fn serve_fanout_smoke() {
        check("serve-fanout");
    }

    #[test]
    fn metric_lists_are_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().chain(END_TO_END).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
        for (name, unit) in PER_LAYER.iter().chain(END_TO_END) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
        }
    }

    #[test]
    fn printed_results_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"a.b\": {\"value\": 2, \"unit\": \"ms\"}}}";
        assert_eq!(
            parse_metrics(line),
            vec![("run_s".to_owned(), 1.25), ("a.b".to_owned(), 2.0)]
        );
    }
}
