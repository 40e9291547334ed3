//! Benchmark harnesses regenerating every table and figure of the paper.
//!
//! Layout:
//!
//! * [`harness`] — run scales (quick vs `APC_SCALE=full`), the
//!   [`harness::Prepared`] input (pre-generated blocks + persistent rank
//!   session + shared stats cache) whose
//!   [`run_sweep`](harness::Prepared::run_sweep) replays whole
//!   configuration sweeps over one set of rank threads, CSV output under
//!   `target/experiments/`, ASCII tables;
//! * [`experiments`] — one module per paper table/figure plus the ablations
//!   (README "Paper figures → binaries"). Each exposes `run(&Scale)`,
//!   prints the series/rows the paper reports, and writes CSV.
//! * [`perf`] — the perf-trajectory regression gate: parses
//!   `bench_kernels.json` runs and diffs them against the committed
//!   `bench_baseline.json` with a tolerance band (driven by the
//!   `perf_gate` binary from `ci.sh`).
//!
//! Thin binaries in `src/bin/` wrap single experiments; the `figures` bench
//! target (`cargo bench -p apc-bench --bench figures`) runs the whole set,
//! and the `kernels` bench target microbenchmarks the hot kernels,
//! including the `Serial` vs `Threads(n)` execution-policy comparison.
//!
//! Set `APC_THREADS=<n>|auto` to fan the per-block kernels out inside each
//! simulated rank (see [`harness::exec_from_env`]); virtual-time figures
//! are byte-identical under every policy, only wall-clock changes.
//!
//! Set `APC_DATASET=<dir>` to replay a stored `apc-store` dataset
//! (written with the `write_dataset` binary) instead of regenerating the
//! synthetic simulation — rank counts and seed then come from the store's
//! metadata (see [`harness::dataset_from_env`]). Golden fig06–fig11
//! report snapshots live in `tests/golden_reports.rs`; regenerate
//! intentionally-changed fixtures with `APC_UPDATE_GOLDEN=1`.

pub mod experiments;
pub mod harness;
pub mod perf;

pub use harness::{exec_from_env, Scale};
