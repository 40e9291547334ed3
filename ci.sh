#!/usr/bin/env bash
# Tier-1 verification entry point — what CI runs and what a PR must keep
# green. Mirrors the "Developing" recipe in README.md.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> apc-lint (in-tree determinism & safety lint, deny-by-default)"
# Wall-clock reads, hash-order iteration, unannotated unwraps, NaN-unsafe
# comparators, raw thread spawns, and the reserved-tag layout. Diagnostics
# are file:line: rule: message; suppress a site with a reasoned
# `// apc-lint: allow(<rule>): <reason>`. See README "Static analysis".
cargo run -q -p apc-lint

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (umbrella integration tests)"
cargo test -q

echo "==> cargo test --workspace -q (every crate's suite)"
cargo test --workspace -q

echo "==> codec suite (bit I/O units, stream pins, adversarial inputs, properties)"
# Covered by the workspace run above, but named explicitly: the stream
# pins (tests/stream_pins.rs) guard the on-disk chunk format and the wire
# frame format. Fpz and Zfpx bytes, and what damaged streams decode to,
# must not change unless that is the intent of the change.
cargo test -q -p apc-compress

echo "==> shard container suite (partial reads + adversarial inputs)"
# Covered by the workspace run above, but named explicitly so a failure
# in the shard layer is impossible to miss in the CI log.
cargo test -q -p apc-store --test sharding --test shard_adversarial

echo "==> chunk cache suite (LRU/readahead units + cache-on/off properties)"
# Also covered by the runs above; named explicitly because the cache's
# transparency contract (byte-identical replay with the cache on vs off,
# Serial vs Threads) is a PR-8 acceptance pin.
cargo test -q -p apc-store --lib cache
cargo test -q --test properties -- cached_backend_is_transparent_under_random_traffic \
  cache_and_prefetch_do_not_perturb_replay

echo "==> replay serving suite (pool routing, stealing, QoS determinism)"
# Covered by the runs above, but named explicitly: byte-identical replay
# across exec policies, session reuse, and frame layouts is the PR-9
# acceptance pin for the standalone replay server pool. Both serving
# executors resolve requests through apc-serve's shared resolver
# (`resolution` unit tests), and the fig14 golden pins the pool's
# per-request log bytes.
cargo test -q -p apc-replay
cargo test -q -p apc-serve --lib resolution
cargo test -q -p apc-bench --test golden_reports -- fig14
cargo test -q --test replay_fanout
cargo test -q -p apc-comm --test session_stress -- replay_server_death stealing_under_churn

echo "==> adaptive serving suite (budget controller, fidelity ladder, wire tag)"
# Covered by the runs above, but named explicitly: byte-identical replay
# of the controller trajectory and fidelity mix across exec policies,
# repeats and session reuse is the PR-10 acceptance pin for
# performance-constrained serving. The fig12, fig13 and fig15 goldens pin
# the staged frames and the live serving logs with the budget off and on.
cargo test -q -p apc-core --lib -- serving controller stats
cargo test -q -p apc-serve
cargo test -q -p apc-bench --test golden_reports -- fig12 fig13 fig15
cargo test -q --test staged_determinism -- adaptive_serving
cargo test -q -p apc-comm --test session_stress -- stager_death_mid_degraded_reply

echo "==> repo benchmark smoke suite (perfbench: every workload, recorded digests)"
# perfbench is a cargo package of its own (see README "Benchmark"), so
# the workspace runs above do not reach it. Its smoke suite runs every
# workload at tiny geometry and checks the recorded output digests.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> rustdoc lint (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> compile-check examples and benches"
cargo build --examples --benches --quiet

echo "==> perf trajectory gate (kernels bench vs bench_baseline.json)"
# Regenerates target/experiments/bench_kernels.json, then diffs its wall
# times against the committed baseline with a tolerance band (default
# 2.5x slowdown fails; tune with APC_BENCH_TOL). The baseline is only
# meaningful for the machine class it was generated on — regenerate it
# on the enforcing hardware with APC_UPDATE_BASELINE=1 ./ci.sh, and on a
# machine class the baseline does not describe, run with a wider
# APC_BENCH_TOL or APC_PERF_GATE=skip rather than trusting the verdict.
cargo bench -p apc-bench --bench kernels >/dev/null
if [ "${APC_PERF_GATE:-on}" = "skip" ]; then
  echo "perf gate: skipped (APC_PERF_GATE=skip)"
else
  cargo run --release -q -p apc-bench --bin perf_gate
fi

echo "ci.sh: all green"
