//! Standalone harness for fig01 — see README "Paper figures → binaries".

use apc_bench::{experiments, Scale};

fn main() {
    let scale = Scale::from_env();
    experiments::fig01::run(&scale);
}
