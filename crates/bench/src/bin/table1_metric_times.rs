//! Standalone harness for table1 — see README "Paper figures → binaries".

use apc_bench::{experiments, Scale};

fn main() {
    let scale = Scale::from_env();
    experiments::table1::run(&scale);
}
