//! Experiment driver: replay a dataset through the pipeline on the virtual
//! runtime — the equivalent of the paper's BIL-reload + Catalyst kernel
//! (§V-A).
//!
//! Two execution shapes:
//!
//! * **one-shot** ([`run_experiment`]) — spawn the rank threads, run one
//!   configuration, join;
//! * **sweep** ([`run_sweep_in_session`]) — spawn the rank threads once
//!   ([`apc_comm::Session`]) and replay *many*
//!   configurations over them, which is how the paper's Figs 6–11 explore
//!   the parameter space over one stored dataset. Virtual time is counted,
//!   not measured, so the two shapes produce byte-identical
//!   [`IterationReport`]s (guarded by the `sweep_engine` integration
//!   tests); the sweep only removes the per-configuration thread-spawn
//!   wall-clock cost.

use apc_cm1::ReflectivityDataset;
use apc_comm::{NetModel, Runtime, Session};

use crate::config::{InSituMode, PipelineConfig};
use crate::pipeline::Pipeline;
use crate::report::IterationReport;

/// Run `config` over the given dataset iterations on the dataset's own rank
/// count, with a Blue Waters-like network, in a session of its own.
/// Returns one report per iteration (identical across ranks; rank 0's
/// copy). Sweeps and other network models go through
/// [`run_sweep_in_session`] or [`crate::Prepared`].
pub fn run_experiment(
    dataset: &ReflectivityDataset,
    config: PipelineConfig,
    iterations: &[usize],
) -> Vec<IterationReport> {
    let mut session = Runtime::new(dataset.decomp().nranks(), NetModel::blue_waters()).session();
    run_sweep_in_session(
        &mut session,
        dataset.decomp(),
        dataset.coords(),
        std::slice::from_ref(&config),
        iterations,
        &|it, rank| dataset.rank_blocks(it, rank),
    )
    .swap_remove(0)
}

/// The sweep engine: replay every configuration in `configs` over the same
/// input through a caller-owned [`Session`] — the rank threads are spawned
/// once, not once per configuration, and several sweeps (e.g. consecutive
/// figures of the paper) can share one persistent rank pool. Returns one
/// report series per configuration, in order, byte-identical to running
/// each configuration in a fresh session. The session's rank count must
/// match the decomposition; its network model is whatever the session was
/// created with.
///
/// The caller supplies the per-`(iteration, rank)` block input, so
/// parameter sweeps can pre-generate blocks and run the synthetic
/// simulation once instead of once per configuration. Each config's
/// [`crate::ExecPolicy`] is clamped to the per-rank thread budget
/// (`ranks × threads ≤ cores`); virtual-time output is unaffected — the
/// clamp only protects wall-clock throughput.
pub fn run_sweep_in_session<F>(
    session: &mut Session,
    decomp: &apc_grid::DomainDecomp,
    coords: &apc_grid::RectilinearCoords,
    configs: &[PipelineConfig],
    iterations: &[usize],
    blocks: &F,
) -> Vec<Vec<IterationReport>>
where
    F: Fn(usize, usize) -> Vec<apc_grid::Block> + Sync,
{
    assert_eq!(
        session.nranks(),
        decomp.nranks(),
        "session rank count must match the decomposition"
    );
    configs
        .iter()
        .map(|cfg| match cfg.mode {
            InSituMode::Synchronous => {
                let mut config = cfg.clone();
                config.exec = config.exec.clamp_for_ranks(decomp.nranks());
                let mut all: Vec<Vec<IterationReport>> = session.run(|rank| {
                    let mut pipeline = Pipeline::new(config.clone(), *decomp, coords.clone());
                    iterations
                        .iter()
                        .map(|&it| {
                            let input = blocks(it, rank.rank());
                            pipeline.run_iteration(rank, input, it).0
                        })
                        .collect()
                });
                all.swap_remove(0)
            }
            // Staged configs run the dedicated-core executor over the same
            // session and fold into the same report-stream shape (the
            // staged-only observables are available through
            // `crate::staged::run_staged_in_session` directly).
            InSituMode::Staged(_) => {
                let mut config = cfg.clone();
                config.exec = config.exec.clamp_for_ranks(decomp.nranks());
                crate::staged::run_staged_in_session(
                    session, decomp, coords, &config, iterations, blocks,
                )
                .reports()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One configuration in a fresh session on `net`.
    fn run_on(
        dataset: &ReflectivityDataset,
        config: PipelineConfig,
        iterations: &[usize],
        net: NetModel,
    ) -> Vec<IterationReport> {
        let mut session = Runtime::new(dataset.decomp().nranks(), net).session();
        run_sweep_in_session(
            &mut session,
            dataset.decomp(),
            dataset.coords(),
            std::slice::from_ref(&config),
            iterations,
            &|it, rank| dataset.rank_blocks(it, rank),
        )
        .swap_remove(0)
    }

    #[test]
    fn driver_runs_multiple_iterations() {
        let dataset = ReflectivityDataset::tiny(4, 11).unwrap();
        let iters = dataset.sample_iterations(3);
        let reports = run_experiment(&dataset, PipelineConfig::default().deterministic(), &iters);
        assert_eq!(reports.len(), 3);
        for (r, &it) in reports.iter().zip(&iters) {
            assert_eq!(r.iteration, it);
            assert!(r.t_total > 0.0);
        }
    }

    #[test]
    fn sweep_matches_one_shot_per_config() {
        // The sweep engine's core invariant: one session replaying many
        // configs produces exactly what spawn-per-run produces per config.
        let dataset = ReflectivityDataset::tiny(4, 11).unwrap();
        let iters = dataset.sample_iterations(2);
        let configs: Vec<PipelineConfig> = [0.0, 50.0, 100.0]
            .iter()
            .map(|&p| {
                PipelineConfig::default()
                    .deterministic()
                    .with_fixed_percent(p)
            })
            .collect();
        let mut session =
            Runtime::new(dataset.decomp().nranks(), NetModel::blue_waters()).session();
        let swept = run_sweep_in_session(
            &mut session,
            dataset.decomp(),
            dataset.coords(),
            &configs,
            &iters,
            &|it, rank| dataset.rank_blocks(it, rank),
        );
        assert_eq!(swept.len(), configs.len());
        for (cfg, series) in configs.iter().zip(&swept) {
            let one_shot = run_experiment(&dataset, cfg.clone(), &iters);
            assert_eq!(series, &one_shot, "sweep diverged for {cfg:?}");
        }
    }

    #[test]
    fn slow_network_raises_redistribution_cost() {
        let dataset = ReflectivityDataset::tiny(4, 11).unwrap();
        let iters = [300];
        let cfg = PipelineConfig::default()
            .deterministic()
            .with_redistribution(crate::Redistribution::RandomShuffle { seed: 1 });
        let fast = run_on(&dataset, cfg.clone(), &iters, NetModel::blue_waters());
        let slow = run_on(&dataset, cfg, &iters, NetModel::gigabit_ethernet());
        assert!(
            slow[0].t_redistribute > 10.0 * fast[0].t_redistribute,
            "gigabit {} vs gemini {}",
            slow[0].t_redistribute,
            fast[0].t_redistribute
        );
        // Rendering is unaffected by the network (up to the barrier that
        // closes the step, whose latency differs between the two models).
        assert!((slow[0].t_render - fast[0].t_render).abs() < 1e-2);
    }
}
