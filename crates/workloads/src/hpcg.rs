//! HPCG-like memory-bound compute model.
//!
//! The paper (§V-D): "The conjugate gradients algorithm used in the
//! benchmark is not just floating point performance limited, it is
//! also heavily reliant on the performance of the memory system". We
//! model an HPCG rank set per node as a sustained memory-bandwidth
//! consumer: the kernel must move a fixed volume of memory traffic;
//! when staging shares the node's memory controller the kernel
//! stretches — reproducing the ≈15% Table IV slowdown.

use norns::sim::ops;
use simcore::{Sim, SimDuration, SimTime};

use crate::world::{wait_tokens, BenchWorld};

#[derive(Debug, Clone)]
pub struct HpcgConfig {
    /// Memory-traffic demand of the 48 ranks on one node, bytes/s.
    /// Slightly below the node's DRAM bandwidth so HPCG alone is
    /// memory-bound but unconstrained.
    pub mem_demand_bps: f64,
    /// Baseline runtime of the test case on an idle node.
    pub base_runtime: SimDuration,
}

impl HpcgConfig {
    /// The paper's small test case: ≈122 s with 48 MPI processes.
    pub fn paper_test_case() -> Self {
        HpcgConfig {
            mem_demand_bps: simcore::units::gib_per_s(11.8),
            base_runtime: SimDuration::from_secs(122),
        }
    }

    /// Total memory traffic implied by (demand × base runtime).
    pub fn total_traffic(&self) -> u64 {
        (self.mem_demand_bps * self.base_runtime.as_secs_f64()) as u64
    }
}

#[derive(Debug, Clone, Copy)]
pub struct HpcgResult {
    pub started: SimTime,
    pub finished: SimTime,
}

impl HpcgResult {
    pub fn runtime(&self) -> SimDuration {
        self.finished - self.started
    }
}

/// Start HPCG on the given nodes; returns the app tokens (one per
/// node). Use [`finish`] or `wait_tokens` to collect the runtime.
pub fn start(sim: &mut Sim<BenchWorld>, nodes: &[usize], cfg: &HpcgConfig) -> Vec<u64> {
    nodes
        .iter()
        .map(|&n| {
            ops::app_mem_io(sim, n, cfg.total_traffic(), cfg.mem_demand_bps)
                .expect("mem flow submission")
        })
        .collect()
}

/// Block until all HPCG ranks finish.
pub fn finish(sim: &mut Sim<BenchWorld>, started: SimTime, tokens: &[u64]) -> HpcgResult {
    let finished = wait_tokens(sim, tokens);
    HpcgResult { started, finished }
}

/// Convenience: run HPCG alone to completion.
pub fn run(sim: &mut Sim<BenchWorld>, nodes: &[usize], cfg: &HpcgConfig) -> HpcgResult {
    let started = sim.now();
    let tokens = start(sim, nodes, cfg);
    finish(sim, started, &tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::register_tiers;
    use norns::{ApiSource, JobId, JobSpec, ResourceDesc, TaskSpec};
    use simstore::{Cred, Mode};

    fn world() -> Sim<BenchWorld> {
        let tb = cluster::nextgenio_quiet(2);
        let mut sim = Sim::new(BenchWorld::new(tb.world), 11);
        register_tiers(&mut sim);
        norns::sim::ops::register_job(
            &mut sim,
            JobSpec {
                id: JobId(1),
                hosts: vec![0, 1],
                limits: vec![("pmdk0".into(), 0), ("lustre".into(), 0)],
                cred: Cred::new(1000, 1000),
            },
        )
        .unwrap();
        sim
    }

    #[test]
    fn baseline_runtime_matches_configuration() {
        let mut sim = world();
        let cfg = HpcgConfig::paper_test_case();
        let res = run(&mut sim, &[0], &cfg);
        let secs = res.runtime().as_secs_f64();
        assert!((secs - 122.0).abs() < 1.0, "idle runtime {secs}");
    }

    #[test]
    fn colocated_staging_slows_hpcg_by_about_fifteen_percent() {
        let mut sim = world();
        let cfg = HpcgConfig::paper_test_case();
        // Produce data to stage out while HPCG runs (100 GB on NVM).
        {
            let t = sim.model.world.storage.resolve("pmdk0").unwrap();
            sim.model
                .world
                .storage
                .ns_mut(t, Some(0))
                .write_file(
                    "out/data.bin",
                    100 * simcore::units::GB,
                    &Cred::new(1000, 1000),
                    Mode(0o644),
                )
                .unwrap();
        }
        let started = sim.now();
        let tokens = start(&mut sim, &[0], &cfg);
        // Kick off the stage-out through NORNS on the same node.
        norns::sim::ops::submit_task(
            &mut sim,
            0,
            JobId(1),
            ApiSource::Control,
            TaskSpec::mv(
                ResourceDesc::posix("pmdk0", "out/data.bin"),
                ResourceDesc::posix("lustre", "archive/data.bin"),
            ),
            0,
        )
        .unwrap();
        let res = finish(&mut sim, started, &tokens);
        let secs = res.runtime().as_secs_f64();
        // Staging ≈100 GB at ≈2.3 GiB/s ≈ 40 s of contention; HPCG
        // loses (11 - (12-2.4)) ≈ 1.4 GiB/s while it lasts → a
        // noticeable but bounded stretch (paper: ≈15%).
        assert!(secs > 125.0, "staging must slow HPCG: {secs}");
        assert!(secs < 160.0, "slowdown should stay bounded: {secs}");
    }

    #[test]
    fn per_node_kernels_are_independent() {
        let mut sim = world();
        let cfg = HpcgConfig::paper_test_case();
        let res = run(&mut sim, &[0, 1], &cfg);
        let secs = res.runtime().as_secs_f64();
        assert!(
            (secs - 122.0).abs() < 1.0,
            "two idle nodes run at full speed: {secs}"
        );
    }
}
