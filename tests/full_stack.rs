//! Cross-crate integration: the full stack from batch script to bytes
//! on tiers, plus miniature versions of the paper's headline results.

use norns::{HasNorns, NornsWorld, TaskCompletion};
use simcore::{CompletedFlow, FluidModel, FluidSystem, Sim, SimDuration, SimTime};
use simstore::{Cred, IoDir, Mode};
use slurm_sim::{submit_script, HasSlurm, JobBody, JobEvent, JobState, SchedConfig, Slurmctld};
use workloads::prodcons::{run_phase, ProdConsConfig};
use workloads::{register_tiers, BenchWorld};

const GB: u64 = 1_000_000_000;

struct Stack {
    world: NornsWorld,
    ctld: Slurmctld,
    events: Vec<(SimTime, JobEvent)>,
}

impl FluidModel for Stack {
    fn fluid_mut(&mut self) -> &mut FluidSystem {
        &mut self.world.fluid
    }
    fn on_flow_complete(sim: &mut Sim<Self>, done: CompletedFlow) {
        norns::handle_flow_complete(sim, done);
    }
}

impl HasNorns for Stack {
    fn norns_mut(&mut self) -> &mut NornsWorld {
        &mut self.world
    }
    fn on_task_complete(sim: &mut Sim<Self>, completion: TaskCompletion) {
        slurm_sim::handle_task_complete(sim, &completion);
    }
}

impl HasSlurm for Stack {
    fn ctld_mut(&mut self) -> &mut Slurmctld {
        &mut self.ctld
    }
    fn on_job_event(sim: &mut Sim<Self>, event: JobEvent) {
        let now = sim.now();
        // The producer job materializes output at start.
        if let JobEvent::Started { job, nodes } = &event {
            let name = sim.model.ctld.job(*job).unwrap().script.name.clone();
            if name == "producer" {
                let t = sim.model.world.storage.resolve("pmdk0").unwrap();
                sim.model
                    .world
                    .storage
                    .ns_mut(t, Some(nodes[0]))
                    .write_file("wf/data.bin", 10 * GB, &Cred::new(1000, 1000), Mode(0o644))
                    .unwrap();
            }
        }
        sim.model.events.push((now, event));
    }
}

fn stack(nodes: usize) -> Sim<Stack> {
    let tb = cluster::nextgenio_quiet(nodes);
    let ctld = Slurmctld::new(nodes, SchedConfig::default());
    let mut sim = Sim::new(
        Stack {
            world: tb.world,
            ctld,
            events: vec![],
        },
        3,
    );
    register_tiers(&mut sim);
    sim
}

#[test]
fn script_to_bytes_roundtrip() {
    // A producer/consumer workflow expressed purely as batch scripts
    // moves real (simulated) bytes between tiers and nodes.
    let mut sim = stack(3);
    let cred = Cred::new(1000, 1000);
    let producer = submit_script(
        &mut sim,
        "#SBATCH --job-name=producer\n#SBATCH --nodes=1\n#SBATCH --workflow-start\n\
         #NORNS persist store pmdk0://wf alice\n",
        cred.clone(),
        JobBody::Fixed(SimDuration::from_secs(20)),
    )
    .unwrap();
    let consumer = submit_script(
        &mut sim,
        "#SBATCH --job-name=consumer\n#SBATCH --nodes=2\n\
         #SBATCH --workflow-end\n#SBATCH --workflow-prior-dependency=producer\n\
         #NORNS stage_in pmdk0://wf pmdk0://wf all\n\
         #NORNS stage_out pmdk0://wf lustre://final gather\n",
        cred,
        JobBody::Fixed(SimDuration::from_secs(10)),
    )
    .unwrap();
    sim.run();
    let p = sim.model.ctld.job(producer).unwrap();
    let c = sim.model.ctld.job(consumer).unwrap();
    assert_eq!(p.life.state, JobState::Completed);
    assert_eq!(c.life.state, JobState::Completed);
    // The consumer includes the producer's node (affinity) and pulled
    // a copy to its second node.
    assert!(c.nodes.contains(&p.nodes[0]));
    // Final data landed on Lustre via stage-out.
    let t = sim.model.world.storage.resolve("lustre").unwrap();
    assert!(sim.model.world.storage.ns(t, None).exists("final/data.bin"));
    // The workflow ran strictly in order.
    let p_done = p.finished.unwrap();
    let c_start = c.stage_in_started.unwrap();
    assert!(c_start >= p_done);
}

#[test]
fn nvm_workflow_beats_lustre_workflow() {
    // Miniature Table III on the full simulated testbed.
    let cfg = ProdConsConfig {
        data_bytes: 20 * GB,
        files: 20,
        producer_compute: SimDuration::from_secs(9),
        consumer_compute: SimDuration::from_secs(4),
    };
    let tb = cluster::nextgenio_quiet(2);
    let mut sim = Sim::new(BenchWorld::new(tb.world), 1);
    register_tiers(&mut sim);
    let lustre = run_phase(&mut sim, 0, "lustre", &cfg.producer())
        + run_phase(&mut sim, 1, "lustre", &cfg.consumer());
    let nvm = run_phase(&mut sim, 0, "pmdk0", &cfg.producer())
        + run_phase(&mut sim, 0, "pmdk0", &cfg.consumer());
    assert!(
        nvm.as_secs_f64() < lustre.as_secs_f64() * 0.75,
        "NVM workflow must be >25% faster: lustre {lustre}, nvm {nvm}"
    );
}

#[test]
fn node_local_aggregate_scales_but_pfs_does_not() {
    // Miniature Fig. 8.
    let bw = |tier: &str, nodes: usize| {
        let tb = cluster::nextgenio_quiet(nodes);
        let mut sim = Sim::new(BenchWorld::new(tb.world), 2);
        register_tiers(&mut sim);
        let t0 = sim.now();
        let tokens: Vec<u64> = (0..nodes)
            .map(|n| {
                norns::sim::ops::app_io(&mut sim, n, tier, IoDir::Write, 8 * GB, 48, None).unwrap()
            })
            .collect();
        let end = workloads::wait_tokens(&mut sim, &tokens);
        (8 * GB * nodes as u64) as f64 / (end - t0).as_secs_f64()
    };
    let nvm_1 = bw("pmdk0", 1);
    let nvm_8 = bw("pmdk0", 8);
    let pfs_1 = bw("lustre", 1);
    let pfs_8 = bw("lustre", 8);
    assert!((nvm_8 / nvm_1 - 8.0).abs() < 0.2, "NVM scales linearly");
    assert!(pfs_8 / pfs_1 < 4.0, "PFS saturates at the server side");
    assert!(nvm_8 > pfs_8 * 5.0, "order-of-magnitude gap at scale");
}

/// A scratch directory, removed on drop: a run that panics cleans up
/// too. Declared before the daemon it holds, so it drops after it.
struct TempRoot(std::path::PathBuf);

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn wire_protocol_matches_real_daemon_behaviour() {
    // The same TaskSpec shape accepted by the simulated controller is
    // accepted by the real daemon over the wire.
    let scratch =
        TempRoot(std::env::temp_dir().join(format!("norns-fullstack-{}", std::process::id())));
    let root = &scratch.0;
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).unwrap();
    let daemon =
        norns_ipc::UrdDaemon::spawn(norns_ipc::DaemonConfig::in_dir(root.join("s"))).unwrap();
    let mut ctl = norns_ipc::CtlClient::connect(&daemon.control_path).unwrap();
    ctl.register_dataspace(norns_proto::DataspaceDesc {
        nsid: "tmp0".into(),
        kind: norns_proto::BackendKind::Tmpfs,
        mount: root.join("tmp0").to_string_lossy().into_owned(),
        quota: 0,
        tracked: false,
    })
    .unwrap();
    std::fs::create_dir_all(root.join("tmp0")).unwrap();
    std::fs::write(root.join("tmp0/x"), b"payload").unwrap();
    let task = ctl
        .submit(
            0,
            norns_proto::TaskSpec {
                op: norns_proto::TaskOp::Move,
                priority: norns_proto::DEFAULT_PRIORITY,
                input: norns_proto::ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "x".into(),
                },
                output: Some(norns_proto::ResourceDesc::PosixPath {
                    nsid: "tmp0".into(),
                    path: "y".into(),
                }),
                durability: norns_proto::Durability::LocalOnly,
            },
            None,
        )
        .unwrap();
    let stats = ctl.wait(task, 0).unwrap();
    assert_eq!(stats.state, norns_proto::TaskState::Finished);
    assert!(!root.join("tmp0/x").exists());
    assert!(root.join("tmp0/y").exists());
}

#[test]
fn experiment_drivers_produce_paper_shapes() {
    // Tiny versions of the Fig. 5/6 drivers assert the headline shapes.
    let rps_1 = norns_bench_shapes::request_rate_small(1);
    let rps_8 = norns_bench_shapes::request_rate_small(8);
    let rps_32 = norns_bench_shapes::request_rate_small(32);
    assert!(
        rps_8 > rps_1 * 2.0,
        "throughput grows with clients: {rps_1} → {rps_8}"
    );
    assert!(
        rps_32 < rps_8 * 4.0,
        "single accept thread saturates: {rps_8} → {rps_32}"
    );
}

/// The bench crate is a binary-focused crate; rebuild the small shape
/// checks here against the public API to keep the root test
/// self-contained.
mod norns_bench_shapes {
    use norns::sim::ops;
    use norns::{JobId, JobSpec, RpcRequest};
    use simcore::Sim;
    use simstore::Cred;
    use workloads::{register_tiers, BenchWorld};

    pub fn request_rate_small(clients: usize) -> f64 {
        let tb = cluster::bandwidth_bench(clients);
        let mut sim = Sim::new(BenchWorld::new(tb.world), 9);
        register_tiers(&mut sim);
        ops::register_job(
            &mut sim,
            JobSpec {
                id: JobId(1),
                hosts: (0..clients + 1).collect(),
                limits: vec![("pmdk0".into(), 0)],
                cred: Cred::new(1, 1),
            },
        )
        .unwrap();
        let per_client = 300;
        let mut sent = vec![0usize; clients + 1];
        #[allow(clippy::needless_range_loop)]
        for c in 1..=clients {
            let tok = ((c as u64) << 32) | sent[c] as u64;
            ops::rpc_call(&mut sim, c, 0, RpcRequest::Ping, tok);
            sent[c] += 1;
        }
        let total = clients * per_client;
        let mut seen = 0;
        let mut cursor = 0;
        let mut last = simcore::SimTime::ZERO;
        while seen < total {
            assert!(sim.step());
            while cursor < sim.model.reply_times.len() {
                let (tok, at) = sim.model.reply_times[cursor];
                cursor += 1;
                seen += 1;
                last = last.max(at);
                let c = (tok >> 32) as usize;
                if sent[c] < per_client {
                    let tok = ((c as u64) << 32) | sent[c] as u64;
                    ops::rpc_call(&mut sim, c, 0, RpcRequest::Ping, tok);
                    sent[c] += 1;
                }
            }
        }
        let secs = last.as_secs_f64();
        total as f64 / secs
    }
}
