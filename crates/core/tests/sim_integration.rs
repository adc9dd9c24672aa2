//! End-to-end tests of the simulated NORNS deployment: a 4-node
//! cluster with node-local DCPMM and a Lustre-like PFS, exercising
//! every transfer plugin, validation failures, quotas, tracked
//! dataspaces and the RPC control plane.

use norns::sim::ops;
use norns::sim::{handle_flow_complete, HasNorns, NornsWorld, RpcReply, RpcRequest, WorldConfig};
use norns::{
    ApiSource, JobId, JobSpec, NornsError, ResourceDesc, TaskCompletion, TaskSpec, TaskState,
};
use simcore::{CompletedFlow, FluidModel, FluidSystem, Sim, SimTime};
use simnet::FabricParams;
use simstore::{Cred, IoDir, LocalParams, Mode, PfsParams, TierKind};

const GIB: u64 = 1 << 30;

struct TestModel {
    world: NornsWorld,
    completions: Vec<TaskCompletion>,
    app_done: Vec<(u64, SimTime)>,
    replies: Vec<(RpcReply, SimTime)>,
}

impl FluidModel for TestModel {
    fn fluid_mut(&mut self) -> &mut FluidSystem {
        &mut self.world.fluid
    }
    fn on_flow_complete(sim: &mut Sim<Self>, done: CompletedFlow) {
        handle_flow_complete(sim, done);
    }
}

impl HasNorns for TestModel {
    fn norns_mut(&mut self) -> &mut NornsWorld {
        &mut self.world
    }
    fn on_task_complete(sim: &mut Sim<Self>, completion: TaskCompletion) {
        sim.model.completions.push(completion);
    }
    fn on_app_io_complete(sim: &mut Sim<Self>, token: u64) {
        let now = sim.now();
        sim.model.app_done.push((token, now));
    }
    fn on_rpc_reply(sim: &mut Sim<Self>, reply: RpcReply) {
        let now = sim.now();
        sim.model.replies.push((reply, now));
    }
}

/// Build a 4-node testbed: per-node DCPMM (`pmdk0`) + shared Lustre
/// (`lustre`, interference off for determinism).
fn testbed() -> Sim<TestModel> {
    let nodes = 4;
    let mut world = NornsWorld::new(
        nodes,
        FabricParams::omni_path_tcp(nodes),
        WorldConfig::default(),
    );
    let mut pfs_params = PfsParams::nextgenio_lustre();
    pfs_params.interference = simstore::Interference::Off;
    world.storage.add_pfs(
        &mut world.fluid.net,
        "lustre",
        nodes,
        pfs_params,
        500 * simcore::units::TB,
    );
    world.storage.add_local_class(
        &mut world.fluid.net,
        "pmdk0",
        nodes,
        LocalParams::dcpmm(),
        TierKind::NodeLocalNvm,
    );
    let model = TestModel {
        world,
        completions: Vec::new(),
        app_done: Vec::new(),
        replies: Vec::new(),
    };
    let mut sim = Sim::new(model, 42);
    // Register dataspaces on every node and one job spanning them.
    for n in 0..nodes {
        ops::register_dataspace(&mut sim, n, "pmdk0", "pmdk0", false).unwrap();
        ops::register_dataspace(&mut sim, n, "lustre", "lustre", false).unwrap();
    }
    ops::register_job(
        &mut sim,
        JobSpec {
            id: JobId(1),
            hosts: (0..nodes).collect(),
            limits: vec![("pmdk0".into(), 0), ("lustre".into(), 0)],
            cred: Cred::new(1000, 1000),
        },
    )
    .unwrap();
    sim
}

fn cred() -> Cred {
    Cred::new(1000, 1000)
}

/// Create a file on a tier namespace directly (test fixture).
fn put_file(sim: &mut Sim<TestModel>, tier: &str, node: Option<usize>, path: &str, bytes: u64) {
    let t = ops::tier(sim, tier).unwrap();
    sim.model
        .world
        .storage
        .ns_mut(t, node)
        .write_file(path, bytes, &cred(), Mode(0o644))
        .unwrap();
}

fn file_exists(sim: &mut Sim<TestModel>, tier: &str, node: Option<usize>, path: &str) -> bool {
    let t = ops::tier(sim, tier).unwrap();
    sim.model.world.storage.ns(t, node).exists(path)
}

/// `nsid://path` on `node`, named by the world's host table.
fn remote(sim: &Sim<TestModel>, node: usize, nsid: &str, path: &str) -> ResourceDesc {
    ResourceDesc::remote(sim.model.world.host(node), nsid, path)
}

#[test]
fn every_world_gives_its_nodes_distinct_names() {
    for nodes in [1, 2, 4, 16] {
        let world = NornsWorld::new(
            nodes,
            FabricParams::omni_path_tcp(nodes),
            WorldConfig::default(),
        );
        let names: Vec<&str> = (0..nodes).map(|n| world.host(n)).collect();
        for (n, name) in names.iter().enumerate() {
            assert_eq!(*name, format!("node{n}"));
            assert_eq!(world.node_of(name).unwrap(), n);
            assert!(!names[..n].contains(name), "{name} named twice");
        }
    }
}

#[test]
fn a_remote_path_naming_node_i_resolves_to_node_i() {
    let mut sim = testbed();
    for node in 1..4 {
        // The file exists on `node` alone: only it can serve the pull.
        let path = format!("only/on{node}.bin");
        put_file(&mut sim, "pmdk0", Some(node), &path, 1 << 20);
        let spec = TaskSpec::copy(
            remote(&sim, node, "pmdk0", &path),
            ResourceDesc::posix("pmdk0", format!("pulled{node}.bin")),
        );
        ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 0).unwrap();
    }
    sim.run();
    assert_eq!(sim.model.completions.len(), 3);
    for c in &sim.model.completions {
        assert_eq!(c.state, TaskState::Finished, "err: {:?}", c.error);
    }
    for node in 1..4 {
        assert!(file_exists(
            &mut sim,
            "pmdk0",
            Some(0),
            &format!("pulled{node}.bin")
        ));
    }
}

#[test]
fn a_host_past_the_last_node_is_refused() {
    let mut sim = testbed();
    assert!(matches!(
        sim.model.world.node_of("node4"),
        Err(NornsError::BadArgs(_))
    ));
    put_file(&mut sim, "pmdk0", Some(0), "out.bin", 1 << 20);
    for host in ["node4", "nodeb"] {
        let spec = TaskSpec::copy(
            ResourceDesc::posix("pmdk0", "out.bin"),
            ResourceDesc::remote(host, "pmdk0", "out.bin"),
        );
        ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 0).unwrap();
    }
    sim.run();
    assert_eq!(sim.model.completions.len(), 2);
    for c in &sim.model.completions {
        assert_eq!(c.state, TaskState::FinishedWithError);
        assert!(
            matches!(&c.error, Some(NornsError::BadArgs(why)) if why.starts_with("no such node")),
            "{:?}",
            c.error
        );
    }
}

#[test]
fn memory_to_local_completes_and_creates_file() {
    let mut sim = testbed();
    let spec = TaskSpec::copy(
        ResourceDesc::MemoryRegion { addr: 0, size: GIB },
        ResourceDesc::posix("pmdk0", "ckpt/buf0"),
    );
    let id = ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 7).unwrap();
    sim.run();
    assert_eq!(sim.model.completions.len(), 1);
    let c = sim.model.completions[0].clone();
    assert_eq!(c.task, id);
    assert_eq!(c.tag, 7);
    assert_eq!(c.state, TaskState::Finished);
    assert_eq!(c.stats.bytes_moved, GIB);
    assert!(file_exists(&mut sim, "pmdk0", Some(0), "ckpt/buf0"));
    // 1 GiB over min(ram 12, nvm write 5 GiB/s) ≈ 0.2 s.
    let elapsed = c.stats.elapsed().unwrap().as_secs_f64();
    assert!((elapsed - 0.2).abs() < 0.05, "elapsed {elapsed}");
}

#[test]
fn stage_in_from_lustre_to_nvm_is_client_limited() {
    let mut sim = testbed();
    put_file(&mut sim, "lustre", None, "input/mesh.dat", 2 * GIB);
    let spec = TaskSpec::copy(
        ResourceDesc::posix("lustre", "input/mesh.dat"),
        ResourceDesc::posix("pmdk0", "input/mesh.dat"),
    );
    ops::submit_task(&mut sim, 2, JobId(1), ApiSource::Control, spec, 0).unwrap();
    sim.run();
    let c = sim.model.completions[0].clone();
    assert_eq!(c.state, TaskState::Finished);
    assert!(file_exists(&mut sim, "pmdk0", Some(2), "input/mesh.dat"));
    // Bottleneck: PFS client lane 2.4 GiB/s → 2 GiB ≈ 0.833 s.
    let elapsed = c.stats.elapsed().unwrap().as_secs_f64();
    assert!((elapsed - 0.833).abs() < 0.1, "elapsed {elapsed}");
}

#[test]
fn local_to_remote_is_session_capped() {
    let mut sim = testbed();
    put_file(&mut sim, "pmdk0", Some(0), "out/result.dat", 2 * GIB);
    let spec = TaskSpec::copy(
        ResourceDesc::posix("pmdk0", "out/result.dat"),
        remote(&sim, 3, "pmdk0", "in/result.dat"),
    );
    ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 0).unwrap();
    sim.run();
    let c = sim.model.completions[0].clone();
    assert_eq!(c.state, TaskState::Finished, "err: {:?}", c.error);
    assert!(file_exists(&mut sim, "pmdk0", Some(3), "in/result.dat"));
    // ofi+tcp push session cap 1.8 GiB/s → 2 GiB ≈ 1.11 s.
    let elapsed = c.stats.elapsed().unwrap().as_secs_f64();
    assert!((elapsed - 1.111).abs() < 0.1, "elapsed {elapsed}");
}

#[test]
fn remote_to_local_pull_works() {
    let mut sim = testbed();
    put_file(&mut sim, "pmdk0", Some(1), "data/a.bin", GIB);
    let spec = TaskSpec::copy(
        remote(&sim, 1, "pmdk0", "data/a.bin"),
        ResourceDesc::posix("pmdk0", "data/a.bin"),
    );
    ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 0).unwrap();
    sim.run();
    let c = sim.model.completions[0].clone();
    assert_eq!(c.state, TaskState::Finished, "err: {:?}", c.error);
    assert!(file_exists(&mut sim, "pmdk0", Some(0), "data/a.bin"));
    // Pull session cap 1.7 GiB/s → 1 GiB ≈ 0.588 s.
    let elapsed = c.stats.elapsed().unwrap().as_secs_f64();
    assert!((elapsed - 0.588).abs() < 0.1, "elapsed {elapsed}");
}

#[test]
fn memory_to_remote_stages_through_tmp() {
    let mut sim = testbed();
    let spec = TaskSpec::copy(
        ResourceDesc::MemoryRegion { addr: 0, size: GIB },
        remote(&sim, 2, "pmdk0", "ckpt/remote0"),
    );
    ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 0).unwrap();
    sim.run();
    let c = sim.model.completions[0].clone();
    assert_eq!(c.state, TaskState::Finished, "err: {:?}", c.error);
    assert!(file_exists(&mut sim, "pmdk0", Some(2), "ckpt/remote0"));
    // Two legs: local memcpy (12 GiB/s ÷ 2 for src+tmp on same ram
    // lane ⇒ 6 GiB/s ≈ 0.167 s) then push at 1.8 GiB/s ≈ 0.556 s.
    // Total bytes counted = 2 GiB (both legs move the buffer).
    assert_eq!(c.stats.bytes_moved, 2 * GIB);
    let elapsed = c.stats.elapsed().unwrap().as_secs_f64();
    assert!((0.6..0.85).contains(&elapsed), "elapsed {elapsed}");
}

#[test]
fn remote_to_memory_pull() {
    let mut sim = testbed();
    put_file(&mut sim, "pmdk0", Some(3), "shared/table.bin", GIB / 2);
    let spec = TaskSpec::copy(
        remote(&sim, 3, "pmdk0", "shared/table.bin"),
        ResourceDesc::MemoryRegion {
            addr: 0,
            size: GIB / 2,
        },
    );
    ops::submit_task(&mut sim, 1, JobId(1), ApiSource::Control, spec, 0).unwrap();
    sim.run();
    let c = sim.model.completions[0].clone();
    assert_eq!(c.state, TaskState::Finished, "err: {:?}", c.error);
    assert_eq!(c.stats.bytes_moved, GIB / 2);
}

#[test]
fn move_deletes_the_source() {
    let mut sim = testbed();
    put_file(&mut sim, "pmdk0", Some(0), "out/final.h5", GIB);
    let spec = TaskSpec::mv(
        ResourceDesc::posix("pmdk0", "out/final.h5"),
        ResourceDesc::posix("lustre", "results/final.h5"),
    );
    ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 0).unwrap();
    sim.run();
    assert_eq!(sim.model.completions[0].state, TaskState::Finished);
    assert!(file_exists(&mut sim, "lustre", None, "results/final.h5"));
    assert!(!file_exists(&mut sim, "pmdk0", Some(0), "out/final.h5"));
}

#[test]
fn remove_task_deletes_tree() {
    let mut sim = testbed();
    put_file(&mut sim, "pmdk0", Some(0), "scratch/a", 100);
    put_file(&mut sim, "pmdk0", Some(0), "scratch/b", 200);
    let spec = TaskSpec::remove(ResourceDesc::posix("pmdk0", "scratch"));
    ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 0).unwrap();
    sim.run();
    assert_eq!(sim.model.completions[0].state, TaskState::Finished);
    assert!(!file_exists(&mut sim, "pmdk0", Some(0), "scratch"));
}

#[test]
fn directory_copy_mirrors_tree() {
    let mut sim = testbed();
    put_file(&mut sim, "pmdk0", Some(0), "case/processor0/U", GIB / 4);
    put_file(&mut sim, "pmdk0", Some(0), "case/processor1/U", GIB / 4);
    let spec = TaskSpec::copy(
        ResourceDesc::posix("pmdk0", "case"),
        ResourceDesc::posix("lustre", "archive/case"),
    );
    ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 0).unwrap();
    sim.run();
    assert_eq!(sim.model.completions[0].state, TaskState::Finished);
    assert!(file_exists(
        &mut sim,
        "lustre",
        None,
        "archive/case/processor0/U"
    ));
    assert!(file_exists(
        &mut sim,
        "lustre",
        None,
        "archive/case/processor1/U"
    ));
}

#[test]
fn missing_source_fails_task_not_submission() {
    let mut sim = testbed();
    let spec = TaskSpec::copy(
        ResourceDesc::posix("pmdk0", "ghost.dat"),
        ResourceDesc::posix("lustre", "x"),
    );
    let id = ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 0);
    assert!(
        id.is_ok(),
        "submission succeeds; failure surfaces at execution"
    );
    sim.run();
    let c = sim.model.completions[0].clone();
    assert_eq!(c.state, TaskState::FinishedWithError);
    assert!(matches!(c.error, Some(NornsError::NotFound(_))));
}

#[test]
fn unregistered_job_is_rejected_at_submission() {
    let mut sim = testbed();
    let spec = TaskSpec::copy(
        ResourceDesc::MemoryRegion { addr: 0, size: 10 },
        ResourceDesc::posix("pmdk0", "x"),
    );
    let err = ops::submit_task(&mut sim, 0, JobId(99), ApiSource::Control, spec, 0);
    assert!(matches!(err, Err(NornsError::NoSuchJob(99))));
}

#[test]
fn user_api_requires_registered_process() {
    let mut sim = testbed();
    let spec = TaskSpec::copy(
        ResourceDesc::MemoryRegion { addr: 0, size: 10 },
        ResourceDesc::posix("pmdk0", "x"),
    );
    let err = ops::submit_task(
        &mut sim,
        0,
        JobId(1),
        ApiSource::User { pid: 1234 },
        spec.clone(),
        0,
    );
    assert!(matches!(err, Err(NornsError::NoSuchProcess { .. })));
    ops::add_process(&mut sim, 0, JobId(1), 1234, cred()).unwrap();
    assert!(ops::submit_task(
        &mut sim,
        0,
        JobId(1),
        ApiSource::User { pid: 1234 },
        spec,
        0
    )
    .is_ok());
}

#[test]
fn quota_enforced_at_plan_time() {
    let mut sim = testbed();
    // Re-register the job with a 1 GiB pmdk0 quota.
    let nodes: Vec<usize> = (0..4).collect();
    ops::update_job(
        &mut sim,
        JobSpec {
            id: JobId(1),
            hosts: nodes,
            limits: vec![("pmdk0".into(), GIB), ("lustre".into(), 0)],
            cred: cred(),
        },
    )
    .unwrap();
    let ok = TaskSpec::copy(
        ResourceDesc::MemoryRegion {
            addr: 0,
            size: GIB / 2,
        },
        ResourceDesc::posix("pmdk0", "a"),
    );
    ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, ok, 0).unwrap();
    sim.run();
    assert_eq!(sim.model.completions[0].state, TaskState::Finished);
    // Second transfer exceeds the quota.
    let too_big = TaskSpec::copy(
        ResourceDesc::MemoryRegion { addr: 0, size: GIB },
        ResourceDesc::posix("pmdk0", "b"),
    );
    ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, too_big, 0).unwrap();
    sim.run();
    let c = sim.model.completions[1].clone();
    assert_eq!(c.state, TaskState::FinishedWithError);
    assert!(matches!(c.error, Some(NornsError::QuotaExceeded { .. })));
    assert!(!file_exists(&mut sim, "pmdk0", Some(0), "b"));
}

#[test]
fn tracked_dataspace_reports_leftover_data() {
    let mut sim = testbed();
    ops::unregister_dataspace(&mut sim, 0, "pmdk0").unwrap();
    ops::register_dataspace(&mut sim, 0, "pmdk0", "pmdk0", true).unwrap();
    put_file(&mut sim, "pmdk0", Some(0), "leftover.dat", 123);
    let leftovers = ops::unregister_job(&mut sim, JobId(1), &[0, 1]).unwrap();
    assert_eq!(leftovers.len(), 1);
    assert_eq!(leftovers[0].0, 0);
    assert_eq!(leftovers[0].1, vec!["pmdk0".to_string()]);
}

#[test]
fn fcfs_serializes_beyond_worker_count() {
    let mut sim = testbed();
    // Default 4 workers; submit 6 equal tasks on one node and check
    // the last two queue behind the first four.
    for i in 0..6 {
        let spec = TaskSpec::copy(
            ResourceDesc::MemoryRegion { addr: 0, size: GIB },
            ResourceDesc::posix("pmdk0", format!("f{i}")),
        );
        ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, i).unwrap();
    }
    sim.run();
    assert_eq!(sim.model.completions.len(), 6);
    let mut waits: Vec<f64> = sim
        .model
        .completions
        .iter()
        .map(|c| c.stats.queue_wait().unwrap().as_secs_f64())
        .collect();
    waits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(waits[3] < 0.001, "first four start immediately");
    assert!(waits[4] > 0.1, "fifth waits for a worker");
}

#[test]
fn daemon_pause_rejects_submissions() {
    let mut sim = testbed();
    ops::set_accepting(&mut sim, 0, false);
    let spec = TaskSpec::copy(
        ResourceDesc::MemoryRegion { addr: 0, size: 10 },
        ResourceDesc::posix("pmdk0", "x"),
    );
    assert!(matches!(
        ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec.clone(), 0),
        Err(NornsError::NotAccepting)
    ));
    ops::set_accepting(&mut sim, 0, true);
    assert!(ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 0).is_ok());
}

#[test]
fn rpc_ping_round_trips_with_latency() {
    let mut sim = testbed();
    ops::rpc_call(&mut sim, 0, 3, RpcRequest::Ping, 77);
    sim.run();
    assert_eq!(sim.model.replies.len(), 1);
    let (reply, at) = &sim.model.replies[0];
    assert_eq!(reply.token, 77);
    assert_eq!(reply.from, 3);
    assert!(matches!(reply.outcome, norns::RpcOutcome::Pong));
    // Two one-way ofi+tcp hops (~40 µs each) plus service time.
    let us = at.as_micros_f64();
    assert!((60.0..400.0).contains(&us), "rpc rtt {us} µs");
}

#[test]
fn rpc_submit_runs_task_on_remote_node() {
    let mut sim = testbed();
    put_file(&mut sim, "pmdk0", Some(2), "data.bin", GIB / 4);
    let spec = TaskSpec::copy(
        ResourceDesc::posix("pmdk0", "data.bin"),
        ResourceDesc::posix("lustre", "data.bin"),
    );
    ops::rpc_call(
        &mut sim,
        0,
        2,
        RpcRequest::Submit {
            job: JobId(1),
            spec,
            tag: 5,
        },
        1,
    );
    sim.run();
    assert!(matches!(
        sim.model.replies[0].0.outcome,
        norns::RpcOutcome::Submitted(_)
    ));
    assert_eq!(sim.model.completions.len(), 1);
    assert_eq!(sim.model.completions[0].node, 2);
    assert_eq!(sim.model.completions[0].tag, 5);
    assert!(file_exists(&mut sim, "lustre", None, "data.bin"));
}

#[test]
fn app_io_reports_completion_token() {
    let mut sim = testbed();
    let token = ops::app_io(&mut sim, 1, "pmdk0", IoDir::Write, GIB, 48, None).unwrap();
    sim.run();
    assert_eq!(sim.model.app_done.len(), 1);
    assert_eq!(sim.model.app_done[0].0, token);
    // 1 GiB at 5 GiB/s NVM write ≈ 0.2 s.
    let t = sim.model.app_done[0].1.as_secs_f64();
    assert!((t - 0.2).abs() < 0.05, "app io took {t}");
}

#[test]
fn eta_tracking_learns_rates() {
    let mut sim = testbed();
    for i in 0..3 {
        let spec = TaskSpec::copy(
            ResourceDesc::MemoryRegion { addr: 0, size: GIB },
            ResourceDesc::posix("pmdk0", format!("w{i}")),
        );
        ops::submit_task(&mut sim, 0, JobId(1), ApiSource::Control, spec, 0).unwrap();
        sim.run();
    }
    // The estimator has now seen MemoryToLocal at ≈ 4.4-5 GiB/s (ram
    // and nvm write share). Predictions should be near observed rates.
    let urd = sim.model.world.urd(0);
    let rate = urd.eta.rate(norns::PluginKind::MemoryToLocal);
    let gib = simcore::units::GIB as f64;
    assert!(
        rate > 3.0 * gib && rate < 7.0 * gib,
        "learned rate {}",
        rate / gib
    );
    // drain_eta with nothing running is "now".
    let now = sim.now();
    assert_eq!(urd.drain_eta(now), now);
}

#[test]
fn concurrent_stage_ins_contend_on_the_pfs() {
    let mut sim = testbed();
    for node in 0..4 {
        put_file(&mut sim, "lustre", None, &format!("in/f{node}"), GIB);
    }
    for node in 0..4 {
        let spec = TaskSpec::copy(
            ResourceDesc::posix("lustre", format!("in/f{node}")),
            ResourceDesc::posix("pmdk0", "staged.dat"),
        );
        ops::submit_task(
            &mut sim,
            node,
            JobId(1),
            ApiSource::Control,
            spec,
            node as u64,
        )
        .unwrap();
    }
    sim.run();
    assert_eq!(sim.model.completions.len(), 4);
    // Aggregate demand 4×2.4 GiB/s client lanes = 9.6 exceeds the OST
    // read aggregate min(6×1.1, ingress 7) = 6.6 GiB/s → each client
    // gets ≈1.65 GiB/s, so 1 GiB takes ≈0.6 s (vs 0.42 s alone).
    for c in &sim.model.completions {
        let e = c.stats.elapsed().unwrap().as_secs_f64();
        assert!((0.5..0.8).contains(&e), "contended stage-in took {e}");
    }
}
