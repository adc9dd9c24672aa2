//! Builds executable transfer plans from validated task specs.
//!
//! A plan is a sequence of [`PlannedLeg`]s; each leg carries a fixed
//! latency (RPC round trips, `fallocate`/`mmap` setup, MDS metadata
//! costs) followed by a set of fluid flows whose resource paths splice
//! together the source tier lanes, the fabric (with the protocol's
//! per-session cap) and the destination tier lanes — exactly the
//! resources the corresponding Table II plugin would exercise.

use std::collections::VecDeque;

use simcore::{ResourceId, Sim, SimDuration};
use simnet::{Direction, NodeId};
use simstore::{Cred, IoDir, IoShard, TierRef};

use crate::error::{NornsError, Result};
use crate::plugins::PluginKind;
use crate::resource::ResourceRef;
use crate::sim::urd::PlannedLeg;
use crate::sim::{HasNorns, NornsWorld};
use crate::task::{JobId, TaskId, TaskOp};

/// A resolved path-based task side.
#[derive(Debug, Clone)]
pub(crate) struct Side {
    pub tier: TierRef,
    pub node: NodeId,
    pub nsid: String,
    pub path: String,
}

/// Resolve a path resource to its tier + data node, validating that
/// the dataspace is registered on the node that holds the data.
pub(crate) fn resolve_side(
    world: &NornsWorld,
    handling_node: NodeId,
    r: &ResourceRef,
) -> Result<Side> {
    let (node, nsid, path) = match r {
        ResourceRef::Memory { .. } => return Err(NornsError::BadArgs("memory has no tier".into())),
        ResourceRef::Local { nsid, path } => (handling_node, nsid, path),
        ResourceRef::Remote { node, .. } if *node >= world.nodes() => {
            return Err(NornsError::BadArgs(format!("no such node: {node}")))
        }
        ResourceRef::Remote { node, nsid, path } => (*node, nsid, path),
    };
    let tier = world.urds[node].controller.dataspace(nsid)?.tier;
    Ok(Side {
        tier,
        node,
        nsid: nsid.clone(),
        path: path.clone(),
    })
}

/// The namespace node argument for a tier (`Some(node)` iff the tier
/// is node-local).
pub(crate) fn ns_node(world: &NornsWorld, tier: TierRef, node: NodeId) -> Option<usize> {
    if world.storage.kind(tier).is_node_local() {
        Some(node)
    } else {
        None
    }
}

/// Total bytes + file count under a task's input side, where the
/// simulator learns whether it is a directory `plugin` must carry.
pub(crate) fn side_bytes(
    world: &NornsWorld,
    side: &Side,
    cred: &Cred,
    plugin: PluginKind,
) -> Result<(u64, u64)> {
    let ns = world
        .storage
        .ns(side.tier, ns_node(world, side.tier, side.node));
    let files = ns.walk_files(&side.path, cred)?;
    // A file walks to one entry with an empty relative path.
    if !matches!(files.as_slice(), [(rel, _)] if rel.is_empty()) {
        plugin.carries_directory()?;
    }
    let bytes = files.iter().map(|(_, s)| *s).sum();
    Ok((bytes, files.len() as u64))
}

/// Output of plan building.
pub(crate) struct BuiltPlan {
    pub legs: VecDeque<PlannedLeg>,
    pub total_bytes: u64,
    /// Quota charged at plan time: (node, nsid, bytes) — released if
    /// the task later fails.
    pub charged: Option<(NodeId, String, u64)>,
}

fn memory_shard(world: &NornsWorld, node: NodeId, bytes: u64) -> IoShard {
    IoShard {
        path: vec![world.ram_resource(node)],
        bytes,
    }
}

/// Append the node's memory-controller resource to tier-side shards:
/// staging traffic crosses DRAM once per node (page cache / memcpy),
/// which is what makes co-located applications feel staging (the
/// paper's Table IV HPCG experiment).
fn with_ram(world: &NornsWorld, node: NodeId, mut shards: Vec<IoShard>) -> Vec<IoShard> {
    let ram = world.ram_resource(node);
    for s in &mut shards {
        s.path.push(ram);
    }
    shards
}

/// Splice source shards, fabric path and destination shards into
/// concrete flows. The side with more shards drives the byte split.
fn compose(src: &[IoShard], fabric: &[ResourceId], dst: &[IoShard]) -> Vec<(Vec<ResourceId>, u64)> {
    assert!(!src.is_empty() && !dst.is_empty());
    let splice = |s: &IoShard, d: &IoShard, bytes: u64| {
        let mut path = Vec::with_capacity(s.path.len() + fabric.len() + d.path.len());
        path.extend_from_slice(&s.path);
        path.extend_from_slice(fabric);
        path.extend_from_slice(&d.path);
        (path, bytes)
    };
    if src.len() >= dst.len() {
        src.iter()
            .enumerate()
            .map(|(i, s)| splice(s, &dst[i % dst.len()], s.bytes))
            .collect()
    } else {
        dst.iter()
            .enumerate()
            .map(|(i, d)| splice(&src[i % src.len()], d, d.bytes))
            .collect()
    }
}

/// Build the plan for a dispatched task. Must run *before* any state
/// transition so failures can mark the task as errored cleanly.
pub(crate) fn build<M: HasNorns>(
    sim: &mut Sim<M>,
    node: NodeId,
    task: TaskId,
) -> Result<BuiltPlan> {
    // Snapshot what we need from the record first.
    let (spec, cred, plugin, job) = {
        let rec = sim.model.norns_mut().urds[node]
            .task(task)
            .expect("planning unknown task");
        (rec.spec.clone(), rec.cred.clone(), rec.plugin, rec.job)
    };

    // Sample RPC latency up-front (needs &mut rng, disjoint from world).
    let timing = sim.model.norns_mut().rpc_timing;
    let rpc_rt = timing.round_trip(160, 64, sim.rng());

    let world = sim.model.norns_mut();
    match plugin {
        PluginKind::Removal => {
            let side = resolve_side(world, node, &spec.input)?;
            let (_, files) = side_bytes(world, &side, &cred, plugin)?;
            // The table admits a remove only of a path on this node.
            let latency = world.storage.setup_cost(side.tier, files.max(1));
            Ok(BuiltPlan {
                legs: VecDeque::from([PlannedLeg {
                    label: "remove",
                    latency,
                    shards: vec![],
                }]),
                total_bytes: 0,
                charged: None,
            })
        }
        PluginKind::MemoryToLocal => {
            let ResourceRef::Memory { size: bytes } = spec.input else {
                unreachable!("the table names this plugin for a memory input")
            };
            let dst = resolve_side(world, node, spec.output.as_ref().expect("validated"))?;
            let charged = charge_dst(world, job, &dst, bytes)?;
            let setup = world.storage.setup_cost(dst.tier, 1);
            let dst_shards = world
                .storage
                .plan_io(dst.tier, node, IoDir::Write, bytes, None);
            let src = [memory_shard(world, node, bytes)];
            Ok(BuiltPlan {
                legs: VecDeque::from([PlannedLeg {
                    label: "memcpy-to-local",
                    latency: setup,
                    shards: compose(&src, &[], &dst_shards),
                }]),
                total_bytes: bytes,
                charged,
            })
        }
        PluginKind::LocalToLocal | PluginKind::LocalToRemote | PluginKind::RemoteToLocal => {
            let src = resolve_side(world, node, &spec.input)?;
            let dst = resolve_side(world, node, spec.output.as_ref().expect("validated"))?;
            let (bytes, files) = side_bytes(world, &src, &cred, plugin)?;
            let charged = charge_dst(world, job, &dst, bytes)?;
            let latency = world.storage.setup_cost(src.tier, files)
                + world.storage.setup_cost(dst.tier, files);
            let src_shards = world
                .storage
                .plan_io(src.tier, src.node, IoDir::Read, bytes, None);
            let src_shards = with_ram(world, src.node, src_shards);
            let dst_shards = world
                .storage
                .plan_io(dst.tier, dst.node, IoDir::Write, bytes, None);
            let (label, direction) = match plugin {
                PluginKind::LocalToLocal => ("sendfile", None),
                PluginKind::LocalToRemote => ("mmap+rdma-pull-by-target", Some(Direction::Push)),
                _ => ("query+rdma-pull", Some(Direction::Pull)),
            };
            // Across the fabric: one RPC, and the far node's DRAM too.
            let (latency, dst_shards, fabric) = match direction {
                None => (latency, dst_shards, Vec::new()),
                Some(direction) => {
                    let dst_shards = with_ram(world, dst.node, dst_shards);
                    let NornsWorld { fabric, fluid, .. } = world;
                    let (from, to) = (src.node, dst.node);
                    let path = fabric.transfer_path(&mut fluid.net, from, to, node, direction);
                    (rpc_rt + latency, dst_shards, path)
                }
            };
            Ok(BuiltPlan {
                legs: VecDeque::from([PlannedLeg {
                    label,
                    latency,
                    shards: compose(&src_shards, &fabric, &dst_shards),
                }]),
                total_bytes: bytes,
                charged,
            })
        }
        PluginKind::MemoryToRemote => {
            let ResourceRef::Memory { size: bytes } = spec.input else {
                unreachable!("the table names this plugin for a memory input")
            };
            let dst = resolve_side(world, node, spec.output.as_ref().expect("validated"))?;
            let charged = charge_dst(world, job, &dst, bytes)?;
            let dst_setup = world.storage.setup_cost(dst.tier, 1);
            let dst_shards = world
                .storage
                .plan_io(dst.tier, dst.node, IoDir::Write, bytes, None);
            let dst_shards = with_ram(world, dst.node, dst_shards);
            let fabric = {
                let NornsWorld { fabric, fluid, .. } = world;
                fabric.transfer_path(&mut fluid.net, node, dst.node, node, Direction::Push)
            };
            let src = [memory_shard(world, node, bytes)];
            let tmp = [memory_shard(world, node, bytes)];
            Ok(BuiltPlan {
                legs: VecDeque::from([
                    PlannedLeg {
                        label: "stage-to-tmp",
                        latency: SimDuration::from_micros(5),
                        shards: compose(&src, &[], &tmp),
                    },
                    PlannedLeg {
                        label: "rdma-pull-by-target",
                        latency: rpc_rt + dst_setup,
                        shards: compose(&tmp, &fabric, &dst_shards),
                    },
                ]),
                total_bytes: bytes,
                charged,
            })
        }
        PluginKind::RemoteToMemory => {
            let src = resolve_side(world, node, &spec.input)?;
            let (bytes, files) = side_bytes(world, &src, &cred, plugin)?;
            let latency = rpc_rt + world.storage.setup_cost(src.tier, files);
            let src_shards = world
                .storage
                .plan_io(src.tier, src.node, IoDir::Read, bytes, None);
            let src_shards = with_ram(world, src.node, src_shards);
            let fabric = {
                let NornsWorld { fabric, fluid, .. } = world;
                fabric.transfer_path(&mut fluid.net, src.node, node, node, Direction::Pull)
            };
            let dst = [memory_shard(world, node, bytes)];
            Ok(BuiltPlan {
                legs: VecDeque::from([PlannedLeg {
                    label: "rdma-pull-to-memory",
                    latency,
                    shards: compose(&src_shards, &fabric, &dst),
                }]),
                total_bytes: bytes,
                charged: None,
            })
        }
    }
}

/// Charge the destination quota for the job at plan time.
fn charge_dst(
    world: &mut NornsWorld,
    job: JobId,
    dst: &Side,
    bytes: u64,
) -> Result<Option<(NodeId, String, u64)>> {
    // Capacity check on the destination namespace.
    let ns = world
        .storage
        .ns(dst.tier, ns_node(world, dst.tier, dst.node));
    if bytes > ns.available() {
        return Err(NornsError::NoSpace {
            requested: bytes,
            available: ns.available(),
        });
    }
    world.urds[dst.node]
        .controller
        .charge(job, &dst.nsid, bytes)?;
    Ok(Some((dst.node, dst.nsid.clone(), bytes)))
}

/// Apply the namespace effects of a successfully transferred task.
pub(crate) fn apply_effects(
    world: &mut NornsWorld,
    node: NodeId,
    job: JobId,
    spec: &crate::task::TaskSpec,
    cred: &Cred,
) -> Result<()> {
    if let Some(out) = spec.output.as_ref().filter(|out| !out.is_memory()) {
        let dst = resolve_side(world, node, out)?;
        // Collect the source layout.
        let listing: Vec<(String, u64)> = match &spec.input {
            ResourceRef::Memory { size } => vec![(String::new(), *size)],
            input => {
                let src = resolve_side(world, node, input)?;
                let ns = world
                    .storage
                    .ns(src.tier, ns_node(world, src.tier, src.node));
                ns.walk_files(&src.path, cred)?
            }
        };
        let dst_node = ns_node(world, dst.tier, dst.node);
        let ns = world.storage.ns_mut(dst.tier, dst_node);
        for (rel, size) in &listing {
            let target = if rel.is_empty() {
                dst.path.clone()
            } else {
                format!("{}/{}", dst.path.trim_end_matches('/'), rel)
            };
            ns.write_file(&target, *size, cred, simstore::Mode(0o644))?;
        }
    }
    // A `Move` or `Remove` frees its input; a moved memory region stays
    // the caller's.
    if spec.op != TaskOp::Copy && !spec.input.is_memory() {
        let src = resolve_side(world, node, &spec.input)?;
        let src_node = ns_node(world, src.tier, src.node);
        let freed = world
            .storage
            .ns_mut(src.tier, src_node)
            .remove(&src.path, cred, true)?;
        world.urds[src.node]
            .controller
            .release(job, &src.nsid, freed);
    }
    Ok(())
}
