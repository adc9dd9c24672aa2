//! Durability modes (wire v8), applied at one site: [`Engine::durable`]
//! runs the durability table both worlds run,
//! `norns_sched::durability::step`, where a task lands and where each
//! of its replicas reports, and carries out what it says — free a
//! `Move`'s source, spawn replica pushes to registered peers (ordinary
//! scheduler tasks owned by [`REPLICA_OWNER`]), ACK or fail. A
//! `synchronous` Move whose landing is a copy frees its source only
//! once its last replica has landed, and keeps it when one fails.
//!
//! A task's part in replication is its entry's [`ReplRole`], so it
//! changes under that task's shard lock like the rest of its record. A
//! replica's terminal transition takes its role under its own shard
//! lock — the lag gauges drop there — and reports to a `synchronous`
//! parent once that lock is released.

use std::sync::atomic::Ordering;

use norns_proto::{Durability, ErrorCode, ResourceDesc, TaskSpec};
use norns_sched::durability::{self, Action, Phase, Record};
use norns_sched::lifecycle::{Event, Outcome};
use norns_sched::shape::Plugin;

use super::shard::TaskEntry;
use super::transfer::{RangeMover, Spent};
use super::{Engine, EngineError, REPLICA_OWNER};

/// A stage-out's durability, from admission to its verdict: the
/// table's record, the landed output every replica pushes to the same
/// `nsid://path` on its peer, and from its landing the mover still
/// holding a `Move`'s source and the first replica failure. A task
/// without one lands `local_only`.
#[derive(Default)]
pub(super) struct Stage {
    record: Record,
    nsid: String,
    path: String,
    priority: u8,
    source: Option<Box<dyn RangeMover>>,
    error: Option<EngineError>,
}

/// A task's part in replication, kept in its own table entry.
pub(super) enum ReplRole {
    Stage(Stage),
    /// A replica push: the `synchronous` parent it reports to (`None`
    /// under `local_plus_one`, whose copy settles nothing), and the
    /// bytes it holds in the lag gauges until it ends.
    ReplicaOf {
        parent: Option<u64>,
        bytes: u64,
    },
}

impl ReplRole {
    /// A durable stage-out's role, taken at admission.
    pub(super) fn stage(spec: &TaskSpec, nsid: &str, path: &str, copies: usize) -> ReplRole {
        let copies = copies.min(usize::from(u8::MAX)) as u8;
        ReplRole::Stage(Stage {
            record: Record {
                mode: spec.durability,
                copies,
                ..Record::default()
            },
            nsid: nsid.into(),
            path: path.into(),
            priority: spec.priority,
            ..Stage::default()
        })
    }
}

impl Engine {
    /// The one durability apply site: `event` through the table on the
    /// task's record under its shard lock — a landing first takes its op
    /// and route from `spent` and, unless `local_only`, its peers — then
    /// the actions in order once the lock is released: the source freed
    /// by the spent mover (a rename left nothing to free), the replicas
    /// spawned, the ACK or the failure as the lifecycle's end. A record
    /// awaiting its replicas stays in the entry with its source. A
    /// source that cannot be freed fails the task in place of the rest.
    pub(super) fn durable(
        &self,
        task_id: u64,
        event: durability::Event,
        spent: Spent,
        moved: u64,
        failure: Option<EngineError>,
    ) {
        let landed = event == durability::Event::Landed;
        let decided = self.tasks.update(task_id, |t| {
            let mut stage = match t.replicate.take() {
                Some(ReplRole::Stage(stage)) => stage,
                other => {
                    t.replicate = other;
                    Stage::default()
                }
            };
            let mut peers = Vec::new();
            if landed {
                (stage.record.op, stage.record.route) = spent.landing();
                if stage.record.mode != Durability::LocalOnly {
                    peers = self.peers();
                    stage.record.peers = peers.len().min(usize::from(u8::MAX)) as u8;
                }
                if let Spent::Mover(mover) = spent {
                    stage.source = Some(mover);
                }
            }
            stage.error = stage.error.take().or(failure);
            let next = durability::step(stage.record, event);
            stage.record = next.record;
            if !matches!(next.record.phase, Phase::Awaiting { .. }) {
                return (next.actions, peers, stage, None);
            }
            if landed {
                // Awaiting before any replica is out: one that ends
                // before its siblings are submitted finds its parent.
                self.step(t, Event::End(Outcome::Done { awaiting: true }));
            }
            let output = Stage {
                nsid: stage.nsid.clone(),
                path: stage.path.clone(),
                priority: stage.priority,
                ..Stage::default()
            };
            t.replicate = Some(ReplRole::Stage(stage));
            (next.actions, peers, output, Some(task_id))
        });
        let Some((actions, peers, mut stage, parent)) = decided else {
            return;
        };
        let mut verdict = None;
        for action in actions.iter() {
            match action {
                Action::FreeSource => {
                    if let Some(Err(e)) = stage.source.as_mut().map(|m| m.free_source()) {
                        verdict = Some(Err(e));
                        break;
                    }
                }
                Action::Spawn(n) => {
                    for (host, _) in peers.iter().take(usize::from(n)) {
                        self.submit_replica(parent, host.clone(), &stage, moved);
                    }
                }
                Action::Ack => verdict = Some(Ok(())),
                // A failed replica's own error, or no peer at all.
                Action::Fail(why) => {
                    verdict = Some(Err(match stage.error.take() {
                        Some(e) => {
                            EngineError::new(e.code, format!("{}: {}", why.message(), e.message))
                        }
                        None => EngineError::not_found(why.message()),
                    }));
                }
            }
        }
        let (event, failure) = match (landed, verdict) {
            (_, None) => return,
            (true, Some(Ok(()))) => (Event::End(Outcome::Done { awaiting: false }), None),
            (true, Some(Err(e))) => (Event::End(Outcome::Failed), Some(e)),
            (false, Some(verdict)) => (
                Event::Durable {
                    ok: verdict.is_ok(),
                },
                verdict.err(),
            ),
        };
        self.transition(task_id, event, failure);
    }

    /// Enqueue one background replica push, an ordinary scheduler unit
    /// on the remote-staging push machinery, of the landed `nsid://path`
    /// to the same-named dataspace and path on `host`. `admit` counts it
    /// in the lag gauges before it becomes dispatchable; one the pool
    /// refuses (it is stopping) reports to its parent as failed at once.
    fn submit_replica(&self, parent: Option<u64>, host: String, stage: &Stage, bytes: u64) {
        let (nsid, path) = (stage.nsid.clone(), stage.path.clone());
        let spec = TaskSpec::copy(
            ResourceDesc::posix(&nsid, &path),
            ResourceDesc::remote(host, nsid, path),
        )
        .with_priority(stage.priority);
        let task_id = self.next_task.fetch_add(1, Ordering::SeqCst);
        let role = ReplRole::ReplicaOf { parent, bytes };
        let push = Plugin::LocalToRemote;
        let admitted = self.admit(task_id, REPLICA_OWNER, bytes, push, spec, None, Some(role));
        if let (Err(e), Some(parent)) = (admitted, parent) {
            self.settle_parent(parent, Some(e));
        }
    }

    /// Take a terminal entry's replica role, under its shard lock: its
    /// bytes leave the lag gauges, and a replica of a `synchronous`
    /// parent hands back that parent with its own failure, if the
    /// lifecycle's word to the parent (`landed`) is that it did not
    /// land, for [`Engine::settle_parent`] once the lock is released.
    /// Every other role is spent by now and goes with it.
    pub(super) fn take_replica(
        &self,
        t: &mut TaskEntry,
        landed: Option<bool>,
    ) -> Option<(u64, Option<EngineError>)> {
        let Some(ReplRole::ReplicaOf { parent, bytes, .. }) = t.replicate.take() else {
            return None;
        };
        self.pending_replicas.fetch_sub(1, Ordering::SeqCst);
        self.pending_replica_bytes
            .fetch_sub(bytes, Ordering::SeqCst);
        let (parent, Some(landed)) = (parent?, landed) else {
            return None;
        };
        let failure = (!landed).then(|| {
            let code = if t.stats.error == ErrorCode::Success {
                ErrorCode::SystemError
            } else {
                t.stats.error
            };
            let msg = t
                .error_message
                .clone()
                .unwrap_or_else(|| format!("replica ended {:?}", t.stats.state));
            EngineError::new(code, msg)
        });
        Some((parent, failure))
    }

    /// One resolved replica reported to its `synchronous` parent.
    pub(super) fn settle_parent(&self, parent: u64, failure: Option<EngineError>) {
        let ok = failure.is_none();
        let event = durability::Event::ReplicaEnded { ok };
        self.durable(parent, event, Spent::Nothing, 0, failure);
    }
}
