//! Durability modes (wire v8): the background replication queue. A
//! landed stage-out that asked for `local_plus_one` or `synchronous`
//! spawns replica pushes to registered peers — ordinary scheduler
//! tasks owned by [`REPLICA_OWNER`] — and in `synchronous` mode its
//! own terminal transition waits for them.
//!
//! A task's part in replication is its entry's [`ReplRole`], so it
//! changes under that task's shard lock like the rest of the task's
//! record. A replica's terminal transition takes its role under its
//! own shard lock — the lag gauges drop there — and settles a
//! `synchronous` parent in a critical section of the parent's own once
//! that lock is released.

use std::sync::atomic::Ordering;

use norns_proto::{ErrorCode, ResourceDesc, TaskOp, TaskSpec, TaskState};

use super::remote::Direction;
use super::shard::TaskEntry;
use super::transfer::PlanOutcome;
use super::{Engine, EngineError, Route, REPLICA_OWNER};

/// Replication a qualifying stage-out asked for at submission,
/// held until its local leg lands (v8 durability modes).
pub(super) struct ReplRequest {
    /// `synchronous` (ACK after `target_copies` replicas land) rather
    /// than `local_plus_one` (ACK now, one copy rides behind).
    pub(super) synchronous: bool,
    /// The landed local output (`nsid://path`) — the source every
    /// replica pushes, and the name it lands under on each peer.
    pub(super) nsid: String,
    pub(super) path: String,
    pub(super) priority: u8,
}

/// A `synchronous`-mode parent whose local leg landed but whose
/// terminal transition is deferred until every replica resolves. The
/// parent stays `InProgress` (and keeps its running-count slot) so no
/// observer can see an ACK before the durability guarantee holds, and
/// its clock runs on until the last replica resolves.
pub(super) struct SyncParent {
    remaining: usize,
    bytes_moved: u64,
    /// First replica failure, if any — a single failed copy fails the
    /// parent (`synchronous` promises *all* copies).
    error: Option<EngineError>,
}

/// A task's part in replication, kept in its own table entry.
pub(super) enum ReplRole {
    /// A qualifying stage-out's request, taken when its local leg
    /// reaches `complete_task`.
    Requested(ReplRequest),
    /// A `synchronous` parent waiting on its replicas.
    Awaiting(SyncParent),
    /// A replica push: the `synchronous` parent it settles (`None`
    /// under `local_plus_one`, whose copy settles nothing) and the
    /// bytes it holds in the lag gauges until it ends.
    ReplicaOf { parent: Option<u64>, bytes: u64 },
}

impl Engine {
    /// Kick off replication for a landed stage-out. Returns `true`
    /// when the parent's terminal transition is deferred (or already
    /// driven) by the replication machinery — `synchronous` mode —
    /// and `false` when the caller should ACK now (`local_plus_one`:
    /// the copies ride behind in the background, best-effort by
    /// contract — with no registered peers or a stopping pool the mode
    /// degrades to local-only durability and the early ACK stands).
    pub(super) fn begin_replication(&self, parent: u64, req: ReplRequest, moved: u64) -> bool {
        let want = if req.synchronous {
            self.target_copies
        } else {
            1
        };
        let peers: Vec<String> = self
            .peers()
            .into_iter()
            .map(|(host, _)| host)
            .take(want)
            .collect();
        if req.synchronous {
            if peers.is_empty() {
                // Never false-ACK: a synchronous stage-out with
                // nowhere to replicate is a failure, not a silent
                // downgrade.
                let none =
                    "synchronous durability requires at least one registered replication peer";
                let outcome = PlanOutcome::Failed(EngineError::not_found(none));
                self.finish_task(parent, outcome);
                return true;
            }
            // The parent's count first: a replica finishing before its
            // siblings are even submitted must find something to
            // decrement.
            let record = SyncParent {
                remaining: peers.len(),
                bytes_moved: moved,
                error: None,
            };
            self.tasks
                .update(parent, |t| t.replicate = Some(ReplRole::Awaiting(record)));
        }
        let settles = req.synchronous.then_some(parent);
        for host in peers {
            self.submit_replica(settles, host, &req, moved);
        }
        req.synchronous
    }

    /// Enqueue one background replica push — an ordinary scheduler
    /// unit reusing the remote-staging push machinery. The landed
    /// `nsid://path` is pushed to the same-named dataspace and path on
    /// `host` (cluster-wide dataspace naming, the convention the peer
    /// registry already assumes). Its role rides in its entry, which
    /// `admit` counts in the lag gauges before the unit becomes
    /// dispatchable; a replica the pool refuses (it is stopping) never
    /// gets an entry and settles its parent as failed on the spot.
    fn submit_replica(&self, parent: Option<u64>, host: String, req: &ReplRequest, bytes: u64) {
        let (nsid, path) = (req.nsid.clone(), req.path.clone());
        let spec = TaskSpec::new(
            TaskOp::Copy,
            ResourceDesc::PosixPath {
                nsid: nsid.clone(),
                path: path.clone(),
            },
            Some(ResourceDesc::RemotePath { host, nsid, path }),
        )
        .with_priority(req.priority);
        let task_id = self.next_task.fetch_add(1, Ordering::SeqCst);
        let role = ReplRole::ReplicaOf { parent, bytes };
        let route = Route::Remote(Direction::Push);
        let admitted = self.admit(task_id, REPLICA_OWNER, bytes, spec, None, route, Some(role));
        if let (Err(e), Some(parent)) = (admitted, parent) {
            self.settle_parent(parent, Some(e));
        }
    }

    /// Take a terminal entry's replica role, under its shard lock: its
    /// bytes leave the lag gauges, and a replica of a `synchronous`
    /// parent hands back that parent with its own failure, if any, for
    /// [`Engine::settle_parent`] once the lock is released. Every other
    /// role is spent by now and goes with it.
    pub(super) fn take_replica(&self, t: &mut TaskEntry) -> Option<(u64, Option<EngineError>)> {
        let Some(ReplRole::ReplicaOf { parent, bytes }) = t.replicate.take() else {
            return None;
        };
        self.pending_replicas.fetch_sub(1, Ordering::SeqCst);
        self.pending_replica_bytes
            .fetch_sub(bytes, Ordering::SeqCst);
        let parent = parent?;
        let failure = (t.stats.state != TaskState::Finished).then(|| {
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

    /// Settle one resolved replica against its `synchronous` parent:
    /// the outstanding count drops, the first failure is kept, and the
    /// last replica in delivers the parent's deferred terminal
    /// transition in the same critical section — `Finished` only if
    /// every replica landed.
    pub(super) fn settle_parent(&self, parent: u64, failure: Option<EngineError>) {
        let settled = self.tasks.update(parent, |t| {
            let Some(ReplRole::Awaiting(mut record)) = t.replicate.take() else {
                return None;
            };
            record.remaining -= 1;
            record.error = record.error.or(failure);
            if record.remaining > 0 {
                t.replicate = Some(ReplRole::Awaiting(record));
                return None;
            }
            let outcome = match record.error {
                None => PlanOutcome::Done(record.bytes_moved),
                Some(e) => PlanOutcome::Failed(EngineError::new(
                    e.code,
                    format!("replication failed: {}", e.message),
                )),
            };
            Some(self.finish_entry(t, outcome))
        });
        if let Some(settled) = settled.flatten() {
            self.deliver(settled);
        }
    }
}
