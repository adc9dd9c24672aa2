//! Durability modes (wire v8): the background replication queue. A
//! landed stage-out that asked for `local_plus_one` or `synchronous`
//! spawns replica pushes to registered peers — ordinary scheduler
//! tasks owned by [`REPLICA_OWNER`] — and in `synchronous` mode its
//! own terminal transition waits for them.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use norns_proto::{ErrorCode, ResourceDesc, TaskOp, TaskSpec, TaskState, TaskStats};

use super::transfer::PlanOutcome;
use super::{Engine, EngineError, REPLICA_OWNER};

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

/// Accounting for one in-flight replica push task.
struct ReplicaMeta {
    parent: u64,
    bytes: u64,
}

/// A `synchronous`-mode parent whose local leg landed but whose
/// terminal transition is deferred until every replica resolves. The
/// parent stays `InProgress` (and keeps its running-count slot) so no
/// observer can see an ACK before the durability guarantee holds.
struct SyncParent {
    remaining: usize,
    bytes_moved: u64,
    elapsed_usec: u64,
    /// First replica failure, if any — a single failed copy fails the
    /// parent (`synchronous` promises *all* copies).
    error: Option<EngineError>,
}

/// Ledger of the background replication queue. Entries are registered
/// *before* a replica becomes dispatchable and removed at its terminal
/// transition, so the lag counters and parent resolution can never
/// race a fast completion.
#[derive(Default)]
pub(super) struct ReplState {
    /// Replica task id → accounting.
    replicas: HashMap<u64, ReplicaMeta>,
    /// Deferred `synchronous` parents awaiting their replicas.
    parents: HashMap<u64, SyncParent>,
}

impl Engine {
    /// Kick off replication for a landed stage-out. Returns `true`
    /// when the parent's terminal transition is deferred (or already
    /// driven) by the replication machinery — `synchronous` mode —
    /// and `false` when the caller should ACK now (`local_plus_one`:
    /// the copies ride behind in the background, best-effort by
    /// contract — with no registered peers or a stopping pool the mode
    /// degrades to local-only durability and the early ACK stands).
    pub(super) fn begin_replication(
        &self,
        parent: u64,
        req: ReplRequest,
        moved: u64,
        elapsed_usec: u64,
    ) -> bool {
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
                self.finish_task(parent, outcome, elapsed_usec);
                return true;
            }
            // Parent record first: a replica finishing before its
            // siblings are even submitted must find something to
            // decrement.
            self.repl.lock().parents.insert(
                parent,
                SyncParent {
                    remaining: peers.len(),
                    bytes_moved: moved,
                    elapsed_usec,
                    error: None,
                },
            );
        }
        for host in peers {
            self.submit_replica(parent, host, &req, moved);
        }
        req.synchronous
    }

    /// Enqueue one background replica push — an ordinary scheduler
    /// unit reusing the remote-staging push machinery. The landed
    /// `nsid://path` is pushed to the same-named dataspace and path on
    /// `host` (cluster-wide dataspace naming, the convention the peer
    /// registry already assumes). Ledger entry and lag counters are
    /// registered *before* the unit becomes dispatchable, so a fast
    /// completion can never race the bookkeeping; a replica the pool
    /// refuses (it is stopping) resolves as failed on the spot.
    fn submit_replica(&self, parent: u64, host: String, req: &ReplRequest, bytes: u64) {
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
        {
            let mut rp = self.repl.lock();
            rp.replicas.insert(task_id, ReplicaMeta { parent, bytes });
            self.pending_replicas.fetch_add(1, Ordering::SeqCst);
            self.pending_replica_bytes
                .fetch_add(bytes, Ordering::SeqCst);
        }
        let admitted = Self::route_of(&spec)
            .and_then(|route| self.admit(task_id, REPLICA_OWNER, bytes, spec, None, route, None));
        if let Err(e) = admitted {
            self.replica_resolved(task_id, Some(e));
        }
    }

    /// A task reached a terminal state: if it was a replica, resolve
    /// it in the ledger. Client tasks never touch the ledger lock.
    pub(super) fn note_replica_done(&self, task_id: u64, owner: u64, stats: &TaskStats) {
        if owner != REPLICA_OWNER {
            return;
        }
        // Failure detail fetched before the ledger lock: the shard
        // lock must never nest inside `repl`.
        let failure = (stats.state != TaskState::Finished).then(|| {
            let code = if stats.error == ErrorCode::Success {
                ErrorCode::SystemError
            } else {
                stats.error
            };
            let msg = self
                .error_message(task_id)
                .unwrap_or_else(|| format!("replica ended {:?}", stats.state));
            EngineError::new(code, msg)
        });
        self.replica_resolved(task_id, failure);
    }

    /// Drain a resolved replica's lag counters and settle it against
    /// its `synchronous` parent: the parent's outstanding count drops,
    /// the first failure is recorded, and the last replica in delivers
    /// the parent's deferred terminal transition — `Finished` only if
    /// every replica landed. `local_plus_one` parents have no record
    /// (fire-and-forget): nothing to settle.
    fn replica_resolved(&self, task_id: u64, failure: Option<EngineError>) {
        let settled = {
            let mut rp = self.repl.lock();
            let Some(meta) = rp.replicas.remove(&task_id) else {
                return;
            };
            self.pending_replicas.fetch_sub(1, Ordering::SeqCst);
            self.pending_replica_bytes
                .fetch_sub(meta.bytes, Ordering::SeqCst);
            self.repl_cv.notify_all();
            let Some(record) = rp.parents.get_mut(&meta.parent) else {
                return;
            };
            record.remaining -= 1;
            record.error = record.error.take().or(failure);
            if record.remaining > 0 {
                return;
            }
            rp.parents.remove(&meta.parent).map(|r| (meta.parent, r))
        };
        if let Some((parent, record)) = settled {
            let outcome = match record.error {
                None => PlanOutcome::Done(record.bytes_moved),
                Some(e) => PlanOutcome::Failed(EngineError::new(
                    e.code,
                    format!("replication failed: {}", e.message),
                )),
            };
            self.finish_task(parent, outcome, record.elapsed_usec);
        }
    }
}
