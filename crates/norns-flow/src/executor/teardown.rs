//! Everything that undoes work: stage-in deadlines, killing a job
//! mid-stage-in, abandoning a failed stage-out, a daemon that stopped
//! answering, and the cancel / drain / §III-cleanup primitives under
//! them. All of it is **best-effort**: wire problems are returned for
//! the caller to record on the one job, never propagated — tearing one
//! job down must not strand the others.

use std::time::Instant;

use norns_ipc::ClientError;
use norns_proto::{ErrorCode, ResourceDesc, TaskOp, TaskSpec, TaskState, MAX_WAIT_SET};

use super::{ActiveJob, FlowJobState, Leg, Phase, WorkflowExecutor};

/// The `Remove` of a node-local path: how a copy-based stage-out leg
/// releases its source and how §III cleanup deletes staged-in data.
pub(super) fn remove_spec(nsid: &str, path: &str) -> TaskSpec {
    let target = ResourceDesc::PosixPath {
        nsid: nsid.into(),
        path: path.into(),
    };
    TaskSpec::new(TaskOp::Remove, target, None)
}

impl WorkflowExecutor {
    /// Kill every job whose stage-in deadline passed: cancel its
    /// outstanding transfers, remove what it already staged, cancel
    /// the job ("the scheduler will terminate the job and clean up all
    /// data already staged to nodes", §III). Returns whether anything
    /// expired.
    pub(super) fn expire_deadlines(&mut self) -> bool {
        let now = Instant::now();
        let expired: Vec<usize> = self
            .run
            .active
            .iter()
            .filter(|(_, a)| matches!(a.phase, Phase::StagingIn { deadline } if now >= deadline))
            .map(|(idx, _)| *idx)
            .collect();
        for &idx in &expired {
            let job = self.run.active.remove(&idx).expect("selected from the map");
            self.kill_staging_in(idx, job, FlowJobState::Cancelled, "stage-in timeout");
        }
        !expired.is_empty()
    }

    /// Tear down a StagingIn job that must die (task failure, timeout,
    /// lost daemon): cancel and drain its outstanding transfers, fold
    /// the drain's late finishers into the staged set — they staged
    /// data too — remove every staged destination (§III cleanup), and
    /// finish the job.
    pub(super) fn kill_staging_in(
        &mut self,
        idx: usize,
        job: ActiveJob,
        state: FlowJobState,
        reason: &str,
    ) {
        let (finished, mut problems) = self.cancel_and_drain(&job.outstanding);
        let mut staged = job.staged;
        staged.extend(
            job.outstanding
                .into_iter()
                .filter(|t| finished.contains(&(t.node, t.task_id))),
        );
        problems.extend(self.cleanup_staged(&staged));
        self.finish_job(idx, state, reason);
        self.note_problems(idx, problems);
    }

    /// A stage-out leg failed: "leave the data on the node local
    /// resources for future stage_out operations to try and recover" —
    /// including the sibling legs cancelled because of the failure:
    /// their data was never staged out either. The job still completes.
    pub(super) fn abandon_stage_out(&mut self, idx: usize, job: ActiveJob, detail: String) {
        self.jobs[idx].leftovers.push(detail);
        let (finished, problems) = self.cancel_and_drain(&job.outstanding);
        for t in &job.outstanding {
            if !finished.contains(&(t.node, t.task_id)) {
                self.jobs[idx]
                    .leftovers
                    .push(format!("cancelled before staging out: {}", t.label));
            }
        }
        self.finish_job(idx, FlowJobState::Completed, "");
        self.note_problems(idx, problems);
    }

    /// A daemon stopped answering mid-wait. Every job with staging
    /// outstanding there loses those legs: a StagingIn job dies (its
    /// input cannot arrive — legs on healthy daemons are cancelled and
    /// staged data cleaned, §III), a StagingOut job records the lost
    /// legs as recoverable leftovers and still completes. Jobs and
    /// legs on other daemons are untouched — one sick daemon must not
    /// strand the rest of the workflow.
    pub(super) fn daemon_lost(&mut self, node: usize, error: &str) {
        let name = self.nodes[node].spec.name.clone();
        let affected: Vec<usize> = self
            .run
            .active
            .iter()
            .filter(|(_, a)| a.outstanding.iter().any(|t| t.node == node))
            .map(|(idx, _)| *idx)
            .collect();
        for idx in affected {
            let mut job = self.run.active.remove(&idx).expect("selected from the map");
            // The dead daemon's legs cannot be cancelled or drained;
            // strip them so teardown only talks to live daemons.
            let (lost, kept): (Vec<Leg>, Vec<Leg>) =
                job.outstanding.into_iter().partition(|t| t.node == node);
            job.outstanding = kept;
            match job.phase {
                Phase::StagingIn { .. } => self.kill_staging_in(
                    idx,
                    job,
                    FlowJobState::Failed,
                    &format!("daemon {name:?} unreachable during stage-in: {error}"),
                ),
                Phase::Running => unreachable!("Running jobs have no outstanding staging"),
                Phase::StagingOut => {
                    for t in lost {
                        self.jobs[idx]
                            .leftovers
                            .push(format!("lost with daemon {name:?}: {}", t.label));
                    }
                    if job.outstanding.is_empty() {
                        self.finish_job(idx, FlowJobState::Completed, "");
                    } else {
                        self.run.active.insert(idx, job);
                    }
                }
            }
        }
    }

    /// Cancel every leg in the set, then drain the stragglers a
    /// worker had already picked up (bounded by `cancel_grace`) so no
    /// transfer is left racing the job's teardown. Returns the
    /// `(node, task_id)` keys of legs that ended `Finished` anyway
    /// (their work completed despite the cancel, so e.g. stage-in
    /// cleanup must cover their destinations too) — keyed per node
    /// because task ids are per-daemon counters and collide across
    /// daemons — and the wire problems met.
    pub(super) fn cancel_and_drain(&mut self, legs: &[Leg]) -> (Vec<(usize, u64)>, Vec<String>) {
        let mut problems: Vec<String> = Vec::new();
        for t in legs {
            match self.nodes[t.node].ctl.cancel(t.task_id) {
                Ok(()) | Err(ClientError::Remote { .. }) => {} // running/finished: drained below
                Err(e) => problems.push(format!("cancel {}: {e}", t.label)),
            }
        }
        let keys = legs.iter().map(|t| (t.node, t.task_id)).collect();
        let (finished, drain_problems) = self.drain_within_grace(keys, "drain");
        problems.extend(drain_problems);
        (finished, problems)
    }

    /// Join the `(node, task_id)` set, one node's `wait_any` at a time,
    /// for at most `cancel_grace` in total; whatever is still running
    /// at the deadline is left to the daemon. Returns the keys that
    /// ended `Finished` and the transport problems met (`what` names
    /// the caller in them).
    fn drain_within_grace(
        &mut self,
        mut left: Vec<(usize, u64)>,
        what: &str,
    ) -> (Vec<(usize, u64)>, Vec<String>) {
        let mut finished: Vec<(usize, u64)> = Vec::new();
        let mut problems: Vec<String> = Vec::new();
        let grace = Instant::now() + self.config.cancel_grace;
        while !left.is_empty() && Instant::now() < grace {
            let node = left[0].0;
            let mut ids: Vec<u64> = left
                .iter()
                .filter(|(n, _)| *n == node)
                .map(|(_, id)| *id)
                .collect();
            // Over-cap sets are waited in MAX_WAIT_SET windows: each
            // completion shrinks `left`, letting later ids in.
            ids.truncate(MAX_WAIT_SET);
            let remaining = grace.saturating_duration_since(Instant::now());
            self.wait_round_trips += 1;
            match self.nodes[node]
                .ctl
                .wait_any(&ids, (remaining.as_micros() as u64).max(1))
            {
                Ok((task_id, stats)) => {
                    if stats.state == TaskState::Finished {
                        finished.push((node, task_id));
                    }
                    left.retain(|key| *key != (node, task_id));
                }
                Err(ClientError::Remote {
                    code: ErrorCode::Timeout,
                    ..
                }) => {}
                // The whole set may already be gone (cancelled tasks
                // are terminal, completion GC may collect them).
                Err(ClientError::Remote { .. }) => left.retain(|(n, _)| *n != node),
                Err(e) => {
                    problems.push(format!("{what} on {:?}: {e}", self.nodes[node].spec.name));
                    left.retain(|(n, _)| *n != node);
                }
            }
        }
        (finished, problems)
    }

    /// Remove the destinations of already-finished stage-in transfers
    /// after a timeout or failure killed the job (§III cleanup). Each
    /// removal is submitted to the node the destination is local to
    /// (its owning peer for pushed `RemotePath` legs). Joining the
    /// removals is bounded by `cancel_grace`: the timeout path must
    /// never wait unboundedly behind the very congestion that made the
    /// job miss its deadline.
    pub(super) fn cleanup_staged(&mut self, staged: &[Leg]) -> Vec<String> {
        let mut problems: Vec<String> = Vec::new();
        let mut removals: Vec<(usize, u64)> = Vec::new();
        for t in staged {
            let Some((owner, nsid, path)) = &t.dst else {
                continue;
            };
            match self.nodes[*owner]
                .ctl
                .submit(0, remove_spec(nsid, path), None)
            {
                Ok(task_id) => removals.push((*owner, task_id)),
                Err(ClientError::Remote { .. }) => {}
                Err(e) => problems.push(format!("cleanup of {}: {e}", t.label)),
            }
        }
        // Removals still running at the deadline keep running
        // daemon-side; only the waiting stops.
        let (_, wait_problems) = self.drain_within_grace(removals, "cleanup wait");
        problems.extend(wait_problems);
        problems
    }
}
