//! Everything that undoes work, each as the table's action or event:
//! the stage-in deadline, cancelling a killed job's outstanding legs,
//! removing what its stage-in landed (§III cleanup), unregistering, and
//! a daemon that stopped answering. None of it waits: a cancelled leg's
//! answer and a removal's come back through the run loop's pump like
//! any other. All of it is **best-effort**: wire problems are returned
//! for the caller to record on the one job, never propagated — tearing
//! one job down must not strand the others.

use std::time::Instant;

use norns_ipc::ClientError;
use norns_proto::{ResourceDesc, TaskOp, TaskSpec};

use super::{Leg, WorkflowExecutor};
use crate::job::{Event, JobState};

/// The `Remove` of a node-local path: how §III cleanup deletes
/// staged-in data.
fn remove_spec(nsid: &str, path: &str) -> TaskSpec {
    let target = ResourceDesc::PosixPath {
        nsid: nsid.into(),
        path: path.into(),
    };
    TaskSpec::new(TaskOp::Remove, target, None)
}

impl WorkflowExecutor {
    /// Time out every job whose stage-in deadline passed ("the
    /// scheduler will terminate the job and clean up all data already
    /// staged to nodes", §III). Returns whether anything expired.
    pub(super) fn expire_deadlines(&mut self) -> bool {
        let now = Instant::now();
        let expired: Vec<usize> = (0..self.jobs.len())
            .filter(|&idx| {
                let j = &self.jobs[idx];
                j.life.state == JobState::StagingIn && j.deadline.is_some_and(|d| now >= d)
            })
            .collect();
        for &idx in &expired {
            self.step(idx, Event::StageInTimeout, Vec::new());
        }
        !expired.is_empty()
    }

    /// Cancel every leg the job still has outstanding. A leg a worker
    /// already runs ends at its next unit; one that finishes anyway
    /// lands, and is removed then.
    pub(super) fn cancel_legs(&mut self, idx: usize) -> Vec<String> {
        let mut problems = Vec::new();
        for t in &self.jobs[idx].legs {
            match self.nodes[t.node].ctl.cancel(t.task_id) {
                Ok(()) | Err(ClientError::Remote { .. }) => {} // running/finished: ends on its own
                Err(e) => problems.push(format!("cancel {}: {e}", t.label)),
            }
        }
        problems
    }

    /// Remove the destination of every stage-in leg the job landed
    /// (§III cleanup). Each removal is submitted to the node the
    /// destination is local to (its owning peer for pushed `RemotePath`
    /// legs).
    pub(super) fn remove_landed(&mut self, idx: usize) -> Vec<String> {
        let mut problems = Vec::new();
        let landed: Vec<Leg> = std::mem::take(&mut self.jobs[idx].landed);
        for t in &landed {
            let Some((owner, nsid, path)) = &t.dst else {
                continue;
            };
            match self.submit_task(*owner, 0, remove_spec(nsid, path)) {
                Ok(_) | Err(ClientError::Remote { .. }) => {}
                Err(e) => problems.push(format!("cleanup of {}: {e}", t.label)),
            }
        }
        problems
    }

    /// Best-effort unregistration from every daemon the job touched.
    pub(super) fn unregister(&mut self, idx: usize) -> Vec<String> {
        let id = self.jobs[idx].id.0;
        let mut problems = Vec::new();
        for &n in &self.jobs[idx].nodes {
            match self.nodes[n].ctl.unregister_job(id) {
                // Remote errors mean "already gone" (e.g. the daemon
                // was shut down) — not worth recording.
                Ok(()) | Err(ClientError::Remote { .. }) => {}
                Err(e) => {
                    problems.push(format!("unregister on {:?}: {e}", self.nodes[n].spec.name))
                }
            }
        }
        problems
    }

    /// A daemon stopped answering mid-wait: every leg outstanding there
    /// ends as a failed leg. A StagingIn job dies of it (its input
    /// cannot arrive), a StagingOut job keeps the lost legs' data as
    /// leftovers. Legs on other daemons are untouched, and the dead
    /// daemon's legs are taken out before any is reported, so a kill
    /// cancels on live daemons alone.
    pub(super) fn daemon_lost(&mut self, node: usize, error: &str) {
        let name = self.nodes[node].spec.name.clone();
        for idx in 0..self.jobs.len() {
            let (lost, kept): (Vec<Leg>, Vec<Leg>) = std::mem::take(&mut self.jobs[idx].legs)
                .into_iter()
                .partition(|t| t.node == node);
            self.jobs[idx].legs = kept;
            for t in lost {
                let note = format!("lost with daemon {name:?}: {}: {error}", t.label);
                self.step(idx, Event::LegEnded { ok: false }, vec![note]);
            }
        }
    }
}
