//! The per-job state machine: admission, registration, stage-in, the
//! body, stage-out and the terminal transition. Every function here
//! advances exactly one job in reaction to one event; nothing blocks
//! (waiting is [`super::wait`]'s job) and nothing is undone (that is
//! [`super::teardown`]'s).

use std::sync::Arc;
use std::time::Instant;

use norns_ipc::ClientError;
use norns_proto::{JobDesc, TaskState, TaskStats};

use super::teardown::remove_spec;
use super::{ActiveJob, FlowEvent, FlowJobState, JobBody, Leg, Phase, WorkflowExecutor};
use crate::plan::Stage;

impl WorkflowExecutor {
    /// Terminal bookkeeping: best-effort unregistration from every
    /// daemon the job touched (teardown problems are recorded, never
    /// propagated — one job's sick daemon must not strand the others),
    /// then the state transition and its event.
    pub(super) fn finish_job(&mut self, idx: usize, state: FlowJobState, reason: &str) {
        let id = self.jobs[idx].id;
        let mut problems = Vec::new();
        if self.jobs[idx].registered {
            self.jobs[idx].registered = false;
            for n in self.jobs[idx].nodes.clone() {
                match self.nodes[n].ctl.unregister_job(id.0) {
                    // Remote errors mean "already gone" (e.g. the
                    // daemon was shut down) — not worth recording.
                    Ok(()) | Err(ClientError::Remote { .. }) => {}
                    Err(e) => {
                        problems.push(format!("unregister on {:?}: {e}", self.nodes[n].spec.name))
                    }
                }
            }
        }
        self.jobs[idx].state = state;
        if !reason.is_empty() {
            // Append: earlier best-effort-teardown detail (recorded by
            // note_problems on e.g. the submission-failure path) must
            // survive the terminal reason.
            let failure = &mut self.jobs[idx].failure;
            *failure = Some(match failure.take() {
                Some(existing) => format!("{reason}; {existing}"),
                None => reason.to_string(),
            });
        }
        let leftovers = self.jobs[idx].leftovers.len();
        match state {
            FlowJobState::Completed => self
                .events
                .push(FlowEvent::Completed { job: id, leftovers }),
            FlowJobState::Failed => self.events.push(FlowEvent::Failed {
                job: id,
                reason: reason.to_string(),
            }),
            FlowJobState::Cancelled => self.events.push(FlowEvent::Cancelled {
                job: id,
                reason: reason.to_string(),
            }),
            other => unreachable!("finish_job with non-terminal state {other:?}"),
        }
        self.note_problems(idx, problems);
    }

    /// Append best-effort-teardown details to the job's failure
    /// string (diagnostics only; they change no state).
    pub(super) fn note_problems(&mut self, idx: usize, problems: Vec<String>) {
        if problems.is_empty() {
            return;
        }
        let detail = problems.join("; ");
        let failure = &mut self.jobs[idx].failure;
        *failure = Some(match failure.take() {
            Some(existing) => format!("{existing}; teardown: {detail}"),
            None => format!("teardown: {detail}"),
        });
    }

    /// Admission fixpoint: start every Pending job whose dependencies
    /// all completed; cancel every Pending job with a failed or
    /// cancelled dependency (cascading through chains in one pass).
    pub(super) fn admit_ready(&mut self) {
        loop {
            let mut changed = false;
            for idx in 0..self.jobs.len() {
                if self.jobs[idx].state != FlowJobState::Pending {
                    continue;
                }
                let mut ready = true;
                let mut doomed = false;
                for &dep in &self.jobs[idx].deps {
                    match self.jobs[dep].state {
                        FlowJobState::Completed => {}
                        s if s.is_terminal() => doomed = true,
                        _ => ready = false,
                    }
                }
                if doomed {
                    self.finish_job(idx, FlowJobState::Cancelled, "upstream workflow job failed");
                    changed = true;
                } else if ready {
                    self.start_job(idx);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Register the job with its daemons (rolling back on partial
    /// failure — nodes `0..k` must not stay registered forever when
    /// node `k` refuses), then plan and submit its stage-in tasks.
    fn start_job(&mut self, idx: usize) {
        let id = self.jobs[idx].id;
        let job_nodes = self.jobs[idx].nodes.clone();
        let hosts: Vec<String> = job_nodes
            .iter()
            .map(|&n| self.nodes[n].spec.name.clone())
            .collect();
        // Register the job with every daemon it touches (quota-less;
        // the embedding owns the grants, as Slurm does in the paper).
        let mut registered: Vec<usize> = Vec::new();
        for &n in &job_nodes {
            match self.nodes[n].ctl.register_job(JobDesc {
                job_id: id.0,
                hosts: hosts.clone(),
                limits: vec![],
            }) {
                Ok(()) => registered.push(n),
                Err(e) => {
                    // Roll back what was already registered before
                    // failing the job; a `?`-style early return here
                    // would leak registrations on nodes 0..k.
                    for &r in &registered {
                        let _ = self.nodes[r].ctl.unregister_job(id.0);
                    }
                    self.finish_job(
                        idx,
                        FlowJobState::Failed,
                        &format!(
                            "job registration on {:?} failed: {e}",
                            self.nodes[n].spec.name
                        ),
                    );
                    return;
                }
            }
        }
        self.jobs[idx].registered = true;
        self.jobs[idx].state = FlowJobState::StagingIn;
        match self.submit_phase(idx, Stage::In) {
            Ok(legs) => {
                self.events.push(FlowEvent::StageInStarted {
                    job: id,
                    tasks: legs.len(),
                });
                if legs.is_empty() {
                    self.begin_body(idx);
                } else {
                    let deadline = Instant::now() + self.config.stage_in_timeout;
                    self.run
                        .active
                        .insert(idx, ActiveJob::new(Phase::StagingIn { deadline }, legs));
                }
            }
            Err(reason) => self.finish_job(idx, FlowJobState::Failed, &reason),
        }
    }

    /// Plan one phase against the live daemons and submit its legs. A
    /// planning error submits nothing. A daemon-side rejection
    /// cancels what was already submitted (cleaning any stage-in data
    /// that finished meanwhile) and fails the phase as a unit;
    /// transport errors are treated the same way — per-job failures,
    /// never run-level aborts.
    fn submit_phase(&mut self, idx: usize, stage: Stage) -> Result<Vec<Leg>, String> {
        let job_id = self.jobs[idx].id.0;
        let (nodes, script) = (self.jobs[idx].nodes.clone(), self.jobs[idx].script.clone());
        let planned = self.expand(&nodes, &script, stage, true)?;
        let mut legs: Vec<Leg> = Vec::new();
        for (mut leg, spec) in planned {
            match self.nodes[leg.node].ctl.submit(job_id, spec, None) {
                Ok(task_id) => {
                    leg.task_id = task_id;
                    legs.push(leg);
                }
                Err(e) => {
                    let reason = format!("stage task {} rejected: {e}", leg.label);
                    let (finished, mut problems) = self.cancel_and_drain(&legs);
                    if stage == Stage::In {
                        legs.retain(|t| finished.contains(&(t.node, t.task_id)));
                        problems.extend(self.cleanup_staged(&legs));
                    }
                    self.note_problems(idx, problems);
                    return Err(reason);
                }
            }
        }
        Ok(legs)
    }

    /// Move the job into its Running phase: the body executes on a
    /// worker thread (panics caught and mapped to failures) and
    /// reports through the run loop's channel, so other jobs' staging
    /// and bodies proceed meanwhile.
    fn begin_body(&mut self, idx: usize) {
        self.jobs[idx].state = FlowJobState::Running;
        self.events.push(FlowEvent::Started {
            job: self.jobs[idx].id,
        });
        let body = self.jobs[idx].body.take().expect("body taken once");
        let tx = self.run.tx.clone();
        let body_done = Arc::clone(&self.body_done);
        self.run.threads.push(std::thread::spawn(move || {
            let result = match body {
                JobBody::Sleep(d) => {
                    std::thread::sleep(d);
                    Ok(())
                }
                JobBody::Run(f) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                    .unwrap_or_else(|panic| {
                        Err(panic
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "job body panicked".into()))
                    }),
            };
            let _ = tx.send((idx, result));
            body_done.wake();
        }));
        self.run
            .active
            .insert(idx, ActiveJob::new(Phase::Running, Vec::new()));
    }

    /// A job body returned: fail the job, or plan and submit its
    /// stage-out.
    pub(super) fn body_finished(&mut self, idx: usize, result: Result<(), String>) {
        self.run.active.remove(&idx);
        if let Err(reason) = result {
            // Staged data is deliberately left in place: a failed
            // application's inputs and partial outputs are what the
            // operator debugs with.
            self.finish_job(
                idx,
                FlowJobState::Failed,
                &format!("job body failed: {reason}"),
            );
            return;
        }
        self.jobs[idx].state = FlowJobState::StagingOut;
        match self.submit_phase(idx, Stage::Out) {
            Ok(legs) if legs.is_empty() => self.finish_job(idx, FlowJobState::Completed, ""),
            Ok(legs) => {
                self.events.push(FlowEvent::StageOutStarted {
                    job: self.jobs[idx].id,
                    tasks: legs.len(),
                });
                self.run
                    .active
                    .insert(idx, ActiveJob::new(Phase::StagingOut, legs));
            }
            Err(reason) => {
                // Stage-out planning/submission failure leaves the
                // data on the nodes for recovery; the job completed.
                self.jobs[idx].leftovers.push(reason);
                self.finish_job(idx, FlowJobState::Completed, "");
            }
        }
    }

    /// Route one staging completion to the job that owns it and
    /// advance that job's state machine.
    pub(super) fn staging_event(&mut self, node: usize, task_id: u64, stats: TaskStats) {
        let owner = self.run.active.iter().find_map(|(idx, a)| {
            let pos = a
                .outstanding
                .iter()
                .position(|t| t.node == node && t.task_id == task_id)?;
            Some((*idx, pos))
        });
        let Some((idx, pos)) = owner else {
            return; // stale completion of an already-drained task
        };
        let mut job = self.run.active.remove(&idx).expect("found above");
        let done = job.outstanding.swap_remove(pos);
        if stats.state != TaskState::Finished {
            let detail = format!(
                "{} (task {task_id}) ended {:?} ({:?})",
                done.label, stats.state, stats.error
            );
            match job.phase {
                Phase::StagingIn { .. } => self.kill_staging_in(
                    idx,
                    job,
                    FlowJobState::Failed,
                    &format!("stage-in failed: {detail}"),
                ),
                Phase::StagingOut => self.abandon_stage_out(idx, job, detail),
                Phase::Running => unreachable!("Running jobs have no outstanding staging"),
            }
            return;
        }
        match job.phase {
            Phase::StagingIn { .. } => job.staged.push(done),
            Phase::StagingOut => {
                // Release the local source of a successful copy-based
                // leg — its analog of `Move` freeing staged capacity.
                // The Remove joins the outstanding set so completion
                // still gates on it.
                if let Some((nsid, path)) = &done.release {
                    let label = format!(
                        "release {nsid}://{path} on {:?}",
                        self.nodes[done.node].spec.name
                    );
                    let job_id = self.jobs[idx].id.0;
                    let spec = remove_spec(nsid, path);
                    match self.nodes[done.node].ctl.submit(job_id, spec, None) {
                        Ok(task_id) => job.outstanding.push(Leg {
                            node: done.node,
                            task_id,
                            dst: None,
                            release: None,
                            label,
                        }),
                        Err(e) => self.jobs[idx]
                            .leftovers
                            .push(format!("{label} not submitted: {e}")),
                    }
                }
            }
            Phase::Running => unreachable!("Running jobs have no outstanding staging"),
        }
        if !job.outstanding.is_empty() {
            self.run.active.insert(idx, job);
        } else if matches!(job.phase, Phase::StagingIn { .. }) {
            self.begin_body(idx);
        } else {
            self.finish_job(idx, FlowJobState::Completed, "");
        }
    }
}
