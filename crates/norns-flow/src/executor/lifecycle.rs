//! The apply site of the one job lifecycle, [`crate::job`]: every event
//! a job meets — its dependencies settled, its registration, a phase
//! submitted, a leg ended, its deadline, its body — goes through the
//! table in [`WorkflowExecutor::step`], which carries out the actions
//! it returns against the live daemons. Nothing here blocks (waiting is
//! [`super::wait`]'s job), and what undoes work is
//! [`super::teardown`]'s.

use std::sync::Arc;
use std::time::Instant;

use norns_ipc::ClientError;
use norns_proto::{JobDesc, TaskState, TaskStats};

use super::{FlowEvent, JobBody, WorkflowExecutor};
use crate::job::{self, Action, Event, JobState};
use crate::plan::Stage;

impl WorkflowExecutor {
    /// Step job `idx` through the table on `event` and carry out the
    /// actions it returns, in order. `notes` is what the event reports:
    /// the detail of a terminal reason, or the leftovers it records.
    /// Wire problems met on the way are recorded on the job, never
    /// propagated — one job's sick daemon must not strand the others.
    pub(super) fn step(&mut self, idx: usize, event: Event, notes: Vec<String>) {
        let next = job::step(self.jobs[idx].life, event);
        self.jobs[idx].life = next.job;
        let mut problems = Vec::new();
        for action in next.actions {
            match action {
                Action::Register => self.register(idx),
                Action::SubmitStageIn => self.submit_phase(idx, Stage::In),
                Action::StartBody => self.begin_body(idx),
                Action::SubmitStageOut => self.submit_phase(idx, Stage::Out),
                Action::CancelOutstanding => problems.extend(self.cancel_legs(idx)),
                Action::RemoveLanded => problems.extend(self.remove_landed(idx)),
                Action::RecordLeftover => self.jobs[idx].leftovers.extend(notes.iter().cloned()),
                Action::Unregister => problems.extend(self.unregister(idx)),
                Action::Emit(why) => self.emit_end(idx, why, &notes),
                Action::CancelDependents => {
                    for j in 0..self.jobs.len() {
                        if self.jobs[j].deps.contains(&idx) {
                            self.settle_deps(j);
                        }
                    }
                }
            }
        }
        self.note_problems(idx, problems);
    }

    /// The terminal event, and for a job that did not complete its
    /// reason: the class's text, then the event's detail.
    fn emit_end(&mut self, idx: usize, why: Option<&'static str>, notes: &[String]) {
        let id = self.jobs[idx].id;
        let Some(why) = why else {
            let leftovers = self.jobs[idx].leftovers.len();
            return self
                .events
                .push(FlowEvent::Completed { job: id, leftovers });
        };
        let mut reason = why.to_string();
        if !notes.is_empty() {
            reason = format!("{reason}: {}", notes.join("; "));
        }
        self.jobs[idx].failure = Some(reason.clone());
        self.events.push(match self.jobs[idx].life.state {
            JobState::Cancelled => FlowEvent::Cancelled { job: id, reason },
            _ => FlowEvent::Failed { job: id, reason },
        });
    }

    /// Append best-effort-teardown details to the job's failure
    /// string (diagnostics only; they change no state).
    fn note_problems(&mut self, idx: usize, problems: Vec<String>) {
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

    /// Admission: every Pending job whose dependencies settled.
    pub(super) fn admit_ready(&mut self) {
        for idx in 0..self.jobs.len() {
            self.settle_deps(idx);
        }
    }

    /// A Pending job's dependencies settled once one of them ended
    /// without completing ("if a workflow job fails; then all
    /// subsequent jobs are cancelled") or all of them completed.
    fn settle_deps(&mut self, idx: usize) {
        if self.jobs[idx].life.state != JobState::Pending {
            return;
        }
        let states: Vec<JobState> = self.jobs[idx]
            .deps
            .iter()
            .map(|&d| self.jobs[d].life.state)
            .collect();
        let done = |s: &JobState| *s == JobState::Completed;
        if states.iter().any(|s| s.is_terminal() && !done(s)) {
            self.step(idx, Event::Deps { doomed: true }, Vec::new());
        } else if states.iter().all(done) {
            self.step(idx, Event::Deps { doomed: false }, Vec::new());
        }
    }

    /// Register the job with every daemon it touches (quota-less; the
    /// embedding owns the grants, as Slurm does in the paper), rolling
    /// back on a partial failure — nodes `0..k` must not stay
    /// registered forever when node `k` refuses.
    fn register(&mut self, idx: usize) {
        let id = self.jobs[idx].id.0;
        let job_nodes = self.jobs[idx].nodes.clone();
        let hosts: Vec<String> = job_nodes
            .iter()
            .map(|&n| self.nodes[n].spec.name.clone())
            .collect();
        for (k, &n) in job_nodes.iter().enumerate() {
            let desc = JobDesc {
                job_id: id,
                hosts: hosts.clone(),
                limits: vec![],
            };
            if let Err(e) = self.nodes[n].ctl.register_job(desc) {
                for &r in &job_nodes[..k] {
                    let _ = self.nodes[r].ctl.unregister_job(id);
                }
                let note = format!("on {:?}: {e}", self.nodes[n].spec.name);
                return self.step(idx, Event::Registered { ok: false }, vec![note]);
            }
        }
        self.step(idx, Event::Registered { ok: true }, Vec::new());
    }

    /// Plan one phase against the live daemons and submit its legs. A
    /// planning error submits nothing; a refused leg — a daemon-side
    /// rejection or a transport error — is reported to the table with
    /// the legs that went out, and a stage-in stops there (one refusal
    /// kills it) while a stage-out submits the rest.
    fn submit_phase(&mut self, idx: usize, stage: Stage) {
        let job_id = self.jobs[idx].id.0;
        let (nodes, script) = (self.jobs[idx].nodes.clone(), self.jobs[idx].script.clone());
        let mut refused = Vec::new();
        let mut legs = Vec::new();
        match self.expand(&nodes, &script, stage, true) {
            Err(e) => refused.push(e),
            Ok(planned) => {
                for (mut leg, spec) in planned {
                    match self.submit_task(leg.node, job_id, spec) {
                        Ok(task_id) => {
                            leg.task_id = task_id;
                            legs.push(leg);
                        }
                        Err(e) => {
                            refused.push(format!("stage task {} rejected: {e}", leg.label));
                            if stage == Stage::In {
                                break;
                            }
                        }
                    }
                }
            }
        }
        let (job, tasks) = (self.jobs[idx].id, legs.len());
        let started = match stage {
            Stage::In => refused
                .is_empty()
                .then_some(FlowEvent::StageInStarted { job, tasks }),
            Stage::Out => (tasks > 0).then_some(FlowEvent::StageOutStarted { job, tasks }),
        };
        self.events.extend(started);
        self.jobs[idx].legs.extend(legs);
        let event = Event::Submitted {
            legs: tasks,
            refused: refused.len(),
        };
        self.step(idx, event, refused);
        if self.jobs[idx].life.state == JobState::StagingIn {
            self.jobs[idx].deadline = Some(Instant::now() + self.config.stage_in_timeout);
        }
    }

    /// The job's body executes on a worker thread (panics caught and
    /// mapped to failures) and reports through the run loop's channel,
    /// so other jobs' staging and bodies proceed meanwhile. What its
    /// stage-in landed is its input from here on.
    fn begin_body(&mut self, idx: usize) {
        self.jobs[idx].landed.clear();
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
    }

    /// A job body returned. A failed one leaves the staged data in
    /// place: a failed application's inputs and partial outputs are
    /// what the operator debugs with.
    pub(super) fn body_finished(&mut self, idx: usize, result: Result<(), String>) {
        let ok = result.is_ok();
        self.step(
            idx,
            Event::BodyEnded { ok },
            result.err().into_iter().collect(),
        );
    }

    /// Route one task's wait answer to the job whose leg it is, as that
    /// leg's end. A wait the daemon answers with an error (`Busy` past
    /// its per-connection cap on parked waits, `SystemError` while it
    /// shuts down) fails the leg with the daemon's code, like a refused
    /// submission; the task itself may still be queued, so it gets a
    /// best-effort cancel. An answer no leg owns is a §III removal's.
    pub(super) fn leg_ended(
        &mut self,
        node: usize,
        task_id: u64,
        outcome: Result<TaskStats, ClientError>,
    ) {
        let owner = self.jobs.iter().enumerate().find_map(|(idx, j)| {
            let pos = j
                .legs
                .iter()
                .position(|t| t.node == node && t.task_id == task_id)?;
            Some((idx, pos))
        });
        let Some((idx, pos)) = owner else {
            return;
        };
        let leg = self.jobs[idx].legs.swap_remove(pos);
        let failure = match outcome {
            Ok(stats) if stats.state == TaskState::Finished => None,
            Ok(stats) => Some(format!(
                "{} (task {task_id}) ended {:?} ({:?})",
                leg.label, stats.state, stats.error
            )),
            Err(e) => {
                let _ = self.nodes[node].ctl.cancel(task_id);
                Some(format!("{} (task {task_id}) wait failed: {e}", leg.label))
            }
        };
        let ok = failure.is_none();
        if ok && leg.dst.is_some() {
            self.jobs[idx].landed.push(leg);
        }
        self.step(idx, Event::LegEnded { ok }, failure.into_iter().collect());
    }
}
