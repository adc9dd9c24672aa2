//! The run loop's one blocking point, and where every wait is born.
//! The event loop never polls individual tasks: every task the
//! executor submits has one **parked** wire-v7 `WaitTask` (timeout 0:
//! forever) issued right behind its submission on the node's pipelined
//! [`norns_ipc::CtlClient`], and the executor sleeps on a single epoll
//! set spanning every daemon's control socket. An answer is routed back
//! to its task by its tag, so the wire cost is one wait per task, sent
//! once. Job bodies run on threads of their own and wake the same epoll
//! set when they finish, so the loop has no polling interval at all.
//! A cancelled leg's answer and a §III removal's come back the same way.

use std::io;
use std::os::unix::io::AsRawFd;
use std::time::Instant;

use norns_ipc::client::expect_stats;
use norns_ipc::ClientError;
use norns_proto::TaskSpec;
use polling::Event;

use super::{Next, WorkflowExecutor, KEY_BODY_DONE};
use crate::job::JobState;

impl WorkflowExecutor {
    /// Submit one wire task on `node` and park its wait right behind
    /// it, on the same connection; its answer reaches the run loop as a
    /// [`Next::Staging`] through [`WorkflowExecutor::pump`]. Every task
    /// the executor starts — a stage leg or a §III cleanup removal —
    /// comes through here, so each costs exactly one wait.
    pub(super) fn submit_task(
        &mut self,
        node: usize,
        job_id: u64,
        spec: TaskSpec,
    ) -> Result<u64, ClientError> {
        let n = &mut self.nodes[node];
        let task_id = n.ctl.submit(job_id, spec, None)?;
        let tag = n.ctl.issue_wait(task_id, 0)?;
        n.waits.insert(tag, task_id);
        self.wait_round_trips += 1;
        Ok(task_id)
    }

    /// Block until the next event: a staging completion on some
    /// daemon, a lost daemon, or — as a [`Next::Tick`] — a body
    /// completion (its result waits in the run loop's channel, which
    /// the loop drains), a passed stage-in deadline or `grace`.
    pub(super) fn await_event(&mut self, grace: Option<Instant>) -> Next {
        if let Some(next) = self.ready.pop_front() {
            return next;
        }
        // Sleep until the nearest stage-in deadline (or forever during
        // stage-out and while only bodies run).
        let earliest_deadline = self
            .jobs
            .iter()
            .filter(|j| j.life.state == JobState::StagingIn)
            .filter_map(|j| j.deadline)
            .chain(grace)
            .min();
        self.pump(earliest_deadline);
        self.ready.pop_front().unwrap_or(Next::Tick)
    }

    /// Queue whatever the daemons have answered. Answers a blocking
    /// call already read off a connection sit in its client, where
    /// epoll cannot see them, so every node still owed a wait is
    /// drained first; only if that found nothing does the pump sleep on
    /// the epoll set — every node's connection plus the body waker —
    /// until something arrives or `until` passes.
    fn pump(&mut self, until: Option<Instant>) {
        let queued = self.ready.len();
        for node in 0..self.nodes.len() {
            if !self.nodes[node].waits.is_empty() {
                self.drain_node(node, false);
            }
        }
        if self.ready.len() > queued {
            return;
        }
        let timeout = until.map(|d| d.saturating_duration_since(Instant::now()));
        let mut events: Vec<Event> = Vec::new();
        match self.poller.wait(&mut events, timeout) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return,
            Err(e) => panic!("epoll wait failed: {e}"),
        }
        for ev in &events {
            if ev.key == KEY_BODY_DONE {
                // The run loop collects the result from the channel.
                self.body_done.drain();
            } else if (ev.key as usize) < self.nodes.len() {
                self.drain_node(ev.key as usize, ev.hangup);
            }
        }
    }

    /// Queue every wait answer that arrived on one node's connection,
    /// each as the outcome of the task its tag was issued for. A daemon
    /// that hung up or broke the protocol is lost for good: its
    /// connection leaves the epoll set, the waits it still owed are
    /// dropped, and a [`Next::DaemonLost`] tells the run loop, which
    /// degrades the jobs those waits belonged to.
    fn drain_node(&mut self, node: usize, hangup: bool) {
        let n = &mut self.nodes[node];
        let lost = match n.ctl.try_drain() {
            Ok(answers) => {
                for (tag, response) in answers {
                    if let Some(task_id) = n.waits.remove(&tag) {
                        self.ready.push_back(Next::Staging {
                            node,
                            task_id,
                            outcome: expect_stats(response),
                        });
                    }
                }
                hangup.then(|| "daemon closed the connection".to_string())
            }
            Err(e) => Some(e.to_string()),
        };
        if let Some(error) = lost {
            let _ = self.poller.delete(n.ctl.as_raw_fd());
            n.waits.clear();
            self.ready.push_back(Next::DaemonLost { node, error });
        }
    }
}
