//! The run loop's one blocking point. The event loop never polls
//! individual tasks: each daemon with outstanding staging work holds
//! one **parked** wire-v7 `WaitAny` (issued through a
//! [`norns_ipc::CtlClient`] connection) covering *all* of its
//! outstanding task ids, and the executor sleeps on a single epoll set
//! spanning every daemon's control socket. A wait is reissued only
//! when the outstanding set gains an uncovered id, so the wire cost
//! scales with completions, not with tasks × poll interval. Job bodies
//! run on threads of their own and wake the same epoll set when they
//! finish, so the loop has no polling interval at all.

use std::io;
use std::time::Instant;

use norns_ipc::ClientError;
use norns_proto::{ErrorCode, Response, MAX_WAIT_SET};
use polling::Event;

use super::{Next, Phase, WorkflowExecutor, KEY_BODY_DONE};

impl WorkflowExecutor {
    /// Block until the next event: a body completion or a staging
    /// completion on some daemon. Each busy daemon holds one parked
    /// forever-wait (wire v7 pipelining) covering all its outstanding
    /// ids; the executor epolls every control socket at once and
    /// drains whichever answers.
    pub(super) fn await_event(&mut self) -> Next {
        if let Some(next) = self.ready.pop_front() {
            return next;
        }
        let active = &self.run.active;
        let mut busy: Vec<usize> = active
            .values()
            .flat_map(|a| a.outstanding.iter().map(|t| t.node))
            .collect();
        busy.sort_unstable();
        busy.dedup();
        let earliest_deadline: Option<Instant> = active
            .values()
            .filter_map(|a| match a.phase {
                Phase::StagingIn { deadline } => Some(deadline),
                _ => None,
            })
            .min();
        if busy.is_empty() {
            // Only job bodies are in flight: their completions are the
            // only possible next event, so park on the channel.
            debug_assert!(
                active.values().any(|a| matches!(a.phase, Phase::Running)),
                "active jobs but nothing to wait on"
            );
            let (idx, result) = self.run.rx.recv().expect("the executor holds a sender");
            return Next::Body(idx, result);
        }
        // Make sure every busy daemon has a parked wait covering all
        // of its outstanding ids (across every job).
        for &node in &busy {
            let mut ids: Vec<u64> = active
                .values()
                .flat_map(|a| a.outstanding.iter())
                .filter(|t| t.node == node)
                .map(|t| t.task_id)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.truncate(MAX_WAIT_SET);
            let n = &mut self.nodes[node];
            if n.wait_tag.is_some() && ids.iter().all(|id| n.covered.contains(id)) {
                continue;
            }
            // A superseded wait may still fire for a task the new
            // one also covers; `delivered` dedupes those.
            self.wait_round_trips += 1;
            match n.ctl.issue_wait_any(&ids, 0) {
                Ok(tag) => {
                    n.wait_tag = Some(tag);
                    n.covered = ids.into_iter().collect();
                }
                // The daemon can no longer take requests: degrade
                // its jobs, keep driving the others.
                Err(e) => {
                    return Next::DaemonLost {
                        node,
                        error: e.to_string(),
                    }
                }
            }
        }
        // Drain anything that already arrived before sleeping.
        for &node in &busy {
            self.drain_node(node);
        }
        if let Some(next) = self.ready.pop_front() {
            return next;
        }
        // Sleep on the epoll set — every daemon's socket plus the
        // body-completion waker — until the nearest stage-in deadline
        // (or forever during stage-out).
        let until = earliest_deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let mut events: Vec<Event> = Vec::new();
        match self.poller.wait(&mut events, until) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Next::Tick,
            Err(e) => panic!("epoll wait failed: {e}"),
        }
        for ev in &events {
            let node = ev.key as usize;
            if ev.key == KEY_BODY_DONE {
                // The run loop collects the result from the channel.
                self.body_done.drain();
            } else if node < self.nodes.len() {
                self.drain_node(node);
            }
        }
        self.ready.pop_front().unwrap_or(Next::Tick)
    }

    /// Pull every decoded response off one daemon's pipelined
    /// connection and queue the resulting events. Completions a
    /// superseded wait already announced are dropped (task ids are
    /// never reused by a daemon); stale bounded-wait timeouts are
    /// ignored.
    fn drain_node(&mut self, node: usize) {
        let drained = match self.nodes[node].ctl.try_drain() {
            Ok(d) => d,
            Err(e) => {
                self.ready.push_back(Next::DaemonLost {
                    node,
                    error: e.to_string(),
                });
                return;
            }
        };
        for (tag, response) in drained {
            let n = &mut self.nodes[node];
            if n.wait_tag == Some(tag) {
                n.wait_tag = None;
                n.covered.clear();
            }
            match response {
                Response::TaskCompleted { task_id, stats } if n.delivered.insert(task_id) => {
                    self.ready.push_back(Next::Staging {
                        node,
                        task_id,
                        stats,
                    });
                }
                Response::Error {
                    code: ErrorCode::Timeout,
                    ..
                } => {}
                Response::Error { code, message } => {
                    self.ready.push_back(Next::DaemonLost {
                        node,
                        error: ClientError::Remote { code, message }.to_string(),
                    });
                }
                // A pipelined wait only answers with TaskCompleted or
                // Error; anything else is a stashed leftover from a
                // blocking call and carries no event.
                _ => {}
            }
        }
    }
}
