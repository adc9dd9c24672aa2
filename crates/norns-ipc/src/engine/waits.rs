//! Waits: one mechanism for every caller — a one-shot callback
//! subscribed in the `wait_subs` registry, watching exactly one task.
//! Every terminal transition funnels through `finish_task` or
//! `mark_cancelled`, which notify the inverted `by_task` index. A wait
//! that is already settled — a terminal or unknown task, a refused
//! requester — never subscribes: it is answered on the spot as
//! [`Subscribed::Now`], and its callback is dropped unrun.
//!
//! The engine owns no clock. The blocking [`Engine::wait`] returns a
//! `Now` answer as it is, and otherwise subscribes a callback that
//! sends into a channel and parks the caller on it with its own
//! `recv_timeout`; the reactor daemon, which must not pin a thread per
//! parked `WaitTask`, answers a `Now` in the same batch as the read's
//! other replies and, for a parked wait, subscribes a callback that
//! queues a response, keeps each deadline in its own epoll timeout and
//! calls [`Engine::expire_wait`] when one passes. Semantics are the
//! same either way: an expired wait delivers the in-flight snapshot,
//! and a zero timeout parks forever.

use std::collections::HashMap;
use std::time::Duration;

use norns_proto::{ErrorCode, TaskStats};

use super::{Engine, EngineError};

/// What a wait resolves to: the task's stats, or why it could not be
/// waited on.
type WaitResult = Result<TaskStats, EngineError>;

/// Callback behind a parked wait: invoked exactly once — from the
/// worker thread that drives the terminal transition, or from
/// whichever thread expires the wait. A wait that settles while it
/// subscribes is answered as [`Subscribed::Now`] instead and its
/// callback never runs. Callbacks must be quick and non-blocking (the
/// reactor's pushes a completion into a queue and wakes an epoll loop;
/// the blocking call's sends into a channel).
pub type WaitCallback = Box<dyn FnOnce(WaitResult) + Send>;

/// What subscribing a wait came to.
pub enum Subscribed {
    /// Already settled — a terminal or unknown task, or a requester the
    /// task refuses: the answer itself. The callback was dropped unrun.
    Now(WaitResult),
    /// Parked under this subscription id (cancel it with
    /// [`Engine::unsubscribe_wait`] if the subscriber goes away, bound
    /// it with [`Engine::expire_wait`]): the callback owns the answer
    /// and runs exactly once — possibly already, from a completion that
    /// raced the subscription.
    Parked(u64),
}

/// One parked wait.
struct WaitSub {
    task_id: u64,
    callback: WaitCallback,
}

/// Registry of parked waits. `by_task` is the inverted index a
/// terminal transition consults; removal from `subs` under the lock is
/// what guarantees each callback fires exactly once even when a
/// completion, a timeout and an unsubscribe race.
#[derive(Default)]
pub(super) struct WaitSubs {
    next_id: u64,
    subs: HashMap<u64, WaitSub>,
    by_task: HashMap<u64, Vec<u64>>,
}

impl WaitSubs {
    /// Remove a subscription and its index entry.
    fn remove(&mut self, sub_id: u64) -> Option<WaitSub> {
        let sub = self.subs.remove(&sub_id)?;
        if let Some(v) = self.by_task.get_mut(&sub.task_id) {
            v.retain(|s| *s != sub_id);
            if v.is_empty() {
                self.by_task.remove(&sub.task_id);
            }
        }
        Some(sub)
    }
}

impl Engine {
    /// Block until the task reaches a terminal state or the timeout
    /// expires (`timeout_usec == 0` → wait forever): answer a settled
    /// wait on the spot, otherwise subscribe a channel-sending callback
    /// and park the calling thread on the channel. An expired timeout
    /// returns the in-flight snapshot; `None` means the id is unknown.
    pub fn wait(&self, task_id: u64, timeout_usec: u64) -> Option<TaskStats> {
        let mut rx = None;
        let sub = self.subscribe_wait(task_id, || {
            let (tx, chan) = std::sync::mpsc::channel();
            rx = Some(chan);
            Box::new(move |result| {
                let _ = tx.send(result);
            })
        });
        let sub_id = match sub {
            Subscribed::Now(result) => return result.ok(),
            Subscribed::Parked(sub_id) => sub_id,
        };
        let rx = rx.expect("a parked wait built its callback");
        if timeout_usec > 0 {
            match rx.recv_timeout(Duration::from_micros(timeout_usec)) {
                Ok(result) => return result.ok(),
                // `take_sub` inside decides a completion racing the
                // deadline: whichever side gets the subscription sends
                // the one result the `recv` below picks up.
                Err(_) => self.expire_wait(sub_id),
            }
        }
        rx.recv().ok().and_then(Result::ok)
    }

    /// Callback form of [`Engine::wait`] with the user-socket
    /// ownership rule applied (see [`Engine::query_scoped`]). A task
    /// that is already terminal or unknown, and a requester the rule
    /// refuses, come back as [`Subscribed::Now`] with `callback`
    /// dropped unrun; otherwise the wait parks and `callback` is
    /// invoked exactly once.
    pub fn wait_task_async(
        &self,
        task_id: u64,
        requester: Option<u64>,
        callback: WaitCallback,
    ) -> Subscribed {
        if let Err(e) = self.check_owner(task_id, requester) {
            return Subscribed::Now(Err(e));
        }
        self.subscribe_wait(task_id, || callback)
    }

    /// Drop a parked wait whose subscriber went away (connection
    /// closed). Returns whether the subscription was still live; its
    /// callback is dropped unfired.
    pub fn unsubscribe_wait(&self, sub_id: u64) -> bool {
        self.take_sub(sub_id).is_some()
    }

    /// Parked waits currently registered (observability for tests).
    pub fn parked_waits(&self) -> usize {
        self.wait_subs.lock().subs.len()
    }

    /// The answer a wait on `task_id` already has: the stats of a
    /// terminal task, or the refusal of an unknown one.
    fn settled(&self, task_id: u64) -> Option<WaitResult> {
        match self.tasks.snapshot(task_id) {
            Some(stats) if stats.state.is_terminal() => Some(Ok(stats)),
            Some(_) => None,
            None => Some(Err(EngineError::not_found(format!("task {task_id}")))),
        }
    }

    /// Register a wait, unless it is already settled: then the answer
    /// comes back as [`Subscribed::Now`] and `callback` is never even
    /// built.
    fn subscribe_wait(&self, task_id: u64, callback: impl FnOnce() -> WaitCallback) -> Subscribed {
        if let Some(result) = self.settled(task_id) {
            return Subscribed::Now(result);
        }
        let sub_id = {
            let mut ws = self.wait_subs.lock();
            ws.next_id += 1;
            let sub_id = ws.next_id;
            ws.by_task.entry(task_id).or_default().push(sub_id);
            let callback = callback();
            ws.subs.insert(sub_id, WaitSub { task_id, callback });
            sub_id
        };
        // Subscribe *then* look again: a completion racing this
        // registration either sees the sub in `by_task` (and fires it)
        // or the second look sees the terminal state — a lost wakeup is
        // impossible, and remove-under-lock in `take_sub` picks the
        // single answering side. If the completion won, its callback
        // owns the answer and the wait counts as parked.
        match self.settled(task_id) {
            Some(result) if self.take_sub(sub_id).is_some() => Subscribed::Now(result),
            _ => Subscribed::Parked(sub_id),
        }
    }

    /// Remove a subscription; whoever gets the `WaitSub` back owns the
    /// one permitted callback invocation.
    fn take_sub(&self, sub_id: u64) -> Option<WaitSub> {
        self.wait_subs.lock().remove(sub_id)
    }

    /// Fire every subscription watching `task_id`. Called after a
    /// terminal transition is visible in the task table; callbacks run
    /// outside the registry lock.
    pub(super) fn notify_task_waiters(&self, task_id: u64, stats: &TaskStats) {
        let callbacks: Vec<WaitCallback> = {
            let mut ws = self.wait_subs.lock();
            let sub_ids = ws.by_task.remove(&task_id).unwrap_or_default();
            sub_ids
                .into_iter()
                .filter_map(|sid| ws.subs.remove(&sid))
                .map(|sub| sub.callback)
                .collect()
        };
        for cb in callbacks {
            cb(Ok(stats.clone()));
        }
    }

    /// Fail every wait still parked. Shutdown calls this once every
    /// task is terminal: leftovers are registration races, and they
    /// must not dangle past it.
    pub(super) fn fail_parked_waits(&self) {
        let leftovers: Vec<WaitSub> = {
            let mut ws = self.wait_subs.lock();
            ws.by_task.clear();
            ws.subs.drain().map(|(_, sub)| sub).collect()
        };
        for sub in leftovers {
            (sub.callback)(Err(EngineError::new(
                ErrorCode::SystemError,
                "daemon shutting down",
            )));
        }
    }

    /// A parked wait's deadline passed: deliver the task's in-flight
    /// snapshot. Whoever keeps the deadline calls this — the blocking
    /// call after its `recv_timeout`, a reactor from its deadline heap.
    /// A stale id (sub already fired or unsubscribed) is a no-op —
    /// `take_sub` decides.
    pub fn expire_wait(&self, sub_id: u64) {
        let Some(sub) = self.take_sub(sub_id) else {
            return;
        };
        let result = self
            .tasks
            .snapshot(sub.task_id)
            .ok_or_else(|| EngineError::not_found(format!("task {}", sub.task_id)));
        (sub.callback)(result);
    }
}
