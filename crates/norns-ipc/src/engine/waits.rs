//! Waits: one mechanism for every caller — a one-shot callback
//! subscribed in the `wait_subs` registry. Every terminal transition
//! funnels through `finish_task` or `mark_cancelled`, which notify the
//! inverted `by_task` index. A wait that is already settled — a
//! terminal or unknown task, a refused requester — never subscribes:
//! it is answered on the spot as [`Subscribed::Now`], and its callback
//! is dropped unrun.
//!
//! The engine owns no clock. The blocking calls return a `Now` answer
//! as it is, and otherwise subscribe a callback that sends into a
//! channel and park the caller on it with their own `recv_timeout`;
//! the reactor daemon, which must not pin a thread per parked
//! `WaitTask` / `WaitAny`, answers a `Now` in the same batch as the
//! read's other replies and, for a parked wait, subscribes a callback
//! that queues a response, keeps each deadline in its own epoll
//! timeout and calls [`Engine::expire_wait`] when one passes.
//! Semantics are the same either way: an expired `WaitTask` delivers
//! the in-flight snapshot, an expired `WaitAny` delivers
//! [`ErrorCode::Timeout`], and a zero timeout parks forever.

use std::collections::HashMap;
use std::time::Duration;

use norns_proto::{ErrorCode, TaskStats};

use super::{Engine, EngineError};

/// What a wait resolves to: the task that ended it and its stats, or
/// why it could not be waited on.
type WaitResult = Result<(u64, TaskStats), EngineError>;

/// Callback behind a parked wait: invoked exactly once — from the
/// worker thread that drives the terminal transition, or from
/// whichever thread expires the wait. A wait that settles while it
/// subscribes is answered as [`Subscribed::Now`] instead and its
/// callback never runs. Callbacks must be quick and non-blocking (the
/// reactor's pushes a completion into a queue and wakes an epoll loop;
/// the blocking calls' sends into a channel).
pub type WaitCallback = Box<dyn FnOnce(WaitResult) + Send>;

/// What subscribing a wait came to.
pub enum Subscribed {
    /// Already settled — a terminal or unknown task, or a requester the
    /// set refuses: the answer itself. The callback was dropped unrun.
    Now(Result<(u64, TaskStats), EngineError>),
    /// Parked under this subscription id (cancel it with
    /// [`Engine::unsubscribe_wait`] if the subscriber goes away, bound
    /// it with [`Engine::expire_wait`]): the callback owns the answer
    /// and runs exactly once — possibly already, from a completion that
    /// raced the subscription.
    Parked(u64),
}

/// Timeout semantics differ between the two wait ops: an expired
/// `WaitTask` returns the in-flight snapshot, an expired `WaitAny` is
/// [`ErrorCode::Timeout`].
enum WaitKind {
    Single,
    Any,
}

/// One parked wait.
struct WaitSub {
    kind: WaitKind,
    task_ids: Vec<u64>,
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
    /// Remove a subscription and its index entries.
    fn remove(&mut self, sub_id: u64) -> Option<WaitSub> {
        let sub = self.subs.remove(&sub_id)?;
        for t in &sub.task_ids {
            if let Some(v) = self.by_task.get_mut(t) {
                v.retain(|s| *s != sub_id);
                if v.is_empty() {
                    self.by_task.remove(t);
                }
            }
        }
        Some(sub)
    }
}

impl Engine {
    /// Block until the task reaches a terminal state or the timeout
    /// expires (`timeout_usec == 0` → wait forever). An expired
    /// timeout returns the in-flight snapshot; `None` means the id is
    /// unknown.
    pub fn wait(&self, task_id: u64, timeout_usec: u64) -> Option<TaskStats> {
        self.wait_parked(WaitKind::Single, &[task_id], timeout_usec)
            .ok()
            .map(|(_, stats)| stats)
    }

    /// Block until *any* task of the set reaches a terminal state —
    /// the wire's v5 `WaitAny` batch-wait op. Returns the first
    /// completion as `(task_id, stats)`; when several tasks are
    /// already terminal, the earliest in `task_ids` wins.
    ///
    /// One parked wait covers the whole set, so an orchestrator
    /// watching N staging tasks costs one blocked call, not N pollers.
    /// `timeout_usec == 0` means wait forever; a nonzero timeout that
    /// expires yields [`ErrorCode::Timeout`]. An unknown id yields
    /// [`ErrorCode::NotFound`]; an empty set is [`ErrorCode::BadArgs`].
    pub fn wait_any(
        &self,
        task_ids: &[u64],
        timeout_usec: u64,
    ) -> Result<(u64, TaskStats), EngineError> {
        self.wait_any_scoped(task_ids, timeout_usec, None)
    }

    /// [`Engine::wait_any`] with the user-socket ownership rule
    /// applied: every id in the set must belong to `requester`.
    pub fn wait_any_scoped(
        &self,
        task_ids: &[u64],
        timeout_usec: u64,
        requester: Option<u64>,
    ) -> Result<(u64, TaskStats), EngineError> {
        self.check_wait_set(task_ids, requester)?;
        self.wait_parked(WaitKind::Any, task_ids, timeout_usec)
    }

    /// Answer a settled wait on the spot; otherwise subscribe a
    /// channel-sending callback and park the calling thread on the
    /// channel.
    fn wait_parked(&self, kind: WaitKind, task_ids: &[u64], timeout_usec: u64) -> WaitResult {
        let mut rx = None;
        let sub = self.subscribe_wait(kind, task_ids, || {
            let (tx, chan) = std::sync::mpsc::channel();
            rx = Some(chan);
            Box::new(move |result| {
                let _ = tx.send(result);
            })
        });
        let sub_id = match sub {
            Subscribed::Now(result) => return result,
            Subscribed::Parked(sub_id) => sub_id,
        };
        let rx = rx.expect("a parked wait built its callback");
        if timeout_usec > 0 {
            match rx.recv_timeout(Duration::from_micros(timeout_usec)) {
                Ok(result) => return result,
                // `take_sub` inside decides a completion racing the
                // deadline: whichever side gets the subscription sends
                // the one result the `recv` below picks up.
                Err(_) => self.expire_wait(sub_id),
            }
        }
        rx.recv().unwrap_or_else(|_| {
            Err(EngineError::new(
                ErrorCode::SystemError,
                "wait subscription dropped unfired",
            ))
        })
    }

    /// The wait-set rules every `WaitAny` entry point enforces: a
    /// non-empty set of at most [`norns_proto::MAX_WAIT_SET`] ids, all
    /// visible to `requester`.
    fn check_wait_set(&self, task_ids: &[u64], requester: Option<u64>) -> Result<(), EngineError> {
        if task_ids.is_empty() {
            return Err(EngineError::bad_args("empty wait set"));
        }
        if task_ids.len() > norns_proto::MAX_WAIT_SET {
            return Err(EngineError::bad_args(format!(
                "wait set of {} exceeds the {}-id cap",
                task_ids.len(),
                norns_proto::MAX_WAIT_SET
            )));
        }
        task_ids
            .iter()
            .try_for_each(|&id| self.check_owner(id, requester))
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
        self.subscribe_wait(WaitKind::Single, &[task_id], || callback)
    }

    /// Callback form of [`Engine::wait_any_scoped`] (see
    /// [`Engine::wait_task_async`] for the contract).
    pub fn wait_any_async(
        &self,
        task_ids: &[u64],
        requester: Option<u64>,
        callback: WaitCallback,
    ) -> Subscribed {
        if let Err(e) = self.check_wait_set(task_ids, requester) {
            return Subscribed::Now(Err(e));
        }
        self.subscribe_wait(WaitKind::Any, task_ids, || callback)
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

    /// The answer a wait over `task_ids` already has: the first task
    /// in set order that is terminal (`wait_any`'s tie-break: the
    /// earliest listed wins) or unknown.
    fn settled(&self, task_ids: &[u64]) -> Option<WaitResult> {
        task_ids.iter().find_map(|&t| match self.tasks.snapshot(t) {
            Some(stats) if stats.state.is_terminal() => Some(Ok((t, stats))),
            Some(_) => None,
            None => Some(Err(EngineError::not_found(format!("task {t}")))),
        })
    }

    /// Register a wait, unless it is already settled: then the answer
    /// comes back as [`Subscribed::Now`] and `callback` is never even
    /// built.
    fn subscribe_wait(
        &self,
        kind: WaitKind,
        task_ids: &[u64],
        callback: impl FnOnce() -> WaitCallback,
    ) -> Subscribed {
        if let Some(result) = self.settled(task_ids) {
            return Subscribed::Now(result);
        }
        let sub_id = {
            let mut ws = self.wait_subs.lock();
            ws.next_id += 1;
            let sub_id = ws.next_id;
            for &t in task_ids {
                ws.by_task.entry(t).or_default().push(sub_id);
            }
            ws.subs.insert(
                sub_id,
                WaitSub {
                    kind,
                    task_ids: task_ids.to_vec(),
                    callback: callback(),
                },
            );
            sub_id
        };
        // Subscribe *then* scan again: a completion racing this
        // registration either sees the sub in `by_task` (and fires it)
        // or the scan sees the terminal state — a lost wakeup is
        // impossible, and remove-under-lock in `take_sub` picks the
        // single answering side. If the completion won, its callback
        // owns the answer and the wait counts as parked.
        match self.settled(task_ids) {
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
            let sub_ids = ws.by_task.get(&task_id).cloned().unwrap_or_default();
            sub_ids
                .into_iter()
                .filter_map(|sid| ws.remove(sid))
                .map(|sub| sub.callback)
                .collect()
        };
        for cb in callbacks {
            cb(Ok((task_id, stats.clone())));
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

    /// A parked wait's deadline passed: deliver its timeout result.
    /// Whoever keeps the deadline calls this — the blocking calls after
    /// their `recv_timeout`, a reactor from its deadline heap. A stale
    /// id (sub already fired or unsubscribed) is a no-op — `take_sub`
    /// decides.
    pub fn expire_wait(&self, sub_id: u64) {
        let Some(sub) = self.take_sub(sub_id) else {
            return;
        };
        let result = match (&sub.kind, sub.task_ids.first()) {
            (WaitKind::Single, Some(&id)) => self
                .tasks
                .snapshot(id)
                .map(|stats| (id, stats))
                .ok_or_else(|| EngineError::not_found(format!("task {id}"))),
            _ => Err(EngineError::new(
                ErrorCode::Timeout,
                format!("no task of {} completed in time", sub.task_ids.len()),
            )),
        };
        (sub.callback)(result);
    }
}
