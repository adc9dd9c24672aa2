//! Waits: one mechanism for every caller — a one-shot callback
//! subscribed in the `wait_subs` registry. Every terminal transition
//! funnels through `finish_task` or `mark_cancelled`, which notify the
//! inverted `by_task` index.
//!
//! The engine owns no clock. The blocking calls subscribe a callback
//! that sends into a channel and park the caller on it with their own
//! `recv_timeout`; the reactor daemon, which must not pin a thread per
//! parked `WaitTask` / `WaitAny`, subscribes callbacks that queue a
//! response, keeps each deadline in its own epoll timeout and calls
//! [`Engine::expire_wait`] when one passes. Semantics are the same
//! either way: an expired `WaitTask` delivers the in-flight snapshot,
//! an expired `WaitAny` delivers [`ErrorCode::Timeout`], and a zero
//! timeout parks forever.

use std::collections::HashMap;
use std::time::Duration;

use norns_proto::{ErrorCode, TaskStats};

use super::{Engine, EngineError};

/// Callback behind a parked wait: invoked exactly once — from the
/// worker thread that drives the terminal transition, from whichever
/// thread expires the wait, or inline from the subscribing thread
/// when the wait can resolve immediately. Callbacks must be quick and
/// non-blocking (the reactor's pushes a completion into a queue and
/// wakes an epoll loop; the blocking calls' sends into a channel).
pub type WaitCallback = Box<dyn FnOnce(Result<(u64, TaskStats), EngineError>) + Send>;

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
        self.wait_parked(WaitKind::Single, vec![task_id], timeout_usec)
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
        self.wait_parked(WaitKind::Any, task_ids.to_vec(), timeout_usec)
    }

    /// Subscribe a channel-sending callback and park the calling
    /// thread on the channel.
    fn wait_parked(
        &self,
        kind: WaitKind,
        task_ids: Vec<u64>,
        timeout_usec: u64,
    ) -> Result<(u64, TaskStats), EngineError> {
        let (tx, rx) = std::sync::mpsc::channel();
        let sub = self.subscribe_wait(
            kind,
            task_ids,
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        if let Some(sub_id) = sub.filter(|_| timeout_usec > 0) {
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
    /// ownership rule applied (see [`Engine::query_scoped`]). Returns
    /// the subscription id when the wait parked (cancel it with
    /// [`Engine::unsubscribe_wait`] if the connection dies first, bound
    /// it with [`Engine::expire_wait`]), or `None` when the callback
    /// already fired — inline for validation failures and
    /// already-terminal tasks, or from a racing completion. Either way
    /// the callback is invoked exactly once.
    pub fn wait_task_async(
        &self,
        task_id: u64,
        requester: Option<u64>,
        callback: WaitCallback,
    ) -> Option<u64> {
        if let Err(e) = self.check_owner(task_id, requester) {
            callback(Err(e));
            return None;
        }
        self.subscribe_wait(WaitKind::Single, vec![task_id], callback)
    }

    /// Callback form of [`Engine::wait_any_scoped`] (see
    /// [`Engine::wait_task_async`] for the callback contract).
    pub fn wait_any_async(
        &self,
        task_ids: &[u64],
        requester: Option<u64>,
        callback: WaitCallback,
    ) -> Option<u64> {
        if let Err(e) = self.check_wait_set(task_ids, requester) {
            callback(Err(e));
            return None;
        }
        self.subscribe_wait(WaitKind::Any, task_ids.to_vec(), callback)
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

    /// Register a wait. Returns the subscription id when it parked,
    /// `None` when the callback already fired.
    fn subscribe_wait(
        &self,
        kind: WaitKind,
        task_ids: Vec<u64>,
        callback: WaitCallback,
    ) -> Option<u64> {
        let sub_id = {
            let mut ws = self.wait_subs.lock();
            ws.next_id += 1;
            let sub_id = ws.next_id;
            for &t in &task_ids {
                ws.by_task.entry(t).or_default().push(sub_id);
            }
            ws.subs.insert(
                sub_id,
                WaitSub {
                    kind,
                    task_ids: task_ids.clone(),
                    callback,
                },
            );
            sub_id
        };
        // Subscribe *then* scan: a completion racing this registration
        // either sees the sub in `by_task` (and fires it) or we see
        // the terminal state here — a lost wakeup is impossible, and
        // remove-under-lock in `take_sub` picks the single firing
        // side. Scanning in set order gives `wait_any` its tie-break
        // (earliest listed terminal task wins).
        for &t in &task_ids {
            match self.tasks.snapshot(t) {
                Some(stats) if stats.state.is_terminal() => {
                    if let Some(sub) = self.take_sub(sub_id) {
                        (sub.callback)(Ok((t, stats)));
                    }
                    return None;
                }
                Some(_) => {}
                None => {
                    if let Some(sub) = self.take_sub(sub_id) {
                        (sub.callback)(Err(EngineError::not_found(format!("task {t}"))));
                    }
                    return None;
                }
            }
        }
        Some(sub_id)
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
