//! Waits: one mechanism for every caller — a one-shot callback parked
//! in the waited task's own table entry. A wait checks the task and
//! parks in one critical section under that task's shard lock, and
//! the one terminal transition (`finish_entry`) takes the entry's
//! parked waits in the critical section that sets the state, then
//! runs them once the lock is released — a completion
//! cannot slip between the look and the park, and nothing about a
//! wait lives outside the task it watches. A wait that is already
//! settled — a terminal or unknown task, a refused requester — never
//! parks: it is answered on the spot as [`Subscribed::Now`], and its
//! callback is never even boxed.
//!
//! The engine keeps no deadline. The blocking [`Engine::wait`] returns a
//! `Now` answer as it is, and otherwise parks a callback that sends
//! into a channel and blocks the caller on it with its own
//! `recv_timeout`; the reactor daemon, which must not pin a thread per
//! parked `WaitTask`, answers a `Now` in the same batch as the read's
//! other replies and, for a parked wait, parks a callback that queues
//! a response, keeps each deadline in its own epoll timeout and calls
//! [`Engine::expire_wait`] when one passes. Semantics are the same
//! either way: an expired wait delivers the in-flight snapshot, and a
//! zero timeout parks forever.

use std::sync::atomic::Ordering;
use std::time::Duration;

use norns_proto::TaskStats;

use super::shard::{Settled, TaskEntry};
use super::{owned_by, unknown_task, Engine, EngineError};

/// What a wait resolves to: the task's stats, or why it could not be
/// waited on.
type WaitResult = Result<TaskStats, EngineError>;

/// Callback behind a parked wait: invoked exactly once — from the
/// thread that drives the terminal transition, or from whichever
/// thread expires the wait. A wait that is settled when it is made is
/// answered as [`Subscribed::Now`] instead and its callback never
/// runs. Callbacks run outside every engine lock, so one may call back
/// into the engine; they must still be quick and non-blocking (the
/// reactor's pushes a completion into a queue and wakes an epoll loop;
/// the blocking call's sends into a channel).
pub type WaitCallback = Box<dyn FnOnce(WaitResult) + Send>;

/// What making a wait came to.
pub enum Subscribed {
    /// Already settled — a terminal or unknown task, or a requester the
    /// task refuses: the answer itself. The callback was dropped unrun.
    Now(WaitResult),
    /// Parked on the task under this subscription id; `(task_id,
    /// sub_id)` names the wait to [`Engine::unsubscribe_wait`] if the
    /// subscriber goes away and to [`Engine::expire_wait`] when its
    /// deadline passes. The callback owns the answer and runs exactly
    /// once.
    Parked(u64),
}

impl Engine {
    /// Block until the task reaches a terminal state or the timeout
    /// expires (`timeout_usec == 0` → wait forever): answer a settled
    /// wait on the spot, otherwise park a channel-sending callback and
    /// block the calling thread on the channel. An expired timeout
    /// returns the in-flight snapshot; `None` means the id is unknown.
    pub fn wait(&self, task_id: u64, timeout_usec: u64) -> Option<TaskStats> {
        let mut rx = None;
        let sub = self.subscribe(task_id, None, || {
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
                // Whichever of the completion and the expiry takes the
                // wait out of the entry sends the one result the
                // `recv` below picks up.
                Err(_) => self.expire_wait(task_id, sub_id),
            }
        }
        rx.recv().ok().and_then(Result::ok)
    }

    /// Callback form of [`Engine::wait`] with the user-socket
    /// ownership rule applied (see [`Engine::query_scoped`]). A task
    /// that is already terminal or unknown, and a requester the rule
    /// refuses, come back as [`Subscribed::Now`] with `callback`
    /// dropped unrun; otherwise the wait parks and `callback` is boxed
    /// and invoked exactly once.
    pub fn wait_task_async(
        &self,
        task_id: u64,
        requester: Option<u64>,
        callback: impl FnOnce(WaitResult) + Send + 'static,
    ) -> Subscribed {
        self.subscribe(task_id, requester, || Box::new(callback))
    }

    /// Drop a parked wait whose subscriber went away (connection
    /// closed). Returns whether the wait was still parked; its
    /// callback is dropped unfired.
    pub fn unsubscribe_wait(&self, task_id: u64, sub_id: u64) -> bool {
        self.unpark(task_id, sub_id).is_some()
    }

    /// Waits parked right now — a gauge, cheap enough to sample every
    /// millisecond.
    pub fn parked_waits(&self) -> usize {
        self.parked.load(Ordering::Relaxed)
    }

    /// A parked wait's deadline passed: deliver the task's in-flight
    /// snapshot. Whoever keeps the deadline calls this — the blocking
    /// call after its `recv_timeout`, a reactor from its deadline heap.
    /// A wait that already fired or was unsubscribed is no longer in
    /// the entry, and expiring it is a no-op.
    pub fn expire_wait(&self, task_id: u64, sub_id: u64) {
        if let Some((callback, snapshot)) = self.unpark(task_id, sub_id) {
            callback(Ok(snapshot));
        }
    }

    /// The one wait: in one critical section on the task's entry,
    /// answer it [`Subscribed::Now`] — `callback` never built — or
    /// park it.
    fn subscribe(
        &self,
        task_id: u64,
        requester: Option<u64>,
        callback: impl FnOnce() -> WaitCallback,
    ) -> Subscribed {
        self.tasks
            .update(task_id, |t| {
                if let Err(e) = owned_by(task_id, t.owner, requester) {
                    return Subscribed::Now(Err(e));
                }
                if t.stats.state.is_terminal() {
                    return Subscribed::Now(Ok(t.stats.clone()));
                }
                let sub_id = self.next_sub.fetch_add(1, Ordering::Relaxed);
                t.waiters.push((sub_id, callback()));
                self.parked.fetch_add(1, Ordering::Relaxed);
                Subscribed::Parked(sub_id)
            })
            .unwrap_or_else(|| Subscribed::Now(Err(unknown_task(task_id))))
    }

    /// Take one parked wait out of its task's entry, with the task's
    /// snapshot; whoever gets it back owns the one permitted callback
    /// invocation.
    fn unpark(&self, task_id: u64, sub_id: u64) -> Option<(WaitCallback, TaskStats)> {
        self.tasks
            .update(task_id, |t| {
                let at = t.waiters.iter().position(|(id, _)| *id == sub_id)?;
                self.parked.fetch_sub(1, Ordering::Relaxed);
                Some((t.waiters.swap_remove(at).1, t.snapshot()))
            })
            .flatten()
    }

    /// The end of a terminal transition's critical section: take the
    /// entry's parked waits — the gauge drops before any of them is
    /// answered — and a replica's role.
    pub(super) fn settle(&self, t: &mut TaskEntry) -> Settled {
        let waiters = std::mem::take(&mut t.waiters);
        self.parked.fetch_sub(waiters.len(), Ordering::Relaxed);
        Settled {
            stats: t.stats.clone(),
            parent: self.take_replica(t),
            waiters,
        }
    }

    /// Pay what a terminal transition owes, outside every lock: answer
    /// its parked waits, then settle a replica's parent.
    pub(super) fn deliver(&self, settled: Settled) {
        for (_, callback) in settled.waiters {
            callback(Ok(settled.stats.clone()));
        }
        if let Some((parent, failure)) = settled.parent {
            self.settle_parent(parent, failure);
        }
    }
}
