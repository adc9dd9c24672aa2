//! The reactor threads: every control/user connection, and on reactor
//! 0 the listeners, multiplexed over one `epoll` instance each.
//!
//! Per connection, a [`FrameReader`] decodes as many frames as the
//! kernel delivered, responses accumulate in an outbound buffer
//! written back without blocking, once per read. A `WaitTask` that is
//! already settled is answered into that same buffer with the
//! read's other replies; one that is not parks, as `(task_id,
//! sub_id)`, in the waited task's entry — only then is its
//! [`completion_callback`] boxed — and the callback re-queues the
//! tagged response on the owning reactor instead of pinning a thread
//! for the duration of the wait. The reactor's eventfd is for those
//! cross-thread completions (and freshly accepted connections) only,
//! written once per burst: by the completion that finds the queue
//! empty. What a request *means* is [`super::dispatch`]'s business; a
//! peer's data-plane connection is accepted here and handed straight
//! to the engine's `DataServer`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::Write;
use std::net::TcpListener;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Buf, Bytes, BytesMut};
use parking_lot::Mutex;
use polling::{Event, Interest, Poller, Waker};

use norns_proto::{push_frame, ErrorCode, FrameReader, Response, TaskStats};

use super::dispatch::{dispatch, Request};
use super::Shared;
use crate::engine::{EngineError, Subscribed};

/// Poller key of a reactor's waker. A listener's key counts down from
/// just below it by the listener's fd and conn ids count up from zero,
/// so the three can never collide.
const KEY_WAKER: u64 = u64::MAX;

/// A connection whose outbound buffer passes this mark stops being
/// read until the client drains responses — per-connection memory is
/// bounded even against a client that pipelines thousands of requests
/// and never reads.
const OUTBOUND_PAUSE_THRESHOLD: usize = 4 << 20;

/// Parked `WaitTask` subscriptions one connection may hold; further
/// waits get `ErrorCode::Busy` until completions drain. A workflow
/// executor parks one per outstanding task on its node's connection,
/// so this also bounds the staging legs one node can have outstanding
/// — the envelope the default pending-queue bound (1024) already puts
/// on a phase's submits.
const MAX_PARKED_WAITS: usize = 1024;

/// Accept-failure backoff: first retry after 10ms, doubling to 1s.
/// A persistent failure (EMFILE under a connection storm) must not
/// spin the reactor at 100% CPU, but recovery after fds free up should
/// still be prompt.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// A freshly accepted control/user connection in flight to its
/// assigned reactor.
pub(super) struct NewConn {
    id: u64,
    stream: UnixStream,
    control: bool,
}

/// A finished parked wait on its way back to the connection that
/// issued it.
struct Completion {
    conn: u64,
    tag: u64,
    response: Response,
}

/// Per-reactor mailbox: the epoll instance, an eventfd waker, and the
/// two queues other threads use to hand it work.
pub(super) struct Reactor {
    poller: Poller,
    pub(super) waker: Waker,
    pub(super) incoming: Mutex<Vec<NewConn>>,
    completions: Mutex<Vec<Completion>>,
}

impl Reactor {
    pub(super) fn new() -> std::io::Result<Reactor> {
        let poller = Poller::new()?;
        let waker = Waker::new(&poller, KEY_WAKER)?;
        Ok(Reactor {
            poller,
            waker,
            incoming: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
        })
    }
}

/// One nonblocking control/user connection owned by a reactor thread.
struct Conn {
    stream: UnixStream,
    control: bool,
    reader: FrameReader,
    /// Framed responses not yet accepted by the kernel.
    out: BytesMut,
    /// Parked waits: request tag → `(task_id, sub_id)`, so a close
    /// can unsubscribe and a completion can clear its slot.
    parked: HashMap<u64, (u64, u64)>,
    /// Interest currently registered with the poller.
    want_read: bool,
    want_write: bool,
}

/// What a listener accepts, and so what is done with each stream.
pub(super) enum Listener {
    /// The control (`control`) or user socket: connections are dealt
    /// round-robin to the reactors.
    Unix {
        listener: UnixListener,
        control: bool,
    },
    /// The TCP data plane: connections go to the engine's
    /// `DataServer`, which serves each on a blocking handler thread.
    Data(TcpListener),
}

impl Listener {
    fn name(&self) -> &'static str {
        match self {
            Listener::Unix { control: true, .. } => "control",
            Listener::Unix { control: false, .. } => "user",
            Listener::Data(_) => "data",
        }
    }

    fn fd(&self) -> RawFd {
        match self {
            Listener::Unix { listener, .. } => listener.as_raw_fd(),
            Listener::Data(listener) => listener.as_raw_fd(),
        }
    }
}

/// A listener reactor 0 owns, with its accept-failure backoff state.
/// On a persistent accept error (EMFILE) the listener is *deregistered*
/// from the poller — a failing fd would otherwise be level-triggered
/// ready forever — and re-armed after the backoff elapses.
pub(super) struct ListenerSlot {
    listener: Listener,
    key: u64,
    armed: bool,
    rearm_at: Option<Instant>,
    backoff: Duration,
}

impl ListenerSlot {
    pub(super) fn new(listener: Listener) -> ListenerSlot {
        ListenerSlot {
            key: KEY_WAKER - 1 - listener.fd() as u64,
            listener,
            armed: false,
            rearm_at: None,
            backoff: ACCEPT_BACKOFF_MIN,
        }
    }

    /// Register with the poller (at startup or when a backoff ends).
    fn arm(&mut self, poller: &Poller) {
        if !self.armed
            && poller
                .add(self.listener.fd(), self.key, Interest::READ)
                .is_ok()
        {
            self.armed = true;
            self.rearm_at = None;
        }
    }

    /// Deregister after an accept failure and schedule the re-arm: a
    /// failing fd would otherwise be level-triggered ready forever.
    fn disarm(&mut self, poller: &Poller, now: Instant) {
        if self.armed {
            let _ = poller.delete(self.listener.fd());
            self.armed = false;
        }
        self.rearm_at = Some(now + self.backoff);
        self.backoff = (self.backoff * 2).min(ACCEPT_BACKOFF_MAX);
    }
}

/// What a serviced connection wants next.
enum ConnFate {
    Keep,
    Closed,
}

/// What one decoded frame asks of the reactor.
enum Action {
    Continue,
    /// Protocol violation or unrecoverable connection state.
    Close,
    /// `DaemonCommand::Shutdown` — flush the Ok, then stop the daemon.
    Shutdown,
}

/// Deadlines of the bounded waits parked through one reactor, earliest
/// first, as `(deadline, task_id, sub_id)`. An entry outlives a wait
/// that completed or whose connection closed; expiring it is then a
/// no-op inside the engine.
type Deadlines = BinaryHeap<Reverse<(Instant, u64, u64)>>;

/// The reactor thread: multiplex owned connections (and, on reactor 0,
/// the listeners) over one epoll instance until shutdown. The epoll
/// timeout is the reactor's only clock: it runs to the nearest wait
/// deadline or listener re-arm.
pub(super) fn reactor_loop(
    shared: Arc<Shared>,
    reactor: Arc<Reactor>,
    mut listeners: Vec<ListenerSlot>,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut deadlines = Deadlines::new();
    let mut events: Vec<Event> = Vec::new();
    for slot in &mut listeners {
        slot.arm(&reactor.poller);
    }
    // The flag is checked before every wait as well as after it: a
    // shutdown wake that lands while this iteration is still handling
    // an earlier wake is consumed by the same `drain`, and only the
    // flag (set before the wake) is left to say so.
    while !shared.shutdown.load(Ordering::SeqCst) {
        events.clear();
        // Earliest pending listener re-arm or wait deadline becomes
        // the epoll timeout, so neither needs polling.
        let timeout = listeners
            .iter()
            .filter_map(|slot| slot.rearm_at)
            .chain(deadlines.peek().map(|Reverse((at, ..))| *at))
            .min()
            .map(|at| at.saturating_duration_since(Instant::now()));
        let _ = reactor.poller.wait(&mut events, timeout);
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        for ev in &events {
            if ev.key == KEY_WAKER {
                reactor.waker.drain();
            } else if let Some(slot) = listeners.iter_mut().find(|slot| slot.key == ev.key) {
                accept_burst(&shared, &reactor.poller, slot);
            } else {
                service_event(&shared, &reactor, &mut conns, &mut deadlines, ev.key);
            }
        }
        drain_incoming(&shared, &reactor, &mut conns);
        let now = Instant::now();
        // Expired waits answer through the completion queue drained
        // right below, like any other resolved wait.
        while deadlines.peek().is_some_and(|Reverse((at, ..))| *at <= now) {
            if let Some(Reverse((_, task_id, sub_id))) = deadlines.pop() {
                shared.engine.expire_wait(task_id, sub_id);
            }
        }
        drain_completions(&shared, &reactor, &mut conns);
        for slot in &mut listeners {
            if slot.rearm_at.is_some_and(|at| now >= at) {
                slot.arm(&reactor.poller);
            }
        }
    }
    // Shutdown: the engine has already answered every parked wait (the
    // leftover completions are dropped with the queues). Close every
    // connection — clients see EOF — and drop the listeners so further
    // connects are refused.
    let open: Vec<u64> = conns.keys().copied().collect();
    for id in open {
        close_conn(&shared, &reactor, &mut conns, id);
    }
}

/// Accept everything the kernel has queued on a listener. A control or
/// user connection is handed round-robin to a reactor; a data-plane
/// connection goes to the `DataServer`. On a real accept failure
/// (EMFILE during a storm): count it, disarm the listener and back
/// off — never spin.
fn accept_burst(shared: &Arc<Shared>, poller: &Poller, slot: &mut ListenerSlot) {
    loop {
        let accepted = match &slot.listener {
            Listener::Unix { listener, control } => {
                // norns-lint: allow(reactor-blocking): the listener is nonblocking; accept returns WouldBlock instead of parking
                let conn = listener.accept();
                conn.map(|(stream, _)| assign(shared, stream, *control))
            }
            Listener::Data(listener) => {
                // norns-lint: allow(reactor-blocking): the listener is nonblocking; accept returns WouldBlock instead of parking
                let conn = listener.accept();
                conn.map(|(stream, _)| shared.data.serve(stream))
            }
        };
        match accepted {
            Ok(()) => slot.backoff = ACCEPT_BACKOFF_MIN,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                shared.engine.note_accept_error();
                let sock = slot.listener.name();
                eprintln!("urd: accept on {sock} socket failed: {e} (backing off)");
                slot.disarm(poller, Instant::now());
                return;
            }
        }
    }
}

/// Deal a fresh control/user connection to the next reactor in turn:
/// ids are handed out densely, so the id itself is the turn.
fn assign(shared: &Shared, stream: UnixStream, control: bool) {
    let id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
    let idx = id as usize % shared.reactors.len();
    // norns-lint: allow(panic-path): idx is taken modulo reactors.len() on the line above
    let target = &shared.reactors[idx];
    target.incoming.lock().push(NewConn {
        id,
        stream,
        control,
    });
    target.waker.wake();
}

/// Move freshly accepted connections from the mailbox into this
/// reactor's epoll set.
fn drain_incoming(shared: &Arc<Shared>, reactor: &Arc<Reactor>, conns: &mut HashMap<u64, Conn>) {
    let fresh: Vec<NewConn> = std::mem::take(&mut *reactor.incoming.lock());
    for nc in fresh {
        if nc.stream.set_nonblocking(true).is_err() {
            continue;
        }
        if reactor
            .poller
            .add(nc.stream.as_raw_fd(), nc.id, Interest::READ)
            .is_err()
        {
            continue;
        }
        shared.engine.conn_opened();
        conns.insert(
            nc.id,
            Conn {
                stream: nc.stream,
                control: nc.control,
                reader: FrameReader::new(),
                out: BytesMut::new(),
                parked: HashMap::new(),
                want_read: true,
                want_write: false,
            },
        );
    }
}

/// Deliver finished parked waits: clear each parked slot and append
/// its tagged response, then flush every connection that got one —
/// once, however many of its waits finished. Completions for a
/// connection that already closed are dropped.
fn drain_completions(shared: &Arc<Shared>, reactor: &Arc<Reactor>, conns: &mut HashMap<u64, Conn>) {
    let done: Vec<Completion> = std::mem::take(&mut *reactor.completions.lock());
    let mut touched = Vec::with_capacity(done.len());
    for c in done {
        let Some(conn) = conns.get_mut(&c.conn) else {
            continue;
        };
        conn.parked.remove(&c.tag);
        push_tagged(&mut conn.out, c.tag, &c.response);
        touched.push(c.conn);
    }
    touched.sort_unstable();
    touched.dedup();
    for id in touched {
        let flushed = conns.get_mut(&id).map(flush_conn);
        if matches!(flushed, Some(Err(_))) {
            close_conn(shared, reactor, conns, id);
        } else {
            update_interest(reactor, conns, id);
        }
    }
}

/// Handle a readiness event on a connection.
fn service_event(
    shared: &Arc<Shared>,
    reactor: &Arc<Reactor>,
    conns: &mut HashMap<u64, Conn>,
    deadlines: &mut Deadlines,
    id: u64,
) {
    // A readiness event can race a close from the same epoll batch
    // (the earlier event closed the conn); nothing left to service.
    let Some(conn) = conns.get_mut(&id) else {
        return;
    };
    match service_conn(shared, reactor, conn, deadlines, id) {
        ConnFate::Keep => update_interest(reactor, conns, id),
        ConnFate::Closed => close_conn(shared, reactor, conns, id),
    }
}

/// Deregister, unsubscribe parked waits, update the gauge, drop (which
/// closes the fd — the poller must forget it first).
fn close_conn(
    shared: &Arc<Shared>,
    reactor: &Arc<Reactor>,
    conns: &mut HashMap<u64, Conn>,
    id: u64,
) {
    if let Some(conn) = conns.remove(&id) {
        let _ = reactor.poller.delete(conn.stream.as_raw_fd());
        for (task_id, sub_id) in conn.parked.into_values() {
            shared.engine.unsubscribe_wait(task_id, sub_id);
        }
        shared.engine.conn_closed();
    }
}

/// Re-register the interest set a connection currently needs: reads
/// pause while the outbound buffer is over the threshold, writes are
/// only watched while there are bytes to send.
fn update_interest(reactor: &Arc<Reactor>, conns: &mut HashMap<u64, Conn>, id: u64) {
    let Some(conn) = conns.get_mut(&id) else {
        return;
    };
    let want_read = conn.out.len() < OUTBOUND_PAUSE_THRESHOLD;
    let want_write = !conn.out.is_empty();
    if want_read != conn.want_read || want_write != conn.want_write {
        conn.want_read = want_read;
        conn.want_write = want_write;
        let _ = reactor.poller.modify(
            conn.stream.as_raw_fd(),
            id,
            Interest {
                readable: want_read,
                writable: want_write,
            },
        );
    }
}

/// The per-connection read→decode→execute→write cycle, run until the
/// socket has nothing more to give or backpressure pauses it.
fn service_conn(
    shared: &Arc<Shared>,
    reactor: &Arc<Reactor>,
    conn: &mut Conn,
    deadlines: &mut Deadlines,
    id: u64,
) -> ConnFate {
    'outer: loop {
        // Decode phase: execute every complete frame already buffered,
        // unless the outbound queue is over the pause threshold.
        let mut paused = false;
        loop {
            if conn.out.len() >= OUTBOUND_PAUSE_THRESHOLD {
                paused = true;
                break;
            }
            match conn.reader.next_frame() {
                Ok(Some(frame)) => {
                    match handle_frame(shared, reactor, conn, deadlines, id, frame) {
                        Action::Continue => {}
                        Action::Close => return ConnFate::Closed,
                        Action::Shutdown => {
                            wire_shutdown(shared, conn);
                            return ConnFate::Keep;
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => return ConnFate::Closed, // protocol violation: drop the client
            }
        }
        if !paused {
            // Read phase: pull whatever the kernel buffered.
            match conn.reader.read_from(&mut &conn.stream) {
                Ok(0) => return ConnFate::Closed,
                Ok(_) => continue 'outer,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue 'outer,
                Err(_) => return ConnFate::Closed,
            }
        }
        // Write phase.
        if flush_conn(conn).is_err() {
            return ConnFate::Closed;
        }
        if paused && conn.out.len() < OUTBOUND_PAUSE_THRESHOLD {
            // The flush freed outbound space and whole frames may
            // already be buffered; no epoll event will announce them,
            // so go decode again.
            continue 'outer;
        }
        return ConnFate::Keep;
    }
}

/// `DaemonCommand::Shutdown` arrived on `conn`: answer it, close the
/// submission window, and hand the teardown to a helper thread (the
/// joins in it must not run on a reactor).
fn wire_shutdown(shared: &Arc<Shared>, conn: &mut Conn) {
    // Deliver the Ok before the daemon tears down this connection with
    // everything else.
    flush_blocking(conn, Duration::from_secs(2));
    // Close the submission window on this thread, not the helper: a
    // client that saw the Ok must never get work accepted, even if the
    // spawned teardown is still waiting to be scheduled when its next
    // frame arrives.
    shared.engine.begin_shutdown();
    shared.shutdown.store(true, Ordering::SeqCst);
    let helper = std::thread::Builder::new().spawn({
        let shared = Arc::clone(shared);
        move || shared.initiate_shutdown()
    });
    if helper.is_err() {
        // Out of threads, and a reactor must not run the joins itself
        // (a concurrent `UrdDaemon::shutdown` may be joining this very
        // thread). Stop serving — every reactor sees the flag and
        // drops its connections and listeners — and leave the joins to
        // the owner's shutdown/drop.
        for reactor in &shared.reactors {
            reactor.waker.wake();
        }
    }
}

/// Write as much of the outbound buffer as the kernel will take
/// without blocking. `Ok` with a non-empty remainder means "wait for
/// writable".
fn flush_conn(conn: &mut Conn) -> std::io::Result<()> {
    while !conn.out.is_empty() {
        match (&conn.stream).write(&conn.out[..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out.advance(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Best-effort synchronous flush with a deadline, for the one response
/// that must outrun daemon teardown: the `Shutdown` Ok.
fn flush_blocking(conn: &mut Conn, deadline: Duration) {
    let start = Instant::now();
    while flush_conn(conn).is_ok() && !conn.out.is_empty() && start.elapsed() < deadline {
        // norns-lint: allow(reactor-blocking): bounded 1ms backoff while flushing the final Shutdown Ok; the reactor is already tearing down
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Append one tagged framed response.
fn push_tagged(out: &mut BytesMut, tag: u64, response: &Response) {
    push_frame(out, Some(tag), response, 0, |_| ());
}

/// The wire answer to a resolved wait.
fn wait_response(result: Result<TaskStats, EngineError>) -> Response {
    match result {
        Ok(stats) => Response::TaskStatus(stats),
        Err(e) => e.into(),
    }
}

/// The completion callback a parked wait hands the engine: shape the
/// response, queue it on the owning reactor, and wake the reactor only
/// if the queue was empty — a burst of completions costs one eventfd
/// write, and a non-empty queue already has its wake on the way. Runs
/// on whatever thread resolved the wait — a worker, or the reactor
/// itself for expired deadlines.
fn completion_callback(
    reactor: Arc<Reactor>,
    conn: u64,
    tag: u64,
) -> impl FnOnce(Result<TaskStats, EngineError>) + Send + 'static {
    move |result| {
        let first = {
            let mut queue = reactor.completions.lock();
            queue.push(Completion {
                conn,
                tag,
                response: wait_response(result),
            });
            queue.len() == 1
        };
        if first {
            reactor.waker.wake();
        }
    }
}

/// Make a `WaitTask`'s wait in the engine. A settled one (terminal
/// or unknown task, refused requester) is answered into `conn.out`
/// with the read's other replies; a parked one records tag →
/// `(task_id, sub_id)` so close/duplicate handling can find it, and a
/// bounded one joins the reactor's deadline heap.
#[allow(clippy::too_many_arguments)]
fn park_wait(
    shared: &Arc<Shared>,
    reactor: &Arc<Reactor>,
    conn: &mut Conn,
    deadlines: &mut Deadlines,
    conn_id: u64,
    tag: u64,
    task_id: u64,
    timeout_usec: u64,
    requester: Option<u64>,
) -> Result<(), EngineError> {
    if conn.parked.len() >= MAX_PARKED_WAITS {
        return Err(EngineError::new(
            ErrorCode::Busy,
            format!("connection already has {MAX_PARKED_WAITS} waits in flight"),
        ));
    }
    if conn.parked.contains_key(&tag) {
        return Err(EngineError::new(
            ErrorCode::BadArgs,
            format!("tag {tag} already has a wait in flight"),
        ));
    }
    let cb = completion_callback(Arc::clone(reactor), conn_id, tag);
    match shared.engine.wait_task_async(task_id, requester, cb) {
        Subscribed::Now(result) => push_tagged(&mut conn.out, tag, &wait_response(result)),
        Subscribed::Parked(sub_id) => {
            conn.parked.insert(tag, (task_id, sub_id));
            if timeout_usec > 0 {
                let deadline = Instant::now() + Duration::from_micros(timeout_usec);
                deadlines.push(Reverse((deadline, task_id, sub_id)));
            }
        }
    }
    Ok(())
}

/// Execute one tagged frame from a control/user connection and queue
/// its answer (or park its wait).
fn handle_frame(
    shared: &Arc<Shared>,
    reactor: &Arc<Reactor>,
    conn: &mut Conn,
    deadlines: &mut Deadlines,
    conn_id: u64,
    frame: Bytes,
) -> Action {
    let mut b = frame;
    let Ok(tag) = norns_proto::wire::get_varint(&mut b) else {
        return Action::Close; // untagged garbage: not v7
    };
    let done = dispatch(&shared.engine, conn.control, b).and_then(|request| match request {
        Request::Reply(response) => {
            push_tagged(&mut conn.out, tag, &response);
            Ok(Action::Continue)
        }
        Request::Wait {
            task_id,
            timeout_usec,
            requester,
        } => park_wait(
            shared,
            reactor,
            conn,
            deadlines,
            conn_id,
            tag,
            task_id,
            timeout_usec,
            requester,
        )
        .map(|()| Action::Continue),
        Request::Shutdown => {
            push_tagged(&mut conn.out, tag, &Response::Ok);
            Ok(Action::Shutdown)
        }
    });
    done.unwrap_or_else(|refusal| {
        push_tagged(&mut conn.out, tag, &refusal.into());
        Action::Continue
    })
}
