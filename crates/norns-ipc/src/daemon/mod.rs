//! The real `urd` daemon: an event-driven control plane. Two `AF_UNIX`
//! listeners (control + user, with different filesystem permissions,
//! §IV-B) and an optional TCP *data-plane* listener are all owned by a
//! fixed pool of **reactor threads** multiplexing over `epoll` — no
//! accept-poll loop, no thread per connection on the control plane.
//!
//! This file is the daemon's lifecycle: configuration, socket set-up,
//! spawn and shutdown. The rest is split by concern:
//!
//! * [`reactor`] — the reactor threads. Each owns a disjoint set of
//!   nonblocking connections; reactor 0 additionally owns the
//!   listeners, handing accepted control/user sockets round-robin to
//!   the reactors through a wake-up queue and accepted data-plane
//!   sockets to the engine's `DataServer` (blocking handler threads:
//!   they move multi-megabyte payloads sequentially, where blocking
//!   I/O is the right tool — see `engine/remote/server.rs`).
//! * [`dispatch`] — what each `CtlRequest` / `UserRequest` does.
//!
//! Backpressure is explicit at both ends: a connection whose outbound
//! buffer exceeds `OUTBOUND_PAUSE_THRESHOLD` stops being *read*
//! (requests queue in the kernel until the client drains responses),
//! and a connection with `MAX_PARKED_WAITS` waits in flight gets
//! `ErrorCode::Busy` for further waits instead of unboundedly many
//! parked in the engine.
//!
//! Shutdown is complete, not advisory: `initiate_shutdown` stops the
//! engine (workers joined, backlog cancelled, every task terminal and
//! so every parked wait answered),
//! wakes every reactor so it drops its connections and listeners, and
//! joins reactors and data-plane threads — no thread outlives the
//! daemon waiting for a client to hang up.
//!
//! Socket files are bound inside a private `0o700` staging directory,
//! given their final permissions, and only then renamed into place:
//! the control socket is never observable with umask-default (possibly
//! world-connectable) permissions, not even transiently.

mod dispatch;
mod reactor;

use std::net::{SocketAddr, TcpListener};
use std::os::unix::fs::PermissionsExt;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::engine::{DataServer, Engine, EngineConfig, PolicyKind};
use reactor::{reactor_loop, Listener, ListenerSlot, Reactor};

/// Reactor threads a daemon runs. Two lets accept/decode overlap with
/// callback dispatch even on small machines (one measured slower on a
/// pipelined submit storm); storms scale by adding connections per
/// reactor, not threads.
const REACTORS: usize = 2;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Directory for `urd.ctl.sock` and `urd.user.sock`.
    pub socket_dir: PathBuf,
    /// The engine's knobs: worker threads, pending-queue bound, chunk
    /// size (also a remote transfer's bytes in flight), synchronous
    /// copy count.
    pub engine: EngineConfig,
    /// Task arbitration policy the worker pool dispatches through.
    pub policy: PolicyKind,
    /// TCP address for the remote-staging data plane (e.g.
    /// `127.0.0.1:0` for an ephemeral loopback port); `None` disables
    /// remote staging. The data plane is unauthenticated — bind it to
    /// loopback or a trusted interconnect only.
    pub data_addr: Option<String>,
}

impl DaemonConfig {
    pub fn in_dir(dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            socket_dir: dir.into(),
            engine: EngineConfig::default(),
            policy: PolicyKind::Fcfs,
            data_addr: None,
        }
    }

    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.engine.queue_capacity = capacity;
        self
    }

    pub fn with_chunk_size(mut self, chunk_size: u64) -> Self {
        self.engine.chunk_size = chunk_size;
        self
    }

    /// Enable the remote-staging data plane on `addr` (TCP; port 0
    /// picks an ephemeral port, retrievable via
    /// [`UrdDaemon::data_addr`]).
    pub fn with_data_addr(mut self, addr: impl Into<String>) -> Self {
        self.data_addr = Some(addr.into());
        self
    }

    /// Set how many peer copies a `Durability::Synchronous` stage-out
    /// must land before it ACKs.
    pub fn with_target_copies(mut self, copies: usize) -> Self {
        self.engine.target_copies = copies;
        self
    }
}

/// A running daemon; dropping it shuts the listeners down.
pub struct UrdDaemon {
    pub control_path: PathBuf,
    pub user_path: PathBuf,
    data_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
}

impl UrdDaemon {
    /// Bind the sockets (and the data plane, if configured) and start
    /// serving.
    pub fn spawn(config: DaemonConfig) -> std::io::Result<UrdDaemon> {
        std::fs::create_dir_all(&config.socket_dir)?;
        let control_path = config.socket_dir.join("urd.ctl.sock");
        let user_path = config.socket_dir.join("urd.user.sock");
        let _ = std::fs::remove_file(&control_path);
        let _ = std::fs::remove_file(&user_path);

        let engine = Engine::with_config(config.engine, config.policy);

        // "two separate 'control' and 'user' sockets are created with
        // differing file system permissions" — owner-only for control,
        // group/world-usable for the user socket. Binding happens in a
        // 0o700 staging directory and the socket is renamed into place
        // only after its permissions are set, so there is no window in
        // which `urd.ctl.sock` exists with umask-default permissions.
        let staging = config
            .socket_dir
            .join(format!(".urd-staging-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&staging);
        std::fs::create_dir_all(&staging)?;
        std::fs::set_permissions(&staging, std::fs::Permissions::from_mode(0o700))?;
        let bind_result = (|| {
            let ctl_listener = bind_with_mode(&staging, "urd.ctl.sock", 0o600, &control_path)?;
            let user_listener = bind_with_mode(&staging, "urd.user.sock", 0o666, &user_path)?;
            Ok::<_, std::io::Error>((ctl_listener, user_listener))
        })();
        let _ = std::fs::remove_dir_all(&staging);
        let (ctl_listener, user_listener) = bind_result?;

        // The listeners, in one collection from here on: reactor 0
        // arms, polls and backs each off by iterating it.
        ctl_listener.set_nonblocking(true)?;
        user_listener.set_nonblocking(true)?;
        let mut listeners = vec![
            ListenerSlot::new(Listener::Unix {
                listener: ctl_listener,
                control: true,
            }),
            ListenerSlot::new(Listener::Unix {
                listener: user_listener,
                control: false,
            }),
        ];
        // The remote-staging data plane (optional).
        let mut data_addr = None;
        if let Some(addr) = &config.data_addr {
            let listener = TcpListener::bind(addr.as_str())?;
            listener.set_nonblocking(true)?;
            let bound = listener.local_addr()?;
            engine.set_data_addr(bound.to_string());
            data_addr = Some(bound);
            listeners.push(ListenerSlot::new(Listener::Data(listener)));
        }

        let mut reactors = Vec::with_capacity(REACTORS);
        for _ in 0..REACTORS {
            reactors.push(Arc::new(Reactor::new()?));
        }

        let shared = Arc::new(Shared {
            data: DataServer::new(Arc::clone(&engine)),
            engine,
            shutdown: AtomicBool::new(false),
            shutdown_done: Mutex::new(false),
            next_conn: AtomicU64::new(0),
            reactors,
            reactor_threads: Mutex::new(Vec::new()),
        });

        let mut threads = shared.reactor_threads.lock();
        for (idx, reactor) in shared.reactors.iter().enumerate() {
            let shared = Arc::clone(&shared);
            let reactor = Arc::clone(reactor);
            // Reactor 0 takes every listener; the rest get none.
            let set = std::mem::take(&mut listeners);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("urd-reactor-{idx}"))
                    .spawn(move || reactor_loop(shared, reactor, set))?,
            );
        }
        drop(threads);

        Ok(UrdDaemon {
            control_path,
            user_path,
            data_addr,
            shared,
        })
    }

    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Actual address of the data-plane listener (resolves port 0),
    /// `None` when remote staging is disabled.
    pub fn data_addr(&self) -> Option<SocketAddr> {
        self.data_addr
    }

    /// Stop accepting, join the engine's worker pool, wake every
    /// reactor so it drops its connections, join the reactors and all
    /// data-plane threads. Same path the wire-level
    /// `DaemonCommand::Shutdown` takes.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }
}

impl Drop for UrdDaemon {
    fn drop(&mut self) {
        self.shutdown();
        let _ = std::fs::remove_file(&self.control_path);
        let _ = std::fs::remove_file(&self.user_path);
    }
}

/// Bind a unix socket inside the 0o700 staging directory, set its
/// final mode, then rename it into place — the rename is what makes it
/// connectable, so no client ever sees intermediate permissions.
fn bind_with_mode(
    staging: &Path,
    name: &str,
    mode: u32,
    final_path: &Path,
) -> std::io::Result<UnixListener> {
    let tmp = staging.join(name);
    let listener = UnixListener::bind(&tmp)?;
    std::fs::set_permissions(&tmp, std::fs::Permissions::from_mode(mode))?;
    std::fs::rename(&tmp, final_path)?;
    Ok(listener)
}

/// State shared by the reactors and the wire-level
/// `DaemonCommand::Shutdown`.
struct Shared {
    engine: Arc<Engine>,
    /// The data plane's server half: reactor 0 hands it every
    /// connection the TCP listener accepts, shutdown closes it.
    data: Arc<DataServer>,
    shutdown: AtomicBool,
    /// Serializes `initiate_shutdown`: a second caller blocks until the
    /// first finishes, then returns — `Drop` after a wire-level
    /// shutdown never races a half-torn-down daemon.
    shutdown_done: Mutex<bool>,
    /// Next control/user connection id; also deals them round-robin.
    next_conn: AtomicU64,
    reactors: Vec<Arc<Reactor>>,
    reactor_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Flag shutdown, stop the worker pool (which leaves every task
    /// terminal, so every parked wait answered), wake each reactor so
    /// it drops its connections and listeners, join the reactors, then
    /// unblock and join the blocking data-plane threads. The engine
    /// stops *first* so callbacks cannot fire into half-dead reactors
    /// with live waits outstanding.
    fn initiate_shutdown(&self) {
        let mut done = self.shutdown_done.lock();
        if *done {
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // norns-lint: allow(lock-across-blocking): engine shutdown joins its worker pool; intentionally serialised under `shutdown_done`
        self.engine.shutdown();
        for reactor in &self.reactors {
            reactor.waker.wake();
        }
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *self.reactor_threads.lock());
        for handle in threads {
            // Shutdown is deliberately serialised behind
            // `shutdown_done`: a second caller must block until the
            // joins complete so it observes a fully torn-down daemon,
            // and no other code path takes this mutex. This never runs
            // on a reactor (`wire_shutdown` hands it to a helper
            // thread), so no join here is a self-join.
            // norns-lint: allow(lock-across-blocking): shutdown join is intentionally serialised under `shutdown_done`
            let _ = handle.join();
        }
        // A connection accepted just before the flag went up may still
        // be queued for a reactor that exited without registering it;
        // drop it so its client sees EOF like every other.
        for reactor in &self.reactors {
            reactor.incoming.lock().clear();
        }
        // Reactor 0 (the only accept path) is joined: no further
        // data-plane connections can appear, so one pass drains all.
        // norns-lint: allow(lock-across-blocking): joining data-plane handlers is the point of shutdown; serialised under `shutdown_done`
        self.data.close_and_join();
        *done = true;
    }
}
