//! # norns-ipc — the real urd daemon
//!
//! While the `norns` crate models the service inside the cluster
//! simulator, this crate is a *real* implementation of the daemon:
//! actual `AF_UNIX` sockets with split control/user permissions, a
//! fixed pool of epoll reactor threads, framed protobuf-style messages
//! (`norns-proto`), a policy-driven worker pool, genuine filesystem
//! transfers, and a TCP *data plane* over which two daemons stage
//! files between their dataspaces (`RemotePath` pulls and pushes — the
//! paper's node-to-node staging scenarios). It backs the Fig. 4
//! request-rate benchmark (local clients hammering one urd) and the
//! quickstart/memory-offload/remote-staging examples.
//!
//! * [`engine::Engine`] — registries (dataspaces, jobs, peers),
//!   validation, one admission path into a bounded dispatch queue
//!   arbitrated through the shared `norns-sched` policies, a joined
//!   worker pool (the only threads it spawns), a sharded task table,
//!   one wait-subscription registry behind both the blocking `wait`
//!   and the reactor's callback waits, a chunked zero-copy local data
//!   plane and, in `engine/remote/`, both halves of the TCP one — the
//!   windowed transfers (`mod.rs`, `conn.rs`) and the `DataServer`
//!   that answers a peer on blocking handler threads (`server.rs`);
//!   every failure is an [`EngineError`].
//! * [`daemon::UrdDaemon`] — `daemon/mod.rs` is socket and data-plane
//!   lifecycle (shutdown joins every reactor and handler thread),
//!   `daemon/reactor.rs` the epoll reactors, which also keep the
//!   deadlines of bounded waits in their epoll timeout, and
//!   `daemon/dispatch.rs` what each control and user request does.
//! * [`client::CtlClient`] / [`client::UserClient`] — the client
//!   libraries mirroring `nornsctl` / `norns`: `issue_*` keeps many
//!   tagged requests outstanding per connection (wire v7), and each
//!   blocking verb is the same call at depth 1.

pub mod client;
pub mod daemon;
pub mod engine;

pub use client::{ClientError, ClientResult, CtlClient, UserClient};
pub use daemon::{DaemonConfig, UrdDaemon, DEFAULT_REACTORS};
pub use engine::{
    Engine, EngineConfig, EngineError, IpcPolicy, PolicyKind, DEFAULT_CHUNK_SIZE,
    DEFAULT_QUEUE_CAPACITY, DEFAULT_REMOTE_WINDOW, DEFAULT_SHARDS, MAX_REMOTE_WINDOW,
    MIN_CHUNK_SIZE,
};

/// Names from when pipelining was a separate pair of client types;
/// the out-of-workspace benchmark driver still imports them.
pub type PipelinedCtl = CtlClient;
pub type PipelinedUser = UserClient;
