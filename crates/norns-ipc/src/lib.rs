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
//!   that holds the work it orders, arbitrated through the shared
//!   `norns-sched` policies (named by [`PolicyKind`]), one dispatch
//!   path — a task runs by its Table II plugin and every dispatch
//!   ends in one step — a joined
//!   worker pool (the only threads it spawns), a sharded task table
//!   whose entry is a task's whole record — the waits parked on it,
//!   blocking `wait` and the reactor's callback waits alike, and its
//!   part in replication included — a chunked zero-copy local data
//!   plane and, in `engine/remote/`, both halves of the TCP one — the
//!   pipelined transfers (`mod.rs`, `conn.rs`) and the `DataServer`
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
pub use daemon::{DaemonConfig, UrdDaemon};
pub use engine::{
    Engine, EngineConfig, EngineError, PolicyKind, DEFAULT_CHUNK_SIZE, DEFAULT_QUEUE_CAPACITY,
    MIN_CHUNK_SIZE,
};

/// A name from when pipelining was a separate pair of client types;
/// the out-of-workspace benchmark driver still imports it.
pub type PipelinedCtl = CtlClient;
