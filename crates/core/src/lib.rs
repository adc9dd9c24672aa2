//! # norns — asynchronous data staging for HPC clusters
//!
//! A from-scratch Rust reproduction of **NORNS** (Miranda, Jackson,
//! Tocci, Panourgias, Nou — *NORNS: Extending Slurm to Support
//! Data-Driven Workflows through Asynchronous Data Staging*, IEEE
//! CLUSTER 2019).
//!
//! NORNS is an infrastructure service that coordinates with the job
//! scheduler to orchestrate asynchronous data transfers between the
//! storage layers of an HPC cluster (node-local NVM, burst buffers,
//! the parallel file system). Its per-node daemon — `urd` — validates,
//! queues, executes and monitors I/O tasks submitted by the scheduler
//! (control API) and by applications (user API).
//!
//! ## Crate layout
//!
//! * [`task`] — the I/O task model: the wire's one task description
//!   (`norns_proto::TaskSpec` over `NORNS_MEMORY_REGION` /
//!   `NORNS_POSIX_PATH` resources, copy/move/remove), which the
//!   simulated urd submits as the live daemon does; a `RemotePath`
//!   names node *i* `node<i>` ([`NornsWorld::host`]).
//! * [`queue`] — the pending-task queue with pluggable arbitration
//!   (FCFS default, plus SJF and per-job fair share).
//! * [`controller`] — the job & dataspace controller: registrations,
//!   grants, quotas, process credentials.
//! * [`PluginKind`] — the six Table II transfer plugins, resolved from
//!   a task's shape by the admission table both worlds share
//!   (`norns_sched::shape`).
//! * [`eta`] — E.T.A. estimation from observed transfer rates.
//! * [`sim`] — the simulation driver: [`sim::NornsWorld`] holds one
//!   simulated urd per node on top of `simcore`/`simnet`/`simstore`;
//!   every operation of the paper's two APIs is available as a generic
//!   function in [`sim::ops`].
//!
//! The real-daemon counterpart (actual `AF_UNIX` sockets, worker
//! threads and filesystem I/O) lives in the `norns-ipc` crate.
//!
//! ## Quick example (simulated)
//!
//! See `examples/quickstart.rs` at the workspace root for the full
//! Listing-2-style flow: build a world, register a dataspace and a
//! job, submit a memory-to-local-path task, and observe its stats.

pub mod controller;
pub mod error;
pub mod eta;
pub mod queue;
pub mod sim;
pub mod task;

pub use controller::{ApiSource, Controller, DataspaceSpec, JobSpec};
pub use error::{NornsError, Result};
pub use eta::EtaEstimator;
pub use norns_sched::shape::Plugin as PluginKind;
pub use queue::{
    ArbitrationPolicy, Fcfs, JobFairShare, PendingTask, ShortestFirst, TaskQueue, WeightedPriority,
};
pub use sim::urd::{SimUrd, UrdStatus};
pub use sim::{
    handle_flow_complete, HasNorns, NornsWorld, RpcOutcome, RpcReply, RpcRequest, TaskCompletion,
    WorldConfig,
};
pub use task::{Durability, JobId, ResourceDesc, TaskId, TaskOp, TaskSpec, TaskState, TaskStats};
