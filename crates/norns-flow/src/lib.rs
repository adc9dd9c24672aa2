//! # norns-flow — real-mode workflow execution
//!
//! The paper's headline is *Slurm driving NORNS*: jobs move through
//! Pending → StagingIn → Running → StagingOut, with data movement
//! expressed as `#NORNS` script directives and executed asynchronously
//! by the urd daemons. The `slurm-sim` crate reproduces that
//! orchestration inside the cluster simulator; this crate reproduces
//! it against **live daemons**:
//!
//! * [`script`] — the single submission-script parser shared by both
//!   worlds (`#SBATCH` options, `--workflow-*`, `#NORNS`
//!   stage_in/stage_out/persist), plus [`script::render`] for
//!   normalized resubmission. `slurm-sim` re-exports this module, so a
//!   script debugged in the simulator runs unchanged here.
//! * [`plan`] — the single `#NORNS` mapping table shared by both
//!   worlds: [`plan::plan`] expands one `stage_in`/`stage_out …
//!   all|scatter|gather|node:k` directive over an allocation into the
//!   ordered slots (which node moves which path), given only a
//!   callback saying what each node holds. It is pure and is the only
//!   code outside [`script`] that matches on [`Mapping`]; `slurm-sim`'s
//!   `ctld` and the executor each convert a slot into their own task
//!   type, so what still differs between them lives in that
//!   conversion, not in a second table.
//! * [`job`] — the single job lifecycle shared by both worlds:
//!   [`job::step`] is a pure table from a job's record and one event
//!   to the record after it and the actions to carry out. `slurm-sim`'s
//!   `ctld` and the executor are its two apply sites.
//! * [`executor`] — [`executor::WorkflowExecutor`]: an event-driven
//!   DAG engine that registers jobs and staging tasks with real
//!   [`norns_ipc::UrdDaemon`]s over the wire protocol, admits every
//!   dependency-ready job **concurrently** (bodies on worker threads,
//!   one job's stage-in overlapping another's computation — the
//!   paper's headline behavior), and runs each job through [`job`].
//!   Four files by concern: `executor/mod.rs` holds the public types,
//!   `submit` and the slot → wire-task conversion (`PosixPath` vs
//!   `RemotePath` through the peer registry, a `Copy` per stage-in
//!   slot and one `Move` per stage-out slot, durability; the planner's
//!   listing callback is the v6 `ListDir` op); `executor/lifecycle.rs`
//!   applies the table; `executor/wait.rs` submits every task with a
//!   parked v7 `WaitTask` right behind it and is the one blocking
//!   point — a single epoll set over every daemon, each answer routed
//!   to its task by tag; `executor/teardown.rs` is everything that
//!   undoes work (the deadline, cancels, §III removals, a lost daemon).

pub mod executor;
pub mod job;
pub mod plan;
pub mod script;

pub use executor::{
    FlowConfig, FlowError, FlowEvent, FlowJobId, JobBody, NodeSpec, WorkflowExecutor,
};
pub use job::JobState as FlowJobState;
pub use script::{
    parse, render, split_location, JobScript, Mapping, PersistDirective, PersistOp, ScriptError,
    StageDirective, WorkflowPos,
};
