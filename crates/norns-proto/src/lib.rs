//! # norns-proto — the NORNS wire protocol
//!
//! The paper's urd daemon talks to its clients by "sending messages
//! serialized with Google's Protocol Buffers through local `AF_UNIX`
//! sockets" (§IV-B). This crate is the from-scratch equivalent:
//!
//! * [`wire`] — protobuf-inspired varint codec (LEB128,
//!   length-delimited strings) with hard allocation caps, and the
//!   `wire_struct!`/`wire_enum!` listing macros that derive both
//!   directions of a message from one declaration.
//! * [`messages`] — the full request/response set for both the
//!   `nornsctl` control API and the `norns` user API (Table I), each
//!   layout listed once. [`TaskSpec`] is the one task description: the
//!   live daemon and the simulated urd both submit it, and its task
//!   enums are `norns-sched`'s own (this crate's one dependency besides
//!   `bytes`).
//! * [`frame`] — length-prefixed, versioned stream framing: the one
//!   in-place frame assembler ([`push_frame`]) and an incremental
//!   reader tolerant of arbitrary chunk boundaries, which pops whole
//!   frames or — for the data plane's megabyte payloads — a frame's
//!   message and then its payload straight off the stream.
//!
//! Used by `norns-ipc` (the real daemon over real sockets) and by the
//! protocol-level benchmarks.

pub mod frame;
pub mod messages;
pub mod wire;

pub use frame::{
    decode_tagged, encode_frame, encode_tagged, frame_header, push_frame, FrameError, FrameReader,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use messages::{
    BackendKind, CtlRequest, DaemonCommand, DaemonStatus, DataRequest, DataResponse, DataspaceDesc,
    Durability, ErrorCode, JobDesc, ResourceDesc, Response, TaskOp, TaskSpec, TaskState, TaskStats,
    UserRequest, DEFAULT_PRIORITY, MAX_DATA_RANGE, MAX_DIR_ENTRIES,
};
pub use wire::{Wire, WireError};
