//! Rule `sites`: the workspace's structural invariants, one row each in
//! [`ROWS`], each guarding a design decision against a second copy of
//! it coming back. Only [`Check::Retired`] rows read test code, and a
//! row none of whose files was scanned reads nothing. A `sites` finding
//! cannot be waived by a marker: an exception is an edit to its row.

use crate::callgraph::{CallGraph, CallSite, Recv};
use crate::lexer::{self, matches_at, Tok, Token};
use crate::{FileCtx, Finding, Rule};
use std::path::Path;

pub struct Row {
    /// Named first in every finding the row raises.
    pub id: &'static str,
    /// Workspace-relative path patterns the row reads: `*` is one path
    /// segment, a directory covers everything under it, and a `!`
    /// pattern takes files out again.
    pub paths: &'static [&'static str],
    pub check: Check,
    /// Why the row holds, in one line.
    pub reason: &'static str,
}

pub enum Check {
    /// `Calls(callees, callers)`, read off the call graph: the functions
    /// calling a callee (`name`, `recv.name` or `Qual::name`) are exactly
    /// `callers`, each named by a `::`-suffix of its qualified name.
    Calls(&'static [&'static str], &'static [&'static str]),
    /// None of these token sequences ([`lexer::matches_at`]), each
    /// starting with a word or a string literal, appears; in a non-Rust
    /// file, none of them as a whole word.
    Forbidden(&'static [&'static str]),
    /// As [`Check::Forbidden`], in test code too: a retired name.
    Retired(&'static [&'static str]),
    /// `TextsOf(file, func)`: no string literal contains one of the
    /// string literals in the body of `fn func` in `file`.
    TextsOf(&'static str, &'static str),
}

use Check::*;

const IPC: &str = "crates/norns-ipc/src";
const ENGINE: &str = "crates/norns-ipc/src/engine";
const REMOTE: &str = "crates/norns-ipc/src/engine/remote";
const FLOW: &str = "crates/norns-flow/src";
const SLURM: &str = "crates/slurm-sim/src";
const CORE: &str = "crates/core/src";

#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    // Planning, admission and the wire.
    Row { id: "mapping-table", paths: &["crates/*/src", "!crates/norns-flow/src/script.rs", "!crates/norns-flow/src/plan.rs"],
          check: Forbidden(&["Mapping::"]), reason: "`norns_flow::plan` is the one code that expands a `#NORNS` mapping" },
    Row { id: "frame-assembler", paths: &["crates/*/src", "src", "!crates/norns-proto/src/frame.rs"], check: Calls(&["frame_header"], &[]),
          reason: "a frame is assembled in one place, `norns_proto::push_frame`" },
    Row { id: "wire-discriminants", paths: &["crates/norns-proto/src"], check: Retired(&["fn to_u64", "fn from_u64"]),
          reason: "a message layout is stated once, in its `wire_struct!` / `wire_enum!` listing" },
    Row { id: "admission-route", paths: &[IPC], check: Retired(&["fn route_of"]),
          reason: "a task's shape is judged in one table, `norns_sched::shape`, in both worlds" },
    Row { id: "admission-texts", paths: &["crates/*/src", "src", "!crates/norns-sched/src/shape.rs"],
          check: TextsOf("crates/norns-sched/src/shape.rs", "message"),
          reason: "a refusal is spelled once, by `Refusal::message` in the admission table" },
    Row { id: "wait-verb", paths: &["crates/*/src", "src", "tests", "examples"],
          check: Retired(&["WaitAny", "wait_any", "TaskCompleted", "MAX_WAIT_SET", "expect_completion"]),
          reason: "v5's batch wait is retired: every task gets its one parked `WaitTask`" },
    Row { id: "wait-issuer", paths: &["crates/norns-flow/src"], check: Calls(&["issue_wait"], &["WorkflowExecutor::submit_task"]),
          reason: "the executor parks every task's wait from one function" },
    Row { id: "stage-out-move", paths: &["crates/norns-flow/src", "!crates/norns-flow/src/executor/teardown.rs"],
          check: Forbidden(&["TaskOp::Remove", "remove_spec("]),
          reason: "a stage-out is one `Move`; only the §III cleanup removes staged-in data" },
    Row { id: "cross-node-move", paths: &[IPC], check: Retired(&["\"only copy tasks may cross nodes\""]),
          reason: "the engine runs a `Move` on every route, freeing its source after the last byte" },

    // The task description: one for both worlds, each task enum once.
    Row { id: "task-description", paths: &["crates", "src", "tests", "examples", "!crates/norns-proto/src/messages.rs"],
          check: Retired(&["ResourceRef", "struct TaskSpec", "fn wire_state", "fn shape_of", "fn durability"]),
          reason: "both worlds submit the wire's one `TaskSpec`, whose task enums are `norns_sched`'s own" },
    Row { id: "task-enums", paths: &["crates", "src", "tests", "examples", "!crates/norns-sched/src"],
          check: Retired(&["enum TaskOp", "enum Durability", "enum TaskState"]),
          reason: "each task enum is defined once, in the `norns_sched` table that decides on it; the wire lists its codes" },
    Row { id: "shape-builder", paths: &["crates/*/src", "src"], check: Calls(&["shape"], &["Engine::submit", "ops::submit_task"]),
          reason: "a task's shape is built by `TaskSpec::shape`, where each world admits a submission" },

    // The job lifecycle: one table both worlds run.
    Row { id: "job-apply", paths: &[FLOW, SLURM], check: Calls(&["job::step"], &["ctld::apply", "WorkflowExecutor::step"]),
          reason: "a job's state changes only where a world applies `norns_flow::job::step`" },
    Row { id: "job-state", paths: &[FLOW, SLURM], check: Forbidden(&["state = JobState::"]),
          reason: "a job's state is what the lifecycle table returns, never set by hand" },
    Row { id: "job-copies", paths: &[FLOW, SLURM], check: Retired(&["fn abandon_stage_out", "fn cancel_downstream", "enum FlowJobState"]),
          reason: "the simulator and the executor ran hand-written copies of the job lifecycle; both run the one table" },

    // The task lifecycle: one table each world applies at one site.
    Row { id: "task-apply", paths: &[IPC, CORE], check: Calls(&["lifecycle::step"], &["Engine::step", "ops::step"]),
          reason: "a task's state and status counters change only where a world applies `norns_sched::lifecycle::step`" },
    Row { id: "task-apply", paths: &[IPC, CORE], check: Calls(&["lifecycle::admit"], &["Engine::admit", "ops::admit"]),
          reason: "a task is made, queued and counted in one admission per world" },
    Row { id: "worker-slot", paths: &[CORE], check: Calls(&["queue.finish", "queue.cancel_pending"], &["ops::step"]),
          reason: "the simulated urd frees a worker slot or drops a queued task only on the lifecycle row that ends it" },

    // Durability: one table both worlds run.
    Row { id: "durability-apply", paths: &[IPC, CORE], check: Calls(&["durability::step"], &["Engine::durable", "ops::durable"]),
          reason: "when a stage-out ACKs, replicates and frees its source is decided where a world applies `norns_sched::durability::step`" },
    Row { id: "source-free", paths: &[IPC, CORE], check: Calls(&["free_source"], &["Engine::durable", "ops::durable", "plan::land"]),
          reason: "a `Move`'s source is freed on the durability table's `FreeSource`, never inside a mover's `finish`" },
    Row { id: "durability-copies", paths: &[IPC, "crates/norns-sched/src"],
          check: Retired(&["fn begin_replication", "ReplRequest", "fn finish_task", "replica_failed", "Event::Replica"]),
          reason: "the engine and the lifecycle kept hand-written copies of the durability rule; both worlds run the one table" },

    // The job & dataspace table: one table both worlds hold.
    Row { id: "registry-texts", paths: &["crates/*/src", "src", "!crates/norns-sched/src/registry.rs"],
          check: TextsOf("crates/norns-sched/src/registry.rs", "message"),
          reason: "a registration refusal is spelled once, by `Refusal::message` in the job & dataspace table" },
    Row { id: "registry-copies", paths: &["crates", "src", "tests", "examples", "!crates/norns-sched/src"],
          check: Retired(&["pid_jobs", "struct JobEntry", "HashMap<…DataspaceDesc", "HashMap<…JobDesc",
                           "HashMap<…DataspaceSpec", "HashMap<…JobSpec"]),
          reason: "the simulator and the daemon kept hand-matched copies of the job & dataspace table; both hold `norns_sched::registry`" },

    // The data plane.
    Row { id: "socket-tuning", paths: &[REMOTE], check: Calls(&["set_nodelay", "set_read_timeout", "set_write_timeout"], &["conn::tune"]),
          reason: "both ends of a peer connection are tuned in one helper (a missed `TCP_NODELAY` cost every push 40 ms)" },
    Row { id: "sendfile", paths: &[REMOTE], check: Calls(&["sendfile"], &["conn::sendfile_once"]),
          reason: "a payload leaves through one `sendfile` loop, whichever end sends it" },
    Row { id: "splice", paths: &[REMOTE], check: Calls(&["splice"], &["conn::splice_once"]),
          reason: "a payload lands through one `splice` helper, whichever end receives it" },
    Row { id: "landing-pipe", paths: &[REMOTE], check: Calls(&["pipe2", "fcntl"], &["conn::Pipe::new"]),
          reason: "the pipe a payload lands through is made in `conn.rs` alone" },
    Row { id: "held-connection", paths: &[REMOTE], check: Calls(&["take_conn", "store_conn"], &["HeldConn::acquire", "HeldConn::drop"]),
          reason: "a remote transfer holds its connection from plan to finish, not per unit" },
    Row { id: "request-window", paths: &["crates", "examples", "tests", "README.md"],
          check: Retired(&["remote_window", "REMOTE_WINDOW", "with_remote_window"]),
          reason: "a remote unit goes out whole: `chunk_size` is the one bytes-in-flight knob" },
    Row { id: "mover-abort", paths: &[REMOTE], check: Calls(&["abort.load"], &[]),
          reason: "the chain reads the abort flag around each unit; no remote mover does" },

    // The engine: one chain holder, one wake rule, one clock, one queue.
    Row { id: "shared-chain", paths: &[IPC], check: Retired(&["Arc<Chain", "Arc<ChunkGrid", "UnitEnd"]),
          reason: "a chain is a boxed value owned by whoever holds its one issued unit" },
    Row { id: "wake-rule", paths: &[IPC], check: Calls(&["dispatch_cv.notify_one"], &["Engine::wake_worker"]),
          reason: "whether an admission wakes a parked worker is decided in one function" },
    Row { id: "wake-everyone", paths: &[IPC], check: Calls(&["dispatch_cv.notify_all"], &["Engine::shutdown"]),
          reason: "waking the whole pool is for shutdown alone: elsewhere it queues idle workers on the dispatch lock" },
    Row { id: "task-state-tables", paths: &[IPC],
          check: Retired(&["WaitSubs", "wait_subs", "by_task", "take_sub", "ReplState", "ReplicaMeta", "repl_cv"]),
          reason: "a task's waits and replication role live in its own `TaskEntry`, under its shard lock" },
    Row { id: "stored-callback", paths: &[IPC, "!crates/norns-ipc/src/engine/shard.rs"],
          check: Forbidden(&["Vec<…WaitCallback", "VecDeque<…WaitCallback", "HashMap<…WaitCallback", "BTreeMap<…WaitCallback",
                             "BinaryHeap<…WaitCallback", "Mutex<…WaitCallback", "RwLock<…WaitCallback"]),
          reason: "a wait callback is held by its task's entry alone; elsewhere it is built, passed on or run" },
    Row { id: "terminal-transition", paths: &[IPC], check: Retired(&["fn mark_cancelled"]),
          reason: "every task ends in the lifecycle table's one terminal transition, applied at `Engine::step`" },
    Row { id: "task-clock", paths: &[ENGINE], check: Forbidden(&["elapsed_usec: u64"]),
          reason: "a task's durations come from the stamps in its own entry" },
    Row { id: "dispatch-queue", paths: &[IPC],
          check: Forbidden(&["UNIT_ID_BASE", "next_unit", "work: HashMap", "enum Route", "enum Outcome", "abortable", "IpcPolicy"]),
          reason: "the scheduler holds the work it orders, and a dispatch ends in one `Step`" },

    // Landing: one parent helper, one landing rule, one copy path, one mover.
    Row { id: "parent-helper", paths: &[ENGINE],
          check: Calls(&["create_dir_all"], &["transfer::with_parent", "LocalCopy::walk", "Engine::register_dataspace"]),
          reason: "an output's parent is made by `with_parent`, and only when it is missing" },
    Row { id: "landing-create", paths: &[ENGINE], check: Calls(&["File::create", "fs::write"], &[]),
          reason: "every destination is created or emptied by one helper, `transfer.rs::open_landing`" },
    Row { id: "landing-pair", paths: &[IPC], check: Retired(&["fn open_pair"]),
          reason: "every destination is created or emptied by one helper, `transfer.rs::open_landing`" },
    Row { id: "landing-floor", paths: &["crates/norns-ipc/src/engine/transfer.rs"], check: Retired(&["len > chunk_size"]),
          reason: "a file's length against the landing floor decides how it lands, never `chunk_size`" },
    Row { id: "local-copy", paths: &[IPC], check: Retired(&["fn copy_tree", "fn copy_file", "struct ChunkedCopy", "meta.len() > self.chunk_size"]),
          reason: "every local copy, one file or a tree, is planned once into one chain, `LocalCopy`" },
    Row { id: "fallocate", paths: &["crates/*/src", "src"], check: Calls(&["fallocate"], &["transfer::fallocate_once"]),
          reason: "a destination gets its blocks through one helper, `transfer.rs::preallocate`" },
    Row { id: "set-len", paths: &[ENGINE], check: Calls(&["set_len"], &["transfer::preallocate", "transfer::open_landing"]),
          reason: "a `set_len` elsewhere is a sparse preallocation coming back" },
    Row { id: "range-step", paths: &["crates", "src", "tests", "examples"], check: Retired(&["range_step", "RANGE_STEP_FLOOR"]),
          reason: "a remote range is `MAX_DATA_RANGE` or the rest of its unit, never cut smaller" },
    Row { id: "mmap", paths: &[IPC], check: Calls(&["mmap"], &["SourceMap::new"]),
          reason: "a source is mapped in one place, whose guard unmaps it" },
    Row { id: "munmap", paths: &[IPC], check: Calls(&["munmap"], &["SourceMap::drop"]),
          reason: "a mapping is undone by its guard's drop alone, so every path unmaps" },
    Row { id: "fstatfs", paths: &[IPC], check: Calls(&["fstatfs"], &["transfer::on_ext4"]),
          reason: "the mapped mover is picked by one `fstatfs(2)` helper, once per file" },
    Row { id: "pwrite", paths: &[IPC], check: Calls(&["pwrite"], &["SourceMap::write_to"]),
          reason: "a mapped unit lands with one `pwrite(2)` from its mapping" },
];

/// Run `rows` over the scanned files and the call graph built from
/// them; `root` is where a row's non-Rust files are read from.
pub fn check(rows: &[Row], root: &Path, files: &[&FileCtx], graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    for row in rows {
        let in_row = |rel: &str| in_scope(row.paths, rel);
        let scoped: Vec<_> = files.iter().filter(|c| in_row(&c.rel)).collect();
        if scoped.is_empty() {
            continue;
        }
        // (file, line, what), each a finding naming the row.
        let mut hits: Vec<(String, u32, String)> = Vec::new();
        let tests = matches!(row.check, Retired(_));
        let patterns = match row.check {
            Calls(callees, callers) => {
                let mut unseen = callers.to_vec();
                let fns = graph.fns.iter().filter(|d| !d.is_test && in_row(&d.file));
                for def in fns {
                    for site in def.calls.iter().chain(&def.spawned) {
                        if !callees.iter().any(|c| calls(site, c)) {
                            continue;
                        }
                        match callers.iter().find(|p| names(&def.qname, p)) {
                            Some(p) => unseen.retain(|u| u != p),
                            None => {
                                let what = format!("`{}` called from `{}`", site.name, def.qname);
                                hits.push((def.file.clone(), site.line, what));
                            }
                        }
                    }
                }
                for p in unseen {
                    let what = format!("`{p}` calls none of {callees:?}: edit the row");
                    hits.push((file!().into(), 0, what));
                }
                Vec::new()
            }
            Forbidden(patterns) | Retired(patterns) => {
                for rel in row.paths.iter().filter(|p| !p.ends_with(".rs")) {
                    let text = std::fs::read_to_string(root.join(rel)).unwrap_or_default();
                    for (n, line) in text.lines().enumerate() {
                        for p in patterns.iter().filter(|p| has_word(line, p)) {
                            hits.push((rel.to_string(), n as u32 + 1, format!("`{p}`")));
                        }
                    }
                }
                let lex = |p: &&str| (p.to_string(), lexer::lex(p).tokens);
                patterns.iter().map(lex).collect()
            }
            TextsOf(file, func) => {
                let texts = texts_of(files.iter().find(|c| c.rel == file), func);
                if texts.is_empty() {
                    hits.push((file.into(), 0, format!("no string literal in `fn {func}`")));
                }
                texts
            }
        };
        for ctx in scoped {
            let toks = &ctx.lexed.tokens;
            for (i, t) in toks.iter().enumerate() {
                if matches!(t.kind, Tok::Punct(_) | Tok::Lit) {
                    continue; // every pattern starts with a word or a string
                }
                for (text, _) in patterns.iter().filter(|(_, p)| matches_at(toks, i, p)) {
                    if tests || !ctx.in_test(i) {
                        hits.push((ctx.rel.clone(), t.line, format!("`{text}`")));
                    }
                }
            }
        }
        findings.extend(hits.into_iter().map(|(file, line, what)| Finding {
            rule: Rule::Sites,
            file,
            line,
            message: format!("{}: {what}; {}", row.id, row.reason),
            allowed: None,
            chain: Vec::new(),
        }));
    }
    findings
}

/// Is `rel` under one of `paths` and under none of its `!` patterns?
pub fn in_scope(paths: &[&str], rel: &str) -> bool {
    let under = |p: &str| {
        let mut segs = rel.split('/');
        p.split('/')
            .all(|want| segs.next().is_some_and(|s| want == "*" || want == s))
    };
    paths.iter().any(|p| !p.starts_with('!') && under(p))
        && !paths.iter().any(|p| p.strip_prefix('!').is_some_and(under))
}

/// Does `site` call `callee` (`name`, `recv.name` or `Qual::name`)?
fn calls(site: &CallSite, callee: &str) -> bool {
    if let Some((qual, name)) = callee.rsplit_once("::") {
        site.name == name && matches!(&site.recv, Recv::Path(q) if q == qual)
    } else if let Some((recv, name)) = callee.split_once('.') {
        site.name == name && matches!(&site.recv, Recv::Method(Some(r)) if r == recv)
    } else {
        site.name == callee
    }
}

/// Is `pattern` a `::`-suffix of the qualified name `qname`?
fn names(qname: &str, pattern: &str) -> bool {
    let rest = qname.strip_suffix(pattern);
    rest.is_some_and(|rest| rest.is_empty() || rest.ends_with("::"))
}

/// Does `line` hold `word` bounded by non-identifier characters?
fn has_word(line: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let bounded =
        |at: usize| !line[..at].ends_with(ident) && !line[at + word.len()..].starts_with(ident);
    line.match_indices(word).any(|(at, _)| bounded(at))
}

/// The string literals of `fn func` in `ctx`, each as a one-token
/// pattern.
fn texts_of(ctx: Option<&&FileCtx>, func: &str) -> Vec<(String, Vec<Token>)> {
    let toks = ctx.map_or(&[][..], |c| &c.lexed.tokens[..]);
    let head = lexer::lex(&format!("fn {func}")).tokens;
    let Some(at) = (0..toks.len()).find(|&i| matches_at(toks, i, &head)) else {
        return Vec::new();
    };
    let text = |t: &Token| match &t.kind {
        Tok::Str(text) => Some((text.clone(), vec![t.clone()])),
        _ => None,
    };
    toks[at..lexer::item_end(toks, at)]
        .iter()
        .filter_map(text)
        .collect()
}
