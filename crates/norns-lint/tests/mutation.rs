//! Mutation self-tests: the analyzer must notice when the workspace
//! gets worse. A copy of the live tree is mutated one change at a
//! time — deleting a single waiver, bringing back a mechanism a `sites`
//! row guards, inlining a blocking call into the reactor loop, or
//! serving the data plane from it — and each mutant must produce at
//! least one unsuppressed finding (what `--check` fails on).
//!
//! This guards the rules themselves: a refactor that silently stops
//! the reactor rules from firing would keep the live tree "clean" and
//! nothing else would catch it.

use norns_lint::{run, sites, walk_rs, Config, Rule};
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("norns-lint sits two levels under the workspace root")
        .to_path_buf()
}

fn collect_rs(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    walk_rs(dir, &mut files).expect("walk the workspace");
    files
}

/// A scratch copy of every workspace `.rs` file under `crates/`, and of
/// `README.md`, removed on drop.
struct TempTree(PathBuf);

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn copy_workspace(tag: &str) -> TempTree {
    let root = workspace_root();
    let tmp =
        std::env::temp_dir().join(format!("norns-lint-mutation-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&tmp);
    let files = collect_rs(&root.join("crates"));
    assert!(files.len() > 20, "workspace copy looks implausibly small");
    for f in files.iter().chain([&root.join("README.md")]) {
        let rel = f.strip_prefix(&root).unwrap();
        let dst = tmp.join(rel);
        fs::create_dir_all(dst.parent().unwrap()).unwrap();
        fs::copy(f, &dst).unwrap();
    }
    TempTree(tmp)
}

fn unsuppressed(root: &Path) -> Vec<(Rule, String)> {
    let cfg = Config::workspace(root).expect("scan mutated tree");
    let report = run(&cfg).expect("lint mutated tree");
    report
        .unsuppressed()
        .map(|f| (f.rule, f.message.clone()))
        .collect()
}

fn unsuppressed_rules(root: &Path) -> Vec<Rule> {
    unsuppressed(root)
        .into_iter()
        .map(|(rule, _)| rule)
        .collect()
}

/// Standalone waiver-marker lines in the copied tree, as
/// (file, line index, rule name).
fn waiver_lines(tmp: &Path) -> Vec<(PathBuf, usize, String)> {
    let mut out = Vec::new();
    for f in collect_rs(&tmp.join("crates")) {
        let text = fs::read_to_string(&f).unwrap();
        for (i, line) in text.lines().enumerate() {
            let t = line.trim_start();
            if let Some(rest) = t.strip_prefix("// norns-lint: allow(") {
                let rule = rest.split(')').next().unwrap_or("").to_string();
                out.push((f.clone(), i, rule));
            }
        }
    }
    out
}

#[test]
fn deleting_any_single_waiver_fails_the_check() {
    let tree = copy_workspace("waivers");
    let tmp = &tree.0;

    assert!(
        unsuppressed_rules(tmp).is_empty(),
        "the unmutated copy must be clean"
    );

    let waivers = waiver_lines(tmp);
    assert!(
        waivers.len() >= 8,
        "expected the live tree's waivers in the copy, found {}",
        waivers.len()
    );

    for (file, line_idx, rule) in waivers {
        let original = fs::read_to_string(&file).unwrap();
        let mutated: Vec<&str> = original
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != line_idx)
            .map(|(_, l)| l)
            .collect();
        fs::write(&file, mutated.join("\n")).unwrap();

        let fired = unsuppressed_rules(tmp);
        assert!(
            fired.iter().any(|r| r.name() == rule),
            "deleting the `{rule}` waiver at {}:{} must re-expose the finding; got {:?}",
            file.display(),
            line_idx + 1,
            fired
        );

        fs::write(&file, original).unwrap();
    }
}

/// Insert `stmt` as the first line of `reactor_loop`'s body in a
/// scratch copy of the workspace; returns the rules that then fire.
fn rules_with_reactor_loop_starting(tag: &str, stmt: &str) -> Vec<Rule> {
    let tree = copy_workspace(tag);
    let tmp = &tree.0;
    let reactor = tmp.join("crates/norns-ipc/src/daemon/reactor.rs");
    let original = fs::read_to_string(&reactor).unwrap();

    let mut lines: Vec<String> = original.lines().map(str::to_string).collect();
    let fn_line = lines
        .iter()
        .position(|l| l.contains("fn reactor_loop"))
        .expect("daemon/reactor.rs defines reactor_loop");
    let body_open = (fn_line..lines.len())
        .find(|&i| lines[i].trim_end().ends_with('{'))
        .expect("reactor_loop has a body");
    lines.insert(body_open + 1, format!("        {stmt}"));
    fs::write(&reactor, lines.join("\n")).unwrap();

    unsuppressed_rules(tmp)
}

#[test]
fn inlining_a_blocking_call_into_the_reactor_fails_the_check() {
    let fired = rules_with_reactor_loop_starting(
        "inline",
        "std::thread::sleep(std::time::Duration::from_millis(1));",
    );
    assert!(
        fired.contains(&Rule::ReactorBlocking),
        "a sleep inside reactor_loop must fire reactor-blocking; got {fired:?}"
    );
}

/// The data-plane I/O model decision (README § Data-plane
/// architecture) is machine-checked: `handle_data` sits in positioned
/// file reads and writes of up to `MAX_DATA_RANGE`, so serving it from
/// a reactor instead of a blocking handler thread fails the check.
#[test]
fn hoisting_handle_data_under_the_reactor_fails_the_check() {
    let fired = rules_with_reactor_loop_starting(
        "hoist",
        "let _ = handle_data(&shared.engine, Bytes::new(), &mut Vec::new());",
    );
    assert!(
        fired.contains(&Rule::ReactorBlocking),
        "handle_data under reactor_loop must fire reactor-blocking; got {fired:?}"
    );
}

/// For each `sites` row, an edit that brings back what it guards: the
/// row's id, a file, and text appended to it (at the end of a file, a
/// function is production code; under `#[cfg(test)]`, test code).
#[rustfmt::skip]
const REINTRODUCED: &[(&str, &str, &str)] = &[
    ("mapping-table", "crates/norns-flow/src/executor/mod.rs",
     "const M: Mapping = Mapping::All;"),
    ("frame-assembler", "crates/norns-ipc/src/client.rs",
     "fn f(b: &mut Vec<u8>) { frame_header(b, 0); }"),
    ("wire-discriminants", "crates/norns-proto/src/messages.rs",
     "#[cfg(test)] mod m { fn to_u64() {} }"),
    ("admission-route", "crates/norns-ipc/src/engine/mod.rs",
     "#[cfg(test)] mod m { fn route_of() {} }"),
    ("admission-texts", "crates/norns-ipc/src/daemon/dispatch.rs",
     "fn f() -> &'static str { \"copy/move require an output\" }"),
    ("wait-verb", "crates/norns-ipc/src/client.rs",
     "#[cfg(test)] mod m { fn f(c: &Client) { c.wait_any(); } }"),
    ("wait-issuer", "crates/norns-flow/src/executor/mod.rs",
     "fn f(c: &mut UserClient) { c.issue_wait(1); }"),
    ("stage-out-move", "crates/norns-flow/src/executor/lifecycle.rs",
     "fn f() -> TaskOp { TaskOp::Remove }"),
    ("cross-node-move", "crates/norns-ipc/src/engine/mod.rs",
     "#[cfg(test)] mod m { const M: &str = \"only copy tasks may cross nodes\"; }"),
    ("task-description", "crates/core/src/sim/plan.rs",
     "#[cfg(test)] mod m { enum ResourceRef { Memory } }"),
    ("task-description", "crates/core/src/task.rs",
     "pub struct TaskSpec { pub op: TaskOp }"),
    ("task-description", "crates/norns-ipc/src/engine/mod.rs",
     "fn wire_state(s: TaskState) -> TaskState { s }"),
    ("task-description", "crates/norns-ipc/src/engine/mod.rs",
     "fn shape_of(spec: &TaskSpec) -> Shape { spec.shape() }"),
    ("task-description", "crates/slurm-sim/src/ctld.rs",
     "fn durability(mode: Option<Durability>) -> Durability { mode.unwrap_or_default() }"),
    ("task-enums", "crates/norns-proto/src/messages.rs",
     "#[cfg(test)] mod m { enum TaskState { Pending } }"),
    ("task-enums", "crates/core/src/task.rs",
     "pub enum Durability { LocalOnly }"),
    ("shape-builder", "crates/core/src/sim/plan.rs",
     "fn f(spec: &TaskSpec) -> Shape { spec.shape() }"),
    ("job-apply", "crates/slurm-sim/src/ctld.rs",
     "fn f(j: Job) -> Next { job::step(j, Event::StageInTimeout) }"),
    ("job-state", "crates/norns-flow/src/executor/teardown.rs",
     "fn f(j: &mut JobRec) { j.life.state = JobState::Failed; }"),
    ("job-copies", "crates/slurm-sim/src/ctld.rs",
     "#[cfg(test)] mod m { fn cancel_downstream() {} }"),
    ("task-apply", "crates/core/src/sim/plan.rs",
     "fn f(t: Task) -> Next { lifecycle::step(t, Event::Dispatch) }"),
    ("task-apply", "crates/norns-ipc/src/engine/registry.rs",
     "fn f() -> Next { lifecycle::admit(Role::Client) }"),
    ("worker-slot", "crates/core/src/sim/plan.rs",
     "fn f(urd: &mut SimUrd) { urd.queue.finish(); }"),
    ("durability-apply", "crates/core/src/sim/ops.rs",
     "fn f(r: Record) -> Next { durability::step(r, Event::Landed) }"),
    ("source-free", "crates/norns-ipc/src/engine/transfer.rs",
     "fn finish(&mut self, landed: bool) { self.free_source(); }"),
    ("durability-copies", "crates/norns-ipc/src/engine/replication.rs",
     "#[cfg(test)] mod m { fn begin_replication() {} }"),
    ("registry-texts", "crates/norns-ipc/src/engine/registry.rs",
     "fn f(id: u64) -> String { format!(\"no such job: {id}\") }"),
    ("registry-copies", "crates/core/src/controller.rs",
     "#[cfg(test)] mod m { struct S { pid_jobs: u8 } }"),
    ("socket-tuning", "crates/norns-ipc/src/engine/remote/server.rs",
     "fn f(s: &TcpStream) { s.set_nodelay(true); }"),
    ("sendfile", "crates/norns-ipc/src/engine/remote/mod.rs",
     "fn f() { std::thread::spawn(|| sendfile(0, 0)); }"),
    ("splice", "crates/norns-ipc/src/engine/remote/server.rs",
     "fn f() { libc::splice(0, 0); }"),
    ("landing-pipe", "crates/norns-ipc/src/engine/remote/mod.rs",
     "fn f() { pipe2(0, 0); }"),
    ("held-connection", "crates/norns-ipc/src/engine/remote/mod.rs",
     "fn run_unit(&mut self) { self.take_conn(); }"),
    ("request-window", "README.md",
     "The request window (`remote_window`) is back."),
    ("request-window", "crates/norns-ipc/src/engine/mod.rs",
     "#[cfg(test)] mod m { const REMOTE_WINDOW: usize = 8; }"),
    ("mover-abort", "crates/norns-ipc/src/engine/remote/mod.rs",
     "fn f(&self) { self.abort.load(Relaxed); }"),
    ("shared-chain", "crates/norns-ipc/src/engine/mod.rs",
     "#[cfg(test)] mod m { type S = Arc<Chain>; }"),
    ("wake-rule", "crates/norns-ipc/src/engine/mod.rs",
     "fn f(&self) { self.dispatch_cv.notify_one(); }"),
    ("wake-everyone", "crates/norns-ipc/src/engine/mod.rs",
     "fn f(&self) { self.dispatch_cv.notify_all(); }"),
    ("task-state-tables", "crates/norns-ipc/src/engine/waits.rs",
     "#[cfg(test)] mod m { struct WaitSubs; }"),
    ("stored-callback", "crates/norns-ipc/src/engine/mod.rs",
     "struct S { parked: Mutex<Vec<(u64, WaitCallback)>> }"),
    ("terminal-transition", "crates/norns-ipc/src/engine/mod.rs",
     "#[cfg(test)] mod m { fn mark_cancelled() {} }"),
    ("task-clock", "crates/norns-ipc/src/engine/replication.rs",
     "fn f(elapsed_usec: u64) {}"),
    ("dispatch-queue", "crates/norns-ipc/src/engine/mod.rs",
     "const UNIT_ID_BASE: u64 = 1 << 62;"),
    ("parent-helper", "crates/norns-ipc/src/engine/transfer.rs",
     "fn f() { std::fs::create_dir_all(\"x\"); }"),
    ("landing-create", "crates/norns-ipc/src/engine/remote/mod.rs",
     "fn f() { File::create(\"x\"); }"),
    ("landing-pair", "crates/norns-ipc/src/engine/transfer.rs",
     "#[cfg(test)] mod m { fn open_pair() {} }"),
    ("landing-floor", "crates/norns-ipc/src/engine/transfer.rs",
     "fn f(len: u64, chunk_size: u64) -> bool { len > chunk_size }"),
    ("local-copy", "crates/norns-ipc/src/engine/transfer.rs",
     "#[cfg(test)] mod m { struct ChunkedCopy; }"),
    ("fallocate", "crates/norns-ipc/src/engine/remote/server.rs",
     "fn f() { libc::fallocate(0, 0, 0, 0); }"),
    ("set-len", "crates/norns-ipc/src/engine/remote/mod.rs",
     "fn f(file: &File) { file.set_len(0); }"),
    ("range-step", "crates/norns-ipc/src/engine/remote/mod.rs",
     "#[cfg(test)] mod m { const RANGE_STEP_FLOOR: u64 = 1; }"),
    ("mmap", "crates/norns-ipc/src/engine/transfer.rs",
     "fn f() { mmap(0, 0); }"),
    ("munmap", "crates/norns-ipc/src/engine/transfer.rs",
     "fn f() { munmap(0, 0); }"),
    ("fstatfs", "crates/norns-ipc/src/engine/transfer.rs",
     "fn f() { fstatfs(0, 0); }"),
    ("pwrite", "crates/norns-ipc/src/engine/transfer.rs",
     "fn f() { pwrite(0, 0); }"),
];

#[test]
fn bringing_back_what_any_sites_row_guards_fails_the_check() {
    for row in sites::ROWS {
        assert!(
            REINTRODUCED.iter().any(|(id, _, _)| *id == row.id),
            "sites row `{}` has no mutation here",
            row.id
        );
    }
    let tree = copy_workspace("sites");
    let tmp = &tree.0;
    let clean = unsuppressed(tmp);
    assert!(
        clean.is_empty(),
        "the unmutated copy must be clean: {clean:?}"
    );

    for (id, rel, text) in REINTRODUCED {
        let file = tmp.join(rel);
        let original = fs::read_to_string(&file).unwrap();
        fs::write(&file, format!("{original}\n{text}\n")).unwrap();

        let fired = unsuppressed(tmp);
        assert!(
            fired
                .iter()
                .any(|(rule, message)| *rule == Rule::Sites
                    && message.starts_with(&format!("{id}:"))),
            "appending `{text}` to {rel} must fail row `{id}`; got {fired:?}"
        );

        fs::write(&file, original).unwrap();
    }
}

/// `wire-exhaustiveness` reads the `impl Wire for` listings of the
/// three task enums `norns_sched` defines as it reads a declared enum:
/// a corpus that stops naming one of their variants fails the check.
#[test]
fn a_task_enum_variant_missing_from_the_corpus_fails_the_check() {
    let tree = copy_workspace("corpus");
    let corpus = tree.0.join("crates/norns-proto/tests/corpus.rs");
    let original = fs::read_to_string(&corpus).unwrap();
    for (variant, stand_in) in [
        ("TaskOp::Remove", "TaskOp::Copy"),
        ("Durability::Synchronous", "Durability::LocalOnly"),
        ("TaskState::Cancelled", "TaskState::Pending"),
    ] {
        assert!(original.contains(variant), "the corpus names {variant}");
        fs::write(&corpus, original.replace(variant, stand_in)).unwrap();
        let fired = unsuppressed(&tree.0);
        assert!(
            fired
                .iter()
                .any(|(rule, message)| *rule == Rule::WireExhaustiveness
                    && message.contains(&format!("`{variant}`"))),
            "a corpus without {variant} must fail wire-exhaustiveness; got {fired:?}"
        );
        fs::write(&corpus, &original).unwrap();
    }
}
