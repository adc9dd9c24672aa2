//! Mutation self-tests: the analyzer must notice when the workspace
//! gets worse. A copy of the live tree is mutated one change at a
//! time — deleting a single waiver, inlining a blocking call into the
//! reactor loop, or serving the data plane from it — and each mutant
//! must produce at least one unsuppressed finding (what `--check`
//! fails on).
//!
//! This guards the rules themselves: a refactor that silently stops
//! the reactor rules from firing would keep the live tree "clean" and
//! nothing else would catch it.

use norns_lint::{run, Config, Rule};
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("norns-lint sits two levels under the workspace root")
        .to_path_buf()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let p = e.path();
        let name = e.file_name().to_string_lossy().into_owned();
        if p.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
}

/// A scratch copy of every workspace `.rs` file, removed on drop.
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
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    assert!(files.len() > 20, "workspace copy looks implausibly small");
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap();
        let dst = tmp.join(rel);
        fs::create_dir_all(dst.parent().unwrap()).unwrap();
        fs::copy(f, &dst).unwrap();
    }
    TempTree(tmp)
}

fn unsuppressed_rules(root: &Path) -> Vec<Rule> {
    let cfg = Config::workspace(root).expect("scan mutated tree");
    let report = run(&cfg).expect("lint mutated tree");
    report.unsuppressed().map(|f| f.rule).collect()
}

/// Standalone waiver-marker lines in the copied tree, as
/// (file, line index, rule name).
fn waiver_lines(tmp: &Path) -> Vec<(PathBuf, usize, String)> {
    let mut files = Vec::new();
    collect_rs(&tmp.join("crates"), &mut files);
    let mut out = Vec::new();
    for f in files {
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
