//! The live workspace must lint clean — and the run must be
//! non-trivial, so an accidentally empty scan set cannot masquerade as
//! a pass.

use norns_lint::Config;
use std::path::Path;

#[test]
fn live_workspace_has_no_unsuppressed_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let cfg = Config::workspace(&root).expect("scan workspace");
    // The scan sets recurse: the executor, the daemon and the data
    // plane are directories of their own and must stay under the lock
    // and call-graph rules.
    for (dir, files) in [
        (
            "crates/norns-flow/src/executor",
            &["mod.rs", "lifecycle.rs", "wait.rs", "teardown.rs"][..],
        ),
        (
            "crates/norns-ipc/src/daemon",
            &["mod.rs", "reactor.rs", "dispatch.rs"][..],
        ),
        (
            "crates/norns-ipc/src/engine/remote",
            &["mod.rs", "conn.rs", "server.rs"][..],
        ),
    ] {
        for file in files {
            let path = root.join(dir).join(file);
            assert!(
                cfg.lock_files.contains(&path),
                "{dir}/{file} not lock-scanned"
            );
            assert!(cfg.safety_files.contains(&path), "{dir}/{file} not indexed");
        }
    }
    let report = norns_lint::run(&cfg).expect("lint workspace");

    let failures: Vec<String> = report
        .unsuppressed()
        .map(|f| format!("[{}] {}:{} {}", f.rule, f.file, f.line, f.message))
        .collect();
    assert!(
        failures.is_empty(),
        "workspace must lint clean:\n{}",
        failures.join("\n")
    );

    // Guard against a silently degenerate run: the workspace has a
    // known-substantial unsafe inventory and lock population.
    assert!(
        report.unsafe_sites.len() >= 15,
        "unsafe inventory shrank suspiciously: {}",
        report.unsafe_sites.len()
    );
    assert!(
        report
            .unsafe_sites
            .iter()
            .all(|u| u.has_safety_comment || u.allowed),
        "every unsafe site carries a SAFETY comment or an explicit waiver"
    );
    // The lock set exactly: a lock that appears or disappears has to
    // be named here in the same diff.
    let mut lock_names: Vec<&str> = report.lock_names.iter().map(String::as_str).collect();
    lock_names.sort_unstable();
    assert_eq!(
        lock_names,
        [
            "completions",
            "conns",
            "data_addr",
            "dispatch",
            "finished",
            "fired",
            "held",
            "holds",
            "incoming",
            "log",
            "peers",
            "ranges",
            "reactor_threads",
            "registry",
            "seen",
            "shared",
            "shutdown_done",
            "workers",
        ],
        "the lock-name collection changed"
    );
    // A `sites` row whose paths name no scanned file reads nothing.
    for row in norns_lint::sites::ROWS {
        assert!(
            cfg.safety_files.iter().any(|p| {
                let rel = p.strip_prefix(&root).unwrap().to_string_lossy();
                norns_lint::sites::in_scope(row.paths, &rel)
            }),
            "sites row `{}` reads no file",
            row.id
        );
    }
    let wire = report.wire.as_ref().expect("wire summary present");
    // The protocol enums are declared inside `wire_enum!` listings;
    // the rule must still see every one of them, variant for variant.
    let seen: Vec<(&str, usize)> = wire
        .enums
        .iter()
        .map(|(name, variants)| (name.as_str(), variants.len()))
        .collect();
    assert_eq!(
        seen,
        [
            ("BackendKind", 4),
            ("CtlRequest", 16),
            ("DaemonCommand", 5),
            ("DataRequest", 5),
            ("DataResponse", 4),
            ("Durability", 3),
            ("ErrorCode", 10),
            ("ResourceDesc", 3),
            ("Response", 7),
            ("TaskOp", 3),
            ("TaskState", 5),
            ("UserRequest", 5),
        ],
        "protocol enum parse drifted from the listings in messages.rs"
    );

    // The interprocedural layer must have indexed the whole workspace,
    // matched both reactor entry points, and produced witness chains —
    // a degenerate call graph would silently gut the reachability
    // rules while everything still "passes".
    let graph = report.graph.as_ref().expect("call-graph report present");
    assert!(
        graph.functions_indexed >= 300,
        "call-graph index shrank suspiciously: {} fns",
        graph.functions_indexed
    );
    assert_eq!(
        graph.reactor_entries.len(),
        2,
        "both reactor entry points must match: {:?}",
        graph.reactor_entries
    );
    assert!(
        graph.reactor_reachable >= 50,
        "reactor-reachable set shrank suspiciously: {}",
        graph.reactor_reachable
    );
    assert!(
        graph.resolved_unique > 0 && graph.ambiguous > 0 && graph.unresolved > 0,
        "resolution tiers look degenerate: {graph:?}"
    );
    assert!(
        report
            .findings
            .iter()
            .filter(|f| f.allowed.is_some())
            .count()
            >= 8,
        "the deliberate waivers must stay inventoried"
    );
    assert!(
        report
            .findings
            .iter()
            .filter(|f| matches!(f.rule, norns_lint::Rule::ReactorBlocking))
            .all(|f| f.chain.len() >= 2),
        "reactor findings must carry their call chains"
    );
}

/// The full-workspace analysis must stay cheap enough for CI's lint
/// step (budget: well under 30 s even on a cold cache).
#[test]
fn full_workspace_lint_stays_inside_the_time_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let start = std::time::Instant::now();
    let cfg = Config::workspace(&root).expect("scan workspace");
    let report = norns_lint::run(&cfg).expect("lint workspace");
    let elapsed = start.elapsed();
    assert!(
        report.graph.is_some(),
        "budget run must include the interprocedural layer"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "full workspace lint took {elapsed:?}, budget is 30s"
    );
}
