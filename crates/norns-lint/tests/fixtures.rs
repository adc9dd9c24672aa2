//! Fixture-based self-tests: each rule flags its bad snippet and stays
//! quiet on the good one. The snippets live under `tests/fixtures/`
//! (a directory name the workspace scan skips, since they are bad on
//! purpose) and are never compiled — they only pass through the lexer.

use norns_lint::reactor::ReactorConfig;
use norns_lint::sites::{self, Check, Row};
use norns_lint::wire::{DispatchTarget, WireConfig};
use norns_lint::{callgraph, load_file, run, Config, GraphConfig, Report, Rule};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn lint_safety(names: &[&str]) -> Report {
    let root = fixture_dir();
    let cfg = Config {
        safety_files: names.iter().map(|n| root.join(n)).collect(),
        lock_files: Vec::new(),
        wire: None,
        graph: None,
        root,
    };
    run(&cfg).expect("fixture lint run")
}

fn lint_locks(names: &[&str]) -> Report {
    let root = fixture_dir();
    let cfg = Config {
        safety_files: Vec::new(),
        lock_files: names.iter().map(|n| root.join(n)).collect(),
        wire: None,
        graph: None,
        root,
    };
    run(&cfg).expect("fixture lint run")
}

/// Graph-backed run: the named files feed the call graph, with the
/// given reactor entry points and panic scope.
fn lint_reactor(names: &[&str], entries: &[(&str, &str)], panic_scope: &[&str]) -> Report {
    let root = fixture_dir();
    let cfg = Config {
        safety_files: Vec::new(),
        lock_files: Vec::new(),
        wire: None,
        graph: Some(GraphConfig {
            files: names.iter().map(|n| root.join(n)).collect(),
            reactor: Some(ReactorConfig {
                entries: entries
                    .iter()
                    .map(|(f, n)| (f.to_string(), n.to_string()))
                    .collect(),
                panic_scope: panic_scope.iter().map(|s| s.to_string()).collect(),
            }),
        }),
        root,
    };
    run(&cfg).expect("fixture lint run")
}

/// Lock-rule run with the interprocedural layer enabled.
fn lint_locks_graph(names: &[&str]) -> Report {
    let root = fixture_dir();
    let files: Vec<PathBuf> = names.iter().map(|n| root.join(n)).collect();
    let cfg = Config {
        safety_files: Vec::new(),
        lock_files: files.clone(),
        wire: None,
        graph: Some(GraphConfig {
            files,
            reactor: None,
        }),
        root,
    };
    run(&cfg).expect("fixture lint run")
}

fn rules(report: &Report) -> Vec<Rule> {
    report.unsuppressed().map(|f| f.rule).collect()
}

#[test]
fn safety_bad_flags_every_site_kind() {
    let report = lint_safety(&["safety_bad.rs"]);
    assert_eq!(
        rules(&report),
        vec![Rule::UnsafeSafetyComment; 4],
        "extern block, unsafe block, unsafe fn, unsafe impl must all fire"
    );
    let kinds: Vec<&str> = report.unsafe_sites.iter().map(|u| u.kind).collect();
    assert_eq!(
        kinds,
        vec!["extern block", "unsafe block", "unsafe fn", "unsafe impl"]
    );
    assert!(report.unsafe_sites.iter().all(|u| !u.has_safety_comment));
}

#[test]
fn safety_good_accepts_every_attachment_form() {
    let report = lint_safety(&["safety_good.rs"]);
    assert_eq!(
        report.unsuppressed_count(),
        0,
        "findings: {:?}",
        report.findings
    );
    assert_eq!(report.unsafe_sites.len(), 6);
    assert!(report.unsafe_sites.iter().all(|u| u.has_safety_comment));
}

#[test]
fn guard_across_blocking_call_is_flagged() {
    let report = lint_locks(&["locks_blocking_bad.rs"]);
    assert_eq!(rules(&report), vec![Rule::LockAcrossBlocking]);
    let f = report.unsuppressed().next().unwrap();
    assert!(
        f.message.contains("write_all") && f.message.contains("peers"),
        "finding must name the call and the guard: {}",
        f.message
    );
    assert_eq!(report.lock_names, vec!["peers".to_string()]);
}

#[test]
fn released_guards_do_not_fire() {
    let report = lint_locks(&["locks_blocking_good.rs"]);
    assert_eq!(
        report.unsuppressed_count(),
        0,
        "scope end, drop(), and same-statement temporaries all release: {:?}",
        report.findings
    );
}

#[test]
fn guards_on_arc_held_locks_are_tracked() {
    let report = lint_locks(&["locks_arc_bad.rs"]);
    assert_eq!(
        rules(&report),
        vec![Rule::LockAcrossBlocking; 2],
        "a field `Arc<Mutex<..>>` and a `let` `Arc::new(Mutex::new(..))` must both fire: {:?}",
        report.findings
    );
    assert_eq!(report.lock_names, ["fired", "seen"]);
}

#[test]
fn arc_held_guards_dropped_before_blocking_are_clean() {
    let report = lint_locks(&["locks_arc_good.rs"]);
    assert_eq!(
        report.unsuppressed_count(),
        0,
        "findings: {:?}",
        report.findings
    );
    assert_eq!(report.lock_names, ["fired", "seen"]);
}

#[test]
fn aliased_lock_guards_across_blocking_calls_fire() {
    let report = lint_locks(&["locks_alias_bad.rs"]);
    assert_eq!(
        rules(&report),
        vec![Rule::LockAcrossBlocking; 2],
        "a lock through `type Seen = Arc<Mutex<..>>` and its `Arc::clone` must both fire: {:?}",
        report.findings
    );
    assert_eq!(report.lock_names, ["fired", "seen", "shared"]);
}

#[test]
fn aliased_lock_guards_dropped_before_blocking_are_clean() {
    let report = lint_locks(&["locks_alias_good.rs"]);
    assert_eq!(
        report.unsuppressed_count(),
        0,
        "findings: {:?}",
        report.findings
    );
    assert_eq!(report.lock_names, ["fired", "seen", "shared"]);
}

#[test]
fn opposite_nesting_orders_are_a_cycle() {
    let report = lint_locks(&["locks_cycle_bad.rs"]);
    let rs = rules(&report);
    assert!(
        rs.contains(&Rule::LockOrderCycle),
        "found instead: {:?}",
        report.findings
    );
    let pairs: Vec<(&str, &str)> = report
        .lock_edges
        .iter()
        .map(|e| (e.held.as_str(), e.acquired.as_str()))
        .collect();
    assert!(pairs.contains(&("alpha", "beta")) && pairs.contains(&("beta", "alpha")));
}

#[test]
fn consistent_nesting_order_is_clean() {
    let report = lint_locks(&["locks_cycle_good.rs"]);
    assert_eq!(
        report.unsuppressed_count(),
        0,
        "findings: {:?}",
        report.findings
    );
    assert!(
        report
            .lock_edges
            .iter()
            .all(|e| (e.held.as_str(), e.acquired.as_str()) == ("alpha", "beta")),
        "edges: {:?}",
        report.lock_edges
    );
}

#[test]
fn two_hop_reactor_blocking_is_flagged_with_chain() {
    let report = lint_reactor(
        &["reactor_blocking_bad.rs"],
        &[("reactor_blocking_bad.rs", "reactor_loop")],
        &[],
    );
    assert_eq!(
        rules(&report),
        vec![Rule::ReactorBlocking],
        "findings: {:?}",
        report.findings
    );
    let f = report.unsuppressed().next().unwrap();
    assert_eq!(
        f.chain,
        vec!["reactor_loop", "dispatch", "flush_reply", "write_all"],
        "the finding must carry the full call chain to the sink"
    );
    assert!(f.message.contains("reactor_loop"), "{}", f.message);
}

#[test]
fn buffered_reactor_path_is_clean() {
    let report = lint_reactor(
        &["reactor_blocking_good.rs"],
        &[("reactor_blocking_good.rs", "reactor_loop")],
        &[],
    );
    assert_eq!(
        report.unsuppressed_count(),
        0,
        "findings: {:?}",
        report.findings
    );
    // The blocking helper exists in the file but the reactor never
    // reaches it — reachability, not presence, is what fires.
    let g = report.graph.as_ref().unwrap();
    assert!(g.reactor_reachable < g.functions_indexed);
    assert_eq!(g.reactor_entries.len(), 1, "{:?}", g.reactor_entries);
}

#[test]
fn transitive_panic_path_is_flagged_with_chain() {
    let report = lint_reactor(
        &["panic_path_bad.rs"],
        &[("panic_path_bad.rs", "reactor_loop")],
        &["panic_path_bad.rs"],
    );
    assert_eq!(
        rules(&report),
        vec![Rule::PanicPath; 3],
        "unwrap, slice-index and bare thread::spawn must all fire: {:?}",
        report.findings
    );
    for f in report.unsuppressed() {
        assert_eq!(
            &f.chain[..3],
            &["reactor_loop", "handle", "parse"],
            "chain must walk entry → helper → panicking fn: {:?}",
            f.chain
        );
    }
}

#[test]
fn error_returns_and_waivers_keep_the_panic_path_clean() {
    let report = lint_reactor(
        &["panic_path_good.rs"],
        &[("panic_path_good.rs", "reactor_loop")],
        &["panic_path_good.rs"],
    );
    assert_eq!(
        report.unsuppressed_count(),
        0,
        "findings: {:?}",
        report.findings
    );
    // The waived slice-index stays inventoried with its reason; the
    // unwrap in the off-reactor helper produces nothing at all.
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, Rule::PanicPath);
    assert!(report.findings[0].allowed.is_some());
}

#[test]
fn guard_across_blocking_helper_is_flagged_interprocedurally() {
    let report = lint_locks_graph(&["locks_interproc_bad.rs"]);
    assert_eq!(
        rules(&report),
        vec![Rule::LockAcrossBlocking],
        "findings: {:?}",
        report.findings
    );
    let f = report.unsuppressed().next().unwrap();
    assert!(
        f.message.contains("send_all") && f.message.contains("peers"),
        "finding must name the helper and the guard: {}",
        f.message
    );
    assert_eq!(
        f.chain,
        vec!["send_all", "write_all"],
        "the chain must reach through the helper to the sink"
    );
}

#[test]
fn guard_across_the_mapped_write_is_flagged() {
    let report = lint_locks_graph(&["locks_mapped_bad.rs"]);
    assert_eq!(
        rules(&report),
        vec![Rule::LockAcrossBlocking; 2],
        "findings: {:?}",
        report.findings
    );
    let messages: Vec<&str> = report.unsuppressed().map(|f| f.message.as_str()).collect();
    assert!(
        messages[0].contains("mmap") && messages[0].contains("units"),
        "the populating mmap must be named with the guard: {}",
        messages[0]
    );
    let chains: Vec<&[String]> = report.unsuppressed().map(|f| &f.chain[..]).collect();
    assert_eq!(
        chains[1],
        ["write_unit", "pwrite"],
        "the mapped write must be reached through its wrapper"
    );
}

#[test]
fn snapshot_before_blocking_helper_is_clean() {
    let report = lint_locks_graph(&["locks_interproc_good.rs"]);
    assert_eq!(
        report.unsuppressed_count(),
        0,
        "the guard is a same-statement temporary: {:?}",
        report.findings
    );
}

#[test]
fn malformed_markers_are_findings_themselves() {
    let report = lint_safety(&["allow_bad.rs"]);
    assert_eq!(
        rules(&report),
        vec![Rule::BadAllowMarker; 4],
        "missing reason, unknown rule, non-allow verb and a `sites` waiver must each fire"
    );
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("no waivable rule `sites`")));
}

#[test]
fn rule_all_lists_every_rule_in_declaration_order() {
    for (i, (rule, name)) in Rule::ALL.iter().enumerate() {
        assert_eq!(*rule as usize, i, "`Rule::name` indexes `ALL`");
        assert_eq!(rule.name(), *name);
    }
    assert_eq!(Rule::ALL.last().map(|r| r.0), Some(Rule::Sites));
}

#[test]
fn waived_finding_is_suppressed_but_inventoried() {
    let report = lint_safety(&["allow_waived.rs"]);
    assert_eq!(report.unsuppressed_count(), 0);
    assert_eq!(report.findings.len(), 1, "the waived finding stays in JSON");
    let f = &report.findings[0];
    assert_eq!(f.rule, Rule::UnsafeSafetyComment);
    assert_eq!(
        f.allowed.as_deref(),
        Some("fixture demonstrating a waiver"),
        "the reason travels with the finding"
    );
    assert!(report.to_json().contains("fixture demonstrating a waiver"));
}

#[test]
fn uncovered_wire_variants_are_flagged() {
    let root = fixture_dir();
    let cfg = Config {
        safety_files: Vec::new(),
        lock_files: Vec::new(),
        wire: Some(WireConfig {
            messages: root.join("wire_messages.rs"),
            corpus: root.join("wire_corpus.rs"),
            dispatch: vec![DispatchTarget {
                enums: vec!["Color".into()],
                file: root.join("wire_dispatch.rs"),
            }],
        }),
        graph: None,
        root,
    };
    let report = run(&cfg).expect("fixture lint run");
    assert_eq!(
        rules(&report),
        vec![Rule::WireExhaustiveness; 3],
        "findings: {:?}",
        report.findings
    );
    let wire = report.wire.as_ref().unwrap();
    assert_eq!(wire.enums["Color"], vec!["Red", "Green", "Blue"]);
    assert_eq!(wire.enums["Shade"], vec!["Light", "Dark"]);
    assert_eq!(
        wire.corpus_missing,
        vec!["Color::Blue".to_string(), "Shade::Dark".to_string()],
        "comment/string mentions of Color::Blue must not count as coverage"
    );
    assert_eq!(wire.dispatch_missing.len(), 1);
    assert!(wire.dispatch_missing[0].starts_with("Color::Green"));
}

/// The `sites` rule over one fixture, with rows of its own.
fn lint_sites(name: &str, rows: &[Row]) -> Report {
    let root = fixture_dir();
    let mut report = Report::default();
    let ctx = load_file(&root, &root.join(name), &mut report.findings).expect("fixture");
    let graph = callgraph::build(&[&ctx], &BTreeSet::new(), &BTreeSet::new());
    report.findings = sites::check(rows, &root, &[&ctx], &graph);
    report
}

/// One caller named, one forbidden name, test code skipped.
fn fixture_rows(paths: &'static [&'static str]) -> [Row; 2] {
    [
        Row {
            id: "one-caller",
            paths,
            check: Check::Calls(&["fallocate"], &["guarded"]),
            reason: "fixture",
        },
        Row {
            id: "forbidden",
            paths,
            check: Check::Forbidden(&["RemoteWindow"]),
            reason: "fixture",
        },
    ]
}

#[test]
fn a_second_caller_and_a_forbidden_name_are_sites_findings() {
    let report = lint_sites("sites_bad.rs", &fixture_rows(&["sites_bad.rs"]));
    let found: Vec<(&str, u32)> = report
        .unsuppressed()
        .map(|f| (f.message.split(':').next().unwrap(), f.line))
        .collect();
    assert_eq!(
        found,
        [("one-caller", 9), ("forbidden", 13)],
        "findings: {:?}",
        report.findings
    );
    assert!(report.findings.iter().all(|f| f.rule == Rule::Sites));
}

#[test]
fn a_cfg_test_module_of_any_name_is_test_code() {
    let report = lint_sites("sites_good.rs", &fixture_rows(&["sites_good.rs"]));
    assert_eq!(
        report.unsuppressed_count(),
        0,
        "a `#[cfg(test)] mod other_name` is test code: {:?}",
        report.findings
    );
}
