//! `norns-lint`: a self-contained, offline static-analysis pass for
//! this workspace. No crates.io dependencies — a hand-rolled lexer
//! ([`lexer`]) feeds an interprocedural call graph ([`callgraph`]) and
//! five analyses:
//!
//! * [`safety`] — `unsafe-safety-comment`: every `unsafe` block /
//!   `unsafe fn` / `unsafe impl` and every `extern "C"` declaration
//!   must carry a `// SAFETY:` comment stating the invariant it rests
//!   on.
//! * [`locks`] — `lock-across-blocking`: a `Mutex`/`RwLock` guard must
//!   not be live across a deny-listed blocking call (`write_all`,
//!   `connect`, `sleep`, `join`, ...) — directly or through a callee
//!   whose summary says it transitively blocks; and
//!   `lock-order-cycle`: the nested lock-acquisition graph, including
//!   locks taken inside callees, must be acyclic.
//! * [`reactor`] — `reactor-blocking`: no function reachable from a
//!   reactor entry point may hit the blocking denylist; and
//!   `panic-path`: no reactor-reachable `norns-ipc` code may
//!   `unwrap`/`expect`/`panic!`/index unguarded. Findings carry the
//!   call chain from the entry point.
//! * [`wire`] — `wire-exhaustiveness`: every variant of every
//!   `norns-proto` message enum must appear in the wire corpus test
//!   and every request variant in the daemon dispatch, so a future
//!   protocol bump cannot ship a silently untested or unhandled
//!   variant.
//!
//! Any finding can be waived **with a reason** via an inline marker on
//! (or directly above) the offending line:
//!
//! ```text
//! // norns-lint: allow(lock-across-blocking): shutdown is
//! ```
//!
//! A marker without a reason is itself a finding
//! (`bad-allow-marker`). Suppressed findings stay in the machine
//! -readable report (`results/lint.json`, schema v2) with their
//! justification, next to the call-graph stats and per-function
//! summaries the interprocedural rules derived.

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod locks;
pub mod reactor;
pub mod safety;
pub mod wire;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The rules this tool knows. `BadAllowMarker` is not waivable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    UnsafeSafetyComment,
    LockAcrossBlocking,
    LockOrderCycle,
    ReactorBlocking,
    PanicPath,
    WireExhaustiveness,
    BadAllowMarker,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeSafetyComment => "unsafe-safety-comment",
            Rule::LockAcrossBlocking => "lock-across-blocking",
            Rule::LockOrderCycle => "lock-order-cycle",
            Rule::ReactorBlocking => "reactor-blocking",
            Rule::PanicPath => "panic-path",
            Rule::WireExhaustiveness => "wire-exhaustiveness",
            Rule::BadAllowMarker => "bad-allow-marker",
        }
    }

    fn from_name(s: &str) -> Option<Rule> {
        Some(match s {
            "unsafe-safety-comment" => Rule::UnsafeSafetyComment,
            "lock-across-blocking" => Rule::LockAcrossBlocking,
            "lock-order-cycle" => Rule::LockOrderCycle,
            "reactor-blocking" => Rule::ReactorBlocking,
            "panic-path" => Rule::PanicPath,
            "wire-exhaustiveness" => Rule::WireExhaustiveness,
            _ => return None,
        })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding. `allowed` carries the justification when an allow
/// marker waived it; such findings do not fail `--check` but stay in
/// the JSON inventory.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    pub line: u32,
    pub message: String,
    pub allowed: Option<String>,
    /// For interprocedural findings: the call chain from the entry
    /// point (or the blocking/locking witness) to the sink. Empty for
    /// lexical findings.
    pub chain: Vec<String>,
}

impl Finding {
    /// Stable identity for baseline comparison. Line numbers are
    /// deliberately excluded so unrelated edits above a known finding
    /// do not churn the baseline.
    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.rule.name(), self.file, self.message)
    }
}

/// A parsed `// norns-lint: allow(rule): reason` marker. `target_line`
/// is the code line the marker governs: its own line for trailing
/// markers, the next line carrying code for standalone ones.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rule: Rule,
    pub reason: String,
    pub target_line: u32,
}

/// A lexed source file plus its allow markers, keyed by
/// workspace-relative path.
pub struct FileCtx {
    pub path: PathBuf,
    pub rel: String,
    pub lexed: lexer::Lexed,
    pub allows: Vec<Allow>,
}

impl FileCtx {
    /// The waiver reason for `rule` at `line`, if any marker targets it.
    pub fn allow_for(&self, rule: Rule, line: u32) -> Option<&str> {
        self.allows
            .iter()
            .find(|a| a.rule == rule && a.target_line == line)
            .map(|a| a.reason.as_str())
    }
}

/// Which files each analysis runs over. Build one by hand for fixture
/// tests, or use [`Config::workspace`] for the live tree.
pub struct Config {
    pub root: PathBuf,
    /// `unsafe-safety-comment` scan set (normally: every `.rs` file).
    pub safety_files: Vec<PathBuf>,
    /// Lock-discipline scan set (reactor/engine code paths).
    pub lock_files: Vec<PathBuf>,
    pub wire: Option<wire::WireConfig>,
    /// Call-graph index set (normally: every `.rs` file) plus the
    /// reactor reachability rules. `None` disables the
    /// interprocedural layer entirely.
    pub graph: Option<GraphConfig>,
}

/// Interprocedural configuration: which files feed the call graph and
/// where reactor execution starts.
pub struct GraphConfig {
    pub files: Vec<PathBuf>,
    pub reactor: Option<reactor::ReactorConfig>,
}

impl Config {
    /// The live-workspace configuration: unsafe hygiene everywhere,
    /// lock discipline over the concurrent crates (`norns-ipc`,
    /// `norns-flow`), wire exhaustiveness over `norns-proto` against
    /// the corpus test and the three dispatch sites (`daemon/dispatch.rs`
    /// and the two data-plane halves under `engine/remote/`).
    pub fn workspace(root: &Path) -> io::Result<Config> {
        let mut safety_files = Vec::new();
        walk_rs(root, &mut safety_files)?;
        let mut lock_files = Vec::new();
        for sub in ["crates/norns-ipc/src", "crates/norns-flow/src"] {
            walk_rs(&root.join(sub), &mut lock_files)?;
        }
        let wire = wire::WireConfig {
            messages: root.join("crates/norns-proto/src/messages.rs"),
            corpus: root.join("crates/norns-proto/tests/corpus.rs"),
            dispatch: vec![
                wire::DispatchTarget {
                    enums: vec![
                        "CtlRequest".into(),
                        "UserRequest".into(),
                        "DaemonCommand".into(),
                    ],
                    file: root.join("crates/norns-ipc/src/daemon/dispatch.rs"),
                },
                // Both halves of the data plane sit in one directory:
                // the server answers every request, the client's
                // transfer logic reads every response.
                wire::DispatchTarget {
                    enums: vec!["DataRequest".into()],
                    file: root.join("crates/norns-ipc/src/engine/remote/server.rs"),
                },
                wire::DispatchTarget {
                    enums: vec!["DataResponse".into()],
                    file: root.join("crates/norns-ipc/src/engine/remote/mod.rs"),
                },
            ],
        };
        let graph = GraphConfig {
            files: safety_files.clone(),
            reactor: Some(reactor::ReactorConfig {
                entries: vec![
                    // The epoll dispatch loop: everything it calls runs
                    // on a reactor thread.
                    (
                        "crates/norns-ipc/src/daemon/reactor.rs".into(),
                        "reactor_loop".into(),
                    ),
                    // The WaitCallback constructor: the closure it
                    // returns is invoked on completion paths and feeds
                    // reactors; it is indexed inline with its builder.
                    (
                        "crates/norns-ipc/src/daemon/reactor.rs".into(),
                        "completion_callback".into(),
                    ),
                ],
                panic_scope: vec!["crates/norns-ipc/src".into()],
            }),
        };
        Ok(Config {
            root: root.to_path_buf(),
            safety_files,
            lock_files,
            wire: Some(wire),
            graph: Some(graph),
        })
    }
}

/// Recursively collect `.rs` files, skipping build output, VCS
/// internals, and this tool's own lint fixtures (which are bad on
/// purpose).
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// One `unsafe` / `extern "C"` site for the JSON inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub file: String,
    pub line: u32,
    /// "unsafe block" | "unsafe fn" | "unsafe impl" | "extern block".
    pub kind: &'static str,
    pub has_safety_comment: bool,
    pub allowed: bool,
}

/// One nested-acquisition edge: `acquired` was taken while `held` was
/// live, in `func` at `file:line`.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    pub func: String,
    pub file: String,
    pub line: u32,
    pub allowed: bool,
    /// For interprocedural edges: the call chain through which the
    /// acquisition happened (`helper → inner → lockname.lock`).
    pub via: Option<String>,
}

/// One reactor-reachable function's summary for the JSON inventory.
#[derive(Debug, Clone)]
pub struct FnSummary {
    pub qname: String,
    pub file: String,
    pub line: u32,
    pub may_block: bool,
    pub may_panic: bool,
    pub locks: Vec<String>,
    /// Shortest call chain from a reactor entry point.
    pub chain: Vec<String>,
}

/// Call-graph statistics and the reactor-reachable slice of the
/// per-function summaries.
#[derive(Debug, Clone, Default)]
pub struct GraphReport {
    pub functions_indexed: usize,
    pub call_sites: usize,
    pub resolved_unique: usize,
    pub resolved_multi: usize,
    pub ambiguous: usize,
    pub unresolved: usize,
    pub ambiguity_policy: String,
    /// Qualified names of the matched reactor entry points.
    pub reactor_entries: Vec<String>,
    pub reactor_reachable: usize,
    pub summaries: Vec<FnSummary>,
}

/// Wire-rule inventory: every enum and its variants, plus what the
/// coverage cross-checks concluded.
#[derive(Debug, Clone, Default)]
pub struct WireSummary {
    pub enums: BTreeMap<String, Vec<String>>,
    pub corpus_missing: Vec<String>,
    pub dispatch_missing: Vec<String>,
}

/// Everything one run produced.
#[derive(Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub unsafe_sites: Vec<UnsafeSite>,
    pub lock_names: Vec<String>,
    pub lock_edges: Vec<LockEdge>,
    pub wire: Option<WireSummary>,
    pub graph: Option<GraphReport>,
}

impl Report {
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.allowed.is_none())
    }

    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    fn counts(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut counts: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for rule in [
            Rule::UnsafeSafetyComment,
            Rule::LockAcrossBlocking,
            Rule::LockOrderCycle,
            Rule::ReactorBlocking,
            Rule::PanicPath,
            Rule::WireExhaustiveness,
            Rule::BadAllowMarker,
        ] {
            counts.insert(rule.name(), (0, 0));
        }
        for f in &self.findings {
            let slot = counts.entry(f.rule.name()).or_default();
            if f.allowed.is_some() {
                slot.1 += 1;
            } else {
                slot.0 += 1;
            }
        }
        counts
    }

    /// The human-readable report `--check` prints.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for f in self.findings.iter().filter(|f| f.allowed.is_none()) {
            s.push_str(&format!(
                "error[{}]: {}\n  --> {}:{}\n",
                f.rule, f.message, f.file, f.line
            ));
        }
        let waived: Vec<&Finding> = self
            .findings
            .iter()
            .filter(|f| f.allowed.is_some())
            .collect();
        if !waived.is_empty() {
            s.push_str(&format!("{} waived finding(s):\n", waived.len()));
            for f in waived {
                s.push_str(&format!(
                    "  allow[{}] {}:{} — {}\n",
                    f.rule,
                    f.file,
                    f.line,
                    f.allowed.as_deref().unwrap_or("")
                ));
            }
        }
        s.push_str("rule                     fail  waived\n");
        for (rule, (fail, waived)) in self.counts() {
            s.push_str(&format!("{rule:<24} {fail:>4} {waived:>6}\n"));
        }
        s.push_str(&format!(
            "unsafe sites: {} ({} with SAFETY), lock names: {}, lock edges: {}\n",
            self.unsafe_sites.len(),
            self.unsafe_sites
                .iter()
                .filter(|u| u.has_safety_comment)
                .count(),
            self.lock_names.len(),
            self.lock_edges.len(),
        ));
        if let Some(g) = &self.graph {
            s.push_str(&format!(
                "call graph: {} fns, {} call sites ({} unique, {} multi, {} ambiguous, \
                 {} unresolved), reactor-reachable: {}\n",
                g.functions_indexed,
                g.call_sites,
                g.resolved_unique,
                g.resolved_multi,
                g.ambiguous,
                g.unresolved,
                g.reactor_reachable,
            ));
        }
        s
    }

    /// The machine-readable inventory written to `results/lint.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": 2,\n  \"counts\": {");
        let counts = self.counts();
        let mut first = true;
        for (rule, (fail, waived)) in &counts {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\n    {}: {{\"fail\": {fail}, \"waived\": {waived}}}",
                json_str(rule)
            ));
        }
        s.push_str("\n  },\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let chain = if f.chain.is_empty() {
                "null".to_string()
            } else {
                format!(
                    "[{}]",
                    f.chain
                        .iter()
                        .map(|c| json_str(c))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            s.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"allowed\": {}, \"chain\": {}}}",
                json_str(f.rule.name()),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                match &f.allowed {
                    Some(reason) => json_str(reason),
                    None => "null".to_string(),
                },
                chain
            ));
        }
        s.push_str("\n  ],\n  \"unsafe_sites\": [");
        for (i, u) in self.unsafe_sites.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"kind\": {}, \"safety_comment\": {}, \"allowed\": {}}}",
                json_str(&u.file),
                u.line,
                json_str(u.kind),
                u.has_safety_comment,
                u.allowed
            ));
        }
        s.push_str("\n  ],\n  \"lock_graph\": {\n    \"locks\": [");
        for (i, name) in self.lock_names.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_str(name));
        }
        s.push_str("],\n    \"edges\": [");
        for (i, e) in self.lock_edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n      {{\"held\": {}, \"acquired\": {}, \"fn\": {}, \"file\": {}, \"line\": {}, \"allowed\": {}, \"via\": {}}}",
                json_str(&e.held),
                json_str(&e.acquired),
                json_str(&e.func),
                json_str(&e.file),
                e.line,
                e.allowed,
                match &e.via {
                    Some(v) => json_str(v),
                    None => "null".to_string(),
                }
            ));
        }
        s.push_str("\n    ]\n  }");
        if let Some(g) = &self.graph {
            s.push_str(&format!(
                ",\n  \"callgraph\": {{\n    \"functions_indexed\": {},\n    \
                 \"call_sites\": {},\n    \"resolved_unique\": {},\n    \
                 \"resolved_multi\": {},\n    \"ambiguous\": {},\n    \
                 \"unresolved\": {},\n    \"ambiguity_policy\": {},\n    \
                 \"reactor_entries\": [{}],\n    \"reactor_reachable\": {},\n    \
                 \"summaries\": [",
                g.functions_indexed,
                g.call_sites,
                g.resolved_unique,
                g.resolved_multi,
                g.ambiguous,
                g.unresolved,
                json_str(&g.ambiguity_policy),
                g.reactor_entries
                    .iter()
                    .map(|e| json_str(e))
                    .collect::<Vec<_>>()
                    .join(", "),
                g.reactor_reachable,
            ));
            for (i, f) in g.summaries.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "\n      {{\"fn\": {}, \"file\": {}, \"line\": {}, \"may_block\": {}, \
                     \"may_panic\": {}, \"locks\": [{}], \"chain\": [{}]}}",
                    json_str(&f.qname),
                    json_str(&f.file),
                    f.line,
                    f.may_block,
                    f.may_panic,
                    f.locks
                        .iter()
                        .map(|l| json_str(l))
                        .collect::<Vec<_>>()
                        .join(", "),
                    f.chain
                        .iter()
                        .map(|c| json_str(c))
                        .collect::<Vec<_>>()
                        .join(", "),
                ));
            }
            s.push_str("\n    ]\n  }");
        }
        if let Some(w) = &self.wire {
            s.push_str(",\n  \"wire\": {\n    \"enums\": {");
            let mut first = true;
            for (name, variants) in &w.enums {
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str(&format!("\n      {}: [", json_str(name)));
                for (i, v) in variants.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&json_str(v));
                }
                s.push(']');
            }
            s.push_str("\n    },\n    \"corpus_missing\": [");
            for (i, v) in w.corpus_missing.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&json_str(v));
            }
            s.push_str("],\n    \"dispatch_missing\": [");
            for (i, v) in w.dispatch_missing.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&json_str(v));
            }
            s.push_str("]\n  }");
        }
        s.push_str("\n}\n");
        s
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Load, lex, and marker-parse one file. Marker parse errors become
/// `bad-allow-marker` findings appended to `findings`.
pub fn load_file(root: &Path, path: &Path, findings: &mut Vec<Finding>) -> io::Result<FileCtx> {
    let src = fs::read_to_string(path)?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .into_owned();
    let lexed = lexer::lex(&src);
    let code_lines = lexed.code_lines();
    let mut allows = Vec::new();
    for comment in &lexed.comments {
        for (off, line_text) in comment.text.lines().enumerate() {
            let trimmed = line_text.trim_start_matches(['/', '!', '*']).trim();
            let Some(rest) = trimmed.strip_prefix("norns-lint:") else {
                continue;
            };
            let marker_line = comment.line + off as u32;
            let rest = rest.trim();
            let parsed = (|| {
                let body = rest.strip_prefix("allow(")?;
                let close = body.find(')')?;
                let rule_name = body[..close].trim();
                let after = body[close + 1..].trim();
                let reason = after.strip_prefix(':')?.trim();
                Some((rule_name.to_string(), reason.to_string()))
            })();
            let Some((rule_name, reason)) = parsed else {
                findings.push(Finding {
                    rule: Rule::BadAllowMarker,
                    file: rel.clone(),
                    line: marker_line,
                    message: format!(
                        "malformed marker `norns-lint: {rest}` — expected \
                         `norns-lint: allow(<rule>): <reason>`"
                    ),
                    allowed: None,
                    chain: Vec::new(),
                });
                continue;
            };
            let Some(rule) = Rule::from_name(&rule_name) else {
                findings.push(Finding {
                    rule: Rule::BadAllowMarker,
                    file: rel.clone(),
                    line: marker_line,
                    message: format!("unknown rule `{rule_name}` in allow marker"),
                    allowed: None,
                    chain: Vec::new(),
                });
                continue;
            };
            if reason.is_empty() {
                findings.push(Finding {
                    rule: Rule::BadAllowMarker,
                    file: rel.clone(),
                    line: marker_line,
                    message: format!(
                        "allow({rule_name}) marker without a reason — every waiver \
                         must say why"
                    ),
                    allowed: None,
                    chain: Vec::new(),
                });
                continue;
            }
            // A trailing marker governs its own line; a standalone one
            // governs the next line that carries code.
            let target_line = if comment.trailing && off == 0 {
                marker_line
            } else {
                code_lines
                    .range(marker_line + 1..)
                    .next()
                    .copied()
                    .unwrap_or(marker_line)
            };
            allows.push(Allow {
                rule,
                reason,
                target_line,
            });
        }
    }
    Ok(FileCtx {
        path: path.to_path_buf(),
        rel,
        lexed,
        allows,
    })
}

/// Run every configured analysis and assemble the report.
pub fn run(cfg: &Config) -> io::Result<Report> {
    let mut report = Report::default();

    // Load each file once, even when it is in several scan sets.
    let mut cache: BTreeMap<PathBuf, FileCtx> = BTreeMap::new();
    let load = |path: &Path,
                findings: &mut Vec<Finding>,
                cache: &mut BTreeMap<PathBuf, FileCtx>|
     -> io::Result<()> {
        if !cache.contains_key(path) {
            let ctx = load_file(&cfg.root, path, findings)?;
            cache.insert(path.to_path_buf(), ctx);
        }
        Ok(())
    };

    let graph_files: &[PathBuf] = cfg
        .graph
        .as_ref()
        .map(|g| g.files.as_slice())
        .unwrap_or(&[]);
    for path in cfg
        .safety_files
        .iter()
        .chain(&cfg.lock_files)
        .chain(graph_files)
    {
        load(path, &mut report.findings, &mut cache)?;
    }

    for path in &cfg.safety_files {
        let ctx = &cache[path];
        safety::check(ctx, &mut report);
    }

    // Lock names come first: the call graph folds acquisition sites
    // into its per-function summaries, which the lock rules then
    // consult at call sites.
    let lock_ctxs: Vec<&FileCtx> = cfg.lock_files.iter().map(|p| &cache[p]).collect();
    let lock_names = locks::collect_names(&lock_ctxs);
    let lock_scope: std::collections::BTreeSet<String> =
        lock_ctxs.iter().map(|c| c.rel.clone()).collect();

    let graph = cfg.graph.as_ref().map(|gcfg| {
        let ctxs: Vec<&FileCtx> = gcfg.files.iter().map(|p| &cache[p]).collect();
        callgraph::build(&ctxs, &lock_names, &lock_scope)
    });

    let effects = graph
        .as_ref()
        .map(|g| g.effects_for(&lock_scope))
        .unwrap_or_default();
    locks::check(&lock_ctxs, &lock_names, &effects, &mut report);

    if let (Some(g), Some(rcfg)) = (
        &graph,
        cfg.graph.as_ref().and_then(|gc| gc.reactor.as_ref()),
    ) {
        let by_rel: BTreeMap<String, &FileCtx> =
            cache.values().map(|c| (c.rel.clone(), c)).collect();
        let reach = reactor::check(g, rcfg, &by_rel, &mut report);
        report.graph = Some(graph_report(g, &reach));
    } else if let Some(g) = &graph {
        let reach = g.reach(&[]);
        report.graph = Some(graph_report(g, &reach));
    }

    if let Some(wire_cfg) = &cfg.wire {
        wire::check(&cfg.root, wire_cfg, &mut report)?;
    }

    report
        .findings
        .sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    Ok(report)
}

/// Condense a built call graph into the JSON-facing stats + the
/// reactor-reachable summaries.
fn graph_report(g: &callgraph::CallGraph, reach: &callgraph::Reach) -> GraphReport {
    let mut summaries = Vec::new();
    for &f in &reach.reachable {
        let def = &g.fns[f];
        summaries.push(FnSummary {
            qname: def.qname.clone(),
            file: def.file.clone(),
            line: def.line,
            may_block: g.may_block(f),
            may_panic: g.may_panic(f),
            locks: g.locks_acquired(f),
            chain: reach
                .chain_to(f)
                .iter()
                .map(|&i| g.fns[i].name.clone())
                .collect(),
        });
    }
    summaries.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    GraphReport {
        functions_indexed: g.stats.functions_indexed,
        call_sites: g.stats.call_sites,
        resolved_unique: g.stats.resolved_unique,
        resolved_multi: g.stats.resolved_multi,
        ambiguous: g.stats.ambiguous,
        unresolved: g.stats.unresolved,
        ambiguity_policy: callgraph::AMBIGUITY_POLICY.to_string(),
        reactor_entries: reach
            .entries
            .iter()
            .map(|&i| g.fns[i].qname.clone())
            .collect(),
        reactor_reachable: reach.reachable.len(),
        summaries,
    }
}
