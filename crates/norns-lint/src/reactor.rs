//! Rules `reactor-blocking` and `panic-path`.
//!
//! Both are reachability rules over the call graph: starting from the
//! configured reactor entry points (the epoll dispatch loop and the
//! completion-queue callback constructor in `norns-ipc`), a BFS marks
//! every function that can run on a reactor thread. In that set:
//!
//! * **reactor-blocking** — any direct hit on the blocking denylist is
//!   a finding, anchored at the sink line (so the waiver sits next to
//!   the call it excuses) and carrying the shortest call chain from an
//!   entry point.
//! * **panic-path** — any `unwrap`/`expect`/`panic!`-family/
//!   single-token slice index/bare `thread::spawn` inside the
//!   configured panic scope (norns-ipc sources) is a finding: a panic
//!   on a reactor thread takes every connection on that reactor down
//!   with it. Refactor to an error return (`thread::Builder::spawn`
//!   for the last), or waive with a reason.
//!
//! Closures passed to `spawn` are excluded by construction (the
//! indexer skips them), so work handed off to another thread does not
//! taint the reactor-reachable set.

use crate::callgraph::{arrows, CallGraph, Reach};
use crate::{FileCtx, Finding, Report, Rule};
use std::collections::BTreeMap;

/// Where reactor execution starts and which files' panic sites are
/// held to the no-panic bar.
pub struct ReactorConfig {
    /// `(file suffix, fn name)` pairs naming entry points.
    pub entries: Vec<(String, String)>,
    /// Workspace-relative path prefixes whose panic sites are checked
    /// when reachable (e.g. `crates/norns-ipc/src`).
    pub panic_scope: Vec<String>,
}

pub fn check(
    graph: &CallGraph,
    cfg: &ReactorConfig,
    files: &BTreeMap<String, &FileCtx>,
    report: &mut Report,
) -> Reach {
    let reach = graph.reach(&cfg.entries);
    let allow_at = |rule: Rule, file: &str, line: u32| -> Option<String> {
        files
            .get(file)
            .and_then(|ctx| ctx.allow_for(rule, line))
            .map(str::to_string)
    };

    for &f in &reach.reachable {
        let def = &graph.fns[f];
        let chain_fns = reach.chain_to(f);
        let chain: Vec<String> = chain_fns
            .iter()
            .map(|&i| graph.fns[i].name.clone())
            .collect();

        for (sink, line) in &def.blocking {
            let mut full = chain.clone();
            full.push(sink.clone());
            report.findings.push(Finding {
                rule: Rule::ReactorBlocking,
                file: def.file.clone(),
                line: *line,
                message: format!(
                    "blocking call `{sink}` is reachable from reactor entry `{}`: {}",
                    chain.first().map(String::as_str).unwrap_or(""),
                    arrows(&full)
                ),
                allowed: allow_at(Rule::ReactorBlocking, &def.file, *line),
                chain: full,
            });
        }

        if cfg.panic_scope.iter().any(|p| def.file.starts_with(p)) {
            for (kind, line) in &def.panics {
                let mut full = chain.clone();
                full.push(kind.clone());
                report.findings.push(Finding {
                    rule: Rule::PanicPath,
                    file: def.file.clone(),
                    line: *line,
                    message: format!(
                        "`{kind}` on a reactor path ({}) — return an error instead, \
                         or waive with a reason",
                        arrows(&full)
                    ),
                    allowed: allow_at(Rule::PanicPath, &def.file, *line),
                    chain: full,
                });
            }
        }
    }
    reach
}
