//! Rules `lock-across-blocking` and `lock-order-cycle`.
//!
//! A per-function lexical scope tracker follows `Mutex`/`RwLock`
//! guards through the token stream:
//!
//! * **Lock identity** is the declared field/binding name: pass A
//!   collects every `name: Mutex<...>` / `name: RwLock<...>` /
//!   `name: Mutex::new(...)` / `let name = Mutex::new(...)`, bare or
//!   under an `Arc`, over the scan set, and only `.lock()` / `.read()` /
//!   `.write()` calls whose receiver ends in a collected name count as
//!   acquisitions (so `stream.write(...)` or `file.read(...)` never do).
//! * **Named guards** (`let g = self.x.lock();`) live until their
//!   scope closes or `drop(g)`. **Temporary guards**
//!   (`self.x.lock().push(..)`, `match self.x.lock() {..}`,
//!   `if let .. = self.x.lock().get(..)`) live until the statement
//!   ends — `;` or `,` at their depth, or the sibling block that
//!   extends them (match body, if-let body) closes. This matches
//!   Rust's temporary-lifetime rules, including the `match`/`if let`
//!   scrutinee extension.
//! * **Closures** get a fresh frame: a guard held where a closure is
//!   *defined* is not held where it *runs*.
//!
//! While any guard is live, a deny-listed blocking call is a
//! `lock-across-blocking` finding, and acquiring a lock adds a
//! `held → acquired` edge to the global lock graph; a cycle in that
//! graph (including a self-edge: re-acquiring a lock you hold) is a
//! `lock-order-cycle` finding. The scope tracking is per-function and
//! lexical, but call sites additionally consult the call-graph
//! summaries ([`crate::callgraph`]): a guard live across a call to a
//! helper that *transitively* blocks is a finding too, and locks a
//! callee acquires internally contribute `held → acquired` edges
//! (tagged with the witness chain) to the cycle check. Condvar waits
//! (`wait`, `wait_until`, `wait_timeout`) are not denied: they
//! atomically release the guard they park on.

use crate::callgraph::{CallEffects, BLOCKING};
use crate::lexer::{lex, matches_at, Tok, Token};
use crate::{FileCtx, Finding, LockEdge, Report, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// Transitive call-site effects, keyed by `(file, line, callee name)`.
pub type EffectMap = BTreeMap<(String, u32, String), CallEffects>;

/// Methods that acquire a lock when called with no arguments on a
/// receiver whose final path segment is a collected lock name.
const ACQUIRE: &[&str] = &["lock", "read", "write"];

#[derive(Debug, Clone)]
struct Guard {
    /// Binding name for named guards (releasable via `drop(name)`).
    var: Option<String>,
    lock: String,
    line: u32,
    /// Brace depth where the guard came to life.
    decl_depth: u32,
    /// Temporaries release at statement end; named guards at scope
    /// close.
    temp: bool,
}

/// One analysis frame: a `fn` body or a closure body. Guards never
/// cross frames.
struct Frame {
    func: String,
    /// Brace depth at which this frame's body `{` opened (frames for
    /// expression closures record the current depth).
    depth: u32,
    /// Expression-closure frames (no braces) end at the `)` that
    /// returns the paren depth to this value, instead of a brace.
    expr_end_paren: Option<u32>,
    guards: Vec<Guard>,
}

/// Pass A: collect lock names across the whole scan set.
pub fn collect_names(files: &[&FileCtx]) -> BTreeSet<String> {
    let mut lock_names: BTreeSet<String> = BTreeSet::new();
    for ctx in files {
        collect_lock_names(ctx, &mut lock_names);
    }
    lock_names
}

pub fn check(
    files: &[&FileCtx],
    lock_names: &BTreeSet<String>,
    effects: &EffectMap,
    report: &mut Report,
) {
    report.lock_names = lock_names.iter().cloned().collect();

    // Pass B: per-file scope tracking.
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    for ctx in files {
        track_file(ctx, lock_names, effects, &mut edges, report);
    }

    // Cycle detection over the unwaived edges.
    let live: Vec<LockEdge> = edges.values().filter(|e| !e.allowed).cloned().collect();
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in &live {
        adj.entry(e.held.as_str()).or_default().push(e);
    }
    let starts: Vec<&str> = adj.keys().copied().collect();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in starts {
        let mut path: Vec<&LockEdge> = Vec::new();
        let mut on_path: BTreeSet<&str> = BTreeSet::new();
        dfs(start, &adj, &mut path, &mut on_path, &mut reported, report);
    }

    report.lock_edges = edges.into_values().collect();
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a LockEdge>>,
    path: &mut Vec<&'a LockEdge>,
    on_path: &mut BTreeSet<&'a str>,
    reported: &mut BTreeSet<Vec<String>>,
    report: &mut Report,
) {
    on_path.insert(node);
    for edge in adj.get(node).cloned().into_iter().flatten() {
        if on_path.contains(edge.acquired.as_str()) {
            // A cycle: the suffix of `path` from the repeated node,
            // plus this closing edge. Canonicalize (rotate to the
            // smallest name) so each cycle is reported once.
            let from = path
                .iter()
                .position(|e| e.held == edge.acquired)
                .unwrap_or(path.len());
            let mut cycle: Vec<&LockEdge> = path[from..].to_vec();
            cycle.push(edge);
            let mut key: Vec<String> = cycle.iter().map(|e| e.held.clone()).collect();
            let rotate = key
                .iter()
                .enumerate()
                .min_by_key(|&(_, name)| name.clone())
                .map(|(i, _)| i)
                .unwrap_or(0);
            key.rotate_left(rotate);
            if reported.insert(key) {
                let mut msg = String::from("lock-order cycle: ");
                for (i, e) in cycle.iter().enumerate() {
                    if i > 0 {
                        msg.push_str(", then ");
                    }
                    msg.push_str(&format!(
                        "`{}` → `{}` in `{}` ({}:{})",
                        e.held, e.acquired, e.func, e.file, e.line
                    ));
                }
                let site = cycle[0];
                report.findings.push(Finding {
                    rule: Rule::LockOrderCycle,
                    file: site.file.clone(),
                    line: site.line,
                    message: msg,
                    allowed: None,
                    chain: cycle.iter().map(|e| e.held.clone()).collect(),
                });
            }
            continue;
        }
        path.push(edge);
        dfs(edge.acquired.as_str(), adj, path, on_path, reported, report);
        path.pop();
    }
    on_path.remove(node);
}

/// Pass A: find names declared with a `Mutex`/`RwLock` type or
/// initializer. Handles `name: Mutex<..>`, `name: pkg::Mutex<..>`,
/// `name: Mutex::new(..)`, and `let name = Mutex::new(..)`, each bare or
/// under an `Arc` (`Arc<Mutex<..>>`, `Arc::new(Mutex::new(..))`) or a
/// `&`; a type alias of one (`type X = Arc<Mutex<..>>`) in the file
/// counts as a lock type, and `let name = Arc::clone(&lock)` as a lock.
fn collect_lock_names(ctx: &FileCtx, out: &mut BTreeSet<String>) {
    let toks = &ctx.lexed.tokens;
    // `type X = [Arc<]Mutex<..>` or `RwLock<..>`: `X` is a lock type.
    let aliases: Vec<&str> = (0..toks.len())
        .filter(|&i| matches!(&toks[i].kind, Tok::Ident(w) if w == "type"))
        .filter_map(|i| {
            let Some(Tok::Ident(alias)) = toks.get(i + 1).map(|t| &t.kind) else {
                return None;
            };
            let locks = ["= Mutex<", "= RwLock<", "= Arc<Mutex<", "= Arc<RwLock<"];
            let lock = |l: &&str| matches_at(toks, i + 2, &lex(l).tokens);
            locks.iter().any(lock).then_some(alias.as_str())
        })
        .collect();
    // Step back over a leading `path::` chain.
    let strip_path = |mut j: usize| {
        while j >= 3
            && matches!(toks[j - 1].kind, Tok::Punct(':'))
            && matches!(toks[j - 2].kind, Tok::Punct(':'))
            && matches!(toks[j - 3].kind, Tok::Ident(_))
        {
            j -= 3;
        }
        j
    };
    let arcs = [lex("Arc<").tokens, lex("Arc::new(").tokens];
    for i in 0..toks.len() {
        let Tok::Ident(word) = &toks[i].kind else {
            continue;
        };
        // Only type position (`Mutex<`), a constructor (`Mutex::new`),
        // or an alias anywhere but its own `type` item.
        let next = toks.get(i + 1).map(|t| &t.kind);
        let next2 = toks.get(i + 2).map(|t| &t.kind);
        let is_use = if aliases.contains(&word.as_str()) {
            !matches!(&toks[i.saturating_sub(1)].kind, Tok::Ident(w) if w == "type")
        } else {
            (word == "Mutex" || word == "RwLock")
                && (matches!(next, Some(Tok::Punct('<')))
                    || (matches!(next, Some(Tok::Punct(':')))
                        && matches!(next2, Some(Tok::Punct(':')))))
        };
        if !is_use {
            continue;
        }
        // An `Arc<` or `Arc::new(` wrapper, or a `&`, is looked through.
        let mut j = strip_path(i);
        let wrapped = |a: &&Vec<Token>| j >= a.len() && matches_at(toks, j - a.len(), a);
        if let Some(arc) = arcs.iter().find(wrapped) {
            j = strip_path(j - arc.len());
        }
        if j >= 1 && matches!(toks[j - 1].kind, Tok::Punct('&')) {
            j -= 1;
        }
        // `name : Mutex` — a field declaration or struct-literal
        // initializer. Require a *single* colon.
        if j >= 2
            && matches!(toks[j - 1].kind, Tok::Punct(':'))
            && !matches!(
                j.checked_sub(2).map(|p| &toks[p].kind),
                Some(Tok::Punct(':'))
            )
        {
            if let Tok::Ident(name) = &toks[j - 2].kind {
                out.insert(name.clone());
                continue;
            }
        }
        // `let [mut] name = Mutex::new(..)`.
        if j >= 2 && matches!(toks[j - 1].kind, Tok::Punct('=')) {
            let window = j.saturating_sub(5)..j - 1;
            let mut found_let = None;
            for k in window.rev() {
                if matches!(&toks[k].kind, Tok::Ident(w) if w == "let") {
                    found_let = Some(k);
                    break;
                }
            }
            if let Some(k) = found_let {
                for t in &toks[k + 1..j - 1] {
                    if let Tok::Ident(name) = &t.kind {
                        if name != "mut" {
                            out.insert(name.clone());
                            break;
                        }
                    }
                }
            }
        }
    }
    // `let name = Arc::clone(&lock)`: another handle on a lock.
    let clone = lex("= Arc::clone(&").tokens;
    for i in 1..toks.len() {
        let held = match toks.get(i + clone.len()).map(|t| &t.kind) {
            Some(Tok::Ident(lock)) => out.contains(lock),
            _ => false,
        };
        if held && matches_at(toks, i, &clone) {
            if let Tok::Ident(name) = &toks[i - 1].kind {
                out.insert(name.clone());
            }
        }
    }
}

/// Does the expression chain starting right after a zero-arg acquire
/// call (`x.lock()` → token index of the first token past the `)`)
/// end the statement with the guard as the bound value? `.unwrap()`
/// and `.expect(..)` pass the guard through; any other continuation
/// (indexing, further methods) consumes it within the statement.
fn binds_guard(toks: &[crate::lexer::Token], mut j: usize) -> bool {
    loop {
        match toks.get(j).map(|t| &t.kind) {
            Some(Tok::Punct(';')) => return true,
            Some(Tok::Punct('.')) => {
                let adapter = matches!(
                    toks.get(j + 1).map(|t| &t.kind),
                    Some(Tok::Ident(w)) if w == "unwrap" || w == "expect"
                );
                if !adapter || !matches!(toks.get(j + 2).map(|t| &t.kind), Some(Tok::Punct('('))) {
                    return false;
                }
                // Skip the balanced argument list.
                let mut depth = 0i32;
                j += 2;
                while let Some(t) = toks.get(j) {
                    match t.kind {
                        Tok::Punct('(') => depth += 1,
                        Tok::Punct(')') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
            }
            _ => return false,
        }
    }
}

/// Pass B over one file.
fn track_file(
    ctx: &FileCtx,
    lock_names: &BTreeSet<String>,
    effects: &EffectMap,
    edges: &mut BTreeMap<(String, String), LockEdge>,
    report: &mut Report,
) {
    let toks = &ctx.lexed.tokens;
    let mut frames: Vec<Frame> = Vec::new();
    let mut brace_depth: u32 = 0;
    let mut paren_depth: u32 = 0;
    // `fn name` seen, body `{` not yet reached.
    let mut pending_fn: Option<String> = None;
    // `let` statement in progress: (binding name if simple,
    // brace depth, paren depth at the `let`). `if let` / `while let`
    // scrutinees and destructuring patterns force temp mode (`None`).
    let mut pending_let: Option<(Option<String>, u32, u32)> = None;

    let mut i = 0usize;
    while i < toks.len() {
        let line = toks[i].line;
        match &toks[i].kind {
            Tok::Punct('(') | Tok::Punct('[') => paren_depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => {
                paren_depth = paren_depth.saturating_sub(1);
                while let Some(f) = frames.last() {
                    if f.expr_end_paren == Some(paren_depth) {
                        frames.pop();
                    } else {
                        break;
                    }
                }
            }
            Tok::Punct('{') => {
                if pending_fn.is_some() && paren_depth == 0 {
                    frames.push(Frame {
                        func: pending_fn.take().unwrap(),
                        depth: brace_depth,
                        expr_end_paren: None,
                        guards: Vec::new(),
                    });
                }
                brace_depth += 1;
            }
            Tok::Punct('}') => {
                brace_depth = brace_depth.saturating_sub(1);
                if let Some(f) = frames.last_mut() {
                    // Scope close releases named guards declared in the
                    // closed block and temporaries whose statement this
                    // brace ends (match / if-let scrutinees).
                    f.guards.retain(|g| {
                        if g.temp {
                            g.decl_depth < brace_depth
                        } else {
                            g.decl_depth <= brace_depth
                        }
                    });
                }
                while let Some(f) = frames.last() {
                    if f.expr_end_paren.is_none() && f.depth == brace_depth {
                        frames.pop();
                    } else {
                        break;
                    }
                }
                pending_let = None;
            }
            Tok::Punct(';') => {
                if let Some(f) = frames.last_mut() {
                    f.guards
                        .retain(|g| !(g.temp && g.decl_depth >= brace_depth));
                }
                pending_let = None;
                pending_fn = None; // `fn f();` — trait/extern decl
            }
            Tok::Punct(',') if paren_depth == 0 => {
                if let Some(f) = frames.last_mut() {
                    f.guards
                        .retain(|g| !(g.temp && g.decl_depth >= brace_depth));
                }
            }
            Tok::Punct('|') => {
                // Closure start? Only after `(`, `,`, `=`, `{`, or
                // `move`/`return`/`else` — never after an identifier,
                // literal, or `)` (bitwise or pattern ors).
                let starts_closure = match i.checked_sub(1).map(|p| &toks[p].kind) {
                    Some(Tok::Punct('('))
                    | Some(Tok::Punct(','))
                    | Some(Tok::Punct('='))
                    | Some(Tok::Punct('{')) => true,
                    Some(Tok::Ident(w)) => w == "move" || w == "return" || w == "else",
                    None => false,
                    _ => false,
                };
                if starts_closure {
                    // Skip the parameter list to the closing `|`
                    // (an empty `||` closes immediately).
                    let mut j = i + 1;
                    let mut angle = 0i32;
                    while j < toks.len() {
                        match &toks[j].kind {
                            Tok::Punct('<') => angle += 1,
                            Tok::Punct('>') => angle -= 1,
                            Tok::Punct('|') if angle <= 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    let braced = matches!(toks.get(j + 1).map(|t| &t.kind), Some(Tok::Punct('{')));
                    let func = frames
                        .last()
                        .map(|f| format!("{}::<closure>", f.func))
                        .unwrap_or_else(|| "<closure>".into());
                    frames.push(Frame {
                        func,
                        depth: brace_depth,
                        expr_end_paren: if braced {
                            None
                        } else {
                            Some(paren_depth.saturating_sub(1))
                        },
                        guards: Vec::new(),
                    });
                    i = j; // resume at the closing `|`
                }
            }
            Tok::Ident(w) if w == "fn" => {
                if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) {
                    pending_fn = Some(name.clone());
                }
            }
            Tok::Ident(w) if w == "let" => {
                let scrutinee = matches!(
                    i.checked_sub(1).map(|p| &toks[p].kind),
                    Some(Tok::Ident(prev)) if prev == "if" || prev == "while"
                );
                let name = if scrutinee {
                    None
                } else {
                    match toks.get(i + 1).map(|t| &t.kind) {
                        Some(Tok::Ident(n)) if n == "mut" => {
                            match toks.get(i + 2).map(|t| &t.kind) {
                                Some(Tok::Ident(n2)) => Some(n2.clone()),
                                _ => None,
                            }
                        }
                        Some(Tok::Ident(n)) => Some(n.clone()),
                        _ => None,
                    }
                };
                pending_let = Some((name, brace_depth, paren_depth));
            }
            Tok::Ident(w) if w == "drop" => {
                if let (Some(Tok::Punct('(')), Some(Tok::Ident(var)), Some(Tok::Punct(')'))) = (
                    toks.get(i + 1).map(|t| &t.kind),
                    toks.get(i + 2).map(|t| &t.kind),
                    toks.get(i + 3).map(|t| &t.kind),
                ) {
                    if let Some(f) = frames.last_mut() {
                        f.guards.retain(|g| g.var.as_deref() != Some(var.as_str()));
                    }
                }
            }
            Tok::Ident(name) => {
                let is_call = matches!(toks.get(i + 1).map(|t| &t.kind), Some(Tok::Punct('(')));
                let is_method = matches!(
                    i.checked_sub(1).map(|p| &toks[p].kind),
                    Some(Tok::Punct('.'))
                );
                let zero_arg = matches!(toks.get(i + 2).map(|t| &t.kind), Some(Tok::Punct(')')));
                if is_call && is_method && zero_arg && ACQUIRE.contains(&name.as_str()) {
                    let recv = i.checked_sub(2).and_then(|p| match &toks[p].kind {
                        Tok::Ident(r) => Some(r.clone()),
                        _ => None,
                    });
                    if let Some(recv) = recv.filter(|r| lock_names.contains(r)) {
                        if let Some(frame) = frames.last_mut() {
                            let allow = ctx.allow_for(Rule::LockOrderCycle, line);
                            for held in &frame.guards {
                                let key = (held.lock.clone(), recv.clone());
                                edges.entry(key).or_insert_with(|| LockEdge {
                                    held: held.lock.clone(),
                                    acquired: recv.clone(),
                                    func: frame.func.clone(),
                                    file: ctx.rel.clone(),
                                    line,
                                    allowed: allow.is_some(),
                                    via: None,
                                });
                            }
                            // Named binding only when the acquisition
                            // sits at the `let`'s own nesting (so
                            // `let v = take(&mut *x.lock())` stays a
                            // temporary) *and* the binding is the
                            // guard itself — the chain ends at `;`,
                            // modulo `.unwrap()`/`.expect(..)`. In
                            // `let v = x.lock().unwrap()[0].clone();`
                            // the guard is a temporary of the
                            // statement, not `v`.
                            let named = match &pending_let {
                                Some((Some(n), ld, lp))
                                    if *ld == brace_depth
                                        && *lp == paren_depth
                                        && binds_guard(toks, i + 3) =>
                                {
                                    Some(n.clone())
                                }
                                _ => None,
                            };
                            frame.guards.push(Guard {
                                temp: named.is_none(),
                                var: named,
                                lock: recv,
                                line,
                                decl_depth: brace_depth,
                            });
                        }
                    }
                }
                if is_call && BLOCKING.contains(&name.as_str()) && (name != "join" || zero_arg) {
                    if let Some(f) = frames.last() {
                        if let Some(g) = f.guards.first() {
                            let allow = ctx.allow_for(Rule::LockAcrossBlocking, line);
                            report.findings.push(Finding {
                                rule: Rule::LockAcrossBlocking,
                                file: ctx.rel.clone(),
                                line,
                                message: format!(
                                    "blocking call `{name}` while guard on `{}` (acquired \
                                     line {}) is live, in `{}`",
                                    g.lock, g.line, f.func
                                ),
                                allowed: allow.map(str::to_string),
                                chain: Vec::new(),
                            });
                        }
                    }
                }
                // Interprocedural: does the callee's summary say it
                // blocks or takes locks? (Sites whose name is itself
                // on the denylist were handled lexically above and are
                // absent from the effect map.)
                if is_call {
                    let key = (ctx.rel.clone(), line, name.clone());
                    if let Some(eff) = effects.get(&key) {
                        if let Some(f) = frames.last() {
                            if let Some(g) = f.guards.first() {
                                if let Some(chain) = &eff.blocks {
                                    let allow = ctx.allow_for(Rule::LockAcrossBlocking, line);
                                    report.findings.push(Finding {
                                        rule: Rule::LockAcrossBlocking,
                                        file: ctx.rel.clone(),
                                        line,
                                        message: format!(
                                            "call to `{name}` may block (`{chain}`) while \
                                             guard on `{}` (acquired line {}) is live, in `{}`",
                                            g.lock, g.line, f.func
                                        ),
                                        allowed: allow.map(str::to_string),
                                        chain: chain.split(" → ").map(str::to_string).collect(),
                                    });
                                }
                            }
                            if !f.guards.is_empty() && !eff.locks.is_empty() {
                                let allow = ctx.allow_for(Rule::LockOrderCycle, line);
                                for (acquired, via) in &eff.locks {
                                    for held in &f.guards {
                                        let key = (held.lock.clone(), acquired.clone());
                                        edges.entry(key).or_insert_with(|| LockEdge {
                                            held: held.lock.clone(),
                                            acquired: acquired.clone(),
                                            func: frames.last().unwrap().func.clone(),
                                            file: ctx.rel.clone(),
                                            line,
                                            allowed: allow.is_some(),
                                            via: Some(via.clone()),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}
