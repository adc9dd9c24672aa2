//! The interprocedural layer: a workspace call graph built from the
//! lexer token stream.
//!
//! Pass 1 indexes every `fn` with a body, qualified by its file module
//! path, enclosing `mod` blocks, and the `impl`/`trait` type it hangs
//! off. While a body is open, the walker records call sites, direct
//! blocking-denylist hits, lock acquisitions (receiver ends in a
//! collected lock name), and panic sites (`unwrap`/`expect`,
//! `panic!`-family macros, single-token slice indexes, and bare
//! `thread::spawn`, which panics when the OS refuses a thread where
//! `thread::Builder::spawn` returns the error). Closures
//! passed to `spawn` run on another thread, so their bodies are
//! excluded from the enclosing function's record.
//!
//! Pass 2 resolves call sites in tiers: `self.m()` to the current
//! impl type, `recv.m()` through a global `ident → type` hint map
//! built from `name: Type` declarations and `let name = Type::...`
//! initializers, `Qual::m()` by type or module name, then a
//! unique-name fallback. The ambiguity policy ([`AMBIGUITY_POLICY`],
//! recorded in `lint.json`): a call that still matches several
//! candidates is counted as ambiguous and **not** traversed —
//! precision over recall, so summary-driven findings stay reviewable.
//!
//! Pass 3 computes per-function summaries by fixpoint over the
//! resolved edges — may-block, locks-acquired, may-panic — each with a
//! witness chain down to the concrete sink line, and supports BFS
//! reachability from named reactor entry points with shortest call
//! chains for findings.

use crate::lexer::Tok;
use crate::FileCtx;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The resolution policy string recorded in `lint.json` schema v2.
pub const AMBIGUITY_POLICY: &str = "self/receiver-type/path-qualifier/unique-name tiers; a call \
     still matching several candidates is counted as ambiguous and not traversed";

/// The blocking denylist, shared with [`crate::locks`]: calls that
/// park the calling thread (or stream to a peer). `join` counts only
/// in its zero-argument thread form — `path.join(x)` and
/// `slice.join(sep)` take arguments. The positioned file calls
/// (`read_at`, `write_at`, `write_all_at`) are what the data plane's
/// `Fetch`/`Store` handlers sit in, up to `MAX_DATA_RANGE` per
/// request against whatever tier backs the dataspace — listing them
/// keeps those handlers off the reactor (README § Data-plane
/// architecture). So are the mapped local mover's two syscalls: `mmap`
/// reads its whole source range in (`MAP_POPULATE`) and `pwrite` lands
/// a unit of up to `chunk_size` from it.
pub const BLOCKING: &[&str] = &[
    "write_all",
    "write_all_at",
    "write_at",
    "write_vectored",
    "read_at",
    "read_exact",
    "read_exact_at",
    "read_to_end",
    "read_to_string",
    "flush",
    "connect",
    "accept",
    "sleep",
    "copy_file_range",
    "mmap",
    "pwrite",
    "sendfile",
    "epoll_wait",
    "recv",
    "recv_timeout",
    "join",
];

const ACQUIRE: &[&str] = &["lock", "read", "write"];

/// Sentinel receiver for methods chained directly off an acquire call
/// (`x.lock().retain(..)`): the receiver is the guard temporary.
const GUARD_RECV: &str = "<guard>";

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

fn is_keyword(w: &str) -> bool {
    matches!(
        w,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "fn"
            | "pub"
            | "use"
            | "mod"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "union"
            | "type"
            | "const"
            | "static"
            | "ref"
            | "move"
            | "in"
            | "as"
            | "where"
            | "unsafe"
            | "extern"
            | "crate"
            | "super"
            | "dyn"
            | "box"
            | "async"
            | "await"
            | "true"
            | "false"
    )
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `recv.name(..)` — the receiver ident just before the dot, when
    /// it is a plain ident (`None` for chained/parenthesized
    /// receivers).
    Method(Option<String>),
    /// `Qual::name(..)` — the last path segment before the `::`.
    Path(String),
    /// Bare `name(..)`.
    Free,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    pub line: u32,
    pub recv: Recv,
}

/// One indexed function.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Module-path-qualified name, e.g.
    /// `norns_ipc::daemon::Shared::reactor_loop`.
    pub qname: String,
    pub name: String,
    /// The `impl`/`trait` type the fn hangs off, if any.
    pub self_type: Option<String>,
    pub file: String,
    pub line: u32,
    /// Defined in test code ([`FileCtx::in_test`]) — a resolution
    /// candidate only for test code in its own file.
    pub is_test: bool,
    pub calls: Vec<CallSite>,
    /// Call sites in a closure handed to `spawn`: another thread's, so
    /// no edge or summary, but this function's calls for `sites` rows.
    pub spawned: Vec<CallSite>,
    /// Direct blocking-denylist hits: (callee name, line).
    pub blocking: Vec<(String, u32)>,
    /// Direct lock acquisitions: (lock name, line).
    pub locks: Vec<(String, u32)>,
    /// Direct panic sites: (kind, line) with kind one of `unwrap`,
    /// `expect`, `panic!`, `unreachable!`, …, `slice-index`,
    /// `thread::spawn`.
    pub panics: Vec<(String, u32)>,
}

/// How one call site resolved.
#[derive(Debug, Clone)]
pub enum Resolution {
    /// Traversed edges to these function indices.
    Confident(Vec<usize>),
    /// Several same-name candidates, no type information: counted,
    /// not traversed.
    Ambiguous(usize),
    /// No workspace candidate (std / extern / macro-generated).
    Unresolved,
}

/// A step in a summary witness chain.
#[derive(Debug, Clone)]
enum Witness {
    /// The sink itself (callee name, panic kind, or lock name).
    Direct(String),
    /// Through a call to `fns[callee]`.
    Via(usize),
}

#[derive(Debug, Clone, Default)]
pub struct Stats {
    pub functions_indexed: usize,
    pub call_sites: usize,
    pub resolved_unique: usize,
    pub resolved_multi: usize,
    pub ambiguous: usize,
    pub unresolved: usize,
}

/// Reactor reachability: BFS order, shortest-path parents, and the
/// entry fn indices that matched the configured entry points.
pub struct Reach {
    pub entries: Vec<usize>,
    pub reachable: BTreeSet<usize>,
    parent: BTreeMap<usize, (usize, u32)>,
}

impl Reach {
    /// Shortest call chain `entry → … → f`, as fn indices.
    pub fn chain_to(&self, f: usize) -> Vec<usize> {
        let mut chain = vec![f];
        let mut cur = f;
        while let Some(&(p, _)) = self.parent.get(&cur) {
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }
}

/// Transitive effects of one call site, for the lock rules: does the
/// callee (transitively) block, and which locks does it acquire? Chain
/// texts are short-name arrows ending at the sink.
#[derive(Debug, Clone, Default)]
pub struct CallEffects {
    pub blocks: Option<String>,
    pub locks: Vec<(String, String)>,
}

pub struct CallGraph {
    pub fns: Vec<FnDef>,
    /// Per-fn resolved edges: (callee index, call line).
    pub edges: Vec<Vec<(usize, u32)>>,
    /// Parallel to each fn's `calls`.
    pub resolutions: Vec<Vec<Resolution>>,
    pub stats: Stats,
    may_block: Vec<Option<Witness>>,
    may_panic: Vec<Option<Witness>>,
    lock_sets: Vec<BTreeMap<String, Witness>>,
}

impl CallGraph {
    pub fn may_block(&self, f: usize) -> bool {
        self.may_block[f].is_some()
    }

    pub fn may_panic(&self, f: usize) -> bool {
        self.may_panic[f].is_some()
    }

    pub fn locks_acquired(&self, f: usize) -> Vec<String> {
        self.lock_sets[f].keys().cloned().collect()
    }

    /// Short-name chain from `f` to its blocking sink, e.g.
    /// `["flush_blocking", "sleep"]`.
    pub fn block_chain(&self, f: usize) -> Vec<String> {
        self.witness_chain(f, |g| self.may_block[g].as_ref())
    }

    fn witness_chain<'a>(
        &'a self,
        f: usize,
        get: impl Fn(usize) -> Option<&'a Witness>,
    ) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cur = f;
        let mut hops = 0;
        loop {
            chain.push(self.fns[cur].name.clone());
            match get(cur) {
                Some(Witness::Direct(what)) => {
                    chain.push(what.clone());
                    return chain;
                }
                Some(Witness::Via(next)) => {
                    cur = *next;
                    hops += 1;
                    if hops > self.fns.len() {
                        return chain; // defensive: witness chains are acyclic
                    }
                }
                None => return chain,
            }
        }
    }

    /// BFS from the configured entry points. Each entry is a
    /// `(file suffix, fn name)` pair.
    pub fn reach(&self, entries: &[(String, String)]) -> Reach {
        let mut entry_idx = Vec::new();
        for (suffix, name) in entries {
            for (i, d) in self.fns.iter().enumerate() {
                if d.name == *name && d.file.ends_with(suffix.as_str()) {
                    entry_idx.push(i);
                }
            }
        }
        entry_idx.sort_unstable();
        entry_idx.dedup();
        let mut reachable: BTreeSet<usize> = entry_idx.iter().copied().collect();
        let mut parent = BTreeMap::new();
        let mut queue: VecDeque<usize> = entry_idx.iter().copied().collect();
        while let Some(f) = queue.pop_front() {
            for &(callee, line) in &self.edges[f] {
                if reachable.insert(callee) {
                    parent.insert(callee, (f, line));
                    queue.push_back(callee);
                }
            }
        }
        Reach {
            entries: entry_idx,
            reachable,
            parent,
        }
    }

    /// The transitive effects of every confidently-resolved call site
    /// in `files` (workspace-relative paths), keyed by
    /// `(file, line, callee name)`. Sites whose callee name is itself
    /// on the blocking denylist are skipped — the lexical check
    /// already fires on those.
    pub fn effects_for(
        &self,
        files: &BTreeSet<String>,
    ) -> BTreeMap<(String, u32, String), CallEffects> {
        let mut out: BTreeMap<(String, u32, String), CallEffects> = BTreeMap::new();
        for (fi, def) in self.fns.iter().enumerate() {
            if !files.contains(&def.file) {
                continue;
            }
            for (si, site) in def.calls.iter().enumerate() {
                if BLOCKING.contains(&site.name.as_str()) {
                    continue;
                }
                let Resolution::Confident(cands) = &self.resolutions[fi][si] else {
                    continue;
                };
                let mut eff = CallEffects::default();
                for &c in cands {
                    if eff.blocks.is_none() && self.may_block[c].is_some() {
                        eff.blocks = Some(arrows(&self.block_chain(c)));
                    }
                    for lock in self.lock_sets[c].keys() {
                        let chain = arrows(&self.lock_chain(c, lock));
                        if !eff.locks.iter().any(|(l, _)| l == lock) {
                            eff.locks.push((lock.clone(), chain));
                        }
                    }
                }
                if eff.blocks.is_none() && eff.locks.is_empty() {
                    continue;
                }
                let key = (def.file.clone(), site.line, site.name.clone());
                let slot = out.entry(key).or_default();
                if slot.blocks.is_none() {
                    slot.blocks = eff.blocks;
                }
                for l in eff.locks {
                    if !slot.locks.iter().any(|(n, _)| *n == l.0) {
                        slot.locks.push(l);
                    }
                }
            }
        }
        out
    }

    fn lock_chain(&self, f: usize, lock: &str) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cur = f;
        let mut hops = 0;
        loop {
            chain.push(self.fns[cur].name.clone());
            match self.lock_sets[cur].get(lock) {
                Some(Witness::Direct(what)) => {
                    chain.push(format!("{what}.lock"));
                    return chain;
                }
                Some(Witness::Via(next)) => {
                    cur = *next;
                    hops += 1;
                    if hops > self.fns.len() {
                        return chain;
                    }
                }
                None => return chain,
            }
        }
    }
}

/// Render a chain as `a → b → c`.
pub fn arrows(chain: &[String]) -> String {
    chain.join(" → ")
}

/// Build the workspace call graph. `lock_names`/`lock_scope` feed the
/// locks-acquired summaries (acquisition sites are only meaningful in
/// the lock-discipline scan set).
pub fn build(
    files: &[&FileCtx],
    lock_names: &BTreeSet<String>,
    lock_scope: &BTreeSet<String>,
) -> CallGraph {
    let mut fns: Vec<FnDef> = Vec::new();
    let mut hints: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for ctx in files {
        index_file(ctx, lock_names, lock_scope, &mut fns, &mut hints);
    }

    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, d) in fns.iter().enumerate() {
        by_name.entry(d.name.as_str()).or_default().push(i);
    }

    let mut stats = Stats {
        functions_indexed: fns.len(),
        ..Stats::default()
    };
    let mut edges: Vec<Vec<(usize, u32)>> = vec![Vec::new(); fns.len()];
    let mut resolutions: Vec<Vec<Resolution>> = Vec::with_capacity(fns.len());
    for fi in 0..fns.len() {
        let mut res = Vec::with_capacity(fns[fi].calls.len());
        for si in 0..fns[fi].calls.len() {
            let site = fns[fi].calls[si].clone();
            let r = resolve(&site, &fns[fi], &fns, &by_name, &hints, lock_names);
            stats.call_sites += 1;
            match &r {
                Resolution::Confident(c) if c.len() == 1 => stats.resolved_unique += 1,
                Resolution::Confident(_) => stats.resolved_multi += 1,
                Resolution::Ambiguous(_) => stats.ambiguous += 1,
                Resolution::Unresolved => stats.unresolved += 1,
            }
            if let Resolution::Confident(cands) = &r {
                for &c in cands {
                    edges[fi].push((c, site.line));
                }
            }
            res.push(r);
        }
        edges[fi].sort_unstable();
        edges[fi].dedup();
        resolutions.push(res);
    }

    let (may_block, may_panic, lock_sets) = summarize(&fns, &edges);
    CallGraph {
        fns,
        edges,
        resolutions,
        stats,
        may_block,
        may_panic,
        lock_sets,
    }
}

/// Fixpoint propagation of the three summaries over resolved edges.
#[allow(clippy::type_complexity)]
fn summarize(
    fns: &[FnDef],
    edges: &[Vec<(usize, u32)>],
) -> (
    Vec<Option<Witness>>,
    Vec<Option<Witness>>,
    Vec<BTreeMap<String, Witness>>,
) {
    let n = fns.len();
    let mut redges: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for (caller, outs) in edges.iter().enumerate() {
        for &(callee, line) in outs {
            redges[callee].push((caller, line));
        }
    }

    let mut may_block: Vec<Option<Witness>> = vec![None; n];
    let mut may_panic: Vec<Option<Witness>> = vec![None; n];
    let mut lock_sets: Vec<BTreeMap<String, Witness>> = vec![BTreeMap::new(); n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, d) in fns.iter().enumerate() {
        if let Some((name, _)) = d.blocking.first() {
            may_block[i] = Some(Witness::Direct(name.clone()));
        }
        if let Some((kind, _)) = d.panics.first() {
            may_panic[i] = Some(Witness::Direct(kind.clone()));
        }
        for (lock, _) in &d.locks {
            lock_sets[i]
                .entry(lock.clone())
                .or_insert(Witness::Direct(lock.clone()));
        }
        queue.push_back(i);
    }
    let mut queued: Vec<bool> = vec![true; n];
    while let Some(f) = queue.pop_front() {
        queued[f] = false;
        let f_block = may_block[f].is_some();
        let f_panic = may_panic[f].is_some();
        let f_locks: Vec<String> = lock_sets[f].keys().cloned().collect();
        for &(caller, _line) in &redges[f] {
            let mut changed = false;
            if f_block && may_block[caller].is_none() {
                may_block[caller] = Some(Witness::Via(f));
                changed = true;
            }
            if f_panic && may_panic[caller].is_none() {
                may_panic[caller] = Some(Witness::Via(f));
                changed = true;
            }
            for lock in &f_locks {
                if !lock_sets[caller].contains_key(lock) {
                    lock_sets[caller].insert(lock.clone(), Witness::Via(f));
                    changed = true;
                }
            }
            if changed && !queued[caller] {
                queued[caller] = true;
                queue.push_back(caller);
            }
        }
    }
    (may_block, may_panic, lock_sets)
}

/// Tiered resolution; see [`AMBIGUITY_POLICY`].
fn resolve(
    site: &CallSite,
    caller: &FnDef,
    fns: &[FnDef],
    by_name: &BTreeMap<&str, Vec<usize>>,
    hints: &BTreeMap<String, BTreeSet<String>>,
    lock_names: &BTreeSet<String>,
) -> Resolution {
    let Some(all) = by_name.get(site.name.as_str()) else {
        return Resolution::Unresolved;
    };
    // `spawn` is the thread-handoff primitive (`thread::spawn`,
    // `Builder::spawn`): never bind it to a workspace fn that merely
    // shares the name unless a type tier proves it.
    if site.name == "spawn" && !matches!(&site.recv, Recv::Path(_)) {
        return Resolution::Unresolved;
    }
    // Methods on a receiver named like a collected lock, or chained
    // straight off `.lock()`/`.read()`/`.write()`, are guard or
    // collection operations (`entries.lock().retain(..)`), not
    // workspace calls.
    if let Recv::Method(Some(r)) = &site.recv {
        if r == GUARD_RECV || lock_names.contains(r) {
            return Resolution::Unresolved;
        }
    }
    let cands: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| !fns[i].is_test || (caller.is_test && fns[i].file == caller.file))
        .collect();
    if cands.is_empty() {
        return Resolution::Unresolved;
    }
    let with_self_type = |ty: &str| -> Vec<usize> {
        cands
            .iter()
            .copied()
            .filter(|&i| fns[i].self_type.as_deref() == Some(ty))
            .collect()
    };
    match &site.recv {
        Recv::Method(Some(r)) if r == "self" => {
            if let Some(ty) = &caller.self_type {
                let m = with_self_type(ty);
                if !m.is_empty() {
                    return Resolution::Confident(m);
                }
            }
        }
        Recv::Method(Some(r)) => {
            if let Some(tys) = hints.get(r).filter(|t| !t.is_empty()) {
                let m: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| fns[i].self_type.as_deref().is_some_and(|t| tys.contains(t)))
                    .collect();
                // A typed receiver that matches no workspace method is
                // a std/extern call, not license to guess.
                return if m.is_empty() {
                    Resolution::Unresolved
                } else {
                    Resolution::Confident(m)
                };
            }
        }
        Recv::Path(q) if q == "Self" => {
            if let Some(ty) = &caller.self_type {
                let m = with_self_type(ty);
                if !m.is_empty() {
                    return Resolution::Confident(m);
                }
            }
        }
        Recv::Path(q) => {
            let m = with_self_type(q);
            if !m.is_empty() {
                return Resolution::Confident(m);
            }
            let by_mod: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| {
                    fns[i].qname.contains(&format!("::{q}::"))
                        || fns[i].qname.starts_with(&format!("{q}::"))
                })
                .collect();
            if !by_mod.is_empty() {
                return Resolution::Confident(by_mod);
            }
            // A qualifier that names no workspace type or module is a
            // std/extern path (`thread::spawn`, `mem::take`): do not
            // fall through to the unique-name tier. Relative path
            // qualifiers (`super::x()`, `crate::x()`) still may.
            if !matches!(q.as_str(), "super" | "crate" | "self") {
                return Resolution::Unresolved;
            }
        }
        Recv::Method(None) | Recv::Free => {}
    }
    if let Recv::Free = site.recv {
        let free_same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| fns[i].self_type.is_none() && fns[i].file == caller.file)
            .collect();
        if !free_same_file.is_empty() {
            return Resolution::Confident(free_same_file);
        }
    }
    if cands.len() == 1 {
        Resolution::Confident(cands)
    } else {
        Resolution::Ambiguous(cands.len())
    }
}

/// Module path prefix from a workspace-relative file path:
/// `crates/norns-ipc/src/engine/mod.rs` → `norns_ipc::engine`.
fn module_path(rel: &str) -> Vec<String> {
    let mut comps: Vec<&str> = rel.trim_end_matches(".rs").split('/').collect();
    if comps.first() == Some(&"crates") {
        comps.remove(0);
    }
    // `compat/<crate>/src/...` keeps the crate dir as the name.
    if let Some(pos) = comps.iter().position(|&c| c == "src") {
        comps.remove(pos);
    }
    let mut out: Vec<String> = comps
        .into_iter()
        .filter(|c| !c.is_empty())
        .map(|c| c.replace('-', "_"))
        .collect();
    while matches!(out.last().map(String::as_str), Some("mod" | "lib" | "main")) {
        out.pop();
    }
    out
}

/// Pass 1 over one file: index fns, their call/blocking/lock/panic
/// sites, and grow the global receiver-type hint map.
fn index_file(
    ctx: &FileCtx,
    lock_names: &BTreeSet<String>,
    lock_scope: &BTreeSet<String>,
    fns: &mut Vec<FnDef>,
    hints: &mut BTreeMap<String, BTreeSet<String>>,
) {
    let toks = &ctx.lexed.tokens;
    let file_mods = module_path(&ctx.rel);
    let in_lock_scope = lock_scope.contains(&ctx.rel);

    let mut brace: u32 = 0;
    let mut mods: Vec<(String, u32)> = Vec::new();
    let mut impls: Vec<(String, u32)> = Vec::new();
    // Open fn bodies, innermost last: (index into fns, depth of the
    // body's opening brace).
    let mut open: Vec<(usize, u32)> = Vec::new();
    let mut pending_fn: Option<(String, u32)> = None;
    let mut pending_mod: Option<String> = None;
    let mut pending_impl: Option<String> = None;

    let ident_at = |i: usize| -> Option<&str> {
        toks.get(i).and_then(|t| match &t.kind {
            Tok::Ident(w) => Some(w.as_str()),
            _ => None,
        })
    };
    let punct_at = |i: usize, c: char| -> bool {
        matches!(toks.get(i).map(|t| &t.kind), Some(Tok::Punct(p)) if *p == c)
    };

    // How the call whose callee name sits at token `i` names it.
    let recv_at = |i: usize| -> Recv {
        if i > 0 && punct_at(i - 1, '.') {
            // `x.lock().retain(..)`: the receiver is the guard
            // temporary, not a workspace type.
            let guard_chain = i >= 4
                && punct_at(i - 2, ')')
                && punct_at(i - 3, '(')
                && ident_at(i - 4).is_some_and(|a| ACQUIRE.contains(&a));
            if guard_chain {
                Recv::Method(Some(GUARD_RECV.to_string()))
            } else {
                Recv::Method(i.checked_sub(2).and_then(ident_at).and_then(|r| {
                    if is_keyword(r) && r != "self" {
                        None
                    } else {
                        Some(r.to_string())
                    }
                }))
            }
        } else if i >= 2 && punct_at(i - 1, ':') && punct_at(i - 2, ':') {
            match i.checked_sub(3).and_then(ident_at) {
                Some(q) => Recv::Path(q.to_string()),
                None => Recv::Free,
            }
        } else {
            Recv::Free
        }
    };

    let mut i = 0usize;
    while i < toks.len() {
        let line = toks[i].line;
        match &toks[i].kind {
            Tok::Punct('{') => {
                if let Some((name, fn_line)) = pending_fn.take() {
                    let mut qname: Vec<String> = file_mods.clone();
                    qname.extend(mods.iter().map(|(m, _)| m.clone()));
                    let self_type = impls.last().map(|(t, _)| t.clone());
                    if let Some(t) = &self_type {
                        qname.push(t.clone());
                    }
                    qname.push(name.clone());
                    fns.push(FnDef {
                        qname: qname.join("::"),
                        name,
                        self_type,
                        file: ctx.rel.clone(),
                        line: fn_line,
                        is_test: ctx.in_test(i),
                        calls: Vec::new(),
                        spawned: Vec::new(),
                        blocking: Vec::new(),
                        locks: Vec::new(),
                        panics: Vec::new(),
                    });
                    open.push((fns.len() - 1, brace));
                } else if let Some(m) = pending_mod.take() {
                    mods.push((m, brace));
                } else if let Some(t) = pending_impl.take() {
                    impls.push((t, brace));
                }
                brace += 1;
            }
            Tok::Punct('}') => {
                brace = brace.saturating_sub(1);
                while matches!(open.last(), Some(&(_, d)) if d == brace) {
                    open.pop();
                }
                while matches!(mods.last(), Some(&(_, d)) if d == brace) {
                    mods.pop();
                }
                while matches!(impls.last(), Some(&(_, d)) if d == brace) {
                    impls.pop();
                }
            }
            Tok::Punct(';') => {
                pending_fn = None;
                pending_mod = None;
                pending_impl = None;
            }
            Tok::Ident(w) if w == "fn" => {
                if let Some(name) = ident_at(i + 1) {
                    pending_fn = Some((name.to_string(), toks[i + 1].line));
                }
            }
            Tok::Ident(w) if w == "mod" => {
                if let Some(name) = ident_at(i + 1) {
                    pending_mod = Some(name.to_string());
                }
            }
            Tok::Ident(w) if (w == "impl" || w == "trait") && pending_fn.is_none() => {
                pending_impl = impl_target(toks, i + 1);
            }
            Tok::Ident(w) if pending_fn.is_none() && !open.is_empty() && !is_keyword(w) => {
                let (fi, _) = *open.last().unwrap();
                if punct_at(i + 1, '!') {
                    if PANIC_MACROS.contains(&w.as_str()) {
                        fns[fi].panics.push((format!("{w}!"), line));
                    }
                } else if punct_at(i + 1, '(') {
                    let zero_arg = punct_at(i + 2, ')');
                    let is_method = i > 0 && punct_at(i - 1, '.');
                    if is_method && PANIC_METHODS.contains(&w.as_str()) {
                        fns[fi].panics.push((w.clone(), line));
                    } else {
                        let recv = recv_at(i);
                        if BLOCKING.contains(&w.as_str()) && (w != "join" || zero_arg) {
                            fns[fi].blocking.push((w.clone(), line));
                        }
                        if is_method && zero_arg && ACQUIRE.contains(&w.as_str()) && in_lock_scope {
                            if let Recv::Method(Some(r)) = &recv {
                                if lock_names.contains(r) {
                                    fns[fi].locks.push((r.clone(), line));
                                }
                            }
                        }
                        let is_spawn = w == "spawn";
                        if is_spawn && matches!(&recv, Recv::Path(q) if q == "thread") {
                            fns[fi].panics.push(("thread::spawn".into(), line));
                        }
                        fns[fi].calls.push(CallSite {
                            name: w.clone(),
                            line,
                            recv,
                        });
                        if is_spawn {
                            // A closure handed to spawn runs on another
                            // thread: skip its body, keeping only its
                            // call sites aside.
                            let end = skip_parens(toks, i + 1);
                            for j in (i + 2..end).filter(|&j| punct_at(j + 1, '(')) {
                                if let Some(w) = ident_at(j).filter(|w| !is_keyword(w)) {
                                    let (name, line, recv) =
                                        (w.to_string(), toks[j].line, recv_at(j));
                                    fns[fi].spawned.push(CallSite { name, line, recv });
                                }
                            }
                            i = end;
                            continue;
                        }
                    }
                }
            }
            Tok::Punct('[') if !open.is_empty() && pending_fn.is_none() => {
                let (fi, _) = *open.last().unwrap();
                let indexable = match i.checked_sub(1).map(|p| &toks[p].kind) {
                    Some(Tok::Ident(w)) => !is_keyword(w),
                    Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => true,
                    _ => false,
                };
                if indexable {
                    if let Some(end) = matching_bracket(toks, i) {
                        if end == i + 2 {
                            let inner_ok = match &toks[i + 1].kind {
                                Tok::Lit => true,
                                Tok::Ident(w) => !is_keyword(w),
                                _ => false,
                            };
                            if inner_ok {
                                fns[fi].panics.push(("slice-index".into(), line));
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        // Receiver-type hints are collected everywhere (struct fields,
        // params, lets), not just inside fn bodies.
        if let Tok::Ident(w) = &toks[i].kind {
            if w == "let" {
                collect_let_hint(toks, i, hints);
            } else {
                let plain_colon = punct_at(i + 1, ':')
                    && !punct_at(i + 2, ':')
                    && !(i > 0 && punct_at(i - 1, ':'));
                if !is_keyword(w) && plain_colon {
                    collect_type_hint(toks, i + 2, w, hints);
                }
            }
        }
        i += 1;
    }
}

/// Skip a balanced `( … )` starting at the token index of the opening
/// paren (or of the callee name — the first `(` at or after `from` is
/// matched). Returns the index of the closing paren.
fn skip_parens(toks: &[crate::lexer::Token], from: usize) -> usize {
    let mut j = from;
    while j < toks.len() && !matches!(toks[j].kind, Tok::Punct('(')) {
        j += 1;
    }
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].kind {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Index of the `]` matching the `[` at `open`, if balanced.
fn matching_bracket(toks: &[crate::lexer::Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// The type an `impl`/`trait` header hangs methods off: the last
/// top-level ident before the body `{`, preferring the segment after
/// `for` and ignoring generic args and `where` clauses.
fn impl_target(toks: &[crate::lexer::Token], from: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut candidate: Option<String> = None;
    let mut j = from;
    while j < toks.len() {
        match &toks[j].kind {
            Tok::Punct('{') | Tok::Punct(';') => break,
            Tok::Punct('<') => angle += 1,
            // `->` in a bound like `Fn() -> T` is not a closer.
            Tok::Punct('>') if !(j > 0 && matches!(toks[j - 1].kind, Tok::Punct('-'))) => {
                angle -= 1;
            }
            Tok::Ident(w) if angle <= 0 => {
                if w == "for" {
                    candidate = None;
                } else if w == "where" {
                    break;
                } else if !is_keyword(w) {
                    candidate = Some(w.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    candidate
}

/// `name : Type` — record every uppercase-initial ident of the type
/// expression as a hint for `name`, e.g. `engine: Arc<Engine>` →
/// `{Arc, Engine}` (method resolution then looks through the wrapper,
/// which matches `Deref` behavior well enough for a linter).
fn collect_type_hint(
    toks: &[crate::lexer::Token],
    from: usize,
    name: &str,
    hints: &mut BTreeMap<String, BTreeSet<String>>,
) {
    let mut depth = 0i32;
    for (steps, t) in toks.iter().skip(from).enumerate() {
        if steps > 24 {
            break;
        }
        match &t.kind {
            Tok::Punct('<') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct('>') | Tok::Punct(')') | Tok::Punct(']') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            Tok::Punct(',')
            | Tok::Punct(';')
            | Tok::Punct('{')
            | Tok::Punct('}')
            | Tok::Punct('=')
                if depth == 0 =>
            {
                break;
            }
            Tok::Ident(w) if w.chars().next().is_some_and(|c| c.is_uppercase()) => {
                hints.entry(name.to_string()).or_default().insert(w.clone());
            }
            _ => {}
        }
    }
}

/// `let [mut] name = …;` — uppercase idents of the initializer hint
/// the binding's type (`let engine = Arc::new(Engine::new(..))` →
/// `{Arc, Engine}`).
fn collect_let_hint(
    toks: &[crate::lexer::Token],
    let_idx: usize,
    hints: &mut BTreeMap<String, BTreeSet<String>>,
) {
    let mut j = let_idx + 1;
    if matches!(toks.get(j).map(|t| &t.kind), Some(Tok::Ident(w)) if w == "mut") {
        j += 1;
    }
    let name = match toks.get(j).map(|t| &t.kind) {
        Some(Tok::Ident(n)) if !is_keyword(n) => n.clone(),
        _ => return,
    };
    // Typed lets (`let x: T = ..`) are covered by collect_type_hint.
    if !matches!(toks.get(j + 1).map(|t| &t.kind), Some(Tok::Punct('='))) {
        return;
    }
    let mut depth = 0i32;
    for (steps, t) in toks.iter().skip(j + 2).enumerate() {
        if steps > 32 {
            break;
        }
        match &t.kind {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
            Tok::Punct(';') if depth <= 0 => break,
            Tok::Ident(w) if w.chars().next().is_some_and(|c| c.is_uppercase()) => {
                hints.entry(name.clone()).or_default().insert(w.clone());
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::FileCtx;
    use std::path::PathBuf;

    fn ctx(rel: &str, src: &str) -> FileCtx {
        FileCtx {
            path: PathBuf::from(rel),
            rel: rel.to_string(),
            lexed: lexer::lex(src),
            allows: Vec::new(),
            tests: Vec::new(),
        }
    }

    fn build_one(src: &str) -> CallGraph {
        let f = ctx("a.rs", src);
        build(&[&f], &BTreeSet::new(), &BTreeSet::new())
    }

    fn fn_idx(g: &CallGraph, name: &str) -> usize {
        g.fns
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("fn `{name}` not indexed"))
    }

    #[test]
    fn free_fn_calls_resolve_within_the_file() {
        let g = build_one("fn a() { b(); }\nfn b() {}\n");
        let (a, b) = (fn_idx(&g, "a"), fn_idx(&g, "b"));
        assert_eq!(g.edges[a], vec![(b, 1)]);
        assert_eq!(g.stats.resolved_unique, 1);
    }

    #[test]
    fn method_calls_resolve_via_receiver_type_hints() {
        let src = "struct Pool;\n\
                   impl Pool { fn drain(&self) {} }\n\
                   fn run(pool: &Pool) { pool.drain(); }\n";
        let g = build_one(src);
        let (run_i, drain) = (fn_idx(&g, "run"), fn_idx(&g, "drain"));
        assert_eq!(g.edges[run_i].len(), 1);
        assert_eq!(g.edges[run_i][0].0, drain);
    }

    #[test]
    fn self_methods_resolve_to_the_impl_type() {
        let src = "struct A;\nstruct B;\n\
                   impl A { fn go(&self) { self.step(); }\n fn step(&self) {} }\n\
                   impl B { fn step(&self) {} }\n";
        let g = build_one(src);
        let go = fn_idx(&g, "go");
        let a_step = g
            .fns
            .iter()
            .position(|d| d.name == "step" && d.self_type.as_deref() == Some("A"))
            .unwrap();
        assert_eq!(g.edges[go], vec![(a_step, 3)]);
    }

    #[test]
    fn untyped_ambiguous_methods_are_counted_not_traversed() {
        let src = "struct A;\nstruct B;\n\
                   impl A { fn go(&self) {} }\n\
                   impl B { fn go(&self) {} }\n\
                   fn run() { let x = make(); x.go(); }\n";
        let g = build_one(src);
        let run_i = fn_idx(&g, "run");
        assert!(
            g.edges[run_i].is_empty(),
            "an ambiguous call must not grow edges"
        );
        assert_eq!(g.stats.ambiguous, 1);
    }

    #[test]
    fn typed_receiver_with_no_candidate_stays_unresolved() {
        // `cv: Condvar` names a type with no workspace `wait` — the
        // call is std, not license to bind a same-named workspace fn.
        let src = "struct Poller;\n\
                   impl Poller { fn wait(&self) {} }\n\
                   fn park(cv: &Condvar) { cv.wait(); }\n";
        let g = build_one(src);
        let park = fn_idx(&g, "park");
        assert!(g.edges[park].is_empty());
    }

    #[test]
    fn thread_spawn_does_not_bind_to_a_workspace_spawn() {
        let src = "fn spawn() {}\n\
                   fn run() { std::thread::spawn(|| helper()); }\n\
                   fn helper() {}\n";
        let g = build_one(src);
        let run_i = fn_idx(&g, "run");
        // Neither the spawn call nor the closure body (other thread)
        // may taint `run`.
        assert!(g.edges[run_i].is_empty(), "{:?}", g.edges[run_i]);
    }

    #[test]
    fn guard_chained_methods_do_not_resolve() {
        let src = "struct T;\n\
                   impl T { fn retain(&self) { self.entries.lock().retain(); } }\n";
        let g = build_one(src);
        let r = fn_idx(&g, "retain");
        assert!(
            g.edges[r].iter().all(|&(c, _)| c != r),
            "a collection method on a fresh guard must not self-loop"
        );
    }

    #[test]
    fn may_block_summaries_propagate_with_witness_chains() {
        let src = "fn a() { b(); }\n\
                   fn b() { c(); }\n\
                   fn c(s: &mut S) { s.flush(); }\n";
        let g = build_one(src);
        let a = fn_idx(&g, "a");
        assert!(g.may_block(a));
        assert_eq!(g.block_chain(a), vec!["a", "b", "c", "flush"]);
    }
}
