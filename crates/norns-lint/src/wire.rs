//! Rule `wire-exhaustiveness`: every variant of every message enum in
//! the protocol crate must (a) appear in the wire corpus test, so a
//! new variant cannot ship untested, and (b) for the enums a daemon
//! dispatches on, appear in the dispatch site, so a new request cannot
//! ship unhandled behind a `_ =>` arm.
//!
//! "Appear" means the token sequence `Enum :: Variant` occurs in real
//! code (the lexer already excludes comments and strings), which is
//! exactly what a corpus entry or a match arm looks like. Findings
//! anchor at the variant's declaration line in the protocol file, so
//! an allow marker sits next to the variant it waives.

use crate::lexer::Tok;
use crate::{load_file, Finding, Report, Rule, WireSummary};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// Where the protocol enums live and where their coverage must show up.
pub struct WireConfig {
    /// File whose `pub enum`s define the wire messages.
    pub messages: PathBuf,
    /// The corpus test that must exercise every variant.
    pub corpus: PathBuf,
    /// Dispatch sites: for each target, every variant of the named
    /// enums must appear in the file.
    pub dispatch: Vec<DispatchTarget>,
}

pub struct DispatchTarget {
    pub enums: Vec<String>,
    pub file: PathBuf,
}

/// An enum parsed out of the protocol file: name, and each variant
/// with its declaration line.
struct EnumDef {
    name: String,
    variants: Vec<(String, u32)>,
}

pub fn check(root: &Path, cfg: &WireConfig, report: &mut Report) -> io::Result<()> {
    let messages = load_file(root, &cfg.messages, &mut report.findings)?;
    let enums = parse_enums(&messages.lexed.tokens);

    let corpus = load_file(root, &cfg.corpus, &mut report.findings)?;
    let corpus_refs = variant_refs(&corpus.lexed.tokens);

    let mut summary = WireSummary::default();
    for e in &enums {
        summary.enums.insert(
            e.name.clone(),
            e.variants.iter().map(|(v, _)| v.clone()).collect(),
        );
    }

    for e in &enums {
        for (variant, line) in &e.variants {
            if !corpus_refs.contains(&(e.name.clone(), variant.clone())) {
                summary
                    .corpus_missing
                    .push(format!("{}::{}", e.name, variant));
                let allow = messages.allow_for(Rule::WireExhaustiveness, *line);
                report.findings.push(Finding {
                    rule: Rule::WireExhaustiveness,
                    file: messages.rel.clone(),
                    line: *line,
                    message: format!(
                        "`{}::{}` never appears in the wire corpus ({}) — a \
                         protocol variant with no round-trip/truncation coverage",
                        e.name, variant, corpus.rel
                    ),
                    allowed: allow.map(str::to_string),
                    chain: Vec::new(),
                });
            }
        }
    }

    for target in &cfg.dispatch {
        let dispatch = load_file(root, &target.file, &mut report.findings)?;
        let refs = variant_refs(&dispatch.lexed.tokens);
        for e in enums.iter().filter(|e| target.enums.contains(&e.name)) {
            for (variant, line) in &e.variants {
                if !refs.contains(&(e.name.clone(), variant.clone())) {
                    summary
                        .dispatch_missing
                        .push(format!("{}::{} ({})", e.name, variant, dispatch.rel));
                    let allow = messages.allow_for(Rule::WireExhaustiveness, *line);
                    report.findings.push(Finding {
                        rule: Rule::WireExhaustiveness,
                        file: messages.rel.clone(),
                        line: *line,
                        message: format!(
                            "`{}::{}` is never named in the dispatch site {} — \
                             it would fall through a wildcard arm unhandled",
                            e.name, variant, dispatch.rel
                        ),
                        allowed: allow.map(str::to_string),
                        chain: Vec::new(),
                    });
                }
            }
        }
    }

    report.wire = Some(summary);
    Ok(())
}

/// All `Ident :: Ident` pairs in a token stream.
fn variant_refs(toks: &[crate::lexer::Token]) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    for i in 0..toks.len().saturating_sub(3) {
        if let (Tok::Ident(a), Tok::Punct(':'), Tok::Punct(':'), Tok::Ident(b)) = (
            &toks[i].kind,
            &toks[i + 1].kind,
            &toks[i + 2].kind,
            &toks[i + 3].kind,
        ) {
            out.insert((a.clone(), b.clone()));
        }
    }
    out
}

/// The enum an enum listing at `i` names: `enum Name`, or the
/// `wire_enum!` form for a type defined elsewhere, `impl Wire for
/// Name`; and the index after the name.
fn listing_at(toks: &[crate::lexer::Token], i: usize) -> Option<(String, usize)> {
    let word =
        |k: usize, w: &str| matches!(toks.get(k).map(|t| &t.kind), Some(Tok::Ident(x)) if x == w);
    let name_at = if word(i, "enum") {
        i + 1
    } else if word(i, "impl") && word(i + 1, "Wire") && word(i + 2, "for") {
        i + 3
    } else {
        return None;
    };
    match toks.get(name_at).map(|t| &t.kind) {
        Some(Tok::Ident(name)) => Some((name.clone(), name_at + 1)),
        _ => None,
    }
}

/// Parse enum listings ([`listing_at`]): name plus each top-level
/// variant ident with its line. Attributes on variants are skipped;
/// variant payloads (`{..}`, `(..)`, `= disc`) and a listing's
/// `code =>` are consumed without recursion errors.
fn parse_enums(toks: &[crate::lexer::Token]) -> Vec<EnumDef> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let Some((name, after)) = listing_at(toks, i) else {
            i += 1;
            continue;
        };
        // Find the opening brace (skipping generics, none expected).
        let mut j = after;
        while j < toks.len() && !matches!(toks[j].kind, Tok::Punct('{')) {
            j += 1;
        }
        let mut depth = 0i32;
        let mut variants = Vec::new();
        let mut expect_variant = true;
        while j < toks.len() {
            match &toks[j].kind {
                Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break; // enum body closed
                    }
                }
                Tok::Punct('#') if depth == 1 => {
                    // Variant attribute: skip the `[...]` group.
                    let mut k = j + 1;
                    let mut adepth = 0i32;
                    while k < toks.len() {
                        match toks[k].kind {
                            Tok::Punct('[') => adepth += 1,
                            Tok::Punct(']') => {
                                adepth -= 1;
                                if adepth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    j = k;
                }
                Tok::Punct(',') if depth == 1 => expect_variant = true,
                Tok::Ident(v) if depth == 1 && expect_variant => {
                    variants.push((v.clone(), toks[j].line));
                    expect_variant = false;
                }
                _ => {}
            }
            j += 1;
        }
        out.push(EnumDef { name, variants });
        i = j;
    }
    out
}
