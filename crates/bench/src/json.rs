//! Machine-readable benchmark output: the `BENCH_*.json` files.
//!
//! The workspace builds offline (no serde), so this module carries a
//! deliberately small JSON value type, parser, and serializer — just
//! enough for the bench documents the suite emits and CI validates.
//!
//! Every `BENCH_<name>.json` document has the same shape:
//!
//! ```json
//! {
//!   "bench": "remote",
//!   "schema": 2,
//!   "quick": false,
//!   "git_rev": "09414a6",
//!   "nproc": 2,
//!   "kernel": "6.18.44",
//!   "scratch_fs": "ext4",
//!   "rows": [ {"scenario": "...", "n": 5, "secs": 0.16, "secs_min": 0.15, "secs_max": 0.21, ...}, ... ],
//!   "notes": ["..."]
//! }
//! ```
//!
//! `rows` is a flat list of measurement objects, each naming its
//! `scenario`. A timed row states a distribution: `n` samples, their
//! median under the bare key (`secs`, `ack_usec`), the fastest and
//! slowest under `_min` / `_max`, and rates derived from the median.
//! Every document has exactly one writer (`bench_suite`), and a run
//! writes the whole document — rows, `quick` flag, notes and the four
//! facts that date it (`git_rev` of the source it was built from,
//! `nproc`, `kernel`, the `scratch_fs` type under the temp root) all
//! come from that run.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema version stamped into every document; bump on breaking
/// changes to the shape above.
pub const SCHEMA_VERSION: f64 = 2.0;

/// A JSON value. Numbers are `f64` (every value the suite emits fits).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered (the serializer must be deterministic so
    /// `BENCH_*.json` diffs stay readable).
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(v: impl Into<f64>) -> Json {
        Json::Num(v.into())
    }

    /// Object field lookup (`None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad_in);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }
}

fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if v.fract() == 0.0 && v.abs() < 9e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?} at offset {start}"))
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unchanged).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xc0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

/// One `BENCH_<name>.json` document under construction.
pub struct BenchDoc {
    pub bench: String,
    pub quick: bool,
    /// `git_rev`, `nproc`, `kernel`, `scratch_fs`: where and from what
    /// the rows were taken, so a stale file shows.
    pub environment: Vec<(String, Json)>,
    pub rows: Vec<Json>,
    pub notes: Vec<String>,
}

impl BenchDoc {
    pub fn new(bench: &str) -> BenchDoc {
        BenchDoc {
            bench: bench.to_string(),
            quick: crate::quick_mode(),
            environment: environment(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append one measurement row: `scenario` first, the remaining
    /// fields are scenario-specific.
    pub fn row(&mut self, fields: impl IntoIterator<Item = (&'static str, Json)>) {
        let obj = fields.into_iter().map(|(k, v)| (k.to_string(), v));
        self.rows.push(Json::Obj(obj.collect()));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("bench".into(), Json::str(&self.bench)),
            ("schema".into(), Json::Num(SCHEMA_VERSION)),
            ("quick".into(), Json::Bool(self.quick)),
        ];
        fields.extend(self.environment.iter().cloned());
        fields.push(("rows".into(), Json::Arr(self.rows.clone())));
        let notes = self.notes.iter().map(Json::str).collect();
        fields.push(("notes".into(), Json::Arr(notes)));
        Json::Obj(fields)
    }

    /// Path of this document: `BENCH_<name>.json` in the working
    /// directory — the repo root for the committed files.
    pub fn path(bench: &str) -> PathBuf {
        PathBuf::from(format!("BENCH_{bench}.json"))
    }

    /// Write the document, replacing the file wholesale.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = Self::path(&self.bench);
        std::fs::write(&path, self.to_json().to_pretty())?;
        Ok(path)
    }

    /// Print the rows as one aligned table per scenario (columns are
    /// the first row's fields), then the notes.
    pub fn print(&self) {
        println!("================================================================");
        println!("BENCH_{}.json", self.bench);
        println!("================================================================");
        fn scenario_of(row: &Json) -> Option<&str> {
            row.get("scenario").and_then(Json::as_str)
        }
        for (key, value) in &self.environment {
            println!("  {key}: {}", cell(Some(value)));
        }
        let mut scenarios: Vec<Option<&str>> = Vec::new();
        for row in &self.rows {
            if !scenarios.contains(&scenario_of(row)) {
                scenarios.push(scenario_of(row));
            }
        }
        for scenario in scenarios {
            let group = self.rows.iter().filter(|r| scenario_of(r) == scenario);
            let Some(Json::Obj(fields)) = group.clone().next() else {
                continue;
            };
            let columns: Vec<&str> = fields
                .iter()
                .map(|(k, _)| k.as_str())
                .filter(|k| *k != "scenario")
                .collect();
            let mut table = vec![columns.iter().map(|c| c.to_string()).collect::<Vec<_>>()];
            table.extend(group.map(|row| columns.iter().map(|c| cell(row.get(c))).collect()));
            println!("{}:", scenario.unwrap_or("(no scenario)"));
            crate::print_aligned(&table);
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}

/// One table cell: large numbers whole, small ones to three places.
fn cell(value: Option<&Json>) -> String {
    match value {
        Some(Json::Num(v)) if v.fract() == 0.0 || v.abs() >= 1000.0 => format!("{v:.0}"),
        Some(Json::Num(v)) => format!("{v:.3}"),
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Bool(b)) => b.to_string(),
        _ => "-".to_string(),
    }
}

/// The four facts that date a document (module docs). Each falls back
/// to `"unknown"` (0 for `nproc`) rather than failing the run.
fn environment() -> Vec<(String, Json)> {
    let source = env!("CARGO_MANIFEST_DIR");
    let git_rev = std::process::Command::new("git")
        .args(["-C", source, "rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease");
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let scratch_fs = fs_type_of(&mounts, &std::env::temp_dir());
    let text = |value: Option<String>| Json::Str(value.unwrap_or_else(|| "unknown".into()));
    vec![
        ("git_rev".into(), text(git_rev)),
        ("nproc".into(), Json::num(nproc as f64)),
        ("kernel".into(), text(kernel.ok().map(|k| k.trim().into()))),
        ("scratch_fs".into(), text(scratch_fs)),
    ]
}

/// Filesystem type of the longest `/proc/mounts` mount point above `dir`.
fn fs_type_of(mounts: &str, dir: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (_device, at, kind) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(at).then_some((at.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind.to_string())
}

/// Validate the canonical document shape: `bench` (string), `schema`
/// (number, current version), `quick` (bool), `git_rev` / `kernel` /
/// `scratch_fs` (strings), `nproc` (number), `rows` (array of objects
/// each carrying a string `scenario`), `notes` (array of strings).
pub fn validate(doc: &Json) -> Result<(), String> {
    let schema = doc.get("schema").and_then(Json::as_f64);
    if schema == Some(1.0) {
        return Err("schema 1 (best-of-N rows, undated): rerun bench_suite to rewrite it".into());
    }
    if schema != Some(SCHEMA_VERSION) {
        return Err(format!("schema {schema:?} != supported {SCHEMA_VERSION}"));
    }
    let need = |key: &str, kind: &str, is: fn(&Json) -> bool| {
        let missing = format!("missing {kind} field '{key}'");
        doc.get(key).is_some_and(is).then_some(()).ok_or(missing)
    };
    for key in ["bench", "git_rev", "kernel", "scratch_fs"] {
        need(key, "string", |v| v.as_str().is_some())?;
    }
    need("nproc", "numeric", |v| v.as_f64().is_some())?;
    need("quick", "bool", |v| v.as_bool().is_some())?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing array field 'rows'")?;
    for (i, row) in rows.iter().enumerate() {
        if !matches!(row, Json::Obj(_)) {
            return Err(format!("rows[{i}] is not an object"));
        }
        row.get("scenario")
            .and_then(Json::as_str)
            .ok_or(format!("rows[{i}] missing string field 'scenario'"))?;
    }
    let notes = doc
        .get("notes")
        .and_then(Json::as_arr)
        .ok_or("missing array field 'notes'")?;
    if notes.iter().any(|n| n.as_str().is_none()) {
        return Err("notes must be strings".into());
    }
    Ok(())
}

/// Load and validate `BENCH_<name>.json`.
pub fn load(bench: &str) -> Result<Json, String> {
    let path = BenchDoc::path(bench);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    validate(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_2_document_round_trips() {
        let mut doc = BenchDoc::new("testbench");
        doc.quick = true;
        doc.row([
            ("scenario", Json::str("x")),
            ("n", Json::num(3u32)),
            ("gib_per_s", Json::num(1.25)),
            ("bytes", Json::num(1u32 << 30)),
            ("ok", Json::Bool(true)),
        ]);
        doc.note("a \"quoted\" note\nwith a newline");
        let text = doc.to_json().to_pretty();
        let parsed = Json::parse(&text).unwrap();
        validate(&parsed).unwrap();
        assert_eq!(parsed, doc.to_json());
        assert_eq!(parsed.get("schema").and_then(Json::as_f64), Some(2.0));
        for key in ["git_rev", "kernel", "scratch_fs"] {
            let fact = parsed.get(key).and_then(Json::as_str);
            assert!(fact.is_some_and(|f| !f.is_empty()), "{key}: {fact:?}");
        }
        assert!(parsed.get("nproc").and_then(Json::as_f64) >= Some(1.0));
        let rows = parsed.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("gib_per_s").and_then(Json::as_f64), Some(1.25));
        assert_eq!(
            parsed.get("notes").and_then(Json::as_arr).unwrap()[0].as_str(),
            Some("a \"quoted\" note\nwith a newline")
        );
    }

    #[test]
    fn integers_serialize_without_decimal_point() {
        let text = Json::num(67108864u32).to_pretty();
        assert_eq!(text.trim(), "67108864");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("nope").is_err());
    }

    const GOOD: &str = r#"{"bench":"x","schema":2,"quick":false,"git_rev":"abc1234","nproc":2,
        "kernel":"6.1","scratch_fs":"ext4","rows":[{"scenario":"s"}],"notes":["n"]}"#;

    #[test]
    fn validate_rejects_wrong_shapes() {
        assert_eq!(validate(&Json::parse(GOOD).unwrap()), Ok(()));
        let missing = Json::parse(r#"{"bench": "x"}"#).unwrap();
        assert!(validate(&missing).is_err());
        for (from, to) in [
            (r#"{"scenario":"s"}"#, r#"{"no_scenario":1}"#),
            (r#""git_rev":"abc1234","#, ""),
            (r#""nproc":2,"#, r#""nproc":"two","#),
            (r#"["n"]"#, "[1]"),
        ] {
            assert!(GOOD.contains(from));
            let bad = Json::parse(&GOOD.replace(from, to)).unwrap();
            assert!(validate(&bad).is_err(), "accepted without {from}");
        }
    }

    #[test]
    fn a_schema_1_document_is_refused_with_the_way_out() {
        let old = Json::parse(
            r#"{"bench":"x","schema":1,"quick":false,"rows":[{"scenario":"x"}],"notes":[]}"#,
        )
        .unwrap();
        let refusal = validate(&old).unwrap_err();
        assert!(refusal.contains("rerun bench_suite"), "{refusal}");
    }

    #[test]
    fn scratch_fs_is_the_longest_mount_above_the_directory() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /tmp tmpfs rw 0 0\nproc /proc proc rw 0 0\n";
        let fs_of = |dir: &str| fs_type_of(mounts, Path::new(dir));
        assert_eq!(fs_of("/tmp/norns-x").as_deref(), Some("tmpfs"));
        assert_eq!(fs_of("/tmpfiles").as_deref(), Some("ext4"));
        assert_eq!(fs_type_of("", Path::new("/tmp")), None);
    }
}
