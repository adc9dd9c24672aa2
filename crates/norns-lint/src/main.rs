//! `cargo run -p norns-lint -- --check`: lint the workspace.
//!
//! Flags:
//! * `--check`        exit non-zero if any unsuppressed finding exists
//! * `--root <dir>`   workspace root (default: walk up from cwd to the
//!   first `Cargo.toml` containing `[workspace]`)
//! * `--json <file>`  where to write the machine-readable inventory
//!   (default `<root>/results/lint.json`)
//! * `--quiet`        suppress the text report on success

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut check = false;
    let mut quiet = false;
    let mut root: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--quiet" => quiet = true,
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json_path = args.next().map(PathBuf::from),
            other => {
                eprintln!("norns-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("norns-lint: no workspace root found (pass --root)");
        return ExitCode::from(2);
    };
    let root = root.canonicalize().unwrap_or(root);

    let cfg = match norns_lint::Config::workspace(&root) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("norns-lint: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let report = match norns_lint::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("norns-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let json_path = json_path.unwrap_or_else(|| root.join("results").join("lint.json"));
    if let Some(parent) = json_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&json_path, report.to_json()) {
        eprintln!("norns-lint: writing {}: {e}", json_path.display());
        return ExitCode::from(2);
    }

    let failures = report.unsuppressed_count();
    if !quiet || failures > 0 {
        print!("{}", report.render_text());
        println!("inventory: {}", display_rel(&json_path, &root));
    }
    if failures > 0 {
        println!("norns-lint: {failures} finding(s)");
        if check {
            return ExitCode::from(1);
        }
    } else if !quiet {
        println!("norns-lint: clean");
    }
    ExitCode::SUCCESS
}

fn display_rel(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}
