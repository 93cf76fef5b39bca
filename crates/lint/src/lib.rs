//! # stpm-lint
//!
//! Project-invariant static analysis for the FreqSTPfTS workspace.
//!
//! Four load-bearing contracts hold this codebase together: parallel
//! mining must stay byte-identical to sequential, the intersection/verdict/
//! season kernels must stay allocation-free on the hot path, every
//! snapshot/WAL decode path must surface corruption as a typed error
//! instead of panicking, and the persistence layer must sync writes before
//! publishing or acknowledging them. `stpm-lint` machine-checks those
//! contracts as named, suppressible rules over every `crates/**/src/*.rs`
//! file (`unsafe` code needs no rule: the workspace lints set
//! `unsafe_code = "forbid"`, so rustc rejects it):
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `hot-path-alloc` | no allocating constructs in `// lint: hot-path` functions |
//! | `no-panic-decode` | no panics / raw indexing in snapshot/WAL decode functions |
//! | `determinism` | no hash-order iteration in output modules, no wall clock in wire code |
//! | `durable-io` | fsync before rename/truncate/acknowledgment in `// lint: durable` functions |
//!
//! The workspace is dependency-free, so the analysis is built on a small
//! hand-rolled token scanner ([`lexer`]) rather than `syn`. See [`rules`]
//! for the engine and the suppression policy.
//!
//! Run it with `cargo run -p stpm-lint` from anywhere in the workspace;
//! it exits non-zero with `file:line:col` diagnostics on any violation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

pub use rules::{lint_source, Diagnostic};

use std::path::{Path, PathBuf};

/// Finds the workspace root by walking up from `start` until a directory
/// containing a `Cargo.toml` with a `[workspace]` table is found.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Collects every Rust source file the lint pass covers: `crates/*/src/**`
/// plus the facade `src/**`. Integration-test directories are skipped —
/// test code panics and indexes on purpose.
#[must_use]
pub fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut crate_dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            collect_rs_files(&dir.join("src"), &mut files);
        }
    }
    collect_rs_files(&root.join("src"), &mut files);
    files.sort();
    files
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints the whole workspace rooted at `root`: every collected source
/// file. I/O failures are reported as diagnostics so a broken checkout
/// cannot silently pass.
#[must_use]
pub fn lint_workspace(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for path in collect_sources(root) {
        let display = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .display()
            .to_string();
        match std::fs::read_to_string(&path) {
            Ok(source) => diags.extend(lint_source(&display, &source)),
            Err(e) => diags.push(Diagnostic {
                file: display,
                line: 1,
                col: 1,
                rule: "io",
                message: format!("could not read source file: {e}"),
            }),
        }
    }
    diags
}
