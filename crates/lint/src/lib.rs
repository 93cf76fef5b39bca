//! # stpm-lint
//!
//! The hot-path allocation check for the FreqSTPfTS workspace.
//!
//! The intersection/verdict/season kernels must stay allocation-free on
//! the hot path. No compiler lint knows which functions are hot, so
//! `stpm-lint` checks one named, suppressible rule over every
//! `crates/**/src/*.rs` file and the facade's `src/`:
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `hot-path-alloc` | no allocating constructs in `// lint: hot-path` functions |
//!
//! The workspace's other contracts need no lexer: clippy lints enforce
//! panic-free decoding and deterministic output (see the README
//! "Correctness tooling" section), the chaos tests enforce
//! fsync-before-publish, and `unsafe_code = "forbid"` rejects `unsafe`.
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
/// plus the facade `src/**`. Integration-test directories hold no hot
/// paths and are skipped.
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
