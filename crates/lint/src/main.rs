//! `stpm-lint` — project-invariant static analysis for the workspace.
//!
//! Usage:
//!
//! ```text
//! cargo run -p stpm-lint                       # lint the workspace
//! cargo run -p stpm-lint -- --write-format-lock  # refresh snapshot_format.lock
//! ```
//!
//! Exits 0 when the workspace is clean, 1 with `file:line:col` diagnostics
//! otherwise, and 2 on usage/environment errors.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut write_lock = false;
    for arg in &args {
        match arg.as_str() {
            "--write-format-lock" => write_lock = true,
            "--help" | "-h" => {
                println!(
                    "stpm-lint: project-invariant static analysis\n\n\
                     USAGE:\n  stpm-lint [--write-format-lock]\n\n\
                     Checks every crates/**/src/*.rs file against the project rules\n\
                     (hot-path-alloc, no-panic-decode, determinism, wire-format-freeze,\n\
                     durable-io) and the snapshot wire format against\n\
                     snapshot_format.lock."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("stpm-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("stpm-lint: cannot determine working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = stpm_lint::find_workspace_root(&cwd) else {
        eprintln!("stpm-lint: no workspace root found above {}", cwd.display());
        return ExitCode::from(2);
    };

    if write_lock {
        return write_format_lock(&root);
    }

    let diags = stpm_lint::lint_workspace(&root);
    if diags.is_empty() {
        println!(
            "stpm-lint: {} source files clean (hot-path-alloc, no-panic-decode, \
             determinism, wire-format-freeze, durable-io)",
            stpm_lint::collect_sources(&root).len()
        );
        ExitCode::SUCCESS
    } else {
        for d in &diags {
            eprintln!("{d}");
        }
        eprintln!("stpm-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}

fn write_format_lock(root: &Path) -> ExitCode {
    let snapshot_path = root.join("crates/core/src/snapshot.rs");
    let source = match std::fs::read_to_string(&snapshot_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stpm-lint: cannot read {}: {e}", snapshot_path.display());
            return ExitCode::from(2);
        }
    };
    let constants = stpm_lint::extract_wire_constants(&source);
    let lock = stpm_lint::render_lock(&constants);
    let lock_path = root.join(stpm_lint::FORMAT_LOCK_FILE);
    if let Err(e) = std::fs::write(&lock_path, lock) {
        eprintln!("stpm-lint: cannot write {}: {e}", lock_path.display());
        return ExitCode::from(2);
    }
    println!(
        "stpm-lint: wrote {} ({} constants)",
        lock_path.display(),
        constants.len()
    );
    ExitCode::SUCCESS
}
