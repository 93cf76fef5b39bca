//! `stpm-lint` — the workspace's hot-path allocation check.
//!
//! Usage:
//!
//! ```text
//! cargo run -p stpm-lint    # lint the workspace
//! ```
//!
//! Exits 0 when the workspace is clean, 1 with `file:line:col` diagnostics
//! otherwise, and 2 on usage/environment errors.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!(
                    "stpm-lint: hot-path allocation check\n\n\
                     USAGE:\n  stpm-lint\n\n\
                     Checks every crates/**/src/*.rs file against the hot-path-alloc rule:\n\
                     no allocation inside a function marked `// lint: hot-path`."
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

    let diags = stpm_lint::lint_workspace(&root);
    if diags.is_empty() {
        println!(
            "stpm-lint: {} source files clean (hot-path-alloc)",
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
