//! Fixture tests: each fixture under `tests/fixtures/` is linted under a
//! synthetic workspace path that puts it in (or out of) scope of the
//! `hot-path-alloc` rule, and the test asserts the exact pass/fail outcome
//! — including suppression handling and unused-suppression reporting.

use stpm_lint::lint_source;

#[test]
fn hot_path_allocation_is_flagged() {
    let source = include_str!("fixtures/fixture_hot_alloc_fail.rs");
    let diags = lint_source("crates/core/src/miner.rs", source);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "hot-path-alloc");
    assert_eq!(
        diags[0].line, 5,
        "diagnostic should anchor the Vec::new line"
    );
    assert!(
        diags[0].message.contains("Vec::new"),
        "{}",
        diags[0].message
    );
}

#[test]
fn clean_hot_path_with_justified_suppression_passes() {
    let source = include_str!("fixtures/fixture_hot_alloc_pass.rs");
    let diags = lint_source("crates/core/src/support.rs", source);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn hot_path_marker_outside_registered_files_is_rejected() {
    // The rule's scope is a closed list: marking a function hot in a module
    // the rule does not cover is a configuration error, not a no-op.
    let source = include_str!("fixtures/fixture_hot_alloc_pass.rs");
    let diags = lint_source("crates/core/src/config.rs", source);
    assert!(
        diags.iter().any(|d| d.message.contains("hot-path")),
        "{diags:?}"
    );
}

#[test]
fn unused_suppression_is_flagged() {
    let source = include_str!("fixtures/fixture_unused_suppression.rs");
    let diags = lint_source("crates/core/src/support.rs", source);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "unused-suppression");
}

#[test]
fn suppression_without_justification_is_flagged() {
    let source = "pub fn f() {\n    // lint:allow(hot-path-alloc)\n    let x = 1;\n}\n";
    let diags = lint_source("crates/core/src/support.rs", source);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "suppression-syntax");
}

// ---------------------------------------------------------------------------
// The committed workspace itself: clean lint.
// ---------------------------------------------------------------------------

#[test]
fn committed_workspace_is_clean() {
    let root = stpm_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("fixture test runs inside the workspace");
    let diags = stpm_lint::lint_workspace(&root);
    assert!(
        diags.is_empty(),
        "committed sources must lint clean:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
