//! Fixture tests: each fixture under `tests/fixtures/` is linted under a
//! synthetic workspace path that puts it in scope of one rule, and the test
//! asserts the exact pass/fail outcome — including suppression handling
//! and unused-suppression reporting.

use stpm_lint::lint_source;

fn rules_hit(file: &str, source: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_source(file, source)
        .into_iter()
        .map(|d| d.rule)
        .collect();
    rules.dedup();
    rules
}

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

#[test]
fn panicking_decode_path_is_flagged() {
    let source = include_str!("fixtures/fixture_panic_decode_fail.rs");
    let rules = rules_hit("crates/core/src/snapshot.rs", source);
    assert_eq!(rules, ["no-panic-decode"]);
    let diags = lint_source("crates/core/src/snapshot.rs", source);
    // Raw indexing (buf[0], buf[1..5]), unwrap and assert! each count.
    assert!(diags.len() >= 3, "{diags:?}");
}

#[test]
fn typed_error_decode_path_passes() {
    let source = include_str!("fixtures/fixture_panic_decode_pass.rs");
    let diags = lint_source("crates/core/src/snapshot.rs", source);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn decode_rule_only_applies_to_wire_format_modules() {
    // The same panicking source is fine in a module the rule does not
    // scope to (test helpers, miner internals with their own contracts).
    let source = include_str!("fixtures/fixture_panic_decode_fail.rs");
    let diags = lint_source("crates/core/src/config.rs", source);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn hash_map_iteration_in_output_module_is_flagged() {
    let source = include_str!("fixtures/fixture_determinism_fail.rs");
    let rules = rules_hit("crates/core/src/report.rs", source);
    assert_eq!(rules, ["determinism"]);
}

#[test]
fn hash_map_iteration_outside_output_modules_passes() {
    let source = include_str!("fixtures/fixture_determinism_fail.rs");
    let diags = lint_source("crates/core/src/config.rs", source);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unsynced_publish_truncate_and_ack_are_flagged() {
    let source = include_str!("fixtures/fixture_durable_fail.rs");
    let rules = rules_hit("src/lib.rs", source);
    assert_eq!(rules, ["durable-io"]);
    let diags = lint_source("src/lib.rs", source);
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(diags[0].message.contains("rename"), "{}", diags[0].message);
    assert!(diags[1].message.contains("set_len"), "{}", diags[1].message);
    assert!(
        diags[2].message.contains("checkpoint"),
        "{}",
        diags[2].message
    );
}

#[test]
fn synced_publish_with_justified_suppression_passes() {
    let source = include_str!("fixtures/fixture_durable_pass.rs");
    let diags = lint_source("src/lib.rs", source);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unsynced_client_acknowledgment_is_flagged() {
    // Service tier: `.send`/`.respond` is the client-visible ack — firing
    // it while a WAL write is lexically unsynced is the exact bug class
    // the chaos tests hunt (acked-append loss on crash).
    let source = include_str!("fixtures/fixture_durable_service_fail.rs");
    let rules = rules_hit("crates/service/src/tenant.rs", source);
    assert_eq!(rules, ["durable-io"]);
    let diags = lint_source("crates/service/src/tenant.rs", source);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags[0].message.contains("send"), "{}", diags[0].message);
    assert!(diags[1].message.contains("respond"), "{}", diags[1].message);
}

#[test]
fn synced_or_delegated_client_acknowledgment_passes() {
    let source = include_str!("fixtures/fixture_durable_service_pass.rs");
    let diags = lint_source("crates/service/src/service.rs", source);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn durable_marker_outside_registered_files_is_rejected() {
    // Same closed-list policy as hot-path markers: durability contracts are
    // declared per-module, not sprinkled ad hoc.
    let source = include_str!("fixtures/fixture_durable_pass.rs");
    let diags = lint_source("crates/core/src/config.rs", source);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "durable-io" && d.message.contains("DURABLE_FILES")),
        "{diags:?}"
    );
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
