#!/usr/bin/env bash
# Static-analysis gate: the hot-path allocation lint (stpm-lint) and its
# fixture suite, the golden-file byte checks of every wire format, the
# strict-invariants test run, and the core unit tests, the key-word
# mutation test and the tracker-rebuild property test in a plain release
# build. Panic-free decoding and deterministic output are clippy lints
# (CI's lint job); fsync ordering is checked by scripts/ci_chaos.sh.
#
# CI's analysis job executes this exact script, so a local
# `scripts/ci_static_analysis.sh` reproduces the CI gate bit for bit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== hot-path allocation lint (stpm-lint) =="
cargo run --release -p stpm-lint

echo "== lint fixture suite =="
cargo test --release -q -p stpm-lint

echo "== wire formats match their committed golden files =="
# Golden bytes are the only format freeze: a changed tag, magic, version or
# field encoding of the miner snapshot, the pipeline snapshot, the WAL or
# a protocol frame fails one of these byte-for-byte comparisons.
cargo test --release -q --test snapshot_format -- --exact \
  the_encoder_reproduces_the_golden_snapshot \
  the_encoder_reproduces_the_golden_pipeline_snapshot \
  the_encoder_reproduces_the_golden_wal
cargo test --release -q -p stpm-service --test protocol_frames -- --exact \
  every_frame_matches_its_golden_bytes

echo "== strict-invariants test run (validators on in release) =="
cargo test --release -q --features strict-invariants

echo "== plain release core unit tests (validators folded away) =="
cargo test --release -q -p stpm-core --lib
# Release builds fold the debug validators away, so a decode check or a
# tracker rebuild that silently accepts a wrong state would hide here: the
# word-level key mutations of the golden snapshot, and the run-skipping
# rebuild against its push-replay reference.
cargo test --release -q --test snapshot_format -- --exact \
  mutated_pattern_key_words_are_typed_errors_or_canonical_states
cargo test --release -q --test property_based -- --exact \
  run_skipping_rebuild_equals_push_replay

echo "static analysis: all gates passed"
