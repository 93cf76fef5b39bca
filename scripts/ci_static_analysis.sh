#!/usr/bin/env bash
# Static-analysis gate: the project lint pass (stpm-lint), its fixture
# suite, the wire-format lock freshness check, the golden-snapshot byte
# check, the strict-invariants test run, and the core unit tests in a
# plain release build.
#
# CI's analysis job executes this exact script, so a local
# `scripts/ci_static_analysis.sh` reproduces the CI gate bit for bit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== project lint pass (stpm-lint) =="
cargo run --release -p stpm-lint

echo "== lint fixture suite =="
cargo test --release -q -p stpm-lint

echo "== wire-format lock is committed and fresh =="
test -f snapshot_format.lock
cp snapshot_format.lock /tmp/snapshot_format.lock.committed
cargo run --release -q -p stpm-lint -- --write-format-lock
if ! diff -u /tmp/snapshot_format.lock.committed snapshot_format.lock; then
  echo "snapshot_format.lock is stale — commit the regenerated lock" >&2
  exit 1
fi

echo "== snapshot payload bytes match the committed golden snapshot =="
# The lock freezes the tags; this freezes the payload encoding itself, so
# a changed field width without a SNAPSHOT_VERSION bump fails here.
cargo test --release -q --test snapshot_format -- --exact the_encoder_reproduces_the_golden_snapshot

echo "== strict-invariants test run (validators on in release) =="
cargo test --release -q --features strict-invariants

echo "== plain release core unit tests (validators folded away) =="
cargo test --release -q -p stpm-core --lib

echo "== miri (curated subset) =="
# Miri needs a nightly component; run it when available (CI's miri job
# installs it), skip gracefully where it is not (e.g. stable-only local
# toolchains) so the rest of the gate still applies everywhere.
if cargo miri --version > /dev/null 2>&1; then
  MIRIFLAGS="-Zmiri-disable-isolation" cargo miri test -p stpm-core --lib
else
  echo "cargo miri unavailable — skipping (CI runs it in the dedicated job)"
fi

echo "static analysis: all gates passed"
