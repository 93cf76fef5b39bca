#!/usr/bin/env bash
# Opt-in profile-guided optimization build of the experiment binaries.
#
# Not part of any CI gate: PGO roughly doubles build time and needs an
# llvm-profdata whose LLVM major version matches rustc's (the rustup
# `llvm-tools` component, or a matching system LLVM), so it is a tool
# for performance work, not a default. The flow:
#
#   1. build the bench binaries instrumented (-Cprofile-generate),
#   2. drive them through the quick scaling + streaming workloads (the
#      same inner loops the full experiments exercise),
#   3. merge the raw profiles with llvm-profdata,
#   4. rebuild optimized against the merged profile (-Cprofile-use).
#
# The optimized binaries land in target/release as usual; run the full
# experiments afterwards to measure the effect. Set STPM_PGO_DIR to move
# the profile directory (default: target/pgo-profiles).
set -euo pipefail
cd "$(dirname "$0")/.."

PROFDIR="${STPM_PGO_DIR:-target/pgo-profiles}"
rm -rf "$PROFDIR"
mkdir -p "$PROFDIR"
ABS_PROFDIR="$(cd "$PROFDIR" && pwd)"

# The .profraw format is tied to the LLVM major version rustc was built
# with, so prefer the sysroot's llvm-tools copy and reject a PATH copy
# whose major version differs (a Debian LLVM 14 llvm-profdata cannot
# read profiles emitted by an LLVM 22 rustc — fail here, not after the
# instrumented build and profiling runs).
echo "== locating llvm-profdata =="
RUSTC_LLVM_MAJOR="$(rustc -vV | sed -n 's/^LLVM version: \([0-9]*\).*/\1/p')"
sysroot="$(rustc --print sysroot)"
PROFDATA="$(find "$sysroot" -name llvm-profdata -type f 2>/dev/null | head -n 1 || true)"
if [ -z "$PROFDATA" ]; then
  PROFDATA="$(command -v llvm-profdata || true)"
fi
if [ -z "$PROFDATA" ]; then
  echo "error: llvm-profdata not found in the rustc sysroot or on PATH." >&2
  echo "       install it with: rustup component add llvm-tools" >&2
  exit 1
fi
TOOL_LLVM_MAJOR="$("$PROFDATA" merge --version 2>/dev/null \
  | sed -n 's/.*LLVM version \([0-9]*\).*/\1/p' | head -n 1)"
if [ -n "$RUSTC_LLVM_MAJOR" ] && [ "$TOOL_LLVM_MAJOR" != "$RUSTC_LLVM_MAJOR" ]; then
  echo "error: $PROFDATA is LLVM ${TOOL_LLVM_MAJOR:-unknown} but rustc emits" >&2
  echo "       LLVM $RUSTC_LLVM_MAJOR profiles; the merge would reject every" >&2
  echo "       .profraw. Install the matching tool: rustup component add llvm-tools" >&2
  exit 1
fi
echo "using $PROFDATA (LLVM $TOOL_LLVM_MAJOR, matching rustc)"

echo "== step 1/4: instrumented build =="
RUSTFLAGS="-Cprofile-generate=$ABS_PROFDIR" \
  cargo build --release -p stpm-bench \
  --bin scaling --bin streaming

echo "== step 2/4: profiling workload (quick scaling + streaming) =="
./target/release/scaling --quick
./target/release/streaming --quick

echo "== step 3/4: merging profiles =="
"$PROFDATA" merge -o "$ABS_PROFDIR/merged.profdata" "$ABS_PROFDIR"

echo "== step 4/4: optimized rebuild =="
RUSTFLAGS="-Cprofile-use=$ABS_PROFDIR/merged.profdata" \
  cargo build --release -p stpm-bench --bins

echo "PGO build complete: target/release binaries now use $ABS_PROFDIR/merged.profdata"
echo "re-run the full experiments (e.g. target/release/scaling) to measure the effect"
