#!/usr/bin/env bash
# Chaos gate: the deterministic fault-injection sweeps, both in release.
#
# 1. `chaos_recovery` crashes the persistence stack at every registered
#    failpoint, under both FaultyFs crash flavours (un-synced names lost,
#    or kept as a journaling filesystem may commit them early), and
#    requires recovery to be byte-identical with zero acknowledged-granule
#    loss, plus the torn-tail, failed-WAL-append,
#    lying-fsync, transient-retry and failed-snapshot scenarios and the
#    check that the suite reaches every registered failpoint.
# 2. `stpm-service`'s `service_chaos` drives a multi-tenant workload under a
#    starved memory budget with hard daemon kills and injected faults at
#    every failpoint, under both crash flavours, and requires every tenant's final pattern set and
#    granule count to match the fault-free run with zero acked-append loss.
#
# CI's analysis job executes this exact script, so a local
# `scripts/ci_chaos.sh` reproduces the chaos gate bit for bit. Everything
# runs against the in-memory FaultyFs — no real files, fully deterministic.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== chaos recovery sweep (fault injection at every failpoint) =="
cargo test --release -q --test chaos_recovery

echo "== service chaos sweep (hard kills + faults at every failpoint) =="
cargo test --release -q -p stpm-service --test service_chaos

echo "chaos gate: recovery is byte-identical at every failpoint"
