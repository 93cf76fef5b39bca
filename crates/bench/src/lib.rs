//! # stpm-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! FreqSTPfTS evaluation (Section VI and the appendix of the paper).
//!
//! Each experiment is a library function (under [`experiments`]) that
//! returns the same rows or series the paper reports. The one binary,
//! `all_experiments`, prints every table and figure in paper order, or one
//! of them with `--only <name>` (the names are listed on a usage error). The harness is engine-agnostic: every experiment drives its
//! miners through the [`stpm_core::MiningEngine`] trait and reads the
//! unified [`stpm_core::EngineReport`], so adding a fourth engine means
//! adding it to [`measure::contenders`] — nothing else. The default
//! contenders are the paper's three:
//!
//! * **E-STPM** — the exact miner (`stpm-core`),
//! * **A-STPM** — the approximate, mutual-information-based miner
//!   (`stpm-approx`),
//! * **APS-growth** — the adapted PS-growth baseline (`stpm-baseline`).
//!
//! Because the original testbed (32-core EPYC, 512 GB RAM) and the raw
//! datasets are unavailable, the harness mines seeded surrogates of the
//! Table V workloads. The real-dataset surrogates default to the Table V
//! sizes; the environment variable `STPM_BENCH_SCALE` (a value in `(0, 1]`,
//! default `1.0`) shrinks them. The synthetic ones are the paper's sizes
//! divided by `STPM_BENCH_SYN_DIVISOR` (default 100). Relative results —
//! who wins and by roughly what factor — are the quantities the harness
//! tracks; the README's "Reproducing the evaluation" section shows how to
//! run it.
//!
//! This crate reproduces the paper's engine comparisons. Runtime and memory
//! of the paths the repository deploys (batch mining, durable stream
//! ingest, the multi-tenant service) are measured by the repository
//! benchmark in `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod measure;
pub mod params;
pub mod table;

pub use measure::{contenders, measure, measure_all, Measurement};
pub use params::{bench_scale, scaled_real_spec, scaled_synthetic_spec, ParamGrid};
pub use table::TextTable;
