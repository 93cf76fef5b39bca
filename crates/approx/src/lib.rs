//! # stpm-approx
//!
//! Approximate Seasonal Temporal Pattern Mining (**A-STPM**, Section V of
//! "Mining Seasonal Temporal Patterns in Time Series", ICDE 2023).
//!
//! A-STPM prunes *unpromising time series* before mining: two symbolic series
//! are *correlated* when their normalised mutual information (NMI) reaches a
//! threshold μ that is derived — through the Lambert-W lower bound of
//! Theorem 1 — from the seasonality thresholds `minSeason` and `minDensity`.
//! Only correlated series are handed to the exact miner, which makes A-STPM
//! up to an order of magnitude faster and leaner on large databases, at a
//! cost in recall: on the repository benchmark's `batch-mine` workload
//! (renewable-energy surrogate, 16 series × 720 granules, `maxPatternLen` 3)
//! A-STPM finds 15.6 % of E-STPM's patterns (`result_quality_pct`
//! 15.56–15.68 % over three benchmark checks).
//!
//! The crate provides:
//!
//! * Shannon entropy, conditional entropy, mutual information and NMI over
//!   symbolic series ([`info`]),
//! * the Lambert W function used by the bound ([`lambert`]),
//! * the `maxSeason` lower bound of Theorem 1 and the μ derivation of
//!   Corollary 1.1 ([`bound`]),
//! * the approximate mining engine itself ([`miner`]), implementing the
//!   workspace-wide [`MiningEngine`](stpm_core::MiningEngine) trait.
//!
//! ## Example
//!
//! ```
//! use stpm_timeseries::{SymbolicDatabase, SymbolicSeries, Alphabet};
//! use stpm_core::{MiningEngine, MiningInput, StpmConfig, Threshold};
//! use stpm_approx::AStpmMiner;
//!
//! let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
//! let c = SymbolicSeries::from_labels(
//!     "C", &["1","1","0", "1","0","0", "1","1","0", "0","0","0"], alphabet.clone()).unwrap();
//! let d = SymbolicSeries::from_labels(
//!     "D", &["1","0","0", "1","0","0", "1","1","0", "1","1","0"], alphabet).unwrap();
//! let dsyb = SymbolicDatabase::new(vec![c, d]).unwrap();
//! let dseq = dsyb.to_sequence_database(3).unwrap();
//!
//! let config = StpmConfig {
//!     max_period: Threshold::Absolute(2),
//!     min_density: Threshold::Absolute(2),
//!     dist_interval: (1, 10),
//!     min_season: 1,
//!     ..StpmConfig::default()
//! };
//! let input = MiningInput::new(&dsyb, &dseq, 3);
//! let report = AStpmMiner::new().mine_with(&input, &config).unwrap();
//! assert!(report.pruning().kept_series.len() <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound;
pub mod info;
pub mod lambert;
pub mod miner;

pub use bound::{max_season_lower_bound, mu_threshold, pair_mu_threshold};
pub use info::{conditional_entropy, entropy_of, mutual_information, normalized_mi, NmiMatrix};
pub use lambert::lambert_w0;
pub use miner::AStpmMiner;
