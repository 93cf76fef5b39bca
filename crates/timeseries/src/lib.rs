//! # stpm-timeseries
//!
//! Time-series substrate for the FreqSTPfTS system ("Mining Seasonal Temporal
//! Patterns in Time Series", ICDE 2023).
//!
//! This crate implements Phase 1 of the FreqSTPfTS pipeline, *Data
//! Transformation*:
//!
//! 1. The time model of Section III-A of the paper: series are sampled at the
//!    finest granularity `G`, and the coarser granularity `H` groups `m`
//!    adjacent instants of `G` into one granule — `m` is the mapping factor
//!    of [`SymbolicDatabase::to_sequence_database`]. Granules are addressed
//!    by their 1-based [`GranulePos`].
//! 2. [`TimeSeries`] and the [`Symbolizer`] implementations (SAX,
//!    equal-width, quantile and explicit thresholds) — Section III-B.
//! 3. [`SymbolicSeries`] / [`SymbolicDatabase`] — the symbolic database
//!    `D_SYB` (Definition 3.6).
//! 4. The *sequence mapping* `g : X_S →_m H` producing
//!    [`TemporalSequence`]s and the temporal sequence database
//!    [`SequenceDatabase`] (`D_SEQ`, Definitions 3.9–3.11).
//!
//! The mining crates (`stpm-core`, `stpm-approx`, `stpm-baseline`) operate on
//! the types exported here.
//!
//! ## Example
//!
//! ```
//! use stpm_timeseries::{TimeSeries, SymbolicDatabase, ThresholdSymbolizer};
//!
//! // Two appliances sampled every 5 minutes.
//! let cooker = TimeSeries::new("C", vec![1.82, 1.25, 0.0, 1.1, 0.0, 0.0]);
//! let dishes = TimeSeries::new("D", vec![2.0, 0.0, 0.0, 1.4, 0.0, 0.0]);
//!
//! // ON/OFF symbolization with a 0.5 threshold.
//! let sym = ThresholdSymbolizer::binary(0.5, "0", "1");
//! let dsyb = SymbolicDatabase::from_series(&[cooker, dishes], &sym).unwrap();
//!
//! // 15-minute granules: 3 adjacent 5-minute symbols per granule.
//! let dseq = dsyb.to_sequence_database(3).unwrap();
//! assert_eq!(dseq.num_granules(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod granularity;
pub mod interval;
pub mod registry;
pub mod sequence;
pub mod series;
pub mod stats;
pub mod symbolic;
pub mod symbolize;

pub use error::{Error, Result};
pub use granularity::GranulePos;
pub use interval::Interval;
pub use registry::{EventLabel, EventRegistry, SeriesId, SymbolId};
pub use sequence::{EventInstance, SequenceDatabase, TemporalSequence};
pub use series::TimeSeries;
pub use symbolic::{SymbolicDatabase, SymbolicSeries};
pub use symbolize::{
    Alphabet, EqualWidthSymbolizer, QuantileSymbolizer, SaxSymbolizer, Symbolizer,
    ThresholdSymbolizer,
};
