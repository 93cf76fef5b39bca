//! Granule positions (Definition 3.2 of the paper).
//!
//! The time model is implicit: every series is sampled at the finest
//! granularity `G`, and a pipeline groups `m` adjacent instants of `G` into
//! one granule of the coarser granularity `H` (the mapping factor of
//! [`SymbolicDatabase::to_sequence_database`](crate::SymbolicDatabase::to_sequence_database)).

/// Position of a granule within a granularity (1-based, Definition 3.2).
pub type GranulePos = u64;
