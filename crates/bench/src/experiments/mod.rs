//! One module per experiment family of the paper's evaluation. Every module
//! exposes a `run(...)` entry point returning [`TextTable`](crate::TextTable)s
//! that print the same rows/series the paper reports; the `all_experiments`
//! binary runs them, all in paper order or one with `--only <name>`.

pub mod ablation;
pub mod accuracy;
pub mod epsilon;
pub mod pattern_counts;
pub mod pruning_ratio;
pub mod qualitative;
pub mod runtime_memory;
pub mod scalability;

use crate::params::scaled_dist_interval;
use stpm_core::{MiningInput, StpmConfig, Threshold};
use stpm_datagen::{generate, DatasetProfile, DatasetSpec, GeneratedDataset};
use stpm_timeseries::SequenceDatabase;

/// A generated dataset together with its sequence database, ready to be
/// handed to any [`stpm_core::MiningEngine`] as a [`MiningInput`].
#[derive(Debug, Clone)]
pub struct PreparedData {
    /// The generated dataset (raw series + `D_SYB` + mapping factor).
    pub data: GeneratedDataset,
    /// The sequence database `D_SEQ` built from it.
    pub dseq: SequenceDatabase,
}

impl PreparedData {
    /// Generates a dataset and builds its sequence database.
    #[must_use]
    pub fn generate(spec: &DatasetSpec) -> Self {
        let data = generate(spec);
        let dseq = data.dseq().expect("generated data maps to sequences");
        Self { data, dseq }
    }

    /// The engine input view of the prepared data.
    #[must_use]
    pub fn input(&self) -> MiningInput<'_> {
        MiningInput::new(&self.data.dsyb, &self.dseq, self.data.mapping_factor)
    }
}

/// Controls how large an experiment run is: `full()` follows the paper's
/// grids and the `STPM_BENCH_SCALE` environment variable, `quick()` shrinks
/// both the datasets and the parameter grids so that unit tests and smoke
/// runs finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchScale {
    /// Overrides the number of series of every generated dataset.
    pub series_override: Option<usize>,
    /// Overrides the number of sequences of every generated dataset.
    pub sequences_override: Option<u64>,
    /// Uses a reduced parameter grid (first/last point of each sweep).
    pub quick_grid: bool,
}

impl BenchScale {
    /// The paper-faithful scale (modulated by `STPM_BENCH_SCALE`).
    #[must_use]
    pub fn full() -> Self {
        Self {
            series_override: None,
            sequences_override: None,
            quick_grid: false,
        }
    }

    /// A seconds-scale smoke configuration used by tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            series_override: Some(6),
            sequences_override: Some(180),
            quick_grid: true,
        }
    }

    /// Applies the overrides to a dataset specification.
    #[must_use]
    pub fn apply(&self, spec: stpm_datagen::DatasetSpec) -> stpm_datagen::DatasetSpec {
        let series = self.series_override.unwrap_or(spec.num_series);
        let sequences = self.sequences_override.unwrap_or(spec.num_sequences);
        spec.scaled_to(series, sequences)
    }

    /// Thins a sweep down to its end points when `quick_grid` is set.
    #[must_use]
    pub fn thin<T: Clone>(&self, values: &[T]) -> Vec<T> {
        if !self.quick_grid || values.len() <= 2 {
            values.to_vec()
        } else {
            vec![values[0].clone(), values[values.len() - 1].clone()]
        }
    }
}

/// Builds the miner configuration for one grid point of a profile.
#[must_use]
pub fn config_for(
    profile: DatasetProfile,
    max_period: f64,
    min_density: f64,
    min_season: u64,
) -> StpmConfig {
    StpmConfig {
        max_period: Threshold::Fraction(max_period),
        min_density: Threshold::Fraction(min_density),
        dist_interval: scaled_dist_interval(profile),
        min_season,
        max_pattern_len: 2,
        ..StpmConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_shrinks_specs_and_grids() {
        let scale = BenchScale::quick();
        let spec = scale.apply(stpm_datagen::DatasetSpec::real(
            DatasetProfile::RenewableEnergy,
        ));
        assert_eq!(spec.num_series, 6);
        assert_eq!(spec.num_sequences, 180);
        assert_eq!(scale.thin(&[1, 2, 3, 4, 5]), vec![1, 5]);
        assert_eq!(scale.thin(&[1, 2]), vec![1, 2]);

        let full = BenchScale::full();
        let spec = full.apply(stpm_datagen::DatasetSpec::real(
            DatasetProfile::RenewableEnergy,
        ));
        assert_eq!(spec.num_series, 21);
        assert_eq!(full.thin(&[1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn config_for_builds_fractional_thresholds() {
        let config = config_for(DatasetProfile::Influenza, 0.004, 0.0075, 8);
        assert_eq!(config.min_season, 8);
        assert_eq!(config.max_period, Threshold::Fraction(0.004));
        assert_eq!(config.min_density, Threshold::Fraction(0.0075));
    }
}
