//! The seasonal time-series generator.
//!
//! Correlated series are organised in small groups that share a seasonal
//! burst window (e.g. "winter"): the first series of a group is the driver,
//! the others follow it with a small lag so that the symbolised instances
//! exhibit Contains / Overlaps / Follows relations inside each granule. The
//! remaining series are independent noise. Values are continuous and are
//! symbolised with per-series equal-width alphabets sized according to the
//! profile, which exercises the complete Phase 1 pipeline (raw series →
//! `D_SYB` → `D_SEQ`).

use crate::profiles::DatasetSpec;
use crate::rng::SeededRng;
use stpm_timeseries::{
    EqualWidthSymbolizer, Result as TsResult, SequenceDatabase, SymbolicDatabase, SymbolicSeries,
    Symbolizer, TimeSeries,
};

/// A generated dataset: the raw series, their symbolic database, and the
/// mapping factor to use when building `D_SEQ`.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// The raw (continuous) series.
    pub raw: Vec<TimeSeries>,
    /// The symbolic database `D_SYB`.
    pub dsyb: SymbolicDatabase,
    /// The sequence-mapping factor `m` (raw instants per `D_SEQ` granule).
    pub mapping_factor: u64,
    /// Ids (indices into `raw`) of the series generated as correlated
    /// seasonal series; the rest are noise.
    pub seasonal_series: Vec<usize>,
}

impl GeneratedDataset {
    /// Builds the temporal sequence database of the generated data.
    ///
    /// # Errors
    /// Propagates sequence-mapping errors (never expected for generator
    /// output).
    pub fn dseq(&self) -> TsResult<SequenceDatabase> {
        self.dsyb.to_sequence_database(self.mapping_factor)
    }

    /// The batched-arrival view of the dataset: splits the symbolic database
    /// into an initial window of `initial_granules` granules followed by
    /// batches of `batch_granules` granules each (the trailing batch may be
    /// shorter). Feeding the batches to a streaming miner in order
    /// reconstructs the dataset exactly — this is the workload of the
    /// streaming exactness checks (`crates/bench/tests/quick_scale_counts.rs`
    /// and `tests/streaming_equivalence.rs`).
    ///
    /// # Panics
    /// Panics when `batch_granules` is zero.
    #[must_use]
    pub fn arrival_batches(
        &self,
        initial_granules: u64,
        batch_granules: u64,
    ) -> Vec<SymbolicDatabase> {
        assert!(batch_granules > 0, "batches must hold at least one granule");
        let m = self.mapping_factor;
        let total = self.dsyb.len() as u64;
        let slice = |from: u64, to: u64| {
            let (from, to) = (from as usize, to as usize);
            SymbolicDatabase::new(
                self.dsyb
                    .series()
                    .iter()
                    .map(|s| {
                        SymbolicSeries::new(
                            s.name().to_string(),
                            s.symbols()[from..to].to_vec(),
                            s.alphabet().clone(),
                        )
                    })
                    .collect(),
            )
            .expect("a slice of a valid database is valid")
        };
        let mut batches = Vec::new();
        let mut cursor = (initial_granules * m).min(total);
        if cursor > 0 {
            batches.push(slice(0, cursor));
        }
        let step = batch_granules * m;
        while cursor < total {
            let next = (cursor + step).min(total);
            batches.push(slice(cursor, next));
            cursor = next;
        }
        batches
    }
}

/// Generates a dataset according to `spec`. Fully deterministic for a given
/// spec (including the seed).
#[must_use]
pub fn generate(spec: &DatasetSpec) -> GeneratedDataset {
    let mut rng = SeededRng::seed_from_u64(spec.seed);
    let profile = spec.profile;
    let m = profile.mapping_factor();
    let instants = spec.num_instants() as usize;
    let period_instants = profile.season_period() * m;
    let season_instants = profile.season_length() * m;
    let symbols = profile.symbols_per_series();

    let num_correlated = ((spec.num_series as f64) * spec.correlated_fraction).round() as usize;
    let num_correlated = num_correlated.min(spec.num_series);
    let group_size = 3usize;

    let mut raw = Vec::with_capacity(spec.num_series);
    let mut seasonal_series = Vec::new();

    for series_idx in 0..spec.num_series {
        let name = format!("{}-{:04}", profile.short_name(), series_idx);
        let values = if series_idx < num_correlated {
            seasonal_series.push(series_idx);
            let group = series_idx / group_size;
            let member = series_idx % group_size;
            // Each group owns a phase inside the seasonal period; members lag
            // the driver by one raw instant each, which keeps the pairwise
            // NMI high (they are near-duplicates, like co-located sensors)
            // while still producing Follows/Contains/Overlaps relations at
            // the granule boundaries.
            let phase = (group as u64 * 97) % profile.season_period() * m;
            let lag = member as u64;
            // Members shorten the burst slightly so the driver Contains them.
            let length = season_instants.saturating_sub(member as u64).max(m);
            seasonal_values(
                instants,
                period_instants,
                phase + lag,
                length,
                symbols,
                &mut rng,
            )
        } else {
            noise_values(instants, symbols, &mut rng)
        };
        raw.push(TimeSeries::new(name, values));
    }

    let symbolic: Vec<SymbolicSeries> = raw
        .iter()
        .map(|ts| {
            let symbolizer =
                EqualWidthSymbolizer::fit(ts, symbols).expect("generated series are valid");
            symbolizer
                .symbolize(ts)
                .expect("generated series are valid")
        })
        .collect();
    let dsyb = SymbolicDatabase::new(symbolic).expect("generator produces aligned series");
    GeneratedDataset {
        raw,
        dsyb,
        mapping_factor: m,
        seasonal_series,
    }
}

/// Values of one correlated seasonal series: a high plateau during the
/// seasonal window and a low baseline the rest of the time, plus Gaussian
/// jitter. Using two dominant bands keeps the symbol distribution balanced
/// enough (λ1 ≈ 0.4) that the Corollary 1.1 µ threshold stays attainable for
/// genuinely correlated series — mirroring the moderate pruning ratios the
/// paper reports in Table XI.
fn seasonal_values(
    instants: usize,
    period: u64,
    phase: u64,
    season_len: u64,
    symbols: usize,
    rng: &mut SeededRng,
) -> Vec<f64> {
    let top = symbols as f64;
    (0..instants as u64)
        .map(|t| {
            let pos = (t + period - (phase % period)) % period;
            let base = if pos < season_len {
                // In season: high band.
                top - 0.5
            } else {
                // Off season: low band.
                0.5
            };
            // Jitter is small enough to stay inside the band for the vast
            // majority of samples, but occasionally crosses over (realistic
            // measurement noise).
            base + 0.12 * rng.next_gaussian()
        })
        .collect()
}

/// Values of an uncorrelated noise series: a mean-reverting random walk that
/// spreads over all symbol bands without seasonal structure.
fn noise_values(instants: usize, symbols: usize, rng: &mut SeededRng) -> Vec<f64> {
    let top = symbols as f64;
    let mut level = top / 2.0;
    (0..instants)
        .map(|_| {
            level += 0.6 * rng.next_gaussian();
            // Mean-revert towards the centre and clamp to the value range.
            level = level * 0.9 + (top / 2.0) * 0.1;
            level = level.clamp(0.0, top);
            level
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{DatasetProfile, DatasetSpec};

    fn small_spec() -> DatasetSpec {
        DatasetSpec::real(DatasetProfile::Influenza)
            .scaled_to(6, 320)
            .with_seed(42)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small_spec());
        let b = generate(&small_spec());
        assert_eq!(a.dsyb, b.dsyb);
        assert_eq!(a.seasonal_series, b.seasonal_series);
        let c = generate(&small_spec().with_seed(43));
        assert_ne!(a.dsyb, c.dsyb);
    }

    #[test]
    fn sizes_match_the_spec() {
        let spec = small_spec();
        let data = generate(&spec);
        assert_eq!(data.raw.len(), 6);
        assert_eq!(data.dsyb.num_series(), 6);
        assert_eq!(data.dsyb.len() as u64, spec.num_instants());
        let dseq = data.dseq().unwrap();
        assert_eq!(dseq.num_granules(), spec.num_sequences);
        assert_eq!(dseq.num_series(), 6);
    }

    #[test]
    fn arrival_batches_reassemble_into_the_original_database() {
        let data = generate(&small_spec());
        // 320 granules at m = 4; initial window of 100 granules, then 60 per
        // batch: 100 + 60·3 + 40 ⇒ 5 batches.
        let batches = data.arrival_batches(100, 60);
        assert_eq!(batches.len(), 5);
        assert_eq!(batches[0].len() as u64, 100 * data.mapping_factor);
        assert_eq!(batches[1].len() as u64, 60 * data.mapping_factor);
        assert_eq!(
            batches.last().unwrap().len() as u64,
            40 * data.mapping_factor
        );
        let mut reassembled = batches[0].clone();
        for batch in &batches[1..] {
            reassembled.append_batch(batch).unwrap();
        }
        assert_eq!(reassembled, data.dsyb);
        // An initial window larger than the dataset degenerates to one batch.
        assert_eq!(data.arrival_batches(10_000, 60).len(), 1);
    }

    #[test]
    fn correlated_fraction_controls_the_seasonal_series_count() {
        let all = generate(&small_spec().with_correlated_fraction(1.0));
        assert_eq!(all.seasonal_series.len(), 6);
        let none = generate(&small_spec().with_correlated_fraction(0.0));
        assert!(none.seasonal_series.is_empty());
        let half = generate(&small_spec().with_correlated_fraction(0.5));
        assert_eq!(half.seasonal_series.len(), 3);
    }

    #[test]
    fn seasonal_series_use_the_high_symbols_periodically() {
        let data = generate(&small_spec().with_correlated_fraction(1.0));
        let series = &data.dsyb.series()[0];
        let probs = series.symbol_probabilities();
        // The top symbol band must be visited (the seasonal bursts) but not
        // dominate (the off-season baseline).
        let top = probs.last().copied().unwrap_or(0.0);
        assert!(top > 0.05, "seasonal burst missing: {probs:?}");
        assert!(top < 0.6, "no off-season baseline: {probs:?}");
    }

    #[test]
    fn noise_series_have_high_entropy() {
        let data = generate(&small_spec().with_correlated_fraction(0.0));
        for series in data.dsyb.series() {
            let probs = series.symbol_probabilities();
            let occupied = probs.iter().filter(|p| **p > 0.01).count();
            assert!(occupied >= 2, "noise series collapsed to one symbol");
        }
    }

    #[test]
    fn generated_data_contains_minable_seasonal_patterns() {
        use stpm_core::{StpmConfig, StpmMiner, Threshold};
        let data = generate(&small_spec().with_correlated_fraction(0.7));
        let dseq = data.dseq().unwrap();
        let config = StpmConfig {
            max_period: Threshold::Absolute(8),
            min_density: Threshold::Absolute(5),
            dist_interval: (20, 200),
            min_season: 2,
            max_pattern_len: 2,
            ..StpmConfig::default()
        };
        let report = StpmMiner::mine_sequences(&dseq, &config).unwrap();
        assert!(
            !report.patterns().is_empty(),
            "the generator must embed minable seasonal 2-event patterns"
        );
    }
}
