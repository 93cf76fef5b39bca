//! Tables IX, X, XIII, XIV — the number of frequent seasonal temporal
//! patterns found by the exact engine for each (maxPeriod, minSeason,
//! minDensity) combination of the Table VI grid.

use super::{config_for, BenchScale, PreparedData};
use crate::params::{pattern_count_grid, scaled_real_spec};
use crate::table::TextTable;
use stpm_core::{MiningEngine, StpmMiner};
use stpm_datagen::DatasetProfile;

/// Runs the pattern-count grid for each profile and returns one table per
/// profile (rows = maxPeriod, columns = (minSeason, minDensity) pairs).
#[must_use]
pub fn run(profiles: &[DatasetProfile], scale: &BenchScale) -> Vec<TextTable> {
    let (periods, pairs) = pattern_count_grid();
    let periods = scale.thin(&periods);
    let pairs = scale.thin(&pairs);

    let mut tables = Vec::new();
    for &profile in profiles {
        let prepared = PreparedData::generate(&scale.apply(scaled_real_spec(profile)));

        let mut header: Vec<String> = vec!["maxPeriod (%)".to_string()];
        header.extend(pairs.iter().map(|(s, d)| format!("{s}-{:.2}%", d * 100.0)));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = TextTable::new(
            &format!(
                "Number of seasonal patterns on {} (Tables IX/X/XIII/XIV shape)",
                profile.short_name()
            ),
            &header_refs,
        );

        for &period in &periods {
            let mut row = vec![format!("{:.1}", period * 100.0)];
            for &(min_season, min_density) in &pairs {
                let config = config_for(profile, period, min_density, min_season);
                let report = StpmMiner
                    .mine_with(&prepared.input(), &config)
                    .expect("valid configuration");
                row.push(report.total_patterns().to_string());
            }
            table.add_row(row);
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pattern count of one configuration point, for the monotonicity checks
    /// the paper highlights in its qualitative analysis of Tables IX/X.
    fn counts_for(
        profile: DatasetProfile,
        scale: &BenchScale,
        period: f64,
        min_season: u64,
        min_density: f64,
    ) -> usize {
        let prepared = PreparedData::generate(&scale.apply(scaled_real_spec(profile)));
        let config = config_for(profile, period, min_density, min_season);
        StpmMiner
            .mine_with(&prepared.input(), &config)
            .expect("valid configuration")
            .total_patterns()
    }

    #[test]
    fn produces_one_table_per_profile_with_grid_rows() {
        let tables = run(&[DatasetProfile::Influenza], &BenchScale::quick());
        assert_eq!(tables.len(), 1);
        assert!(tables[0].len() >= 2);
    }

    #[test]
    fn larger_max_period_does_not_shrink_the_pattern_count_materially() {
        // A larger maxPeriod admits more candidate seasons, so the count
        // grows in the common case; it is not strictly monotone, though —
        // merging two near support sets into one can drop a borderline
        // pattern below minSeason. Allow a small tolerance for that effect.
        let scale = BenchScale::quick();
        let small = counts_for(DatasetProfile::Influenza, &scale, 0.002, 4, 0.0075);
        let large = counts_for(DatasetProfile::Influenza, &scale, 0.01, 4, 0.0075);
        assert!(
            large * 20 >= small * 19,
            "large {large} much smaller than small {small}"
        );
    }

    #[test]
    fn larger_min_season_never_increases_the_pattern_count() {
        let scale = BenchScale::quick();
        let lenient = counts_for(DatasetProfile::Influenza, &scale, 0.006, 2, 0.0075);
        let strict = counts_for(DatasetProfile::Influenza, &scale, 0.006, 12, 0.0075);
        assert!(strict <= lenient, "strict {strict} > lenient {lenient}");
    }
}
