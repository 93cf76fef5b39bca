//! Figures 15, 16, 25, 26 — effectiveness of the two pruning techniques:
//! E-STPM run with NoPrune / Apriori / Trans / All while varying minSeason,
//! minDensity and maxPeriod.
//!
//! The pruning mode travels inside [`StpmConfig`](stpm_core::StpmConfig), so
//! the ablation drives the exact engine through the same
//! [`stpm_core::MiningEngine`] path as every other experiment. It mines up
//! to 3-event patterns: transitivity pruning acts only when extending a
//! level past 2, so at `maxPatternLen` 2 the Trans column would re-measure
//! NoPrune and the All column would re-measure Apriori.

use super::runtime_memory::sweep_points;
use super::{config_for, BenchScale, PreparedData};
use crate::measure::measure;
use crate::params::scaled_real_spec;
use crate::table::TextTable;
use stpm_core::{EngineReport, MiningInput, PruningMode, StpmMiner};
use stpm_datagen::DatasetProfile;

/// Runtime (seconds) and report of E-STPM, mining up to 3-event patterns,
/// under one pruning mode and one configuration.
#[must_use]
pub fn runtime_for(
    input: &MiningInput<'_>,
    profile: DatasetProfile,
    mode: PruningMode,
    max_period: f64,
    min_density: f64,
    min_season: u64,
) -> (f64, EngineReport) {
    let mut config = config_for(profile, max_period, min_density, min_season).with_pruning(mode);
    config.max_pattern_len = 3;
    let (measurement, report) = measure(&StpmMiner, input, &config);
    (measurement.runtime_secs(), report)
}

/// Runs the pruning ablation for every profile: one table per (profile,
/// varied parameter), with one column per pruning mode.
#[must_use]
pub fn run(profiles: &[DatasetProfile], scale: &BenchScale) -> Vec<TextTable> {
    let mut tables = Vec::new();
    for &profile in profiles {
        let prepared = PreparedData::generate(&scale.apply(scaled_real_spec(profile)));

        for vary in ["minSeason", "minDensity", "maxPeriod"] {
            let points = sweep_points(scale, vary);
            let mut table = TextTable::new(
                &format!(
                    "E-STPM pruning ablation on {} while varying {vary} (Figs 15/16/25/26 shape) — runtime (s)",
                    profile.short_name()
                ),
                &[vary, "NoPrune", "Apriori", "Trans", "All"],
            );
            for (label, max_period, min_density, min_season) in points {
                let mut row = vec![label];
                let mut reference = None;
                for mode in PruningMode::all_modes() {
                    let (runtime, report) = runtime_for(
                        &prepared.input(),
                        profile,
                        mode,
                        max_period,
                        min_density,
                        min_season,
                    );
                    let patterns = report.pattern_set();
                    let expected = reference.get_or_insert_with(|| patterns.clone());
                    assert!(
                        *expected == patterns,
                        "{} pruning changed the mined output on {}",
                        mode.label(),
                        profile.short_name()
                    );
                    row.push(format!("{runtime:.4}"));
                }
                table.add_row(row);
            }
            tables.push(table);
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_all_four_modes() {
        let tables = run(&[DatasetProfile::Influenza], &BenchScale::quick());
        assert_eq!(tables.len(), 3);
        let rendered = tables[0].render();
        assert!(rendered.contains("NoPrune"));
        assert!(rendered.contains("All"));
    }

    #[test]
    fn pruning_modes_produce_identical_outputs() {
        let scale = BenchScale::quick();
        let prepared =
            PreparedData::generate(&scale.apply(scaled_real_spec(DatasetProfile::HandFootMouth)));
        let reports: Vec<EngineReport> = PruningMode::all_modes()
            .iter()
            .map(|&mode| {
                runtime_for(
                    &prepared.input(),
                    DatasetProfile::HandFootMouth,
                    mode,
                    0.006,
                    0.0075,
                    2,
                )
                .1
            })
            .collect();
        let [no_prune, apriori, trans, all] = &reports[..] else {
            panic!("one report per pruning mode");
        };
        for report in [apriori, trans, all] {
            assert_eq!(report.pattern_set(), no_prune.pattern_set());
        }
        // Transitivity acts at k = 3, where the adjacency rows prune
        // extension candidates before any support work.
        assert_eq!(no_prune.adjacency_pruned_candidates(), 0);
        assert!(trans.adjacency_pruned_candidates() > 0);
        assert!(all.adjacency_pruned_candidates() > 0);
        // Apriori drops non-candidates at every level.
        let candidates = |report: &EngineReport, k: usize| {
            report
                .stats()
                .levels
                .iter()
                .find(|level| level.k == k)
                .map_or(0, |level| level.candidate_patterns)
        };
        for k in [2, 3] {
            assert!(
                candidates(apriori, k) < candidates(no_prune, k),
                "k = {k}: Apriori {} vs NoPrune {}",
                candidates(apriori, k),
                candidates(no_prune, k)
            );
        }
    }
}
