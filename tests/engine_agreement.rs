//! Engine-agreement tests, driven entirely through the `MiningEngine` trait:
//! on the same input and thresholds,
//!
//! * E-STPM and APS-growth must produce *identical* frequent-pattern sets —
//!   they implement the same frequency definition with different search
//!   strategies (Section VI-A of the paper adapts PS-growth so that phase 1's
//!   `minSup`/`maxPer` constraints are necessary conditions of seasonality,
//!   and phase 2 applies the exact season checks), and
//! * A-STPM's output must be a *subset* of E-STPM's — it mines a projection
//!   of the database, so it can only miss patterns, never invent them.

use freqstpfts::core::{
    canonical_result_set, EngineReport, MiningEngine, MiningInput, StpmConfig, StpmMiner, Threshold,
};
use freqstpfts::prelude::*;
use std::collections::BTreeSet;

/// The engines under comparison, instantiated through the facade's `Engine`
/// selector so the test also covers that dispatch path.
fn engines() -> Vec<Box<dyn MiningEngine>> {
    vec![
        Engine::Exact.instantiate(),
        Engine::Approximate { mu: None }.instantiate(),
        Engine::ApsGrowth.instantiate(),
    ]
}

fn small_config(profile: DatasetProfile) -> StpmConfig {
    StpmConfig {
        max_period: Threshold::Fraction(0.02),
        min_density: Threshold::Fraction(0.01),
        dist_interval: profile.dist_interval(),
        min_season: 2,
        max_pattern_len: 2,
        ..StpmConfig::default()
    }
}

/// Runs every engine on one generated dataset and returns the rendered
/// pattern sets keyed by engine name.
fn pattern_sets(
    profile: DatasetProfile,
    seed: u64,
    config: &StpmConfig,
) -> Vec<(&'static str, BTreeSet<String>)> {
    let spec = DatasetSpec::real(profile).scaled_to(6, 200).with_seed(seed);
    let data = generate(&spec);
    let dseq = data.dseq().expect("generated data maps to sequences");
    let input = MiningInput::new(&data.dsyb, &dseq, data.mapping_factor);
    engines()
        .iter()
        .map(|engine| {
            let report = engine
                .mine_with(&input, config)
                .expect("valid configuration");
            (report.engine(), report.pattern_set())
        })
        .collect()
}

fn set_of<'a>(sets: &'a [(&'static str, BTreeSet<String>)], name: &str) -> &'a BTreeSet<String> {
    &sets
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("engine {name} missing"))
        .1
}

#[test]
fn exact_and_baseline_produce_identical_pattern_sets() {
    for profile in [DatasetProfile::Influenza, DatasetProfile::SmartCity] {
        for seed in [1u64, 7, 23] {
            let config = small_config(profile);
            let sets = pattern_sets(profile, seed, &config);
            let exact = set_of(&sets, "E-STPM");
            let baseline = set_of(&sets, "APS-growth");
            assert!(
                !exact.is_empty(),
                "{profile:?} seed {seed}: the workload must contain seasonal patterns"
            );
            assert_eq!(
                exact, baseline,
                "{profile:?} seed {seed}: E-STPM and APS-growth must agree exactly"
            );
        }
    }
}

#[test]
fn approximate_output_is_a_subset_of_the_exact_output() {
    for profile in [DatasetProfile::Influenza, DatasetProfile::HandFootMouth] {
        for seed in [1u64, 7, 23] {
            let config = small_config(profile);
            let sets = pattern_sets(profile, seed, &config);
            let exact = set_of(&sets, "E-STPM");
            let approx = set_of(&sets, "A-STPM");
            assert!(
                approx.is_subset(exact),
                "{profile:?} seed {seed}: A-STPM invented patterns: {:?}",
                approx.difference(exact).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn zero_mu_approximate_engine_degenerates_to_exact() {
    let spec = DatasetSpec::real(DatasetProfile::RenewableEnergy)
        .scaled_to(6, 200)
        .with_seed(11);
    let data = generate(&spec);
    let dseq = data.dseq().unwrap();
    let input = MiningInput::new(&data.dsyb, &dseq, data.mapping_factor);
    let config = small_config(DatasetProfile::RenewableEnergy);

    let exact = StpmMiner.mine_with(&input, &config).unwrap();
    let degenerate = Engine::Approximate { mu: Some(0.0) }
        .instantiate()
        .mine_with(&input, &config)
        .unwrap();
    assert_eq!(exact.pattern_set(), degenerate.pattern_set());
    assert!((accuracy(&exact, &degenerate) - 100.0).abs() < 1e-9);
}

/// Runs E-STPM at 1 and 4 threads, APS-growth and A-STPM on one generated
/// dataset at `max_pattern_len`.
fn deep_reports(profile: DatasetProfile, seed: u64, max_pattern_len: usize) -> [EngineReport; 4] {
    let config = StpmConfig {
        max_pattern_len,
        ..small_config(profile)
    };
    let spec = DatasetSpec::real(profile).scaled_to(6, 200).with_seed(seed);
    let data = generate(&spec);
    let dseq = data.dseq().expect("generated data maps to sequences");
    let input = MiningInput::new(&data.dsyb, &dseq, data.mapping_factor);
    let mine = |engine: Engine, config: &StpmConfig| {
        engine
            .instantiate()
            .mine_with(&input, config)
            .expect("valid configuration")
    };
    [
        mine(Engine::Exact, &config.clone().with_threads(1)),
        mine(Engine::Exact, &config.clone().with_threads(4)),
        mine(Engine::ApsGrowth, &config),
        mine(Engine::Approximate { mu: None }, &config),
    ]
}

/// At maxPatternLen 3 level 3 is the terminal, count-only level; at 4 it is
/// extended (non-terminal), and level 4 is terminal with 3-member bindings.
/// Both shapes must keep E-STPM — sequential and sharded — identical to
/// APS-growth in patterns, supports and seasons, and A-STPM inside E-STPM.
#[test]
fn engines_agree_at_pattern_lengths_three_and_four() {
    for profile in [DatasetProfile::Influenza, DatasetProfile::SmartCity] {
        for seed in [1u64, 7, 23] {
            for max_pattern_len in [3usize, 4] {
                let case = format!("{profile:?} seed {seed} maxPatternLen {max_pattern_len}");
                let [exact, sharded, baseline, approx] =
                    deep_reports(profile, seed, max_pattern_len);
                let deepest = exact
                    .stats()
                    .levels
                    .iter()
                    .find(|l| l.k == max_pattern_len)
                    .unwrap_or_else(|| panic!("{case}: the run reaches the last level"));
                assert!(
                    deepest.frequent_patterns > 0,
                    "{case}: the last level must hold frequent patterns"
                );
                let canonical = |r: &EngineReport| canonical_result_set(r.events(), r.patterns());
                assert_eq!(
                    canonical(&exact),
                    canonical(&baseline),
                    "{case}: E-STPM and APS-growth must agree exactly"
                );
                assert_eq!(
                    canonical(&sharded),
                    canonical(&exact),
                    "{case}: 4-thread E-STPM must equal the sequential run"
                );
                let exact_set = exact.pattern_set();
                let approx_set = approx.pattern_set();
                assert!(
                    approx_set.is_subset(&exact_set),
                    "{case}: A-STPM invented patterns: {:?}",
                    approx_set.difference(&exact_set).collect::<Vec<_>>()
                );
            }
        }
    }
}
