//! Cross-crate integration tests: the full pipeline from raw time series to
//! frequent seasonal temporal patterns, exercised through the facade crate's
//! `Pipeline` builder, with the three engines compared on the same data.

use freqstpfts::prelude::*;

/// The paper's running example (Table II) as raw energy readings.
fn paper_series() -> Vec<TimeSeries> {
    let rows: &[(&str, &str)] = &[
        ("C", "110100110000000000111111000000100110000110"),
        ("D", "100100110110000000111111000000100100110110"),
        ("F", "001011001001111000000000111111001001001001"),
        ("M", "111100111110111111000111111111111000111000"),
        ("N", "110111111110111111000000111111111111111000"),
    ];
    rows.iter()
        .map(|(name, bits)| {
            TimeSeries::new(
                *name,
                bits.chars()
                    .map(|c| if c == '1' { 1.5 } else { 0.0 })
                    .collect(),
            )
        })
        .collect()
}

fn paper_config() -> StpmConfig {
    StpmConfig {
        max_period: Threshold::Absolute(2),
        min_density: Threshold::Absolute(2),
        dist_interval: (3, 10),
        min_season: 2,
        max_pattern_len: 3,
        ..StpmConfig::default()
    }
}

fn paper_pipeline(engine: Engine) -> Pipeline {
    Pipeline::builder()
        .symbolizer(ThresholdSymbolizer::binary(0.1, "0", "1"))
        .mapping_factor(3)
        .engine(engine)
        .thresholds(paper_config())
}

#[test]
fn full_pipeline_reproduces_the_paper_running_example() {
    let outcome = paper_pipeline(Engine::Exact)
        .run(&paper_series())
        .expect("the running example is valid");

    let dsyb = outcome.dsyb.as_ref().expect("run() builds D_SYB");
    assert_eq!(dsyb.num_series(), 5);
    assert_eq!(outcome.dseq.num_granules(), 14);

    // The headline pattern of the paper: C:1 contains D:1, with support
    // {H1,H2,H3,H7,H8,H11,H12,H14}.
    let c1 = outcome.report.registry().label("C", "1").unwrap();
    let d1 = outcome.report.registry().label("D", "1").unwrap();
    let target = TemporalPattern::pair([c1, d1], RelationKind::Contains, false);
    let found = outcome
        .report
        .patterns()
        .iter()
        .find(|p| p.pattern() == &target)
        .expect("C:1 ≽ D:1 must be frequent");
    assert_eq!(found.support(), &[1, 2, 3, 7, 8, 11, 12, 14]);
}

#[test]
fn exact_and_baseline_agree_on_strongly_seasonal_patterns() {
    let exact = paper_pipeline(Engine::Exact).run(&paper_series()).unwrap();
    let baseline = paper_pipeline(Engine::ApsGrowth)
        .run(&paper_series())
        .unwrap();

    // Everything the baseline reports must also be reported by E-STPM.
    for pattern in baseline.report.patterns() {
        assert!(exact.report.contains_pattern(pattern.pattern()));
    }
    // And the baseline does find the headline pattern here.
    assert!(baseline.report.total_patterns() > 0);
}

#[test]
fn approximate_engine_matches_exact_when_nothing_is_pruned() {
    let exact = paper_pipeline(Engine::Exact).run(&paper_series()).unwrap();
    let approx = paper_pipeline(Engine::Approximate { mu: Some(0.0) })
        .run(&paper_series())
        .unwrap();
    let acc = accuracy(&exact.report, &approx.report);
    assert!((acc - 100.0).abs() < 1e-9);
}

#[test]
fn generated_datasets_flow_through_all_three_engines() {
    let spec = DatasetSpec::real(DatasetProfile::HandFootMouth)
        .scaled_to(8, 240)
        .with_seed(5);
    let data = generate(&spec);
    let config = StpmConfig {
        max_period: Threshold::Fraction(0.01),
        min_density: Threshold::Fraction(0.0075),
        dist_interval: DatasetProfile::HandFootMouth.dist_interval(),
        min_season: 2,
        max_pattern_len: 2,
        ..StpmConfig::default()
    };

    let run = |engine: Engine| {
        Pipeline::builder()
            .mapping_factor(data.mapping_factor)
            .engine(engine)
            .thresholds(config.clone())
            .run_symbolic(&data.dsyb)
            .expect("generated data is valid")
            .report
    };
    let exact = run(Engine::Exact);
    let approx = run(Engine::Approximate { mu: None });
    let baseline = run(Engine::ApsGrowth);

    // The exact miner dominates both others in recall on the same thresholds.
    assert!(exact.total_patterns() >= approx.total_patterns());
    for p in baseline.patterns() {
        assert!(exact.contains_pattern(p.pattern()));
    }
    // The generated workload is genuinely seasonal: patterns exist.
    assert!(exact.total_patterns() > 0);
}

#[test]
fn pruning_modes_are_output_equivalent_on_generated_data() {
    let spec = DatasetSpec::real(DatasetProfile::SmartCity)
        .scaled_to(7, 208)
        .with_seed(3);
    let data = generate(&spec);
    let base = StpmConfig {
        max_period: Threshold::Fraction(0.01),
        min_density: Threshold::Fraction(0.01),
        dist_interval: DatasetProfile::SmartCity.dist_interval(),
        min_season: 2,
        max_pattern_len: 3,
        ..StpmConfig::default()
    };
    let mut totals = Vec::new();
    for mode in PruningMode::all_modes() {
        let outcome = Pipeline::builder()
            .mapping_factor(data.mapping_factor)
            .thresholds(base.clone().with_pruning(mode))
            .run_symbolic(&data.dsyb)
            .unwrap();
        totals.push(outcome.report.total_patterns());
    }
    assert!(totals.windows(2).all(|w| w[0] == w[1]), "{totals:?}");
}

#[test]
fn mining_at_different_granularities_is_consistent() {
    // Definition 3.11: different sequence mappings give different D_SEQ; the
    // miner must work at every granularity and coarser granularities cannot
    // have more granules.
    let series = paper_series();
    let config = StpmConfig {
        max_period: Threshold::Absolute(2),
        min_density: Threshold::Absolute(2),
        dist_interval: (1, 20),
        min_season: 1,
        max_pattern_len: 2,
        ..StpmConfig::default()
    };
    let mut previous_granules = u64::MAX;
    for m in [1u64, 2, 3, 6] {
        let outcome = Pipeline::builder()
            .symbolizer(ThresholdSymbolizer::binary(0.1, "0", "1"))
            .mapping_factor(m)
            .thresholds(config.clone())
            .run(&series)
            .unwrap();
        assert!(outcome.dseq.num_granules() <= previous_granules);
        previous_granules = outcome.dseq.num_granules();
        assert_eq!(
            outcome.report.stats().num_granules,
            outcome.dseq.num_granules()
        );
    }
}
