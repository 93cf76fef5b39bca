//! Parallel mining must be indistinguishable from sequential mining: the
//! sharded level miners partition the candidate space and merge the
//! per-shard results in shard order, so for every thread count the engines
//! must produce *identical* reports — same patterns, same order, same
//! supports — on the paper's running example and on seeded random databases.

use freqstpfts::prelude::*;

/// The paper's running example (Table II / Table IV): five appliance series
/// at 5-minute granularity, mapped to 14 granules of 15 minutes.
fn paper_dsyb() -> SymbolicDatabase {
    let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
    let rows: &[(&str, &str)] = &[
        ("C", "110100110000000000111111000000100110000110"),
        ("D", "100100110110000000111111000000100100110110"),
        ("F", "001011001001111000000000111111001001001001"),
        ("M", "111100111110111111000111111111111000111000"),
        ("N", "110111111110111111000000111111111111111000"),
    ];
    let series: Vec<SymbolicSeries> = rows
        .iter()
        .map(|(name, bits)| {
            let labels: Vec<&str> = bits
                .chars()
                .map(|c| if c == '1' { "1" } else { "0" })
                .collect();
            SymbolicSeries::from_labels(name, &labels, alphabet.clone()).unwrap()
        })
        .collect();
    SymbolicDatabase::new(series).unwrap()
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

fn mine_exact(dsyb: &SymbolicDatabase, config: &StpmConfig, threads: usize) -> MiningReport {
    let dseq = dsyb.to_sequence_database(3).unwrap();
    let input = MiningInput::new(dsyb, &dseq, 3);
    StpmMiner
        .mine_with(&input, &config.clone().with_threads(threads))
        .unwrap()
        .into_report()
}

/// Asserts full report identity: events, patterns (order included), supports
/// and per-level statistics.
fn assert_identical(sequential: &MiningReport, parallel: &MiningReport, context: &str) {
    assert_eq!(
        parallel.events(),
        sequential.events(),
        "events diverged: {context}"
    );
    assert_eq!(
        parallel.patterns(),
        sequential.patterns(),
        "patterns diverged: {context}"
    );
    assert_eq!(
        parallel.stats().levels,
        sequential.stats().levels,
        "level stats diverged: {context}"
    );
}

#[test]
fn parallel_equals_sequential_on_the_paper_example() {
    let dsyb = paper_dsyb();
    let config = paper_config();
    let sequential = mine_exact(&dsyb, &config, 1);
    assert!(sequential.total_patterns() > 0, "example must yield output");
    for threads in [2, 3, 4, 8] {
        let parallel = mine_exact(&dsyb, &config, threads);
        assert_identical(&sequential, &parallel, &format!("{threads} threads"));
    }
}

#[test]
fn parallel_equals_sequential_on_seeded_random_databases() {
    for seed in [7, 42, 1234] {
        let spec = DatasetSpec::real(DatasetProfile::RenewableEnergy)
            .scaled_to(6, 240)
            .with_seed(seed);
        let data = generate(&spec);
        let dseq = data.dseq().expect("generated data maps to sequences");
        let input = MiningInput::new(&data.dsyb, &dseq, data.mapping_factor);
        let config = StpmConfig {
            max_period: Threshold::Fraction(0.02),
            min_density: Threshold::Fraction(0.01),
            dist_interval: DatasetProfile::RenewableEnergy.dist_interval(),
            min_season: 2,
            max_pattern_len: 3,
            ..StpmConfig::default()
        };
        let sequential = StpmMiner.mine_with(&input, &config).unwrap();
        for threads in [2, 4] {
            let parallel = StpmMiner
                .mine_with(&input, &config.clone().with_threads(threads))
                .unwrap();
            assert_eq!(
                parallel.pattern_set(),
                sequential.pattern_set(),
                "pattern sets diverged with {threads} threads on seed {seed}"
            );
            assert_identical(
                sequential.report(),
                parallel.report(),
                &format!("seed {seed}, {threads} threads"),
            );
        }
    }
}

#[test]
fn parallel_engines_agree_through_the_pipeline() {
    // The facade's threads knob reaches all engines that mine levels; the
    // pattern sets must match the sequential run for each of them.
    let dsyb = paper_dsyb();
    for engine in [Engine::Exact, Engine::Approximate { mu: None }] {
        let run = |threads: usize| {
            Pipeline::builder()
                .mapping_factor(3)
                .engine(engine)
                .thresholds(paper_config())
                .threads(threads)
                .run_symbolic(&dsyb)
                .unwrap()
                .report
        };
        let sequential = run(1);
        let parallel = run(4);
        assert_eq!(parallel.pattern_set(), sequential.pattern_set());
        assert_eq!(parallel.patterns(), sequential.patterns());
    }
}
