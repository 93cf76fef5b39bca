//! Streaming/batch equivalence: the incremental [`StreamingMiner`] must
//! report, at every checkpoint, exactly what a from-scratch batch re-mine of
//! the same prefix reports — patterns, supports and seasons — for random
//! databases, random batch boundaries (empty batches and batches that split
//! a season at the tail included), absolute and fractional thresholds, and
//! any thread count.
//!
//! As elsewhere in the workspace, properties are checked over a
//! deterministic stream of pseudo-random cases drawn from the seedable RNG
//! (no crates.io access), with the case seed printed on failure.

use freqstpfts::core::canonical_result_set as canonical;
use freqstpfts::datagen::SeededRng;
use freqstpfts::prelude::*;
use freqstpfts::timeseries::SequenceDatabase;

/// Cuts `0..total` into random consecutive batches, with at least one empty
/// batch always present.
fn random_boundaries(rng: &mut SeededRng, total: usize) -> Vec<(usize, usize)> {
    let mut boundaries = Vec::new();
    let mut cursor = 0usize;
    while cursor < total {
        if rng.next_below(5) == 0 {
            boundaries.push((cursor, cursor)); // empty batch
        }
        let step = 1 + rng.next_below(40) as usize;
        let next = (cursor + step).min(total);
        boundaries.push((cursor, next));
        cursor = next;
    }
    if !boundaries.iter().any(|(from, to)| from == to) {
        let at = rng.next_below(boundaries.len() as u64) as usize;
        let position = boundaries[at].0;
        boundaries.insert(at, (position, position));
    }
    boundaries
}

/// Streams `dseq` through the miner along `boundaries`, asserting
/// batch-equivalence at every checkpoint.
fn assert_stream_equals_batch(
    dseq: &SequenceDatabase,
    config: &StpmConfig,
    boundaries: &[(usize, usize)],
    seed: u64,
) {
    let mut miner = StreamingMiner::new(config, dseq.registry()).unwrap();
    for &(from, to) in boundaries {
        miner.append_batch(&dseq.sequences()[from..to]).unwrap();
        if to == 0 {
            continue; // nothing absorbed yet: no checkpoint to compare
        }
        let report = miner.checkpoint().unwrap();
        let batch = StpmMiner::mine_sequences(&dseq.truncated(to), config).unwrap();
        assert_eq!(
            canonical(report.events(), report.patterns()),
            canonical(batch.events(), batch.patterns()),
            "seed {seed}: checkpoint at granule {to} diverged"
        );
    }
    assert_eq!(miner.num_granules(), dseq.num_granules());
}

#[test]
fn streaming_matches_batch_on_random_databases_and_boundaries() {
    for case in 0..10u64 {
        let mut rng = SeededRng::seed_from_u64(case);
        let spec = DatasetSpec::real(DatasetProfile::Influenza)
            .scaled_to(5, 100 + rng.next_below(60))
            .with_seed(rng.next_below(1000));
        let data = generate(&spec);
        let dseq = data.dseq().unwrap();
        let config = StpmConfig {
            max_period: Threshold::Absolute(2 + rng.next_below(4)),
            min_density: Threshold::Absolute(2 + rng.next_below(3)),
            dist_interval: (2 + rng.next_below(4), 40 + rng.next_below(40)),
            min_season: 1 + rng.next_below(3),
            max_pattern_len: 2 + rng.next_below(2) as usize,
            ..StpmConfig::default()
        };
        let boundaries = random_boundaries(&mut rng, dseq.sequences().len());
        assert!(
            boundaries.iter().any(|(from, to)| from == to),
            "case {case}: the boundary generator should produce empty batches"
        );
        assert_stream_equals_batch(&dseq, &config, &boundaries, case);
    }
}

#[test]
fn streaming_matches_batch_under_fractional_thresholds() {
    // Fractional thresholds re-resolve as the prefix grows, forcing the
    // tracker-replay fallback at some checkpoints; exactness must survive.
    for case in 0..4u64 {
        let mut rng = SeededRng::seed_from_u64(1000 + case);
        let spec = DatasetSpec::real(DatasetProfile::SmartCity)
            .scaled_to(5, 140)
            .with_seed(rng.next_below(500));
        let data = generate(&spec);
        let dseq = data.dseq().unwrap();
        let config = StpmConfig {
            max_period: Threshold::Fraction(0.02 + 0.02 * (case as f64)),
            min_density: Threshold::Fraction(0.015),
            dist_interval: (2, 60),
            min_season: 2,
            max_pattern_len: 2,
            ..StpmConfig::default()
        };
        let boundaries = random_boundaries(&mut rng, dseq.sequences().len());
        assert_stream_equals_batch(&dseq, &config, &boundaries, 1000 + case);
    }
}

#[test]
fn a_batch_boundary_splitting_a_tail_season_is_absorbed_exactly() {
    // Two seasons of C:1·D:1 co-occurrence; the second season straddles the
    // append boundary (granules 8..10 arrive first, 11..12 later), so the
    // tail season must *grow* across appends, not be rebuilt or duplicated.
    let on = "111"; // one granule (m = 3) of the "1" event
    let off = "000";
    let season = [on, on, on];
    let gap = [off, off, off, off];
    let mut bits = String::new();
    for block in season.iter().chain(gap.iter()).chain(season.iter()) {
        bits.push_str(block);
    }
    bits.push_str(on); // a fourth granule extending the second season
    bits.push_str(off);
    let series: Vec<TimeSeries> = ["C", "D"]
        .iter()
        .map(|name| {
            TimeSeries::new(
                *name,
                bits.chars()
                    .map(|c| if c == '1' { 1.0 } else { 0.0 })
                    .collect::<Vec<f64>>(),
            )
        })
        .collect();
    let dsyb = SymbolicDatabase::from_series(&series, &ThresholdSymbolizer::binary(0.5, "0", "1"))
        .unwrap();
    let dseq = dsyb.to_sequence_database(3).unwrap();
    let config = StpmConfig {
        max_period: Threshold::Absolute(1),
        min_density: Threshold::Absolute(2),
        dist_interval: (2, 10),
        min_season: 2,
        max_pattern_len: 2,
        ..StpmConfig::default()
    };
    let total = dseq.sequences().len();
    // Split mid-way through the second season (after its first granule).
    let split = 9;
    assert!(split < total);
    let boundaries = [(0, split), (split, total)];
    assert_stream_equals_batch(&dseq, &config, &boundaries, 9999);
    // Sanity: the data really is seasonal — the final batch mine finds the
    // C:1 ≽/≬/→ D:1 family with two seasons.
    let report = StpmMiner::mine_sequences(&dseq, &config).unwrap();
    assert!(
        report.patterns().iter().any(|p| p.seasons().count() >= 2),
        "expected a two-season pattern"
    );
}

#[test]
fn streaming_with_threads_is_byte_identical_to_sequential() {
    let data = generate(
        &DatasetSpec::real(DatasetProfile::RenewableEnergy)
            .scaled_to(6, 150)
            .with_seed(7),
    );
    let dseq = data.dseq().unwrap();
    let base = StpmConfig {
        max_period: Threshold::Absolute(3),
        min_density: Threshold::Absolute(2),
        dist_interval: (2, 60),
        min_season: 2,
        max_pattern_len: 3,
        ..StpmConfig::default()
    };
    let mut sequential = StreamingMiner::new(&base, dseq.registry()).unwrap();
    let mut checkpoints = Vec::new();
    for chunk in dseq.sequences().chunks(37) {
        sequential.append_batch(chunk).unwrap();
        checkpoints.push(sequential.checkpoint().unwrap());
    }
    for threads in [2, 5] {
        let config = base.clone().with_threads(threads);
        let mut miner = StreamingMiner::new(&config, dseq.registry()).unwrap();
        for (chunk, reference) in dseq.sequences().chunks(37).zip(&checkpoints) {
            miner.append_batch(chunk).unwrap();
            let report = miner.checkpoint().unwrap();
            // Byte-identical: same events, same patterns, same order, same
            // per-level stats.
            assert_eq!(report.events(), reference.events());
            assert_eq!(report.patterns(), reference.patterns());
            assert_eq!(report.stats().levels, reference.stats().levels);
            assert_eq!(report.memory_bytes(), reference.memory_bytes());
        }
    }
}

#[test]
fn streaming_pipeline_replays_arrival_batches_exactly() {
    // End-to-end through the facade: the datagen batched-arrival profile is
    // replayed through a StreamingPipeline; every checkpoint matches a batch
    // Pipeline run over the accumulated prefix.
    let data = generate(
        &DatasetSpec::real(DatasetProfile::Influenza)
            .scaled_to(5, 120)
            .with_seed(3),
    );
    let config = StpmConfig {
        max_period: Threshold::Absolute(3),
        min_density: Threshold::Absolute(2),
        dist_interval: (2, 50),
        min_season: 2,
        max_pattern_len: 2,
        ..StpmConfig::default()
    };
    let m = data.mapping_factor;
    let mut stream = Pipeline::builder()
        .mapping_factor(m)
        .thresholds(config.clone())
        .into_streaming();
    let batch_pipeline = Pipeline::builder().mapping_factor(m).thresholds(config);
    let mut accumulated: Option<SymbolicDatabase> = None;
    for batch in data.arrival_batches(40, 25) {
        let report = stream.append_symbolic(&batch).unwrap();
        match &mut accumulated {
            Some(db) => db.append_batch(&batch).unwrap(),
            None => accumulated = Some(batch.clone()),
        }
        let outcome = batch_pipeline
            .run_symbolic(accumulated.as_ref().unwrap())
            .unwrap();
        assert_eq!(
            canonical(report.events(), report.patterns()),
            canonical(outcome.report.events(), outcome.report.patterns())
        );
    }
    assert_eq!(stream.num_granules(), 120);
}
