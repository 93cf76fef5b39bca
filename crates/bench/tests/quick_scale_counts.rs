//! Pinned pattern counts and exactness checks at quick scale.
//!
//! The renewable-energy (RE) profile is mined single-threaded with
//! `config_for(RE, 0.006, 0.0075, 2)` and `maxPatternLen` 3 — thresholds
//! that exercise both the level-2 pair path and the k ≥ 3 extension path.
//! The counts are deterministic (seeded generators, thread-count-identical
//! mining), so any change to them is a change to what gets mined:
//!
//! * E-STPM's total pattern count along the two database size axes, with
//!   the level-2 verdict-table reuse engaged at every point;
//! * a [`StreamingMiner`] fed arrival batches is identical to a batch
//!   re-mine of the same prefix at every checkpoint;
//! * a miner restored from a mid-stream snapshot, with the un-snapshotted
//!   tail absorbed on top, is identical to the batch re-mine.

use std::collections::BTreeSet;
use stpm_bench::experiments::{config_for, PreparedData};
use stpm_core::{
    canonical_result_set, EngineReport, MiningEngine, StpmConfig, StpmMiner, StreamingMiner,
};
use stpm_datagen::{generate, DatasetProfile, DatasetSpec};
use stpm_timeseries::SymbolicDatabase;

const RE: DatasetProfile = DatasetProfile::RenewableEnergy;

/// Frequent patterns (events + k-event patterns) of the streamed 6 × 180
/// RE database, whatever the batching or crash position.
const STREAM_PATTERNS: usize = 1329;

fn config() -> StpmConfig {
    let mut config = config_for(RE, 0.006, 0.0075, 2);
    config.max_pattern_len = 3;
    config.with_threads(1)
}

fn stream_spec() -> DatasetSpec {
    DatasetSpec::real(RE).scaled_to(6, 180)
}

fn canonical(report: &EngineReport) -> BTreeSet<String> {
    canonical_result_set(report.events(), report.patterns())
}

/// Rebuilds `D_SEQ` of a symbolic prefix, mines it from scratch and
/// returns its canonical result set.
fn remine(dsyb: &SymbolicDatabase, mapping_factor: u64, config: &StpmConfig) -> BTreeSet<String> {
    let dseq = dsyb
        .to_sequence_database(mapping_factor)
        .expect("the prefix holds at least one granule");
    let report = StpmMiner::mine_sequences(&dseq, config).expect("the configuration is valid");
    canonical_result_set(report.events(), report.patterns())
}

#[test]
fn estpm_counts_along_both_size_axes_are_pinned() {
    // (series, sequences, patterns): the events axis at 240 sequences,
    // then the granules axis at 5 series.
    let points = [(4, 240, 109), (6, 240, 443), (5, 120, 266), (5, 240, 185)];
    for (series, sequences, expected) in points {
        let prepared = PreparedData::generate(&DatasetSpec::real(RE).scaled_to(series, sequences));
        let report = StpmMiner
            .mine_with(&prepared.input(), &config())
            .expect("the configuration is valid");
        assert_eq!(
            report.total_patterns(),
            expected,
            "E-STPM pattern count on RE {series}x{sequences}"
        );
        assert!(
            report.classifier_calls_saved() > 0,
            "verdict-table reuse never engaged on RE {series}x{sequences}"
        );
    }
}

#[test]
fn streaming_checkpoints_equal_batch_remines_for_every_batch_size() {
    let data = generate(&stream_spec());
    let config = config();
    let m = data.mapping_factor;
    for (batch_granules, expected_checkpoints) in [(10, 18), (20, 9)] {
        let batches = data.arrival_batches(batch_granules, batch_granules);
        assert_eq!(batches.len(), expected_checkpoints);
        let mut dsyb = batches[0].clone();
        let mut miner = StreamingMiner::new(&config, dsyb.registry()).expect("a valid config");
        let mut final_count = 0;
        for (index, batch) in batches.iter().enumerate() {
            if index > 0 {
                dsyb.append_batch(batch).expect("batches share the schema");
            }
            // The granules the grown database completes beyond the absorbed
            // ones, built the way the facade's streaming pipeline builds them.
            let appended = dsyb
                .granule_sequences(m, miner.num_granules()..dsyb.len() as u64 / m)
                .expect("the grown database extends the absorbed prefix");
            miner
                .append_batch(&appended)
                .expect("appends stay in order");
            let report = miner.checkpoint().expect("a granule has been absorbed");
            assert_eq!(
                canonical(&report),
                remine(&dsyb, m, &config),
                "checkpoint {index} (batch size {batch_granules}) diverged from the batch re-mine"
            );
            final_count = report.total_patterns();
        }
        assert_eq!(final_count, STREAM_PATTERNS, "batch size {batch_granules}");
    }
}

#[test]
fn restore_plus_tail_equals_the_batch_remine_at_every_crash_position() {
    let data = generate(&stream_spec());
    let config = config();
    let dseq = data.dseq().expect("generated data maps to sequences");
    let batch = remine(&data.dsyb, data.mapping_factor, &config);
    for tail_granules in [0_u64, 10] {
        let cut = (dseq.num_granules() - tail_granules) as usize;
        let mut miner = StreamingMiner::new(&config, dseq.registry()).expect("a valid config");
        miner
            .append_batch(&dseq.sequences()[..cut])
            .expect("appends stay in order");
        let mut snapshot = Vec::new();
        miner
            .snapshot(&mut snapshot)
            .expect("serialising to a Vec cannot fail");
        drop(miner);

        let mut restored =
            StreamingMiner::restore(&mut &snapshot[..]).expect("the snapshot was just written");
        restored
            .append_batch(&dseq.sequences()[cut..])
            .expect("the tail continues the snapshot");
        let report = restored.checkpoint().expect("a granule has been absorbed");
        assert_eq!(
            canonical(&report),
            batch,
            "recovery with a {tail_granules}-granule tail diverged from the batch re-mine"
        );
        assert_eq!(
            report.total_patterns(),
            STREAM_PATTERNS,
            "tail {tail_granules}"
        );
    }
}
