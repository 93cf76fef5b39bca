//! Snapshot persistence and crash recovery: restoring a [`StreamingMiner`]
//! or [`StreamingPipeline`] from durable bytes must be *exact* — byte-for-
//! byte identical to never having stopped — and feeding either one corrupt
//! bytes must produce a typed error, never a panic.
//!
//! As elsewhere in the workspace, properties are checked over a
//! deterministic stream of pseudo-random cases drawn from the seedable RNG
//! (no crates.io access), with the case seed printed on failure.

use freqstpfts::core::canonical_result_set as canonical;
use freqstpfts::core::snapshot;
use freqstpfts::datagen::SeededRng;
use freqstpfts::prelude::*;
use std::path::{Path, PathBuf};

fn snapshot_bytes(miner: &mut StreamingMiner) -> Vec<u8> {
    let mut bytes = Vec::new();
    miner.snapshot(&mut bytes).unwrap();
    bytes
}

/// Where [`pipeline_snapshot`] and [`restore`] keep their in-memory files.
const SNAP: &str = "state.snap";
const WAL: &str = "state.wal";

/// The bytes `snapshot_to` writes for a pipeline without a WAL, read back
/// from an in-memory filesystem.
fn pipeline_snapshot(pipeline: &mut StreamingPipeline) -> Vec<u8> {
    let fs = FaultyFs::new();
    pipeline.set_storage(fs.clone());
    pipeline.snapshot_to(SNAP).unwrap();
    fs.peek(Path::new(SNAP)).unwrap()
}

/// Recovers `pipeline` from a snapshot holding `bytes` (and no WAL) on an
/// in-memory filesystem.
fn restore(
    pipeline: &mut StreamingPipeline,
    bytes: &[u8],
) -> Result<RecoveryReport, PipelineError> {
    let fs = FaultyFs::new();
    let mut file = fs.create("test.setup", Path::new(SNAP)).unwrap();
    file.write_all("test.setup", bytes).unwrap();
    drop(file);
    pipeline.set_storage(fs);
    pipeline.recover(Some(Path::new(SNAP)), Path::new(WAL))
}

/// A fresh scratch directory under the system temp dir, wiped on entry so
/// reruns never see stale files.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stpm_snapshot_recovery_{}_{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Cuts `0..total` into random consecutive non-empty batches.
fn random_boundaries(rng: &mut SeededRng, total: usize) -> Vec<(usize, usize)> {
    let mut boundaries = Vec::new();
    let mut cursor = 0usize;
    while cursor < total {
        let step = 1 + rng.next_below(30) as usize;
        let next = (cursor + step).min(total);
        boundaries.push((cursor, next));
        cursor = next;
    }
    boundaries
}

#[test]
fn snapshot_restore_append_is_byte_identical_at_every_checkpoint() {
    // The uninterrupted run snapshots at every batch boundary; then, for
    // every checkpoint k, a second miner is restored from snapshot k and
    // replays the remaining batches, snapshotting at the same boundaries.
    // Every one of its snapshots must be byte-identical to the
    // uninterrupted run's — over random databases, random snapshot points,
    // absolute and fractional thresholds, and thread counts.
    for case in 0..6u64 {
        let mut rng = SeededRng::seed_from_u64(4200 + case);
        let profile = if case % 2 == 0 {
            DatasetProfile::Influenza
        } else {
            DatasetProfile::SmartCity
        };
        let spec = profile_spec(profile, &mut rng);
        let data = generate(&spec);
        let dseq = data.dseq().unwrap();
        let fractional = case % 3 == 0;
        let config = StpmConfig {
            max_period: if fractional {
                Threshold::Fraction(0.03 + 0.01 * (case as f64))
            } else {
                Threshold::Absolute(2 + rng.next_below(3))
            },
            min_density: if fractional {
                Threshold::Fraction(0.02)
            } else {
                Threshold::Absolute(2)
            },
            dist_interval: (2 + rng.next_below(3), 40 + rng.next_below(30)),
            min_season: 1 + rng.next_below(2),
            max_pattern_len: 2 + (case % 2) as usize,
            ..StpmConfig::default()
        }
        .with_threads(if case % 2 == 0 { 1 } else { 3 });
        let boundaries = random_boundaries(&mut rng, dseq.sequences().len());

        let mut uninterrupted = StreamingMiner::new(&config, dseq.registry()).unwrap();
        let mut checkpoints = Vec::new();
        for &(from, to) in &boundaries {
            uninterrupted
                .append_batch(&dseq.sequences()[from..to])
                .unwrap();
            checkpoints.push(snapshot_bytes(&mut uninterrupted));
        }

        for (k, bytes) in checkpoints.iter().enumerate() {
            let mut resumed = StreamingMiner::restore(&mut &bytes[..]).unwrap();
            for (later, &(from, to)) in boundaries.iter().enumerate().skip(k + 1) {
                resumed.append_batch(&dseq.sequences()[from..to]).unwrap();
                assert_eq!(
                    snapshot_bytes(&mut resumed),
                    checkpoints[later],
                    "case {case}: restore at checkpoint {k} diverged at checkpoint {later}"
                );
            }
        }

        // And the final state is exactly what a batch mine reports.
        let report = uninterrupted.checkpoint().unwrap();
        let batch = StpmMiner::mine_sequences(&dseq, &config).unwrap();
        assert_eq!(
            canonical(report.events(), report.patterns()),
            canonical(batch.events(), batch.patterns()),
            "case {case}: final checkpoint diverged from the batch mine"
        );
    }
}

fn profile_spec(profile: DatasetProfile, rng: &mut SeededRng) -> DatasetSpec {
    DatasetSpec::real(profile)
        .scaled_to(4 + rng.next_below(2) as usize, 80 + rng.next_below(40))
        .with_seed(rng.next_below(1000))
}

fn sample_series(samples: usize) -> Vec<TimeSeries> {
    // Deterministic pseudo-seasonal on/off series, long enough to split into
    // many raw-sample batches.
    let mut rng = SeededRng::seed_from_u64(99);
    ["Cooker", "Dishes", "Heater"]
        .iter()
        .map(|name| {
            let values = (0..samples)
                .map(|i| {
                    let seasonal = (i / 6) % 3 == 0;
                    if seasonal || rng.next_below(8) == 0 {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            TimeSeries::new(*name, values)
        })
        .collect()
}

fn chunk(series: &[TimeSeries], from: usize, to: usize) -> Vec<TimeSeries> {
    series
        .iter()
        .map(|s| TimeSeries::new(s.name(), s.values()[from..to].to_vec()))
        .collect()
}

fn stream_builder() -> Pipeline {
    Pipeline::builder()
        .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
        .mapping_factor(3)
        .thresholds(StpmConfig {
            max_period: Threshold::Absolute(3),
            min_density: Threshold::Absolute(2),
            dist_interval: (2, 40),
            min_season: 1,
            max_pattern_len: 2,
            ..StpmConfig::default()
        })
}

#[test]
fn pipeline_snapshot_round_trips_and_resumes_exactly() {
    let series = sample_series(90);
    let mut original = stream_builder().into_streaming();
    original.append(&chunk(&series, 0, 45)).unwrap();

    let bytes = pipeline_snapshot(&mut original);
    assert_eq!(original.pending_granules(), 0);
    assert_eq!(original.checkpoint_meta().checkpoint_id, 1);

    let mut resumed = stream_builder().into_streaming();
    restore(&mut resumed, &bytes).unwrap();
    assert_eq!(resumed.num_granules(), original.num_granules());
    assert_eq!(resumed.dsyb().unwrap(), original.dsyb().unwrap());
    assert_eq!(resumed.checkpoint_meta(), original.checkpoint_meta());

    // Both sides absorb the same tail — reports and databases stay equal.
    let a = original.append(&chunk(&series, 45, 90)).unwrap();
    let b = resumed.append(&chunk(&series, 45, 90)).unwrap();
    assert_eq!(a.events(), b.events());
    assert_eq!(a.patterns(), b.patterns());
    assert_eq!(original.dsyb().unwrap(), resumed.dsyb().unwrap());
    assert_eq!(original.pending_granules(), resumed.pending_granules());
}

#[test]
fn empty_pipeline_snapshot_round_trips() {
    let mut empty = stream_builder().into_streaming();
    let bytes = pipeline_snapshot(&mut empty);
    let mut restored = stream_builder().into_streaming();
    restore(&mut restored, &bytes).unwrap();
    assert_eq!(restored.num_granules(), 0);
    assert_eq!(restored.checkpoint_meta().granules_absorbed, 0);
    let series = sample_series(9);
    restored.append(&chunk(&series, 0, 9)).unwrap();
    assert_eq!(restored.num_granules(), 3);
}

#[test]
fn crash_between_snapshots_loses_nothing_with_a_wal() {
    let dir = scratch_dir("wal_recovery");
    let snap_path = dir.join("state.snap");
    let wal_path = dir.join("state.wal");
    let series = sample_series(90);

    // Session one: snapshot after the first batch, then two more logged
    // appends, then "crash" (drop without snapshotting).
    let mut session_one = stream_builder().into_streaming();
    session_one.attach_wal(&wal_path).unwrap();
    session_one.append(&chunk(&series, 0, 30)).unwrap();
    session_one.snapshot_to(&snap_path).unwrap();
    session_one.append(&chunk(&series, 30, 60)).unwrap();
    session_one.append(&chunk(&series, 60, 90)).unwrap();
    let final_report = session_one.checkpoint().unwrap();
    assert_eq!(session_one.pending_granules(), 20);
    drop(session_one);

    // Session two: recover = restore snapshot + replay the two WAL records.
    let mut session_two = stream_builder().into_streaming();
    let recovery = session_two.recover(Some(&snap_path), &wal_path).unwrap();
    assert_eq!(recovery.restored_granules, 10);
    assert_eq!(recovery.replayed_records, 2);
    assert!(recovery.wal_was_clean);
    assert_eq!(session_two.num_granules(), 30);
    let recovered_report = session_two.checkpoint().unwrap();
    assert_eq!(recovered_report.events(), final_report.events());
    assert_eq!(recovered_report.patterns(), final_report.patterns());

    // The recovered session keeps logging: a third session recovers its
    // post-recovery appends too.
    let more = sample_series(108);
    session_two.append(&chunk(&more, 90, 108)).unwrap();
    let expected = session_two.checkpoint().unwrap();
    drop(session_two);
    let mut session_three = stream_builder().into_streaming();
    let recovery = session_three.recover(Some(&snap_path), &wal_path).unwrap();
    // Replayed records are not re-logged (the WAL already holds them), so
    // the log now holds the two pre-crash batches plus the new one.
    assert_eq!(recovery.replayed_records, 3);
    assert_eq!(session_three.num_granules(), 36);
    let report = session_three.checkpoint().unwrap();
    assert_eq!(report.patterns(), expected.patterns());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_wal_tail_is_dropped_and_the_durable_prefix_recovers() {
    let dir = scratch_dir("torn_tail");
    let wal_path = dir.join("state.wal");
    let series = sample_series(90);

    let mut writer = stream_builder().into_streaming();
    writer.attach_wal(&wal_path).unwrap();
    writer.append(&chunk(&series, 0, 30)).unwrap();
    writer.append(&chunk(&series, 30, 60)).unwrap();
    writer.append(&chunk(&series, 60, 90)).unwrap();
    drop(writer);

    // Simulate a crash mid-append: chop bytes off the last record.
    let full = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &full[..full.len() - 7]).unwrap();

    let mut recovered = stream_builder().into_streaming();
    let recovery = recovered.recover(None, &wal_path).unwrap();
    assert!(!recovery.wal_was_clean);
    assert_eq!(recovery.restored_granules, 0);
    assert_eq!(recovery.replayed_records, 2);
    assert_eq!(recovered.num_granules(), 20);

    // The durable prefix is exactly the first two batches.
    let mut direct = stream_builder().into_streaming();
    direct.append(&chunk(&series, 0, 60)).unwrap();
    let a = recovered.checkpoint().unwrap();
    let b = direct.checkpoint().unwrap();
    assert_eq!(a.events(), b.events());
    assert_eq!(a.patterns(), b.patterns());

    // The torn tail was truncated away: a re-recovery sees a clean log, and
    // new appends extend it.
    recovered.append(&chunk(&series, 60, 90)).unwrap();
    let mut again = stream_builder().into_streaming();
    let recovery = again.recover(None, &wal_path).unwrap();
    assert!(recovery.wal_was_clean);
    assert_eq!(again.num_granules(), 30);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn attach_wal_truncates_a_torn_tail_before_new_appends() {
    // A crash mid-append leaves a torn record; a session that reconstructs
    // the durable prefix itself and then attaches the WAL directly must not
    // append after the torn bytes — records there would be unreachable to
    // every later recovery.
    let dir = scratch_dir("attach_torn");
    let wal_path = dir.join("state.wal");
    let series = sample_series(60);
    let mut writer = stream_builder().into_streaming();
    writer.attach_wal(&wal_path).unwrap();
    writer.append(&chunk(&series, 0, 30)).unwrap();
    writer.append(&chunk(&series, 30, 60)).unwrap();
    drop(writer);
    let full = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &full[..full.len() - 5]).unwrap();

    let mut session = stream_builder().into_streaming();
    session.append(&chunk(&series, 0, 30)).unwrap();
    session.attach_wal(&wal_path).unwrap();
    session.append(&chunk(&series, 30, 60)).unwrap();
    drop(session);

    // Both batches are reachable: the torn record was cut before the append.
    let mut recovered = stream_builder().into_streaming();
    let recovery = recovered.recover(None, &wal_path).unwrap();
    assert!(recovery.wal_was_clean);
    assert_eq!(recovery.replayed_records, 2);
    assert_eq!(recovered.num_granules(), 20);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn attach_wal_rejects_a_file_that_is_not_a_wal() {
    let dir = scratch_dir("attach_foreign");
    let path = dir.join("not_a_wal.bin");
    std::fs::write(&path, b"definitely not a WAL header").unwrap();
    let mut pipeline = stream_builder().into_streaming();
    let err = pipeline.attach_wal(&path).unwrap_err();
    assert!(matches!(err, PipelineError::Persistence(_)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_snapshot_to_keeps_the_wal_and_the_pending_accounting() {
    let dir = scratch_dir("failed_snapshot");
    let wal_path = dir.join("state.wal");
    let series = sample_series(60);
    let mut stream = stream_builder().into_streaming();
    stream.attach_wal(&wal_path).unwrap();
    stream.append(&chunk(&series, 0, 30)).unwrap();
    stream.append(&chunk(&series, 30, 60)).unwrap();
    let before = stream.checkpoint_meta();
    assert_eq!(before.pending_granules, 20);

    // The target's parent directory does not exist: nothing can become
    // durable, so nothing may claim to be.
    let missing = dir.join("no_such_dir").join("state.snap");
    let err = stream.snapshot_to(&missing).unwrap_err();
    assert!(matches!(err, PipelineError::Persistence(_)));
    assert_eq!(stream.checkpoint_meta(), before);
    drop(stream);

    // The WAL was not truncated: a recovery still replays every batch.
    let mut recovered = stream_builder().into_streaming();
    let recovery = recovered.recover(None, &wal_path).unwrap();
    assert_eq!(recovery.replayed_records, 2);
    assert_eq!(recovered.num_granules(), 20);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_to_leaves_no_temp_file_and_truncates_the_wal() {
    let dir = scratch_dir("atomic_snapshot");
    let snap_path = dir.join("state.snap");
    let wal_path = dir.join("state.wal");
    let series = sample_series(30);
    let mut stream = stream_builder().into_streaming();
    stream.attach_wal(&wal_path).unwrap();
    stream.append(&chunk(&series, 0, 30)).unwrap();
    let header_len = snapshot::wal_header().len() as u64;
    assert!(std::fs::metadata(&wal_path).unwrap().len() > header_len);
    stream.snapshot_to(&snap_path).unwrap();
    assert_eq!(stream.pending_granules(), 0);
    assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), header_len);
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|n| n.to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    let mut restored = stream_builder().into_streaming();
    restored
        .recover(Some(&snap_path), &dir.join("restored.wal"))
        .unwrap();
    assert_eq!(restored.num_granules(), 10);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_from_nothing_starts_empty_and_creates_the_wal() {
    let dir = scratch_dir("from_nothing");
    let mut pipeline = stream_builder().into_streaming();
    let recovery = pipeline
        .recover(Some(&dir.join("missing.snap")), &dir.join("fresh.wal"))
        .unwrap();
    assert_eq!(
        recovery,
        RecoveryReport {
            restored_granules: 0,
            replayed_records: 0,
            wal_was_clean: true,
            io_retries: 0,
        }
    );
    let series = sample_series(30);
    pipeline.append(&chunk(&series, 0, 30)).unwrap();
    assert!(dir.join("fresh.wal").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_pipeline_snapshot_truncation_is_a_typed_error() {
    let series = sample_series(45);
    let mut original = stream_builder().into_streaming();
    original.append(&chunk(&series, 0, 45)).unwrap();
    let bytes = pipeline_snapshot(&mut original);

    // An empty file is what a crash leaves before the first byte of a
    // non-atomic copy, so recovery starts empty from it; every other
    // truncation is an error.
    let mut target = stream_builder().into_streaming();
    assert_eq!(restore(&mut target, &[]).unwrap().restored_granules, 0);
    for len in 1..bytes.len() {
        let mut target = stream_builder().into_streaming();
        let err =
            restore(&mut target, &bytes[..len]).expect_err("truncated snapshot must not restore");
        assert!(
            matches!(err, PipelineError::Persistence(_)),
            "truncation to {len} bytes produced {err:?}"
        );
    }
}

#[test]
fn random_bit_flips_in_a_pipeline_snapshot_never_panic() {
    let series = sample_series(45);
    let mut original = stream_builder().into_streaming();
    original.append(&chunk(&series, 0, 45)).unwrap();
    let bytes = pipeline_snapshot(&mut original);

    let mut rng = SeededRng::seed_from_u64(77);
    for flip in 0..300 {
        let offset = rng.next_below(bytes.len() as u64) as usize;
        let bit = rng.next_below(8) as u8;
        let mut corrupt = bytes.clone();
        corrupt[offset] ^= 1 << bit;
        let mut target = stream_builder().into_streaming();
        let result = restore(&mut target, &corrupt);
        assert!(
            result.is_err(),
            "flip {flip}: bit {bit} of byte {offset} went undetected"
        );
    }
}

#[test]
fn wal_bit_flips_recover_the_durable_prefix_or_error_but_never_panic() {
    let dir = scratch_dir("wal_flips");
    let wal_path = dir.join("state.wal");
    let series = sample_series(60);
    let mut writer = stream_builder().into_streaming();
    writer.attach_wal(&wal_path).unwrap();
    writer.append(&chunk(&series, 0, 30)).unwrap();
    writer.append(&chunk(&series, 30, 60)).unwrap();
    drop(writer);
    let pristine = std::fs::read(&wal_path).unwrap();

    let mut rng = SeededRng::seed_from_u64(78);
    for _ in 0..150 {
        let offset = rng.next_below(pristine.len() as u64) as usize;
        let mut corrupt = pristine.clone();
        corrupt[offset] ^= 1 << (offset % 8);
        std::fs::write(&wal_path, &corrupt).unwrap();
        let mut pipeline = stream_builder().into_streaming();
        // Either the header is damaged (typed error) or a record is dropped
        // (clean recovery of the prefix); both are acceptable — panicking or
        // silently absorbing corrupt data is not.
        match pipeline.recover(None, &wal_path) {
            Ok(recovery) => assert!(recovery.replayed_records <= 2),
            Err(err) => assert!(matches!(err, PipelineError::Persistence(_))),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_mismatches_surface_as_typed_errors() {
    let series = sample_series(45);
    let mut original = stream_builder().into_streaming();
    original.append(&chunk(&series, 0, 45)).unwrap();
    let bytes = pipeline_snapshot(&mut original);

    // A different mapping factor re-shapes every granule: rejected.
    let mut other_m = Pipeline::builder()
        .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
        .mapping_factor(5)
        .thresholds(StpmConfig {
            max_period: Threshold::Absolute(3),
            min_density: Threshold::Absolute(2),
            dist_interval: (2, 40),
            min_season: 1,
            max_pattern_len: 2,
            ..StpmConfig::default()
        })
        .into_streaming();
    let err = restore(&mut other_m, &bytes).unwrap_err();
    assert!(matches!(
        err,
        PipelineError::Persistence(freqstpfts::core::Error::SnapshotConfigMismatch {
            parameter: "mappingFactor",
            ..
        })
    ));

    // A different ε re-shapes the interned relations: rejected.
    let mut config = StpmConfig {
        max_period: Threshold::Absolute(3),
        min_density: Threshold::Absolute(2),
        dist_interval: (2, 40),
        min_season: 1,
        max_pattern_len: 2,
        ..StpmConfig::default()
    };
    config.epsilon += 1;
    let mut other_eps = Pipeline::builder()
        .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
        .mapping_factor(3)
        .thresholds(config)
        .into_streaming();
    let err = restore(&mut other_eps, &bytes).unwrap_err();
    assert!(matches!(
        err,
        PipelineError::Persistence(freqstpfts::core::Error::SnapshotConfigMismatch {
            parameter: "epsilon",
            ..
        })
    ));
}

#[test]
fn recovery_with_mismatched_config_is_typed_under_injected_faults() {
    // The restore_with config check must hold even when the bytes arrive
    // through a faulty storage backend: a transient read fault is retried
    // away, and what surfaces is still the typed mismatch — not an I/O
    // error, and never a panic.
    let fs = FaultyFs::new();
    let snap = std::path::Path::new("mismatch/state.snap");
    let wal = std::path::Path::new("mismatch/state.wal");
    let series = sample_series(18);
    let mut writer = stream_builder().into_streaming();
    writer.set_storage(fs.clone());
    writer.attach_wal(wal).unwrap();
    writer.append(&chunk(&series, 0, 18)).unwrap();
    writer.snapshot_to(snap).unwrap();
    drop(writer);
    fs.crash(); // only fsync-committed state survives

    fs.transient_nth(failpoints::RECOVER_READ_SNAPSHOT, 1, 1);
    let mut mismatched = Pipeline::builder()
        .symbolizer(ThresholdSymbolizer::binary(0.5, "0", "1"))
        .mapping_factor(3)
        .thresholds(StpmConfig {
            max_period: Threshold::Absolute(3),
            min_density: Threshold::Absolute(2),
            dist_interval: (2, 40),
            min_season: 1,
            max_pattern_len: 3, // shapes absorbed state: mismatch
            ..StpmConfig::default()
        })
        .into_streaming();
    mismatched.set_storage(fs.clone());
    mismatched.set_retry_policy(RetryPolicy::immediate(3));
    let err = mismatched.recover(Some(snap), wal).unwrap_err();
    assert!(
        matches!(
            err,
            PipelineError::Persistence(freqstpfts::core::Error::SnapshotConfigMismatch {
                parameter: "maxPatternLen",
                ..
            })
        ),
        "{err:?}"
    );
    // The retry really happened before the typed error surfaced.
    assert_eq!(mismatched.io_retries(), 1);

    // A matching pipeline recovers the same bytes without complaint.
    let mut matching = stream_builder().into_streaming();
    matching.set_storage(fs.clone());
    matching.recover(Some(snap), wal).unwrap();
    assert_eq!(matching.num_granules(), 6);
}

#[test]
fn seasonal_threshold_changes_replay_trackers_on_restore() {
    // Restoring under relaxed seasonality thresholds is legal — the restored
    // state must equal a fresh run entirely under the new thresholds.
    let mut rng = SeededRng::seed_from_u64(4321);
    let spec = profile_spec(DatasetProfile::RenewableEnergy, &mut rng);
    let data = generate(&spec);
    let dseq = data.dseq().unwrap();
    let strict = StpmConfig {
        max_period: Threshold::Absolute(2),
        min_density: Threshold::Absolute(3),
        dist_interval: (3, 50),
        min_season: 2,
        max_pattern_len: 2,
        ..StpmConfig::default()
    };
    let mut miner = StreamingMiner::new(&strict, dseq.registry()).unwrap();
    miner.append_batch(dseq.sequences()).unwrap();
    let bytes = snapshot_bytes(&mut miner);

    let relaxed = StpmConfig {
        max_period: Threshold::Absolute(4),
        min_density: Threshold::Absolute(2),
        dist_interval: (2, 70),
        min_season: 1,
        ..strict.clone()
    };
    let restored = StreamingMiner::restore_with(&relaxed, &mut &bytes[..]).unwrap();
    let report = restored.checkpoint().unwrap();
    let batch = StpmMiner::mine_sequences(&dseq, &relaxed).unwrap();
    assert_eq!(
        canonical(report.events(), report.patterns()),
        canonical(batch.events(), batch.patterns())
    );
}

#[test]
fn future_format_versions_are_rejected_with_the_version_error() {
    let series = sample_series(45);
    let mut original = stream_builder().into_streaming();
    original.append(&chunk(&series, 0, 45)).unwrap();
    let mut bytes = pipeline_snapshot(&mut original);
    bytes[8..12].copy_from_slice(&2025u32.to_le_bytes());
    let mut target = stream_builder().into_streaming();
    assert!(matches!(
        restore(&mut target, &bytes),
        Err(PipelineError::Persistence(
            freqstpfts::core::Error::SnapshotVersion { found: 2025, .. }
        ))
    ));
    // Same contract for the WAL.
    let mut wal = snapshot::wal_header().to_vec();
    wal[8..12].copy_from_slice(&2025u32.to_le_bytes());
    assert!(matches!(
        snapshot::wal_read(&wal),
        Err(freqstpfts::core::Error::SnapshotVersion { found: 2025, .. })
    ));
}

/// One series over an alphabet of `labels` labels, using the first two.
fn wide_batch(labels: usize) -> SymbolicDatabase {
    let alphabet = Alphabet::new((0..labels).map(|i| format!("s{i}")).collect()).unwrap();
    let symbols = [0, 1, 1, 0, 1, 1]
        .map(freqstpfts::timeseries::SymbolId)
        .to_vec();
    SymbolicDatabase::new(vec![SymbolicSeries::new("Wide".into(), symbols, alphabet)]).unwrap()
}

#[test]
fn alphabets_past_the_u16_symbol_space_are_refused_before_they_are_logged() {
    let fs = FaultyFs::new();
    let wal = Path::new("wide/state.wal");
    let mut stream = stream_builder().into_streaming();
    stream.set_storage(fs.clone());
    stream.attach_wal(wal).unwrap();

    // 65 536 labels is the whole u16 symbol space: logged and replayed.
    stream.append_symbolic(&wide_batch(1 << 16)).unwrap();
    let logged = fs.peek(wal).unwrap();
    drop(stream);
    fs.crash();
    let mut recovered = stream_builder().into_streaming();
    recovered.set_storage(fs.clone());
    let report = recovered.recover(None, wal).unwrap();
    assert_eq!(report.replayed_records, 1);
    assert_eq!(recovered.num_granules(), 2);
    assert_eq!(
        recovered.dsyb().unwrap().series()[0].alphabet().len(),
        1 << 16
    );

    // One more label could be logged but never decoded again: refused
    // before it is absorbed, and nothing reaches the log.
    let appends = fs.op_count(failpoints::WAL_APPEND);
    let err = recovered
        .append_symbolic(&wide_batch((1 << 16) + 1))
        .unwrap_err();
    assert!(
        matches!(
            err,
            PipelineError::Transform(freqstpfts::timeseries::Error::InvalidAlphabet { .. })
        ),
        "{err:?}"
    );
    assert_eq!(fs.op_count(failpoints::WAL_APPEND), appends);
    assert_eq!(fs.peek(wal).unwrap(), logged);
    assert_eq!(recovered.num_granules(), 2);
}
