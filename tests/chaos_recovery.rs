//! Chaos harness: deterministic fault injection over the whole persistence
//! stack. A scripted streaming workload (appends interleaved with
//! snapshots) is run once fault-free, then re-run with a crash scheduled at
//! *every* operation of *every* registered failpoint. Each faulty run must
//! converge — crash, recover, resume — to a final snapshot byte-identical
//! to the fault-free run's, with zero acknowledged-granule loss (a batch
//! whose append returned `Ok` is never missing after recovery).
//!
//! All storage is the in-memory [`FaultyFs`], whose crash semantics mirror
//! a real kernel's: bytes become durable on `sync_all`, names become
//! durable on directory sync, and `crash()` discards everything volatile.
//! The failpoint sweep runs under both [`CrashFlavour`]s: names lost unless
//! a directory sync committed them, and names kept as a journaling
//! filesystem may commit them early, before the renamed file's bytes.
//! No real files are touched, so every run is exactly reproducible.

use freqstpfts::prelude::*;
use std::path::Path;

const SNAP: &str = "chaos/state.snap";
const WAL: &str = "chaos/state.wal";
const TOTAL_SAMPLES: usize = 90;

/// The scripted workload: batch boundaries are multiples of the mapping
/// factor (3), so granule counts map back to sample positions exactly.
#[derive(Clone, Copy)]
enum Step {
    Append(usize, usize),
    Snapshot,
}

const SCRIPT: &[Step] = &[
    Step::Append(0, 18),
    Step::Append(18, 36),
    Step::Snapshot,
    Step::Append(36, 54),
    Step::Append(54, 72),
    Step::Snapshot,
    Step::Append(72, 90),
];

fn sample_series(samples: usize) -> Vec<TimeSeries> {
    let mut rng = freqstpfts::datagen::SeededRng::seed_from_u64(99);
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

/// Boots a pipeline against `fs` and recovers until recovery itself
/// succeeds — a recovery that dies mid-flight is just another crash.
fn recover_fresh(
    fs: &FaultyFs,
    configure: &dyn Fn(&mut StreamingPipeline),
    crashes: &mut u32,
) -> StreamingPipeline {
    loop {
        assert!(*crashes < 32, "fault schedule never drained");
        let mut pipeline = stream_builder().into_streaming();
        pipeline.set_storage(fs.clone());
        configure(&mut pipeline);
        match pipeline.recover(Some(Path::new(SNAP)), Path::new(WAL)) {
            Ok(_) => return pipeline,
            Err(_) => {
                drop(pipeline);
                fs.crash();
                fs.clear_faults();
                *crashes += 1;
            }
        }
    }
}

/// Runs the scripted workload to completion over `fs`, crashing and
/// recovering on every surfaced error, then crashes one final time and
/// extracts the durable state. Returns the final snapshot bytes, the final
/// checkpoint report, and how many crashes it survived.
fn run_script(fs: &FaultyFs, series: &[TimeSeries]) -> (Vec<u8>, EngineReport, u32) {
    let mut crashes = 0u32;
    let mut acked_samples = 0usize;
    let mut pipeline = recover_fresh(fs, &|_| {}, &mut crashes);
    let mut i = 0;
    while i < SCRIPT.len() {
        let pos = pipeline.num_granules() as usize * 3;
        let result = match SCRIPT[i] {
            Step::Append(from, to) => {
                if to <= pos {
                    // Durable (and possibly unacknowledged) before the
                    // crash — replayed from the WAL, nothing to redo.
                    i += 1;
                    continue;
                }
                assert_eq!(pos, from, "recovered state must end on a batch boundary");
                pipeline.append(&chunk(series, from, to)).map(|_| ())
            }
            Step::Snapshot => {
                if pipeline.pending_granules() == 0 {
                    // The snapshot file became durable before the crash
                    // (recovery restored it), so redoing the step would
                    // fork the checkpoint-id history.
                    i += 1;
                    continue;
                }
                pipeline.snapshot_to(Path::new(SNAP))
            }
        };
        match result {
            Ok(()) => {
                if let Step::Append(_, to) = SCRIPT[i] {
                    acked_samples = to;
                }
                i += 1;
            }
            Err(_) => {
                drop(pipeline);
                fs.crash();
                fs.clear_faults();
                crashes += 1;
                pipeline = recover_fresh(fs, &|_| {}, &mut crashes);
                assert!(
                    pipeline.num_granules() as usize * 3 >= acked_samples,
                    "acknowledged granules lost after crash {crashes}"
                );
            }
        }
    }
    // Final crash: only fsync-committed state may count towards the result.
    drop(pipeline);
    fs.crash();
    fs.clear_faults();
    let mut survivor = recover_fresh(fs, &|_| {}, &mut crashes);
    assert_eq!(
        survivor.num_granules() as usize * 3,
        TOTAL_SAMPLES,
        "acknowledged granules lost at final recovery"
    );
    // A final snapshot that became durable before a crash was restored by
    // recovery (nothing is pending then); taking another would fork the
    // checkpoint-id history.
    while survivor.pending_granules() > 0 {
        if survivor.snapshot_to(Path::new(SNAP)).is_err() {
            drop(survivor);
            fs.crash();
            fs.clear_faults();
            crashes += 1;
            survivor = recover_fresh(fs, &|_| {}, &mut crashes);
        }
    }
    let bytes = fs.peek(Path::new(SNAP)).expect("the final snapshot");
    let report = survivor.checkpoint().expect("final checkpoint mines");
    (bytes, report, crashes)
}

#[test]
fn a_crash_at_every_failpoint_recovers_byte_identically() {
    let series = sample_series(TOTAL_SAMPLES);
    let baseline_fs = FaultyFs::with_seed(1);
    let (baseline_bytes, baseline_report, baseline_crashes) = run_script(&baseline_fs, &series);
    assert_eq!(baseline_crashes, 0, "the fault-free run must not crash");
    let baseline_ops: Vec<(&str, u64)> = failpoints::ALL
        .iter()
        .map(|fp| (*fp, baseline_fs.op_count(fp)))
        .collect();

    for flavour in [
        CrashFlavour::DirSyncedNamespace,
        CrashFlavour::EarlyNamespace,
    ] {
        let mut total_crashes = 0u32;
        for &(fp, count) in &baseline_ops {
            for nth in 1..=count {
                let fs = FaultyFs::with_seed(1).with_crash_flavour(flavour);
                fs.fail_nth(fp, nth);
                let (bytes, report, crashes) = run_script(&fs, &series);
                assert_eq!(
                    bytes, baseline_bytes,
                    "{flavour:?}, failpoint {fp} op #{nth}: final snapshot diverged from the \
                     fault-free run"
                );
                assert_eq!(
                    report.events(),
                    baseline_report.events(),
                    "{flavour:?}, failpoint {fp} op #{nth}: recovered events diverged"
                );
                assert_eq!(
                    report.patterns(),
                    baseline_report.patterns(),
                    "{flavour:?}, failpoint {fp} op #{nth}: recovered patterns diverged"
                );
                total_crashes += crashes;
            }
        }
        assert!(
            total_crashes > 0,
            "the {flavour:?} sweep never actually crashed — the failpoints are not wired in"
        );
    }
}

#[test]
fn a_torn_wal_tail_under_injected_faults_recovers_the_durable_prefix() {
    let fs = FaultyFs::with_seed(7);
    let series = sample_series(36);
    let mut crashes = 0;
    let mut writer = recover_fresh(&fs, &|_| {}, &mut crashes);
    writer.append(&chunk(&series, 0, 18)).unwrap();
    writer.append(&chunk(&series, 18, 36)).unwrap();
    drop(writer);

    // Rebuild the WAL with its tail record torn mid-payload, made durable
    // through the backend so it survives the crashes below.
    let wal_bytes = fs.peek(Path::new(WAL)).unwrap();
    let torn_path = Path::new("chaos/torn.wal");
    let mut torn = fs.create("test.setup", torn_path).unwrap();
    torn.write_all("test.setup", &wal_bytes[..wal_bytes.len() - 3])
        .unwrap();
    torn.sync_all("test.setup").unwrap();
    drop(torn);
    fs.sync_dir("test.setup", Path::new("chaos")).unwrap();

    // Attaching must truncate the torn tail; a fault injected into that
    // truncation surfaces as a typed error, never a panic.
    fs.fail_nth(failpoints::WAL_TRUNCATE_TAIL, 1);
    let mut victim = stream_builder().into_streaming();
    victim.set_storage(fs.clone());
    let err = victim.recover(None, torn_path).unwrap_err();
    assert!(matches!(err, PipelineError::Persistence(_)), "{err:?}");
    drop(victim);
    fs.crash();
    fs.clear_faults();

    // With the fault cleared, recovery drops the torn record and replays
    // exactly the durable prefix.
    let mut survivor = stream_builder().into_streaming();
    survivor.set_storage(fs.clone());
    let report = survivor.recover(None, torn_path).unwrap();
    assert!(!report.wal_was_clean);
    assert_eq!(report.replayed_records, 1);
    assert_eq!(survivor.num_granules(), 6);
    // The truncation is durable: a crash does not bring the torn record back.
    drop(survivor);
    fs.crash();
    let mut survivor = stream_builder().into_streaming();
    survivor.set_storage(fs.clone());
    assert!(survivor.recover(None, torn_path).unwrap().wal_was_clean);
    // The truncated log accepts new appends where the tear was.
    survivor.append(&chunk(&series, 18, 36)).unwrap();
    assert_eq!(survivor.num_granules(), 12);

    // A bare file name lives in the current directory: the fresh log's
    // directory sync commits it there, so its acked appends survive.
    let bare = Path::new("bare.wal");
    let mut writer = stream_builder().into_streaming();
    writer.set_storage(fs.clone());
    writer.recover(None, bare).unwrap();
    writer.append(&chunk(&series, 0, 18)).unwrap();
    drop(writer);
    fs.crash();
    let mut reader = stream_builder().into_streaming();
    reader.set_storage(fs.clone());
    assert_eq!(reader.recover(None, bare).unwrap().replayed_records, 1);
    assert_eq!(reader.num_granules(), 6);
}

#[test]
fn a_failed_recover_refuses_appends_and_snapshots_until_a_recover_succeeds() {
    let fs = FaultyFs::with_seed(11);
    let series = sample_series(36);
    fs.fail_nth(failpoints::WAL_OPEN, 1);
    let mut pipeline = stream_builder().into_streaming();
    pipeline.set_storage(fs.clone());
    let err = pipeline
        .recover(Some(Path::new(SNAP)), Path::new(WAL))
        .unwrap_err();
    assert!(matches!(err, PipelineError::Persistence(_)), "{err:?}");

    // Without a log, an acked append would be lost in the next crash, and
    // a snapshot of whatever memory holds could replace a good one.
    let refused = pipeline.append(&chunk(&series, 0, 18));
    assert!(
        matches!(refused, Err(PipelineError::Persistence(_))),
        "an append no log holds must not be acknowledged: {refused:?}"
    );
    let refused = pipeline.snapshot_to(Path::new(SNAP));
    assert!(
        matches!(refused, Err(PipelineError::Persistence(_))),
        "{refused:?}"
    );
    assert_eq!(fs.op_count(failpoints::WAL_APPEND), 0);
    assert_eq!(fs.op_count(failpoints::SNAPSHOT_CREATE_TMP), 0);

    // A successful recover lifts the refusal, and acked appends survive.
    pipeline
        .recover(Some(Path::new(SNAP)), Path::new(WAL))
        .unwrap();
    pipeline.append(&chunk(&series, 0, 18)).unwrap();
    pipeline.append(&chunk(&series, 18, 36)).unwrap();
    drop(pipeline);
    fs.crash();
    let mut crashes = 0;
    let survivor = recover_fresh(&fs, &|_| {}, &mut crashes);
    assert_eq!(crashes, 0);
    assert_eq!(survivor.num_granules(), 12, "acknowledged granules lost");
}

#[test]
fn a_failed_wal_append_refuses_later_appends_until_the_log_covers_memory() {
    let fs = FaultyFs::with_seed(15);
    let series = sample_series(48);
    let fail_next_wal_append = || {
        fs.fail_nth(
            failpoints::WAL_APPEND,
            fs.op_count(failpoints::WAL_APPEND) + 1,
        );
    };
    let mut crashes = 0;
    let mut pipeline = recover_fresh(&fs, &|_| {}, &mut crashes);
    pipeline.append(&chunk(&series, 0, 12)).unwrap();

    // The WAL write fails after the batch was absorbed: memory is now ahead
    // of the log, and a record for the next batch would not continue it.
    fail_next_wal_append();
    let err = pipeline.append(&chunk(&series, 12, 24)).unwrap_err();
    assert!(matches!(err, PipelineError::Persistence(_)), "{err:?}");
    fs.clear_faults();
    let refused = pipeline.append(&chunk(&series, 24, 36));
    assert!(
        matches!(refused, Err(PipelineError::Persistence(_))),
        "an append the log cannot replay must not be acknowledged"
    );

    // Crash + recover: the log is intact and holds every acknowledged batch.
    drop(pipeline);
    fs.crash();
    let mut recovered = stream_builder().into_streaming();
    recovered.set_storage(fs.clone());
    recovered
        .recover(Some(Path::new(SNAP)), Path::new(WAL))
        .unwrap();
    assert_eq!(recovered.num_granules(), 4, "acknowledged granules lost");

    // A durable snapshot closes the gap as well as recovery does: after it,
    // appends are acknowledged again and survive a crash.
    recovered.append(&chunk(&series, 12, 24)).unwrap();
    fail_next_wal_append();
    assert!(recovered.append(&chunk(&series, 24, 36)).is_err());
    fs.clear_faults();
    recovered.snapshot_to(Path::new(SNAP)).unwrap();
    recovered.append(&chunk(&series, 36, 48)).unwrap();
    drop(recovered);
    fs.crash();
    let survivor = recover_fresh(&fs, &|_| {}, &mut crashes);
    assert_eq!(crashes, 0);
    assert_eq!(survivor.num_granules(), 16, "acknowledged granules lost");
}

#[test]
fn a_lying_fsync_is_detected_as_acknowledged_granule_loss() {
    // Negative control for the harness itself: if the storage *lies* about
    // durability, acknowledged granules really are lost across a crash —
    // which is exactly the condition the sweep asserts never happens with
    // an honest fsync.
    let fs = FaultyFs::with_seed(3);
    let series = sample_series(36);
    let mut crashes = 0;
    let mut pipeline = recover_fresh(&fs, &|_| {}, &mut crashes);
    pipeline.append(&chunk(&series, 0, 18)).unwrap();
    fs.lie_on_sync_nth(failpoints::WAL_APPEND_SYNC, 2);
    pipeline.append(&chunk(&series, 18, 36)).unwrap();
    let acked = pipeline.num_granules();
    assert_eq!(acked, 12);
    drop(pipeline);
    fs.crash();
    fs.clear_faults();
    let mut recovered = stream_builder().into_streaming();
    recovered.set_storage(fs.clone());
    recovered
        .recover(Some(Path::new(SNAP)), Path::new(WAL))
        .unwrap();
    assert!(
        recovered.num_granules() < acked,
        "a lying fsync must be observable as loss"
    );
    assert_eq!(recovered.num_granules(), 6);
}

#[test]
fn transient_faults_are_retried_and_surface_in_retry_counters() {
    let fs = FaultyFs::with_seed(5);
    let series = sample_series(18);
    let mut crashes = 0;
    let immediate = |p: &mut StreamingPipeline| {
        p.set_retry_policy(RetryPolicy::immediate(4));
    };
    let mut pipeline = recover_fresh(&fs, &immediate, &mut crashes);

    // Two consecutive EAGAIN-style failures on the WAL append path: the
    // bounded retry absorbs both and the counters record them.
    fs.transient_nth(failpoints::WAL_APPEND, 1, 2);
    pipeline.append(&chunk(&series, 0, 18)).unwrap();
    assert_eq!(pipeline.io_retries(), 2);
    assert_eq!(pipeline.checkpoint_meta().io_retries, 2);

    // A transient snapshot-write failure is retried the same way.
    fs.transient_nth(
        failpoints::SNAPSHOT_WRITE,
        fs.op_count(failpoints::SNAPSHOT_WRITE) + 1,
        1,
    );
    pipeline.snapshot_to(Path::new(SNAP)).unwrap();
    assert_eq!(pipeline.io_retries(), 3);
    drop(pipeline);

    // Recovery counts its own retries in the report it returns.
    fs.crash();
    fs.clear_faults();
    fs.transient_nth(failpoints::RECOVER_READ_WAL, 1, 1);
    let mut recovered = stream_builder().into_streaming();
    recovered.set_storage(fs.clone());
    recovered.set_retry_policy(RetryPolicy::immediate(4));
    let report = recovered
        .recover(Some(Path::new(SNAP)), Path::new(WAL))
        .unwrap();
    assert_eq!(report.io_retries, 1);
    assert_eq!(recovered.io_retries(), 1);

    // With retries disabled, the same transient fault is surfaced raw.
    fs.transient_nth(
        failpoints::WAL_APPEND,
        fs.op_count(failpoints::WAL_APPEND) + 1,
        1,
    );
    recovered.set_retry_policy(RetryPolicy::none());
    let err = recovered.append(&chunk(&series, 0, 18)).unwrap_err();
    assert!(matches!(err, PipelineError::Persistence(_)), "{err:?}");
}

#[test]
fn a_failed_then_retried_snapshot_leaves_exactly_one_file() {
    let fs = FaultyFs::with_seed(9);
    let series = sample_series(18);
    let mut crashes = 0;
    let mut pipeline = recover_fresh(&fs, &|_| {}, &mut crashes);
    pipeline.append(&chunk(&series, 0, 18)).unwrap();

    fs.fail_nth(failpoints::SNAPSHOT_RENAME, 1);
    let err = pipeline.snapshot_to(Path::new(SNAP)).unwrap_err();
    assert!(matches!(err, PipelineError::Persistence(_)), "{err:?}");
    // The error path must remove the tmp sibling: a retry loop around a
    // failing snapshot may not accumulate orphan files.
    assert_eq!(
        fs.live_paths(),
        vec![std::path::PathBuf::from(WAL)],
        "the failed snapshot left debris behind"
    );

    fs.clear_faults();
    pipeline.snapshot_to(Path::new(SNAP)).unwrap();
    assert_eq!(
        fs.live_paths(),
        vec![
            std::path::PathBuf::from(SNAP),
            std::path::PathBuf::from(WAL)
        ],
        "exactly the snapshot and the WAL must remain"
    );
    assert_eq!(pipeline.pending_granules(), 0);
}

#[test]
fn a_snapshot_replaces_its_predecessor_only_once_its_bytes_are_durable() {
    // A rename can reach the disk before the renamed file's bytes do: a
    // journal commit, or another file's directory sync, persists it. So a
    // snapshot whose fsync failed must not have been renamed into place.
    let fs = FaultyFs::with_seed(13);
    let series = sample_series(36);
    let mut crashes = 0;
    let mut pipeline = recover_fresh(&fs, &|_| {}, &mut crashes);
    pipeline.append(&chunk(&series, 0, 18)).unwrap();
    pipeline.snapshot_to(Path::new(SNAP)).unwrap();
    pipeline.append(&chunk(&series, 18, 36)).unwrap();
    fs.fail_nth(failpoints::SNAPSHOT_SYNC, 2);
    assert!(pipeline.snapshot_to(Path::new(SNAP)).is_err());
    drop(pipeline);
    fs.sync_dir("test.setup", Path::new("chaos")).unwrap();
    fs.crash();
    fs.clear_faults();
    let mut survivor = stream_builder().into_streaming();
    survivor.set_storage(fs.clone());
    survivor
        .recover(Some(Path::new(SNAP)), Path::new(WAL))
        .expect("the previous snapshot plus the log recover");
    assert_eq!(survivor.num_granules(), 12, "acknowledged granules lost");
}

#[test]
fn the_chaos_suite_exercises_every_registered_failpoint() {
    // The sweep only proves recovery at failpoints the workload reaches;
    // this meta-test proves the suite's scenarios reach *all* of them, so a
    // newly registered failpoint cannot silently escape chaos coverage.
    let series = sample_series(TOTAL_SAMPLES);
    let mut covered: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    let mut absorb = |fs: &FaultyFs| {
        covered.extend(
            failpoints::ALL
                .iter()
                .copied()
                .filter(|fp| fs.op_count(fp) > 0),
        );
    };

    // Scripted run with a failing rename: exercises the tmp-removal path
    // on top of the whole happy path.
    let fs = FaultyFs::with_seed(1);
    fs.fail_nth(failpoints::SNAPSHOT_RENAME, 1);
    run_script(&fs, &series);
    absorb(&fs);

    // Torn-tail attach: exercises the WAL tail truncation.
    let fs = FaultyFs::with_seed(1);
    let mut crashes = 0;
    let mut writer = recover_fresh(&fs, &|_| {}, &mut crashes);
    writer.append(&chunk(&series, 0, 18)).unwrap();
    drop(writer);
    let wal_bytes = fs.peek(Path::new(WAL)).unwrap();
    let torn_path = Path::new("chaos/torn.wal");
    let mut torn = fs.create("test.setup", torn_path).unwrap();
    torn.write_all("test.setup", &wal_bytes[..wal_bytes.len() - 3])
        .unwrap();
    torn.sync_all("test.setup").unwrap();
    drop(torn);
    fs.sync_dir("test.setup", Path::new("chaos")).unwrap();
    let mut survivor = stream_builder().into_streaming();
    survivor.set_storage(fs.clone());
    survivor.recover(None, torn_path).unwrap();
    absorb(&fs);

    let all: std::collections::BTreeSet<&str> = failpoints::ALL.iter().copied().collect();
    let missed: Vec<&str> = all.difference(&covered).copied().collect();
    assert!(
        missed.is_empty(),
        "failpoints never exercised by any chaos scenario: {missed:?}"
    );
}
