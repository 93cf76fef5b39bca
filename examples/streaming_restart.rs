//! Crash recovery: snapshot a streaming miner on shutdown, log every append
//! to a write-ahead log in between, and recover after a restart without
//! re-mining history.
//!
//! Run with: `cargo run --example streaming_restart`
//!
//! The example replays the paper's running example (Table II) as a live
//! feed interrupted by a "crash": the first process snapshots mid-feed and
//! keeps appending (each append is durably logged before the call returns),
//! then dies without a clean shutdown. The second process calls
//! [`StreamingPipeline::recover`], which restores the snapshot and replays
//! the WAL tail — and continues the feed as if nothing had happened.
//!
//! # Crash-recovery runbook
//!
//! What to do (and what to expect) when a streaming monitor dies:
//!
//! 1. **Restart with the same builder.** Thresholds and the mapping factor
//!    must match the snapshot (`recover` verifies them and returns a typed
//!    `SnapshotConfigMismatch` otherwise); the symbolizer is configured by
//!    hand because it is never serialised.
//! 2. **Call `recover(Some(snapshot), wal)` unconditionally.** A missing or
//!    empty snapshot file and a missing WAL are *not* errors — first boot
//!    and post-crash restart share this one startup call. The returned
//!    [`RecoveryReport`] says what happened: `restored_granules` from the
//!    snapshot, `replayed_records` from the WAL, `wal_was_clean = false`
//!    when a torn tail (crash mid-append) was truncated away, and
//!    `io_retries` when transient I/O faults had to be retried.
//! 3. **Trust the acknowledgment contract.** Every `append` that returned
//!    `Ok` before the crash is in the recovered state — appends are fsynced
//!    into the WAL before they return. A batch that was mid-append when the
//!    process died was never acknowledged and simply is not there.
//! 4. **Do not clean up by hand.** Leftover `*.tmp` snapshot siblings are
//!    removed by the snapshot path itself; torn WAL tails are truncated on
//!    attach. If recovery reports a typed corruption error, keep the files
//!    for inspection — nothing will panic or overwrite them.

use freqstpfts::prelude::*;
use std::path::Path;

fn pipeline() -> StreamingPipeline {
    let config = StpmConfig {
        max_period: Threshold::Absolute(2),
        min_density: Threshold::Absolute(2),
        dist_interval: (3, 10),
        min_season: 2,
        max_pattern_len: 3,
        ..StpmConfig::default()
    };
    // Snapshots carry the symbolic history and the miner state, but not the
    // symbolizer (arbitrary user code): every process configures the same
    // builder, and `recover` verifies the thresholds match.
    Pipeline::builder()
        .symbolizer(ThresholdSymbolizer::binary(0.1, "Off", "On"))
        .mapping_factor(3)
        .thresholds(config)
        .into_streaming()
}

fn feed() -> Vec<(&'static str, Vec<f64>)> {
    let bits_to_values = |bits: &str| -> Vec<f64> {
        bits.chars()
            .map(|c| if c == '1' { 1.2 } else { 0.0 })
            .collect()
    };
    vec![
        (
            "Cooker",
            bits_to_values("110100110000000000111111000000100110000110"),
        ),
        (
            "DishWasher",
            bits_to_values("100100110110000000111111000000100100110110"),
        ),
        (
            "FoodProcessor",
            bits_to_values("001011001001111000000000111111001001001001"),
        ),
        (
            "Microwave",
            bits_to_values("111100111110111111000111111111111000111000"),
        ),
        (
            "Nespresso",
            bits_to_values("110111111110111111000000111111111111111000"),
        ),
    ]
}

fn batch(feed: &[(&str, Vec<f64>)], from: usize, to: usize) -> Vec<TimeSeries> {
    feed.iter()
        .map(|(name, values)| TimeSeries::new(*name, values[from..to].to_vec()))
        .collect()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("stpm_restart_example_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let snap_path = dir.join("monitor.snap");
    let wal_path = dir.join("monitor.wal");

    let readings = feed();
    first_process(&readings, &snap_path, &wal_path);
    second_process(&readings, &snap_path, &wal_path);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The monitor before the crash: snapshot once, keep appending (each append
/// lands in the WAL before the call returns), then die mid-feed.
fn first_process(readings: &[(&str, Vec<f64>)], snap_path: &Path, wal_path: &Path) {
    let mut stream = pipeline();
    stream.attach_wal(wal_path).expect("the WAL is writable");

    // Absorb the first half of the feed, then snapshot — e.g. a graceful
    // shutdown, a periodic checkpoint timer, or an eviction. `snapshot_to`
    // writes a temp file, fsyncs, renames over the target and only then
    // truncates the WAL, so a crash at any instant leaves either the old
    // snapshot + a WAL that covers the difference, or the new snapshot.
    stream
        .append(&batch(readings, 0, 18))
        .expect("the feed is well-formed");
    stream
        .snapshot_to(snap_path)
        .expect("the snapshot is writable");
    println!(
        "[monitor #1] snapshot at {} granules ({} patterns interned)",
        stream.num_granules(),
        stream.checkpoint_meta().patterns_interned,
    );

    // More readings arrive after the snapshot. They are durable the moment
    // `append` returns: the WAL holds them.
    stream
        .append(&batch(readings, 18, 24))
        .expect("the feed is well-formed");
    stream
        .append(&batch(readings, 24, 30))
        .expect("the feed is well-formed");
    println!(
        "[monitor #1] ...crashing with {} granules absorbed but un-snapshotted",
        stream.pending_granules(),
    );
    // The process dies here: no snapshot_to, no clean shutdown.
}

/// The monitor after the restart: recover, verify nothing was lost, and
/// finish the feed.
fn second_process(readings: &[(&str, Vec<f64>)], snap_path: &Path, wal_path: &Path) {
    let mut stream = pipeline();
    // Transient I/O hiccups (EINTR/EAGAIN-class) are retried with bounded,
    // deterministically-jittered backoff; the default policy is already on,
    // this simply makes the choice explicit.
    stream.set_retry_policy(RetryPolicy::default());
    let recovery = stream
        .recover(Some(snap_path), wal_path)
        .expect("the snapshot and WAL are intact");
    println!(
        "[monitor #2] recovered {} granules from the snapshot + {} WAL record(s) \
         -> {} granules ({} transient I/O retr{})",
        recovery.restored_granules,
        recovery.replayed_records,
        stream.num_granules(),
        recovery.io_retries,
        if recovery.io_retries == 1 { "y" } else { "ies" },
    );
    assert_eq!(stream.num_granules(), 10, "the crash lost nothing");

    // Business as usual: the feed continues where the crash cut it off.
    stream
        .append(&batch(readings, 30, 42))
        .expect("the feed is well-formed");
    let report = stream.checkpoint().expect("granules were absorbed");
    println!("\nFrequent seasonal temporal patterns after the full feed:");
    for pattern in report.patterns() {
        println!("  {}", pattern.display(report.registry()));
    }
}
