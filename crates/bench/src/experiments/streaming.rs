//! Streaming (incremental) mining experiment: amortized append cost of the
//! [`StreamingMiner`] vs a full batch re-mine of the same prefix, across
//! arrival batch sizes.
//!
//! The stream replays a generated dataset through its batched-arrival view
//! ([`stpm_datagen::GeneratedDataset::arrival_batches`]): each batch is
//! folded into the growing symbolic database, the *new* granules are built
//! (`SequenceDatabase::append_from_symbolic`) and absorbed
//! (`StreamingMiner::append_batch`, then `StreamingMiner::checkpoint`), and
//! — for the comparison — the full prefix is re-mined from scratch with the
//! batch engine (`D_SEQ` rebuild included, because that is the cost a
//! batch-only system pays on every arrival).
//!
//! At **every** checkpoint the streaming pattern set (patterns, supports,
//! seasons) is asserted identical to the batch re-mine — the experiment
//! panics on the first divergence, so a surviving JSON file certifies
//! exactness over the whole sweep.

use super::{config_for, BenchScale};
use crate::table::TextTable;
use std::time::{Duration, Instant};
use stpm_core::{canonical_result_set as canonical, StpmMiner, StreamingMiner};
use stpm_datagen::{generate, DatasetProfile, DatasetSpec};
use stpm_timeseries::SequenceDatabase;

/// One measured arrival-batch size of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingPoint {
    /// Granules per arrival batch.
    pub batch_granules: u64,
    /// Number of append/checkpoint steps the stream was replayed in.
    pub checkpoints: usize,
    /// Checkpoints whose streaming output was identical to the batch
    /// re-mine (the experiment asserts this equals `checkpoints`).
    pub identical_checkpoints: usize,
    /// Total granules of the replayed dataset.
    pub granules: u64,
    /// Distinct events of the final prefix.
    pub events: usize,
    /// Total wall-clock time of all streaming *appends*: building the new
    /// granules plus absorbing them — the O(delta) work.
    pub append_total: Duration,
    /// Total wall-clock time of all checkpoint *emissions*: frequency gate,
    /// season materialisation and output cloning — O(output) work that any
    /// consumer of the full result set pays, batch re-mines included.
    pub emit_total: Duration,
    /// Total wall-clock time of the batch re-mines (`D_SEQ` rebuild +
    /// mining) at the same checkpoints.
    pub remine_total: Duration,
    /// Frequent patterns (events + k-event patterns) at the final
    /// checkpoint.
    pub patterns_final: usize,
    /// Persistent footprint of the streaming state after the final append.
    pub streaming_memory_bytes: usize,
    /// Peak footprint of the final batch re-mine.
    pub batch_memory_bytes: usize,
}

impl StreamingPoint {
    /// Mean append (absorption) cost per checkpoint, in seconds.
    #[must_use]
    pub fn amortized_append_secs(&self) -> f64 {
        self.append_total.as_secs_f64() / self.checkpoints.max(1) as f64
    }

    /// Mean checkpoint-emission cost, in seconds.
    #[must_use]
    pub fn amortized_emit_secs(&self) -> f64 {
        self.emit_total.as_secs_f64() / self.checkpoints.max(1) as f64
    }

    /// Mean batch re-mine cost per checkpoint, in seconds.
    #[must_use]
    pub fn amortized_remine_secs(&self) -> f64 {
        self.remine_total.as_secs_f64() / self.checkpoints.max(1) as f64
    }

    /// How many times cheaper the amortized append is than the amortized
    /// re-mine.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let append = self.append_total.as_secs_f64();
        if append > 0.0 {
            self.remine_total.as_secs_f64() / append
        } else {
            f64::INFINITY
        }
    }
}

/// Arrival batch sizes of the sweep, smallest (most checkpoints) first.
#[must_use]
pub fn batch_sizes(scale: &BenchScale) -> Vec<u64> {
    if scale.quick_grid {
        vec![10, 20]
    } else {
        vec![30, 60, 120]
    }
}

/// The dataset spec the stream replays: the quick grid matches the other
/// smoke runs, the full grid matches the largest single-threaded scaling
/// configuration (8 series × 720 granules).
fn stream_spec(profile: DatasetProfile, scale: &BenchScale) -> DatasetSpec {
    if scale.quick_grid {
        scale.apply(DatasetSpec::real(profile))
    } else {
        DatasetSpec::real(profile).scaled_to(8, 720)
    }
}

/// Replays one batch size through the stream, asserting batch/streaming
/// identity at every checkpoint.
///
/// # Panics
/// Panics when a checkpoint's streaming output diverges from the batch
/// re-mine of the same prefix — exactness is the point of the experiment.
fn measure_point(
    profile: DatasetProfile,
    scale: &BenchScale,
    batch_granules: u64,
) -> StreamingPoint {
    let spec = stream_spec(profile, scale);
    let data = generate(&spec);
    let mut config = config_for(profile, 0.006, 0.0075, 2);
    config.max_pattern_len = 3;
    let config = config.with_threads(1);
    let m = data.mapping_factor;

    let batches = data.arrival_batches(batch_granules, batch_granules);
    let mut dsyb = batches[0].clone();
    let mut dseq =
        SequenceDatabase::from_sequences(Vec::new(), dsyb.registry().clone(), m, dsyb.num_series());
    let mut miner =
        StreamingMiner::new(&config, dsyb.registry()).expect("benchmark configuration is valid");

    let mut append_total = Duration::ZERO;
    let mut emit_total = Duration::ZERO;
    let mut remine_total = Duration::ZERO;
    let mut identical_checkpoints = 0usize;
    let mut patterns_final = 0usize;
    let mut batch_memory_bytes = 0usize;
    for (index, batch) in batches.iter().enumerate() {
        if index > 0 {
            dsyb.append_batch(batch).expect("batches share the schema");
        }
        // Streaming side: build only the new granules and absorb them (the
        // O(delta) append) …
        let append_start = Instant::now();
        let appended = dseq
            .append_from_symbolic(&dsyb)
            .expect("the grown database extends the built prefix");
        miner.append_batch(appended).expect("append stays in order");
        append_total += append_start.elapsed();
        // … then emit the checkpoint (O(output) — the cost of materialising
        // the full result set, which a batch run pays inside its mine too).
        let emit_start = Instant::now();
        let report = miner.checkpoint().expect("a granule has been absorbed");
        emit_total += emit_start.elapsed();
        // Batch side: rebuild D_SEQ from scratch and re-mine the full prefix.
        let remine_start = Instant::now();
        let full_dseq = dsyb
            .to_sequence_database(m)
            .expect("the prefix holds at least one granule");
        let remined = StpmMiner::mine_sequences(&full_dseq, &config)
            .expect("benchmark configuration is valid");
        remine_total += remine_start.elapsed();

        let streaming_set = canonical(report.events(), report.patterns());
        let batch_set = canonical(remined.events(), remined.patterns());
        assert_eq!(
            streaming_set, batch_set,
            "streaming checkpoint {index} diverged from the batch re-mine \
             (batch size {batch_granules})"
        );
        identical_checkpoints += 1;
        patterns_final = report.total_patterns();
        batch_memory_bytes = remined.stats().peak_footprint_bytes;
    }
    StreamingPoint {
        batch_granules,
        checkpoints: batches.len(),
        identical_checkpoints,
        granules: miner.num_granules(),
        events: dseq.distinct_events().len(),
        append_total,
        emit_total,
        remine_total,
        patterns_final,
        streaming_memory_bytes: miner.footprint_bytes(),
        batch_memory_bytes,
    }
}

/// Runs the batch-size sweep for one profile.
#[must_use]
pub fn collect(profile: DatasetProfile, scale: &BenchScale) -> Vec<StreamingPoint> {
    batch_sizes(scale)
        .into_iter()
        .map(|batch| measure_point(profile, scale, batch))
        .collect()
}

/// Renders the sweep as a table.
#[must_use]
pub fn table(profile: DatasetProfile, points: &[StreamingPoint]) -> TextTable {
    let mut table = TextTable::new(
        &format!(
            "Streaming append vs full re-mine on {} (exact at every checkpoint)",
            profile.short_name()
        ),
        &[
            "batch granules",
            "checkpoints",
            "append (ms, amortized)",
            "emit (ms, amortized)",
            "re-mine (ms, amortized)",
            "speedup",
            "patterns",
        ],
    );
    for point in points {
        table.add_row(vec![
            point.batch_granules.to_string(),
            point.checkpoints.to_string(),
            format!("{:.3}", point.amortized_append_secs() * 1e3),
            format!("{:.3}", point.amortized_emit_secs() * 1e3),
            format!("{:.3}", point.amortized_remine_secs() * 1e3),
            format!("{:.2}x", point.speedup()),
            point.patterns_final.to_string(),
        ]);
    }
    table
}

/// Serialises the sweep as a JSON document (hand-rolled: the workspace is
/// dependency-free).
#[must_use]
pub fn to_json(profile: DatasetProfile, points: &[StreamingPoint]) -> String {
    let rendered: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"batch_granules\":{},\"checkpoints\":{},\
                 \"identical_checkpoints\":{},\"granules\":{},\"events\":{},\
                 \"append_total_secs\":{:.6},\"emit_total_secs\":{:.6},\
                 \"remine_total_secs\":{:.6},\
                 \"amortized_append_secs\":{:.6},\"amortized_emit_secs\":{:.6},\
                 \"amortized_remine_secs\":{:.6},\
                 \"speedup\":{:.3},\"patterns_final\":{},\
                 \"streaming_memory_bytes\":{},\"batch_memory_bytes\":{}}}",
                p.batch_granules,
                p.checkpoints,
                p.identical_checkpoints,
                p.granules,
                p.events,
                p.append_total.as_secs_f64(),
                p.emit_total.as_secs_f64(),
                p.remine_total.as_secs_f64(),
                p.amortized_append_secs(),
                p.amortized_emit_secs(),
                p.amortized_remine_secs(),
                p.speedup(),
                p.patterns_final,
                p.streaming_memory_bytes,
                p.batch_memory_bytes
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"streaming\",\"threads\":1,\"profile\":\"{}\",\"points\":[{}]}}\n",
        profile.short_name(),
        rendered.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_exact_at_every_checkpoint() {
        let points = collect(DatasetProfile::Influenza, &BenchScale::quick());
        assert_eq!(points.len(), 2);
        for point in &points {
            assert_eq!(
                point.identical_checkpoints, point.checkpoints,
                "a checkpoint diverged"
            );
            assert!(point.checkpoints >= 2, "the sweep must stream in batches");
            assert!(point.patterns_final > 0, "mining came unwired");
            assert!(point.granules > 0);
            assert!(point.streaming_memory_bytes > 0);
        }
        // Smaller batches mean more checkpoints.
        assert!(points[0].checkpoints > points[1].checkpoints);
    }

    #[test]
    fn json_is_structurally_sound() {
        let points = collect(DatasetProfile::Influenza, &BenchScale::quick());
        let json = to_json(DatasetProfile::Influenza, &points);
        assert!(json.starts_with("{\"experiment\":\"streaming\""));
        assert!(json.contains("\"batch_granules\":"));
        assert!(json.contains("\"amortized_append_secs\":"));
        assert!(json.contains("\"speedup\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",]") && !json.contains(",}"));
        let rendered = table(DatasetProfile::Influenza, &points);
        let _ = rendered;
    }
}
