//! `stream-ingest`: closed loop on one thread. One `StreamingPipeline`
//! with a write-ahead log absorbs a long generated stream (8 series × 5 760
//! granules) in 10-granule batches after an untimed initial window, takes a
//! snapshot every 16 appends, and at the end recovers the last snapshot
//! plus its WAL tail into fresh pipelines. A run replays whole laps of the
//! stream, each on a fresh pipeline.

use crate::storage::NoSyncFs;
use crate::trace::{median, ms, quantile, Tracer};
use crate::{setup_median, Ctx, Outcome};
use freqstpfts::{Pipeline, StreamingPipeline};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use stpm_core::engine::phases;
use stpm_core::{canonical_result_set, EngineReport, StpmConfig, Threshold};
use stpm_datagen::{generate, DatasetProfile, DatasetSpec};
use stpm_timeseries::SymbolicDatabase;

const PROFILE: DatasetProfile = DatasetProfile::RenewableEnergy;
const SERIES: usize = 8;
const GRANULES: u64 = 5760;
const INITIAL_GRANULES: u64 = 720;
const BATCH_GRANULES: u64 = 10;
const SNAPSHOT_EVERY: usize = 16;
const RECOVERIES: usize = 10;
/// The initial window and the warm-up append come before the timed part.
const FIRST_TIMED_BATCH: usize = 2;
/// Nominal seconds of one lap (see [`Ctx::units`]).
const NOMINAL_LAP_S: f64 = 3.3;

/// The scaling bench's thresholds, mining up to 3-event patterns on one
/// thread.
fn thresholds() -> StpmConfig {
    StpmConfig {
        max_period: Threshold::Fraction(0.006),
        min_density: Threshold::Fraction(0.0075),
        dist_interval: PROFILE.dist_interval(),
        min_season: 2,
        max_pattern_len: 3,
        threads: 1,
        ..StpmConfig::default()
    }
}

/// The generated stream: the whole symbolic database and its arrival
/// batches, the first of which is the initial window.
struct Stream {
    dsyb: SymbolicDatabase,
    mapping_factor: u64,
    batches: Vec<SymbolicDatabase>,
}

/// A pipeline positioned right before its first timed append: initial
/// window absorbed, one warm-up append, snapshot and recovery done.
struct Lap {
    dir: PathBuf,
    live: StreamingPipeline,
}

impl Lap {
    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("stream.snap")
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("stream.wal")
    }
}

fn fresh_pipeline(m: u64) -> StreamingPipeline {
    let mut pipeline = Pipeline::builder()
        .mapping_factor(m)
        .thresholds(thresholds())
        .threads(1)
        .into_streaming();
    pipeline.set_storage(NoSyncFs);
    pipeline
}

fn recover(
    lap: &Lap,
    m: u64,
) -> Result<(StreamingPipeline, freqstpfts::RecoveryReport), freqstpfts::PipelineError> {
    let mut pipeline = fresh_pipeline(m);
    let report = pipeline.recover(Some(&lap.snapshot_path()), &lap.wal_path())?;
    Ok((pipeline, report))
}

fn start_lap(stream: &Stream, dir: PathBuf) -> Lap {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the lap's state directory");
    let m = stream.mapping_factor;
    let mut lap = Lap {
        live: fresh_pipeline(m),
        dir,
    };
    lap.live
        .attach_wal(lap.wal_path())
        .expect("attaching the WAL");
    lap.live
        .append_symbolic(&stream.batches[0])
        .expect("absorbing the initial window");
    // One warm-up op per op kind.
    lap.live
        .append_symbolic(&stream.batches[1])
        .expect("the warm-up append");
    let snapshot = lap.snapshot_path();
    lap.live
        .snapshot_to(&snapshot)
        .expect("the warm-up snapshot");
    recover(&lap, m).expect("the warm-up recovery");
    lap
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// What the timed part of one lap measured.
#[derive(Default)]
struct LapTimes {
    append_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    /// Per traced append: (append, absorb, emit) in ms.
    traced: Vec<(f64, f64, f64)>,
    untraced_append_ms: Vec<f64>,
    granules: u64,
    busy: Duration,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let seed = ctx.data_seed();
    let (setup_s, (stream, first_lap)) = setup_median(|round| {
        let data = generate(
            &DatasetSpec::real(PROFILE)
                .scaled_to(SERIES, GRANULES)
                .with_seed(seed),
        );
        let stream = Stream {
            batches: data.arrival_batches(INITIAL_GRANULES, BATCH_GRANULES),
            mapping_factor: data.mapping_factor,
            dsyb: data.dsyb,
        };
        let lap = start_lap(&stream, ctx.state_dir.join(format!("setup-{round}")));
        (stream, lap)
    });
    let mut out = Outcome::new(setup_s);
    let m = stream.mapping_factor;
    let mut tracer = Tracer::new(ctx.trace);
    let mut times = LapTimes::default();
    let mut next = Some(first_lap);
    let mut finished: Option<Lap> = None;
    let mut cpu = 0.0;
    let mut last_report: Option<EngineReport> = None;
    let mut lap_facts = (0_u64, 0_u64, 0_u64, 0_u64);
    // Outputs compared against their reference, and how many were equal.
    let (mut compared, mut identical) = (0_u64, 0_u64);
    for lap_index in 0..ctx.units(NOMINAL_LAP_S) {
        let mut current = next.take().unwrap_or_else(|| {
            if let Some(old) = finished.take() {
                let _ = std::fs::remove_dir_all(&old.dir);
            }
            start_lap(&stream, ctx.state_dir.join(format!("lap-{lap_index}")))
        });
        let mut previous_absorb = None;
        let mut appended = 0_usize;
        let cpu_start = crate::sys::cpu_seconds();
        for batch in &stream.batches[FIRST_TIMED_BATCH..] {
            out.attempted += 1;
            let traced = ctx.trace && appended % 2 == 1;
            let op_start = Instant::now();
            let report = if traced {
                tracer.begin_request();
                tracer.span("facade.append_symbolic", |_| {
                    current.live.append_symbolic(batch)
                })
            } else {
                current.live.append_symbolic(batch)
            };
            let elapsed = op_start.elapsed();
            appended += 1;
            let Ok(report) = report else {
                out.failed += 1;
                previous_absorb = None;
                continue;
            };
            times.busy += elapsed;
            times.append_ms.push(ms(elapsed));
            times.granules += BATCH_GRANULES;
            let absorb_total = report.phase_time(phases::APPEND);
            if ctx.trace {
                if let Some(previous) = previous_absorb {
                    let absorb = ms(absorb_total.saturating_sub(previous));
                    let emit = ms(report.phase_time(phases::EMIT));
                    if traced {
                        times.traced.push((ms(elapsed), absorb, emit));
                    } else {
                        times.untraced_append_ms.push(ms(elapsed));
                    }
                }
            }
            previous_absorb = Some(absorb_total);
            last_report = Some(report);
            if appended.is_multiple_of(SNAPSHOT_EVERY) {
                out.attempted += 1;
                let path = current.snapshot_path();
                let op_start = Instant::now();
                let done = tracer.span("facade.snapshot_to", |_| current.live.snapshot_to(&path));
                let elapsed = op_start.elapsed();
                match done {
                    Ok(()) => {
                        times.busy += elapsed;
                        times.snapshot_ms.push(ms(elapsed));
                    }
                    Err(_) => out.failed += 1,
                }
            }
        }
        cpu += crate::sys::cpu_seconds() - cpu_start;
        // Recover the last snapshot plus its WAL tail into fresh pipelines;
        // each recovered pipeline must equal the live one.
        let live = last_report
            .as_ref()
            .map(|r| canonical_result_set(r.events(), r.patterns()));
        for _ in 0..RECOVERIES {
            out.attempted += 1;
            let op_start = Instant::now();
            let recovered = tracer.span("facade.recover", |_| recover(&current, m));
            let elapsed = op_start.elapsed();
            let Ok((pipeline, report)) = recovered else {
                out.failed += 1;
                continue;
            };
            times.recover_ms.push(ms(elapsed));
            lap_facts.2 = report.replayed_records;
            let same = pipeline.num_granules() == current.live.num_granules()
                && pipeline
                    .checkpoint()
                    .ok()
                    .map(|r| canonical_result_set(r.events(), r.patterns()))
                    == live;
            out.check("every recovered pipeline equals the live one", same);
            compared += 1;
            identical += u64::from(same);
        }
        lap_facts.0 = file_len(&current.snapshot_path());
        lap_facts.1 = file_len(&current.wal_path());
        lap_facts.3 = current.live.resident_bytes();
        finished = Some(current);
    }
    let peak_rss = crate::sys::peak_rss_mib();
    let lap = finished.expect("at least one lap ran");

    // Correctness, untimed: the final checkpoint equals a batch E-STPM run
    // over the whole stream.
    let batch = Pipeline::builder()
        .mapping_factor(m)
        .thresholds(thresholds())
        .threads(1)
        .run_symbolic(&stream.dsyb)
        .expect("the batch re-mine over the whole stream")
        .report;
    let final_report = last_report.expect("the stream appended at least once");
    let same = canonical_result_set(final_report.events(), final_report.patterns())
        == canonical_result_set(batch.events(), batch.patterns());
    out.check(
        "the final checkpoint equals run_symbolic over the whole stream",
        same,
    );
    compared += 1;
    identical += u64::from(same);
    out.check(
        "every granule of the stream was absorbed",
        lap.live.num_granules() == stream.dsyb.len() as u64 / m,
    );

    let append_p50 = median(&times.append_ms);
    let recover_p50 = median(&times.recover_ms);
    let granules_per_s = times.granules as f64 / times.busy.as_secs_f64();
    out.named("append_p50_ms", append_p50, "ms");
    out.named("granules_per_s", granules_per_s, "1/s");
    out.named("recover_ms", recover_p50, "ms");
    let appends = times.append_ms.len().max(1) as f64;
    out.metric("primary_op_ms", append_p50);
    out.metric("secondary_op_ms", recover_p50);
    out.metric("work_per_s", granules_per_s);
    out.metric("cpu_ms_per_op", cpu * 1e3 / appends);
    out.metric(
        "result_quality_pct",
        100.0 * identical as f64 / compared as f64,
    );
    out.metric("peak_rss_mib", peak_rss);

    out.count("stream.granules", lap.live.num_granules());
    out.count("stream.snapshot_bytes", lap_facts.0);
    out.count("stream.wal_bytes", lap_facts.1);
    out.count("stream.replayed_records", lap_facts.2);
    out.count("stream.events", final_report.events().len() as u64);
    for level in &final_report.stats().levels {
        out.count(
            format!("stream.patterns.k{}", level.k),
            level.frequent_patterns as u64,
        );
    }

    if ctx.trace {
        let column =
            |f: fn(&(f64, f64, f64)) -> f64| times.traced.iter().map(f).collect::<Vec<_>>();
        let absorb = column(|t| t.1);
        let emit = column(|t| t.2);
        let wal = column(|t| t.0 - t.1 - t.2);
        out.metric("streaming.absorb_ms", median(&absorb));
        out.metric("streaming.emit_ms", median(&emit));
        out.metric("streaming.append_p99_ms", quantile(&times.append_ms, 0.99));
        out.metric(
            "streaming.resident_mib",
            lap_facts.3 as f64 / (1024.0 * 1024.0),
        );
        out.metric(
            "streaming.patterns_final",
            final_report.total_patterns() as f64,
        );
        out.metric(
            "facade.append_ms",
            median(&tracer.durations_ms("facade.append_symbolic")),
        );
        out.metric("facade.wal_ms", median(&wal));
        out.metric(
            "facade.snapshot_ms",
            median(&tracer.durations_ms("facade.snapshot_to")),
        );
        out.metric("facade.snapshot_bytes", lap_facts.0 as f64);
        out.metric("facade.wal_bytes", lap_facts.1 as f64);
        out.metric(
            "facade.recover_ms",
            median(&tracer.durations_ms("facade.recover")),
        );
        out.metric("facade.recover_replayed_records", lap_facts.2 as f64);
        let traced_append: Vec<f64> = column(|t| t.0);
        out.overhead(
            &times.untraced_append_ms,
            &traced_append,
            tracer.span_count(),
        );
        out.write_trace(ctx, &tracer);
    }
    out
}
