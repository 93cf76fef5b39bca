//! `batch-mine`: closed loop on one thread. Each op mines one generated
//! renewable-energy dataset (16 series × 720 granules) through
//! `Pipeline::run_symbolic`, alternating E-STPM and A-STPM so machine drift
//! hits both engines alike.

use crate::trace::{median, ms, Tracer};
use crate::{setup_median, Ctx, Outcome};
use freqstpfts::{Engine, Pipeline};
use std::time::Instant;
use stpm_core::engine::phases;
use stpm_core::{accuracy, canonical_result_set, EngineReport, MiningInput, StpmConfig, Threshold};
use stpm_datagen::{generate, DatasetProfile, DatasetSpec, GeneratedDataset};

const PROFILE: DatasetProfile = DatasetProfile::RenewableEnergy;
const SERIES: usize = 16;
const GRANULES: u64 = 720;
/// Nominal seconds of one E-STPM + A-STPM pair (see [`Ctx::units`]).
const NOMINAL_PAIR_S: f64 = 0.5;

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

fn pipeline(engine: Engine, m: u64) -> Pipeline {
    Pipeline::builder()
        .mapping_factor(m)
        .thresholds(thresholds())
        .threads(1)
        .engine(engine)
}

struct Setup {
    data: GeneratedDataset,
    exact: Pipeline,
    approx: Pipeline,
    /// Reports of the untimed warm-up ops: the reference every timed op's
    /// output is checked against.
    exact_ref: EngineReport,
    approx_ref: EngineReport,
}

fn set_up(seed: u64) -> Setup {
    let data = generate(
        &DatasetSpec::real(PROFILE)
            .scaled_to(SERIES, GRANULES)
            .with_seed(seed),
    );
    let m = data.mapping_factor;
    let exact = pipeline(Engine::Exact, m);
    let approx = pipeline(Engine::Approximate { mu: None }, m);
    let exact_ref = exact
        .run_symbolic(&data.dsyb)
        .expect("the warm-up E-STPM op mines")
        .report;
    let approx_ref = approx
        .run_symbolic(&data.dsyb)
        .expect("the warm-up A-STPM op mines")
        .report;
    Setup {
        data,
        exact,
        approx,
        exact_ref,
        approx_ref,
    }
}

/// The traced form of one op: the facade's own steps, `D_SEQ` build then
/// the engine, each inside a span of its layer.
fn traced_op(
    tracer: &mut Tracer,
    engine: Engine,
    layer: &'static str,
    data: &GeneratedDataset,
) -> Option<EngineReport> {
    let m = data.mapping_factor;
    let config = thresholds();
    let miner = engine.instantiate();
    tracer.begin_request();
    tracer.span("facade.run_symbolic", |tracer| {
        let dseq = tracer
            .span("timeseries.to_sequence_database", |_| {
                data.dsyb.to_sequence_database(m)
            })
            .ok()?;
        let input = MiningInput::new(&data.dsyb, &dseq, m);
        tracer
            .span(layer, |_| miner.mine_with(&input, &config))
            .ok()
    })
}

fn level(report: &EngineReport, k: usize) -> Option<&stpm_core::LevelStats> {
    report.stats().levels.iter().find(|l| l.k == k)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (setup_s, setup) = setup_median(|_| set_up(ctx.data_seed()));
    let mut out = Outcome::new(setup_s);

    // Timed part: as many E/A pairs as take the run time nominally. A
    // traced run alternates untraced and traced pairs, so the tracing
    // overhead is measured under the same drift as the ops it compares.
    let mut tracer = Tracer::new(ctx.trace);
    // Op latencies, indexed [traced][engine] with engine 0 = E, 1 = A.
    let mut op_ms: [[Vec<f64>; 2]; 2] = Default::default();
    let (mut single_ms, mut patterns_ms, mut mi_ms) = (Vec::new(), Vec::new(), Vec::new());
    let engines = [Engine::Exact, Engine::Approximate { mu: None }];
    let mut mined_granules = 0_u64;
    let cpu_start = crate::sys::cpu_seconds();
    let start = Instant::now();
    for pair in 0..ctx.units(NOMINAL_PAIR_S).max(2) {
        let traced = usize::from(ctx.trace && pair % 2 == 1);
        for (index, engine) in engines.into_iter().enumerate() {
            out.attempted += 1;
            let op_start = Instant::now();
            let report = if traced == 1 {
                let layer = ["core.mine_with", "approx.mine_with"][index];
                traced_op(&mut tracer, engine, layer, &setup.data)
            } else {
                let pipeline = [&setup.exact, &setup.approx][index];
                pipeline
                    .run_symbolic(&setup.data.dsyb)
                    .ok()
                    .map(|o| o.report)
            };
            let elapsed = ms(op_start.elapsed());
            let Some(report) = report else {
                out.failed += 1;
                continue;
            };
            op_ms[traced][index].push(elapsed);
            mined_granules += GRANULES;
            out.check(
                "every op mines the warm-up op's pattern count",
                report.total_patterns()
                    == [&setup.exact_ref, &setup.approx_ref][index].total_patterns(),
            );
            if traced == 1 && index == 0 {
                single_ms.push(ms(report.phase_time(phases::SINGLE_EVENTS)));
                patterns_ms.push(ms(report.phase_time(phases::PATTERNS)));
            } else if traced == 1 {
                mi_ms.push(ms(report.phase_time(phases::MI)));
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = crate::sys::cpu_seconds() - cpu_start;
    let peak_rss = crate::sys::peak_rss_mib();

    // Correctness, untimed: E-STPM equals APS-growth exactly, A-STPM finds
    // a subset of E-STPM.
    let baseline = pipeline(Engine::ApsGrowth, setup.data.mapping_factor)
        .run_symbolic(&setup.data.dsyb)
        .expect("APS-growth mines")
        .report;
    out.check(
        "E-STPM output equals APS-growth (patterns, supports, seasons)",
        canonical_result_set(setup.exact_ref.events(), setup.exact_ref.patterns())
            == canonical_result_set(baseline.events(), baseline.patterns()),
    );
    let exact_set = setup.exact_ref.pattern_set();
    out.check(
        "A-STPM patterns are a subset of E-STPM's",
        setup.approx_ref.pattern_set().is_subset(&exact_set),
    );
    let accuracy_pct = accuracy(&setup.exact_ref, &setup.approx_ref);

    let estpm_ms = median(&op_ms[0][0]);
    let astpm_ms = median(&op_ms[0][1]);
    out.named("estpm_ms", estpm_ms, "ms");
    out.named("astpm_ms", astpm_ms, "ms");
    out.named("astpm_accuracy_pct", accuracy_pct, "%");
    out.metric("primary_op_ms", estpm_ms);
    out.metric("secondary_op_ms", astpm_ms);
    out.metric("work_per_s", mined_granules as f64 / wall);
    out.metric("cpu_ms_per_op", cpu * 1e3 / out.attempted.max(1) as f64);
    out.metric("result_quality_pct", accuracy_pct);
    out.metric("peak_rss_mib", peak_rss);

    for (name, report) in [("exact", &setup.exact_ref), ("approx", &setup.approx_ref)] {
        out.count(format!("{name}.events"), report.events().len() as u64);
        for k in 2..=3 {
            let frequent = level(report, k).map_or(0, |l| l.frequent_patterns);
            out.count(format!("{name}.patterns.k{k}"), frequent as u64);
        }
    }
    out.count(
        "approx.pruned_series",
        setup.approx_ref.pruning().pruned_series.len() as u64,
    );

    if ctx.trace {
        let exact = &setup.exact_ref;
        let k = |k: usize| level(exact, k).copied().unwrap_or_default();
        let (k2, k3) = (k(2), k(3));
        out.metric(
            "timeseries.dseq_build_ms",
            median(&tracer.durations_ms("timeseries.to_sequence_database")),
        );
        out.metric(
            "core.mine_ms",
            median(&tracer.durations_ms("core.mine_with")),
        );
        out.metric("core.single_events_ms", median(&single_ms));
        out.metric("core.patterns_ms", median(&patterns_ms));
        out.metric("core.candidate_groups.k2", k2.candidate_groups as f64);
        out.metric("core.candidate_groups.k3", k3.candidate_groups as f64);
        out.metric("core.candidate_patterns.k2", k2.candidate_patterns as f64);
        out.metric("core.candidate_patterns.k3", k3.candidate_patterns as f64);
        out.metric("core.frequent_patterns.k2", k2.frequent_patterns as f64);
        out.metric("core.frequent_patterns.k3", k3.frequent_patterns as f64);
        out.metric(
            "core.frequent_per_candidate.k3",
            k3.frequent_patterns as f64 / k3.candidate_patterns.max(1) as f64,
        );
        out.metric(
            "core.classifier_calls_saved",
            exact.classifier_calls_saved() as f64,
        );
        out.metric(
            "core.adjacency_pruned",
            exact.adjacency_pruned_candidates() as f64,
        );
        out.metric("core.footprint_mib", exact.memory_mib());
        out.metric("core.footprint_to_rss", exact.memory_mib() / peak_rss);
        out.metric(
            "approx.mine_ms",
            median(&tracer.durations_ms("approx.mine_with")),
        );
        out.metric("approx.mi_ms", median(&mi_ms));
        out.metric(
            "approx.pruned_series_pct",
            setup.approx_ref.pruning().pruned_series_pct(),
        );
        out.overhead(&op_ms[0][0], &op_ms[1][0], tracer.span_count());
        out.write_trace(ctx, &tracer);
    }
    out
}
