//! End-to-end benchmark of the FreqSTPfTS workspace.
//!
//! ```text
//! stpm-perfbench --workload <batch-mine|stream-ingest|service-fleet>
//!                --seed <n> --seconds <s> --trace <0|1>
//! stpm-perfbench --self-test [--seconds <s>]
//! ```
//!
//! One run builds its inputs from the seed, sets up several times (the
//! median is `setup_s`), measures for `--seconds`, checks the outputs, and
//! prints as its last line one JSON object: the end-to-end metrics when
//! untraced, the per-layer metrics when traced. Lines before it, each
//! starting with `#`, carry the environment, the correctness checks, the
//! deterministic counts and the workload's own metric names. See
//! `perfbench/README.md`.

mod batch_mine;
mod service_fleet;
mod storage;
mod stream_ingest;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{median, Tracer};

const WORKLOADS: [&str; 3] = ["batch-mine", "stream-ingest", "service-fleet"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The end-to-end metrics every workload reports, in output order.
const END_TO_END: [(&str, &str); 7] = [
    ("primary_op_ms", "ms"),
    ("secondary_op_ms", "ms"),
    ("work_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("result_quality_pct", "%"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics of the traced run. Each workload measures the
/// layers it drives; a layer a workload leaves idle reads 0 there.
const PER_LAYER: [(&str, &str); 45] = [
    ("timeseries.dseq_build_ms", "ms"),
    ("core.mine_ms", "ms"),
    ("core.single_events_ms", "ms"),
    ("core.patterns_ms", "ms"),
    ("core.candidate_groups.k2", "count"),
    ("core.candidate_groups.k3", "count"),
    ("core.candidate_patterns.k2", "count"),
    ("core.candidate_patterns.k3", "count"),
    ("core.frequent_patterns.k2", "count"),
    ("core.frequent_patterns.k3", "count"),
    ("core.frequent_per_candidate.k3", "ratio"),
    ("core.classifier_calls_saved", "count"),
    ("core.adjacency_pruned", "count"),
    ("core.footprint_mib", "MiB"),
    ("core.footprint_to_rss", "ratio"),
    ("approx.mine_ms", "ms"),
    ("approx.mi_ms", "ms"),
    ("approx.pruned_series_pct", "%"),
    ("streaming.absorb_ms", "ms"),
    ("streaming.emit_ms", "ms"),
    ("streaming.append_p99_ms", "ms"),
    ("streaming.resident_mib", "MiB"),
    ("streaming.patterns_final", "count"),
    ("facade.append_ms", "ms"),
    ("facade.wal_ms", "ms"),
    ("facade.snapshot_ms", "ms"),
    ("facade.snapshot_bytes", "bytes"),
    ("facade.wal_bytes", "bytes"),
    ("facade.recover_ms", "ms"),
    ("facade.recover_replayed_records", "count"),
    ("service.call_p50_ms", "ms"),
    ("service.append_p90_ms", "ms"),
    ("service.append_p99_ms", "ms"),
    ("service.evictions_per_append", "ratio"),
    ("service.rehydrations_per_append", "ratio"),
    ("service.resident_to_budget", "ratio"),
    ("service.overloaded", "count"),
    ("service.deadline_rejections", "count"),
    ("service.io_retries", "count"),
    ("protocol.overhead_ms", "ms"),
    ("protocol.codec_us", "us"),
    ("protocol.frame_bytes", "bytes"),
    ("protocol.call_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// What one run was asked to do.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for durable state, inside the working directory
    /// and removed when the run ends.
    pub state_dir: PathBuf,
}

impl Ctx {
    /// How many units of work (ops or laps) the timed part runs: the number
    /// that takes `--seconds` at `nominal_s` per unit, the speed of an
    /// unloaded 2-vCPU VM. Fixed work rather than a deadline, so equal
    /// seeds do equal work however fast the machine runs that minute.
    pub fn units(&self, nominal_s: f64) -> usize {
        ((self.seconds / nominal_s).round() as usize).max(1)
    }

    /// The generator seed derived from `--seed` (splitmix64), so nearby
    /// seeds give unrelated inputs.
    pub fn data_seed(&self) -> u64 {
        let mut z = self.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Everything a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named checks; one failed call fails its check.
    checks: BTreeMap<&'static str, bool>,
    /// End-to-end and per-layer metrics by name.
    metrics: BTreeMap<&'static str, f64>,
    named: Vec<(&'static str, f64, &'static str)>,
    counts: BTreeMap<String, u64>,
}

impl Outcome {
    pub fn new(setup_s: f64) -> Self {
        let mut out = Self::default();
        out.metric("setup_s", setup_s);
        out
    }

    pub fn check(&mut self, name: &'static str, ok: bool) {
        *self.checks.entry(name).or_insert(true) &= ok;
    }

    /// A workload's own end-to-end metric name, printed on a `#` line.
    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    /// A deterministic count: equal seeds must reproduce it exactly.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.insert(name.into(), value);
    }

    /// Records a declared end-to-end or per-layer metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.metrics.insert(name, value);
    }

    /// Tracing overhead: the traced median of the workload's primary op
    /// over its untraced median, from ops interleaved in one run.
    pub fn overhead(&mut self, untraced_ms: &[f64], traced_ms: &[f64], spans: usize) {
        let base = median(untraced_ms);
        if base > 0.0 && !traced_ms.is_empty() {
            self.metric(
                "trace.overhead_pct",
                100.0 * (median(traced_ms) / base - 1.0),
            );
        }
        self.metric("trace.spans", spans as f64);
    }

    pub fn write_trace(&self, ctx: &Ctx, tracer: &Tracer) {
        let path = PathBuf::from(".perfbench/traces")
            .join(format!("{}-seed{}.tsv", ctx.workload, ctx.seed));
        if let Err(e) = tracer.write_tsv(&path) {
            eprintln!("writing {}: {e}", path.display());
        }
    }

    fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.values().all(|ok| *ok)
    }
}

/// Runs `set_up` [`SETUPS`] times, dropping each result before the next,
/// and returns the median set-up time in seconds and the last result.
pub fn setup_median<T>(mut set_up: impl FnMut(usize) -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for round in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(set_up(round));
        times.push(start.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("SETUPS is at least 1"))
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn print_result(ctx: &Ctx, out: &Outcome, medium: &str) {
    let tier = stpm_core::simd::kernels().name();
    println!(
        "# env: workload={} seed={} seconds={} trace={} data_dir={} medium={medium} fsync=skipped nproc={} simd={tier} malloc_arena_max={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.state_dir.display(),
        sys::nproc(),
        std::env::var("MALLOC_ARENA_MAX").unwrap_or_else(|_| "default".into())
    );
    for (name, ok) in &out.checks {
        println!("# check: {} {name}", if *ok { "ok  " } else { "FAIL" });
    }
    for (name, value) in &out.counts {
        println!("# count: {name}={value}");
    }
    for (name, value, unit) in &out.named {
        println!("# metric: {name}={value} {unit}");
    }
    // Every workload measures every end-to-end metric; a layer a workload
    // leaves idle reads 0 there.
    let declared: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).copied();
            assert!(
                ctx.trace || value.is_some(),
                "end-to-end metric {name} was not measured"
            );
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value.unwrap_or(0.0))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

fn run_workload(ctx: &Ctx) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&ctx.state_dir) {
        eprintln!("creating {}: {e}", ctx.state_dir.display());
        return ExitCode::FAILURE;
    }
    let medium = sys::medium(&ctx.state_dir);
    let out = match ctx.workload.as_str() {
        "batch-mine" => batch_mine::run(ctx),
        "stream-ingest" => stream_ingest::run(ctx),
        "service-fleet" => service_fleet::run(ctx),
        other => unreachable!("workload {other} was validated"),
    };
    let _ = std::fs::remove_dir_all(&ctx.state_dir);
    print_result(ctx, &out, &medium);
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("a correctness check failed");
        ExitCode::FAILURE
    }
}

/// The self-test: every workload twice on one seed and once on a second
/// seed, each in its own process. It fails when a run fails, a check fails,
/// or the two same-seed runs disagree on any deterministic count.
fn self_test(seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("locating the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let mut counts: Vec<(u64, Vec<String>)> = Vec::new();
        for seed in [1_u64, 1, 2] {
            let output = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output();
            let Ok(output) = output else {
                eprintln!("{workload} seed {seed}: could not start");
                ok = false;
                continue;
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let passed = output.status.success()
                && stdout
                    .lines()
                    .last()
                    .is_some_and(|l| l.starts_with("{\"correct\": true"));
            println!(
                "self-test: {workload} seed {seed}: {}",
                if passed { "ok" } else { "FAILED" }
            );
            if !passed {
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                ok = false;
            }
            let lines = stdout
                .lines()
                .filter(|l| l.starts_with("# count:"))
                .map(str::to_string)
                .collect();
            counts.push((seed, lines));
        }
        let same_seed: Vec<&Vec<String>> = counts
            .iter()
            .filter(|(s, _)| *s == 1)
            .map(|(_, c)| c)
            .collect();
        if same_seed.len() == 2 && (same_seed[0] != same_seed[1] || same_seed[0].is_empty()) {
            println!("self-test: {workload}: deterministic counts differ between two seed-1 runs");
            for (a, b) in same_seed[0].iter().zip(same_seed[1]) {
                if a != b {
                    println!("  {a}  vs  {b}");
                }
            }
            ok = false;
        }
    }
    if ok {
        println!("self-test: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: stpm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       stpm-perfbench --self-test [--seconds <s>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// glibc's malloc gives each thread that allocates its own arena, and
/// which arenas a multi-threaded run reuses depends on scheduling: equal
/// `service-fleet` runs peaked anywhere from 64 to 130 MiB. One arena makes
/// the peak repeat. The single-threaded workloads only ever use one arena.
const MALLOC_ARENA_MAX: &str = "1";

/// Re-executes this process image with `MALLOC_ARENA_MAX` set, unless it
/// already is. `exec` replaces the process, so the run stays one process;
/// it only returns on failure.
fn pin_malloc_arenas() {
    use std::os::unix::process::CommandExt;
    if std::env::var_os("MALLOC_ARENA_MAX").is_some() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let err = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env("MALLOC_ARENA_MAX", MALLOC_ARENA_MAX)
        .exec();
    eprintln!("re-executing with MALLOC_ARENA_MAX={MALLOC_ARENA_MAX}: {err}");
}

fn main() -> ExitCode {
    pin_malloc_arenas();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut self_test_mode = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match (args[i].as_str(), value) {
            ("--self-test", _) => {
                self_test_mode = true;
                i += 1;
                continue;
            }
            ("--workload", Some(v)) => workload = Some(v.clone()),
            ("--seed", Some(v)) => match v.parse::<u64>() {
                Ok(v) => seed = Some(v),
                Err(_) => return usage("--seed takes a whole number"),
            },
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = Some(v),
                _ => return usage("--seconds takes a positive number"),
            },
            ("--trace", Some(v)) => match v.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            (flag, _) => return usage(&format!("unexpected argument {flag}")),
        }
        i += 2;
    }
    if self_test_mode {
        return self_test(seconds.unwrap_or(2.0));
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage("--workload is missing or unknown");
    };
    let (Some(seed), Some(seconds)) = (seed, seconds) else {
        return usage("--seed and --seconds are required");
    };
    let state_dir =
        PathBuf::from(".perfbench/state").join(format!("{workload}-{}", std::process::id()));
    run_workload(&Ctx {
        workload,
        seed,
        seconds,
        trace,
        state_dir,
    })
}
