//! `service-fleet`: closed loop over TCP. One `Client` connection drives an
//! in-process `serve()` with one worker through the arrival schedule of
//! about 2 000 generated tenants (power-law sizes, 2-granule batches,
//! interleaved one batch at a time) under a memory budget of 2 KiB per
//! tenant, so cold tenants are evicted and rehydrated all the time. Set-up
//! appends every tenant's first batch; the timed part appends the rest of
//! the schedule with one `Patterns` query after every three appends. A run
//! replays whole laps of the schedule, each on a fresh service.
//!
//! Every `Client` is closed before `ServerHandle::drain()`: `drain` joins
//! connection handlers that block reading until their peer hangs up, so an
//! open idle connection makes it wait forever.

use crate::storage::NoSyncFs;
use crate::trace::{median, ms, quantile, Tracer};
use crate::{setup_median, Ctx, Outcome};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stpm_core::{MemoryBudget, StpmConfig, Threshold};
use stpm_datagen::{service_load, DatasetProfile, ServiceLoad, TenantLoadSpec};
use stpm_service::protocol::{decode_request, decode_response, encode_request, encode_response};
use stpm_service::{
    serve, Client, Request, Response, ServerHandle, Service, ServiceConfig, ServiceStats,
};

const TENANTS: usize = 2000;
const BUDGET_PER_TENANT: u64 = 2048;
const QUERY_EVERY: usize = 3;
/// Tenants whose pattern sets are checked against a direct pipeline.
const SAMPLED_TENANTS: usize = 8;
/// Nominal seconds of one lap (see [`Ctx::units`]).
const NOMINAL_LAP_S: f64 = 7.0;

fn load(seed: u64) -> ServiceLoad {
    service_load(&TenantLoadSpec {
        tenants: TENANTS,
        profile: DatasetProfile::SmartCity,
        max_granules: 48,
        min_granules: 8,
        num_series: 2,
        skew: 1.0,
        batch_granules: 2,
        mean_burst: 1,
        seed,
    })
}

fn thresholds() -> StpmConfig {
    StpmConfig {
        max_period: Threshold::Absolute(3),
        min_density: Threshold::Absolute(2),
        dist_interval: (2, 40),
        min_season: 1,
        max_pattern_len: 2,
        threads: 1,
        ..StpmConfig::default()
    }
}

fn config(load: &ServiceLoad, dir: PathBuf) -> ServiceConfig {
    let mut config = ServiceConfig::new(dir);
    config.mapping_factor = load.tenants[0].dataset.mapping_factor;
    config.thresholds = thresholds();
    config.workers = 1;
    config.memory_budget = Some(MemoryBudget::bytes(
        load.tenants.len() as u64 * BUDGET_PER_TENANT,
    ));
    config
}

/// The ops of the timed part, in order: appends of every batch after each
/// tenant's first, in schedule order, with a `Patterns` query of the
/// latest appended tenant after every three appends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Append { tenant: usize, batch: usize },
    Query { tenant: usize },
}

fn timed_ops(load: &ServiceLoad) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut appends = 0;
    for &(tenant, batch) in load.arrivals.iter().filter(|(_, batch)| *batch > 0) {
        ops.push(Op::Append { tenant, batch });
        appends += 1;
        if appends % QUERY_EVERY == 0 {
            ops.push(Op::Query { tenant });
        }
    }
    ops
}

fn request(load: &ServiceLoad, op: Op) -> Request {
    match op {
        Op::Append { tenant, batch } => Request::Append {
            tenant: load.tenants[tenant].name.clone(),
            deadline_ms: 0,
            batch: load.tenants[tenant].batches[batch].clone(),
        },
        Op::Query { tenant } => Request::Patterns {
            tenant: load.tenants[tenant].name.clone(),
        },
    }
}

fn is_failure(response: &std::io::Result<Response>) -> bool {
    !matches!(
        response,
        Ok(Response::Appended { .. } | Response::Patterns { .. })
    )
}

/// A running service with its one client, positioned before the first
/// timed op: every tenant's first batch appended, one warm-up op per op
/// kind done. Fields drop in order, so the client closes before the
/// server stops.
struct Fleet {
    client: Client,
    server: ServerHandle,
    dir: PathBuf,
    /// Index into the timed ops of the first op the timed part sends.
    first_op: usize,
    /// Appends the service acknowledged before the timed part.
    acked_before: u64,
}

impl Fleet {
    /// Closes the client, then drains the server.
    fn close(self) {
        let Fleet {
            client,
            server,
            dir,
            ..
        } = self;
        drop(client);
        let _ = server.drain();
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A service over [`NoSyncFs`] in a fresh `dir`.
fn start_service(load: &ServiceLoad, dir: &Path) -> Service {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir.join("tenants")).expect("creating the service's data directory");
    Service::start_with_storage(config(load, dir.to_path_buf()), Arc::new(NoSyncFs))
}

fn start_fleet(load: &ServiceLoad, ops: &[Op], dir: PathBuf) -> Fleet {
    let service = start_service(load, &dir);
    let server = serve(service, "127.0.0.1:0").expect("binding a loopback port");
    let mut client = Client::connect(server.addr()).expect("connecting to the service");
    let mut acked_before = 0;
    for tenant in &load.tenants {
        let response = client.append(&tenant.name, 0, tenant.batches[0].clone());
        assert!(
            !is_failure(&response),
            "pre-populating {}: {response:?}",
            tenant.name
        );
        acked_before += 1;
    }
    // One untimed warm-up op per op kind: the schedule's first append and
    // the query that follows it.
    let warm_up = ops
        .iter()
        .position(|op| matches!(op, Op::Query { .. }))
        .map_or(0, |i| i + 1);
    for &op in &ops[..warm_up] {
        let response = client.call(&request(load, op));
        assert!(!is_failure(&response), "warm-up op {op:?}: {response:?}");
        acked_before += u64::from(matches!(op, Op::Append { .. }));
    }
    Fleet {
        client,
        server,
        dir,
        first_op: warm_up,
        acked_before,
    }
}

/// The direct single-tenant pipeline's canonical pattern set for `tenant`.
fn direct_patterns(load: &ServiceLoad, tenant: usize) -> Vec<String> {
    let mut direct = freqstpfts::Pipeline::builder()
        .mapping_factor(load.tenants[tenant].dataset.mapping_factor)
        .thresholds(thresholds())
        .threads(1)
        .into_streaming();
    for batch in &load.tenants[tenant].batches {
        direct
            .append_symbolic(batch)
            .expect("the direct pipeline absorbs the batch");
    }
    direct
        .checkpoint()
        .expect("the direct pipeline mines")
        .pattern_set()
        .into_iter()
        .collect()
}

#[derive(Default)]
struct Times {
    append_ms: Vec<f64>,
    query_ms: Vec<f64>,
    traced_append_ms: Vec<f64>,
    in_process_append_ms: Vec<f64>,
    codec_us: Vec<f64>,
    frame_bytes: Vec<f64>,
    appends: u64,
    busy: Duration,
}

fn stats(client: &mut Client) -> ServiceStats {
    client.stats().expect("the stats request")
}

/// One traced TCP op: the client call inside a span, then, outside the
/// op's latency, the protocol codec over the same request and response
/// frames. Returns the response and the call's latency in ms.
fn traced_call(
    tracer: &mut Tracer,
    times: &mut Times,
    client: &mut Client,
    req: &Request,
) -> (std::io::Result<Response>, f64) {
    tracer.begin_request();
    let start = Instant::now();
    let response = tracer.span("protocol.client_call", |_| client.call(req));
    let call_ms = ms(start.elapsed());
    if let Ok(resp) = &response {
        let start = Instant::now();
        let (request_frame, response_frame) = tracer.span("protocol.codec", |tracer| {
            let request_frame = tracer.span("protocol.encode_request", |_| encode_request(req));
            let _ = tracer.span("protocol.decode_request", |_| {
                decode_request(&request_frame)
            });
            let response_frame = tracer.span("protocol.encode_response", |_| encode_response(resp));
            let _ = tracer.span("protocol.decode_response", |_| {
                decode_response(&response_frame)
            });
            (request_frame, response_frame)
        });
        times.codec_us.push(start.elapsed().as_secs_f64() * 1e6);
        times
            .frame_bytes
            .push((request_frame.len() + response_frame.len()) as f64);
    }
    (response, call_ms)
}

/// The same schedule through `Service::call` in process, without TCP.
fn in_process_lap(load: &ServiceLoad, ops: &[Op], dir: PathBuf, times: &mut Times) {
    let service = start_service(load, &dir);
    for tenant in &load.tenants {
        service.call(Request::Append {
            tenant: tenant.name.clone(),
            deadline_ms: 0,
            batch: tenant.batches[0].clone(),
        });
    }
    for &op in ops {
        let req = request(load, op);
        let start = Instant::now();
        let response = service.call(req);
        let elapsed = ms(start.elapsed());
        if matches!(op, Op::Append { .. }) && matches!(response, Response::Appended { .. }) {
            times.in_process_append_ms.push(elapsed);
        }
    }
    let _ = service.drain();
    let _ = std::fs::remove_dir_all(dir);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let seed = ctx.data_seed();
    let (setup_s, (load, ops, first_fleet)) = setup_median(|round| {
        let load = load(seed);
        let ops = timed_ops(&load);
        let fleet = start_fleet(&load, &ops, ctx.state_dir.join(format!("setup-{round}")));
        (load, ops, fleet)
    });
    let mut out = Outcome::new(setup_s);
    let mut tracer = Tracer::new(ctx.trace);
    let mut times = Times::default();
    let mut next = Some(first_fleet);
    let mut deltas = (0_u64, 0_u64, 0_u64, 0_u64, 0_u64);
    let mut last_counts = (0_u64, 0_u64);
    let mut finished: Option<Fleet> = None;
    let mut cpu = 0.0;
    for lap_index in 0..ctx.units(NOMINAL_LAP_S) {
        if let Some(old) = finished.take() {
            old.close();
        }
        let mut fleet = next.take().unwrap_or_else(|| {
            start_fleet(&load, &ops, ctx.state_dir.join(format!("lap-{lap_index}")))
        });
        let before = stats(&mut fleet.client);
        let (mut attempted, mut failed) = (0_u64, 0_u64);
        let cpu_start = crate::sys::cpu_seconds();
        let lap_start = Instant::now();
        // A traced run traces every second op of each kind.
        let mut kind_counts = [0_usize; 2];
        for &op in &ops[fleet.first_op..] {
            let req = request(&load, op);
            let kind = usize::from(matches!(op, Op::Query { .. }));
            kind_counts[kind] += 1;
            let traced = ctx.trace && kind_counts[kind] % 2 == 0;
            let (response, elapsed) = if traced {
                traced_call(&mut tracer, &mut times, &mut fleet.client, &req)
            } else {
                let op_start = Instant::now();
                let response = fleet.client.call(&req);
                (response, ms(op_start.elapsed()))
            };
            let is_append = matches!(op, Op::Append { .. });
            attempted += u64::from(is_append);
            if is_failure(&response) {
                failed += u64::from(is_append);
                out.failed += 1;
            } else if is_append && traced {
                times.traced_append_ms.push(elapsed);
            } else if is_append {
                times.append_ms.push(elapsed);
            } else if !traced {
                times.query_ms.push(elapsed);
            }
            out.attempted += 1;
        }
        times.busy += lap_start.elapsed();
        cpu += crate::sys::cpu_seconds() - cpu_start;
        times.appends += attempted - failed;
        let after = stats(&mut fleet.client);
        deltas = (
            after.evictions - before.evictions,
            after.rehydrations - before.rehydrations,
            after.overloaded_rejections,
            after.deadline_rejections,
            after.io_retries,
        );
        last_counts = (attempted, after.acked_appends - fleet.acked_before);
        out.check(
            "acknowledged appends equal attempted minus failed",
            after.acked_appends - fleet.acked_before == attempted - failed,
        );
        out.check(
            "resident tenant state ends within the memory budget",
            after.resident_bytes <= after.budget_bytes,
        );
        finished = Some(fleet);
    }
    let peak_rss = crate::sys::peak_rss_mib();
    let mut fleet = finished.expect("at least one lap ran");

    // Correctness, untimed: sampled tenants, the heaviest first, match a
    // direct pipeline fed the same batches.
    let mut identical = 0;
    let step = (load.tenants.len() / SAMPLED_TENANTS).max(1);
    let sampled: Vec<usize> = (0..SAMPLED_TENANTS)
        .map(|i| (i * step + (seed as usize % step)) % load.tenants.len())
        .chain([0])
        .collect();
    for &tenant in &sampled {
        let served = match fleet.client.patterns(&load.tenants[tenant].name) {
            Ok(Response::Patterns { patterns }) => Some(patterns),
            _ => None,
        };
        let same = served == Some(direct_patterns(&load, tenant));
        identical += usize::from(same);
        out.check(
            "sampled tenants' patterns equal a direct StreamingPipeline",
            same,
        );
    }
    let end_stats = stats(&mut fleet.client);
    fleet.close();

    let append_p50 = median(&times.append_ms);
    // Append latency is bimodal: an append that pushes residency over the
    // budget pays the victim scan and an eviction, about five times an
    // append that does not, and a schedule's share of such appends sits
    // near one half. Its median jumps between the two modes from seed to
    // seed, so the gated figure is the mean, which moves smoothly with
    // the share.
    let append_mean = times.append_ms.iter().sum::<f64>() / times.append_ms.len().max(1) as f64;
    let query_p50 = median(&times.query_ms);
    let appends_per_s = times.appends as f64 / times.busy.as_secs_f64();
    let cpu_ms_per_append = cpu * 1e3 / times.appends.max(1) as f64;
    out.named("append_p50_ms", append_p50, "ms");
    out.named("append_mean_ms", append_mean, "ms");
    out.named("query_p50_ms", query_p50, "ms");
    out.named("appends_per_s", appends_per_s, "1/s");
    out.named("cpu_ms_per_append", cpu_ms_per_append, "ms");
    out.metric("primary_op_ms", append_mean);
    out.metric("secondary_op_ms", query_p50);
    out.metric("work_per_s", appends_per_s);
    out.metric("cpu_ms_per_op", cpu_ms_per_append);
    out.metric(
        "result_quality_pct",
        100.0 * identical as f64 / sampled.len() as f64,
    );
    out.metric("peak_rss_mib", peak_rss);

    out.count("fleet.tenants", load.tenants.len() as u64);
    out.count("fleet.timed_appends", last_counts.0);
    out.count("fleet.acked_timed_appends", last_counts.1);
    out.count("fleet.evictions", deltas.0);
    out.count("fleet.rehydrations", deltas.1);
    out.count(
        "fleet.patterns_interned",
        end_stats.tenants.iter().map(|t| t.patterns_interned).sum(),
    );

    if ctx.trace {
        in_process_lap(&load, &ops, ctx.state_dir.join("in-process"), &mut times);
        let appends = last_counts.0.max(1) as f64;
        let all_append: Vec<f64> = times
            .append_ms
            .iter()
            .chain(&times.traced_append_ms)
            .copied()
            .collect();
        let call_p50 = median(&times.in_process_append_ms);
        out.metric("service.call_p50_ms", call_p50);
        out.metric("service.append_p90_ms", quantile(&all_append, 0.9));
        out.metric("service.append_p99_ms", quantile(&all_append, 0.99));
        out.metric("service.evictions_per_append", deltas.0 as f64 / appends);
        out.metric("service.rehydrations_per_append", deltas.1 as f64 / appends);
        out.metric(
            "service.resident_to_budget",
            end_stats.resident_bytes as f64 / end_stats.budget_bytes.max(1) as f64,
        );
        out.metric("service.overloaded", deltas.2 as f64);
        out.metric("service.deadline_rejections", deltas.3 as f64);
        out.metric("service.io_retries", deltas.4 as f64);
        out.metric("protocol.overhead_ms", append_p50 - call_p50);
        out.metric("protocol.codec_us", median(&times.codec_us));
        out.metric(
            "protocol.frame_bytes",
            times.frame_bytes.iter().sum::<f64>() / times.frame_bytes.len().max(1) as f64,
        );
        out.metric(
            "protocol.call_ms",
            median(&tracer.durations_ms("protocol.client_call")),
        );
        out.overhead(
            &times.append_ms,
            &times.traced_append_ms,
            tracer.span_count(),
        );
        out.write_trace(ctx, &tracer);
    }
    out
}
