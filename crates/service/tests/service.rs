//! Functional tests of the service tier: admission control and typed
//! backpressure, deadlines, quarantine isolation, eviction/rehydration
//! identity, failed-eviction liveness, graceful drain, the TCP front end, and
//! a budget-starved fleet under transient I/O faults.

use std::collections::{HashSet, VecDeque};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;
use stpm_core::{failpoints, FaultyFs, MemoryBudget, RetryPolicy, StpmConfig, Threshold};
use stpm_datagen::{service_load, TenantLoadSpec};
use stpm_service::{
    serve, Client, OverloadScope, Request, Response, Service, ServiceConfig, ServiceError,
};
use stpm_timeseries::{Alphabet, SymbolId, SymbolicDatabase, SymbolicSeries};

/// A two-series symbolic batch of `len` instants; `phase` shifts the
/// symbol sequence so distinct batches carry distinct data.
fn batch(len: usize, phase: usize) -> SymbolicDatabase {
    batch_named(&["s0", "s1"], len, phase)
}

fn batch_named(names: &[&str], len: usize, phase: usize) -> SymbolicDatabase {
    let alphabet = Alphabet::from_strs(&["lo", "hi"]).expect("a valid alphabet");
    let series = names
        .iter()
        .map(|name| {
            let symbols = (0..len)
                .map(|i| SymbolId(u16::try_from((i + phase) % 2).expect("0 or 1")))
                .collect();
            SymbolicSeries::new((*name).to_string(), symbols, alphabet.clone())
        })
        .collect();
    SymbolicDatabase::new(series).expect("a valid batch")
}

fn config() -> ServiceConfig {
    let mut config = ServiceConfig::new("svc");
    config.mapping_factor = 1;
    config.workers = 2;
    config
}

fn service(config: ServiceConfig) -> (Service, FaultyFs) {
    let fs = FaultyFs::with_seed(5);
    let service = Service::start_with_storage(config, Arc::new(fs.clone()));
    (service, fs)
}

fn append(service: &Service, tenant: &str, data: SymbolicDatabase) -> Response {
    service.call(Request::Append {
        tenant: tenant.to_string(),
        deadline_ms: 0,
        batch: data,
    })
}

fn patterns_of(service: &Service, tenant: &str) -> Vec<String> {
    match service.call(Request::Patterns {
        tenant: tenant.to_string(),
    }) {
        Response::Patterns { patterns } => patterns,
        other => panic!("expected patterns, got {other:?}"),
    }
}

#[test]
fn appends_are_acknowledged_with_progress() {
    let (service, _fs) = service(config());
    let Response::Appended {
        granules,
        pending_instants,
        ..
    } = append(&service, "acme", batch(6, 0))
    else {
        panic!("expected an acknowledgment");
    };
    assert_eq!(granules, 6);
    assert_eq!(pending_instants, 0);
    let Response::Checkpoint { granules, .. } = service.call(Request::Checkpoint {
        tenant: "acme".to_string(),
    }) else {
        panic!("expected a checkpoint");
    };
    assert_eq!(granules, 6);
    let stats = service.stats();
    assert_eq!(stats.acked_appends, 1);
    assert_eq!(stats.tenant("acme").expect("registered").acked_appends, 1);
    service.kill();
}

#[test]
fn zero_depth_queues_reject_with_typed_scopes() {
    let mut tenant_capped = config();
    tenant_capped.tenant_queue_depth = 0;
    let (service, _fs) = service(tenant_capped);
    let Response::Error(ServiceError::Overloaded { scope }) = append(&service, "t", batch(3, 0))
    else {
        panic!("expected a tenant-scope overload");
    };
    assert_eq!(scope, OverloadScope::Tenant);
    assert_eq!(service.stats().overloaded_rejections, 1);
    service.kill();

    let mut globally_capped = config();
    globally_capped.global_queue_depth = 0;
    let (service, _fs) = crate::service(globally_capped);
    let Response::Error(ServiceError::Overloaded { scope }) = append(&service, "t", batch(3, 0))
    else {
        panic!("expected a global-scope overload");
    };
    assert_eq!(scope, OverloadScope::Global);
    service.kill();
}

#[test]
fn floods_are_bounded_not_buffered() {
    let mut cfg = config();
    cfg.workers = 1;
    cfg.tenant_queue_depth = 2;
    let (service, _fs) = service(cfg);
    // Rapid-fire submits without awaiting: the queue holds at most 2, so
    // with 64 in flight at least one typed overload must surface, and
    // every request gets exactly one response.
    let receivers: Vec<_> = (0..64)
        .map(|i| {
            service.submit(Request::Append {
                tenant: "flooded".to_string(),
                deadline_ms: 0,
                batch: batch(30, i % 2),
            })
        })
        .collect();
    let mut acked = 0_u32;
    let mut overloaded = 0_u32;
    let mut other = 0_u32;
    for rx in receivers {
        match rx.recv().expect("every admitted request is answered") {
            Response::Appended { .. } => acked += 1,
            Response::Error(ServiceError::Overloaded { .. }) => overloaded += 1,
            _ => other += 1,
        }
    }
    assert_eq!(acked + overloaded + other, 64);
    assert_eq!(other, 0);
    assert!(overloaded > 0, "a bounded queue must shed load");
    assert!(acked > 0, "admission control must not reject everything");
    assert_eq!(u64::from(overloaded), service.stats().overloaded_rejections);
    service.kill();
}

#[test]
fn expired_deadlines_cancel_without_touching_state() {
    let mut cfg = config();
    // Every job is already expired when a worker picks it up.
    cfg.default_deadline = Some(Duration::from_nanos(1));
    let (service, _fs) = service(cfg);
    let Response::Error(ServiceError::DeadlineExceeded) = append(&service, "t", batch(3, 0)) else {
        panic!("expected a deadline rejection");
    };
    let stats = service.stats();
    assert_eq!(stats.deadline_rejections, 1);
    assert_eq!(
        stats.tenant("t").expect("registered").granules_absorbed,
        0,
        "a cancelled job must not touch tenant state"
    );
    service.kill();
}

#[test]
fn poisoned_input_quarantines_only_its_tenant() {
    let (service, _fs) = service(config());
    assert!(matches!(
        append(&service, "good", batch(4, 0)),
        Response::Appended { .. }
    ));
    assert!(matches!(
        append(&service, "bad", batch(4, 0)),
        Response::Appended { .. }
    ));
    // A batch that does not continue the absorbed series set is poison.
    let Response::Error(ServiceError::Quarantined { .. }) =
        append(&service, "bad", batch_named(&["other"], 4, 0))
    else {
        panic!("expected a quarantine");
    };
    // The quarantine latches...
    assert!(matches!(
        append(&service, "bad", batch(4, 1)),
        Response::Error(ServiceError::Quarantined { .. })
    ));
    // ...but neighbors and the daemon itself keep serving.
    assert!(matches!(
        append(&service, "good", batch(4, 1)),
        Response::Appended { .. }
    ));
    let stats = service.stats();
    assert_eq!(stats.quarantined_tenants, 1);
    let bad = stats.tenant("bad").expect("registered");
    assert!(bad.quarantined);
    assert_eq!(
        bad.granules_absorbed, 4,
        "durable pre-poison state is intact"
    );
    service.kill();
}

#[test]
fn bad_tenant_names_are_rejected() {
    let (service, _fs) = service(config());
    for name in ["", "../escape", "a/b", ".hidden", "naughty\n"] {
        assert!(
            matches!(
                append(&service, name, batch(3, 0)),
                Response::Error(ServiceError::BadRequest { .. })
            ),
            "tenant name {name:?} must be rejected"
        );
    }
    service.kill();
}

/// Eviction/rehydration round trips must not change what a tenant mines:
/// a budget-starved service (everything evicted after every job) produces
/// exactly the state an unbudgeted one does.
#[test]
fn eviction_and_rehydration_preserve_tenant_state_exactly() {
    let run = |budget: Option<MemoryBudget>| {
        let mut cfg = config();
        cfg.memory_budget = budget;
        let (service, fs) = service(cfg.clone());
        for phase in 0..4 {
            for tenant in ["alpha", "beta"] {
                assert!(matches!(
                    append(&service, tenant, batch(6, phase)),
                    Response::Appended { .. }
                ));
            }
        }
        let result = (
            patterns_of(&service, "alpha"),
            patterns_of(&service, "beta"),
            service.stats(),
        );
        assert!(service.drain().failures.is_empty());
        // Each tenant's durable files, recovered by a plain pipeline, carry
        // the full result set: events, patterns, supports and seasons.
        let durable = ["alpha", "beta"].map(|tenant| {
            let dir = cfg.data_dir.join("tenants");
            let mut pipeline = freqstpfts::Pipeline::builder()
                .mapping_factor(cfg.mapping_factor)
                .thresholds(cfg.thresholds.clone())
                .into_streaming();
            pipeline.set_storage(fs.clone());
            pipeline
                .recover(
                    Some(&dir.join(format!("{tenant}.snap"))),
                    &dir.join(format!("{tenant}.wal")),
                )
                .expect("the drained tenant recovers");
            let report = pipeline.checkpoint().expect("the tenant mined granules");
            stpm_core::canonical_result_set(report.events(), report.patterns())
        });
        (result, durable)
    };
    let ((alpha_free, beta_free, stats_free), durable_free) = run(None);
    let ((alpha_tight, beta_tight, stats_tight), durable_tight) = run(Some(MemoryBudget::bytes(1)));
    assert_eq!(alpha_free, alpha_tight);
    assert_eq!(beta_free, beta_tight);
    assert!(durable_free.iter().all(|set| !set.is_empty()));
    assert_eq!(durable_free, durable_tight);
    assert_eq!(stats_free.evictions, 0);
    assert!(stats_tight.evictions > 0, "the budget must force evictions");
    assert!(stats_tight.rehydrations > 0, "cold tenants must rehydrate");
    for tenant in ["alpha", "beta"] {
        let free = stats_free.tenant(tenant).expect("registered");
        let tight = stats_tight.tenant(tenant).expect("registered");
        assert_eq!(free.granules_absorbed, tight.granules_absorbed);
        assert_eq!(free.patterns_interned, tight.patterns_interned);
    }
    assert_eq!(
        stats_tight.resident_bytes, 0,
        "a one-byte budget leaves everything cold between requests"
    );
}

/// A failed spill must leave the victim live, lossless, and still serving.
#[test]
fn failed_spill_leaves_the_tenant_live_and_lossless() {
    let mut cfg = config();
    cfg.memory_budget = Some(MemoryBudget::bytes(1));
    let (service, fs) = service(cfg);
    assert!(matches!(
        append(&service, "spiller", batch(6, 0)),
        Response::Appended { .. }
    ));
    // The post-job eviction of that append succeeded; fail the next one.
    fs.fail_nth(
        failpoints::SNAPSHOT_CREATE_TMP,
        fs.op_count(failpoints::SNAPSHOT_CREATE_TMP) + 1,
    );
    assert!(
        matches!(
            append(&service, "spiller", batch(6, 1)),
            Response::Appended { .. }
        ),
        "the append itself is durable and acknowledged; only the spill fails"
    );
    let stats = service.stats();
    let spiller = stats.tenant("spiller").expect("registered");
    assert!(
        spiller.resident,
        "a failed spill leaves the tenant live in memory"
    );
    assert_eq!(spiller.evictions, 1, "only the first eviction succeeded");
    assert_eq!(spiller.granules_absorbed, 12, "nothing was lost");
    // The one-shot fault is consumed: the next job's eviction succeeds.
    assert!(matches!(
        append(&service, "spiller", batch(6, 0)),
        Response::Appended { .. }
    ));
    let stats = service.stats();
    let spiller = stats.tenant("spiller").expect("registered");
    assert!(!spiller.resident, "the retried eviction succeeded");
    assert_eq!(spiller.evictions, 2);
    assert_eq!(spiller.granules_absorbed, 18);
    service.kill();
}

/// A graceful drain flushes every tenant: a restarted daemon recovers from
/// clean snapshots with zero WAL replay and identical state.
#[test]
fn drain_flushes_every_tenant_for_clean_recovery() {
    let cfg = config();
    let fs = FaultyFs::with_seed(5);
    let service = Service::start_with_storage(cfg.clone(), Arc::new(fs.clone()));
    for tenant in ["a", "b", "c"] {
        for phase in 0..2 {
            assert!(matches!(
                append(&service, tenant, batch(6, phase)),
                Response::Appended { .. }
            ));
        }
    }
    let before: Vec<_> = ["a", "b", "c"]
        .iter()
        .map(|t| patterns_of(&service, t))
        .collect();
    let report = service.drain();
    assert_eq!(report.flushed, 3, "every live tenant is flushed");
    assert!(report.failures.is_empty());

    let revived = Service::start_with_storage(cfg, Arc::new(fs.clone()));
    let after: Vec<_> = ["a", "b", "c"]
        .iter()
        .map(|t| patterns_of(&revived, t))
        .collect();
    assert_eq!(before, after);
    let stats = revived.stats();
    for tenant in ["a", "b", "c"] {
        let t = stats.tenant(tenant).expect("registered");
        assert_eq!(
            t.replayed_records, 0,
            "a drained daemon restarts from clean snapshots, not WAL replay"
        );
        assert_eq!(t.granules_absorbed, 12);
    }
    revived.kill();
}

/// End-to-end over TCP: append, query, stats, shutdown — all through the
/// wire protocol.
#[test]
fn tcp_round_trip_serves_and_shuts_down() {
    let (svc, _fs) = service(config());
    let handle = serve(svc, "127.0.0.1:0").expect("bind an ephemeral port");
    let addr = handle.addr();

    let mut client = Client::connect(addr).expect("connect");
    let response = client.append("wire", 0, batch(6, 0)).expect("append");
    assert!(matches!(response, Response::Appended { granules: 6, .. }));
    let response = client.checkpoint("wire").expect("checkpoint");
    assert!(matches!(response, Response::Checkpoint { granules: 6, .. }));
    let response = client.patterns("wire").expect("patterns");
    assert!(matches!(response, Response::Patterns { .. }));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.acked_appends, 1);
    assert_eq!(stats.tenant("wire").expect("registered").acked_appends, 1);

    // A second connection sees the same daemon.
    let mut second = Client::connect(addr).expect("connect");
    let stats = second.stats().expect("stats");
    assert_eq!(stats.acked_appends, 1);

    let response = client.shutdown().expect("shutdown");
    assert!(matches!(response, Response::ShutdownStarted));
    // In-flight connections get typed shutdown errors, not hangs.
    let response = second.append("wire", 0, batch(6, 1)).expect("transport ok");
    assert!(matches!(
        response,
        Response::Error(ServiceError::ShuttingDown)
    ));
    drop(client);
    drop(second);
    let report = handle.drain();
    assert_eq!(report.flushed, 1);
}

/// `drain()` returns while a client stays connected and idle: stopping the
/// accept loop ends the handler's blocked read instead of waiting for the
/// client to hang up, and every acknowledged append is flushed.
#[test]
fn drain_returns_while_an_idle_client_stays_connected() {
    let cfg = config();
    let fs = FaultyFs::with_seed(5);
    let service = Service::start_with_storage(cfg.clone(), Arc::new(fs.clone()));
    let handle = serve(service, "127.0.0.1:0").expect("bind an ephemeral port");
    let mut client = Client::connect(handle.addr()).expect("connect");
    for phase in 0..2 {
        let response = client.append("idle", 0, batch(6, phase)).expect("append");
        assert!(matches!(response, Response::Appended { .. }));
    }
    let Response::Patterns { patterns: before } = client.patterns("idle").expect("patterns") else {
        panic!("expected patterns");
    };

    // The client neither sends nor hangs up while the server drains.
    let (done, drained) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(handle.drain());
    });
    let report = drained
        .recv_timeout(Duration::from_secs(5))
        .expect("drain returns within seconds while a client idles");
    assert_eq!(report.flushed, 1, "the acknowledged appends are flushed");
    assert!(report.failures.is_empty());
    // The server closed the idle connection on its way down.
    assert!(client.stats().is_err());
    drop(client);

    let revived = Service::start_with_storage(cfg, Arc::new(fs));
    assert_eq!(patterns_of(&revived, "idle"), before);
    let stats = revived.stats();
    let tenant = stats.tenant("idle").expect("registered");
    assert_eq!(tenant.granules_absorbed, 12);
    assert_eq!(
        tenant.replayed_records, 0,
        "a drained daemon restarts from a clean snapshot"
    );
    revived.kill();
}

/// A fleet far larger than its memory budget, with transient I/O faults
/// armed on the WAL append path, still acknowledges every append exactly
/// once, stays under budget and mines exactly what a direct pipeline mines:
/// the retry path and the evict/rehydrate path run together here.
#[test]
fn a_starved_and_faulted_fleet_acks_everything_and_mines_exactly() {
    let mut spec = TenantLoadSpec::quick(50, 0x5e2_71ce);
    spec.max_granules = 48;
    spec.min_granules = 8;
    spec.num_series = 2;
    spec.batch_granules = 8;
    let load = service_load(&spec);
    assert_eq!(load.arrivals.len(), 105);

    let mut cfg = ServiceConfig::new("fleet");
    cfg.mapping_factor = load.tenants[0].dataset.mapping_factor;
    cfg.thresholds = StpmConfig {
        max_period: Threshold::Absolute(3),
        min_density: Threshold::Absolute(2),
        dist_interval: (2, 40),
        min_season: 1,
        max_pattern_len: 2,
        ..StpmConfig::default()
    };
    cfg.workers = 4;
    cfg.memory_budget = Some(MemoryBudget::bytes(load.tenants.len() as u64 * 2048));
    cfg.retry = RetryPolicy::immediate(4);
    let fs = FaultyFs::with_seed(0xBEEF);
    // WAL appends happen on every acknowledged batch, so these faults bite
    // however eviction persists a tenant.
    let wal_faults = 5_u64;
    for i in 1..=wal_faults {
        fs.transient_nth(failpoints::WAL_APPEND, i * 20, 1);
        fs.transient_nth(failpoints::SNAPSHOT_WRITE, i * 61, 1);
    }
    let service = Service::start_with_storage(cfg.clone(), Arc::new(fs));

    // Closed loop: up to 64 requests in flight, at most one per tenant so
    // per-tenant order holds; a rejected append is resubmitted.
    type InFlight = (usize, usize, Receiver<Response>, u32);
    let submit = |tenant: usize, batch: usize, attempts: u32| -> InFlight {
        let rx = service.submit(Request::Append {
            tenant: load.tenants[tenant].name.clone(),
            deadline_ms: 0,
            batch: load.tenants[tenant].batches[batch].clone(),
        });
        (tenant, batch, rx, attempts)
    };
    let mut pending = VecDeque::new();
    let mut busy = HashSet::new();
    let drain_one = |pending: &mut VecDeque<InFlight>, busy: &mut HashSet<usize>| {
        let (tenant, batch, rx, attempts) = pending.pop_front().expect("work in flight");
        match rx.recv().expect("the service answers every request") {
            Response::Appended { .. } => {
                busy.remove(&tenant);
            }
            Response::Error(_) => {
                assert!(attempts < 64, "tenant {tenant} batch {batch} never acked");
                pending.push_back(submit(tenant, batch, attempts + 1));
            }
            other => panic!("unexpected append response: {other:?}"),
        }
    };
    for &(tenant, batch) in &load.arrivals {
        while busy.contains(&tenant) || pending.len() >= 64 {
            drain_one(&mut pending, &mut busy);
        }
        busy.insert(tenant);
        pending.push_back(submit(tenant, batch, 1));
    }
    while !pending.is_empty() {
        drain_one(&mut pending, &mut busy);
    }

    let stats = service.stats();
    assert_eq!(
        stats.acked_appends, 105,
        "every batch is acked exactly once"
    );
    assert!(stats.evictions > 0, "the budget never forced an eviction");
    assert!(stats.rehydrations > 0, "no cold tenant was ever rehydrated");
    assert!(
        stats.io_retries >= wal_faults,
        "only {} retries absorbed {wal_faults} WAL faults",
        stats.io_retries
    );
    assert!(
        stats.resident_bytes <= stats.budget_bytes,
        "{} resident bytes over a {}-byte budget",
        stats.resident_bytes,
        stats.budget_bytes
    );

    // The heaviest tenant made the most eviction round trips.
    let heaviest = &load.tenants[0];
    let mut direct = freqstpfts::Pipeline::builder()
        .mapping_factor(cfg.mapping_factor)
        .thresholds(cfg.thresholds.clone())
        .into_streaming();
    for batch in &heaviest.batches {
        direct
            .append_symbolic(batch)
            .expect("the direct pipeline absorbs");
    }
    let direct_patterns: Vec<String> = direct
        .checkpoint()
        .expect("the direct pipeline mines")
        .pattern_set()
        .into_iter()
        .collect();
    assert_eq!(patterns_of(&service, &heaviest.name), direct_patterns);
    service.kill();
}
