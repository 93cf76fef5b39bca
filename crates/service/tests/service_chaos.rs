//! Chaos harness for the service tier: a deterministic multi-tenant
//! workload (power-law tenant sizes, bursty interleave) is driven through
//! a daemon whose storage is the in-memory [`FaultyFs`], under
//!
//! * injected I/O failures at every failpoint the workload exercises
//!   (including the snapshot failpoints hit by cold-tenant eviction — the
//!   memory budget is set far below the working set, so eviction and
//!   rehydration churn constantly), and
//! * hard daemon kills at arbitrary points: on every surfaced error, at
//!   scripted arrival indices, and unconditionally before the final
//!   verification (`Service::kill` + [`FaultyFs::crash`] discards all
//!   volatile state, exactly like a `kill -9`).
//!
//! Invariants asserted for every run:
//! * **zero acknowledged-append loss** — a batch whose append was
//!   acknowledged is present after every restart-and-recover;
//! * **byte-identical tenant state** — every tenant's final pattern set
//!   and granule count equal the fault-free baseline's.

use std::collections::BTreeMap;
use std::sync::Arc;
use stpm_core::{failpoints, CrashFlavour, FaultyFs, MemoryBudget, StpmConfig, Threshold};
use stpm_datagen::{service_load, ServiceLoad, TenantLoadSpec};
use stpm_service::{Request, Response, Service, ServiceConfig};

/// The scripted workload: 3 tenants, ~11 batches, granule-aligned.
fn load() -> ServiceLoad {
    let mut spec = TenantLoadSpec::quick(3, 0xC0A5);
    spec.max_granules = 36;
    spec.min_granules = 12;
    spec.batch_granules = 6;
    service_load(&spec)
}

/// Service config matched to the workload's profile, with a memory budget
/// far below the working set so every run churns through eviction.
fn config(load: &ServiceLoad) -> ServiceConfig {
    let mut config = ServiceConfig::new("svc");
    config.mapping_factor = load.tenants[0].dataset.mapping_factor;
    config.thresholds = StpmConfig {
        max_period: Threshold::Absolute(3),
        min_density: Threshold::Absolute(2),
        dist_interval: (2, 40),
        min_season: 1,
        max_pattern_len: 2,
        ..StpmConfig::default()
    };
    config.workers = 2;
    config.memory_budget = Some(MemoryBudget::bytes(1));
    config
}

/// Final per-tenant state, read back after the run's last hard kill.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    patterns: BTreeMap<String, Vec<String>>,
    granules: BTreeMap<String, u64>,
}

fn restart(fs: &FaultyFs, config: &ServiceConfig) -> Service {
    Service::start_with_storage(config.clone(), Arc::new(fs.clone()))
}

/// Retries a read-only query until it succeeds (injected one-shot faults
/// drain themselves; anything persistent trips the attempt cap).
fn query(service: &Service, request: &Request, what: &str) -> Response {
    for _ in 0..32 {
        match service.call(request.clone()) {
            Response::Error(_) => {}
            response => return response,
        }
    }
    panic!("{what}: query never succeeded");
}

fn tenant_granules(service: &Service, tenant: &str) -> u64 {
    let request = Request::Checkpoint {
        tenant: tenant.to_string(),
    };
    match query(service, &request, tenant) {
        Response::Checkpoint { granules, .. } => granules,
        other => panic!("{tenant}: expected a checkpoint response, got {other:?}"),
    }
}

fn tenant_patterns(service: &Service, tenant: &str) -> Vec<String> {
    let request = Request::Patterns {
        tenant: tenant.to_string(),
    };
    match query(service, &request, tenant) {
        Response::Patterns { patterns } => patterns,
        other => panic!("{tenant}: expected a patterns response, got {other:?}"),
    }
}

/// Drives the whole workload to acknowledgment over `fs`, hard-killing the
/// daemon on every surfaced error and before each arrival index in
/// `kill_at`, then performs one final kill-crash-recover and reads back
/// every tenant's state. Returns the outcome and how many hard kills the
/// run survived.
fn drive(
    fs: &FaultyFs,
    load: &ServiceLoad,
    config: &ServiceConfig,
    kill_at: &[usize],
) -> (Outcome, u32) {
    let mut service = restart(fs, config);
    let mut kills = 0_u32;
    let mut acked: Vec<u64> = vec![0; load.tenants.len()];
    let hard_kill = |service: Service, acked: &[u64], kills: &mut u32| -> Service {
        service.kill();
        fs.crash();
        fs.clear_faults();
        *kills += 1;
        assert!(*kills < 64, "fault schedule never drained");
        let revived = restart(fs, config);
        // Zero acknowledged-append loss: everything acked before the kill
        // is still there after recovery.
        for (index, tenant) in load.tenants.iter().enumerate() {
            if acked[index] > 0 {
                let granules = tenant_granules(&revived, &tenant.name);
                assert!(
                    granules >= acked[index],
                    "tenant {}: {} acked granules, {} recovered after kill {}",
                    tenant.name,
                    acked[index],
                    granules,
                    *kills
                );
            }
        }
        revived
    };
    for (arrival, &(tenant_index, batch_index)) in load.arrivals.iter().enumerate() {
        if kill_at.contains(&arrival) {
            service = hard_kill(service, &acked, &mut kills);
        }
        let tenant = &load.tenants[tenant_index];
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(
                attempts < 32,
                "tenant {} batch {batch_index}: append never acknowledged",
                tenant.name
            );
            let response = service.call(Request::Append {
                tenant: tenant.name.clone(),
                deadline_ms: 0,
                batch: tenant.batches[batch_index].clone(),
            });
            match response {
                Response::Appended { granules, .. } => {
                    assert!(
                        granules >= acked[tenant_index],
                        "tenant {}: acknowledged granules went backwards",
                        tenant.name
                    );
                    acked[tenant_index] = granules;
                    break;
                }
                Response::Error(_) => {
                    // An unacknowledged append is the client's to retry —
                    // and an error is also a fine moment for a hard kill.
                    service = hard_kill(service, &acked, &mut kills);
                }
                other => panic!("unexpected append response: {other:?}"),
            }
        }
    }
    // Final hard kill: only durable state may count towards the outcome.
    service = hard_kill(service, &acked, &mut kills);
    let mut outcome = Outcome {
        patterns: BTreeMap::new(),
        granules: BTreeMap::new(),
    };
    for tenant in &load.tenants {
        outcome
            .granules
            .insert(tenant.name.clone(), tenant_granules(&service, &tenant.name));
        outcome
            .patterns
            .insert(tenant.name.clone(), tenant_patterns(&service, &tenant.name));
    }
    let stats = service.stats();
    assert!(
        stats.evictions > 0 && stats.rehydrations > 0,
        "the memory budget must force eviction/rehydration churn"
    );
    service.kill();
    (outcome, kills)
}

#[test]
fn service_survives_faults_and_hard_kills_at_every_exercised_failpoint() {
    let load = load();
    let config = config(&load);

    // Fault-free baseline (the final verification kill is still applied).
    let baseline_fs = FaultyFs::with_seed(21);
    let (baseline, baseline_kills) = drive(&baseline_fs, &load, &config, &[]);
    assert_eq!(
        baseline_kills, 1,
        "the fault-free run only kills at the end"
    );
    for tenant in &load.tenants {
        let granules = tenant.dataset.dsyb.len() as u64 / tenant.dataset.mapping_factor;
        assert_eq!(
            baseline.granules[&tenant.name], granules,
            "tenant {}: baseline must absorb the whole workload",
            tenant.name
        );
    }
    // Eviction churn must route service I/O through the snapshot and WAL
    // failpoints — otherwise the sweep below would test nothing.
    assert!(baseline_fs.op_count(failpoints::SNAPSHOT_CREATE_TMP) > 0);
    assert!(baseline_fs.op_count(failpoints::WAL_APPEND) > 0);
    assert!(baseline_fs.op_count(failpoints::RECOVER_READ_WAL) > 0);

    // Sweep: an injected failure at (up to 4 of) every failpoint's ops,
    // each run hard-killed on every surfaced error, under both crash
    // flavours: tenants share one directory, so one tenant's directory sync
    // can commit another's pending rename.
    let mut swept = 0_u32;
    let mut kills = 0_u32;
    for flavour in [
        CrashFlavour::DirSyncedNamespace,
        CrashFlavour::EarlyNamespace,
    ] {
        for fp in failpoints::ALL {
            let count = baseline_fs.op_count(fp);
            if count == 0 {
                continue;
            }
            let stride = (count / 4).max(1);
            let mut nth = 1;
            while nth <= count {
                let fs = FaultyFs::with_seed(21).with_crash_flavour(flavour);
                fs.fail_nth(fp, nth);
                let (outcome, run_kills) = drive(&fs, &load, &config, &[]);
                assert_eq!(
                    outcome, baseline,
                    "{flavour:?}, failpoint {fp} op #{nth}: tenant state diverged from the \
                     fault-free run"
                );
                swept += 1;
                kills += run_kills;
                nth += stride;
            }
        }
    }
    assert!(
        swept >= 20,
        "the sweep covered too few failpoint ops: {swept}"
    );
    assert!(
        kills > swept,
        "injected faults never surfaced as kills ({kills} kills over {swept} runs)"
    );
}

#[test]
fn hard_kills_at_scripted_arrival_points_lose_nothing() {
    let load = load();
    let config = config(&load);
    let baseline_fs = FaultyFs::with_seed(22);
    let (baseline, _) = drive(&baseline_fs, &load, &config, &[]);

    let total = load.arrivals.len();
    for kill_at in [0, 1, total / 2, total - 1] {
        let fs = FaultyFs::with_seed(22);
        let (outcome, kills) = drive(&fs, &load, &config, &[kill_at]);
        assert!(
            kills >= 2,
            "the scripted kill at arrival {kill_at} must fire"
        );
        assert_eq!(
            outcome, baseline,
            "kill at arrival {kill_at}: tenant state diverged from the uninterrupted run"
        );
    }
}

/// The storage operations `step` performs on `fs`, per failpoint in
/// [`failpoints::ALL`] order; failpoints it does not touch are left out.
fn storage_ops(fs: &FaultyFs, step: impl FnOnce()) -> Vec<(&'static str, u64)> {
    let before: Vec<u64> = failpoints::ALL.iter().map(|fp| fs.op_count(fp)).collect();
    step();
    failpoints::ALL
        .iter()
        .zip(before)
        .map(|(fp, before)| (*fp, fs.op_count(fp) - before))
        .filter(|&(_, ops)| ops > 0)
        .collect()
}

#[test]
fn a_tenant_lifecycle_performs_a_pinned_number_of_storage_operations() {
    // A fleet's set-up is thousands of first appends and eviction
    // snapshots, so one more storage operation on any of these paths is a
    // measurable cost. Each step's operations are pinned per failpoint.
    let load = load();
    let mut config = config(&load);
    config.memory_budget = None;
    let fs = FaultyFs::with_seed(23);
    let tenant = &load.tenants[0];
    let append = |service: &Service, batch: usize| {
        let response = service.call(Request::Append {
            tenant: tenant.name.clone(),
            deadline_ms: 0,
            batch: tenant.batches[batch].clone(),
        });
        assert!(
            matches!(response, Response::Appended { .. }),
            "{response:?}"
        );
    };

    let service = restart(&fs, &config);
    let first_append = storage_ops(&fs, || append(&service, 0));
    let later_append = storage_ops(&fs, || append(&service, 1));
    // A drain flushes each live tenant through the same eviction the
    // memory-budget enforcer runs.
    let eviction = storage_ops(&fs, || assert_eq!(service.drain().flushed, 1));
    let service = restart(&fs, &config);
    let rehydration = storage_ops(&fs, || {
        tenant_granules(&service, &tenant.name);
    });
    assert_eq!(service.stats().rehydrations, 1);
    service.kill();

    assert_eq!(
        first_append,
        [
            (failpoints::WAL_OPEN, 1),
            (failpoints::WAL_READ, 1),
            (failpoints::WAL_WRITE_HEADER, 1),
            (failpoints::WAL_HEADER_SYNC, 1),
            (failpoints::WAL_DIR_SYNC, 1),
            (failpoints::WAL_APPEND, 2),
            (failpoints::WAL_APPEND_SYNC, 1),
            (failpoints::RECOVER_READ_SNAPSHOT, 1),
            (failpoints::RECOVER_READ_WAL, 1),
        ]
    );
    assert_eq!(
        later_append,
        [
            (failpoints::WAL_APPEND, 2),
            (failpoints::WAL_APPEND_SYNC, 1)
        ]
    );
    assert_eq!(
        eviction,
        [
            (failpoints::SNAPSHOT_CREATE_TMP, 1),
            (failpoints::SNAPSHOT_WRITE, 1),
            (failpoints::SNAPSHOT_SYNC, 1),
            (failpoints::SNAPSHOT_RENAME, 1),
            (failpoints::SNAPSHOT_DIR_SYNC, 1),
            (failpoints::WAL_RESET, 2),
        ]
    );
    assert_eq!(
        rehydration,
        [
            (failpoints::WAL_OPEN, 1),
            (failpoints::WAL_READ, 1),
            (failpoints::RECOVER_READ_SNAPSHOT, 1),
            (failpoints::RECOVER_READ_WAL, 1),
        ]
    );
}
