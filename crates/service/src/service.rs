//! The multi-tenant service core: tenant registry, bounded admission
//! queues, the worker pool, the memory-budget enforcer, and the two ways a
//! daemon stops (graceful drain vs. hard kill).
//!
//! # Scheduling model
//!
//! Each tenant owns a bounded FIFO job queue plus a *scheduled* flag; a
//! shared run queue holds the names of tenants that have work. A tenant is
//! in the run queue at most once, and a worker processes at most one job
//! per dequeue before rescheduling the tenant at the tail — so tenants
//! never starve each other, per-tenant order is strict FIFO, and no two
//! workers ever touch the same tenant's pipeline concurrently.
//!
//! # Admission control
//!
//! Admission is decided at enqueue time against two caps: the per-tenant
//! queue depth and the global queued-job total. Exceeding either yields a
//! typed [`ServiceError::Overloaded`] response immediately — the daemon
//! never buffers unboundedly. Requests carry an optional deadline which is
//! re-checked when a worker dequeues the job; an expired job is answered
//! with [`ServiceError::DeadlineExceeded`] without touching tenant state.
//!
//! # Memory budget
//!
//! After each job a worker compares the global resident-bytes account with
//! the configured [`MemoryBudget`] and evicts coldest-first (least recently
//! touched) until under budget, skipping tenants another worker holds. An
//! evicted tenant's next request transparently rehydrates it; see the
//! internal `tenant` module for why that round trip is byte-exact.

use crate::protocol::{OverloadScope, Request, Response, ServiceError};
use crate::stats::{ServiceStats, TenantStats};
use crate::tenant::{TenantEnv, TenantState};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stpm_core::{MemoryBudget, RealFs, RetryPolicy, StorageBackend, StpmConfig};
use stpm_timeseries::SymbolicDatabase;

/// Configuration of a [`Service`]. Every tenant pipeline shares the same
/// mining parameters; robustness knobs (queue depths, budget, deadline,
/// retry policy) are service-wide.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Root directory for durable state; each tenant lives under
    /// `<data_dir>/tenants/<name>.{snap,wal}`.
    pub data_dir: PathBuf,
    /// Mapping factor every tenant pipeline is built with.
    pub mapping_factor: u64,
    /// Mining thresholds every tenant pipeline is built with.
    pub thresholds: StpmConfig,
    /// Worker threads draining the run queue (min 1).
    pub workers: usize,
    /// Per-tenant queued-job cap; exceeding it yields
    /// [`ServiceError::Overloaded`] with [`OverloadScope::Tenant`].
    pub tenant_queue_depth: usize,
    /// Global queued-job cap across all tenants; exceeding it yields
    /// [`ServiceError::Overloaded`] with [`OverloadScope::Global`].
    pub global_queue_depth: usize,
    /// Global cap on resident tenant state; `None` = never evict.
    pub memory_budget: Option<MemoryBudget>,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Retry policy for transient I/O faults, shared by every tenant.
    pub retry: RetryPolicy,
}

impl ServiceConfig {
    /// A config with production-shaped defaults rooted at `data_dir`.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            mapping_factor: 1,
            thresholds: StpmConfig::default(),
            workers: 4,
            tenant_queue_depth: 16,
            global_queue_depth: 1024,
            memory_budget: None,
            default_deadline: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// What a graceful drain accomplished: every tenant it flushed to a
/// durable snapshot, and the ones it could not.
#[derive(Debug, Default)]
pub struct DrainReport {
    /// Tenants whose state was snapshot-flushed (WAL empty afterwards).
    pub flushed: u64,
    /// Tenants that were already fully durable (cold or never touched).
    pub already_durable: u64,
    /// `(tenant, reason)` for every tenant whose final flush failed; its
    /// WAL still holds every acknowledged append, so nothing is lost.
    pub failures: Vec<(String, String)>,
}

/// One queued unit of work for a tenant.
struct Job {
    kind: JobKind,
    enqueued: Instant,
    deadline: Option<Duration>,
    reply: Sender<Response>,
}

enum JobKind {
    Append(SymbolicDatabase),
    Checkpoint,
    Patterns,
}

/// The admission side of a tenant slot, guarded separately from the state
/// mutex so enqueueing never waits behind mining.
struct SlotQueue {
    jobs: VecDeque<Job>,
    /// Whether the tenant's name is currently in the run queue or held by
    /// a worker; guarantees at-most-once scheduling.
    scheduled: bool,
}

struct Slot {
    queue: Mutex<SlotQueue>,
    state: Mutex<TenantState>,
}

impl Slot {
    fn new(name: &str, config: &ServiceConfig) -> Self {
        Self {
            queue: Mutex::new(SlotQueue {
                jobs: VecDeque::new(),
                scheduled: false,
            }),
            state: Mutex::new(TenantState::new(name, &config.data_dir)),
        }
    }
}

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_KILLED: u8 = 2;

struct Inner {
    config: ServiceConfig,
    env: TenantEnv,
    /// Tenant name → slot; `BTreeMap` so stats and eviction scans are in
    /// deterministic name order.
    registry: Mutex<BTreeMap<String, Arc<Slot>>>,
    /// Names of tenants with queued work, each present at most once.
    run_queue: Mutex<VecDeque<String>>,
    wake: Condvar,
    /// Jobs admitted but not yet picked up, across all tenants.
    queued_jobs: AtomicUsize,
    run_state: AtomicU8,
    /// Logical clock stamping `last_touch` for the eviction order.
    clock: AtomicU64,
    overloaded_rejections: AtomicU64,
    deadline_rejections: AtomicU64,
}

impl Inner {
    fn run_state(&self) -> u8 {
        self.run_state.load(Ordering::Acquire)
    }

    /// Poison-free lock: the worker never panics while holding these
    /// mutexes (tenant panics are caught inside the state lock's critical
    /// section), so propagating a poison here would only convert one bug
    /// into a daemon-wide outage. Recover the guard instead.
    fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Admits a job for `tenant` or answers immediately with a typed
    /// rejection. Never blocks on tenant state.
    fn enqueue(
        &self,
        tenant: &str,
        kind: JobKind,
        deadline: Option<Duration>,
        reply: &Sender<Response>,
    ) {
        if self.run_state() != STATE_RUNNING {
            let _ = reply.send(Response::Error(ServiceError::ShuttingDown));
            return;
        }
        if let Err(reason) = validate_tenant_name(tenant) {
            let _ = reply.send(Response::Error(ServiceError::BadRequest { reason }));
            return;
        }
        if self.queued_jobs.load(Ordering::Acquire) >= self.config.global_queue_depth {
            self.overloaded_rejections.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(Response::Error(ServiceError::Overloaded {
                scope: OverloadScope::Global,
            }));
            return;
        }
        let slot = {
            let mut registry = Self::lock(&self.registry);
            Arc::clone(
                registry
                    .entry(tenant.to_string())
                    .or_insert_with(|| Arc::new(Slot::new(tenant, &self.config))),
            )
        };
        let mut queue = Self::lock(&slot.queue);
        if queue.jobs.len() >= self.config.tenant_queue_depth {
            self.overloaded_rejections.fetch_add(1, Ordering::Relaxed);
            let _ = reply.send(Response::Error(ServiceError::Overloaded {
                scope: OverloadScope::Tenant,
            }));
            return;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "queue-wait deadlines are wall-clock by definition; no frame carries the instant"
        )]
        queue.jobs.push_back(Job {
            kind,
            enqueued: Instant::now(),
            deadline,
            reply: reply.clone(),
        });
        self.queued_jobs.fetch_add(1, Ordering::Release);
        let needs_schedule = !queue.scheduled;
        if needs_schedule {
            queue.scheduled = true;
        }
        drop(queue);
        if needs_schedule {
            Self::lock(&self.run_queue).push_back(tenant.to_string());
            self.wake.notify_one();
        }
    }

    /// The worker thread body: pull a tenant, run one job, reschedule.
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let tenant = {
                let mut queue = Self::lock(&self.run_queue);
                loop {
                    match self.run_state() {
                        STATE_KILLED => return,
                        STATE_DRAINING
                            if queue.is_empty()
                                && self.queued_jobs.load(Ordering::Acquire) == 0 =>
                        {
                            // Nothing queued anywhere and no more arrivals
                            // admitted: wake the other workers so they
                            // observe the same and exit.
                            self.wake.notify_all();
                            return;
                        }
                        _ => {}
                    }
                    if let Some(tenant) = queue.pop_front() {
                        break tenant;
                    }
                    queue = self
                        .wake
                        .wait(queue)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            self.service_tenant(&tenant);
        }
    }

    /// Runs one job of `tenant` and puts the tenant back in the run queue
    /// if more are waiting (clearing the scheduled flag otherwise).
    fn service_tenant(&self, tenant: &str) {
        let Some(slot) = Self::lock(&self.registry).get(tenant).map(Arc::clone) else {
            return;
        };
        let job = Self::lock(&slot.queue).jobs.pop_front();
        if let Some(job) = job {
            self.queued_jobs.fetch_sub(1, Ordering::Release);
            self.run_job(tenant, &slot, job);
        }
        let more = {
            let mut queue = Self::lock(&slot.queue);
            if queue.jobs.is_empty() {
                queue.scheduled = false;
                false
            } else {
                true
            }
        };
        if more {
            Self::lock(&self.run_queue).push_back(tenant.to_string());
            self.wake.notify_one();
        } else if self.run_state() == STATE_DRAINING {
            self.wake.notify_all();
        }
    }

    // The reply `.send` at the bottom is the client-visible acknowledgment;
    // every durable effect of the job (WAL fsync inside `append`, budget
    // eviction snapshots) must land before it.
    fn run_job(&self, tenant: &str, slot: &Slot, job: Job) {
        if let Some(deadline) = job.deadline {
            if job.enqueued.elapsed() > deadline {
                self.deadline_rejections.fetch_add(1, Ordering::Relaxed);
                let _ = job
                    .reply
                    .send(Response::Error(ServiceError::DeadlineExceeded));
                return;
            }
        }
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let response = {
            let mut state = Self::lock(&slot.state);
            state.last_touch = tick;
            match job.kind {
                JobKind::Append(batch) => match state.append(&self.env, &batch) {
                    Ok(report) => Response::Appended {
                        granules: state.meta().granules_absorbed,
                        pending_instants: state.pending_instants(),
                        patterns: report.total_patterns() as u64,
                    },
                    Err(e) => Response::Error(e),
                },
                JobKind::Checkpoint => match state.checkpoint(&self.env) {
                    Ok(report) => Response::Checkpoint {
                        granules: state.meta().granules_absorbed,
                        patterns: report.total_patterns() as u64,
                    },
                    Err(e) => Response::Error(e),
                },
                JobKind::Patterns => match state.checkpoint(&self.env) {
                    Ok(report) => Response::Patterns {
                        patterns: report.pattern_set().into_iter().collect(),
                    },
                    Err(e) => Response::Error(e),
                },
            }
        };
        // Enforce the memory budget *before* acknowledging: when the fleet
        // is over budget the daemon pays for the eviction snapshots in the
        // request path (backpressure) instead of letting residency run
        // ahead of the budget — and observers see enforced state the moment
        // an ack lands. The state lock is already released; eviction try-locks.
        self.enforce_budget(tenant);
        // A dropped receiver is a disconnected client, not an error.
        let _ = job.reply.send(response);
    }

    /// Evicts least-recently-touched tenants until the resident account is
    /// under budget. `current` (the tenant this worker just served, i.e.
    /// the hottest) is only evicted as a last resort, which keeps the
    /// daemon under budget even when a single tenant's working set exceeds
    /// it.
    fn enforce_budget(&self, current: &str) {
        let Some(budget) = self.config.memory_budget else {
            return;
        };
        let over =
            |env: &TenantEnv| budget.is_exceeded_by(env.resident_total.load(Ordering::Relaxed));
        if !over(&self.env) {
            return;
        }
        let slots: Vec<(String, Arc<Slot>)> = Self::lock(&self.registry)
            .iter()
            .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
            .collect();
        let mut victims: Vec<(u64, String, Arc<Slot>)> = Vec::new();
        for (name, slot) in slots {
            // try_lock: skip tenants another worker is serving right now.
            if let Ok(state) = slot.state.try_lock() {
                if state.is_live() && state.quarantined.is_none() && name != current {
                    victims.push((state.last_touch, name.clone(), Arc::clone(&slot)));
                }
            }
        }
        victims.sort_by_key(|victim| victim.0);
        for (_, _, slot) in &victims {
            if !over(&self.env) {
                return;
            }
            if let Ok(mut state) = slot.state.try_lock() {
                // A failed eviction snapshot leaves the tenant live; stay
                // over budget and let a later pass retry.
                let _ = state.evict(&self.env);
            }
        }
        if over(&self.env) {
            // Everyone else is cold: evict the current tenant too.
            if let Some(slot) = Self::lock(&self.registry).get(current).map(Arc::clone) {
                if let Ok(mut state) = slot.state.try_lock() {
                    let _ = state.evict(&self.env);
                }
            }
        }
    }

    fn stats(&self) -> ServiceStats {
        let slots: Vec<Arc<Slot>> = Self::lock(&self.registry)
            .values()
            .map(Arc::clone)
            .collect();
        let mut stats = ServiceStats {
            budget_bytes: self.config.memory_budget.map_or(0, |b| b.max_live_bytes()),
            overloaded_rejections: self.overloaded_rejections.load(Ordering::Relaxed),
            deadline_rejections: self.deadline_rejections.load(Ordering::Relaxed),
            ..ServiceStats::default()
        };
        for slot in slots {
            let state = Self::lock(&slot.state);
            let meta = state.meta();
            let tenant = TenantStats {
                name: state.name().to_string(),
                resident: state.is_live(),
                quarantined: state.quarantined.is_some(),
                granules_absorbed: meta.granules_absorbed,
                pending_granules: meta.pending_granules,
                patterns_interned: meta.patterns_interned,
                io_retries: state.io_retries(),
                evictions: state.evictions,
                rehydrations: state.rehydrations,
                resident_bytes: state.resident_bytes(),
                acked_appends: state.acked_appends,
                replayed_records: state.replayed_records,
            };
            stats.resident_bytes += tenant.resident_bytes;
            stats.acked_appends += tenant.acked_appends;
            stats.quarantined_tenants += u64::from(tenant.quarantined);
            stats.evictions += tenant.evictions;
            stats.rehydrations += tenant.rehydrations;
            stats.io_retries += tenant.io_retries;
            stats.tenants.push(tenant);
        }
        // The registry is a BTreeMap, so this is already name-sorted; keep
        // the invariant explicit for readers of `ServiceStats::tenants`.
        stats.tenants.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("run_state", &self.run_state())
            .field("queued_jobs", &self.queued_jobs.load(Ordering::Relaxed))
            .finish()
    }
}

/// A running multi-tenant mining service: a worker pool over a registry of
/// independent [`freqstpfts::StreamingPipeline`]s, one per tenant.
///
/// Construct with [`Service::start`] (real filesystem) or
/// [`Service::start_with_storage`] (any backend — chaos tests inject a
/// [`stpm_core::FaultyFs`] here). Stop with [`Service::drain`] (graceful:
/// every acknowledged append flushed to a durable snapshot) or
/// [`Service::kill`] (hard: volatile state abandoned, exactly what a crash
/// leaves behind).
#[derive(Debug)]
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts a service over the real filesystem, creating the data
    /// directory layout if missing.
    ///
    /// # Errors
    /// I/O error creating `<data_dir>/tenants`.
    pub fn start(config: ServiceConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(config.data_dir.join("tenants"))?;
        Ok(Self::start_with_storage(config, Arc::new(RealFs)))
    }

    /// Starts a service over an injected storage backend. The caller is
    /// responsible for any directory layout the backend needs (the
    /// in-memory [`stpm_core::FaultyFs`] needs none).
    #[must_use]
    pub fn start_with_storage(
        config: ServiceConfig,
        storage: Arc<dyn StorageBackend + Send + Sync>,
    ) -> Self {
        let workers = config.workers.max(1);
        let env = TenantEnv {
            storage,
            retry: config.retry,
            mapping_factor: config.mapping_factor,
            thresholds: config.thresholds.clone(),
            resident_total: AtomicU64::new(0),
        };
        let inner = Arc::new(Inner {
            config,
            env,
            registry: Mutex::new(BTreeMap::new()),
            run_queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            queued_jobs: AtomicUsize::new(0),
            run_state: AtomicU8::new(STATE_RUNNING),
            clock: AtomicU64::new(0),
            overloaded_rejections: AtomicU64::new(0),
            deadline_rejections: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("stpm-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawning a worker thread")
            })
            .collect();
        Self {
            inner,
            workers: handles,
        }
    }

    /// Submits a request and returns the channel its response will arrive
    /// on. Admission rejections (overload, shutdown, bad tenant name) are
    /// delivered through the same channel as typed [`Response::Error`]s,
    /// immediately.
    pub fn submit(&self, request: Request) -> Receiver<Response> {
        let (tx, rx) = channel();
        match request {
            Request::Stats => {
                let _ = tx.send(Response::Stats(self.stats()));
            }
            Request::Shutdown => {
                self.begin_shutdown();
                let _ = tx.send(Response::ShutdownStarted);
            }
            Request::Append {
                tenant,
                deadline_ms,
                batch,
            } => {
                let deadline = if deadline_ms > 0 {
                    Some(Duration::from_millis(u64::from(deadline_ms)))
                } else {
                    self.inner.config.default_deadline
                };
                self.inner
                    .enqueue(&tenant, JobKind::Append(batch), deadline, &tx);
            }
            Request::Checkpoint { tenant } => {
                self.inner.enqueue(&tenant, JobKind::Checkpoint, None, &tx);
            }
            Request::Patterns { tenant } => {
                self.inner.enqueue(&tenant, JobKind::Patterns, None, &tx);
            }
        }
        rx
    }

    /// [`Service::submit`] + blocking receive. A response is always
    /// produced; if the service is killed while the request is queued, the
    /// dropped channel is reported as [`ServiceError::ShuttingDown`].
    pub fn call(&self, request: Request) -> Response {
        self.submit(request)
            .recv()
            .unwrap_or(Response::Error(ServiceError::ShuttingDown))
    }

    /// A consistent observability snapshot.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }

    /// Stops admitting new requests; already-queued work keeps draining.
    pub fn begin_shutdown(&self) {
        // Never un-kill: drain after kill stays killed.
        let _ = self.inner.run_state.compare_exchange(
            STATE_RUNNING,
            STATE_DRAINING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.inner.wake.notify_all();
    }

    /// Graceful shutdown: rejects new requests, drains every queued job,
    /// joins the workers, then flushes every tenant to a durable snapshot
    /// (fsyncing as it goes — after a clean drain no WAL replay is needed
    /// on restart).
    pub fn drain(mut self) -> DrainReport {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        let mut report = DrainReport::default();
        let slots: Vec<Arc<Slot>> = Inner::lock(&self.inner.registry)
            .values()
            .map(Arc::clone)
            .collect();
        for slot in slots {
            let mut state = Inner::lock(&slot.state);
            if !state.is_live() {
                report.already_durable += 1;
                continue;
            }
            match state.evict(&self.inner.env) {
                Ok(true) => report.flushed += 1,
                Ok(false) => report.already_durable += 1,
                Err(e) => report
                    .failures
                    .push((state.name().to_string(), e.to_string())),
            }
        }
        report
    }

    /// Hard stop: workers exit at the next scheduling point, queued jobs
    /// are abandoned (their clients see a closed channel — never an ack),
    /// and **no** tenant state is flushed. Together with
    /// [`stpm_core::FaultyFs::crash`] this models a daemon kill at an
    /// arbitrary instant.
    pub fn kill(mut self) {
        self.inner.run_state.store(STATE_KILLED, Ordering::Release);
        self.inner.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // `drain`/`kill` consume `self` after joining; this covers a
        // `Service` dropped without either — stop the workers so the
        // process can exit.
        if self.workers.is_empty() {
            return;
        }
        self.inner.run_state.store(STATE_KILLED, Ordering::Release);
        self.inner.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Tenant names are path components of durable files; keep them boring.
fn validate_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 128 {
        return Err("tenant name must be 1..=128 bytes".to_string());
    }
    if name.starts_with('.') {
        return Err("tenant name must not start with '.'".to_string());
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
    {
        return Err(
            "tenant name may contain only ASCII alphanumerics, '_', '-' and '.'".to_string(),
        );
    }
    Ok(())
}
