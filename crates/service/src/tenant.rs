//! Per-tenant state: one [`StreamingPipeline`] plus its durable file pair
//! (snapshot + write-ahead log), the residency machine (live ↔ evicted),
//! and the quarantine latch.
//!
//! A tenant is **live** while its pipeline is in memory and **cold** after
//! the memory-budget enforcer evicted it: eviction takes an atomic, durable
//! snapshot (which also truncates the WAL) and then drops the in-memory
//! state; the next request rehydrates by running the same crash-recovery
//! path a daemon restart uses. Because the snapshot/recover pair is exact,
//! an evicted-and-rehydrated tenant's checkpoints are byte-identical to an
//! unevicted run's.
//!
//! **Quarantine** isolates poisoned input: a panic anywhere in a tenant's
//! mining path, or a typed transform/mining error (which can leave the
//! in-memory absorb half-applied), latches the tenant closed and discards
//! its in-memory state. The durable state — everything previously
//! acknowledged — is untouched and recoverable; the poison batch was never
//! acknowledged. Neighbors never notice.

use crate::protocol::ServiceError;
use freqstpfts::{Pipeline, PipelineError, StreamingPipeline};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stpm_core::{CheckpointMeta, EngineReport, RetryPolicy, StorageBackend, StpmConfig};
use stpm_timeseries::SymbolicDatabase;

/// Everything tenant operations need from the surrounding service: the
/// shared storage backend, the pipeline parameters every tenant runs with,
/// and the global resident-bytes account the memory budget is enforced on.
pub(crate) struct TenantEnv {
    pub(crate) storage: Arc<dyn StorageBackend + Send + Sync>,
    pub(crate) retry: RetryPolicy,
    pub(crate) mapping_factor: u64,
    pub(crate) thresholds: StpmConfig,
    /// Sum of every tenant's resident-bytes estimate.
    pub(crate) resident_total: AtomicU64,
}

impl std::fmt::Debug for TenantEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantEnv")
            .field("mapping_factor", &self.mapping_factor)
            .field(
                "resident_total",
                &self.resident_total.load(Ordering::Relaxed),
            )
            .finish()
    }
}

/// The state of one tenant, owned by its slot's state mutex.
#[derive(Debug)]
pub(crate) struct TenantState {
    name: String,
    snap_path: PathBuf,
    wal_path: PathBuf,
    /// `Some` while live; `None` while cold (evicted or never touched).
    pipeline: Option<Box<StreamingPipeline>>,
    /// `Some(reason)` once poisoned; latches until the daemon restarts.
    pub(crate) quarantined: Option<String>,
    /// Logical tick of the most recent request — the eviction order.
    pub(crate) last_touch: u64,
    /// This tenant's share of the global resident account.
    resident_bytes: u64,
    pub(crate) evictions: u64,
    pub(crate) rehydrations: u64,
    pub(crate) acked_appends: u64,
    /// WAL records replayed by the most recent recovery.
    pub(crate) replayed_records: u64,
    /// I/O retries of pipelines that were since dropped (evicted or reset),
    /// so the tenant-lifetime counter survives residency transitions.
    io_retries_dropped: u64,
    /// Last known checkpoint position, kept current so stats never need to
    /// rehydrate a cold tenant.
    meta: CheckpointMeta,
}

impl TenantState {
    pub(crate) fn new(name: &str, data_dir: &Path) -> Self {
        let dir = data_dir.join("tenants");
        Self {
            name: name.to_string(),
            snap_path: dir.join(format!("{name}.snap")),
            wal_path: dir.join(format!("{name}.wal")),
            pipeline: None,
            quarantined: None,
            last_touch: 0,
            resident_bytes: 0,
            evictions: 0,
            rehydrations: 0,
            acked_appends: 0,
            replayed_records: 0,
            io_retries_dropped: 0,
            meta: CheckpointMeta {
                checkpoint_id: 0,
                granules_absorbed: 0,
                patterns_interned: 0,
                pending_granules: 0,
                io_retries: 0,
            },
        }
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn is_live(&self) -> bool {
        self.pipeline.is_some()
    }

    pub(crate) fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Tenant-lifetime transient-retry count: dropped pipelines' retries
    /// plus the live pipeline's.
    pub(crate) fn io_retries(&self) -> u64 {
        self.io_retries_dropped + self.pipeline.as_ref().map_or(0, |p| p.io_retries())
    }

    /// Raw instants buffered below a granule boundary; reported as zero
    /// while cold (rehydration replays the WAL, restoring the live value).
    pub(crate) fn pending_instants(&self) -> u64 {
        self.pipeline.as_ref().map_or(0, |p| p.pending_instants())
    }

    pub(crate) fn meta(&self) -> CheckpointMeta {
        self.pipeline
            .as_ref()
            .map_or(self.meta, |p| p.checkpoint_meta())
    }

    /// Refreshes this tenant's share of the global resident account.
    fn account_residency(&mut self, env: &TenantEnv) {
        let now = self.pipeline.as_ref().map_or(0, |p| p.resident_bytes());
        if now >= self.resident_bytes {
            env.resident_total
                .fetch_add(now - self.resident_bytes, Ordering::Relaxed);
        } else {
            env.resident_total
                .fetch_sub(self.resident_bytes - now, Ordering::Relaxed);
        }
        self.resident_bytes = now;
    }

    /// Drops the in-memory pipeline (retry counter preserved) and returns
    /// its resident bytes to the global account.
    fn drop_pipeline(&mut self, env: &TenantEnv) {
        if let Some(pipeline) = self.pipeline.take() {
            self.io_retries_dropped += pipeline.io_retries();
            self.meta = pipeline.checkpoint_meta();
            self.meta.io_retries = 0;
        }
        self.account_residency(env);
    }

    /// Latches the quarantine and discards the (possibly half-mutated)
    /// in-memory state. Durable state is untouched.
    fn quarantine(&mut self, env: &TenantEnv, reason: String) {
        self.drop_pipeline(env);
        self.quarantined = Some(reason);
    }

    /// Brings the tenant live, rehydrating from its durable snapshot + WAL
    /// when cold — the same path a daemon restart takes, so an eviction is
    /// indistinguishable from a crash that lost only volatile state.
    ///
    /// # Errors
    /// [`ServiceError::Quarantined`] for a latched tenant;
    /// [`ServiceError::Tenant`] when recovery fails (the tenant stays cold
    /// and its durable state stays intact, so a later touch retries).
    fn ensure_live(&mut self, env: &TenantEnv) -> Result<(), ServiceError> {
        if let Some(reason) = &self.quarantined {
            return Err(ServiceError::Quarantined {
                reason: reason.clone(),
            });
        }
        if self.pipeline.is_some() {
            return Ok(());
        }
        let mut pipeline = Pipeline::builder()
            .mapping_factor(env.mapping_factor)
            .thresholds(env.thresholds.clone())
            .into_streaming();
        pipeline.set_storage(Arc::clone(&env.storage));
        pipeline.set_retry_policy(env.retry);
        match pipeline.recover(Some(&self.snap_path), &self.wal_path) {
            Ok(report) => {
                if report.restored_granules > 0 || report.replayed_records > 0 {
                    self.rehydrations += 1;
                }
                self.replayed_records = report.replayed_records;
                self.pipeline = Some(Box::new(pipeline));
                self.account_residency(env);
                Ok(())
            }
            Err(e) => Err(ServiceError::Tenant {
                reason: format!("recovery failed: {e}"),
            }),
        }
    }

    /// Appends one symbolized batch: WAL-logged and fsynced before the
    /// checkpoint report (the acknowledgment) is produced.
    ///
    /// Failure routing is the quarantine policy in one place:
    /// * panic, transform or mining error → the in-memory absorb may be
    ///   half-applied → quarantine (durable state intact, batch unacked);
    /// * persistence error → the batch is in memory but *not* durable, so
    ///   the in-memory state is discarded (ahead-of-WAL state must never
    ///   serve reads) and the tenant stays healthy — the caller retries.
    ///
    /// # Errors
    /// Typed [`ServiceError`]s as above; never a panic.
    pub(crate) fn append(
        &mut self,
        env: &TenantEnv,
        batch: &SymbolicDatabase,
    ) -> Result<EngineReport, ServiceError> {
        self.ensure_live(env)?;
        let pipeline = self
            .pipeline
            .as_mut()
            .expect("ensure_live returned Ok, so the pipeline is live");
        let outcome = catch_unwind(AssertUnwindSafe(|| pipeline.append_symbolic(batch)));
        let result = match outcome {
            Err(payload) => {
                let reason = format!("panic while absorbing a batch: {}", panic_text(&payload));
                self.quarantine(env, reason.clone());
                return Err(ServiceError::Quarantined { reason });
            }
            Ok(result) => result,
        };
        match result {
            Ok(report) => {
                self.acked_appends += 1;
                self.account_residency(env);
                Ok(report)
            }
            Err(
                e @ (PipelineError::Transform(_)
                | PipelineError::Mining(_)
                | PipelineError::MissingSymbolizer),
            ) => {
                let reason = format!("poisoned input: {e}");
                self.quarantine(env, reason.clone());
                Err(ServiceError::Quarantined { reason })
            }
            Err(e @ PipelineError::Persistence(_)) => {
                self.drop_pipeline(env);
                Err(ServiceError::Tenant {
                    reason: format!("append not durable: {e}"),
                })
            }
        }
    }

    /// The tenant's checkpoint report without appending anything.
    ///
    /// # Errors
    /// As [`TenantState::append`], minus the append-specific routing.
    pub(crate) fn checkpoint(&mut self, env: &TenantEnv) -> Result<EngineReport, ServiceError> {
        self.ensure_live(env)?;
        let pipeline = self
            .pipeline
            .as_mut()
            .expect("ensure_live returned Ok, so the pipeline is live");
        let outcome = catch_unwind(AssertUnwindSafe(|| pipeline.checkpoint()));
        match outcome {
            Err(payload) => {
                let reason = format!("panic while checkpointing: {}", panic_text(&payload));
                self.quarantine(env, reason.clone());
                Err(ServiceError::Quarantined { reason })
            }
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(ServiceError::Tenant {
                reason: format!("checkpoint failed: {e}"),
            }),
        }
    }

    /// Evicts a live tenant: atomic durable snapshot (which truncates the
    /// WAL), then drop the in-memory pipeline. Returns `false` for a tenant
    /// that was already cold.
    ///
    /// # Errors
    /// The snapshot error. The pipeline is then **untouched** — a failed
    /// eviction snapshot leaves the tenant live and lossless, and the
    /// enforcer simply stays over budget until a later attempt succeeds.
    pub(crate) fn evict(&mut self, env: &TenantEnv) -> Result<bool, ServiceError> {
        let Some(pipeline) = self.pipeline.as_mut() else {
            return Ok(false);
        };
        let snap_path = self.snap_path.clone();
        pipeline
            .snapshot_to(&snap_path)
            .map_err(|e| ServiceError::Tenant {
                reason: format!("eviction snapshot failed: {e}"),
            })?;
        self.drop_pipeline(env);
        self.evictions += 1;
        Ok(true)
    }
}

/// Best-effort rendering of a panic payload (they are almost always `&str`
/// or `String`).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
