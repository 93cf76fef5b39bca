//! `stpm-service`: a multi-tenant streaming service tier over the
//! FreqSTPfTS pipeline.
//!
//! The daemon owns many independent
//! [`StreamingPipeline`](freqstpfts::StreamingPipeline)s — one per tenant —
//! and serves concurrent appends and checkpoint/pattern queries over a
//! small length-prefixed TCP protocol, dependency-free on `std::net`.
//!
//! The robustness contract, in one place:
//!
//! * **Bounded queues everywhere.** Admission control rejects work with a
//!   typed [`ServiceError::Overloaded`](protocol::ServiceError) response
//!   (per-tenant or global scope) instead of buffering unboundedly.
//! * **Deadlines.** A request may carry a deadline; a job whose deadline
//!   expired before a worker picked it up is cancelled with a typed
//!   response and never touches tenant state.
//! * **Memory budget.** A global budget caps resident tenant state; cold
//!   tenants are evicted to their snapshot files and transparently
//!   rehydrated on next touch, with checkpoints byte-identical to an
//!   unevicted run.
//! * **Fault isolation.** Poisoned input quarantines only its own tenant;
//!   the daemon and all neighbors keep serving.
//! * **Durability before acknowledgment.** An append is acknowledged only
//!   after its WAL record is fsynced (the pipeline's contract), and a
//!   graceful [`Service::drain`] flushes every tenant to a durable snapshot
//!   before exit. A hard kill loses only unacknowledged work.
//!
//! Crate layout: [`protocol`] (wire format), [`service`] (registry, worker
//! pool, admission, eviction), `tenant` (internal: per-tenant residency +
//! quarantine), [`server`]/[`client`] (TCP), [`stats`] (observability).

#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod service;
pub mod stats;
mod tenant;

pub use client::Client;
pub use protocol::{OverloadScope, Request, Response, ServiceError};
pub use server::{serve, ServerHandle};
pub use service::{DrainReport, Service, ServiceConfig};
pub use stats::{ServiceStats, TenantStats};
