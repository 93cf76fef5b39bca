//! The service wire protocol: length-prefixed frames over any byte stream,
//! dependency-free.
//!
//! Every frame is a little-endian `u32` payload length followed by the
//! payload; payloads are capped at [`MAX_FRAME_BYTES`] so a malformed or
//! hostile peer cannot make the daemon buffer unboundedly. Payloads start
//! with a one-byte opcode (requests) or tag (responses); strings and
//! integers use the same [`ByteWriter`]/[`ByteReader`] primitives as the
//! snapshot format, so torn or corrupt frames surface as typed errors,
//! never panics.
//!
//! Appends carry already-symbolized batches in the encoding the streaming
//! pipeline's WAL logs them in ([`snapshot::write_symbolic_database`]): per
//! series its name, alphabet and new symbols.
//! Symbol ids are validated against the alphabet at decode time; batches
//! that are shape-valid but semantically wrong for a tenant (a different
//! series set, say) are the tenant's problem — and its quarantine, not its
//! neighbors'.
//!
//! Like the snapshot decoders, this module denies every clippy lint for a
//! panicking construct (the `assert!` family via `disallowed_macros`), so
//! no peer bytes can panic the daemon.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_macros
)]

use crate::stats::{ServiceStats, TenantStats};
use std::io::{self, Read, Write};
use stpm_core::snapshot::{self, ByteReader, ByteWriter};
use stpm_core::{Error as CoreError, Result as CoreResult};
use stpm_timeseries::SymbolicDatabase;

/// Version byte leading every payload; bumped on incompatible changes.
/// Version 2 writes an append's label counts as `u32`, in the symbolic
/// encoding of the snapshot `DSYB` section and WAL records.
pub const PROTOCOL_VERSION: u8 = 2;

/// Hard cap on a single frame payload. Larger frames are rejected before
/// any allocation happens.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

const OP_APPEND: u8 = 1;
const OP_CHECKPOINT: u8 = 2;
const OP_PATTERNS: u8 = 3;
const OP_STATS: u8 = 4;
const OP_SHUTDOWN: u8 = 5;

const RESP_APPENDED: u8 = 1;
const RESP_CHECKPOINT: u8 = 2;
const RESP_PATTERNS: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_SHUTDOWN: u8 = 5;
const RESP_ERROR: u8 = 6;

const ERR_OVERLOADED_TENANT: u8 = 1;
const ERR_OVERLOADED_GLOBAL: u8 = 2;
const ERR_DEADLINE: u8 = 3;
const ERR_QUARANTINED: u8 = 4;
const ERR_SHUTTING_DOWN: u8 = 5;
const ERR_BAD_REQUEST: u8 = 6;
const ERR_TENANT: u8 = 7;

/// Which bounded queue rejected an admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadScope {
    /// The tenant's own queue is full — this tenant is too fast, its
    /// neighbors are unaffected.
    Tenant,
    /// The service-wide queue is full.
    Global,
}

/// A typed service failure. Every variant is an *expected* protocol
/// outcome: the daemon stays up and the connection stays usable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control rejected the request; retry with backoff.
    Overloaded {
        /// Which queue was full.
        scope: OverloadScope,
    },
    /// The request's deadline expired before a worker picked it up; the
    /// request was cancelled without touching tenant state.
    DeadlineExceeded,
    /// The tenant is quarantined; its durable state is intact but it
    /// accepts no further work until the daemon is restarted.
    Quarantined {
        /// What poisoned the tenant.
        reason: String,
    },
    /// The daemon is draining; no new work is admitted.
    ShuttingDown,
    /// The request itself was malformed.
    BadRequest {
        /// What failed to validate.
        reason: String,
    },
    /// A tenant-scoped failure that did *not* quarantine the tenant (e.g.
    /// a persistence error after retries); the tenant stays live.
    Tenant {
        /// The underlying failure.
        reason: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded {
                scope: OverloadScope::Tenant,
            } => write!(f, "overloaded: the tenant queue is full"),
            ServiceError::Overloaded {
                scope: OverloadScope::Global,
            } => write!(f, "overloaded: the global queue is full"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded before scheduling"),
            ServiceError::Quarantined { reason } => write!(f, "tenant quarantined: {reason}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServiceError::Tenant { reason } => write!(f, "tenant error: {reason}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A request a client submits to the service.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Append a symbolized batch to one tenant's stream.
    Append {
        /// Target tenant.
        tenant: String,
        /// Deadline in milliseconds from submission (0 = none).
        deadline_ms: u32,
        /// The new samples, one entry per series of the tenant's stream.
        batch: SymbolicDatabase,
    },
    /// Ask for the tenant's checkpoint position without appending.
    Checkpoint {
        /// Target tenant.
        tenant: String,
    },
    /// Ask for the tenant's current seasonal pattern set.
    Patterns {
        /// Target tenant.
        tenant: String,
    },
    /// Ask for the service-wide stats snapshot.
    Stats,
    /// Start a graceful drain: finish queued work, flush every tenant,
    /// then exit.
    Shutdown,
}

/// What the service answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The append is durable (WAL fsynced) and mined.
    Appended {
        /// Complete granules absorbed so far.
        granules: u64,
        /// Raw instants still pending (not yet a complete granule).
        pending_instants: u64,
        /// Frequent seasonal patterns at this checkpoint.
        patterns: u64,
    },
    /// Checkpoint position of a tenant.
    Checkpoint {
        /// Complete granules absorbed so far.
        granules: u64,
        /// Frequent seasonal patterns at this checkpoint.
        patterns: u64,
    },
    /// The tenant's current canonical pattern set.
    Patterns {
        /// One canonical rendering per frequent pattern.
        patterns: Vec<String>,
    },
    /// Service-wide stats snapshot.
    Stats(ServiceStats),
    /// The drain has started; the connection will close once it completes.
    ShutdownStarted,
    /// A typed failure.
    Error(ServiceError),
}

/// Writes one length-prefixed frame.
///
/// # Errors
/// Propagates writer errors; rejects payloads above [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, "frame length does not fit u32")
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame; `Ok(None)` on a clean EOF before the
/// length prefix (the peer hung up between frames).
///
/// # Errors
/// Propagates reader errors; an EOF in the middle of a frame and an
/// oversized length prefix are `InvalidData`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_buf.len() {
        #[expect(
            clippy::indexing_slicing,
            reason = "the loop guard holds `filled < 4`, so this slice of the \
                      fixed header buffer cannot panic"
        )]
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "connection closed inside a frame header",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds MAX_FRAME_BYTES",
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

fn corrupt(reason: String) -> CoreError {
    CoreError::SnapshotCorrupt { reason }
}

/// Encodes a request payload (framing is [`write_frame`]'s job).
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(PROTOCOL_VERSION);
    match req {
        Request::Append {
            tenant,
            deadline_ms,
            batch,
        } => {
            w.put_u8(OP_APPEND);
            w.put_str(tenant);
            w.put_u32(*deadline_ms);
            snapshot::write_symbolic_database(&mut w, batch);
        }
        Request::Checkpoint { tenant } => {
            w.put_u8(OP_CHECKPOINT);
            w.put_str(tenant);
        }
        Request::Patterns { tenant } => {
            w.put_u8(OP_PATTERNS);
            w.put_str(tenant);
        }
        Request::Stats => w.put_u8(OP_STATS),
        Request::Shutdown => w.put_u8(OP_SHUTDOWN),
    }
    w.into_bytes()
}

/// Decodes a request payload.
///
/// # Errors
/// Typed [`CoreError`]s on truncation, version mismatch, unknown opcodes,
/// or invalid batch contents — never a panic.
pub fn decode_request(bytes: &[u8]) -> CoreResult<Request> {
    let mut r = ByteReader::new(bytes, "service request");
    let version = r.take_u8()?;
    if version != PROTOCOL_VERSION {
        return Err(CoreError::SnapshotVersion {
            found: u32::from(version),
            supported: u32::from(PROTOCOL_VERSION),
        });
    }
    let op = r.take_u8()?;
    let req = match op {
        OP_APPEND => {
            let tenant = r.take_str()?;
            let deadline_ms = r.take_u32()?;
            let batch = snapshot::read_symbolic_database(&mut r)?;
            Request::Append {
                tenant,
                deadline_ms,
                batch,
            }
        }
        OP_CHECKPOINT => Request::Checkpoint {
            tenant: r.take_str()?,
        },
        OP_PATTERNS => Request::Patterns {
            tenant: r.take_str()?,
        },
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        other => return Err(corrupt(format!("unknown request opcode {other}"))),
    };
    r.finish()?;
    Ok(req)
}

fn write_error(w: &mut ByteWriter, err: &ServiceError) {
    match err {
        ServiceError::Overloaded { scope } => {
            w.put_u8(match scope {
                OverloadScope::Tenant => ERR_OVERLOADED_TENANT,
                OverloadScope::Global => ERR_OVERLOADED_GLOBAL,
            });
        }
        ServiceError::DeadlineExceeded => w.put_u8(ERR_DEADLINE),
        ServiceError::Quarantined { reason } => {
            w.put_u8(ERR_QUARANTINED);
            w.put_str(reason);
        }
        ServiceError::ShuttingDown => w.put_u8(ERR_SHUTTING_DOWN),
        ServiceError::BadRequest { reason } => {
            w.put_u8(ERR_BAD_REQUEST);
            w.put_str(reason);
        }
        ServiceError::Tenant { reason } => {
            w.put_u8(ERR_TENANT);
            w.put_str(reason);
        }
    }
}

fn read_error(r: &mut ByteReader<'_>) -> CoreResult<ServiceError> {
    let code = r.take_u8()?;
    Ok(match code {
        ERR_OVERLOADED_TENANT => ServiceError::Overloaded {
            scope: OverloadScope::Tenant,
        },
        ERR_OVERLOADED_GLOBAL => ServiceError::Overloaded {
            scope: OverloadScope::Global,
        },
        ERR_DEADLINE => ServiceError::DeadlineExceeded,
        ERR_QUARANTINED => ServiceError::Quarantined {
            reason: r.take_str()?,
        },
        ERR_SHUTTING_DOWN => ServiceError::ShuttingDown,
        ERR_BAD_REQUEST => ServiceError::BadRequest {
            reason: r.take_str()?,
        },
        ERR_TENANT => ServiceError::Tenant {
            reason: r.take_str()?,
        },
        other => return Err(corrupt(format!("unknown error code {other}"))),
    })
}

fn write_tenant_stats(w: &mut ByteWriter, t: &TenantStats) {
    w.put_str(&t.name);
    w.put_u8(u8::from(t.resident));
    w.put_u8(u8::from(t.quarantined));
    w.put_u64(t.granules_absorbed);
    w.put_u64(t.pending_granules);
    w.put_u64(t.patterns_interned);
    w.put_u64(t.io_retries);
    w.put_u64(t.evictions);
    w.put_u64(t.rehydrations);
    w.put_u64(t.resident_bytes);
    w.put_u64(t.acked_appends);
    w.put_u64(t.replayed_records);
}

fn read_tenant_stats(r: &mut ByteReader<'_>) -> CoreResult<TenantStats> {
    Ok(TenantStats {
        name: r.take_str()?,
        resident: r.take_u8()? != 0,
        quarantined: r.take_u8()? != 0,
        granules_absorbed: r.take_u64()?,
        pending_granules: r.take_u64()?,
        patterns_interned: r.take_u64()?,
        io_retries: r.take_u64()?,
        evictions: r.take_u64()?,
        rehydrations: r.take_u64()?,
        resident_bytes: r.take_u64()?,
        acked_appends: r.take_u64()?,
        replayed_records: r.take_u64()?,
    })
}

/// Encodes a response payload.
#[must_use]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(PROTOCOL_VERSION);
    match resp {
        Response::Appended {
            granules,
            pending_instants,
            patterns,
        } => {
            w.put_u8(RESP_APPENDED);
            w.put_u64(*granules);
            w.put_u64(*pending_instants);
            w.put_u64(*patterns);
        }
        Response::Checkpoint { granules, patterns } => {
            w.put_u8(RESP_CHECKPOINT);
            w.put_u64(*granules);
            w.put_u64(*patterns);
        }
        Response::Patterns { patterns } => {
            w.put_u8(RESP_PATTERNS);
            w.put_u32(u32::try_from(patterns.len()).unwrap_or(u32::MAX));
            for p in patterns {
                w.put_str(p);
            }
        }
        Response::Stats(stats) => {
            w.put_u8(RESP_STATS);
            w.put_u64(stats.resident_bytes);
            w.put_u64(stats.budget_bytes);
            w.put_u64(stats.acked_appends);
            w.put_u64(stats.overloaded_rejections);
            w.put_u64(stats.deadline_rejections);
            w.put_u64(stats.quarantined_tenants);
            w.put_u64(stats.evictions);
            w.put_u64(stats.rehydrations);
            w.put_u64(stats.io_retries);
            w.put_u32(u32::try_from(stats.tenants.len()).unwrap_or(u32::MAX));
            for t in &stats.tenants {
                write_tenant_stats(&mut w, t);
            }
        }
        Response::ShutdownStarted => w.put_u8(RESP_SHUTDOWN),
        Response::Error(err) => {
            w.put_u8(RESP_ERROR);
            write_error(&mut w, err);
        }
    }
    w.into_bytes()
}

/// Decodes a response payload.
///
/// # Errors
/// Typed [`CoreError`]s on truncation, version mismatch or unknown tags —
/// never a panic.
pub fn decode_response(bytes: &[u8]) -> CoreResult<Response> {
    let mut r = ByteReader::new(bytes, "service response");
    let version = r.take_u8()?;
    if version != PROTOCOL_VERSION {
        return Err(CoreError::SnapshotVersion {
            found: u32::from(version),
            supported: u32::from(PROTOCOL_VERSION),
        });
    }
    let tag = r.take_u8()?;
    let resp = match tag {
        RESP_APPENDED => Response::Appended {
            granules: r.take_u64()?,
            pending_instants: r.take_u64()?,
            patterns: r.take_u64()?,
        },
        RESP_CHECKPOINT => Response::Checkpoint {
            granules: r.take_u64()?,
            patterns: r.take_u64()?,
        },
        RESP_PATTERNS => {
            let count = r.take_u32()?;
            let mut patterns = Vec::new();
            for _ in 0..count {
                patterns.push(r.take_str()?);
            }
            Response::Patterns { patterns }
        }
        RESP_STATS => {
            let resident_bytes = r.take_u64()?;
            let budget_bytes = r.take_u64()?;
            let acked_appends = r.take_u64()?;
            let overloaded_rejections = r.take_u64()?;
            let deadline_rejections = r.take_u64()?;
            let quarantined_tenants = r.take_u64()?;
            let evictions = r.take_u64()?;
            let rehydrations = r.take_u64()?;
            let io_retries = r.take_u64()?;
            let count = r.take_u32()?;
            let mut tenants = Vec::new();
            for _ in 0..count {
                tenants.push(read_tenant_stats(&mut r)?);
            }
            Response::Stats(ServiceStats {
                tenants,
                resident_bytes,
                budget_bytes,
                acked_appends,
                overloaded_rejections,
                deadline_rejections,
                quarantined_tenants,
                evictions,
                rehydrations,
                io_retries,
            })
        }
        RESP_SHUTDOWN => Response::ShutdownStarted,
        RESP_ERROR => Response::Error(read_error(&mut r)?),
        other => return Err(corrupt(format!("unknown response tag {other}"))),
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_macros
)]
mod tests {
    use super::*;
    use stpm_timeseries::{Alphabet, SymbolId, SymbolicSeries};

    fn sample_batch() -> SymbolicDatabase {
        let alphabet = Alphabet::from_strs(&["lo", "hi"]).unwrap();
        SymbolicDatabase::new(vec![
            SymbolicSeries::new("a".into(), vec![SymbolId(0), SymbolId(1)], alphabet.clone()),
            SymbolicSeries::new("b".into(), vec![SymbolId(1), SymbolId(1)], alphabet),
        ])
        .unwrap()
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Append {
                tenant: "t-1".into(),
                deadline_ms: 250,
                batch: sample_batch(),
            },
            Request::Checkpoint { tenant: "t".into() },
            Request::Patterns { tenant: "t".into() },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in requests {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Appended {
                granules: 7,
                pending_instants: 2,
                patterns: 3,
            },
            Response::Checkpoint {
                granules: 7,
                patterns: 3,
            },
            Response::Patterns {
                patterns: vec!["p1".into(), "p2".into()],
            },
            Response::Stats(ServiceStats {
                tenants: vec![TenantStats {
                    name: "t".into(),
                    resident: true,
                    quarantined: false,
                    granules_absorbed: 9,
                    pending_granules: 1,
                    patterns_interned: 4,
                    io_retries: 2,
                    evictions: 1,
                    rehydrations: 1,
                    resident_bytes: 4096,
                    acked_appends: 5,
                    replayed_records: 0,
                }],
                resident_bytes: 4096,
                budget_bytes: 1 << 20,
                acked_appends: 5,
                overloaded_rejections: 1,
                deadline_rejections: 1,
                quarantined_tenants: 0,
                evictions: 1,
                rehydrations: 1,
                io_retries: 2,
            }),
            Response::ShutdownStarted,
            Response::Error(ServiceError::Overloaded {
                scope: OverloadScope::Tenant,
            }),
            Response::Error(ServiceError::Quarantined {
                reason: "poisoned".into(),
            }),
        ];
        for resp in responses {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());

        let mut oversized = Vec::new();
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = &oversized[..];
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn corrupt_payloads_surface_typed_errors() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[PROTOCOL_VERSION, 99]).is_err());
        assert!(decode_response(&[PROTOCOL_VERSION]).is_err());
        // Truncate a valid request at every length: decoding must never
        // panic and must fail for every proper prefix.
        let bytes = encode_request(&Request::Append {
            tenant: "t".into(),
            deadline_ms: 0,
            batch: sample_batch(),
        });
        for len in 0..bytes.len() {
            assert!(decode_request(&bytes[..len]).is_err(), "prefix {len}");
        }
        // A symbol outside its alphabet is rejected at decode time.
        let alphabet = Alphabet::from_strs(&["only"]).unwrap();
        let bad = SymbolicDatabase::new(vec![SymbolicSeries::new(
            "a".into(),
            vec![SymbolId(7)],
            alphabet,
        )])
        .unwrap();
        let bytes = encode_request(&Request::Append {
            tenant: "t".into(),
            deadline_ms: 0,
            batch: bad,
        });
        assert!(decode_request(&bytes).is_err());
    }
}
