//! Error types for the mining layer.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while configuring or running the STPM miner.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A threshold is outside its valid domain.
    InvalidThreshold {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// The sequence database is empty.
    EmptyDatabase,
    /// A data-transformation step performed by an engine (projection,
    /// sequence mapping) failed.
    Transform(stpm_timeseries::Error),
    /// A streaming append violated the append contract (granules out of
    /// order, or a batch that does not continue the absorbed prefix).
    StreamAppend {
        /// Human-readable description.
        reason: String,
    },
    /// An internal invariant was violated (indicates a bug, never expected).
    Internal {
        /// Human-readable description.
        reason: String,
    },
    /// A snapshot or write-ahead-log byte stream failed validation:
    /// truncated, bit-flipped, or structurally invalid. Restoring from such
    /// data never panics — it surfaces this variant instead.
    SnapshotCorrupt {
        /// What failed to validate, and where.
        reason: String,
    },
    /// The snapshot or WAL was written by a format version this build does
    /// not understand.
    SnapshotVersion {
        /// The version found in the header.
        found: u32,
        /// The newest version this build supports.
        supported: u32,
    },
    /// The configuration stored in a snapshot is incompatible with the
    /// configuration the restoring side requested (parameters that shape the
    /// absorbed state itself — ε, `d_o`, `maxPatternLen`, the mapping factor
    /// — cannot change across a restore; seasonality thresholds can, via
    /// tracker replay).
    SnapshotConfigMismatch {
        /// Name of the incompatible parameter.
        parameter: &'static str,
        /// Human-readable description of the mismatch.
        reason: String,
    },
    /// An I/O failure while writing or reading persistence data (the message
    /// of the underlying `std::io::Error`; the error itself is not stored so
    /// this type stays `Clone + PartialEq`).
    SnapshotIo {
        /// The underlying I/O error message.
        reason: String,
    },
}

impl Error {
    /// Wraps an `std::io::Error` into [`Error::SnapshotIo`].
    #[must_use]
    pub fn snapshot_io(e: &std::io::Error) -> Self {
        Error::SnapshotIo {
            reason: e.to_string(),
        }
    }
}

impl From<stpm_timeseries::Error> for Error {
    fn from(e: stpm_timeseries::Error) -> Self {
        Error::Transform(e)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidThreshold { parameter, reason } => {
                write!(f, "invalid threshold `{parameter}`: {reason}")
            }
            Error::EmptyDatabase => write!(f, "the temporal sequence database is empty"),
            Error::Transform(e) => write!(f, "data transformation failed: {e}"),
            Error::StreamAppend { reason } => write!(f, "streaming append rejected: {reason}"),
            Error::Internal { reason } => write!(f, "internal invariant violated: {reason}"),
            Error::SnapshotCorrupt { reason } => {
                write!(f, "snapshot data failed validation: {reason}")
            }
            Error::SnapshotVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads up to \
                 version {supported})"
            ),
            Error::SnapshotConfigMismatch { parameter, reason } => {
                write!(
                    f,
                    "snapshot configuration mismatch on `{parameter}`: {reason}"
                )
            }
            Error::SnapshotIo { reason } => write!(f, "snapshot I/O failed: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::InvalidThreshold {
            parameter: "minSeason",
            reason: "must be at least 1".into(),
        };
        assert!(e.to_string().contains("minSeason"));
        assert!(Error::EmptyDatabase.to_string().contains("empty"));
        let t: Error = stpm_timeseries::Error::EmptySeries { name: "X".into() }.into();
        assert!(t.to_string().contains("transformation"));
        assert!(Error::Internal {
            reason: "oops".into()
        }
        .to_string()
        .contains("oops"));
        assert!(Error::SnapshotCorrupt {
            reason: "bad crc".into()
        }
        .to_string()
        .contains("bad crc"));
        assert!(Error::SnapshotVersion {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains('9'));
        assert!(Error::SnapshotConfigMismatch {
            parameter: "epsilon",
            reason: "stored 0, requested 2".into()
        }
        .to_string()
        .contains("epsilon"));
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert!(Error::snapshot_io(&io).to_string().contains("gone"));
    }
}
