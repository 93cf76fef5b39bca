//! Runtime structural-invariant validation for the mining state.
//!
//! The CSR-shaped structures of this crate ([`HlhK`](crate::hlh::HlhK)'s
//! arenas and binding pool, [`VerdictTable`](crate::hlh::VerdictTable)'s
//! block offsets, [`Seasons`](crate::season::Seasons) spans, the
//! [`StreamingMiner`](crate::streaming::StreamingMiner) tracker state) rely
//! on layout invariants — monotone offset arrays, in-bounds slices, index
//! maps consistent with their arenas — that ordinary unit tests only probe
//! indirectly. Each of those types exposes a `validate` method that checks
//! its invariants exhaustively and reports the first violation.
//!
//! The validators are **always compiled** (property-test suites call them
//! directly on arbitrary inputs), but the production call sites at miner
//! level boundaries are **gated**: they run under `debug_assertions` or when
//! the `strict-invariants` cargo feature is enabled, and compile to nothing
//! in an ordinary release build. Enable the feature to keep the checks in an
//! optimized build:
//!
//! ```text
//! cargo test --features strict-invariants
//! ```

use std::fmt;

/// A violated structural invariant: which structure, and what the walk
/// found. Produced by the `validate` methods; carried as the panic payload
/// of the gated call sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The structure whose invariant failed (e.g. `"HlhK"`).
    pub structure: &'static str,
    /// Description of the first violation found.
    pub detail: String,
}

impl InvariantViolation {
    /// Creates a violation report for `structure`.
    #[must_use]
    pub fn new(structure: &'static str, detail: impl Into<String>) -> Self {
        Self {
            structure,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} invariant violated: {}", self.structure, self.detail)
    }
}

impl std::error::Error for InvariantViolation {}

/// Whether the gated validation call sites are active in this build:
/// `true` under `debug_assertions` or with the `strict-invariants` feature.
#[must_use]
pub fn strict_checks_enabled() -> bool {
    cfg!(any(debug_assertions, feature = "strict-invariants"))
}

/// Runs a `validate()` expression when strict checks are enabled and panics
/// on a violation. In a release build without the `strict-invariants`
/// feature the branch is statically false and the whole call folds away.
macro_rules! debug_validate {
    ($validation:expr) => {
        if $crate::invariants::strict_checks_enabled() {
            if let Err(violation) = $validation {
                panic!("{violation}");
            }
        }
    };
}

pub(crate) use debug_validate;

/// Shorthand used by the validators: fails with a formatted violation.
macro_rules! invariant {
    ($structure:expr, $cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err($crate::invariants::InvariantViolation::new(
                $structure,
                format!($($msg)+),
            ));
        }
    };
}

pub(crate) use invariant;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_names_structure() {
        let violation = InvariantViolation::new("HlhK", "pool length 7 not a multiple of k=2");
        assert_eq!(
            violation.to_string(),
            "HlhK invariant violated: pool length 7 not a multiple of k=2"
        );
    }

    #[test]
    fn strict_checks_follow_build_profile() {
        // Counts how often `debug_validate!` evaluates its expression.
        let evaluated = std::cell::Cell::new(0u32);
        let failing_validation = || {
            evaluated.set(evaluated.get() + 1);
            Err::<(), _>(InvariantViolation::new("Probe", "always violated"))
        };
        if cfg!(debug_assertions) || cfg!(feature = "strict-invariants") {
            // Debug and strict-invariants builds run the gated call sites
            // and panic on a violation.
            assert!(strict_checks_enabled());
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                debug_validate!(failing_validation());
            }));
            assert!(outcome.is_err(), "a violation must panic");
            assert_eq!(evaluated.get(), 1);
        } else {
            // A plain release build folds the call sites away: the
            // validation expression is never evaluated.
            assert!(!strict_checks_enabled());
            debug_validate!(failing_validation());
            assert_eq!(evaluated.get(), 0);
        }
    }
}
