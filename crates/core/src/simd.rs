//! Compatibility stub: the mining kernels are plain scalar loops in
//! `support.rs` and `season.rs`. This module exists only so that the
//! benchmark harness can keep printing `simd=scalar` in its `# env:` line.

/// The one kernel tier.
#[derive(Debug)]
pub struct Kernels;

impl Kernels {
    /// Tier name, always `"scalar"`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        "scalar"
    }
}

/// The kernel tier every build uses.
#[must_use]
pub fn kernels() -> &'static Kernels {
    &Kernels
}
