//! Mining configuration: the four seasonality thresholds of the paper
//! (`maxPeriod`, `minDensity`, `distInterval`, `minSeason`), the relation
//! parameters (ε, `d_o`), and the pruning-mode switch used for the ablation
//! study of Figures 15/16/25/26.

use crate::error::{Error, Result};

/// A threshold that can be given either as an absolute number of granules or
/// as a fraction of `|D_SEQ|` (the paper expresses `maxPeriod` and
/// `minDensity` as percentages of the database size, Table VI).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threshold {
    /// An absolute number of granules.
    Absolute(u64),
    /// A fraction of the number of granules in `D_SEQ` (e.g. `0.005` for the
    /// paper's `0.5%`).
    Fraction(f64),
}

impl Threshold {
    /// Resolves the threshold against a database of `dseq_len` granules,
    /// clamping the result to at least `minimum`.
    #[must_use]
    pub fn resolve(&self, dseq_len: u64, minimum: u64) -> u64 {
        let value = match self {
            Threshold::Absolute(v) => *v,
            Threshold::Fraction(f) => (f * dseq_len as f64).round() as u64,
        };
        value.max(minimum)
    }

    /// Validates the threshold domain.
    ///
    /// # Errors
    /// [`Error::InvalidThreshold`] for negative or non-finite fractions.
    pub fn validate(&self, parameter: &'static str) -> Result<()> {
        match self {
            Threshold::Absolute(_) => Ok(()),
            Threshold::Fraction(f) => {
                if !f.is_finite() || *f < 0.0 || *f > 1.0 {
                    Err(Error::InvalidThreshold {
                        parameter,
                        reason: format!("fraction {f} must be a finite value in [0, 1]"),
                    })
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Which pruning techniques E-STPM applies. `All` is the algorithm of the
/// paper; the other variants exist for the pruning-ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PruningMode {
    /// No pruning: every event/group/pattern is expanded and only the final
    /// frequency check filters the output.
    NoPrune,
    /// Only the Apriori-like pruning based on the anti-monotone `maxSeason`
    /// bound (Lemmas 1 and 2).
    Apriori,
    /// Only the transitivity-based pruning (Lemmas 3 and 4).
    Transitivity,
    /// Both prunings (the full E-STPM algorithm).
    #[default]
    All,
}

impl PruningMode {
    /// Whether the Apriori-like `maxSeason` filter is active.
    #[must_use]
    pub fn apriori_enabled(&self) -> bool {
        matches!(self, PruningMode::Apriori | PruningMode::All)
    }

    /// Whether the transitivity filter is active.
    #[must_use]
    pub fn transitivity_enabled(&self) -> bool {
        matches!(self, PruningMode::Transitivity | PruningMode::All)
    }

    /// All four modes, in the order the paper plots them.
    #[must_use]
    pub fn all_modes() -> [PruningMode; 4] {
        [
            PruningMode::NoPrune,
            PruningMode::Apriori,
            PruningMode::Transitivity,
            PruningMode::All,
        ]
    }

    /// Short label used in benchmark output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PruningMode::NoPrune => "NoPrune",
            PruningMode::Apriori => "Apriori",
            PruningMode::Transitivity => "Trans",
            PruningMode::All => "All",
        }
    }
}

/// User-facing configuration of the STPM miner.
///
/// Deliberately excludes operational resource limits: a memory budget (see
/// `fault::MemoryBudget`) caps one *deployment* of many miners, not the
/// mining semantics, and the snapshot config section must round-trip
/// exactly the parameters that shape mined output. The budget is set on the
/// service tier and retry policies on the streaming pipeline instead.
#[derive(Debug, Clone, PartialEq)]
pub struct StpmConfig {
    /// `maxPeriod`: maximal period between two consecutive granules of a near
    /// support set (Definition 3.13).
    pub max_period: Threshold,
    /// `minDensity`: minimal number of granules a near support set needs to
    /// be a season (Definition 3.14).
    pub min_density: Threshold,
    /// `distInterval = [distmin, distmax]`: allowed distance between two
    /// consecutive seasons (Definition 3.15), in granules of `H`.
    pub dist_interval: (u64, u64),
    /// `minSeason`: minimum number of seasonal occurrences (Definition 3.15).
    pub min_season: u64,
    /// Tolerance buffer ε added to relation endpoints (Table III), in
    /// finest-granularity granules.
    pub epsilon: u64,
    /// Minimal overlapping duration `d_o` of an Overlaps relation, in
    /// finest-granularity granules.
    pub min_overlap: u64,
    /// Upper bound on the number of events per pattern (the paper's `h`).
    pub max_pattern_len: usize,
    /// Which pruning techniques to apply.
    pub pruning: PruningMode,
    /// Number of worker threads used to mine each candidate level. `1` (the
    /// default) mines sequentially; `0` resolves to the machine's available
    /// parallelism. Parallel mining shards the candidate space and merges the
    /// per-shard results deterministically, so the output is identical for
    /// every thread count.
    pub threads: usize,
}

impl Default for StpmConfig {
    fn default() -> Self {
        Self {
            max_period: Threshold::Fraction(0.004),
            min_density: Threshold::Fraction(0.0075),
            dist_interval: (4, 365),
            min_season: 2,
            epsilon: 0,
            min_overlap: 1,
            max_pattern_len: 3,
            pruning: PruningMode::All,
            threads: 1,
        }
    }
}

impl StpmConfig {
    /// Resolves fractional thresholds against a concrete database size and
    /// validates every parameter.
    ///
    /// # Errors
    /// [`Error::InvalidThreshold`] when a parameter is out of its domain.
    pub fn resolve(&self, dseq_len: u64) -> Result<ResolvedConfig> {
        self.max_period.validate("maxPeriod")?;
        self.min_density.validate("minDensity")?;
        if self.min_season == 0 {
            return Err(Error::InvalidThreshold {
                parameter: "minSeason",
                reason: "must be at least 1".into(),
            });
        }
        if self.dist_interval.0 > self.dist_interval.1 {
            return Err(Error::InvalidThreshold {
                parameter: "distInterval",
                reason: format!(
                    "distmin {} exceeds distmax {}",
                    self.dist_interval.0, self.dist_interval.1
                ),
            });
        }
        if self.max_pattern_len < 1 {
            return Err(Error::InvalidThreshold {
                parameter: "maxPatternLen",
                reason: "must allow at least single events".into(),
            });
        }
        if dseq_len == 0 {
            return Err(Error::EmptyDatabase);
        }
        Ok(ResolvedConfig {
            max_period: self.max_period.resolve(dseq_len, 1),
            min_density: self.min_density.resolve(dseq_len, 1),
            dist_min: self.dist_interval.0,
            dist_max: self.dist_interval.1,
            min_season: self.min_season,
            epsilon: self.epsilon,
            min_overlap: self.min_overlap.max(1),
            max_pattern_len: self.max_pattern_len,
            pruning: self.pruning,
            threads: resolve_threads(self.threads),
            dseq_len,
        })
    }

    /// Builder-style helper that switches the pruning mode.
    #[must_use]
    pub fn with_pruning(mut self, pruning: PruningMode) -> Self {
        self.pruning = pruning;
        self
    }

    /// Builder-style helper that switches the tolerance buffer ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: u64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Builder-style helper that sets the level-mining thread count
    /// (`0` = available parallelism).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Resolves the user-facing thread count to an effective worker count:
/// `0` means "all available cores", everything else is taken verbatim.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
}

/// The configuration with every threshold resolved to an absolute number of
/// granules — what the mining kernels actually consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedConfig {
    /// Maximal period between consecutive granules of a near support set.
    pub max_period: u64,
    /// Minimal density (granule count) of a season.
    pub min_density: u64,
    /// Minimal distance between consecutive seasons.
    pub dist_min: u64,
    /// Maximal distance between consecutive seasons.
    pub dist_max: u64,
    /// Minimal number of seasons of a frequent seasonal pattern.
    pub min_season: u64,
    /// Relation tolerance buffer ε.
    pub epsilon: u64,
    /// Minimal overlap duration `d_o`.
    pub min_overlap: u64,
    /// Maximal number of events per pattern.
    pub max_pattern_len: usize,
    /// Active pruning techniques.
    pub pruning: PruningMode,
    /// Effective number of level-mining worker threads (always ≥ 1).
    pub threads: usize,
    /// Number of granules in the database the config was resolved against.
    pub dseq_len: u64,
}

impl ResolvedConfig {
    /// `maxSeason(support)` = `|SUP| / minDensity` (Equation 1).
    #[must_use]
    pub fn max_season(&self, support_len: usize) -> f64 {
        support_len as f64 / self.min_density as f64
    }

    /// Whether a support set of `support_len` granules can still reach
    /// `minSeason` seasons, i.e. `maxSeason >= minSeason` (the candidate
    /// seasonal pattern test of Section IV-B).
    #[must_use]
    pub fn is_candidate(&self, support_len: usize) -> bool {
        self.max_season(support_len) >= self.min_season as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_resolution() {
        assert_eq!(Threshold::Absolute(5).resolve(1000, 1), 5);
        assert_eq!(Threshold::Fraction(0.005).resolve(1000, 1), 5);
        assert_eq!(Threshold::Fraction(0.0001).resolve(1000, 1), 1);
        assert_eq!(Threshold::Fraction(0.0).resolve(1000, 2), 2);
        assert_eq!(Threshold::Absolute(0).resolve(1000, 3), 3);
    }

    #[test]
    fn threshold_validation() {
        assert!(Threshold::Fraction(-0.1).validate("x").is_err());
        assert!(Threshold::Fraction(1.5).validate("x").is_err());
        assert!(Threshold::Fraction(f64::NAN).validate("x").is_err());
        assert!(Threshold::Fraction(0.5).validate("x").is_ok());
        assert!(Threshold::Absolute(10).validate("x").is_ok());
    }

    #[test]
    fn pruning_mode_switches() {
        assert!(PruningMode::All.apriori_enabled());
        assert!(PruningMode::All.transitivity_enabled());
        assert!(PruningMode::Apriori.apriori_enabled());
        assert!(!PruningMode::Apriori.transitivity_enabled());
        assert!(!PruningMode::Transitivity.apriori_enabled());
        assert!(PruningMode::Transitivity.transitivity_enabled());
        assert!(!PruningMode::NoPrune.apriori_enabled());
        assert!(!PruningMode::NoPrune.transitivity_enabled());
        assert_eq!(PruningMode::all_modes().len(), 4);
        assert_eq!(PruningMode::default(), PruningMode::All);
        assert_eq!(PruningMode::Transitivity.label(), "Trans");
    }

    #[test]
    fn config_resolution_happy_path() {
        let config = StpmConfig {
            max_period: Threshold::Fraction(0.002),
            min_density: Threshold::Fraction(0.005),
            dist_interval: (30, 90),
            min_season: 4,
            ..StpmConfig::default()
        };
        let resolved = config.resolve(1460).unwrap();
        assert_eq!(resolved.max_period, 3);
        assert_eq!(resolved.min_density, 7);
        assert_eq!(resolved.dist_min, 30);
        assert_eq!(resolved.dist_max, 90);
        assert_eq!(resolved.min_season, 4);
        assert_eq!(resolved.dseq_len, 1460);
    }

    #[test]
    fn config_resolution_errors() {
        let config = StpmConfig {
            min_season: 0,
            ..StpmConfig::default()
        };
        assert!(config.resolve(100).is_err());

        let config = StpmConfig {
            dist_interval: (10, 5),
            ..StpmConfig::default()
        };
        assert!(config.resolve(100).is_err());

        let config = StpmConfig {
            max_pattern_len: 0,
            ..StpmConfig::default()
        };
        assert!(config.resolve(100).is_err());

        assert!(StpmConfig::default().resolve(0).is_err());
    }

    #[test]
    fn max_season_and_candidate_test() {
        let resolved = StpmConfig {
            min_density: Threshold::Absolute(3),
            min_season: 2,
            ..StpmConfig::default()
        }
        .resolve(100)
        .unwrap();
        assert!((resolved.max_season(9) - 3.0).abs() < 1e-12);
        assert!(resolved.is_candidate(6));
        assert!(resolved.is_candidate(7));
        assert!(!resolved.is_candidate(5));
    }

    #[test]
    fn builder_helpers() {
        let config = StpmConfig::default()
            .with_pruning(PruningMode::NoPrune)
            .with_epsilon(2);
        assert_eq!(config.pruning, PruningMode::NoPrune);
        assert_eq!(config.epsilon, 2);
    }

    #[test]
    fn threads_default_to_sequential_and_zero_means_auto() {
        let config = StpmConfig::default();
        assert_eq!(config.threads, 1);
        assert_eq!(config.resolve(100).unwrap().threads, 1);

        let fixed = StpmConfig::default().with_threads(4);
        assert_eq!(fixed.resolve(100).unwrap().threads, 4);

        // 0 resolves to the machine's available parallelism, never below 1.
        let auto = StpmConfig::default().with_threads(0);
        assert!(auto.resolve(100).unwrap().threads >= 1);
    }

    #[test]
    fn min_overlap_has_floor_of_one() {
        let config = StpmConfig {
            min_overlap: 0,
            ..StpmConfig::default()
        };
        assert_eq!(config.resolve(100).unwrap().min_overlap, 1);
    }
}
