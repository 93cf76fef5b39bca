//! Empirical distributions over symbolic series.
//!
//! The approximate miner (A-STPM, Section V of the paper) needs the marginal
//! and joint probabilities of symbols to compute entropies and mutual
//! information. Those distributions are estimated here, directly on the
//! symbolic database `D_SYB`, with a single pass per pair of series.

use crate::symbolic::SymbolicSeries;

/// The empirical joint distribution of two symbolic series observed at the
/// same time instants.
#[derive(Debug, Clone, PartialEq)]
pub struct JointDistribution {
    /// `p[x][y]` = empirical probability of observing symbol `x` in the first
    /// series and symbol `y` in the second series at the same instant.
    joint: Vec<Vec<f64>>,
    /// Marginal distribution of the first series.
    marginal_x: Vec<f64>,
    /// Marginal distribution of the second series.
    marginal_y: Vec<f64>,
    /// Number of instants the estimate is based on.
    samples: usize,
}

impl JointDistribution {
    /// Estimates the joint distribution of `(x, y)` from their aligned
    /// symbols. The shorter length is used when the series disagree (they
    /// normally never do inside one `D_SYB`).
    #[must_use]
    pub fn estimate(x: &SymbolicSeries, y: &SymbolicSeries) -> Self {
        let nx = x.alphabet().len();
        let ny = y.alphabet().len();
        let n = x.len().min(y.len());
        let mut counts = vec![vec![0usize; ny]; nx];
        for i in 0..n {
            let sx = x.symbols()[i].0 as usize;
            let sy = y.symbols()[i].0 as usize;
            counts[sx][sy] += 1;
        }
        let denom = n.max(1) as f64;
        let joint: Vec<Vec<f64>> = counts
            .iter()
            .map(|row| row.iter().map(|c| *c as f64 / denom).collect())
            .collect();
        let marginal_x: Vec<f64> = joint.iter().map(|row| row.iter().sum()).collect();
        let mut marginal_y = vec![0.0; ny];
        for row in &joint {
            for (j, p) in row.iter().enumerate() {
                marginal_y[j] += p;
            }
        }
        Self {
            joint,
            marginal_x,
            marginal_y,
            samples: n,
        }
    }

    /// `p(x, y)` for symbol ids `x` (first series) and `y` (second series).
    #[must_use]
    pub fn joint(&self, x: usize, y: usize) -> f64 {
        self.joint
            .get(x)
            .and_then(|row| row.get(y))
            .copied()
            .unwrap_or(0.0)
    }

    /// Marginal `p(x)` of the first series.
    #[must_use]
    pub fn marginal_x(&self) -> &[f64] {
        &self.marginal_x
    }

    /// Marginal `p(y)` of the second series.
    #[must_use]
    pub fn marginal_y(&self) -> &[f64] {
        &self.marginal_y
    }

    /// Number of aligned instants used for the estimate.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Iterates over all `(x, y, p(x,y))` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.joint
            .iter()
            .enumerate()
            .flat_map(|(x, row)| row.iter().enumerate().map(move |(y, p)| (x, y, *p)))
    }
}

/// Shannon entropy (base 2) of a probability vector; zero-probability cells
/// contribute nothing.
#[must_use]
pub fn entropy(probabilities: &[f64]) -> f64 {
    probabilities
        .iter()
        .filter(|p| **p > 0.0)
        .map(|p| -p * p.log2())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SymbolId;
    use crate::symbolic::SymbolicSeries;
    use crate::symbolize::Alphabet;

    fn bits(name: &str, bits: &[u8]) -> SymbolicSeries {
        SymbolicSeries::new(
            name.to_string(),
            bits.iter().map(|b| SymbolId(u16::from(*b))).collect(),
            Alphabet::from_strs(&["0", "1"]).unwrap(),
        )
    }

    #[test]
    fn joint_distribution_of_identical_series_is_diagonal() {
        let x = bits("X", &[0, 1, 0, 1, 1, 0]);
        let d = JointDistribution::estimate(&x, &x);
        assert!((d.joint(0, 0) - 0.5).abs() < 1e-12);
        assert!((d.joint(1, 1) - 0.5).abs() < 1e-12);
        assert_eq!(d.joint(0, 1), 0.0);
        assert_eq!(d.joint(1, 0), 0.0);
        assert_eq!(d.samples(), 6);
    }

    #[test]
    fn joint_distribution_of_independent_series_factorizes() {
        // X alternates every instant, Y alternates every two instants: over a
        // full period of 4 the joint distribution is uniform.
        let x = bits("X", &[0, 1, 0, 1, 0, 1, 0, 1]);
        let y = bits("Y", &[0, 0, 1, 1, 0, 0, 1, 1]);
        let d = JointDistribution::estimate(&x, &y);
        for (_, _, p) in d.iter() {
            assert!((p - 0.25).abs() < 1e-12);
        }
        assert!((d.marginal_x()[0] - 0.5).abs() < 1e-12);
        assert!((d.marginal_y()[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn marginals_sum_to_one() {
        let x = bits("X", &[0, 1, 1, 1, 0, 0, 1]);
        let y = bits("Y", &[1, 1, 0, 1, 0, 1, 0]);
        let d = JointDistribution::estimate(&x, &y);
        assert!((d.marginal_x().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((d.marginal_y().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let total: f64 = d.iter().map(|(_, _, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_lookup_is_zero() {
        let x = bits("X", &[0, 1]);
        let d = JointDistribution::estimate(&x, &x);
        assert_eq!(d.joint(5, 5), 0.0);
    }

    #[test]
    fn entropy_of_uniform_and_degenerate_distributions() {
        assert!((entropy(&[0.5, 0.5]) - 1.0).abs() < 1e-12);
        assert!(entropy(&[1.0, 0.0]).abs() < 1e-12);
        assert!((entropy(&[0.25; 4]) - 2.0).abs() < 1e-12);
        assert_eq!(entropy(&[]), 0.0);
    }

    #[test]
    fn mismatched_lengths_use_shorter_prefix() {
        let x = bits("X", &[0, 1, 0, 1]);
        let y = bits("Y", &[0, 1]);
        let d = JointDistribution::estimate(&x, &y);
        assert_eq!(d.samples(), 2);
    }
}
