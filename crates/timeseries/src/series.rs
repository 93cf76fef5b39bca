//! Raw numeric time series (Definition 3.5).

use crate::error::{Error, Result};

/// A univariate time series: chronologically ordered measurements of a single
/// phenomenon, sampled at every instant of the finest granularity `G`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a time series from raw observations.
    #[must_use]
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            values,
        }
    }

    /// Name of the measured phenomenon (e.g. `"Cooker"`, `"Temperature"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The raw observations in chronological order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Validates the series: it must be non-empty and contain only finite
    /// values.
    ///
    /// # Errors
    /// [`Error::EmptySeries`] or [`Error::NonFiniteValue`].
    pub fn validate(&self) -> Result<()> {
        if self.values.is_empty() {
            return Err(Error::EmptySeries {
                name: self.name.clone(),
            });
        }
        if let Some(idx) = self.values.iter().position(|v| !v.is_finite()) {
            return Err(Error::NonFiniteValue {
                series: self.name.clone(),
                index: idx,
            });
        }
        Ok(())
    }

    /// Minimum observation (NaNs ignored); `None` for an empty series.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.values
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Maximum observation (NaNs ignored); `None` for an empty series.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.values
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Arithmetic mean of the observations; `None` for an empty series.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Population standard deviation; `None` for an empty series.
    #[must_use]
    pub fn std_dev(&self) -> Option<f64> {
        let mean = self.mean()?;
        let var = self
            .values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / self.values.len() as f64;
        Some(var.sqrt())
    }

    /// Returns a copy truncated to the first `len` observations.
    #[must_use]
    pub fn truncated(&self, len: usize) -> Self {
        Self {
            name: self.name.clone(),
            values: self.values.iter().copied().take(len).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let ts = TimeSeries::new("C", vec![1.0, 2.0, 3.0]);
        assert_eq!(ts.name(), "C");
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
        assert_eq!(ts.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn validation_catches_empty_and_nan() {
        assert!(TimeSeries::new("E", vec![]).validate().is_err());
        assert!(TimeSeries::new("N", vec![1.0, f64::NAN])
            .validate()
            .is_err());
        assert!(TimeSeries::new("I", vec![1.0, f64::INFINITY])
            .validate()
            .is_err());
        assert!(TimeSeries::new("OK", vec![1.0, 2.0]).validate().is_ok());
    }

    #[test]
    fn summary_statistics() {
        let ts = TimeSeries::new("S", vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(ts.min(), Some(2.0));
        assert_eq!(ts.max(), Some(9.0));
        assert!((ts.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((ts.std_dev().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn statistics_of_empty_series_are_none() {
        let ts = TimeSeries::new("E", vec![]);
        assert_eq!(ts.min(), None);
        assert_eq!(ts.max(), None);
        assert_eq!(ts.mean(), None);
        assert_eq!(ts.std_dev(), None);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let ts = TimeSeries::new("T", vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ts.truncated(2).values(), &[1.0, 2.0]);
        assert_eq!(ts.truncated(10).len(), 4);
    }
}
