//! Symbolic representation of time series (Definition 3.5, second half).
//!
//! A [`Symbolizer`] maps each raw value of a [`TimeSeries`] into a symbol of
//! a finite [`Alphabet`], producing a [`SymbolicSeries`]. The paper uses SAX
//! (its citation \[41\]) as the reference technique; this module additionally
//! provides the threshold, equal-width and quantile encoders that the paper's
//! application examples (ON/OFF appliances, Low/High temperature, …) rely on.

use crate::error::{Error, Result};
use crate::registry::SymbolId;
use crate::series::TimeSeries;
use crate::symbolic::SymbolicSeries;

/// The finite, ordered set of symbols a series may be encoded with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alphabet {
    labels: Vec<String>,
}

impl Alphabet {
    /// Creates an alphabet from symbol labels.
    ///
    /// # Errors
    /// [`Error::InvalidAlphabet`] when fewer than one label is given or
    /// labels are duplicated.
    pub fn new(labels: Vec<String>) -> Result<Self> {
        if labels.is_empty() {
            return Err(Error::InvalidAlphabet {
                reason: "alphabet must contain at least one symbol".into(),
            });
        }
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        if dedup.len() != labels.len() {
            return Err(Error::InvalidAlphabet {
                reason: "alphabet labels must be distinct".into(),
            });
        }
        Ok(Self { labels })
    }

    /// Convenience constructor from string slices.
    ///
    /// # Errors
    /// Same as [`Alphabet::new`].
    pub fn from_strs(labels: &[&str]) -> Result<Self> {
        Self::new(labels.iter().map(|s| (*s).to_string()).collect())
    }

    /// Number of symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the alphabet is empty (never true for a validated alphabet).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The symbol labels in order.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Label of a symbol id.
    #[must_use]
    pub fn label(&self, id: SymbolId) -> Option<&str> {
        self.labels.get(id.0 as usize).map(String::as_str)
    }

    /// Id of a label.
    #[must_use]
    pub fn id(&self, label: &str) -> Option<SymbolId> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| SymbolId(u16::try_from(i).expect("alphabet fits u16")))
    }
}

/// Maps raw values to symbols, turning a [`TimeSeries`] into a
/// [`SymbolicSeries`] with the same granularity.
pub trait Symbolizer {
    /// The alphabet this symbolizer encodes into.
    fn alphabet(&self) -> &Alphabet;

    /// Encodes a single value. Implementations may use series-level context
    /// captured at construction time (e.g. SAX breakpoints).
    fn encode_value(&self, value: f64) -> SymbolId;

    /// Encodes a whole series.
    ///
    /// # Errors
    /// [`Error::EmptySeries`] / [`Error::NonFiniteValue`] when the input is
    /// not a valid series.
    fn symbolize(&self, series: &TimeSeries) -> Result<SymbolicSeries> {
        series.validate()?;
        let symbols = series
            .values()
            .iter()
            .map(|v| self.encode_value(*v))
            .collect();
        Ok(SymbolicSeries::new(
            series.name().to_string(),
            symbols,
            self.alphabet().clone(),
        ))
    }
}

/// Threshold-based symbolizer: the value range is split by explicit
/// breakpoints into `breakpoints.len() + 1` buckets, one symbol per bucket.
///
/// This is the encoder used for the appliance ON/OFF example of Table II and
/// for the Low/Medium/High weather events in the evaluation datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdSymbolizer {
    breakpoints: Vec<f64>,
    alphabet: Alphabet,
}

impl ThresholdSymbolizer {
    /// Creates a symbolizer from ascending breakpoints and bucket labels
    /// (`labels.len()` must equal `breakpoints.len() + 1`).
    ///
    /// # Errors
    /// [`Error::InvalidAlphabet`] when the sizes disagree or breakpoints are
    /// not strictly ascending.
    pub fn new(breakpoints: Vec<f64>, labels: &[&str]) -> Result<Self> {
        if labels.len() != breakpoints.len() + 1 {
            return Err(Error::InvalidAlphabet {
                reason: format!(
                    "expected {} labels for {} breakpoints, got {}",
                    breakpoints.len() + 1,
                    breakpoints.len(),
                    labels.len()
                ),
            });
        }
        if breakpoints.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::InvalidAlphabet {
                reason: "breakpoints must be strictly ascending".into(),
            });
        }
        Ok(Self {
            breakpoints,
            alphabet: Alphabet::from_strs(labels)?,
        })
    }

    /// Binary ON/OFF style symbolizer: values `< threshold` map to `low`,
    /// values `>= threshold` map to `high`.
    #[must_use]
    pub fn binary(threshold: f64, low: &str, high: &str) -> Self {
        Self::new(vec![threshold], &[low, high]).expect("two labels, one breakpoint")
    }
}

impl Symbolizer for ThresholdSymbolizer {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn encode_value(&self, value: f64) -> SymbolId {
        let bucket = self
            .breakpoints
            .iter()
            .position(|b| value < *b)
            .unwrap_or(self.breakpoints.len());
        SymbolId(u16::try_from(bucket).expect("bucket fits u16"))
    }
}

/// Equal-width binning over `[min, max]` of the series being encoded.
#[derive(Debug, Clone, PartialEq)]
pub struct EqualWidthSymbolizer {
    min: f64,
    max: f64,
    alphabet: Alphabet,
}

impl EqualWidthSymbolizer {
    /// Creates an equal-width encoder over `[min, max]` with the given bucket
    /// labels.
    ///
    /// # Errors
    /// [`Error::InvalidAlphabet`] when `min >= max` or there are no labels.
    pub fn new(min: f64, max: f64, labels: &[&str]) -> Result<Self> {
        if min >= max {
            return Err(Error::InvalidAlphabet {
                reason: "equal-width range must satisfy min < max".into(),
            });
        }
        Ok(Self {
            min,
            max,
            alphabet: Alphabet::from_strs(labels)?,
        })
    }

    /// Fits the range from a series and labels buckets `b0..b{n-1}`.
    ///
    /// # Errors
    /// Propagates validation errors; constant series are widened by ±0.5.
    pub fn fit(series: &TimeSeries, num_buckets: usize) -> Result<Self> {
        series.validate()?;
        let mut min = series.min().expect("validated series has a min");
        let mut max = series.max().expect("validated series has a max");
        if (max - min).abs() < f64::EPSILON {
            min -= 0.5;
            max += 0.5;
        }
        let labels: Vec<String> = (0..num_buckets).map(|i| format!("b{i}")).collect();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        Self::new(min, max, &refs)
    }
}

impl Symbolizer for EqualWidthSymbolizer {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn encode_value(&self, value: f64) -> SymbolId {
        let n = self.alphabet.len();
        let width = (self.max - self.min) / n as f64;
        let clamped = value.clamp(self.min, self.max);
        let mut bucket = ((clamped - self.min) / width).floor() as usize;
        if bucket >= n {
            bucket = n - 1;
        }
        SymbolId(u16::try_from(bucket).expect("bucket fits u16"))
    }
}

/// Quantile-based symbolizer: breakpoints are placed at empirical quantiles of
/// a reference series so that buckets are (approximately) equi-probable.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSymbolizer {
    breakpoints: Vec<f64>,
    alphabet: Alphabet,
}

impl QuantileSymbolizer {
    /// Fits quantile breakpoints from `series` for `labels.len()` buckets.
    ///
    /// # Errors
    /// Propagates validation errors and invalid alphabets.
    pub fn fit(series: &TimeSeries, labels: &[&str]) -> Result<Self> {
        series.validate()?;
        let alphabet = Alphabet::from_strs(labels)?;
        let mut sorted: Vec<f64> = series.values().to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("validated values are comparable"));
        let n = alphabet.len();
        let mut breakpoints = Vec::with_capacity(n.saturating_sub(1));
        for k in 1..n {
            let q = k as f64 / n as f64;
            let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
            breakpoints.push(sorted[idx]);
        }
        // Collapse duplicate breakpoints (can happen with heavily repeated
        // values); encode_value handles the degenerate buckets gracefully.
        Ok(Self {
            breakpoints,
            alphabet,
        })
    }
}

impl Symbolizer for QuantileSymbolizer {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn encode_value(&self, value: f64) -> SymbolId {
        let bucket = self
            .breakpoints
            .iter()
            .position(|b| value < *b)
            .unwrap_or(self.breakpoints.len());
        SymbolId(u16::try_from(bucket).expect("bucket fits u16"))
    }
}

/// SAX (Symbolic Aggregate approXimation, Lin et al., the paper's
/// reference \[41\]) symbolizer.
///
/// Values are z-normalised with the mean / standard deviation captured at fit
/// time and bucketed with breakpoints taken from the standard normal
/// distribution so that each symbol is equi-probable under a Gaussian
/// assumption. The per-value (PAA window = 1) variant is used because the
/// sequence mapping of Definition 3.9 already performs temporal aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct SaxSymbolizer {
    mean: f64,
    std_dev: f64,
    breakpoints: Vec<f64>,
    alphabet: Alphabet,
}

impl SaxSymbolizer {
    /// Gaussian breakpoints for alphabet sizes 2..=10 (standard SAX table).
    fn gaussian_breakpoints(size: usize) -> Option<Vec<f64>> {
        let table: &[&[f64]] = &[
            &[0.0],
            &[-0.43, 0.43],
            &[-0.67, 0.0, 0.67],
            &[-0.84, -0.25, 0.25, 0.84],
            &[-0.97, -0.43, 0.0, 0.43, 0.97],
            &[-1.07, -0.57, -0.18, 0.18, 0.57, 1.07],
            &[-1.15, -0.67, -0.32, 0.0, 0.32, 0.67, 1.15],
            &[-1.22, -0.76, -0.43, -0.14, 0.14, 0.43, 0.76, 1.22],
            &[-1.28, -0.84, -0.52, -0.25, 0.0, 0.25, 0.52, 0.84, 1.28],
        ];
        if (2..=10).contains(&size) {
            Some(table[size - 2].to_vec())
        } else {
            None
        }
    }

    /// Fits a SAX encoder to `series` with an alphabet of `alphabet_size`
    /// symbols labelled `a`, `b`, `c`, …
    ///
    /// # Errors
    /// [`Error::InvalidAlphabet`] when the alphabet size is outside `2..=10`,
    /// plus series-validation errors.
    pub fn fit(series: &TimeSeries, alphabet_size: usize) -> Result<Self> {
        series.validate()?;
        let breakpoints =
            Self::gaussian_breakpoints(alphabet_size).ok_or_else(|| Error::InvalidAlphabet {
                reason: format!("SAX alphabet size must be in 2..=10, got {alphabet_size}"),
            })?;
        let labels: Vec<String> = (0..alphabet_size)
            .map(|i| {
                char::from_u32('a' as u32 + u32::try_from(i).expect("small alphabet"))
                    .expect("ascii letter")
                    .to_string()
            })
            .collect();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let mean = series.mean().expect("validated series has a mean");
        let std_dev = series.std_dev().expect("validated series has a std dev");
        Ok(Self {
            mean,
            std_dev: if std_dev > f64::EPSILON { std_dev } else { 1.0 },
            breakpoints,
            alphabet: Alphabet::from_strs(&refs)?,
        })
    }
}

impl Symbolizer for SaxSymbolizer {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn encode_value(&self, value: f64) -> SymbolId {
        let z = (value - self.mean) / self.std_dev;
        let bucket = self
            .breakpoints
            .iter()
            .position(|b| z < *b)
            .unwrap_or(self.breakpoints.len());
        SymbolId(u16::try_from(bucket).expect("bucket fits u16"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_validation() {
        assert!(Alphabet::from_strs(&[]).is_err());
        assert!(Alphabet::from_strs(&["a", "a"]).is_err());
        let a = Alphabet::from_strs(&["Low", "High"]).unwrap();
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(a.label(SymbolId(1)), Some("High"));
        assert_eq!(a.id("Low"), Some(SymbolId(0)));
        assert_eq!(a.id("Nope"), None);
        assert_eq!(a.labels().len(), 2);
    }

    #[test]
    fn threshold_binary_matches_paper_example() {
        // X = 1.82, 1.25, 0.46, 0.0 with ON/OFF encoding yields 1,1,1,0
        // using the paper's implied threshold semantics (non-zero usage = ON).
        let sym = ThresholdSymbolizer::binary(0.1, "0", "1");
        let ts = TimeSeries::new("X", vec![1.82, 1.25, 0.46, 0.0]);
        let s = sym.symbolize(&ts).unwrap();
        let labels: Vec<&str> = s
            .symbols()
            .iter()
            .map(|id| sym.alphabet().label(*id).unwrap())
            .collect();
        assert_eq!(labels, vec!["1", "1", "1", "0"]);
    }

    #[test]
    fn threshold_validation() {
        assert!(ThresholdSymbolizer::new(vec![1.0, 1.0], &["a", "b", "c"]).is_err());
        assert!(ThresholdSymbolizer::new(vec![1.0], &["a", "b", "c"]).is_err());
        assert!(ThresholdSymbolizer::new(vec![1.0, 2.0], &["a", "b", "c"]).is_ok());
    }

    #[test]
    fn three_level_threshold_buckets() {
        let sym = ThresholdSymbolizer::new(vec![10.0, 25.0], &["Low", "Medium", "High"]).unwrap();
        assert_eq!(sym.alphabet().label(sym.encode_value(5.0)), Some("Low"));
        assert_eq!(sym.alphabet().label(sym.encode_value(15.0)), Some("Medium"));
        assert_eq!(sym.alphabet().label(sym.encode_value(30.0)), Some("High"));
        // Boundary values land in the upper bucket (value < breakpoint test).
        assert_eq!(sym.alphabet().label(sym.encode_value(10.0)), Some("Medium"));
        assert_eq!(sym.alphabet().label(sym.encode_value(25.0)), Some("High"));
    }

    #[test]
    fn equal_width_covers_range() {
        let ts = TimeSeries::new("E", vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let sym = EqualWidthSymbolizer::fit(&ts, 5).unwrap();
        assert_eq!(sym.alphabet().len(), 5);
        assert_eq!(sym.encode_value(0.0), SymbolId(0));
        assert_eq!(sym.encode_value(9.0), SymbolId(4));
        assert_eq!(sym.encode_value(100.0), SymbolId(4));
        assert_eq!(sym.encode_value(-5.0), SymbolId(0));
    }

    #[test]
    fn equal_width_constant_series_is_handled() {
        let ts = TimeSeries::new("K", vec![5.0; 8]);
        let sym = EqualWidthSymbolizer::fit(&ts, 3).unwrap();
        let s = sym.symbolize(&ts).unwrap();
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn equal_width_rejects_bad_range() {
        assert!(EqualWidthSymbolizer::new(3.0, 3.0, &["a"]).is_err());
        assert!(EqualWidthSymbolizer::new(5.0, 3.0, &["a"]).is_err());
    }

    #[test]
    fn quantile_buckets_are_balanced() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let ts = TimeSeries::new("Q", values);
        let sym = QuantileSymbolizer::fit(&ts, &["Low", "Medium", "High", "VeryHigh"]).unwrap();
        let s = sym.symbolize(&ts).unwrap();
        let mut counts = [0usize; 4];
        for id in s.symbols() {
            counts[id.0 as usize] += 1;
        }
        // Each quartile bucket should hold roughly 25 of the 100 values.
        for c in counts {
            assert!((20..=30).contains(&c), "unbalanced bucket: {counts:?}");
        }
    }

    #[test]
    fn sax_alphabet_size_bounds() {
        let ts = TimeSeries::new("S", vec![0.0, 1.0, 2.0, 3.0]);
        assert!(SaxSymbolizer::fit(&ts, 1).is_err());
        assert!(SaxSymbolizer::fit(&ts, 11).is_err());
        assert!(SaxSymbolizer::fit(&ts, 2).is_ok());
        assert!(SaxSymbolizer::fit(&ts, 10).is_ok());
    }

    #[test]
    fn sax_is_roughly_equiprobable_on_gaussian_like_data() {
        // A symmetric ramp has roughly uniform quantiles; SAX with alphabet 2
        // splits it at the mean.
        let values: Vec<f64> = (0..1000).map(|i| f64::from(i) / 100.0).collect();
        let ts = TimeSeries::new("G", values);
        let sym = SaxSymbolizer::fit(&ts, 2).unwrap();
        let s = sym.symbolize(&ts).unwrap();
        let ones = s.symbols().iter().filter(|id| id.0 == 1).count();
        assert!((400..=600).contains(&ones));
    }

    #[test]
    fn sax_constant_series_does_not_panic() {
        let ts = TimeSeries::new("K", vec![2.0; 16]);
        let sym = SaxSymbolizer::fit(&ts, 4).unwrap();
        let s = sym.symbolize(&ts).unwrap();
        assert_eq!(s.len(), 16);
    }

    #[test]
    fn symbolize_rejects_invalid_series() {
        let sym = ThresholdSymbolizer::binary(0.5, "0", "1");
        assert!(sym.symbolize(&TimeSeries::new("E", vec![])).is_err());
        assert!(sym
            .symbolize(&TimeSeries::new("N", vec![1.0, f64::NAN]))
            .is_err());
    }
}
