//! Symbolic time series and the symbolic database `D_SYB`
//! (Definitions 3.5–3.6).

use crate::error::{Error, Result};
use crate::registry::{EventRegistry, SeriesId, SymbolId};
use crate::sequence::{build_granule_sequence, SequenceDatabase, TemporalSequence};
use crate::series::TimeSeries;
use crate::symbolize::{Alphabet, Symbolizer};
use std::ops::Range;

/// A symbolic time series: the per-instant symbol encoding of one raw series.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicSeries {
    name: String,
    symbols: Vec<SymbolId>,
    alphabet: Alphabet,
}

impl SymbolicSeries {
    /// Creates a symbolic series from already-encoded symbols.
    #[must_use]
    pub fn new(name: String, symbols: Vec<SymbolId>, alphabet: Alphabet) -> Self {
        Self {
            name,
            symbols,
            alphabet,
        }
    }

    /// Builds a symbolic series directly from labels (convenient in tests and
    /// when loading pre-symbolized data such as Table II of the paper).
    ///
    /// # Errors
    /// [`Error::InvalidAlphabet`] when a label is not part of the alphabet.
    pub fn from_labels(name: &str, labels: &[&str], alphabet: Alphabet) -> Result<Self> {
        let mut symbols = Vec::with_capacity(labels.len());
        for l in labels {
            let id = alphabet.id(l).ok_or_else(|| Error::InvalidAlphabet {
                reason: format!("label `{l}` is not in the alphabet of series `{name}`"),
            })?;
            symbols.push(id);
        }
        Ok(Self::new(name.to_string(), symbols, alphabet))
    }

    /// Name of the underlying series.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The encoded symbols in chronological order.
    #[must_use]
    pub fn symbols(&self) -> &[SymbolId] {
        &self.symbols
    }

    /// The alphabet used for the encoding.
    #[must_use]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of instants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the series is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Empirical probability of each symbol (index = symbol id). Used by the
    /// mutual-information machinery of A-STPM.
    #[must_use]
    pub fn symbol_probabilities(&self) -> Vec<f64> {
        let mut counts = vec![0usize; self.alphabet.len()];
        for s in &self.symbols {
            counts[s.0 as usize] += 1;
        }
        let n = self.symbols.len().max(1) as f64;
        counts.iter().map(|c| *c as f64 / n).collect()
    }

    /// Appends encoded symbols at the tail of the series (streaming
    /// arrivals).
    pub fn append_symbols(&mut self, symbols: &[SymbolId]) {
        self.symbols.extend_from_slice(symbols);
    }

    /// Returns a copy truncated to the first `len` instants.
    #[must_use]
    pub fn truncated(&self, len: usize) -> Self {
        Self {
            name: self.name.clone(),
            symbols: self.symbols.iter().copied().take(len).collect(),
            alphabet: self.alphabet.clone(),
        }
    }
}

/// The symbolic database `D_SYB`: the symbolic representations of a set of
/// time series, all sampled at the same (finest) granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicDatabase {
    series: Vec<SymbolicSeries>,
    registry: EventRegistry,
    len: usize,
}

impl SymbolicDatabase {
    /// Builds `D_SYB` from already-symbolized series. All series must have the
    /// same length (they share the time domain).
    ///
    /// # Errors
    /// [`Error::EmptySeries`] / [`Error::LengthMismatch`].
    pub fn new(series: Vec<SymbolicSeries>) -> Result<Self> {
        let Some(first) = series.first() else {
            return Err(Error::EmptySeries {
                name: "<database>".into(),
            });
        };
        let len = first.len();
        if len == 0 {
            return Err(Error::EmptySeries {
                name: first.name().to_string(),
            });
        }
        let mut registry = EventRegistry::new();
        for s in &series {
            if s.len() != len {
                return Err(Error::LengthMismatch {
                    name: s.name().to_string(),
                    expected: len,
                    actual: s.len(),
                });
            }
            registry.register_series(s.name(), s.alphabet().labels());
        }
        Ok(Self {
            series,
            registry,
            len,
        })
    }

    /// Builds `D_SYB` by symbolizing raw series with a shared symbolizer.
    ///
    /// # Errors
    /// Propagates symbolization and validation errors.
    pub fn from_series<S: Symbolizer>(series: &[TimeSeries], symbolizer: &S) -> Result<Self> {
        let symbolic: Result<Vec<_>> = series.iter().map(|ts| symbolizer.symbolize(ts)).collect();
        Self::new(symbolic?)
    }

    /// Builds `D_SYB` from raw series, each with its own symbolizer. This is
    /// how heterogeneous datasets (appliance ON/OFF next to Low/High weather)
    /// are assembled.
    ///
    /// # Errors
    /// Propagates symbolization and validation errors; the two slices must
    /// have equal length.
    pub fn from_series_with(
        series: &[TimeSeries],
        symbolizers: &[&dyn Symbolizer],
    ) -> Result<Self> {
        if series.len() != symbolizers.len() {
            return Err(Error::LengthMismatch {
                name: "<symbolizers>".into(),
                expected: series.len(),
                actual: symbolizers.len(),
            });
        }
        let symbolic: Result<Vec<_>> = series
            .iter()
            .zip(symbolizers)
            .map(|(ts, sym)| sym.symbolize(ts))
            .collect();
        Self::new(symbolic?)
    }

    /// Number of series in the database.
    #[must_use]
    pub fn num_series(&self) -> usize {
        self.series.len()
    }

    /// Number of time instants (shared by all series).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the database holds no instants.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The symbolic series.
    #[must_use]
    pub fn series(&self) -> &[SymbolicSeries] {
        &self.series
    }

    /// One series by id.
    #[must_use]
    pub fn series_by_id(&self, id: SeriesId) -> Option<&SymbolicSeries> {
        self.series.get(id.0 as usize)
    }

    /// The registry mapping events to readable names.
    #[must_use]
    pub fn registry(&self) -> &EventRegistry {
        &self.registry
    }

    /// Keeps only the selected series (by id), preserving their original ids
    /// in a fresh database. Used by A-STPM to mine only correlated series.
    ///
    /// # Errors
    /// [`Error::UnknownSeries`] when an id is out of range,
    /// [`Error::EmptySeries`] when the selection is empty.
    pub fn project(&self, keep: &[SeriesId]) -> Result<Self> {
        let mut selected = Vec::with_capacity(keep.len());
        for id in keep {
            let s = self.series_by_id(*id).ok_or_else(|| Error::UnknownSeries {
                name: format!("series id {}", id.0),
            })?;
            selected.push(s.clone());
        }
        Self::new(selected)
    }

    /// Converts `D_SYB` into a temporal sequence database `D_SEQ` by applying
    /// the sequence mapping `g : X_S →_m H` with factor `m` (Definition 3.9).
    ///
    /// # Errors
    /// [`Error::InvalidGranularity`] when `m == 0` or `m` exceeds the series
    /// length.
    pub fn to_sequence_database(&self, m: u64) -> Result<SequenceDatabase> {
        SequenceDatabase::from_symbolic(self, m)
    }

    /// Builds the temporal sequences of the 0-based granules `granules`
    /// under the sequence mapping with factor `m` (Definition 3.9): granule
    /// `g` covers instants `g·m + 1 ..= (g + 1)·m` and becomes the sequence
    /// at position `g + 1`. This is the one granule builder: the batch build
    /// ([`SequenceDatabase::from_symbolic`]) and every streaming append go
    /// through it, so a granule built in any range is bit-identical to a
    /// batch-built one.
    ///
    /// # Errors
    /// [`Error::InvalidGranularity`] when `m == 0` or the range reaches past
    /// the last complete granule.
    pub fn granule_sequences(&self, m: u64, granules: Range<u64>) -> Result<Vec<TemporalSequence>> {
        if m == 0 {
            return Err(Error::InvalidGranularity {
                reason: "the sequence-mapping factor m must be at least 1".into(),
            });
        }
        let complete = self.len() as u64 / m;
        if granules.end > complete {
            return Err(Error::InvalidGranularity {
                reason: format!(
                    "granule {} is requested but only {complete} complete granules of m={m} \
                     instants fit",
                    granules.end
                ),
            });
        }
        Ok(granules
            .map(|g| build_granule_sequence(self, m, g))
            .collect())
    }

    /// Truncates every series to the first `len` instants (used by the
    /// scalability experiments that vary the number of sequences).
    ///
    /// # Errors
    /// [`Error::EmptySeries`] when `len == 0`.
    pub fn truncated(&self, len: usize) -> Result<Self> {
        Self::new(self.series.iter().map(|s| s.truncated(len)).collect())
    }

    /// Appends a batch of newly-arrived instants: `batch` must hold the same
    /// series (same names, same order, same alphabets) over the new time
    /// window. Only the new samples are touched — the existing encoding is
    /// never revisited, which is what keeps streaming symbolization
    /// prefix-stable for pointwise symbolizers.
    ///
    /// # Errors
    /// [`Error::AppendMismatch`] when the batch's series set or alphabets
    /// differ from this database's.
    pub fn append_batch(&mut self, batch: &SymbolicDatabase) -> Result<()> {
        if batch.num_series() != self.num_series() {
            return Err(Error::AppendMismatch {
                reason: format!(
                    "batch has {} series, database has {}",
                    batch.num_series(),
                    self.num_series()
                ),
            });
        }
        for (mine, theirs) in self.series.iter().zip(batch.series()) {
            if mine.name() != theirs.name() {
                return Err(Error::AppendMismatch {
                    reason: format!(
                        "series order diverged: `{}` vs `{}`",
                        mine.name(),
                        theirs.name()
                    ),
                });
            }
            if mine.alphabet() != theirs.alphabet() {
                return Err(Error::AppendMismatch {
                    reason: format!("series `{}` changed its alphabet", mine.name()),
                });
            }
        }
        for (mine, theirs) in self.series.iter_mut().zip(batch.series()) {
            mine.append_symbols(theirs.symbols());
        }
        self.len += batch.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolize::Alphabet;

    fn binary_alphabet() -> Alphabet {
        Alphabet::from_strs(&["0", "1"]).unwrap()
    }

    fn series(name: &str, bits: &[u8]) -> SymbolicSeries {
        SymbolicSeries::new(
            name.to_string(),
            bits.iter().map(|b| SymbolId(u16::from(*b))).collect(),
            binary_alphabet(),
        )
    }

    #[test]
    fn from_labels_round_trip() {
        let s = SymbolicSeries::from_labels("C", &["1", "1", "0"], binary_alphabet()).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.symbols()[0], SymbolId(1));
        assert_eq!(s.symbols()[2], SymbolId(0));
        assert!(SymbolicSeries::from_labels("C", &["2"], binary_alphabet()).is_err());
    }

    #[test]
    fn symbol_probabilities_sum_to_one() {
        let s = series("C", &[1, 1, 0, 1]);
        let p = s.symbol_probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((p[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn database_validates_lengths() {
        let ok = SymbolicDatabase::new(vec![series("C", &[1, 0, 1]), series("D", &[0, 0, 1])]);
        assert!(ok.is_ok());
        let bad = SymbolicDatabase::new(vec![series("C", &[1, 0, 1]), series("D", &[0, 0])]);
        assert!(matches!(bad, Err(Error::LengthMismatch { .. })));
        assert!(SymbolicDatabase::new(vec![]).is_err());
        assert!(SymbolicDatabase::new(vec![series("C", &[])]).is_err());
    }

    #[test]
    fn database_lookup_by_id() {
        let db =
            SymbolicDatabase::new(vec![series("C", &[1, 0, 1]), series("D", &[0, 0, 1])]).unwrap();
        assert_eq!(db.num_series(), 2);
        assert_eq!(db.len(), 3);
        assert!(!db.is_empty());
        assert_eq!(db.series_by_id(SeriesId(0)).unwrap().name(), "C");
        assert!(db.series_by_id(SeriesId(7)).is_none());
        assert_eq!(db.registry().num_events(), 4);
    }

    #[test]
    fn projection_keeps_selected_series() {
        let db = SymbolicDatabase::new(vec![
            series("C", &[1, 0, 1]),
            series("D", &[0, 0, 1]),
            series("F", &[1, 1, 1]),
        ])
        .unwrap();
        let projected = db.project(&[SeriesId(0), SeriesId(2)]).unwrap();
        assert_eq!(projected.num_series(), 2);
        assert_eq!(projected.series()[1].name(), "F");
        assert!(db.project(&[SeriesId(9)]).is_err());
        assert!(db.project(&[]).is_err());
    }

    #[test]
    fn truncation_shortens_all_series() {
        let db =
            SymbolicDatabase::new(vec![series("C", &[1, 0, 1, 1]), series("D", &[0, 0, 1, 0])])
                .unwrap();
        let t = db.truncated(2).unwrap();
        assert_eq!(t.len(), 2);
        assert!(db.truncated(0).is_err());
    }

    #[test]
    fn append_batch_extends_every_series() {
        let mut db =
            SymbolicDatabase::new(vec![series("C", &[1, 0, 1]), series("D", &[0, 0, 1])]).unwrap();
        let batch =
            SymbolicDatabase::new(vec![series("C", &[0, 1]), series("D", &[1, 1])]).unwrap();
        db.append_batch(&batch).unwrap();
        assert_eq!(db.len(), 5);
        assert_eq!(db.series()[0].symbols().len(), 5);
        assert_eq!(db.series()[0].symbols()[3], SymbolId(0));
        assert_eq!(db.series()[1].symbols()[4], SymbolId(1));
        // The appended database equals the one built in one shot.
        let full = SymbolicDatabase::new(vec![
            series("C", &[1, 0, 1, 0, 1]),
            series("D", &[0, 0, 1, 1, 1]),
        ])
        .unwrap();
        assert_eq!(db, full);
    }

    #[test]
    fn append_batch_rejects_mismatched_batches() {
        let mut db =
            SymbolicDatabase::new(vec![series("C", &[1, 0, 1]), series("D", &[0, 0, 1])]).unwrap();
        // Wrong series count.
        let wrong_count = SymbolicDatabase::new(vec![series("C", &[1])]).unwrap();
        assert!(matches!(
            db.append_batch(&wrong_count),
            Err(Error::AppendMismatch { .. })
        ));
        // Wrong series order/name.
        let wrong_order =
            SymbolicDatabase::new(vec![series("D", &[1]), series("C", &[1])]).unwrap();
        assert!(matches!(
            db.append_batch(&wrong_order),
            Err(Error::AppendMismatch { .. })
        ));
        // Changed alphabet.
        let fat_alphabet = Alphabet::from_strs(&["0", "1", "2"]).unwrap();
        let changed = SymbolicDatabase::new(vec![
            SymbolicSeries::new("C".into(), vec![SymbolId(2)], fat_alphabet.clone()),
            SymbolicSeries::new("D".into(), vec![SymbolId(0)], fat_alphabet),
        ])
        .unwrap();
        assert!(matches!(
            db.append_batch(&changed),
            Err(Error::AppendMismatch { .. })
        ));
        // The failed appends left the database untouched.
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn from_series_applies_symbolizer() {
        use crate::symbolize::ThresholdSymbolizer;
        let raw = vec![
            TimeSeries::new("C", vec![1.82, 1.25, 0.0]),
            TimeSeries::new("D", vec![0.0, 2.0, 0.0]),
        ];
        let sym = ThresholdSymbolizer::binary(0.5, "0", "1");
        let db = SymbolicDatabase::from_series(&raw, &sym).unwrap();
        assert_eq!(db.num_series(), 2);
        assert_eq!(db.series()[0].symbols()[0], SymbolId(1));
        assert_eq!(db.series()[1].symbols()[0], SymbolId(0));
    }

    #[test]
    fn from_series_with_mismatched_symbolizers_fails() {
        use crate::symbolize::ThresholdSymbolizer;
        let raw = vec![TimeSeries::new("C", vec![1.0])];
        let sym = ThresholdSymbolizer::binary(0.5, "0", "1");
        let result = SymbolicDatabase::from_series_with(&raw, &[&sym, &sym]);
        assert!(result.is_err());
    }
}
