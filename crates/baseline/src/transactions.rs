//! Transactional view of a temporal sequence database.
//!
//! PS-growth operates on a transactional database: transaction `t_i` is the
//! set of distinct events occurring in granule `H_i` of `D_SEQ`. The temporal
//! detail (instances and their intervals) is deliberately dropped here — it
//! is recovered in phase 2 of APS-growth by re-scanning `D_SEQ`.

use stpm_timeseries::{EventLabel, GranulePos, SequenceDatabase};

/// A transactional database: one sorted item list per granule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionDb {
    transactions: Vec<(GranulePos, Vec<EventLabel>)>,
}

impl TransactionDb {
    /// Builds the transactional view of `dseq`.
    #[must_use]
    pub fn from_sequences(dseq: &SequenceDatabase) -> Self {
        let transactions = dseq
            .sequences()
            .iter()
            .map(|seq| (seq.granule(), seq.distinct_events()))
            .collect();
        Self { transactions }
    }

    /// Builds a transactional database directly from item lists (1-based
    /// granule positions are assigned sequentially). Convenient in tests.
    #[must_use]
    pub fn from_items(items: Vec<Vec<EventLabel>>) -> Self {
        let transactions = items
            .into_iter()
            .enumerate()
            .map(|(i, mut t)| {
                t.sort_unstable();
                t.dedup();
                (i as GranulePos + 1, t)
            })
            .collect();
        Self { transactions }
    }

    /// Number of transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the database holds no transactions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// The transactions as `(granule, items)` pairs.
    #[must_use]
    pub fn transactions(&self) -> &[(GranulePos, Vec<EventLabel>)] {
        &self.transactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stpm_timeseries::{Alphabet, SeriesId, SymbolId, SymbolicDatabase, SymbolicSeries};

    fn label(series: u32, symbol: u16) -> EventLabel {
        EventLabel::new(SeriesId(series), SymbolId(symbol))
    }

    #[test]
    fn from_sequences_builds_one_transaction_per_granule() {
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        let c = SymbolicSeries::from_labels("C", &["1", "1", "0", "0", "0", "0"], alphabet.clone())
            .unwrap();
        let d =
            SymbolicSeries::from_labels("D", &["1", "0", "0", "1", "1", "1"], alphabet).unwrap();
        let dseq = SymbolicDatabase::new(vec![c, d])
            .unwrap()
            .to_sequence_database(3)
            .unwrap();
        let db = TransactionDb::from_sequences(&dseq);
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
        // Granule 1 holds C:1, C:0, D:1, D:0.
        assert_eq!(db.transactions()[0].1.len(), 4);
        // Granule 2 holds C:0 and D:1 only.
        assert_eq!(db.transactions()[1].1, vec![label(0, 0), label(1, 1)]);
    }

    #[test]
    fn from_items_sorts_and_dedups() {
        let db = TransactionDb::from_items(vec![
            vec![label(1, 0), label(0, 0), label(1, 0)],
            vec![label(0, 0)],
        ]);
        assert_eq!(db.transactions()[0].1, vec![label(0, 0), label(1, 0)]);
        assert_eq!(db.transactions()[0].0, 1);
        assert_eq!(db.transactions()[1].0, 2);
    }
}
