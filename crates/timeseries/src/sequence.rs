//! Temporal sequences and the temporal sequence database `D_SEQ`
//! (Definitions 3.9–3.11).
//!
//! The sequence mapping `g : X_S →_m H` groups `m` adjacent symbols of a
//! symbolic series into one granule of the coarser granularity `H`; within a
//! granule, runs of identical symbols become event instances
//! `e = (ω, [ts, te])`. The database row for granule `H_i` gathers the
//! instances of *all* series in that granule (Table IV of the paper).

use crate::error::{Error, Result};
use crate::granularity::GranulePos;
use crate::interval::Interval;
use crate::registry::{EventLabel, EventRegistry, SeriesId};
use crate::symbolic::SymbolicDatabase;
use std::collections::BTreeSet;

/// A single occurrence of a temporal event: the event label plus the closed
/// interval of finest-granularity granule positions during which it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventInstance {
    /// Which event (series, symbol) occurred.
    pub label: EventLabel,
    /// When it occurred, in finest-granularity positions (1-based, inclusive).
    pub interval: Interval,
}

impl EventInstance {
    /// Creates an event instance.
    #[must_use]
    pub fn new(label: EventLabel, interval: Interval) -> Self {
        Self { label, interval }
    }
}

/// The temporal sequence of one granule of `H`: every event instance (from
/// every series) that occurs inside the granule, ordered chronologically by
/// start time (ties broken by end time, then label).
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalSequence {
    granule: GranulePos,
    instances: Vec<EventInstance>,
}

impl TemporalSequence {
    /// Creates a sequence for granule `granule` (1-based position in `H`),
    /// sorting the instances chronologically.
    #[must_use]
    pub fn new(granule: GranulePos, mut instances: Vec<EventInstance>) -> Self {
        instances.sort_by_key(|e| (e.interval.start, e.interval.end, e.label));
        Self { granule, instances }
    }

    /// Position of the granule in `H` (1-based).
    #[must_use]
    pub fn granule(&self) -> GranulePos {
        self.granule
    }

    /// The event instances in chronological order.
    #[must_use]
    pub fn instances(&self) -> &[EventInstance] {
        &self.instances
    }

    /// Number of event instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the sequence holds no instances.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// All instances of one event label within this sequence.
    pub fn instances_of(&self, label: EventLabel) -> impl Iterator<Item = &EventInstance> {
        self.instances.iter().filter(move |e| e.label == label)
    }

    /// Whether the event occurs at least once in this sequence.
    #[must_use]
    pub fn contains_event(&self, label: EventLabel) -> bool {
        self.instances.iter().any(|e| e.label == label)
    }

    /// The distinct event labels occurring in this sequence.
    #[must_use]
    pub fn distinct_events(&self) -> Vec<EventLabel> {
        let set: BTreeSet<EventLabel> = self.instances.iter().map(|e| e.label).collect();
        set.into_iter().collect()
    }
}

/// The temporal sequence database `D_SEQ`: one [`TemporalSequence`] per
/// granule of the chosen granularity `H`, plus the registry needed to print
/// events back in `series:symbol` form.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceDatabase {
    sequences: Vec<TemporalSequence>,
    registry: EventRegistry,
    /// The mapping factor `m` of `g : X_S →_m H`.
    m: u64,
    num_series: usize,
}

impl SequenceDatabase {
    /// Applies the sequence mapping `g : X_S →_m H` to every series of
    /// `D_SYB` (Definition 3.11). The trailing instants that do not fill a
    /// complete granule are dropped, keeping the partitioning equal.
    ///
    /// # Errors
    /// [`Error::InvalidGranularity`] when `m` is zero or exceeds the series
    /// length.
    pub fn from_symbolic(db: &SymbolicDatabase, m: u64) -> Result<Self> {
        if m == 0 {
            return Err(Error::InvalidGranularity {
                reason: "the sequence-mapping factor m must be at least 1".into(),
            });
        }
        let len = db.len() as u64;
        let num_granules = len / m;
        if num_granules == 0 {
            return Err(Error::InvalidGranularity {
                reason: format!(
                    "the mapping factor m={m} exceeds the series length {len}; no granule fits"
                ),
            });
        }
        Ok(Self {
            sequences: db.granule_sequences(m, 0..num_granules)?,
            registry: db.registry().clone(),
            m,
            num_series: db.num_series(),
        })
    }

    /// Number of granules (= rows of `D_SEQ`).
    #[must_use]
    pub fn num_granules(&self) -> u64 {
        self.sequences.len() as u64
    }

    /// Number of series the database was built from.
    #[must_use]
    pub fn num_series(&self) -> usize {
        self.num_series
    }

    /// The mapping factor `m` used to build the database.
    #[must_use]
    pub fn mapping_factor(&self) -> u64 {
        self.m
    }

    /// The temporal sequences, ordered by granule position.
    #[must_use]
    pub fn sequences(&self) -> &[TemporalSequence] {
        &self.sequences
    }

    /// The sequence of granule `pos` (1-based), if it exists.
    #[must_use]
    pub fn sequence_at(&self, pos: GranulePos) -> Option<&TemporalSequence> {
        if pos == 0 {
            return None;
        }
        self.sequences.get(usize::try_from(pos - 1).ok()?)
    }

    /// The registry mapping events to readable names.
    #[must_use]
    pub fn registry(&self) -> &EventRegistry {
        &self.registry
    }

    /// Distinct event labels occurring anywhere in the database.
    #[must_use]
    pub fn distinct_events(&self) -> Vec<EventLabel> {
        let set: BTreeSet<EventLabel> = self
            .sequences
            .iter()
            .flat_map(|s| s.instances().iter().map(|e| e.label))
            .collect();
        set.into_iter().collect()
    }

    /// Keeps only the first `n` sequences (used by the scalability
    /// experiments varying the number of sequences).
    #[must_use]
    pub fn truncated(&self, n: usize) -> Self {
        Self {
            sequences: self.sequences.iter().take(n).cloned().collect(),
            registry: self.registry.clone(),
            m: self.m,
            num_series: self.num_series,
        }
    }
}

/// Builds the temporal sequence of 0-based granule `g` of `db` under mapping
/// factor `m`: within the granule's window, runs of identical symbols of each
/// series become event instances (Definition 3.11). Called only through
/// [`SymbolicDatabase::granule_sequences`], which checks the range.
pub(crate) fn build_granule_sequence(db: &SymbolicDatabase, m: u64, g: u64) -> TemporalSequence {
    let base = g * m; // 0-based offset of the first instant of granule g+1
    let mut instances = Vec::new();
    for (sid, series) in db.series().iter().enumerate() {
        let label_series = SeriesId(u32::try_from(sid).expect("series fits u32"));
        let window = &series.symbols()[usize::try_from(base).expect("index fits usize")
            ..usize::try_from(base + m).expect("index fits usize")];
        let mut run_start = 0usize;
        while run_start < window.len() {
            let symbol = window[run_start];
            let mut run_end = run_start;
            while run_end + 1 < window.len() && window[run_end + 1] == symbol {
                run_end += 1;
            }
            let start_pos = base + run_start as u64 + 1;
            let end_pos = base + run_end as u64 + 1;
            instances.push(EventInstance::new(
                EventLabel::new(label_series, symbol),
                Interval::new(start_pos, end_pos),
            ));
            run_start = run_end + 1;
        }
    }
    TemporalSequence::new(g + 1, instances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SymbolId;
    use crate::symbolic::SymbolicSeries;
    use crate::symbolize::Alphabet;

    /// Builds the running example of the paper (Table II): series C at
    /// 5-minute granularity, first 9 instants.
    fn table2_c_prefix() -> SymbolicDatabase {
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        let c = SymbolicSeries::from_labels(
            "C",
            &["1", "1", "0", "1", "0", "0", "1", "1", "0"],
            alphabet,
        )
        .unwrap();
        SymbolicDatabase::new(vec![c]).unwrap()
    }

    #[test]
    fn sequence_mapping_matches_paper_example() {
        // g : C →3 H yields Seq1 = <(C:1,[G1,G2]), (C:0,[G3,G3])>,
        // Seq2 = <(C:1,[G4,G4]), (C:0,[G5,G6])>, Seq3 = <(C:1,[G7,G8]), (C:0,[G9,G9])>.
        let db = table2_c_prefix();
        let dseq = db.to_sequence_database(3).unwrap();
        assert_eq!(dseq.num_granules(), 3);
        assert_eq!(dseq.mapping_factor(), 3);

        let seq1 = dseq.sequence_at(1).unwrap();
        assert_eq!(seq1.len(), 2);
        assert_eq!(seq1.instances()[0].interval, Interval::new(1, 2));
        assert_eq!(seq1.instances()[0].label.symbol, SymbolId(1));
        assert_eq!(seq1.instances()[1].interval, Interval::new(3, 3));
        assert_eq!(seq1.instances()[1].label.symbol, SymbolId(0));

        let seq2 = dseq.sequence_at(2).unwrap();
        assert_eq!(seq2.instances()[0].interval, Interval::new(4, 4));
        assert_eq!(seq2.instances()[1].interval, Interval::new(5, 6));

        let seq3 = dseq.sequence_at(3).unwrap();
        assert_eq!(seq3.instances()[0].interval, Interval::new(7, 8));
        assert_eq!(seq3.instances()[1].interval, Interval::new(9, 9));
    }

    #[test]
    fn mapping_factor_validation() {
        let db = table2_c_prefix();
        assert!(db.to_sequence_database(0).is_err());
        assert!(db.to_sequence_database(100).is_err());
        assert!(db.to_sequence_database(9).is_ok());
    }

    #[test]
    fn partial_trailing_granule_is_dropped() {
        let db = table2_c_prefix(); // 9 instants
        let dseq = db.to_sequence_database(4).unwrap();
        assert_eq!(dseq.num_granules(), 2); // 9 / 4 = 2, one instant dropped
    }

    #[test]
    fn sequence_accessors() {
        let db = table2_c_prefix();
        let dseq = db.to_sequence_database(3).unwrap();
        assert!(dseq.sequence_at(0).is_none());
        assert!(dseq.sequence_at(4).is_none());
        let s = dseq.sequence_at(1).unwrap();
        assert_eq!(s.granule(), 1);
        assert!(!s.is_empty());
        let on = db.registry().label("C", "1").unwrap();
        assert!(s.contains_event(on));
        assert_eq!(s.instances_of(on).count(), 1);
        assert_eq!(s.distinct_events().len(), 2);
        assert_eq!(dseq.distinct_events().len(), 2);
        assert_eq!(dseq.num_series(), 1);
    }

    #[test]
    fn appended_granules_are_identical_to_batch_built_ones() {
        // Build the full-table D_SEQ in one shot, then grow the same database
        // incrementally in uneven symbolic batches: the sequences must be
        // bit-identical at every step, with partial granules left pending.
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        let full_bits = [("C", "110100110"), ("D", "100100111")];
        let full = SymbolicDatabase::new(
            full_bits
                .iter()
                .map(|(name, bits)| {
                    let labels: Vec<&str> = bits
                        .chars()
                        .map(|c| if c == '1' { "1" } else { "0" })
                        .collect();
                    SymbolicSeries::from_labels(name, &labels, alphabet.clone()).unwrap()
                })
                .collect(),
        )
        .unwrap();
        let reference = full.to_sequence_database(3).unwrap();

        let slice = |from: usize, to: usize| {
            SymbolicDatabase::new(
                full.series()
                    .iter()
                    .map(|s| {
                        SymbolicSeries::new(
                            s.name().to_string(),
                            s.symbols()[from..to].to_vec(),
                            s.alphabet().clone(),
                        )
                    })
                    .collect(),
            )
            .unwrap()
        };
        let mut growing = slice(0, 4); // one full granule + one pending instant
        let mut built = growing
            .to_sequence_database(3)
            .unwrap()
            .sequences()
            .to_vec();
        assert_eq!(built.len(), 1);
        growing.append_batch(&slice(4, 7)).unwrap(); // completes granule 2, starts 3
        let appended = growing.granule_sequences(3, 1..2).unwrap();
        assert_eq!(appended.len(), 1);
        assert_eq!(appended[0], *reference.sequence_at(2).unwrap());
        built.extend(appended);
        growing.append_batch(&slice(7, 9)).unwrap(); // completes granule 3
        let appended = growing.granule_sequences(3, 2..3).unwrap();
        assert_eq!(appended[0], *reference.sequence_at(3).unwrap());
        built.extend(appended);
        assert_eq!(built, reference.sequences());
    }

    #[test]
    fn truncation_keeps_prefix_of_sequences() {
        let db = table2_c_prefix();
        let dseq = db.to_sequence_database(3).unwrap();
        let t = dseq.truncated(2);
        assert_eq!(t.num_granules(), 2);
        assert_eq!(t.mapping_factor(), 3);
    }

    #[test]
    fn instances_are_sorted_chronologically_across_series() {
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        let a = SymbolicSeries::from_labels("A", &["0", "1", "1"], alphabet.clone()).unwrap();
        let b = SymbolicSeries::from_labels("B", &["1", "1", "0"], alphabet).unwrap();
        let db = SymbolicDatabase::new(vec![a, b]).unwrap();
        let dseq = db.to_sequence_database(3).unwrap();
        let seq = dseq.sequence_at(1).unwrap();
        let starts: Vec<u64> = seq.instances().iter().map(|e| e.interval.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
        // B:1 [G1,G2] starts at 1 like A:0 [G1,G1]; A:0 (shorter) comes first.
        assert_eq!(seq.instances()[0].interval, Interval::new(1, 1));
        assert_eq!(seq.instances()[1].interval, Interval::new(1, 2));
    }

    /// Re-creates the full Table II → Table IV transformation of the paper
    /// and spot-checks a handful of rows.
    #[test]
    fn full_table_iv_reconstruction() {
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        let rows: &[(&str, &str)] = &[
            ("C", "110100110000000000111111000000100110000110"),
            ("D", "100100110110000000111111000000100100110110"),
            ("F", "001011001001111000000000111111001001001001"),
            ("M", "111100111110111111000111111111111000111000"),
            ("N", "110111111110111111000000111111111111111000"),
        ];
        let series: Vec<SymbolicSeries> = rows
            .iter()
            .map(|(name, bits)| {
                let labels: Vec<&str> = bits
                    .chars()
                    .map(|c| if c == '1' { "1" } else { "0" })
                    .collect();
                SymbolicSeries::from_labels(name, &labels, alphabet.clone()).unwrap()
            })
            .collect();
        let db = SymbolicDatabase::new(series).unwrap();
        assert_eq!(db.len(), 42);
        let dseq = db.to_sequence_database(3).unwrap();
        assert_eq!(dseq.num_granules(), 14);

        // H5 = {G13..G15}: C:0 [G13,G15], D:0, F:1, M:1, N:1 — 5 instances.
        let h5 = dseq.sequence_at(5).unwrap();
        assert_eq!(h5.len(), 5);
        assert!(h5
            .instances()
            .iter()
            .all(|e| e.interval == Interval::new(13, 15)));

        // H1: (C:1,[G1,G2]), (C:0,[G3,G3]), (D:1,[G1,G1]), (D:0,[G2,G3]),
        // (F:0,[G1,G2]), (F:1,[G3,G3]), (M:1,[G1,G3]), (N:1,[G1,G2]), (N:0,[G3,G3])
        let h1 = dseq.sequence_at(1).unwrap();
        assert_eq!(h1.len(), 9);
        let c1 = db.registry().label("C", "1").unwrap();
        let m1 = db.registry().label("M", "1").unwrap();
        assert_eq!(
            h1.instances_of(c1).next().unwrap().interval,
            Interval::new(1, 2)
        );
        assert_eq!(
            h1.instances_of(m1).next().unwrap().interval,
            Interval::new(1, 3)
        );

        // Support of the event C:1 across D_SEQ (paper, Definition 3.7 example):
        // it occurs at H1, H2, H3, H7, H8, H11, H12, H14.
        let sup_c1: Vec<u64> = dseq
            .sequences()
            .iter()
            .filter(|s| s.contains_event(c1))
            .map(TemporalSequence::granule)
            .collect();
        assert_eq!(sup_c1, vec![1, 2, 3, 7, 8, 11, 12, 14]);
    }
}
