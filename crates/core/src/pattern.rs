//! Temporal patterns (Definition 3.8).
//!
//! An *n-event pattern* is a list of `n(n-1)/2` triples `(r_ij, E_i, E_j)`,
//! one per pair of events, where `r_ij` is the temporal relation holding
//! between the instances of `E_i` and `E_j`. The events of a
//! [`TemporalPattern`] are kept in a canonical order (the order in which the
//! mining algorithm assembled the event group); every triple stores the
//! indices of its two events *in chronological orientation* — `first` is the
//! event whose instance starts earlier.

use crate::relation::RelationKind;
use stpm_timeseries::{EventLabel, EventRegistry};

/// One pairwise relation of a pattern: `events[first] r events[second]`,
/// oriented so that `events[first]`'s instance is the chronologically earlier
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationTriple {
    /// The relation kind.
    pub relation: RelationKind,
    /// Index (into the pattern's event list) of the earlier event.
    pub first: u8,
    /// Index (into the pattern's event list) of the later event.
    pub second: u8,
}

impl RelationTriple {
    /// Creates a triple.
    #[must_use]
    pub fn new(relation: RelationKind, first: u8, second: u8) -> Self {
        Self {
            relation,
            first,
            second,
        }
    }

    /// The unordered pair of event indices, smaller first.
    #[must_use]
    pub fn pair(&self) -> (u8, u8) {
        if self.first <= self.second {
            (self.first, self.second)
        } else {
            (self.second, self.first)
        }
    }
}

/// Packs an event label into one interning-key word, delegating to
/// [`EventLabel::packed`] (series id in the high bits, symbol id in the low
/// 16). The packing is injective, so two labels collide only if they are
/// equal.
#[inline]
#[must_use]
pub fn encode_label(label: EventLabel) -> u64 {
    label.packed()
}

/// Packs a relation triple into one interning-key word (relation
/// discriminant, earlier index, later index). Injective for patterns of up
/// to 256 events — far beyond `max_pattern_len`.
#[inline]
#[must_use]
pub fn encode_triple(triple: RelationTriple) -> u64 {
    ((triple.relation as u64) << 16) | (u64::from(triple.first) << 8) | u64::from(triple.second)
}

/// Inverse of [`encode_triple`].
///
/// # Panics
/// Panics on a word outside the encoding domain — keys are only ever built
/// through [`encode_triple`], so an undecodable word is a construction bug.
/// For *untrusted* words (snapshot restore), use [`try_decode_triple`].
#[inline]
#[must_use]
pub fn decode_triple(word: u64) -> RelationTriple {
    try_decode_triple(word)
        .unwrap_or_else(|| unreachable!("word {word:#x} is outside the triple encoding domain"))
}

/// Checked inverse of [`encode_triple`]: returns `None` on a word outside the
/// encoding domain (unknown relation discriminant, or an index pair that is
/// not a valid oriented pair) instead of panicking. This is the entry point
/// for words read from untrusted bytes — snapshot and WAL restore validate
/// every key word through it so corrupt data surfaces as a typed error.
#[inline]
#[must_use]
pub fn try_decode_triple(word: u64) -> Option<RelationTriple> {
    let relation = match word >> 16 {
        0 => RelationKind::Follows,
        1 => RelationKind::Contains,
        2 => RelationKind::Overlaps,
        _ => return None,
    };
    let first = ((word >> 8) & 0xFF) as u8;
    let second = (word & 0xFF) as u8;
    if first == second {
        return None;
    }
    Some(RelationTriple {
        relation,
        first,
        second,
    })
}

/// The sort key [`TemporalPattern::from_parts`] orders triples by: the
/// later event of the pair, then the earlier one, then the orientation and
/// the relation. It is injective, so an interning key is canonical exactly
/// when its triples are non-decreasing under it — a check on the key words
/// as read, with no pattern to build (see [`check_key_triples`]).
#[inline]
fn canonical_triple_order(t: &RelationTriple) -> (u8, u8, u8, u8, RelationKind) {
    let (a, b) = t.pair();
    (b, a, t.first, t.second, t.relation)
}

/// Why the triple words of an interning key do not encode a canonical
/// pattern (see [`check_key_triples`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyDefect {
    /// A word outside the [`encode_triple`] domain.
    NotATriple(u64),
    /// A triple naming an event index at or past the pattern length.
    IndexOutOfRange(u8),
    /// The triples are valid but not in [`TemporalPattern::from_parts`]'s
    /// order.
    NotCanonical,
}

/// Checks the triple words of a `k`-pattern's interning key (the words after
/// its `k` labels) without decoding the pattern: every word must be a
/// triple over event indexes below `k`, and the triples must be
/// non-decreasing under the canonical order. A key passes exactly when
/// [`TemporalPattern::from_parts`] + [`encode_pattern_key`] reproduce it,
/// since the sort is stable and the order key injective. Invalid words are
/// reported before an order violation.
pub(crate) fn check_key_triples(k: usize, words: &[u64]) -> Result<(), KeyDefect> {
    let mut previous = None;
    let mut in_order = true;
    for &word in words {
        let triple = try_decode_triple(word).ok_or(KeyDefect::NotATriple(word))?;
        let top = triple.first.max(triple.second);
        if usize::from(top) >= k {
            return Err(KeyDefect::IndexOutOfRange(top));
        }
        let rank = canonical_triple_order(&triple);
        in_order &= previous.is_none_or(|p| p <= rank);
        previous = Some(rank);
    }
    if in_order {
        Ok(())
    } else {
        Err(KeyDefect::NotCanonical)
    }
}

/// Inverse of [`encode_pattern_key`] for a known event count `k`: rebuilds
/// the pattern from its packed interning key. The streaming miner ships only
/// keys between granule workers and the persistent store, reconstructing the
/// pattern exactly once — when a key is globally new.
#[must_use]
pub fn decode_pattern_key(k: usize, key: &[u64]) -> TemporalPattern {
    debug_assert_eq!(key.len(), k + k * (k - 1) / 2, "key length must match k");
    let events: Vec<EventLabel> = key[..k]
        .iter()
        .map(|&w| EventLabel::from_packed(w))
        .collect();
    let triples: Vec<RelationTriple> = key[k..].iter().map(|&w| decode_triple(w)).collect();
    let pattern = TemporalPattern::from_parts(events, triples);
    debug_assert_eq!(
        encode_pattern_key(&pattern),
        key,
        "interning keys store triples in canonical order"
    );
    pattern
}

/// Encodes a pattern into the compact interning key used by the streaming
/// miner's pattern index and by the snapshot format: the packed events
/// followed by the packed triples, in the pattern's canonical order.
///
/// The key identifies the pattern: the word count `n + n(n-1)/2` is strictly
/// monotone in the event count `n`, so keys of patterns with different event
/// counts differ in length, and keys of same-length patterns differ in some
/// word because both packings are injective. Hashing this flat buffer once
/// replaces hashing the whole `TemporalPattern` (two heap vectors) on every
/// occurrence insert.
#[must_use]
pub fn encode_pattern_key(pattern: &TemporalPattern) -> Vec<u64> {
    let mut key = Vec::with_capacity(pattern.events.len() + pattern.triples.len());
    key.extend(pattern.events.iter().copied().map(encode_label));
    key.extend(pattern.triples.iter().copied().map(encode_triple));
    key
}

/// A temporal pattern: an ordered list of events plus one relation triple per
/// event pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemporalPattern {
    events: Vec<EventLabel>,
    triples: Vec<RelationTriple>,
}

impl TemporalPattern {
    /// A single-event pattern (no relations).
    #[must_use]
    pub fn single(event: EventLabel) -> Self {
        Self {
            events: vec![event],
            triples: Vec::new(),
        }
    }

    /// A 2-event pattern with one relation. `swapped` indicates that the
    /// chronologically earlier instance belongs to the *second* event of the
    /// canonical event list.
    #[must_use]
    pub fn pair(events: [EventLabel; 2], relation: RelationKind, swapped: bool) -> Self {
        let triple = if swapped {
            RelationTriple::new(relation, 1, 0)
        } else {
            RelationTriple::new(relation, 0, 1)
        };
        Self {
            events: events.to_vec(),
            triples: vec![triple],
        }
    }

    /// Builds a pattern from raw parts. The number of triples must be
    /// `events.len() * (events.len() - 1) / 2`; triples are sorted into a
    /// canonical order so that structurally identical patterns compare equal.
    #[must_use]
    pub fn from_parts(events: Vec<EventLabel>, mut triples: Vec<RelationTriple>) -> Self {
        triples.sort_by_key(canonical_triple_order);
        Self { events, triples }
    }

    /// The pattern's events, in canonical (mining) order.
    #[must_use]
    pub fn events(&self) -> &[EventLabel] {
        &self.events
    }

    /// The pairwise relation triples.
    #[must_use]
    pub fn triples(&self) -> &[RelationTriple] {
        &self.triples
    }

    /// Number of events (the pattern's `n`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the pattern has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Extends the pattern with a new event and the relation triples that
    /// connect every existing event to it. `new_triples[i]` is the oriented
    /// relation between event `i` and the new event.
    #[must_use]
    pub fn extended(&self, event: EventLabel, new_triples: Vec<RelationTriple>) -> Self {
        let mut events = self.events.clone();
        events.push(event);
        let mut triples = self.triples.clone();
        triples.extend(new_triples);
        Self::from_parts(events, triples)
    }

    /// Human-readable rendering, e.g. `"C:1 ≽ D:1"` for pairs or the triple
    /// list `"(Contains, C:1, D:1), (Follows, C:1, F:1), …"` for longer
    /// patterns.
    #[must_use]
    pub fn display(&self, registry: &EventRegistry) -> String {
        match self.events.len() {
            0 => String::from("<empty>"),
            1 => registry.display(self.events[0]),
            2 => {
                let t = &self.triples[0];
                format!(
                    "{} {} {}",
                    registry.display(self.events[t.first as usize]),
                    t.relation.symbol(),
                    registry.display(self.events[t.second as usize])
                )
            }
            _ => self
                .triples
                .iter()
                .map(|t| {
                    format!(
                        "({}, {}, {})",
                        t.relation,
                        registry.display(self.events[t.first as usize]),
                        registry.display(self.events[t.second as usize])
                    )
                })
                .collect::<Vec<_>>()
                .join(", "),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stpm_timeseries::{SeriesId, SymbolId};

    fn label(series: u32, symbol: u16) -> EventLabel {
        EventLabel::new(SeriesId(series), SymbolId(symbol))
    }

    fn registry() -> EventRegistry {
        let mut reg = EventRegistry::new();
        reg.register_series("C", &["0".into(), "1".into()]);
        reg.register_series("D", &["0".into(), "1".into()]);
        reg.register_series("F", &["0".into(), "1".into()]);
        reg
    }

    #[test]
    fn single_event_pattern() {
        let p = TemporalPattern::single(label(0, 1));
        assert_eq!(p.len(), 1);
        assert!(p.triples().is_empty());
        assert_eq!(p.events(), &[label(0, 1)]);
        assert_eq!(p.display(&registry()), "C:1");
    }

    #[test]
    fn pair_pattern_orientation() {
        let p = TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Contains, false);
        assert_eq!(p.display(&registry()), "C:1 ≽ D:1");
        let swapped =
            TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Follows, true);
        assert_eq!(swapped.display(&registry()), "D:1 → C:1");
        assert_ne!(p, swapped);
    }

    #[test]
    fn extension_builds_triangular_relation_list() {
        let p = TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Contains, false);
        let extended = p.extended(
            label(2, 1),
            vec![
                RelationTriple::new(RelationKind::Follows, 0, 2),
                RelationTriple::new(RelationKind::Follows, 1, 2),
            ],
        );
        assert_eq!(extended.len(), 3);
        assert_eq!(extended.triples().len(), 3);
        let pairs: Vec<(u8, u8)> = extended
            .triples()
            .iter()
            .map(RelationTriple::pair)
            .collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
        let text = extended.display(&registry());
        assert!(text.contains("Contains"));
        assert!(text.contains("F:1"));
    }

    #[test]
    fn canonical_triple_order_makes_patterns_comparable() {
        let a = TemporalPattern::from_parts(
            vec![label(0, 1), label(1, 1), label(2, 1)],
            vec![
                RelationTriple::new(RelationKind::Follows, 0, 2),
                RelationTriple::new(RelationKind::Contains, 0, 1),
                RelationTriple::new(RelationKind::Follows, 1, 2),
            ],
        );
        let b = TemporalPattern::from_parts(
            vec![label(0, 1), label(1, 1), label(2, 1)],
            vec![
                RelationTriple::new(RelationKind::Contains, 0, 1),
                RelationTriple::new(RelationKind::Follows, 1, 2),
                RelationTriple::new(RelationKind::Follows, 0, 2),
            ],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn pattern_keys_identify_patterns() {
        // Distinct labels and triples pack to distinct words.
        assert_ne!(encode_label(label(0, 1)), encode_label(label(1, 0)));
        assert_ne!(
            encode_triple(RelationTriple::new(RelationKind::Follows, 0, 1)),
            encode_triple(RelationTriple::new(RelationKind::Follows, 1, 0))
        );
        assert_ne!(
            encode_triple(RelationTriple::new(RelationKind::Follows, 0, 1)),
            encode_triple(RelationTriple::new(RelationKind::Contains, 0, 1))
        );
        // Structurally equal patterns share their key; different orientation
        // or relation changes it.
        let a = TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Contains, false);
        let b = TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Contains, false);
        let swapped =
            TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Contains, true);
        assert_eq!(encode_pattern_key(&a), encode_pattern_key(&b));
        assert_ne!(encode_pattern_key(&a), encode_pattern_key(&swapped));
        assert_eq!(encode_pattern_key(&a).len(), 3);
    }

    #[test]
    fn extension_key_is_the_base_key_plus_new_words() {
        // The streaming miner builds an extended pattern's interning key by
        // appending the packed new event and new triples to the base
        // pattern's packed events/triples. That shortcut is only sound if
        // `from_parts`'s canonical sort keeps base triples first and new
        // triples in generation order — which holds because every new triple
        // involves the largest event index. Verify against the constructed
        // pattern.
        let base = TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Contains, false);
        let new_triples = vec![
            RelationTriple::new(RelationKind::Follows, 0, 2),
            RelationTriple::new(RelationKind::Overlaps, 2, 1),
        ];
        let extended = base.extended(label(2, 1), new_triples.clone());
        let mut incremental: Vec<u64> = base.events().iter().copied().map(encode_label).collect();
        incremental.push(encode_label(label(2, 1)));
        incremental.extend(base.triples().iter().copied().map(encode_triple));
        incremental.extend(new_triples.iter().copied().map(encode_triple));
        assert_eq!(incremental, encode_pattern_key(&extended));
    }

    #[test]
    fn try_decode_triple_round_trips_and_rejects_garbage() {
        for kind in [
            RelationKind::Follows,
            RelationKind::Contains,
            RelationKind::Overlaps,
        ] {
            let t = RelationTriple::new(kind, 1, 2);
            assert_eq!(try_decode_triple(encode_triple(t)), Some(t));
        }
        // Unknown relation discriminant.
        assert_eq!(try_decode_triple(3 << 16), None);
        assert_eq!(try_decode_triple(u64::MAX), None);
        // A self-relating index pair never comes out of encode_triple.
        assert_eq!(try_decode_triple(0x0101), None);
    }

    #[test]
    fn relation_triple_helpers() {
        let t = RelationTriple::new(RelationKind::Overlaps, 2, 1);
        assert_eq!(t.pair(), (1, 2));
    }

    #[test]
    fn empty_pattern_display() {
        let p = TemporalPattern::from_parts(vec![], vec![]);
        assert!(p.is_empty());
        assert_eq!(p.display(&registry()), "<empty>");
    }
}
