//! Interned identifiers for time series, symbols and temporal events.
//!
//! A temporal event `E = (ω, T)` (Definition 3.7) is identified by the pair
//! *(series, symbol)* — e.g. `C:1` means "series C has symbol 1". To keep the
//! mining data structures compact the pair is interned into an
//! [`EventLabel`] of two small integers; the [`EventRegistry`] maps labels
//! back to human-readable names.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a time series within a database (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(pub u32);

/// Identifier of a symbol within a series' alphabet (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(pub u16);

/// A temporal event identifier: a (series, symbol) pair such as `C:1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventLabel {
    /// The series the event belongs to.
    pub series: SeriesId,
    /// The symbol the series takes during the event.
    pub symbol: SymbolId,
}

impl EventLabel {
    /// Creates a label from raw ids.
    #[must_use]
    pub fn new(series: SeriesId, symbol: SymbolId) -> Self {
        Self { series, symbol }
    }

    /// Packs the label into a single `u64` (useful as a compact hash key).
    #[must_use]
    pub fn packed(&self) -> u64 {
        (u64::from(self.series.0) << 16) | u64::from(self.symbol.0)
    }

    /// Inverse of [`EventLabel::packed`].
    #[must_use]
    pub fn from_packed(word: u64) -> Self {
        Self {
            series: SeriesId(u32::try_from(word >> 16).expect("packed labels fit 48 bits")),
            symbol: SymbolId((word & 0xFFFF) as u16),
        }
    }
}

/// Maps [`EventLabel`]s to and from human-readable `series:symbol` names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventRegistry {
    series_names: Vec<String>,
    /// One alphabet (list of symbol strings) per series.
    alphabets: Vec<Vec<String>>,
    series_index: HashMap<String, SeriesId>,
}

impl EventRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a series with its symbol alphabet, returning its id. If the
    /// series is already registered the existing id is returned and the
    /// alphabet is left untouched.
    pub fn register_series(&mut self, name: &str, alphabet: &[String]) -> SeriesId {
        if let Some(id) = self.series_index.get(name) {
            return *id;
        }
        let id = SeriesId(u32::try_from(self.series_names.len()).expect("series count fits u32"));
        self.series_names.push(name.to_string());
        self.alphabets.push(alphabet.to_vec());
        self.series_index.insert(name.to_string(), id);
        id
    }

    /// Number of registered series.
    #[must_use]
    pub fn num_series(&self) -> usize {
        self.series_names.len()
    }

    /// Total number of distinct events (series × alphabet size).
    #[must_use]
    pub fn num_events(&self) -> usize {
        self.alphabets.iter().map(Vec::len).sum()
    }

    /// Looks a series id up by name.
    #[must_use]
    pub fn series_id(&self, name: &str) -> Option<SeriesId> {
        self.series_index.get(name).copied()
    }

    /// Name of a series.
    #[must_use]
    pub fn series_name(&self, id: SeriesId) -> Option<&str> {
        self.series_names.get(id.0 as usize).map(String::as_str)
    }

    /// Alphabet of a series.
    #[must_use]
    pub fn alphabet(&self, id: SeriesId) -> Option<&[String]> {
        self.alphabets.get(id.0 as usize).map(Vec::as_slice)
    }

    /// Builds the event label for `series:symbol`, if both exist.
    #[must_use]
    pub fn label(&self, series: &str, symbol: &str) -> Option<EventLabel> {
        let sid = self.series_id(series)?;
        let alphabet = self.alphabet(sid)?;
        let sym = alphabet.iter().position(|s| s == symbol)?;
        Some(EventLabel::new(
            sid,
            SymbolId(u16::try_from(sym).expect("alphabet fits u16")),
        ))
    }

    /// Human-readable `series:symbol` name of a label, e.g. `"C:1"`.
    #[must_use]
    pub fn display(&self, label: EventLabel) -> String {
        let series = self.series_name(label.series).unwrap_or("<unknown-series>");
        let symbol = self
            .alphabet(label.series)
            .and_then(|a| a.get(label.symbol.0 as usize))
            .map_or("<unknown-symbol>", String::as_str);
        format!("{series}:{symbol}")
    }
}

impl fmt::Display for EventLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E({}, {})", self.series.0, self.symbol.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> EventRegistry {
        let mut reg = EventRegistry::new();
        reg.register_series("C", &["0".into(), "1".into()]);
        reg.register_series("D", &["0".into(), "1".into()]);
        reg.register_series("Temp", &["Low".into(), "Mid".into(), "High".into()]);
        reg
    }

    #[test]
    fn register_and_lookup() {
        let reg = sample_registry();
        assert_eq!(reg.num_series(), 3);
        assert_eq!(reg.num_events(), 7);
        assert_eq!(reg.series_id("C"), Some(SeriesId(0)));
        assert_eq!(reg.series_id("Temp"), Some(SeriesId(2)));
        assert_eq!(reg.series_id("Z"), None);
        assert_eq!(reg.series_name(SeriesId(1)), Some("D"));
        assert_eq!(reg.series_name(SeriesId(9)), None);
    }

    #[test]
    fn duplicate_registration_is_idempotent() {
        let mut reg = sample_registry();
        let id = reg.register_series("C", &["x".into()]);
        assert_eq!(id, SeriesId(0));
        assert_eq!(reg.num_series(), 3);
        // Original alphabet is preserved.
        assert_eq!(reg.alphabet(SeriesId(0)).unwrap().len(), 2);
    }

    #[test]
    fn label_and_display_round_trip() {
        let reg = sample_registry();
        let label = reg.label("Temp", "High").unwrap();
        assert_eq!(label.series, SeriesId(2));
        assert_eq!(label.symbol, SymbolId(2));
        assert_eq!(reg.display(label), "Temp:High");
        assert!(reg.label("Temp", "VeryHigh").is_none());
        assert!(reg.label("Nope", "High").is_none());
    }

    #[test]
    fn display_of_unknown_label_is_graceful() {
        let reg = sample_registry();
        let bogus = EventLabel::new(SeriesId(42), SymbolId(0));
        assert!(reg.display(bogus).contains("unknown"));
    }

    #[test]
    fn packed_is_unique_per_label() {
        let reg = sample_registry();
        let mut packed: Vec<u64> = (0..3)
            .flat_map(|series| {
                let symbols = reg.alphabet(SeriesId(series)).unwrap().len();
                (0..symbols).map(move |symbol| {
                    let symbol = SymbolId(u16::try_from(symbol).unwrap());
                    EventLabel::new(SeriesId(series), symbol).packed()
                })
            })
            .collect();
        packed.sort_unstable();
        packed.dedup();
        assert_eq!(packed.len(), 7);
    }
}
