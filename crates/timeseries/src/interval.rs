//! Closed time intervals over granule positions.
//!
//! Event instances (Definition 3.7) occur during a time interval
//! `[ts, te]`. Positions refer to granules of the *finest* granularity `G`,
//! which lets the mining layer trace every instance back to raw timestamps.

use crate::granularity::GranulePos;
use std::fmt;

/// A closed (inclusive) interval of granule positions `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// Start granule position (inclusive).
    pub start: GranulePos,
    /// End granule position (inclusive).
    pub end: GranulePos,
}

impl Interval {
    /// Creates an interval, normalising the bounds so that `start <= end`.
    #[must_use]
    pub fn new(start: GranulePos, end: GranulePos) -> Self {
        if start <= end {
            Self { start, end }
        } else {
            Self {
                start: end,
                end: start,
            }
        }
    }

    /// A single-granule interval `[pos, pos]`.
    #[must_use]
    pub fn point(pos: GranulePos) -> Self {
        Self {
            start: pos,
            end: pos,
        }
    }

    /// Number of granules covered by the interval (always at least one).
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start + 1
    }

    /// Whether `other` is fully contained in `self`.
    #[must_use]
    pub fn contains(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// Number of granules shared by the two intervals (0 when disjoint).
    #[must_use]
    pub fn overlap_len(&self, other: &Interval) -> u64 {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        if lo > hi {
            0
        } else {
            hi - lo + 1
        }
    }

    /// Shifts both endpoints by `delta` granules (useful when re-basing a
    /// sequence-local interval to absolute positions).
    #[must_use]
    pub fn shifted(&self, delta: u64) -> Self {
        Self {
            start: self.start + delta,
            end: self.end + delta,
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[G{},G{}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalises_bounds() {
        let a = Interval::new(5, 2);
        assert_eq!(a, Interval::new(2, 5));
        assert_eq!(a.start, 2);
        assert_eq!(a.end, 5);
    }

    #[test]
    fn point_and_duration() {
        assert_eq!(Interval::point(7).duration(), 1);
        assert_eq!(Interval::new(1, 4).duration(), 4);
    }

    #[test]
    fn containment() {
        let outer = Interval::new(1, 10);
        let inner = Interval::new(3, 7);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains(&outer));
    }

    #[test]
    fn intersection_and_overlap() {
        let a = Interval::new(1, 5);
        let b = Interval::new(4, 9);
        let c = Interval::new(7, 9);
        assert_eq!(a.overlap_len(&b), 2);
        assert_eq!(a.overlap_len(&c), 0);
        assert_eq!(a.overlap_len(&a), 5);
    }

    #[test]
    fn shifted_moves_both_ends() {
        assert_eq!(Interval::new(1, 3).shifted(10), Interval::new(11, 13));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(format!("{}", Interval::new(1, 2)), "[G1,G2]");
    }
}
