//! Support sets (Definition 3.12) and the sorted-set / bitset primitives the
//! miner relies on.
//!
//! A support set is the sorted list of granule positions (in `H`) where an
//! event, an event group or a pattern occurs. Keeping them sorted makes the
//! intersection used when growing event groups a linear merge.
//!
//! The bitset primitives ([`intersect_rows_into`], [`iter_set_bits`]) back
//! the level-2 relation adjacency matrix of
//! [`RelationAdjacency`](crate::hlh::RelationAdjacency): the extension set of
//! a (k−1)-group is the bitwise AND of its members' neighbor rows, walked as
//! set bits.

use stpm_timeseries::GranulePos;

/// A support set: sorted, duplicate-free granule positions.
pub type SupportSet = Vec<GranulePos>;

/// Size ratio beyond which the intersection routines switch from the linear
/// merge to galloping (exponential-probe) advance on the longer side. With a
/// ratio `r >= GALLOP_RATIO` the galloping cost `O(short · log r)` beats the
/// merge cost `O(short + long)`.
const GALLOP_RATIO: usize = 32;

/// First index `>= lo` whose value is not less than `target`, found by
/// galloping: probe at exponentially growing offsets, then binary-search the
/// bracketed window. `O(log distance)` instead of `O(distance)`.
// lint: hot-path
#[inline]
fn gallop(haystack: &[GranulePos], lo: usize, target: GranulePos) -> usize {
    let mut base = lo;
    let mut step = 1usize;
    while base + step < haystack.len() && haystack[base + step] < target {
        base += step;
        step <<= 1;
    }
    let hi = (base + step).min(haystack.len());
    base + haystack[base..hi].partition_point(|&v| v < target)
}

/// A forward cursor over one sorted granule list. A walk that visits
/// ascending granules seeks each from where the previous seek stopped,
/// galloping over the skipped stretch, so `n` visits cost `O(n log gap)`
/// probes instead of `n` binary searches over the whole list. A cursor is
/// tied to one list; start a fresh one (`Default`) for every walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupportCursor {
    pos: usize,
}

impl SupportCursor {
    /// Position of `target` in `set`, or `None` when `set` does not hold it.
    /// Targets must ascend strictly across the seeks of one walk.
    #[must_use]
    // lint: hot-path
    #[inline]
    pub fn seek(&mut self, set: &[GranulePos], target: GranulePos) -> Option<usize> {
        debug_assert!(
            self.pos == 0 || set[self.pos - 1] < target,
            "cursor targets must ascend"
        );
        self.pos = gallop(set, self.pos, target);
        (set.get(self.pos) == Some(&target)).then_some(self.pos)
    }
}

/// Reports every value common to two sorted sets through
/// `on_match(value, pos_in_a, pos_in_b)`, in increasing order — the one
/// intersection core both public variants monomorphize over. When one side
/// is at least `GALLOP_RATIO` times longer than the other, the shorter side
/// is walked and the longer side is advanced by galloping; otherwise the two
/// sides are merged linearly.
// lint: hot-path
#[inline]
fn intersect_with<F: FnMut(GranulePos, usize, usize)>(
    a: &[GranulePos],
    b: &[GranulePos],
    mut on_match: F,
) {
    let a_short = a.len() <= b.len();
    let (short, long) = if a_short { (a, b) } else { (b, a) };
    if short.len() * GALLOP_RATIO <= long.len() {
        let mut j = 0usize;
        for (i, &x) in short.iter().enumerate() {
            j = gallop(long, j, x);
            if j == long.len() {
                break;
            }
            if long[j] == x {
                if a_short {
                    on_match(x, i, j);
                } else {
                    on_match(x, j, i);
                }
                j += 1;
            }
        }
        return;
    }
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                on_match(a[i], i, j);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Intersects two sorted support sets into `out`, clearing it first — the
/// allocation-free form the miner threads its per-shard scratch buffers
/// through. Skewed sizes are intersected by galloping, balanced ones by a
/// linear merge.
// lint: hot-path
pub fn intersect_into(out: &mut SupportSet, a: &[GranulePos], b: &[GranulePos]) {
    out.clear();
    intersect_with(a, b, |x, _, _| out.push(x));
}

/// Intersects two sorted support sets into `out` while also recording, for
/// every match, its position in `a` (`pos_a`) and in `b` (`pos_b`). All
/// three buffers are cleared first and reused across calls. The positions
/// let the miner reach granule-aligned side data (instance slices in
/// `HLH_1`, binding slices in `HLH_k`) with plain offset lookups instead of
/// one binary search per matched granule. Galloping kicks in on skewed
/// sizes exactly as in [`intersect_into`].
///
/// # Panics
/// Panics when a matched position does not fit `u32`.
// lint: hot-path
pub fn intersect_positions_into(
    a: &[GranulePos],
    b: &[GranulePos],
    out: &mut SupportSet,
    pos_a: &mut Vec<u32>,
    pos_b: &mut Vec<u32>,
) {
    out.clear();
    pos_a.clear();
    pos_b.clear();
    intersect_with(a, b, |x, i, j| {
        out.push(x);
        pos_a.push(u32::try_from(i).expect("support position fits u32"));
        pos_b.push(u32::try_from(j).expect("support position fits u32"));
    });
}

/// Bitwise-AND intersection of equal-length bitset rows into `out`, clearing
/// it first. With no rows the output is empty; one row is copied verbatim.
/// This is the one-pass replacement for probing `has_relation_between` per
/// group member: the surviving bits of the AND are exactly the events related
/// to *every* member.
///
/// # Panics
/// Panics (in debug builds) when the rows differ in length.
// lint: hot-path
pub fn intersect_rows_into(out: &mut Vec<u64>, rows: &[&[u64]]) {
    out.clear();
    let Some((first, rest)) = rows.split_first() else {
        return;
    };
    out.extend_from_slice(first);
    for row in rest {
        debug_assert_eq!(row.len(), out.len(), "bitset rows must share a length");
        and_words(out, row);
    }
}

/// `acc[i] &= row[i]` over the common prefix of the two slices.
// lint: hot-path
pub(crate) fn and_words(acc: &mut [u64], row: &[u64]) {
    for (acc_word, &row_word) in acc.iter_mut().zip(row) {
        *acc_word &= row_word;
    }
}

/// Iterates the indices of the set bits of a bitset, lowest first, starting
/// at bit `from`. Bit `i` is bit `i % 64` of word `i / 64`.
// lint: hot-path
pub fn iter_set_bits(words: &[u64], from: usize) -> impl Iterator<Item = usize> + '_ {
    let mut word_idx = from / 64;
    let mut current = if word_idx < words.len() {
        words[word_idx] & (!0u64 << (from % 64))
    } else {
        0
    };
    std::iter::from_fn(move || loop {
        if current != 0 {
            let bit = current.trailing_zeros() as usize;
            current &= current - 1;
            return Some(word_idx * 64 + bit);
        }
        word_idx += 1;
        if word_idx >= words.len() {
            return None;
        }
        current = words[word_idx];
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersection_of_sorted_sets() {
        let intersect = |a: &[u64], b: &[u64]| {
            let mut out = Vec::new();
            intersect_into(&mut out, a, b);
            out
        };
        assert_eq!(intersect(&[1, 2, 3, 7, 8], &[2, 3, 4, 8, 9]), vec![2, 3, 8]);
        assert_eq!(intersect(&[1, 2], &[3, 4]), Vec::<u64>::new());
        assert_eq!(intersect(&[], &[1, 2]), Vec::<u64>::new());
        assert_eq!(intersect(&[1, 2, 3], &[1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn intersect_into_reuses_the_buffer() {
        let mut out = vec![99, 98, 97];
        intersect_into(&mut out, &[1, 2, 3, 7, 8], &[2, 3, 4, 8, 9]);
        assert_eq!(out, vec![2, 3, 8]);
        intersect_into(&mut out, &[1, 2], &[3, 4]);
        assert!(out.is_empty());
    }

    #[test]
    fn galloping_intersection_matches_linear_merge() {
        // One side far more than GALLOP_RATIO times longer than the other.
        let long: Vec<u64> = (0..10_000).map(|i| i * 3).collect();
        let short = vec![0, 2, 3, 2_997, 14_000, 29_997, 29_998];
        let expected = vec![0, 3, 2_997, 29_997];
        let mut out = Vec::new();
        intersect_into(&mut out, &short, &long);
        assert_eq!(out, expected);
        intersect_into(&mut out, &long, &short);
        assert_eq!(out, expected);
        // An empty short side short-circuits.
        intersect_into(&mut out, &[], &long);
        assert!(out.is_empty());
    }

    #[test]
    fn cursor_seeks_agree_with_binary_search_on_ascending_walks() {
        let set: Vec<u64> = (0..500).map(|i| i * 7 + i % 3).collect();
        for stride in [1u64, 2, 5, 40, 900] {
            let mut cursor = SupportCursor::default();
            for target in (0..4_000).step_by(stride as usize) {
                assert_eq!(
                    cursor.seek(&set, target),
                    set.binary_search(&target).ok(),
                    "stride {stride}, target {target}"
                );
            }
        }
        // Past the end and on an empty set, every seek misses.
        let mut cursor = SupportCursor::default();
        assert_eq!(cursor.seek(&set, 10_000), None);
        assert_eq!(cursor.seek(&set, 10_001), None);
        assert_eq!(SupportCursor::default().seek(&[], 3), None);
    }

    #[test]
    fn positions_point_back_into_both_inputs() {
        let a = vec![1, 2, 3, 7, 8, 20];
        let b = vec![2, 3, 4, 8, 9];
        let (mut out, mut pos_a, mut pos_b) = (Vec::new(), Vec::new(), Vec::new());
        intersect_positions_into(&a, &b, &mut out, &mut pos_a, &mut pos_b);
        assert_eq!(out, vec![2, 3, 8]);
        assert_eq!(pos_a, vec![1, 2, 4]);
        assert_eq!(pos_b, vec![0, 1, 3]);
        for (m, &g) in out.iter().enumerate() {
            assert_eq!(a[pos_a[m] as usize], g);
            assert_eq!(b[pos_b[m] as usize], g);
        }
        // The same invariant holds in the galloping regime, on either side.
        let long: Vec<u64> = (0..4_000).map(|i| i * 2).collect();
        let short = vec![1, 2, 1_000, 7_998];
        for (x, y) in [(&short, &long), (&long, &short)] {
            intersect_positions_into(x, y, &mut out, &mut pos_a, &mut pos_b);
            assert_eq!(out, vec![2, 1_000, 7_998]);
            for (m, &g) in out.iter().enumerate() {
                assert_eq!(x[pos_a[m] as usize], g);
                assert_eq!(y[pos_b[m] as usize], g);
            }
        }
    }

    #[test]
    fn bitset_row_intersection_and_iteration() {
        let a = [0b1011u64, u64::MAX];
        let b = [0b1110u64, 1 << 63];
        let mut out = Vec::new();
        intersect_rows_into(&mut out, &[&a, &b]);
        assert_eq!(out, vec![0b1010, 1 << 63]);
        assert_eq!(iter_set_bits(&out, 0).collect::<Vec<_>>(), vec![1, 3, 127]);
        assert_eq!(iter_set_bits(&out, 2).collect::<Vec<_>>(), vec![3, 127]);
        assert_eq!(iter_set_bits(&out, 4).collect::<Vec<_>>(), vec![127]);
        assert_eq!(iter_set_bits(&out, 128).count(), 0);
        // Single row copies; empty row list clears.
        intersect_rows_into(&mut out, &[&a]);
        assert_eq!(out, a.to_vec());
        intersect_rows_into(&mut out, &[]);
        assert!(out.is_empty());
        assert_eq!(iter_set_bits(&out, 0).count(), 0);
        // A word-boundary start index must not mask the wrong word.
        let c = [0u64, 0b101u64];
        assert_eq!(iter_set_bits(&c, 64).collect::<Vec<_>>(), vec![64, 66]);
        assert_eq!(iter_set_bits(&c, 65).collect::<Vec<_>>(), vec![66]);
    }
}
