//! Hierarchical lookup hash structures `HLH_1` and `HLH_k` (Figures 4 and 5
//! of the paper), laid out for the hot path of the miner.
//!
//! * [`Hlh1`] plays the role of the single-event hash table `EH` plus the
//!   event-granule hash table `GH`: for each candidate event it stores the
//!   support set and, aligned with it, the event instances occurring in each
//!   supporting granule. Instances live in one flat array per event with a
//!   granule-offset array on top (a CSR layout), not in one vector per
//!   granule.
//! * [`HlhK`] combines the k-event hash table `EH_k`, the pattern hash table
//!   `PH_k` and the pattern-granule hash table `GH_k`. Groups and patterns
//!   live exactly once in an arena and are addressed by a compact
//!   [`GroupId`] / [`PatternId`] everywhere else. A level is filled one
//!   group at a time ([`HlhK::begin_group`] … [`HlhK::end_group`]): every
//!   k-group comes out of exactly one contiguous stretch of the level loop,
//!   so a pattern only has to be told apart from the other patterns of its
//!   group. It is interned by the (k−1)-pattern it extends plus the
//!   verdict byte of every new relation, in a key table reused from group
//!   to group — an occurrence insert compares a few bytes against the open
//!   group's newest keys and never hashes, clones or encodes the pattern.
//!   Instance bindings are stored in one flat [`EventInstance`]
//!   pool per level (every binding is `k` consecutive pool slots) with
//!   per-pattern offset arrays pattern → granule → binding-id slice on top —
//!   appending an occurrence is a bump-append, and reading the bindings of a
//!   granule is two offset lookups once the granule's position in the
//!   support set is known.
//!
//! The arena layout is what [`HlhK::merge_shards`] exploits to make parallel
//! mining byte-identical to sequential mining: per-shard ids are remapped by
//! a constant offset in shard order.
//!
//! Two reuse structures ride on `HLH_2` so that level k ≥ 3 never re-derives
//! what level 2 already computed:
//!
//! * [`RelationAdjacency`] — the level-2 relation graph as bitset rows over
//!   interned `F_1` label ids. The extension set of a (k−1)-group is the
//!   bitwise AND of its members' neighbor rows, and `has_relation_between`
//!   becomes a single bit test instead of a hash probe per member.
//! * [`VerdictTable`] — a CSR side table holding the classified relation
//!   verdict of every level-2 instance cross-product cell, addressed by
//!   (label pair, granule, instance-index pair). The k-event miner looks
//!   verdicts up instead of re-running the closed-form classifier on the
//!   same interval pairs. The table covers every cell level k can probe, so
//!   it is level k's only verdict source; debug builds cross-check it
//!   against the classifier.
//!
//! Levels also come in a *terminal* flavour ([`HlhK::new_terminal`]): the
//! last level of a run is never extended, so its instance bindings are never
//! read — a terminal level keeps supports and patterns but skips the binding
//! pool entirely, which is where the bulk of a level's footprint lives. Nor
//! does a terminal level need compacting: [`HlhK::candidate_summary`] counts
//! what [`HlhK::retain_candidates`] would keep.
//!
//! # Validation & hot-path discipline
//!
//! The accessors above lean on layout invariants — monotone in-bounds CSR
//! offsets, a group index consistent with its arena, patterns unique within
//! their group, exact pool slot arithmetic — that [`Hlh1::validate`],
//! [`HlhK::validate`] and [`VerdictTable::validate`] check exhaustively (see
//! the [`invariants`](crate::invariants) module; the miner runs them at every
//! level boundary under `debug_assertions` or the `strict-invariants`
//! feature, which also enforce the one-stretch-per-group contract as it is
//! used). The per-occurrence entry points (`instances_at_index`,
//! `binding_ids_at_index`, `push_verdict`, `add_pattern_occurrence`, the cursor
//! seeks, …) are marked `// lint: hot-path`: `stpm-lint` rejects
//! any allocating construct added to them, keeping occurrence inserts
//! bump-appends and granule reads two offset lookups.

use crate::config::ResolvedConfig;
use crate::fxhash::FxHashMap;
use crate::pattern::{encode_label, RelationTriple, TemporalPattern};
use crate::support::{SupportCursor, SupportSet};
use stpm_timeseries::{EventInstance, EventLabel, GranulePos, SequenceDatabase};

/// Compact identifier of a candidate group inside one [`HlhK`] (its index in
/// the group arena, in insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// Compact identifier of a candidate pattern inside one [`HlhK`] (its index
/// in the pattern arena, in insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternId(pub u32);

/// Per-event entry of `HLH_1`: support set plus the instances per supporting
/// granule in a CSR layout — `instances_at_index(i)` is the slice of
/// instances occurring in granule `support[i]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventEntry {
    /// Sorted granule positions where the event occurs.
    pub support: SupportSet,
    /// All instances of the event, granule-major.
    instances: Vec<EventInstance>,
    /// `starts[i]` is the index in `instances` of the first instance of
    /// granule `support[i]`; the slice ends at `starts[i + 1]` (or the pool
    /// end for the last granule).
    starts: Vec<u32>,
}

impl EventEntry {
    /// Appends one instance, opening a new granule run when `granule` is new.
    /// Instances must arrive in non-decreasing granule order (one database
    /// scan provides exactly that).
    fn push(&mut self, granule: GranulePos, instance: EventInstance) {
        match self.support.last() {
            Some(&last) if last == granule => {}
            other => {
                debug_assert!(other.is_none_or(|&g| g < granule), "granules must ascend");
                self.support.push(granule);
                self.starts
                    .push(u32::try_from(self.instances.len()).expect("instance count fits u32"));
            }
        }
        self.instances.push(instance);
    }

    /// Instances of the event in granule `support[idx]` — the two-offset
    /// lookup used when the caller already knows the granule's position in
    /// the support set (e.g. from an indexed intersection).
    #[must_use]
    // lint: hot-path
    pub fn instances_at_index(&self, idx: usize) -> &[EventInstance] {
        let start = self.starts[idx] as usize;
        let end = self
            .starts
            .get(idx + 1)
            .map_or(self.instances.len(), |&s| s as usize);
        &self.instances[start..end]
    }

    /// Instances of the event in granule `granule`, found by a forward
    /// cursor over the support set (see [`SupportCursor`]); empty when the
    /// granule does not support the event.
    #[must_use]
    // lint: hot-path
    pub fn instances_at_cursor(
        &self,
        cursor: &mut SupportCursor,
        granule: GranulePos,
    ) -> &[EventInstance] {
        match cursor.seek(&self.support, granule) {
            Some(idx) => self.instances_at_index(idx),
            None => &[],
        }
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.support.len() * std::mem::size_of::<GranulePos>()
            + self.instances.len() * std::mem::size_of::<EventInstance>()
            + self.starts.len() * std::mem::size_of::<u32>()
    }
}

/// The hierarchical lookup hash structure for single events (`HLH_1`).
#[derive(Debug, Clone, Default)]
pub struct Hlh1 {
    events: FxHashMap<EventLabel, EventEntry>,
    /// The candidate labels, sorted canonically — built once so `labels()`
    /// does not re-collect and re-sort the key set on every call.
    labels: Vec<EventLabel>,
}

impl Hlh1 {
    /// Scans `D_SEQ` once and builds `HLH_1`. When `candidates_only` is set
    /// (the Apriori-like pruning of E-STPM), only events whose `maxSeason`
    /// reaches `minSeason` are kept; otherwise every event with non-empty
    /// support is retained.
    #[must_use]
    pub fn build(dseq: &SequenceDatabase, config: &ResolvedConfig, candidates_only: bool) -> Self {
        let mut events: FxHashMap<EventLabel, EventEntry> = FxHashMap::default();
        for sequence in dseq.sequences() {
            let granule = sequence.granule();
            for instance in sequence.instances() {
                events
                    .entry(instance.label)
                    .or_default()
                    .push(granule, *instance);
            }
        }
        if candidates_only {
            events.retain(|_, entry| config.is_candidate(entry.support.len()));
        }
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line")]
        let mut labels: Vec<EventLabel> = events.keys().copied().collect();
        labels.sort_unstable();
        Self { events, labels }
    }

    /// The candidate event labels, sorted canonically (cached at build time).
    #[must_use]
    pub fn labels(&self) -> &[EventLabel] {
        &self.labels
    }

    /// Entry of one event label.
    #[must_use]
    pub fn entry(&self, label: EventLabel) -> Option<&EventEntry> {
        self.events.get(&label)
    }

    /// Support set of one event (empty when the event is not a candidate).
    #[must_use]
    pub fn support(&self, label: EventLabel) -> &[GranulePos] {
        self.events.get(&label).map_or(&[], |e| &e.support)
    }

    /// Number of events held in the structure.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the structure is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Approximate heap footprint in bytes (reported by the memory
    /// experiments of Figures 9/10/19/20).
    #[must_use]
    #[expect(clippy::disallowed_methods, reason = "summing is order-insensitive")]
    pub fn footprint_bytes(&self) -> usize {
        self.labels.len() * std::mem::size_of::<EventLabel>()
            + self
                .events
                .values()
                .map(|entry| {
                    std::mem::size_of::<EventLabel>()
                        + std::mem::size_of::<EventEntry>()
                        + entry.footprint_bytes()
                })
                .sum::<usize>()
    }
}

/// Per-pattern entry of `HLH_k`: the pattern (stored exactly once — the
/// arena is the owner, the index maps only hold packed keys), its support
/// set, and the CSR offsets of its bindings in the level's instance pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternEntry {
    /// The candidate pattern.
    pub pattern: TemporalPattern,
    /// Sorted granule positions where the pattern occurs.
    pub support: SupportSet,
    /// `granule_starts[i]` is the index in `bindings` of the first binding
    /// of granule `support[i]`.
    granule_starts: Vec<u32>,
    /// Binding ids (into the level's pool, `k` slots each), granule-major.
    bindings: Vec<u32>,
}

impl PatternEntry {
    /// Total number of occurrences (bindings) of the pattern.
    #[must_use]
    pub fn num_bindings(&self) -> usize {
        self.bindings.len()
    }

    /// The binding ids of granule `support[idx]` — a two-offset lookup for
    /// callers that located the granule via an indexed intersection. Resolve
    /// each id to its instance slice with [`HlhK::binding`]. Empty on a
    /// terminal level, which records no bindings.
    #[must_use]
    // lint: hot-path
    pub fn binding_ids_at_index(&self, idx: usize) -> &[u32] {
        if self.granule_starts.is_empty() {
            return &[];
        }
        let start = self.granule_starts[idx] as usize;
        let end = self
            .granule_starts
            .get(idx + 1)
            .map_or(self.bindings.len(), |&s| s as usize);
        &self.bindings[start..end]
    }

    /// Approximate heap footprint in bytes (pool slots are accounted by the
    /// level, not per pattern).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.support.len() * std::mem::size_of::<GranulePos>()
            + self.granule_starts.len() * std::mem::size_of::<u32>()
            + self.bindings.len() * std::mem::size_of::<u32>()
            + std::mem::size_of_val(self.pattern.events())
            + self.pattern.triples().len() * 4
    }
}

/// Per-group entry of `HLH_k`: the sorted event group (owned by the arena),
/// its support set, and the ids of its candidate patterns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GroupEntry {
    /// The group's events, sorted canonically.
    pub events: Vec<EventLabel>,
    /// The support set of the event group.
    pub support: SupportSet,
    /// Ids of the group's candidate patterns in the pattern arena.
    pub patterns: Vec<PatternId>,
}

/// The level-2 relation graph as a bitset adjacency matrix over interned
/// `F_1` label ids (the indices of the sorted candidate-label list).
///
/// Row `i` has bit `j` set iff some candidate 2-pattern relates labels `i`
/// and `j`. Built once after level 2, it turns the per-member
/// `has_relation_between` hash probes of the transitivity pruning (Lemma 4)
/// into one bitwise AND over the members' rows: the surviving bits *are* the
/// extension candidates, so the per-group `F_1` scan disappears with them.
#[derive(Debug, Clone, Default)]
pub struct RelationAdjacency {
    /// The interned labels, sorted canonically — bit/row `i` is `labels[i]`.
    labels: Vec<EventLabel>,
    /// `u64` words per row.
    words_per_row: usize,
    /// Row-major bit matrix, `labels.len() * words_per_row` words.
    bits: Vec<u64>,
}

impl RelationAdjacency {
    /// Builds the adjacency matrix of one `HLH_2` over the sorted candidate
    /// labels `labels` (every event of every level-2 group must appear in
    /// `labels`). Groups whose pattern list is empty contribute no edge —
    /// matching [`HlhK::has_relation_between`].
    #[must_use]
    pub fn build(hlh2: &HlhK, labels: &[EventLabel]) -> Self {
        debug_assert_eq!(hlh2.k, 2, "adjacency is derived from HLH_2");
        debug_assert!(labels.windows(2).all(|w| w[0] < w[1]), "labels are sorted");
        let n = labels.len();
        let words_per_row = n.div_ceil(64);
        let mut bits = vec![0u64; n * words_per_row];
        for group in &hlh2.groups {
            if group.patterns.is_empty() {
                continue;
            }
            let i = labels
                .binary_search(&group.events[0])
                .expect("group events come from the candidate labels");
            let j = labels
                .binary_search(&group.events[1])
                .expect("group events come from the candidate labels");
            bits[i * words_per_row + j / 64] |= 1 << (j % 64);
            bits[j * words_per_row + i / 64] |= 1 << (i % 64);
        }
        Self {
            labels: labels.to_vec(),
            words_per_row,
            bits,
        }
    }

    /// Number of interned labels (rows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the matrix holds no labels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The interned id of a label, if it is a candidate.
    #[must_use]
    pub fn index_of(&self, label: EventLabel) -> Option<usize> {
        self.labels.binary_search(&label).ok()
    }

    /// The label of one interned id.
    #[must_use]
    pub fn label(&self, id: usize) -> EventLabel {
        self.labels[id]
    }

    /// The neighbor row of label id `id`.
    #[must_use]
    // lint: hot-path
    pub fn row(&self, id: usize) -> &[u64] {
        &self.bits[id * self.words_per_row..][..self.words_per_row]
    }

    /// Whether a candidate 2-pattern relates the labels with ids `i` and `j`
    /// — the transitivity lookup as a single bit test.
    #[must_use]
    // lint: hot-path
    pub fn has_relation_between(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words_per_row + j / 64] & (1 << (j % 64)) != 0
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.labels.len() * std::mem::size_of::<EventLabel>()
            + self.bits.len() * std::mem::size_of::<u64>()
    }
}

/// CSR side table of the level-2 relation verdicts: for every processed
/// candidate pair, for every shared granule, the packed
/// [`encode_verdict`](crate::relation::encode_verdict) byte of every instance
/// cross-product cell, row-major (`first-event instance × second-event
/// instance` in the granule's `HLH_1` slice order).
///
/// Level k ≥ 3 classifies the *same* interval pairs level 2 already decided
/// — the member of a (k−1)-binding against the extension event's instances.
/// The table makes that a byte load: pair → (hash probe once per group ×
/// extension), granule → (a forward-cursor seek that gallops over the
/// granules the ascending walk skipped), cell → offset arithmetic.
#[derive(Debug, Clone, Default)]
pub struct VerdictTable {
    /// Canonically ordered packed label pair → pair slot.
    pair_index: FxHashMap<[u64; 2], u32>,
    /// `pair_starts[p]` is the first granule slot of pair `p`; the range
    /// ends at `pair_starts[p + 1]` (or `granules.len()` for the last pair).
    pair_starts: Vec<u32>,
    /// Granule positions, concatenated per pair (sorted within each pair).
    granules: Vec<GranulePos>,
    /// `block_starts[g]` is the first byte of granule slot `g`'s verdict
    /// block; blocks are contiguous, so the block ends at the next start.
    block_starts: Vec<u32>,
    /// The verdict bytes of every block, concatenated.
    verdicts: Vec<u8>,
}

impl VerdictTable {
    fn pair_key(a: EventLabel, b: EventLabel) -> [u64; 2] {
        if a <= b {
            [encode_label(a), encode_label(b)]
        } else {
            [encode_label(b), encode_label(a)]
        }
    }

    /// Opens recording for a pair (its granules and blocks must then arrive
    /// in ascending granule order). Each pair must be recorded exactly once.
    pub fn begin_pair(&mut self, a: EventLabel, b: EventLabel) {
        let slot = u32::try_from(self.pair_starts.len()).expect("pair count fits u32");
        let previous = self.pair_index.insert(Self::pair_key(a, b), slot);
        debug_assert!(previous.is_none(), "pair recorded twice");
        self.pair_starts
            .push(u32::try_from(self.granules.len()).expect("granule slots fit u32"));
    }

    /// Opens the verdict block of the current pair's next granule.
    pub fn begin_granule(&mut self, granule: GranulePos) {
        self.granules.push(granule);
        self.block_starts
            .push(u32::try_from(self.verdicts.len()).expect("verdict bytes fit u32"));
    }

    /// Appends one verdict byte to the current block (row-major cell order).
    // lint: hot-path
    pub fn push_verdict(&mut self, verdict: u8) {
        self.verdicts.push(verdict);
    }

    /// The recorded verdicts of one label pair (order-insensitive), if the
    /// pair was processed at level 2.
    #[must_use]
    // lint: hot-path
    pub fn pair(&self, a: EventLabel, b: EventLabel) -> Option<PairVerdicts<'_>> {
        let &slot = self.pair_index.get(&Self::pair_key(a, b))?;
        let start = self.pair_starts[slot as usize] as usize;
        let end = self
            .pair_starts
            .get(slot as usize + 1)
            .map_or(self.granules.len(), |&s| s as usize);
        Some(PairVerdicts {
            table: self,
            start,
            end,
        })
    }

    /// Concatenates another table's rows after this one's (shards partition
    /// the pair space, so keys never collide).
    fn merge_from(&mut self, shard: VerdictTable) {
        let pair_offset = u32::try_from(self.pair_starts.len()).expect("pair count fits u32");
        let granule_offset = u32::try_from(self.granules.len()).expect("granule slots fit u32");
        let verdict_offset = u32::try_from(self.verdicts.len()).expect("verdict bytes fit u32");
        #[expect(
            clippy::iter_over_hash_type,
            reason = "moves keys between hash maps: shards never share a key, so \
                      the merged map holds the same entries in any visit order"
        )]
        for (key, slot) in shard.pair_index {
            let previous = self.pair_index.insert(key, slot + pair_offset);
            assert!(previous.is_none(), "verdict pair produced by two shards");
        }
        self.pair_starts
            .extend(shard.pair_starts.iter().map(|&s| s + granule_offset));
        self.granules.extend_from_slice(&shard.granules);
        self.block_starts
            .extend(shard.block_starts.iter().map(|&s| s + verdict_offset));
        self.verdicts.extend_from_slice(&shard.verdicts);
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.pair_index.len() * std::mem::size_of::<[u64; 2]>()
            + self.pair_starts.len() * std::mem::size_of::<u32>()
            + self.granules.len() * std::mem::size_of::<GranulePos>()
            + self.block_starts.len() * std::mem::size_of::<u32>()
            + self.verdicts.len()
    }
}

/// The recorded verdict blocks of one label pair — a window into the
/// [`VerdictTable`].
#[derive(Debug, Clone, Copy)]
pub struct PairVerdicts<'a> {
    table: &'a VerdictTable,
    /// First granule slot of the pair.
    start: usize,
    /// One past the pair's last granule slot.
    end: usize,
}

impl<'a> PairVerdicts<'a> {
    /// The verdict block of one granule: the row-major bytes of the
    /// instance cross-product, or `None` when the granule was not processed
    /// for this pair. Index cell `(i, j)` as `block[i * cols + j]`, where
    /// `cols` is the second (larger-label) event's instance count in the
    /// granule. `cursor` walks this pair's granules (see [`SupportCursor`]).
    #[must_use]
    // lint: hot-path
    pub fn block_at_cursor(
        &self,
        cursor: &mut SupportCursor,
        granule: GranulePos,
    ) -> Option<&'a [u8]> {
        let granules = &self.table.granules[self.start..self.end];
        let idx = self.start + cursor.seek(granules, granule)?;
        let start = self.table.block_starts[idx] as usize;
        let end = self
            .table
            .block_starts
            .get(idx + 1)
            .map_or(self.table.verdicts.len(), |&s| s as usize);
        Some(&self.table.verdicts[start..end])
    }
}

/// Candidate counts and footprint of one level (see
/// [`HlhK::summary`] and [`HlhK::candidate_summary`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelSummary {
    /// Groups holding at least one counted pattern.
    pub groups: usize,
    /// Counted patterns.
    pub patterns: usize,
    /// Footprint in bytes of the level holding exactly the counted patterns
    /// and groups (what [`HlhK::footprint_bytes`] reports for it).
    pub footprint_bytes: usize,
}

/// The hierarchical lookup hash structure for k-event groups and patterns
/// (`HLH_k`, k ≥ 2).
///
/// A level is filled one group at a time: [`begin_group`](Self::begin_group),
/// any number of [`add_pattern_occurrence`](Self::add_pattern_occurrence)
/// calls, [`end_group`](Self::end_group). Each group must be produced by
/// exactly one such stretch — that is what makes group-local pattern
/// interning exact. Debug builds and the `strict-invariants` feature reject a
/// reopened group, and [`validate`](Self::validate) rejects two patterns of
/// one group with the same key.
#[derive(Debug, Clone, Default)]
pub struct HlhK {
    k: usize,
    /// Group arena, in insertion order.
    groups: Vec<GroupEntry>,
    /// Packed event labels → group id.
    group_index: FxHashMap<Box<[u64]>, GroupId>,
    /// Pattern arena, in insertion order; the patterns of one group are
    /// contiguous.
    patterns: Vec<PatternEntry>,
    /// Flat instance pool: binding `b` occupies slots `b*k .. (b+1)*k`.
    /// Empty for terminal levels, which record no bindings at all.
    pool: Vec<EventInstance>,
    /// Whether occurrences append their binding to the pool. `false` for the
    /// terminal level of a run: no later level reads its bindings.
    record_bindings: bool,
    /// Level-2 relation verdicts (empty unless this is a non-terminal
    /// `HLH_2` mined with verdict recording).
    verdicts: VerdictTable,
    /// Whether the last arena group is open (between `begin_group` and
    /// `end_group`).
    open: bool,
    /// Interning keys of the open group's patterns, entry `e` keying its
    /// `e`-th pattern: the base of each entry, and its codes (`k − 1` bytes
    /// each).
    open_bases: Vec<u32>,
    open_codes: Vec<u8>,
}

impl HlhK {
    /// Creates an empty structure for k-event groups.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            k,
            record_bindings: true,
            ..Self::default()
        }
    }

    /// Creates an empty *terminal* level: occurrences are counted into the
    /// supports as usual, but no binding is appended to the instance pool.
    /// The miner uses this for `k == maxPatternLen` — nothing ever reads the
    /// last level's bindings, and the pool is where most of a level's
    /// footprint lives.
    #[must_use]
    pub fn new_terminal(k: usize) -> Self {
        Self {
            record_bindings: false,
            ..Self::new(k)
        }
    }

    /// The level-2 relation verdict side table (empty for k ≥ 3 levels and
    /// for runs that never reach level 3).
    #[must_use]
    pub fn verdict_table(&self) -> &VerdictTable {
        &self.verdicts
    }

    /// Mutable access to the verdict side table, for the level-2 miner to
    /// record into.
    #[must_use]
    pub fn verdict_table_mut(&mut self) -> &mut VerdictTable {
        &mut self.verdicts
    }

    fn encode_group(members: &[EventLabel]) -> Box<[u64]> {
        members.iter().copied().map(encode_label).collect()
    }

    /// Opens the next candidate group, with its canonically sorted events
    /// and its support set, and returns its id. Its patterns are added by
    /// [`add_pattern_occurrence`](Self::add_pattern_occurrence) until
    /// [`end_group`](Self::end_group) closes it.
    ///
    /// # Panics
    /// With strict checks on (see [`crate::invariants`]), when a group is
    /// already open or the level already holds a group with these events —
    /// every group must be produced by one contiguous stretch.
    pub fn begin_group(&mut self, events: &[EventLabel], support: &[GranulePos]) -> GroupId {
        if crate::invariants::strict_checks_enabled() {
            assert!(!self.open, "begin_group while another group is open");
            assert!(
                self.group(events).is_none(),
                "group {events:?} reopened: every group must be produced by one contiguous stretch"
            );
        }
        let id = GroupId(u32::try_from(self.groups.len()).expect("group count fits u32"));
        self.groups.push(GroupEntry {
            events: events.to_vec(),
            support: support.to_vec(),
            patterns: Vec::new(),
        });
        self.open_bases.clear();
        self.open_codes.clear();
        self.open = true;
        id
    }

    /// Closes the open group. A group that received no pattern is dropped
    /// again: it would never be extended, so it must not count as a
    /// candidate group.
    ///
    /// # Panics
    /// With strict checks on, when no group is open.
    pub fn end_group(&mut self) {
        if crate::invariants::strict_checks_enabled() {
            assert!(self.open, "end_group without an open group");
        }
        self.open = false;
        let Some(last) = self.groups.last() else {
            return;
        };
        if last.patterns.is_empty() {
            self.groups.pop();
        } else {
            let id = GroupId(u32::try_from(self.groups.len() - 1).expect("group count fits u32"));
            self.group_index
                .insert(Self::encode_group(&last.events), id);
        }
    }

    /// The candidate k-event groups, sorted canonically by their events.
    #[must_use]
    pub fn groups(&self) -> Vec<&GroupEntry> {
        let mut groups: Vec<&GroupEntry> = self.groups.iter().collect();
        groups.sort_by(|a, b| a.events.cmp(&b.events));
        groups
    }

    /// Entry of one group, looked up by its event list.
    #[must_use]
    pub fn group(&self, events: &[EventLabel]) -> Option<&GroupEntry> {
        self.group_index
            .get(&Self::encode_group(events))
            .map(|&id| &self.groups[id.0 as usize])
    }

    /// Entry of one pattern id.
    #[must_use]
    pub fn pattern(&self, id: PatternId) -> &PatternEntry {
        &self.patterns[id.0 as usize]
    }

    /// The instance slice of one binding id.
    #[must_use]
    // lint: hot-path
    pub fn binding(&self, id: u32) -> &[EventInstance] {
        &self.pool[id as usize * self.k..][..self.k]
    }

    /// Adds one occurrence of a candidate pattern of the open group. Within
    /// the group the pattern is identified by `base`, the id of the
    /// (k−1)-pattern it extends (any constant at level 2), and `codes`, the
    /// [`encode_verdict`](crate::relation::encode_verdict) byte of the
    /// relation between each earlier event and the newest one (`k − 1`
    /// bytes). `make_pattern` is invoked only when the key is new to the
    /// group; the constructed pattern is stored once in the arena and never
    /// cloned. The binding is `prefix` followed by `last` — the pool append
    /// copies the instances, so callers extend a (k−1)-binding slice without
    /// materialising an owned vector.
    ///
    /// Occurrences of one pattern must arrive in non-decreasing granule
    /// order (level mining scans granules in order per candidate).
    ///
    /// # Panics
    /// With strict checks on, when no group is open.
    // lint: hot-path
    pub fn add_pattern_occurrence<F>(
        &mut self,
        base: u32,
        codes: &[u8],
        make_pattern: F,
        granule: GranulePos,
        prefix: &[EventInstance],
        last: EventInstance,
    ) -> PatternId
    where
        F: FnOnce() -> TemporalPattern,
    {
        if crate::invariants::strict_checks_enabled() {
            assert!(self.open, "add_pattern_occurrence outside an open group");
        }
        debug_assert_eq!(prefix.len() + 1, self.k, "binding length must be k");
        debug_assert_eq!(codes.len() + 1, self.k, "interning keys have k - 1 codes");
        // Newest entries first: the patterns extending the base being walked
        // sit at the end, so a repeat occurrence is found after a few
        // compares, and only a new pattern scans the whole group.
        let width = codes.len();
        let known = (0..self.open_bases.len()).rev().find(|&e| {
            self.open_bases[e] == base && self.open_codes[e * width..][..width] == *codes
        });
        let group = self.groups.last_mut().expect("a group is open");
        let id = if let Some(entry) = known {
            group.patterns[entry]
        } else {
            let id = PatternId(u32::try_from(self.patterns.len()).expect("patterns fit u32"));
            let pattern = make_pattern();
            debug_assert_eq!(
                pattern.events(),
                group.events.as_slice(),
                "a pattern belongs to the group of its events"
            );
            self.patterns.push(PatternEntry {
                pattern,
                // lint:allow(hot-path-alloc): first-occurrence arm
                support: Vec::new(),
                // lint:allow(hot-path-alloc): first-occurrence arm
                granule_starts: Vec::new(),
                // lint:allow(hot-path-alloc): first-occurrence arm
                bindings: Vec::new(),
            });
            group.patterns.push(id);
            self.open_bases.push(base);
            self.open_codes.extend_from_slice(codes);
            id
        };
        let entry = &mut self.patterns[id.0 as usize];
        let new_granule = match entry.support.last() {
            Some(&g) if g == granule => false,
            other => {
                debug_assert!(other.is_none_or(|&g| g < granule), "granules must ascend");
                entry.support.push(granule);
                true
            }
        };
        if self.record_bindings {
            if new_granule {
                entry
                    .granule_starts
                    .push(u32::try_from(entry.bindings.len()).expect("bindings fit u32"));
            }
            let binding_id =
                u32::try_from(self.pool.len() / self.k).expect("binding count fits u32");
            self.pool.extend_from_slice(prefix);
            self.pool.push(last);
            entry.bindings.push(binding_id);
        }
        id
    }

    /// Drops the candidate patterns that fail the `maxSeason` gate (applied
    /// after all occurrences of a group have been collected), together with
    /// any group whose pattern list becomes empty — such a group would never
    /// be extended again, so keeping it would only inflate `num_groups()` and
    /// `footprint_bytes()`. The instance pool is compacted alongside, which
    /// also makes every surviving pattern's bindings contiguous, and the
    /// group index is remapped to the compacted ids. Returns the number of
    /// patterns removed.
    pub fn retain_candidates(&mut self, config: &ResolvedConfig) -> usize {
        let keep: Vec<bool> = self
            .patterns
            .iter()
            .map(|entry| config.is_candidate(entry.support.len()))
            .collect();
        let removed = keep.iter().filter(|&&k| !k).count();
        if removed == 0 {
            return 0;
        }
        // Compact the pattern arena and the pool, remapping binding ids.
        let mut remap: Vec<Option<PatternId>> = vec![None; self.patterns.len()];
        let mut new_patterns = Vec::with_capacity(self.patterns.len() - removed);
        let mut new_pool = Vec::new();
        for (idx, mut entry) in self.patterns.drain(..).enumerate() {
            if !keep[idx] {
                continue;
            }
            remap[idx] = Some(PatternId(
                u32::try_from(new_patterns.len()).expect("patterns fit u32"),
            ));
            for binding in &mut entry.bindings {
                let old = *binding as usize * self.k;
                *binding = u32::try_from(new_pool.len() / self.k).expect("bindings fit u32");
                new_pool.extend_from_slice(&self.pool[old..old + self.k]);
            }
            new_patterns.push(entry);
        }
        self.patterns = new_patterns;
        self.pool = new_pool;
        // Compact the group arena, dropping groups that lost every pattern,
        // and remap the group index onto the surviving ids.
        let mut group_remap: Vec<Option<GroupId>> = Vec::with_capacity(self.groups.len());
        let mut new_groups = Vec::with_capacity(self.groups.len());
        for mut group in self.groups.drain(..) {
            group.patterns = group
                .patterns
                .iter()
                .filter_map(|id| remap[id.0 as usize])
                .collect();
            if group.patterns.is_empty() {
                group_remap.push(None);
            } else {
                group_remap.push(Some(GroupId(
                    u32::try_from(new_groups.len()).expect("groups fit u32"),
                )));
                new_groups.push(group);
            }
        }
        self.groups = new_groups;
        self.group_index
            .retain(|_, id| match group_remap[id.0 as usize] {
                Some(new_id) => {
                    *id = new_id;
                    true
                }
                None => false,
            });
        removed
    }

    /// Merges per-shard levels produced by parallel mining into one `HLH_k`,
    /// preserving shard order. Sharding partitions the candidate space so
    /// that every group (and therefore every pattern) is produced by exactly
    /// one shard; concatenating the arenas and the pools in shard order —
    /// remapping each shard's ids by a constant offset — makes the merged
    /// level identical to the one sequential mining builds.
    ///
    /// # Panics
    /// Panics when two shards produced the same group — that would mean the
    /// shards did not partition the candidate space — or when a shard still
    /// has an open group.
    #[must_use]
    pub fn merge_shards(k: usize, shards: Vec<HlhK>) -> Self {
        let mut merged = Self::new(k);
        if let Some(first) = shards.first() {
            merged.record_bindings = first.record_bindings;
        }
        for shard in shards {
            assert_eq!(shard.k, k, "cannot merge levels of different k");
            assert_eq!(
                shard.record_bindings, merged.record_bindings,
                "cannot merge terminal and non-terminal shards"
            );
            assert!(!shard.open, "cannot merge a shard with an open group");
            merged.verdicts.merge_from(shard.verdicts);
            let pattern_offset = u32::try_from(merged.patterns.len()).expect("patterns fit u32");
            let group_offset = u32::try_from(merged.groups.len()).expect("groups fit u32");
            let binding_offset =
                u32::try_from(merged.pool.len() / k.max(1)).expect("bindings fit u32");
            #[expect(
                clippy::iter_over_hash_type,
                reason = "moves keys between hash maps: shards never share a key, so \
                          the merged map holds the same entries in any visit order"
            )]
            for (key, id) in shard.group_index {
                let previous = merged.group_index.insert(key, GroupId(id.0 + group_offset));
                assert!(previous.is_none(), "group produced by two shards");
            }
            for mut entry in shard.patterns {
                for binding in &mut entry.bindings {
                    *binding += binding_offset;
                }
                merged.patterns.push(entry);
            }
            for mut group in shard.groups {
                for id in &mut group.patterns {
                    id.0 += pattern_offset;
                }
                merged.groups.push(group);
            }
            merged.pool.extend_from_slice(&shard.pool);
        }
        merged
    }

    /// The candidate pattern entries of this level, in insertion order.
    #[must_use]
    pub fn patterns(&self) -> &[PatternEntry] {
        &self.patterns
    }

    /// Whether any candidate pattern of this level relates the two events
    /// (in either orientation). This is the lookup behind the transitivity
    /// pruning (Lemma 4) and the iterative verification of Section IV-D.
    /// The pair key is packed on the stack — no allocation per probe.
    #[must_use]
    pub fn has_relation_between(&self, a: EventLabel, b: EventLabel) -> bool {
        let key: [u64; 2] = if a <= b {
            [encode_label(a), encode_label(b)]
        } else {
            [encode_label(b), encode_label(a)]
        };
        // Every registered group holds at least one pattern.
        self.group_index.contains_key(&key[..])
    }

    /// Number of candidate groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Whether the level holds no candidate patterns.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The distinct event labels participating in any candidate pattern of
    /// this level (used to build `FilteredF_1`).
    #[must_use]
    pub fn participating_events(&self) -> Vec<EventLabel> {
        let mut labels: Vec<EventLabel> = self
            .patterns
            .iter()
            .flat_map(|p| p.pattern.events().iter().copied())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// Group and pattern counts and the footprint of the level as it stands.
    #[must_use]
    pub fn summary(&self) -> LevelSummary {
        self.summary_where(|_| true)
    }

    /// The counts and footprint the level would have after
    /// [`retain_candidates`](Self::retain_candidates), computed without
    /// compacting anything — the miner's count-only path for a terminal
    /// level, which is never read again.
    #[must_use]
    pub fn candidate_summary(&self, config: &ResolvedConfig) -> LevelSummary {
        self.summary_where(|entry| config.is_candidate(entry.support.len()))
    }

    /// Approximate heap footprint in bytes. Depends only on element counts
    /// (never on capacities or map layout), so the sequential and the merged
    /// parallel structures report identical footprints.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.summary().footprint_bytes
    }

    /// Counts the patterns `keep` accepts, the groups holding at least one
    /// of them, and the footprint of a level holding exactly those: their
    /// arena entries, one group-index key per group, and their bindings'
    /// pool slots.
    fn summary_where(&self, keep: impl Fn(&PatternEntry) -> bool) -> LevelSummary {
        let mut summary = LevelSummary::default();
        let mut pool_slots = 0usize;
        for group in &self.groups {
            let mut kept = 0usize;
            for &id in &group.patterns {
                let entry = self.pattern(id);
                if keep(entry) {
                    kept += 1;
                    summary.footprint_bytes += entry.footprint_bytes();
                    pool_slots += entry.num_bindings() * self.k;
                }
            }
            if kept > 0 {
                summary.groups += 1;
                summary.patterns += kept;
                summary.footprint_bytes += group.events.len()
                    * (std::mem::size_of::<EventLabel>() + std::mem::size_of::<u64>())
                    + group.support.len() * std::mem::size_of::<GranulePos>()
                    + kept * std::mem::size_of::<PatternId>();
            }
        }
        summary.footprint_bytes +=
            pool_slots * std::mem::size_of::<EventInstance>() + self.verdicts.footprint_bytes();
        summary
    }
}

// ---------------------------------------------------------------------------
// Structural validation (see the `invariants` module). The walks below check
// every layout invariant the accessors rely on without bounds checks of
// their own design — CSR offsets monotone and in bounds, index maps
// consistent with their arenas, patterns unique within their group, pool
// slot arithmetic exact. Validation outcome is order-insensitive, so
// iterating the hash indexes is sound.
// ---------------------------------------------------------------------------

use crate::invariants::{invariant, InvariantViolation};

fn ascends(values: &[GranulePos]) -> bool {
    values.windows(2).all(|w| w[0] < w[1])
}

impl Hlh1 {
    /// Validates the structural invariants of the table: the cached label
    /// list is sorted and mirrors the key set, every support set ascends
    /// strictly, and every CSR instance-offset array is monotone, in bounds
    /// and aligned with its support set.
    ///
    /// # Errors
    /// The first [`InvariantViolation`] found, if any.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        const S: &str = "Hlh1";
        invariant!(
            S,
            self.labels.windows(2).all(|w| w[0] < w[1]),
            "cached label list is not strictly sorted"
        );
        invariant!(
            S,
            self.labels.len() == self.events.len(),
            "label cache has {} labels but the table has {} entries",
            self.labels.len(),
            self.events.len()
        );
        for &label in &self.labels {
            let Some(entry) = self.events.get(&label) else {
                return Err(InvariantViolation::new(
                    S,
                    format!("cached label {label:?} has no table entry"),
                ));
            };
            invariant!(
                S,
                ascends(&entry.support),
                "support of {label:?} is not strictly ascending"
            );
            invariant!(
                S,
                entry.starts.len() == entry.support.len(),
                "entry of {label:?} has {} granule offsets for {} supporting granules",
                entry.starts.len(),
                entry.support.len()
            );
            invariant!(
                S,
                entry.starts.first().is_none_or(|&s| s == 0),
                "instance offsets of {label:?} do not start at 0"
            );
            invariant!(
                S,
                entry.starts.windows(2).all(|w| w[0] < w[1]),
                "instance offsets of {label:?} are not strictly ascending (every granule run is non-empty)"
            );
            invariant!(
                S,
                entry
                    .starts
                    .last()
                    .is_none_or(|&s| (s as usize) < entry.instances.len()),
                "instance offsets of {label:?} point past the instance pool"
            );
            invariant!(
                S,
                entry.support.is_empty() == entry.instances.is_empty(),
                "entry of {label:?} has granules without instances (or vice versa)"
            );
        }
        Ok(())
    }
}

impl VerdictTable {
    /// Validates the block shape of the table: the pair index is a
    /// permutation of the pair slots, the pair→granule and granule→byte
    /// offset arrays are monotone and in bounds, and granules ascend
    /// strictly within each pair.
    ///
    /// # Errors
    /// The first [`InvariantViolation`] found, if any.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        const S: &str = "VerdictTable";
        invariant!(
            S,
            self.pair_index.len() == self.pair_starts.len(),
            "pair index has {} keys for {} pair slots",
            self.pair_index.len(),
            self.pair_starts.len()
        );
        let mut seen = vec![false; self.pair_starts.len()];
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "validation: whether any entry breaks an invariant does not depend on visit order"
        )]
        for &slot in self.pair_index.values() {
            invariant!(
                S,
                (slot as usize) < self.pair_starts.len(),
                "pair slot {slot} out of range"
            );
            invariant!(
                S,
                !std::mem::replace(&mut seen[slot as usize], true),
                "pair slot {slot} indexed twice"
            );
        }
        invariant!(
            S,
            self.pair_starts.windows(2).all(|w| w[0] <= w[1]),
            "pair→granule offsets are not monotone"
        );
        invariant!(
            S,
            self.pair_starts
                .last()
                .is_none_or(|&s| (s as usize) <= self.granules.len()),
            "pair→granule offsets point past the granule slots"
        );
        invariant!(
            S,
            self.block_starts.len() == self.granules.len(),
            "{} verdict blocks for {} granule slots",
            self.block_starts.len(),
            self.granules.len()
        );
        invariant!(
            S,
            self.block_starts.windows(2).all(|w| w[0] <= w[1]),
            "granule→byte offsets are not monotone"
        );
        invariant!(
            S,
            self.block_starts
                .last()
                .is_none_or(|&s| (s as usize) <= self.verdicts.len()),
            "granule→byte offsets point past the verdict bytes"
        );
        for (slot, &start) in self.pair_starts.iter().enumerate() {
            let end = self
                .pair_starts
                .get(slot + 1)
                .map_or(self.granules.len(), |&s| s as usize);
            invariant!(
                S,
                ascends(&self.granules[start as usize..end]),
                "granules of pair slot {slot} are not strictly ascending"
            );
        }
        Ok(())
    }
}

impl HlhK {
    /// Validates the structural invariants of the level: no group left
    /// open, group index consistency (the index is a permutation of the
    /// arena and every key re-encodes its group), every group non-empty and
    /// every pattern listed under exactly one group whose events it has, no
    /// two patterns of one group with the same key, strictly ascending
    /// support sets, monotone in-bounds binding CSR offsets, exact pool slot
    /// arithmetic, and the [`VerdictTable`] block shape.
    ///
    /// # Errors
    /// The first [`InvariantViolation`] found, if any.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        const S: &str = "HlhK";
        invariant!(S, self.k >= 2, "level arity {} below 2", self.k);
        invariant!(
            S,
            !self.open,
            "group {} is still open",
            self.groups.len() - 1
        );
        self.validate_groups()?;
        self.validate_patterns()?;
        invariant!(
            S,
            self.pool.len().is_multiple_of(self.k),
            "pool length {} is not a multiple of k={}",
            self.pool.len(),
            self.k
        );
        invariant!(
            S,
            self.record_bindings || self.pool.is_empty(),
            "terminal level carries {} pool slots",
            self.pool.len()
        );
        self.verdicts.validate()
    }

    fn validate_groups(&self) -> Result<(), InvariantViolation> {
        const S: &str = "HlhK";
        invariant!(
            S,
            self.group_index.len() == self.groups.len(),
            "group index has {} keys for {} arena entries",
            self.group_index.len(),
            self.groups.len()
        );
        let mut seen = vec![false; self.groups.len()];
        #[expect(
            clippy::iter_over_hash_type,
            reason = "validation: whether any entry breaks an invariant does not depend on visit order"
        )]
        for (key, &id) in &self.group_index {
            let Some(group) = self.groups.get(id.0 as usize) else {
                return Err(InvariantViolation::new(
                    S,
                    format!("group id {} out of range", id.0),
                ));
            };
            invariant!(
                S,
                !std::mem::replace(&mut seen[id.0 as usize], true),
                "group id {} indexed twice",
                id.0
            );
            invariant!(
                S,
                Self::encode_group(&group.events) == *key,
                "group index key does not re-encode group {}",
                id.0
            );
        }
        let mut listed = vec![false; self.patterns.len()];
        let mut keys: Vec<&[RelationTriple]> = Vec::new();
        for (idx, group) in self.groups.iter().enumerate() {
            invariant!(
                S,
                group.events.len() == self.k,
                "group {idx} has {} events at level k={}",
                group.events.len(),
                self.k
            );
            invariant!(
                S,
                group.events.windows(2).all(|w| w[0] < w[1]),
                "events of group {idx} are not canonically sorted"
            );
            invariant!(
                S,
                ascends(&group.support),
                "support of group {idx} is not strictly ascending"
            );
            invariant!(S, !group.patterns.is_empty(), "group {idx} has no pattern");
            keys.clear();
            for &pid in &group.patterns {
                let Some(entry) = self.patterns.get(pid.0 as usize) else {
                    return Err(InvariantViolation::new(
                        S,
                        format!("group {idx} lists pattern id {} out of range", pid.0),
                    ));
                };
                invariant!(
                    S,
                    !std::mem::replace(&mut listed[pid.0 as usize], true),
                    "pattern {} is listed twice",
                    pid.0
                );
                invariant!(
                    S,
                    entry.pattern.events() == group.events.as_slice(),
                    "pattern {} listed under group {idx} has different events",
                    pid.0
                );
                keys.push(entry.pattern.triples());
            }
            // Same events, so a pattern's key within its group is its
            // triple list: group-local interning must never produce a key
            // twice.
            keys.sort_unstable();
            invariant!(
                S,
                keys.windows(2).all(|w| w[0] != w[1]),
                "two patterns of group {idx} share a key"
            );
        }
        invariant!(
            S,
            listed.iter().all(|&l| l),
            "a pattern is listed under no group"
        );
        Ok(())
    }

    fn validate_patterns(&self) -> Result<(), InvariantViolation> {
        const S: &str = "HlhK";
        let num_bindings = self.pool.len().checked_div(self.k).unwrap_or(0);
        let mut total_bindings = 0usize;
        for (idx, entry) in self.patterns.iter().enumerate() {
            invariant!(
                S,
                ascends(&entry.support),
                "support of pattern {idx} is not strictly ascending"
            );
            if !self.record_bindings {
                invariant!(
                    S,
                    entry.granule_starts.is_empty() && entry.bindings.is_empty(),
                    "terminal level records bindings for pattern {idx}"
                );
                continue;
            }
            total_bindings += entry.bindings.len();
            invariant!(
                S,
                entry.granule_starts.len() == entry.support.len(),
                "pattern {idx} has {} binding offsets for {} supporting granules",
                entry.granule_starts.len(),
                entry.support.len()
            );
            invariant!(
                S,
                entry.granule_starts.first().is_none_or(|&s| s == 0),
                "binding offsets of pattern {idx} do not start at 0"
            );
            invariant!(
                S,
                entry.granule_starts.windows(2).all(|w| w[0] < w[1]),
                "binding offsets of pattern {idx} are not strictly ascending"
            );
            invariant!(
                S,
                entry
                    .granule_starts
                    .last()
                    .is_none_or(|&s| (s as usize) < entry.bindings.len()),
                "binding offsets of pattern {idx} point past the binding list"
            );
            invariant!(
                S,
                entry.bindings.windows(2).all(|w| w[0] < w[1]),
                "binding ids of pattern {idx} are not strictly ascending"
            );
            invariant!(
                S,
                entry
                    .bindings
                    .last()
                    .is_none_or(|&b| (b as usize) < num_bindings),
                "pattern {idx} binds pool slots past the pool end"
            );
        }
        invariant!(
            S,
            !self.record_bindings || total_bindings == num_bindings,
            "patterns hold {total_bindings} bindings but the pool holds {num_bindings}"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StpmConfig, Threshold};
    use crate::relation::{encode_verdict, RelationKind};
    use stpm_timeseries::{
        Alphabet, Interval, SeriesId, SymbolId, SymbolicDatabase, SymbolicSeries,
    };

    fn config(min_density: u64, min_season: u64) -> ResolvedConfig {
        StpmConfig {
            max_period: Threshold::Absolute(2),
            min_density: Threshold::Absolute(min_density),
            dist_interval: (1, 50),
            min_season,
            ..StpmConfig::default()
        }
        .resolve(100)
        .unwrap()
    }

    fn small_dseq() -> SequenceDatabase {
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        let c = SymbolicSeries::from_labels(
            "C",
            &["1", "1", "0", "1", "0", "0", "0", "0", "0"],
            alphabet.clone(),
        )
        .unwrap();
        let d = SymbolicSeries::from_labels(
            "D",
            &["1", "0", "0", "1", "1", "0", "0", "0", "0"],
            alphabet,
        )
        .unwrap();
        SymbolicDatabase::new(vec![c, d])
            .unwrap()
            .to_sequence_database(3)
            .unwrap()
    }

    fn label(series: u32, symbol: u16) -> EventLabel {
        EventLabel::new(SeriesId(series), SymbolId(symbol))
    }

    /// Adds one occurrence the way the level-2 miner does: the verdict byte
    /// of the pattern's one relation is its key within the open group.
    fn add(
        hlh: &mut HlhK,
        pattern: &TemporalPattern,
        granule: GranulePos,
        binding: &[EventInstance],
    ) -> PatternId {
        let triple = pattern.triples()[0];
        let code = encode_verdict(triple.relation, triple.first == 1);
        let (prefix, last) = binding.split_at(binding.len() - 1);
        hlh.add_pattern_occurrence(0, &[code], || pattern.clone(), granule, prefix, last[0])
    }

    #[test]
    fn hlh1_build_collects_support_and_instances() {
        let dseq = small_dseq();
        let hlh1 = Hlh1::build(&dseq, &config(1, 1), false);
        // Events: C:0, C:1, D:0, D:1.
        assert_eq!(hlh1.len(), 4);
        assert!(!hlh1.is_empty());
        let c1 = label(0, 1);
        assert_eq!(hlh1.support(c1), &[1, 2]);
        // Granule 1 is support[0]: one instance, in the CSR slice.
        let entry = hlh1.entry(c1).unwrap();
        assert_eq!(entry.instances_at_index(0).len(), 1);
        assert_eq!(entry.instances_at_index(0)[0].interval, Interval::new(1, 2));
        assert_eq!(entry.instances_at_index(1).len(), 1);
        assert!(hlh1.entry(label(5, 0)).is_none());
        assert!(hlh1.footprint_bytes() > 0);
        // The cached label list is sorted and complete.
        assert_eq!(hlh1.labels().len(), 4);
        assert!(hlh1.labels().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn hlh1_candidate_filter_drops_rare_events() {
        let dseq = small_dseq();
        // minDensity 2, minSeason 2 → an event needs support >= 4 to be a candidate.
        let cfg = config(2, 2);
        let all = Hlh1::build(&dseq, &cfg, false);
        let filtered = Hlh1::build(&dseq, &cfg, true);
        assert!(filtered.len() < all.len());
        // C:0 occurs in granules 1, 2, 3 (support 3 < 4) → pruned.
        assert!(filtered.entry(label(0, 0)).is_none());
        // Support lookups for pruned events return the empty slice.
        assert!(filtered.support(label(0, 0)).is_empty());
        // The label cache reflects the filtering.
        assert_eq!(filtered.labels().len(), filtered.len());
        assert!(!filtered.labels().contains(&label(0, 0)));
    }

    #[test]
    fn hlh1_multiple_instances_in_one_granule() {
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        // 1,0,1 inside a single granule → two instances of C:1 at granule 1.
        let c = SymbolicSeries::from_labels("C", &["1", "0", "1"], alphabet).unwrap();
        let dseq = SymbolicDatabase::new(vec![c])
            .unwrap()
            .to_sequence_database(3)
            .unwrap();
        let hlh1 = Hlh1::build(&dseq, &config(1, 1), false);
        let entry = hlh1.entry(label(0, 1)).unwrap();
        assert_eq!(entry.instances_at_index(0).len(), 2);
    }

    #[test]
    fn hlhk_group_and_pattern_bookkeeping() {
        let mut hlh2 = HlhK::new(2);
        let group = vec![label(0, 1), label(1, 1)];
        let gid = hlh2.begin_group(&group, &[1, 2, 4]);
        let pattern =
            TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Contains, false);
        let binding = [
            EventInstance::new(label(0, 1), Interval::new(1, 2)),
            EventInstance::new(label(1, 1), Interval::new(1, 1)),
        ];
        let pid = add(&mut hlh2, &pattern, 1, &binding);
        assert_eq!(add(&mut hlh2, &pattern, 1, &binding), pid);
        assert_eq!(add(&mut hlh2, &pattern, 4, &binding), pid);
        hlh2.end_group();
        assert_eq!(gid, GroupId(0));
        assert_eq!(hlh2.num_groups(), 1);
        assert!(hlh2.group(&group).is_some());
        assert_eq!(hlh2.group(&group).unwrap().support, vec![1, 2, 4]);
        assert!(hlh2.group(&[label(0, 0)]).is_none());

        assert_eq!(hlh2.patterns().len(), 1);
        let entry = hlh2.pattern(pid);
        assert_eq!(entry.support, vec![1, 4]);
        assert_eq!(entry.num_bindings(), 3);
        assert_eq!(entry.binding_ids_at_index(0).len(), 2);
        assert_eq!(entry.binding_ids_at_index(1).len(), 1);
        // Every stored binding is the instance pair, in event order.
        for &b in entry.binding_ids_at_index(0) {
            assert_eq!(hlh2.binding(b), &binding);
        }
        assert_eq!(hlh2.group(&group).unwrap().patterns, vec![pid]);
        assert!(hlh2.has_relation_between(label(0, 1), label(1, 1)));
        assert!(hlh2.has_relation_between(label(1, 1), label(0, 1)));
        assert!(!hlh2.has_relation_between(label(0, 1), label(0, 0)));
        assert_eq!(hlh2.participating_events(), vec![label(0, 1), label(1, 1)]);
        assert!(hlh2.footprint_bytes() > 0);
        assert!(!hlh2.is_empty());
        hlh2.validate().unwrap();
    }

    #[test]
    fn group_local_interning_tells_keys_apart_within_a_group() {
        // Level 3: two base patterns of one 2-group, extended with the same
        // new verdict codes, are different 3-patterns; repeated keys hit.
        let mut hlh3 = HlhK::new(3);
        let events = [label(0, 1), label(1, 1), label(2, 1)];
        hlh3.begin_group(&events, &[1, 2]);
        let base_a = TemporalPattern::pair([events[0], events[1]], RelationKind::Follows, false);
        let base_b = TemporalPattern::pair([events[0], events[1]], RelationKind::Contains, false);
        let binding = [
            EventInstance::new(events[0], Interval::new(1, 1)),
            EventInstance::new(events[1], Interval::new(2, 2)),
        ];
        let last = EventInstance::new(events[2], Interval::new(3, 3));
        let codes = [
            encode_verdict(RelationKind::Follows, false),
            encode_verdict(RelationKind::Follows, false),
        ];
        let extend = |base: &TemporalPattern| {
            base.extended(
                events[2],
                vec![
                    RelationTriple::new(RelationKind::Follows, 0, 2),
                    RelationTriple::new(RelationKind::Follows, 1, 2),
                ],
            )
        };
        let a = hlh3.add_pattern_occurrence(7, &codes, || extend(&base_a), 1, &binding, last);
        let b = hlh3.add_pattern_occurrence(9, &codes, || extend(&base_b), 1, &binding, last);
        assert_ne!(a, b);
        let again = hlh3.add_pattern_occurrence(7, &codes, || unreachable!(), 2, &binding, last);
        assert_eq!(again, a);
        hlh3.end_group();
        assert_eq!(hlh3.patterns().len(), 2);
        assert_eq!(hlh3.pattern(a).support, vec![1, 2]);
        hlh3.validate().unwrap();
    }

    #[test]
    fn interning_tells_every_level_three_code_pair_apart() {
        // All 36 new-relation code pairs under one base are distinct
        // patterns, and a second pass finds each again.
        let mut hlh3 = HlhK::new_terminal(3);
        let events = [label(0, 1), label(1, 1), label(2, 1)];
        hlh3.begin_group(&events, &[1]);
        let binding = [
            EventInstance::new(events[0], Interval::new(1, 1)),
            EventInstance::new(events[1], Interval::new(2, 2)),
        ];
        let last = EventInstance::new(events[2], Interval::new(3, 3));
        let mut ids = Vec::new();
        for round in 0..2 {
            for first in 1..=6u8 {
                for second in 1..=6u8 {
                    let make = || {
                        let triple = |code: u8, idx: u8| {
                            let (kind, swapped) = crate::relation::decode_verdict(code).unwrap();
                            if swapped {
                                RelationTriple::new(kind, 2, idx)
                            } else {
                                RelationTriple::new(kind, idx, 2)
                            }
                        };
                        TemporalPattern::from_parts(
                            events.to_vec(),
                            vec![
                                RelationTriple::new(RelationKind::Follows, 0, 1),
                                triple(first, 0),
                                triple(second, 1),
                            ],
                        )
                    };
                    let id =
                        hlh3.add_pattern_occurrence(0, &[first, second], make, 1, &binding, last);
                    if round == 0 {
                        ids.push(id);
                    } else {
                        assert_eq!(
                            id,
                            ids[usize::from(first - 1) * 6 + usize::from(second - 1)]
                        );
                    }
                }
            }
        }
        hlh3.end_group();
        assert_eq!(hlh3.patterns().len(), 36);
        hlh3.validate().unwrap();
    }

    #[test]
    fn a_group_closed_without_patterns_is_dropped() {
        let mut hlh2 = HlhK::new(2);
        let empty = vec![label(0, 0), label(1, 0)];
        hlh2.begin_group(&empty, &[1, 2]);
        hlh2.end_group();
        assert_eq!(hlh2.num_groups(), 0);
        assert!(hlh2.group(&empty).is_none());
        // The next group takes the dropped group's id.
        let group = vec![label(0, 1), label(1, 1)];
        let gid = hlh2.begin_group(&group, &[3]);
        assert_eq!(gid, GroupId(0));
        let pattern = TemporalPattern::pair([group[0], group[1]], RelationKind::Follows, false);
        let binding = [
            EventInstance::new(group[0], Interval::new(1, 1)),
            EventInstance::new(group[1], Interval::new(2, 2)),
        ];
        add(&mut hlh2, &pattern, 3, &binding);
        hlh2.end_group();
        assert_eq!(hlh2.group(&group).unwrap().support, vec![3]);
        hlh2.validate().unwrap();
    }

    #[test]
    fn reopening_a_closed_group_is_rejected() {
        let group = vec![label(0, 1), label(1, 1)];
        let pattern = TemporalPattern::pair([group[0], group[1]], RelationKind::Follows, false);
        let binding = [
            EventInstance::new(group[0], Interval::new(1, 1)),
            EventInstance::new(group[1], Interval::new(2, 2)),
        ];
        let mut hlh2 = HlhK::new(2);
        hlh2.begin_group(&group, &[1, 2]);
        add(&mut hlh2, &pattern, 1, &binding);
        hlh2.end_group();
        // A second stretch for the same group would intern `pattern` afresh.
        let reopened = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hlh2.begin_group(&group, &[1, 2]);
            add(&mut hlh2, &pattern, 2, &binding);
            hlh2.end_group();
        }));
        if crate::invariants::strict_checks_enabled() {
            let payload = reopened.expect_err("strict checks reject the reopened group");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains("reopened"), "{message}");
        } else {
            reopened.unwrap();
            assert!(
                hlh2.validate().is_err(),
                "validate rejects the reopened group"
            );
        }
    }

    #[test]
    fn validate_rejects_two_patterns_of_one_group_with_the_same_key() {
        let group = vec![label(0, 1), label(1, 1)];
        let pattern = TemporalPattern::pair([group[0], group[1]], RelationKind::Follows, false);
        let binding = [
            EventInstance::new(group[0], Interval::new(1, 1)),
            EventInstance::new(group[1], Interval::new(2, 2)),
        ];
        let mut hlh2 = HlhK::new_terminal(2);
        hlh2.begin_group(&group, &[1]);
        add(&mut hlh2, &pattern, 1, &binding);
        hlh2.end_group();
        hlh2.validate().unwrap();
        // Forge what a broken interner would leave: a second arena entry
        // for the same pattern, listed under the same group.
        let duplicate = hlh2.patterns[0].clone();
        hlh2.patterns.push(duplicate);
        hlh2.groups[0].patterns.push(PatternId(1));
        let violation = hlh2.validate().unwrap_err();
        assert!(
            violation.detail.contains("share a key"),
            "{}",
            violation.detail
        );
    }

    #[test]
    fn hlhk_retain_candidates_compacts_table_and_pool() {
        // minDensity 1, minSeason 2 → a candidate needs support >= 2.
        let cfg = config(1, 2);
        let mut hlh2 = HlhK::new(2);
        let group_a = vec![label(0, 1), label(1, 1)];
        let group_b = vec![label(0, 1), label(1, 0)];
        let strong =
            TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Follows, false);
        let weak = TemporalPattern::pair([label(0, 1), label(1, 0)], RelationKind::Follows, false);
        let binding = [
            EventInstance::new(label(0, 1), Interval::new(1, 1)),
            EventInstance::new(label(1, 1), Interval::new(2, 2)),
        ];
        hlh2.begin_group(&group_a, &[1, 2]);
        add(&mut hlh2, &strong, 1, &binding);
        add(&mut hlh2, &strong, 2, &binding);
        hlh2.end_group();
        hlh2.begin_group(&group_b, &[3]);
        add(&mut hlh2, &weak, 3, &binding);
        hlh2.end_group();

        assert_eq!(hlh2.patterns().len(), 2);
        let footprint_before = hlh2.footprint_bytes();
        let removed = hlh2.retain_candidates(&cfg);
        assert_eq!(removed, 1);
        assert_eq!(hlh2.patterns().len(), 1);
        assert_eq!(hlh2.patterns()[0].pattern, strong);
        assert_eq!(hlh2.group(&group_a).unwrap().patterns, vec![PatternId(0)]);
        // group_b lost its last pattern: it is gone from the group table too,
        // so group counts and footprints only reflect live candidates.
        assert_eq!(hlh2.num_groups(), 1);
        assert!(hlh2.group(&group_b).is_none());
        assert!(hlh2.group(&group_a).is_some());
        assert!(hlh2.footprint_bytes() < footprint_before);
        // The pool was compacted alongside (2 surviving bindings × k = 2).
        assert_eq!(hlh2.pool.len(), 4);
        assert_eq!(hlh2.pattern(PatternId(0)).binding_ids_at_index(1).len(), 1);
        hlh2.validate().unwrap();
        // Retaining again removes nothing.
        assert_eq!(hlh2.retain_candidates(&cfg), 0);
    }

    /// A terminal level 3 with three groups: one keeps both patterns, one
    /// keeps one of two, one loses its only pattern to the `maxSeason` gate.
    fn terminal_level() -> HlhK {
        // Per group: the relation of each base 2-pattern, and the granules
        // where its extension (Follows to the new event from both members)
        // occurs.
        let groups: [&[(RelationKind, &[GranulePos])]; 3] = [
            &[
                (RelationKind::Follows, &[1, 2, 3]),
                (RelationKind::Contains, &[1, 5]),
            ],
            &[
                (RelationKind::Follows, &[4]),
                (RelationKind::Contains, &[2, 4, 6]),
            ],
            &[(RelationKind::Follows, &[7])],
        ];
        let follows = encode_verdict(RelationKind::Follows, false);
        let mut hlh3 = HlhK::new_terminal(3);
        for (series, bases) in (0u32..).zip(groups) {
            let events = [label(series, 0), label(series, 1), label(9, 0)];
            let binding = [
                EventInstance::new(events[0], Interval::new(1, 1)),
                EventInstance::new(events[1], Interval::new(2, 2)),
            ];
            let last = EventInstance::new(events[2], Interval::new(3, 3));
            hlh3.begin_group(&events, &[1, 2, 3, 4, 5, 6, 7]);
            for (base, &(kind, support)) in (0u32..).zip(bases) {
                let make = || {
                    TemporalPattern::pair([events[0], events[1]], kind, false).extended(
                        events[2],
                        vec![
                            RelationTriple::new(RelationKind::Follows, 0, 2),
                            RelationTriple::new(RelationKind::Follows, 1, 2),
                        ],
                    )
                };
                for &granule in support {
                    hlh3.add_pattern_occurrence(
                        base,
                        &[follows, follows],
                        make,
                        granule,
                        &binding,
                        last,
                    );
                }
            }
            hlh3.end_group();
        }
        hlh3
    }

    #[test]
    fn count_only_terminal_summary_matches_an_explicit_retain() {
        // minDensity 1, minSeason 2 → a candidate needs support >= 2.
        let cfg = config(1, 2);
        let level = terminal_level();
        level.validate().unwrap();
        let counted = level.candidate_summary(&cfg);
        let mut compacted = level.clone();
        assert_eq!(compacted.retain_candidates(&cfg), 2);
        compacted.validate().unwrap();
        assert_eq!(counted, compacted.summary());
        assert_eq!(counted.groups, 2);
        assert_eq!(counted.patterns, 3);
        assert_eq!(counted.groups, compacted.num_groups());
        assert_eq!(counted.patterns, compacted.patterns().len());
        assert_eq!(counted.footprint_bytes, compacted.footprint_bytes());
        // Counting everything is the level's own summary.
        assert_eq!(level.summary().patterns, level.patterns().len());
        assert_eq!(level.summary().footprint_bytes, level.footprint_bytes());
        // Frequent ⇒ candidate: every pattern the retain kept is one the
        // count-only path visits in the same relative order.
        let kept: Vec<_> = level
            .patterns()
            .iter()
            .filter(|p| cfg.is_candidate(p.support.len()))
            .map(|p| &p.pattern)
            .collect();
        let retained: Vec<_> = compacted.patterns().iter().map(|p| &p.pattern).collect();
        assert_eq!(kept, retained);
    }

    /// Five binary series over 120 instants from a fixed LCG, mapped to 40
    /// granules of three instants.
    fn lcg_dseq() -> SequenceDatabase {
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let series = (0..5)
            .map(|s| {
                let labels: Vec<&str> = (0..120)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        if (state >> 33).is_multiple_of(3) {
                            "0"
                        } else {
                            "1"
                        }
                    })
                    .collect();
                SymbolicSeries::from_labels(&format!("S{s}"), &labels, alphabet.clone()).unwrap()
            })
            .collect();
        SymbolicDatabase::new(series)
            .unwrap()
            .to_sequence_database(3)
            .unwrap()
    }

    #[test]
    fn level_three_counts_agree_whether_it_is_terminal_or_not() {
        use crate::miner::StpmMiner;
        let dseq = lcg_dseq();
        let config = |max_pattern_len| StpmConfig {
            max_period: Threshold::Absolute(2),
            min_density: Threshold::Absolute(2),
            dist_interval: (3, 12),
            min_season: 2,
            max_pattern_len,
            ..StpmConfig::default()
        };
        let terminal = StpmMiner::mine_sequences(&dseq, &config(3)).unwrap();
        let extended = StpmMiner::mine_sequences(&dseq, &config(4)).unwrap();
        let level3 = |report: &crate::report::MiningReport| {
            *report
                .stats()
                .levels
                .iter()
                .find(|l| l.k == 3)
                .expect("the run reaches level 3")
        };
        let (counted, retained) = (level3(&terminal), level3(&extended));
        assert!(counted.candidate_patterns > 0, "level 3 holds candidates");
        assert_eq!(counted.candidate_groups, retained.candidate_groups);
        assert_eq!(counted.candidate_patterns, retained.candidate_patterns);
        assert_eq!(counted.frequent_patterns, retained.frequent_patterns);
        assert_eq!(
            counted.classifier_calls_saved,
            retained.classifier_calls_saved
        );
        assert_eq!(terminal.patterns_of_len(3), extended.patterns_of_len(3));
    }

    #[test]
    fn merge_shards_concatenates_disjoint_levels_in_shard_order() {
        let binding = |sym_a: u16, sym_b: u16| {
            [
                EventInstance::new(label(0, sym_a), Interval::new(1, 2)),
                EventInstance::new(label(1, sym_b), Interval::new(1, 1)),
            ]
        };
        let group_a = vec![label(0, 0), label(1, 0)];
        let group_b = vec![label(0, 1), label(1, 1)];
        let pattern_a =
            TemporalPattern::pair([label(0, 0), label(1, 0)], RelationKind::Follows, false);
        let pattern_b =
            TemporalPattern::pair([label(0, 1), label(1, 1)], RelationKind::Contains, false);

        let mut shard1 = HlhK::new(2);
        shard1.begin_group(&group_a, &[1, 2]);
        add(&mut shard1, &pattern_a, 1, &binding(0, 0));
        shard1.end_group();
        let mut shard2 = HlhK::new(2);
        shard2.begin_group(&group_b, &[3]);
        add(&mut shard2, &pattern_b, 3, &binding(1, 1));
        shard2.end_group();

        let merged = HlhK::merge_shards(2, vec![shard1, shard2]);
        merged.validate().unwrap();
        assert_eq!(merged.num_groups(), 2);
        assert_eq!(merged.patterns().len(), 2);
        // Shard order is preserved in the pattern arena.
        assert_eq!(merged.patterns()[0].pattern, pattern_a);
        assert_eq!(merged.patterns()[1].pattern, pattern_b);
        // Group → pattern ids were remapped across the concatenation, and
        // binding ids still resolve into the concatenated pool.
        assert_eq!(merged.group(&group_b).unwrap().patterns, vec![PatternId(1)]);
        let ids = merged.pattern(PatternId(1)).binding_ids_at_index(0);
        assert_eq!(ids.len(), 1);
        assert_eq!(merged.binding(ids[0]), &binding(1, 1));
        assert!(merged.has_relation_between(label(0, 1), label(1, 1)));

        // Merging empty shards yields an empty level.
        assert!(HlhK::merge_shards(2, vec![HlhK::new(2), HlhK::new(2)]).is_empty());
    }

    #[test]
    #[should_panic(expected = "group produced by two shards")]
    fn merge_shards_rejects_overlapping_shards() {
        let group = vec![label(0, 0), label(1, 0)];
        let pattern = TemporalPattern::pair([group[0], group[1]], RelationKind::Follows, false);
        let binding = [
            EventInstance::new(group[0], Interval::new(1, 1)),
            EventInstance::new(group[1], Interval::new(2, 2)),
        ];
        let shard = || {
            let mut shard = HlhK::new(2);
            shard.begin_group(&group, &[1]);
            add(&mut shard, &pattern, 1, &binding);
            shard.end_group();
            shard
        };
        let _ = HlhK::merge_shards(2, vec![shard(), shard()]);
    }
}
