//! The Seasonal Temporal Pattern Mining algorithm (E-STPM, Algorithm 1).
//!
//! Mining proceeds in two steps:
//!
//! * **Step 2.1 — seasonal single events.** One scan of `D_SEQ` builds
//!   `HLH_1`; events whose `maxSeason` reaches `minSeason` are *candidates*
//!   (Apriori-like pruning, Lemmas 1–2); candidates whose season count
//!   reaches `minSeason` are frequent seasonal events.
//! * **Step 2.2 — seasonal k-event patterns.** Candidate k-event groups are
//!   grown from `HLH_{k-1} × FilteredF_1`, where `FilteredF_1` keeps only the
//!   single events that participate in candidate (k-1)-patterns
//!   (transitivity pruning, Lemmas 3–4). Relations are verified on the
//!   instance bindings stored in `HLH_{k-1}`, candidate patterns are kept in
//!   `HLH_k`, and the frequent ones are reported.
//!
//! Both prunings can be disabled individually through
//! [`PruningMode`](crate::config::PruningMode) to reproduce the ablation
//! study of the paper (Figures 15, 16, 25, 26).
//!
//! # Parallelism and memory
//!
//! Level mining is embarrassingly parallel across candidate groups: each
//! level-2 event pair, and each (k-1)-group extension, is mined independently
//! of every other. When [`StpmConfig::threads`] (resolved into
//! [`ResolvedConfig::threads`]) is greater than one, the candidate space of
//! each level is split into contiguous shards mined on scoped worker threads;
//! the per-shard `HLH_k` structures are merged back in shard order
//! ([`HlhK::merge_shards`]), which makes the parallel output *identical* —
//! pattern order included — to the sequential one.
//!
//! Extension at level k only ever reads `HLH_2` (transitivity lookups) and
//! `HLH_{k-1}` (instance bindings), so those are the only levels kept alive:
//! every earlier level is dropped as soon as its successor exists, and
//! [`MiningStats::peak_footprint_bytes`] reports the peak of the *live*
//! structures, not the historical sum of all levels.
//!
//! # Level-2 reuse at k ≥ 3
//!
//! The k ≥ 3 loop never re-derives what level 2 already knows, and keeps
//! its per-occurrence work to a few byte loads:
//!
//! * extension candidates of a (k-1)-group are enumerated from the bitwise
//!   AND of the members' [`RelationAdjacency`] rows (one pass instead of a
//!   full `FilteredF_1` scan with per-member `has_relation_between` probes);
//!   the skipped combinations are counted in
//!   [`LevelStats::adjacency_pruned_candidates`];
//! * relation verdicts between a binding member and an extension-event
//!   instance are looked up in the [`VerdictTable`](crate::hlh::VerdictTable)
//!   recorded while mining level 2 (counted in
//!   [`LevelStats::classifier_calls_saved`]). The table covers every cell
//!   the loop probes, so it is the only verdict source; the closed-form
//!   classifier remains as the debug-build cross-check. The granules of one (pattern, `E_k`) walk ascend, so each
//!   member's verdict block and `HLH_1` instance slice are reached by
//!   forward cursors ([`SupportCursor`]) instead of a binary search per
//!   granule;
//! * a new k-group comes out of exactly one (group, `E_k`) stretch of the
//!   loop, and each of its patterns extends exactly one (k-1)-pattern, so
//!   patterns are interned per group ([`HlhK::begin_group`]) by the base
//!   pattern's id plus the verdict bytes of the new relations — the same
//!   bytes the table lookup produced — instead of hashing a packed pattern
//!   key into a level-wide index;
//! * the last level of a run is mined *terminal* ([`HlhK::new_terminal`]):
//!   nothing ever reads its bindings, so the binding pool — the bulk of a
//!   level's footprint — is never populated. With the Apriori-like pruning
//!   on it is not compacted either: [`HlhK::candidate_summary`] counts the
//!   candidates `retain_candidates` would keep, and the frequent patterns
//!   (all of them candidates) are read from the uncompacted arena in the
//!   same order.
//!
//! # Batch vs streaming
//!
//! `StpmMiner` is the *batch* engine: one immutable database in, one report
//! out. Everything it derives is granule-local (an occurrence binds
//! instances of a single granule), which is what the incremental
//! [`StreamingMiner`](crate::streaming::StreamingMiner) exploits to absorb
//! appended granules without re-mining history: supports only ever grow at
//! the tail, and the season walk over them is resumable
//! ([`SeasonTracker`](crate::season::SeasonTracker)). The streaming engine's
//! checkpoints are exact w.r.t. a batch re-mine of the same prefix — the
//! batch miner is the reference implementation that
//! `crates/bench/tests/quick_scale_counts.rs` and
//! `tests/streaming_equivalence.rs` compare every checkpoint against.

use crate::config::{ResolvedConfig, StpmConfig};
use crate::engine::{phases, EngineReport, MiningEngine, MiningInput, PhaseTiming, PruningSummary};
use crate::error::Result;
use crate::hlh::{EventEntry, GroupEntry, Hlh1, HlhK, PairVerdicts, RelationAdjacency};
use crate::pattern::{RelationTriple, TemporalPattern};
use crate::relation::{
    chronological_order, classify_relation, decode_verdict, encode_verdict, VERDICT_NONE,
};
use crate::report::{LevelStats, MinedEvent, MinedPattern, MiningReport, MiningStats};
use crate::season::{find_seasons, support_is_frequent};
use crate::support::{
    and_words, intersect_into, intersect_positions_into, intersect_rows_into, iter_set_bits,
    SupportCursor, SupportSet,
};
use std::ops::Range;
use std::time::Instant;
use stpm_timeseries::{EventInstance, EventLabel, SequenceDatabase};

/// Per-shard scratch buffers threaded through the chunk miners: support
/// intersections, match positions, group events and verdict codes all
/// reuse their capacity across candidates instead of allocating per
/// candidate. Each shard owns one `Scratch`, so the parallel path needs no
/// synchronisation around them.
#[derive(Debug, Default)]
struct Scratch {
    /// Candidate-group support under construction (k-loop), kept alive while
    /// the per-pattern buffers below are recycled.
    group_support: SupportSet,
    /// Pair/extendable support intersection output.
    support: SupportSet,
    /// Positions of the intersection matches in the left input.
    pos_a: Vec<u32>,
    /// Positions of the intersection matches in the right input.
    pos_b: Vec<u32>,
    /// Events of the k-group under construction.
    events: Vec<EventLabel>,
    /// Verdict codes of the occurrence under construction: `codes[i]`
    /// relates binding member `i` to the extension instance.
    codes: Vec<u8>,
    /// Bitwise-AND of the group members' adjacency rows.
    row: Vec<u64>,
    /// The enumerated extension events of the current group.
    ext: Vec<EventLabel>,
}

/// Per-level reuse counters collected while mining a chunk; summed across
/// shards (the sums are order-independent, so parallel runs report exactly
/// the sequential numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LevelCounters {
    /// `classify_relation` calls replaced by a verdict-table lookup.
    classifier_calls_saved: usize,
    /// (group, extension-event) combinations the adjacency rows pruned
    /// before any support intersection ran.
    adjacency_pruned_candidates: usize,
}

impl LevelCounters {
    fn merge(&mut self, other: LevelCounters) {
        self.classifier_calls_saved += other.classifier_calls_saved;
        self.adjacency_pruned_candidates += other.adjacency_pruned_candidates;
    }
}

/// The exact seasonal temporal pattern mining engine (E-STPM).
///
/// `StpmMiner` is a stateless engine value: the data to mine arrives per call
/// (either a bare [`SequenceDatabase`] through the inherent helpers, or a
/// full [`MiningInput`] through the [`MiningEngine`] trait).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StpmMiner;

impl StpmMiner {
    /// Mines a sequence database, resolving the fractional thresholds of
    /// `config` against the database size first.
    ///
    /// # Errors
    /// Propagates configuration-validation errors.
    pub fn mine_sequences(dseq: &SequenceDatabase, config: &StpmConfig) -> Result<MiningReport> {
        let resolved = config.resolve(dseq.num_granules())?;
        Ok(Self::mine_sequences_resolved(dseq, &resolved))
    }

    /// Mines a sequence database under an already-resolved configuration.
    #[must_use]
    pub fn mine_sequences_resolved(
        dseq: &SequenceDatabase,
        config: &ResolvedConfig,
    ) -> MiningReport {
        ExactRun {
            dseq,
            config: *config,
        }
        .mine()
    }
}

impl MiningEngine for StpmMiner {
    fn name(&self) -> &'static str {
        "E-STPM"
    }

    fn mine(&self, input: &MiningInput<'_>, config: &ResolvedConfig) -> Result<EngineReport> {
        let report = Self::mine_sequences_resolved(input.dseq(), config);
        let stats = report.stats();
        let timings = vec![
            PhaseTiming::new(phases::SINGLE_EVENTS, stats.single_event_time),
            PhaseTiming::new(phases::PATTERNS, stats.pattern_time),
        ];
        let memory = stats.peak_footprint_bytes;
        Ok(EngineReport::new(
            self.name(),
            report,
            input.dseq().registry().clone(),
            timings,
            PruningSummary::keep_all(input),
            memory,
        ))
    }
}

/// One exact mining run over one database (the Algorithm 1 implementation).
#[derive(Debug, Clone)]
struct ExactRun<'a> {
    dseq: &'a SequenceDatabase,
    config: ResolvedConfig,
}

impl ExactRun<'_> {
    /// Runs the full mining process and returns every frequent seasonal
    /// single event and temporal pattern.
    fn mine(&self) -> MiningReport {
        #[expect(clippy::disallowed_methods, reason = "timing only; never serialized")]
        let total_start = Instant::now();
        let apriori = self.config.pruning.apriori_enabled();

        // -------- Step 2.1: frequent seasonal single events --------
        #[expect(clippy::disallowed_methods, reason = "timing only; never serialized")]
        let single_start = Instant::now();
        let hlh1 = Hlh1::build(self.dseq, &self.config, apriori);
        crate::invariants::debug_validate!(hlh1.validate());
        let mut events_out = Vec::new();
        for &label in hlh1.labels() {
            let entry = hlh1.entry(label).expect("label comes from the table");
            // Allocation-free early-exit frequency check; seasons are
            // materialised only for the survivors.
            if support_is_frequent(&entry.support, &self.config) {
                events_out.push(MinedEvent {
                    label,
                    support: entry.support.clone(),
                    seasons: find_seasons(&entry.support, &self.config),
                });
            }
        }
        let single_event_time = single_start.elapsed();

        // -------- Step 2.2: frequent seasonal k-event patterns --------
        // Only HLH_2 (transitivity lookups) and HLH_{k-1} (bindings to
        // extend) are ever read again, so only those stay alive; the peak
        // footprint tracks the live structures of each level.
        #[expect(clippy::disallowed_methods, reason = "timing only; never serialized")]
        let pattern_start = Instant::now();
        let f1: &[EventLabel] = hlh1.labels();
        let hlh1_footprint = hlh1.footprint_bytes();
        let mut patterns_out: Vec<MinedPattern> = Vec::new();
        let mut level_stats: Vec<LevelStats> = Vec::new();
        let mut hlh2: Option<HlhK> = None;
        let mut prev: Option<HlhK> = None;
        let mut adjacency: Option<RelationAdjacency> = None;
        let mut peak_footprint = hlh1_footprint;

        for k in 2..=self.config.max_pattern_len {
            // The last level is never extended: mine it without a binding
            // pool (and, at level 2, without the verdict table).
            let terminal = k == self.config.max_pattern_len;
            let (mut hlhk, counters) = match (k, &hlh2, &prev) {
                (2, _, _) => self.mine_pairs(&hlh1, f1, terminal),
                (3, Some(h2), _) => {
                    self.mine_k_events(&hlh1, f1, h2, h2, k, adjacency.as_ref(), terminal)
                }
                (_, Some(h2), Some(p)) => {
                    self.mine_k_events(&hlh1, f1, p, h2, k, adjacency.as_ref(), terminal)
                }
                _ => unreachable!("levels are mined in increasing k"),
            };
            // The terminal level is never read again, so with Apriori-like
            // pruning on it is counted as `retain_candidates` would leave it
            // instead of being compacted; every frequent pattern is a
            // candidate, so the arena walk below emits the same patterns in
            // the same order either way.
            let count_only = apriori && terminal;
            if apriori && !terminal {
                hlhk.retain_candidates(&self.config);
            }
            crate::invariants::debug_validate!(hlhk.validate());
            let summary = if count_only {
                hlhk.candidate_summary(&self.config)
            } else {
                hlhk.summary()
            };
            if k == 2 && !terminal && self.config.pruning.transitivity_enabled() {
                // Built after retain_candidates so the bit matrix matches
                // exactly what has_relation_between would answer at k >= 3.
                adjacency = Some(RelationAdjacency::build(&hlhk, f1));
            }

            let mut frequent = 0usize;
            for entry in hlhk.patterns() {
                // Allocation-free early-exit frequency check; seasons are
                // materialised only for the survivors.
                if support_is_frequent(&entry.support, &self.config) {
                    debug_assert!(self.config.is_candidate(entry.support.len()));
                    frequent += 1;
                    patterns_out.push(MinedPattern::new(
                        entry.pattern.clone(),
                        entry.support.clone(),
                        find_seasons(&entry.support, &self.config),
                    ));
                }
            }
            let level_footprint = summary.footprint_bytes;
            let live_footprint = hlh1_footprint
                + adjacency
                    .as_ref()
                    .map_or(0, RelationAdjacency::footprint_bytes)
                + hlh2.as_ref().map_or(0, HlhK::footprint_bytes)
                + prev.as_ref().map_or(0, HlhK::footprint_bytes)
                + level_footprint;
            peak_footprint = peak_footprint.max(live_footprint);
            level_stats.push(LevelStats {
                k,
                candidate_groups: summary.groups,
                candidate_patterns: summary.patterns,
                frequent_patterns: frequent,
                footprint_bytes: level_footprint,
                classifier_calls_saved: counters.classifier_calls_saved,
                adjacency_pruned_candidates: counters.adjacency_pruned_candidates,
            });
            let empty = summary.patterns == 0;
            if k == 2 {
                hlh2 = Some(hlhk);
            } else {
                prev = Some(hlhk); // drops level k-1 (for k ≥ 4)
            }
            if empty {
                break;
            }
        }
        let pattern_time = pattern_start.elapsed();

        let stats = MiningStats {
            num_granules: self.dseq.num_granules(),
            num_events: self.dseq.distinct_events().len(),
            candidate_events: hlh1.len(),
            frequent_events: events_out.len(),
            levels: level_stats,
            total_time: total_start.elapsed(),
            single_event_time,
            pattern_time,
            peak_footprint_bytes: peak_footprint,
        };
        MiningReport::new(events_out, patterns_out, stats)
    }

    /// Shards level-mining work across the configured worker threads and
    /// merges the per-shard levels in shard order. `shard_ranges` cuts
    /// `0..num_items` into at most `threads` *contiguous* ranges of roughly
    /// equal estimated cost (evaluated only when actually sharding, so the
    /// sequential path pays nothing for it); contiguity is what lets the
    /// merged level preserve sequential order while heavy items don't pile
    /// up in one shard. With one thread — or one work item — the chunk miner
    /// runs inline on the caller's thread.
    fn mine_sharded<C, F>(
        &self,
        k: usize,
        num_items: usize,
        shard_ranges: C,
        mine_chunk: F,
    ) -> (HlhK, LevelCounters)
    where
        C: FnOnce(usize) -> Vec<Range<usize>>,
        F: Fn(Range<usize>) -> (HlhK, LevelCounters) + Sync,
    {
        let threads = self.config.threads.min(num_items).max(1);
        if threads == 1 {
            return mine_chunk(0..num_items);
        }
        let ranges = shard_ranges(threads);
        debug_assert_eq!(ranges.first().map(|r| r.start), Some(0));
        debug_assert_eq!(ranges.last().map(|r| r.end), Some(num_items));
        let results: Vec<(HlhK, LevelCounters)> = std::thread::scope(|scope| {
            let mine_chunk = &mine_chunk;
            let handles: Vec<_> = ranges
                .into_iter()
                // Row-aligned cuts can map to an empty pair range (the last
                // triangle row holds no pairs) — nothing to spawn for.
                .filter(|range| !range.is_empty())
                .map(|range| scope.spawn(move || mine_chunk(range)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mining shard panicked"))
                .collect()
        });
        let mut counters = LevelCounters::default();
        let shards: Vec<HlhK> = results
            .into_iter()
            .map(|(shard, shard_counters)| {
                counters.merge(shard_counters);
                shard
            })
            .collect();
        (HlhK::merge_shards(k, shards), counters)
    }

    /// Mines candidate 2-event groups and patterns (Section IV-D, 4.2.1),
    /// sharding the candidate pair space across the configured threads.
    /// Patterns relate *distinct* events: an event group is a set, matching
    /// the transactional view the APS-growth baseline mines — this is what
    /// makes the two engines output-equivalent.
    ///
    /// Unless the level is `terminal`, every classification verdict is also
    /// recorded into the level's [`VerdictTable`](crate::hlh::VerdictTable)
    /// so the k ≥ 3 loop can look relations up instead of re-classifying.
    fn mine_pairs(&self, hlh1: &Hlh1, f1: &[EventLabel], terminal: bool) -> (HlhK, LevelCounters) {
        let n = f1.len();
        let num_pairs = n * n.saturating_sub(1) / 2;
        // A pair's work is bounded by its support intersection, which is at
        // most the smaller of the two single-event supports. Costs are
        // aggregated per row (per first event) so the estimator stays O(n)
        // in memory even when the pair space has millions of entries; the
        // shard cuts are row-aligned as a result.
        let shard_ranges = |threads: usize| {
            let row_costs: Vec<u64> = (0..n)
                .map(|i| {
                    let sup_i = hlh1.support(f1[i]).len() as u64;
                    f1[i + 1..]
                        .iter()
                        .map(|&ej| 1 + sup_i.min(hlh1.support(ej).len() as u64))
                        .sum()
                })
                .collect();
            balanced_ranges(&row_costs, threads)
                .into_iter()
                .map(|rows| pair_offset(n, rows.start)..pair_offset(n, rows.end))
                .collect()
        };
        self.mine_sharded(2, num_pairs, shard_ranges, |range| {
            self.mine_pairs_chunk(hlh1, f1, range, terminal)
        })
    }

    /// Mines one shard of the candidate pair space into a local `HLH_2`.
    /// Each pair is one group stretch ([`HlhK::begin_group`] …
    /// [`HlhK::end_group`]); a pair whose instances never classify into a
    /// relation contributes no candidates, and closing it drops the group so
    /// it does not inflate the level's group count.
    ///
    /// The loop is allocation-free per occurrence: the support intersection
    /// reuses the shard's scratch buffers, instance slices are reached
    /// through the recorded intersection positions (no binary search per
    /// granule), the pattern is interned within its group by its one
    /// verdict byte, and the binding is appended straight into the level's
    /// instance pool.
    ///
    /// Unless `terminal`, every cross-product cell's verdict — including the
    /// "no relation" outcome — is appended to the verdict table in row-major
    /// (`ei`-instance × `ej`-instance) order. This covers every cell the
    /// k ≥ 3 loop can probe: it probes a (member, `E_k`) pair only at granules
    /// of a k-group support, which lies inside the pair's intersection, and a
    /// pair is skipped here only when that intersection is empty or, under
    /// Apriori, too short to be a candidate — then so is every k-group
    /// support inside it.
    fn mine_pairs_chunk(
        &self,
        hlh1: &Hlh1,
        f1: &[EventLabel],
        range: Range<usize>,
        terminal: bool,
    ) -> (HlhK, LevelCounters) {
        let apriori = self.config.pruning.apriori_enabled();
        let record_verdicts = !terminal;
        let mut hlh2 = if terminal {
            HlhK::new_terminal(2)
        } else {
            HlhK::new(2)
        };
        let mut scratch = Scratch::default();
        for (ei, ej) in pair_range(f1, range) {
            let entry_i = hlh1.entry(ei).expect("f1 labels come from HLH_1");
            let entry_j = hlh1.entry(ej).expect("f1 labels come from HLH_1");
            intersect_positions_into(
                &entry_i.support,
                &entry_j.support,
                &mut scratch.support,
                &mut scratch.pos_a,
                &mut scratch.pos_b,
            );
            if scratch.support.is_empty() {
                continue;
            }
            if apriori && !self.config.is_candidate(scratch.support.len()) {
                continue;
            }
            hlh2.begin_group(&[ei, ej], &scratch.support);
            if record_verdicts {
                hlh2.verdict_table_mut().begin_pair(ei, ej);
            }
            for (m, &granule) in scratch.support.iter().enumerate() {
                let instances_i = entry_i.instances_at_index(scratch.pos_a[m] as usize);
                let instances_j = entry_j.instances_at_index(scratch.pos_b[m] as usize);
                if record_verdicts {
                    hlh2.verdict_table_mut().begin_granule(granule);
                }
                for a in instances_i.iter() {
                    for b in instances_j.iter() {
                        let code = self.classify_verdict(a, b, 0, 1);
                        if record_verdicts {
                            hlh2.verdict_table_mut().push_verdict(code);
                        }
                        if code == VERDICT_NONE {
                            continue;
                        }
                        hlh2.add_pattern_occurrence(
                            0,
                            &[code],
                            || TemporalPattern::from_parts(vec![ei, ej], new_triples(&[code], 1)),
                            granule,
                            std::slice::from_ref(a),
                            *b,
                        );
                    }
                }
            }
            hlh2.end_group();
        }
        (hlh2, LevelCounters::default())
    }

    /// Mines candidate k-event groups and patterns for k ≥ 3
    /// (Section IV-D, 4.2.2): each candidate (k-1)-group of `prev` is
    /// extended with a single event, relations with the new event are
    /// verified on the stored instance bindings, and the resulting candidate
    /// k-patterns are collected into a fresh `HLH_k`. The (k-1)-group list
    /// is sharded across the configured threads.
    ///
    /// With transitivity pruning on, `adjacency` must carry the level-2
    /// relation matrix: the extension events of a group are then enumerated
    /// from the AND of its members' rows (masked to `FilteredF_1`) instead
    /// of scanning `FilteredF_1` and probing `has_relation_between` per
    /// member.
    #[allow(clippy::too_many_arguments)]
    fn mine_k_events(
        &self,
        hlh1: &Hlh1,
        f1: &[EventLabel],
        prev: &HlhK,
        hlh2: &HlhK,
        k: usize,
        adjacency: Option<&RelationAdjacency>,
        terminal: bool,
    ) -> (HlhK, LevelCounters) {
        let transitivity = self.config.pruning.transitivity_enabled();
        debug_assert_eq!(
            transitivity,
            adjacency.is_some(),
            "the adjacency matrix exists exactly when transitivity pruning is on"
        );
        let filtered_f1: Vec<EventLabel> = if transitivity {
            let participating = prev.participating_events();
            f1.iter()
                .copied()
                .filter(|e| participating.binary_search(e).is_ok())
                .collect()
        } else {
            f1.to_vec()
        };
        // FilteredF_1 as a bitset over the adjacency's interned label ids,
        // AND-ed into every group's extension row. For k = 3 the mask is
        // redundant (any event related to both members participates in a
        // 2-pattern by definition), but for k >= 4 it is what keeps the
        // enumeration identical to the scan-and-probe path.
        let filtered_mask: Option<Vec<u64>> = adjacency.map(|adj| {
            let mut mask = vec![0u64; adj.len().div_ceil(64)];
            for &label in &filtered_f1 {
                let id = adj
                    .index_of(label)
                    .expect("FilteredF_1 labels are candidates");
                mask[id / 64] |= 1 << (id % 64);
            }
            mask
        });
        let groups: Vec<&GroupEntry> = prev.groups();
        // A group's extension work scales with the occurrences of its
        // candidate patterns (every binding is a potential extension seed).
        let shard_ranges = |threads: usize| {
            let costs: Vec<u64> = groups
                .iter()
                .map(|entry| {
                    1 + entry
                        .patterns
                        .iter()
                        .map(|&id| prev.pattern(id).support.len() as u64)
                        .sum::<u64>()
                })
                .collect();
            balanced_ranges(&costs, threads)
        };
        self.mine_sharded(k, groups.len(), shard_ranges, |range| {
            self.mine_k_events_chunk(
                hlh1,
                &filtered_f1,
                filtered_mask.as_deref(),
                prev,
                hlh2,
                adjacency,
                k,
                &groups[range],
                terminal,
            )
        })
    }

    /// Mines one shard of the (k-1)-group list into a local `HLH_k`.
    ///
    /// Like the pair miner, the extension loop performs no per-occurrence
    /// allocation: the group/extendable intersections reuse the shard's
    /// scratch buffers, bindings of the previous level are read as pool
    /// slices, and the extended binding is appended to the new level's pool
    /// without materialising an owned vector. Every (group, `E_k`)
    /// combination is one group stretch of the new level, and an
    /// occurrence's key within it is the base pattern's id plus its `k − 1`
    /// verdict bytes; a [`TemporalPattern`] is only constructed the first
    /// time its key appears.
    ///
    /// Relation verdicts between a binding member and an extension instance
    /// are read from the level-2 verdict table: the pair handle is resolved
    /// once per (group, `E_k`), the granule block once per granule by a
    /// forward cursor, and the member's row once per binding, so the
    /// per-cell cost is one byte load. The table covers every cell this loop
    /// probes (see [`Self::mine_pairs_chunk`]), so a missing pair, granule or
    /// instance row is a broken invariant and panics; debug builds also
    /// cross-check every verdict against the closed-form classifier.
    #[allow(clippy::too_many_arguments)]
    fn mine_k_events_chunk(
        &self,
        hlh1: &Hlh1,
        filtered_f1: &[EventLabel],
        filtered_mask: Option<&[u64]>,
        prev: &HlhK,
        hlh2: &HlhK,
        adjacency: Option<&RelationAdjacency>,
        k: usize,
        groups: &[&GroupEntry],
        terminal: bool,
    ) -> (HlhK, LevelCounters) {
        let apriori = self.config.pruning.apriori_enabled();
        let new_index = u8::try_from(k - 1).expect("pattern length fits u8");
        let verdicts = hlh2.verdict_table();
        let mut hlhk = if terminal {
            HlhK::new_terminal(k)
        } else {
            HlhK::new(k)
        };
        let mut counters = LevelCounters::default();
        let mut scratch = Scratch::default();
        // Chunk-lived buffers of borrowed data (they hold references into
        // the adjacency matrix, HLH_1 and the verdict table, so they cannot
        // live in the owned `Scratch`); all reuse their capacity across
        // candidates.
        let mut member_rows: Vec<&[u64]> = Vec::new();
        let mut member_entries: Vec<&EventEntry> = Vec::new();
        let mut member_pairs: Vec<PairVerdicts<'_>> = Vec::new();
        // Per member: cursors over the pair's verdict granules and over the
        // member's HLH_1 support, restarted for every (pattern, E_k) walk.
        let mut member_cursors: Vec<(SupportCursor, SupportCursor)> = Vec::new();
        let mut member_blocks: Vec<(&[u8], &[EventInstance])> = Vec::new();
        let mut binding_rows: Vec<&[u8]> = Vec::new();
        for &group_entry in groups {
            let group_events = &group_entry.events;
            let last = *group_events.last().expect("groups are non-empty");
            member_entries.clear();
            for &member in group_events {
                member_entries.push(hlh1.entry(member).expect("group events come from HLH_1"));
            }
            // ---- extension enumeration ----
            scratch.ext.clear();
            if let Some(adj) = adjacency {
                // Transitivity pruning (Lemma 4) as one bitwise pass: the
                // extension set is the AND of the members' neighbor rows,
                // masked to FilteredF_1, walked beyond the last member.
                member_rows.clear();
                for &member in group_events {
                    let id = adj.index_of(member).expect("group events are candidates");
                    member_rows.push(adj.row(id));
                }
                let Scratch { row, ext, .. } = &mut scratch;
                intersect_rows_into(row, &member_rows);
                if let Some(mask) = filtered_mask {
                    and_words(row, mask);
                }
                let last_id = adj.index_of(last).expect("group events are candidates");
                ext.extend(iter_set_bits(row, last_id + 1).map(|id| adj.label(id)));
                let naive = filtered_f1.len() - filtered_f1.partition_point(|&e| e <= last);
                counters.adjacency_pruned_candidates += naive - ext.len();
            } else {
                let from = filtered_f1.partition_point(|&e| e <= last);
                scratch.ext.extend_from_slice(&filtered_f1[from..]);
            }
            for ext_idx in 0..scratch.ext.len() {
                let ek = scratch.ext[ext_idx];
                let ek_entry = hlh1.entry(ek).expect("extension labels come from HLH_1");
                intersect_into(
                    &mut scratch.group_support,
                    &group_entry.support,
                    &ek_entry.support,
                );
                if scratch.group_support.is_empty() {
                    continue;
                }
                if apriori && !self.config.is_candidate(scratch.group_support.len()) {
                    continue;
                }
                scratch.events.clear();
                scratch.events.extend_from_slice(group_events);
                scratch.events.push(ek);
                hlhk.begin_group(&scratch.events, &scratch.group_support);
                // Verdict-table pair handles, one per member. Level 2
                // recorded every pair with a candidate support intersection,
                // and (member, E_k)'s intersection contains this group's
                // support, which is non-empty and (under Apriori) a
                // candidate, since `is_candidate` is monotone in length.
                member_pairs.clear();
                for &member in group_events {
                    member_pairs.push(
                        verdicts
                            .pair(member, ek)
                            .expect("level 2 recorded every (member, E_k) pair"),
                    );
                }

                for &pid in &group_entry.patterns {
                    let pattern_entry = prev.pattern(pid);
                    intersect_positions_into(
                        &pattern_entry.support,
                        &ek_entry.support,
                        &mut scratch.support,
                        &mut scratch.pos_a,
                        &mut scratch.pos_b,
                    );
                    member_cursors.clear();
                    member_cursors.resize(group_events.len(), Default::default());
                    for m in 0..scratch.support.len() {
                        let granule = scratch.support[m];
                        let ek_instances = ek_entry.instances_at_index(scratch.pos_b[m] as usize);
                        debug_assert!(!ek_instances.is_empty(), "support implies instances");
                        let cols = ek_instances.len();
                        // Resolve each member's verdict block and HLH_1
                        // instance slice once per granule.
                        member_blocks.clear();
                        for (idx, entry) in member_entries.iter().enumerate() {
                            let (pair_cursor, instance_cursor) = &mut member_cursors[idx];
                            // The granule lies in the pattern's support, so in
                            // the (member, E_k) intersection level 2 walked.
                            let block = member_pairs[idx]
                                .block_at_cursor(pair_cursor, granule)
                                .expect("level 2 recorded every shared granule of a pair");
                            let instances = entry.instances_at_cursor(instance_cursor, granule);
                            debug_assert_eq!(
                                block.len(),
                                instances.len() * cols,
                                "verdict blocks cover the full cross-product"
                            );
                            member_blocks.push((block, instances));
                        }
                        // A member whose verdict block holds no relation at
                        // all at this granule vetoes every binding × E_k
                        // instance below — one byte scan per block decides
                        // before any binding is enumerated.
                        if member_blocks
                            .iter()
                            .any(|(block, _)| block.iter().all(|&v| v == VERDICT_NONE))
                        {
                            continue;
                        }
                        for &bid in pattern_entry.binding_ids_at_index(scratch.pos_a[m] as usize) {
                            let binding = prev.binding(bid);
                            // Resolve each member instance's verdict row for
                            // this binding (instances per granule are few,
                            // so the position scan is one or two compares).
                            binding_rows.clear();
                            for (&(block, instances), bound) in member_blocks.iter().zip(binding) {
                                let row = instances
                                    .iter()
                                    .position(|x| x == bound)
                                    .expect("a bound instance sits in its member's granule slice");
                                binding_rows.push(&block[row * cols..(row + 1) * cols]);
                            }
                            'instances: for (ek_idx, ek_instance) in ek_instances.iter().enumerate()
                            {
                                debug_assert!(!binding.contains(ek_instance), "E_k is new");
                                scratch.codes.clear();
                                for (idx, (row, bound)) in
                                    binding_rows.iter().zip(binding).enumerate()
                                {
                                    let code = row[ek_idx];
                                    counters.classifier_calls_saved += 1;
                                    debug_assert_eq!(
                                        code,
                                        self.classify_verdict(
                                            bound,
                                            ek_instance,
                                            u8::try_from(idx).expect("pattern length fits u8"),
                                            new_index
                                        ),
                                        "verdict table diverged from the classifier"
                                    );
                                    if code == VERDICT_NONE {
                                        continue 'instances;
                                    }
                                    scratch.codes.push(code);
                                }
                                hlhk.add_pattern_occurrence(
                                    pid.0,
                                    &scratch.codes,
                                    || {
                                        pattern_entry
                                            .pattern
                                            .extended(ek, new_triples(&scratch.codes, new_index))
                                    },
                                    granule,
                                    binding,
                                    *ek_instance,
                                );
                            }
                        }
                    }
                }
                hlhk.end_group();
            }
        }
        (hlhk, counters)
    }

    /// The closed-form relation verdict of one instance pair, as an
    /// [`encode_verdict`] byte ([`VERDICT_NONE`] when no relation holds):
    /// `a` is the event at pattern index `idx`, `b` the one at `new_index`,
    /// and the verdict is swapped when `b`'s instance comes first. This is
    /// what level 2 records, and the reference level k's table lookups are
    /// checked against in debug builds.
    // lint: hot-path
    fn classify_verdict(&self, a: &EventInstance, b: &EventInstance, idx: u8, new_index: u8) -> u8 {
        let in_order = chronological_order(&a.interval, &b.interval, idx, new_index);
        let (first, second) = if in_order { (a, b) } else { (b, a) };
        classify_relation(
            &first.interval,
            &second.interval,
            self.config.epsilon,
            self.config.min_overlap,
        )
        .map_or(VERDICT_NONE, |kind| encode_verdict(kind, !in_order))
    }
}

/// The relation triples a pattern gains with its newest event (at
/// `new_index`): `codes[i]` is the [`encode_verdict`] byte relating event
/// `i` to it.
fn new_triples(codes: &[u8], new_index: u8) -> Vec<RelationTriple> {
    codes
        .iter()
        .enumerate()
        .map(|(idx, &code)| {
            let idx = u8::try_from(idx).expect("pattern length fits u8");
            let (kind, swapped) = decode_verdict(code).expect("codes hold relations");
            if swapped {
                RelationTriple::new(kind, new_index, idx)
            } else {
                RelationTriple::new(kind, idx, new_index)
            }
        })
        .collect()
}

/// Flat triangular index of the first pair of row `row` (the number of pairs
/// in rows `0..row` of an `n`-event triangle).
// lint: hot-path
fn pair_offset(n: usize, row: usize) -> usize {
    row * n - row * (row + 1) / 2
}

/// Yields the candidate event pairs `(f1[i], f1[j])`, `i < j`, whose flat
/// triangular indices fall in `range`, in the row-major order the sequential
/// miner enumerates them — without materializing the full pair list. The
/// flat index of pair `(i, j)` is [`pair_offset`]`(n, i) + (j - i - 1)`.
// lint: hot-path
fn pair_range(
    f1: &[EventLabel],
    range: Range<usize>,
) -> impl Iterator<Item = (EventLabel, EventLabel)> + '_ {
    let n = f1.len();
    // Locate the (row, column) of range.start by walking the triangle rows.
    let mut i = 0usize;
    let mut row_start = 0usize; // flat index of pair (i, i + 1)
    while i < n && row_start + (n - i - 1) <= range.start {
        row_start += n - i - 1;
        i += 1;
    }
    let mut j = i + 1 + (range.start - row_start);
    let mut remaining = range.len();
    std::iter::from_fn(move || {
        if remaining == 0 {
            return None;
        }
        while j >= n {
            i += 1;
            if i + 1 >= n {
                // Only reachable when the caller asked for more pairs than
                // the triangle holds — the ranges cut by `pair_offset` always
                // end on or before the last row. Assert instead of silently
                // truncating the enumeration.
                debug_assert!(
                    remaining == 0,
                    "pair_range walked past the end of the triangle \
                     ({remaining} pairs still requested)"
                );
                return None;
            }
            j = i + 1;
        }
        let pair = (f1[i], f1[j]);
        j += 1;
        remaining -= 1;
        Some(pair)
    })
}

/// Cuts `costs.len()` work items into at most `threads` contiguous,
/// non-empty ranges whose cumulative costs are as even as a greedy
/// left-to-right walk can make them. Contiguity is what lets the per-shard
/// results be merged back in order (also reused by the streaming miner to
/// shard an appended granule batch).
pub(crate) fn balanced_ranges(costs: &[u64], threads: usize) -> Vec<Range<usize>> {
    let total: u64 = costs.iter().sum();
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    let mut spent = 0u64;
    for t in 0..threads {
        if start >= costs.len() {
            break;
        }
        // Remaining shards must each get at least one item.
        let max_end = costs.len() - (threads - t - 1).min(costs.len() - start - 1);
        let target = (total * (t as u64 + 1)).div_ceil(threads as u64);
        let mut end = start + 1;
        spent += costs[start];
        while end < max_end && spent + costs[end] / 2 < target {
            spent += costs[end];
            end += 1;
        }
        ranges.push(start..end);
        start = end;
    }
    if let (Some(last), true) = (ranges.last_mut(), start < costs.len()) {
        last.end = costs.len();
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PruningMode, Threshold};
    use crate::relation::RelationKind;
    use std::collections::BTreeSet;
    use stpm_timeseries::{Alphabet, SymbolicDatabase, SymbolicSeries};

    /// Builds the full running example of the paper (Table II / Table IV):
    /// five appliance series at 5-minute granularity, 42 instants, mapped to
    /// 14 granules of 15 minutes.
    fn paper_dseq() -> (SymbolicDatabase, SequenceDatabase) {
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
        let dsyb = SymbolicDatabase::new(series).unwrap();
        let dseq = dsyb.to_sequence_database(3).unwrap();
        (dsyb, dseq)
    }

    fn paper_config() -> StpmConfig {
        StpmConfig {
            max_period: Threshold::Absolute(2),
            min_density: Threshold::Absolute(2),
            dist_interval: (3, 10),
            min_season: 2,
            max_pattern_len: 3,
            ..StpmConfig::default()
        }
    }

    #[test]
    fn mining_the_paper_example_finds_c1_contains_d1() {
        let (dsyb, dseq) = paper_dseq();
        let report = StpmMiner::mine_sequences(&dseq, &paper_config()).unwrap();

        let c1 = dsyb.registry().label("C", "1").unwrap();
        let d1 = dsyb.registry().label("D", "1").unwrap();
        let target = TemporalPattern::pair([c1, d1], RelationKind::Contains, false);
        let found = report
            .patterns()
            .iter()
            .find(|p| p.pattern() == &target)
            .expect("C:1 contains D:1 must be a frequent seasonal pattern");
        assert_eq!(found.support(), &[1, 2, 3, 7, 8, 11, 12, 14]);
        assert!(found.seasons().count() >= 2);
    }

    #[test]
    fn single_event_m1_is_not_frequent_but_participates_in_patterns() {
        // The anti-monotonicity counter-example of Section IV-B: M:1 alone is
        // not seasonal (one long season), yet M:1 ≽ N:1 is.
        let (dsyb, dseq) = paper_dseq();
        let config = StpmConfig {
            max_period: Threshold::Absolute(2),
            min_density: Threshold::Absolute(3),
            dist_interval: (4, 10),
            min_season: 2,
            max_pattern_len: 2,
            ..StpmConfig::default()
        };
        let report = StpmMiner::mine_sequences(&dseq, &config).unwrap();

        let m1 = dsyb.registry().label("M", "1").unwrap();
        let n1 = dsyb.registry().label("N", "1").unwrap();
        assert!(
            !report.events().iter().any(|e| e.label == m1),
            "M:1 must not be a frequent seasonal single event"
        );
        let target = TemporalPattern::pair([m1, n1], RelationKind::Contains, false);
        assert!(
            report.contains_pattern(&target),
            "M:1 contains N:1 must be frequent"
        );
    }

    #[test]
    fn report_contains_three_event_patterns() {
        let (_, dseq) = paper_dseq();
        let report = StpmMiner::mine_sequences(&dseq, &paper_config()).unwrap();
        assert!(
            !report.patterns_of_len(3).is_empty(),
            "the example database contains frequent 3-event patterns"
        );
        // Every 3-event pattern has 3 relation triples.
        for p in report.patterns_of_len(3) {
            assert_eq!(p.pattern().triples().len(), 3);
        }
    }

    #[test]
    fn all_pruning_modes_find_the_same_frequent_patterns() {
        // The prunings are exact: they shrink the search space but never the
        // output (completeness of E-STPM).
        let (_, dseq) = paper_dseq();
        let mut outputs: Vec<BTreeSet<String>> = Vec::new();
        for mode in PruningMode::all_modes() {
            let config = paper_config().with_pruning(mode);
            let report = StpmMiner::mine_sequences(&dseq, &config).unwrap();
            let set: BTreeSet<String> = report
                .patterns()
                .iter()
                .map(|p| format!("{:?}", p.pattern()))
                .chain(report.events().iter().map(|e| format!("{:?}", e.label)))
                .collect();
            outputs.push(set);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
        assert_eq!(outputs[2], outputs[3]);
        assert!(!outputs[0].is_empty());
    }

    #[test]
    fn pruning_shrinks_candidate_counts() {
        let (_, dseq) = paper_dseq();
        let full = StpmMiner::mine_sequences(&dseq, &paper_config().with_pruning(PruningMode::All))
            .unwrap();
        let none =
            StpmMiner::mine_sequences(&dseq, &paper_config().with_pruning(PruningMode::NoPrune))
                .unwrap();
        assert!(full.stats().total_candidate_patterns() <= none.stats().total_candidate_patterns());
        assert!(full.stats().candidate_events <= none.stats().candidate_events);
    }

    #[test]
    fn stats_are_populated() {
        let (_, dseq) = paper_dseq();
        let report = StpmMiner::mine_sequences(&dseq, &paper_config()).unwrap();
        let stats = report.stats();
        assert_eq!(stats.num_granules, 14);
        assert_eq!(stats.num_events, 10);
        assert!(stats.candidate_events > 0);
        assert!(stats.peak_footprint_bytes > 0);
        assert!(!stats.levels.is_empty());
        assert_eq!(stats.levels[0].k, 2);
        assert!(stats.total_frequent_patterns() > 0);
    }

    #[test]
    fn max_pattern_len_one_mines_only_events() {
        let (_, dseq) = paper_dseq();
        let config = StpmConfig {
            max_pattern_len: 1,
            ..paper_config()
        };
        let report = StpmMiner::mine_sequences(&dseq, &config).unwrap();
        assert!(report.patterns().is_empty());
        assert!(!report.events().is_empty());
    }

    #[test]
    fn strict_thresholds_yield_empty_output() {
        let (_, dseq) = paper_dseq();
        let config = StpmConfig {
            max_period: Threshold::Absolute(1),
            min_density: Threshold::Absolute(10),
            dist_interval: (1, 2),
            min_season: 5,
            ..paper_config()
        };
        let report = StpmMiner::mine_sequences(&dseq, &config).unwrap();
        assert!(report.patterns().is_empty());
        assert!(report.events().is_empty());
    }

    #[test]
    fn epsilon_widens_or_preserves_the_output() {
        let (_, dseq) = paper_dseq();
        let strict = StpmMiner::mine_sequences(&dseq, &paper_config().with_epsilon(0)).unwrap();
        let tolerant = StpmMiner::mine_sequences(&dseq, &paper_config().with_epsilon(1)).unwrap();
        // With ε the relation classifier merges near-boundary cases; the
        // number of *distinct* patterns may change, but mining must still
        // succeed and find the headline pattern.
        assert!(strict.total_patterns() > 0);
        assert!(tolerant.total_patterns() > 0);
    }

    #[test]
    fn resolved_entry_point_matches_the_resolving_one() {
        let (_, dseq) = paper_dseq();
        let config = paper_config();
        let resolved = config.resolve(dseq.num_granules()).unwrap();
        let a = StpmMiner::mine_sequences(&dseq, &config).unwrap();
        let b = StpmMiner::mine_sequences_resolved(&dseq, &resolved);
        assert_eq!(a.patterns().len(), b.patterns().len());
        assert_eq!(a.events().len(), b.events().len());
    }

    #[test]
    fn parallel_mining_is_identical_to_sequential() {
        // The sharded parallel path must be byte-identical to the sequential
        // one: same patterns, same order, same stats counters.
        let (_, dseq) = paper_dseq();
        for mode in PruningMode::all_modes() {
            let sequential =
                StpmMiner::mine_sequences(&dseq, &paper_config().with_pruning(mode)).unwrap();
            for threads in [2, 4, 7] {
                let parallel = StpmMiner::mine_sequences(
                    &dseq,
                    &paper_config().with_pruning(mode).with_threads(threads),
                )
                .unwrap();
                assert_eq!(parallel.patterns(), sequential.patterns());
                assert_eq!(parallel.events(), sequential.events());
                assert_eq!(
                    parallel.stats().levels,
                    sequential.stats().levels,
                    "level stats diverged with {threads} threads under {mode:?}"
                );
                assert_eq!(
                    parallel.stats().peak_footprint_bytes,
                    sequential.stats().peak_footprint_bytes
                );
            }
        }
    }

    fn assert_partition(ranges: &[Range<usize>], len: usize, max_shards: usize) {
        assert!(!ranges.is_empty());
        assert!(ranges.len() <= max_shards);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, len);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "ranges must be contiguous");
        }
        for range in ranges {
            assert!(!range.is_empty());
        }
    }

    #[test]
    fn pair_range_matches_naive_triangular_enumeration() {
        use stpm_timeseries::{SeriesId, SymbolId};
        for n in [0usize, 1, 2, 3, 5, 8] {
            let f1: Vec<EventLabel> = (0..n)
                .map(|i| EventLabel::new(SeriesId(i as u32), SymbolId(0)))
                .collect();
            let naive: Vec<(EventLabel, EventLabel)> = f1
                .iter()
                .enumerate()
                .flat_map(|(i, &ei)| f1.iter().skip(i + 1).map(move |&ej| (ei, ej)))
                .collect();
            let num_pairs = n * n.saturating_sub(1) / 2;
            assert_eq!(naive.len(), num_pairs);
            // The full range reproduces the enumeration; every sub-range is
            // the matching slice of it.
            let full: Vec<_> = pair_range(&f1, 0..num_pairs).collect();
            assert_eq!(full, naive);
            for start in 0..=num_pairs {
                for end in start..=num_pairs {
                    let sub: Vec<_> = pair_range(&f1, start..end).collect();
                    assert_eq!(sub, naive[start..end], "n={n} range={start}..{end}");
                }
            }
        }
    }

    #[test]
    fn pair_range_ending_on_the_last_triangle_row_is_complete() {
        use stpm_timeseries::{SeriesId, SymbolId};
        // n = 5 → 10 pairs; the last row holds the single pair (3, 4) at
        // flat index 9. Ranges that end exactly on the triangle's last row
        // (or exactly at its end) must enumerate every requested pair — the
        // pre-fix code could bail out of the row walk with pairs still
        // pending, silently truncating the shard.
        let f1: Vec<EventLabel> = (0..5)
            .map(|i| EventLabel::new(SeriesId(i as u32), SymbolId(0)))
            .collect();
        let full: Vec<_> = pair_range(&f1, 0..10).collect();
        assert_eq!(full.len(), 10);
        assert_eq!(full[9], (f1[3], f1[4]));
        // A range starting mid-triangle and ending exactly at the end.
        let tail: Vec<_> = pair_range(&f1, 7..10).collect();
        assert_eq!(tail, &full[7..10]);
        // A range that ends exactly on a row boundary (end of row 1 = flat
        // index 7) crosses the row-advance path on its final pair.
        let boundary: Vec<_> = pair_range(&f1, 4..7).collect();
        assert_eq!(boundary, &full[4..7]);
        // The last single-pair range alone.
        let last: Vec<_> = pair_range(&f1, 9..10).collect();
        assert_eq!(last, vec![(f1[3], f1[4])]);
    }

    #[test]
    fn balanced_ranges_cut_uniform_costs_evenly() {
        let ranges = balanced_ranges(&[1; 8], 4);
        assert_eq!(ranges, vec![0..2, 2..4, 4..6, 6..8]);
        assert_partition(&ranges, 8, 4);
    }

    #[test]
    fn balanced_ranges_isolate_heavy_items() {
        let costs = [1, 1, 1, 100, 1, 1, 1, 1];
        let ranges = balanced_ranges(&costs, 3);
        assert_partition(&ranges, costs.len(), 3);
        // The 100-cost item gets a shard of its own instead of dragging its
        // neighbours along.
        assert!(ranges.contains(&(3..4)));
    }

    #[test]
    fn balanced_ranges_cover_degenerate_inputs() {
        assert_partition(&balanced_ranges(&[5], 4), 1, 4);
        assert_partition(&balanced_ranges(&[0, 0, 0], 2), 3, 2);
        assert_partition(
            &balanced_ranges(&[3, 9, 2, 7, 1, 1, 4, 2, 8, 6], 10),
            10,
            10,
        );
        assert_partition(&balanced_ranges(&[3, 9, 2], 1), 3, 1);
    }

    #[test]
    fn more_threads_than_work_items_is_harmless() {
        let (_, dseq) = paper_dseq();
        let sequential = StpmMiner::mine_sequences(&dseq, &paper_config()).unwrap();
        let oversubscribed =
            StpmMiner::mine_sequences(&dseq, &paper_config().with_threads(1024)).unwrap();
        assert_eq!(oversubscribed.patterns(), sequential.patterns());
    }

    #[test]
    fn relation_less_pairs_do_not_count_as_candidate_groups() {
        // A and B co-occur in every granule, but their instances only overlap
        // by 2 instants while d_o = 3, so no relation ever classifies. The
        // pair must not be registered as a level-2 candidate group (lazy
        // registration), even with retain_candidates disabled (NoPrune).
        let alphabet = Alphabet::from_strs(&["0", "1"]).unwrap();
        let a = SymbolicSeries::from_labels(
            "A",
            &["1", "1", "1", "0", "1", "1", "1", "0"],
            alphabet.clone(),
        )
        .unwrap();
        let b =
            SymbolicSeries::from_labels("B", &["0", "1", "1", "1", "0", "1", "1", "1"], alphabet)
                .unwrap();
        let dseq = SymbolicDatabase::new(vec![a, b])
            .unwrap()
            .to_sequence_database(4)
            .unwrap();
        let config = StpmConfig {
            max_period: Threshold::Absolute(2),
            min_density: Threshold::Absolute(1),
            dist_interval: (1, 10),
            min_season: 1,
            min_overlap: 3,
            max_pattern_len: 2,
            pruning: PruningMode::NoPrune,
            ..StpmConfig::default()
        };
        // Six event pairs share support; every pair except {A:1, B:1}
        // classifies through Follows/Contains (one pattern each), while
        // {A:1, B:1} can only classify through Overlaps. With d_o = 3 it
        // classifies nothing and must not be registered as a group.
        let report = StpmMiner::mine_sequences(&dseq, &config).unwrap();
        let level2 = report.stats().levels[0];
        assert_eq!(level2.candidate_patterns, 5);
        assert_eq!(
            level2.candidate_groups, 5,
            "a group without a single candidate pattern must not be counted"
        );
        assert_eq!(
            level2.candidate_groups, level2.candidate_patterns,
            "every registered group carries at least one candidate pattern"
        );

        // Lowering d_o back to 1 makes A:1 ≬ B:1 classify: the pair counts.
        let relaxed = StpmConfig {
            min_overlap: 1,
            ..config
        };
        let report = StpmMiner::mine_sequences(&dseq, &relaxed).unwrap();
        let level2 = report.stats().levels[0];
        assert_eq!(level2.candidate_patterns, 6);
        assert_eq!(level2.candidate_groups, 6);
    }

    #[test]
    fn peak_footprint_tracks_live_levels_not_their_sum() {
        // With max_pattern_len = 3 the live set is at most
        // HLH_1 + HLH_2 + HLH_3, so the peak is bounded by the sum of the
        // level footprints and must be at least the largest live set.
        let (_, dseq) = paper_dseq();
        let report = StpmMiner::mine_sequences(&dseq, &paper_config()).unwrap();
        let stats = report.stats();
        let level_sum: usize = stats.levels.iter().map(|l| l.footprint_bytes).sum();
        assert!(stats.peak_footprint_bytes > 0);
        // hlh1 + the adjacency matrix + all levels is the historical sum the
        // old accounting reported; the live peak can never exceed it. The
        // adjacency matrix is bounded by one bit row plus one label per
        // candidate event.
        let resolved = paper_config().resolve(dseq.num_granules()).unwrap();
        let hlh1 = Hlh1::build(&dseq, &resolved, true);
        let n = hlh1.len();
        let adjacency_bound =
            n * std::mem::size_of::<EventLabel>() + n * n.div_ceil(64) * std::mem::size_of::<u64>();
        assert!(stats.peak_footprint_bytes <= hlh1.footprint_bytes() + level_sum + adjacency_bound);
        assert!(stats.peak_footprint_bytes >= hlh1.footprint_bytes());
    }

    #[test]
    fn engine_trait_wraps_the_exact_miner() {
        use crate::engine::accuracy;
        let (dsyb, dseq) = paper_dseq();
        let input = MiningInput::new(&dsyb, &dseq, 3);
        let engine: &dyn MiningEngine = &StpmMiner;
        assert_eq!(engine.name(), "E-STPM");
        let report = engine.mine_with(&input, &paper_config()).unwrap();
        let direct = StpmMiner::mine_sequences(&dseq, &paper_config()).unwrap();
        assert_eq!(report.total_patterns(), direct.total_patterns());
        assert_eq!(report.pruning().pruned_series.len(), 0);
        assert_eq!(report.pruning().kept_series.len(), 5);
        assert!(report.phase_time(phases::SINGLE_EVENTS) <= report.total_time());
        assert!(report.memory_bytes() > 0);
        assert!((accuracy(&report, &report) - 100.0).abs() < 1e-12);
        assert!(!report.pattern_set().is_empty());
    }
}
