//! The PS-tree: a prefix tree over transactions that keeps, per node, the
//! identifiers (granule positions) of the transactions passing through it.
//!
//! This is the occurrence-list flavour of the Periodic Summary tree of
//! PS-growth: the per-node granule lists are what the algorithm summarises
//! into periods. Keeping the full lists makes the implementation simpler and
//! *more* memory-hungry — matching the paper's observation that the baseline
//! is the least memory-efficient contender.

use std::collections::BTreeMap;
use stpm_timeseries::{EventLabel, GranulePos};

/// A weighted transaction: a sorted item list plus the granules in which this
/// exact item combination was observed (the initial database uses one granule
/// per transaction; conditional databases carry several).
pub type WeightedTransaction = (Vec<EventLabel>, Vec<GranulePos>);

/// One node of the PS-tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsNode {
    /// The item this node represents (`None` only for the root).
    pub item: Option<EventLabel>,
    /// Parent node index (the root points to itself).
    pub parent: usize,
    /// Child node indices.
    pub children: Vec<usize>,
    /// Granules of the transactions whose path includes this node.
    pub tids: Vec<GranulePos>,
}

/// The PS-tree plus its header table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsTree {
    nodes: Vec<PsNode>,
    header: BTreeMap<EventLabel, Vec<usize>>,
    db_len: u64,
}

impl PsTree {
    /// Builds a PS-tree from weighted transactions, dropping items whose
    /// support is below `min_sup` and ordering the surviving items of every
    /// transaction by descending global support (the FP-tree insertion
    /// order).
    #[must_use]
    pub fn build(transactions: &[WeightedTransaction], min_sup: u64, db_len: u64) -> Self {
        // Global supports (weighted by tid counts).
        let mut supports: BTreeMap<EventLabel, u64> = BTreeMap::new();
        for (items, tids) in transactions {
            for item in items {
                *supports.entry(*item).or_insert(0) += tids.len() as u64;
            }
        }
        let mut tree = Self {
            nodes: vec![PsNode {
                item: None,
                parent: 0,
                children: Vec::new(),
                tids: Vec::new(),
            }],
            header: BTreeMap::new(),
            db_len,
        };
        for (items, tids) in transactions {
            let mut kept: Vec<EventLabel> = items
                .iter()
                .copied()
                .filter(|i| supports.get(i).copied().unwrap_or(0) >= min_sup)
                .collect();
            if kept.is_empty() {
                continue;
            }
            // Descending support, ties broken by the label order, makes the
            // insertion order deterministic.
            kept.sort_by(|a, b| supports[b].cmp(&supports[a]).then_with(|| a.cmp(b)));
            tree.insert(&kept, tids);
        }
        tree
    }

    fn insert(&mut self, items: &[EventLabel], tids: &[GranulePos]) {
        let mut current = 0usize;
        for item in items {
            let child = self.nodes[current]
                .children
                .iter()
                .copied()
                .find(|c| self.nodes[*c].item == Some(*item));
            let node_idx = match child {
                Some(idx) => idx,
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(PsNode {
                        item: Some(*item),
                        parent: current,
                        children: Vec::new(),
                        tids: Vec::new(),
                    });
                    self.nodes[current].children.push(idx);
                    self.header.entry(*item).or_default().push(idx);
                    idx
                }
            };
            self.nodes[node_idx].tids.extend_from_slice(tids);
            current = node_idx;
        }
    }

    /// Number of transactions of the original database.
    #[must_use]
    pub fn db_len(&self) -> u64 {
        self.db_len
    }

    /// The items of the header table, in ascending support order (the order
    /// PS-growth processes them in).
    #[must_use]
    pub fn header_items(&self) -> Vec<EventLabel> {
        let mut items: Vec<(EventLabel, u64)> = self
            .header
            .iter()
            .map(|(item, nodes)| {
                let support: u64 = nodes.iter().map(|n| self.nodes[*n].tids.len() as u64).sum();
                (*item, support)
            })
            .collect();
        items.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        items.into_iter().map(|(i, _)| i).collect()
    }

    /// Sorted granules in which `item` occurs (union of its nodes' lists).
    #[must_use]
    pub fn item_tids(&self, item: EventLabel) -> Vec<GranulePos> {
        let mut tids: Vec<GranulePos> = self
            .header
            .get(&item)
            .into_iter()
            .flatten()
            .flat_map(|n| self.nodes[*n].tids.iter().copied())
            .collect();
        tids.sort_unstable();
        tids.dedup();
        tids
    }

    /// The conditional pattern base of `item`: for every node of the item,
    /// the prefix path (ancestors, nearest first excluded root) together with
    /// that node's granules.
    #[must_use]
    pub fn conditional_pattern_base(&self, item: EventLabel) -> Vec<WeightedTransaction> {
        let mut base = Vec::new();
        for &node_idx in self.header.get(&item).into_iter().flatten() {
            let mut path = Vec::new();
            let mut current = self.nodes[node_idx].parent;
            while current != 0 {
                if let Some(i) = self.nodes[current].item {
                    path.push(i);
                }
                current = self.nodes[current].parent;
            }
            if path.is_empty() {
                continue;
            }
            path.reverse();
            base.push((path, self.nodes[node_idx].tids.clone()));
        }
        base
    }

    /// Approximate heap footprint in bytes (nodes + granule lists + header).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        let node_bytes: usize = self
            .nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<PsNode>()
                    + n.children.len() * std::mem::size_of::<usize>()
                    + n.tids.len() * std::mem::size_of::<GranulePos>()
            })
            .sum();
        let header_bytes: usize = self
            .header
            .values()
            .map(|v| v.len() * std::mem::size_of::<usize>() + std::mem::size_of::<EventLabel>())
            .sum();
        node_bytes + header_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stpm_timeseries::{SeriesId, SymbolId};

    fn label(series: u32) -> EventLabel {
        EventLabel::new(SeriesId(series), SymbolId(1))
    }

    fn sample_transactions() -> Vec<WeightedTransaction> {
        // a appears 4 times, b 3, c 2, d 1.
        vec![
            (vec![label(0), label(1), label(2)], vec![1]),
            (vec![label(0), label(1)], vec![2]),
            (vec![label(0), label(2)], vec![3]),
            (vec![label(0), label(1), label(3)], vec![4]),
        ]
    }

    #[test]
    fn build_shares_prefixes() {
        let tree = PsTree::build(&sample_transactions(), 1, 4);
        // Root + a + b + c(under ab) + c(under a) + d = 6 nodes.
        assert_eq!(tree.nodes.len(), 6);
        assert_eq!(tree.db_len(), 4);
        assert!(tree.footprint_bytes() > 0);
    }

    #[test]
    fn min_sup_filters_items_at_build_time() {
        let tree = PsTree::build(&sample_transactions(), 2, 4);
        // d (support 1) never enters the tree.
        assert!(tree.item_tids(label(3)).is_empty());
        assert!(!tree.item_tids(label(2)).is_empty());
    }

    #[test]
    fn item_tids_are_sorted_and_complete() {
        let tree = PsTree::build(&sample_transactions(), 1, 4);
        assert_eq!(tree.item_tids(label(0)), vec![1, 2, 3, 4]);
        assert_eq!(tree.item_tids(label(1)), vec![1, 2, 4]);
        assert_eq!(tree.item_tids(label(2)), vec![1, 3]);
        assert_eq!(tree.item_tids(label(3)), vec![4]);
    }

    #[test]
    fn header_items_are_in_ascending_support_order() {
        let tree = PsTree::build(&sample_transactions(), 1, 4);
        let items = tree.header_items();
        assert_eq!(items.first().copied(), Some(label(3)));
        assert_eq!(items.last().copied(), Some(label(0)));
    }

    #[test]
    fn conditional_pattern_base_collects_prefix_paths() {
        let tree = PsTree::build(&sample_transactions(), 1, 4);
        // c occurs under (a, b) with tid 1 and under (a) with tid 3.
        let base = tree.conditional_pattern_base(label(2));
        assert_eq!(base.len(), 2);
        assert!(base.contains(&(vec![label(0), label(1)], vec![1])));
        assert!(base.contains(&(vec![label(0)], vec![3])));
        // The most frequent item has no prefix.
        assert!(tree.conditional_pattern_base(label(0)).is_empty());
    }

    #[test]
    fn empty_database_builds_only_a_root() {
        let tree = PsTree::build(&[], 1, 0);
        assert_eq!(tree.nodes.len(), 1);
        assert!(tree.header_items().is_empty());
    }
}
