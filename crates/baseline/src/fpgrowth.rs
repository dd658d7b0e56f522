//! FP-growth frequent-itemset mining.
//!
//! The locality baseline of Section 7.2 treats each entity's ST-cell set as a
//! transaction and mines frequently co-occurring ST-cells.  This module provides
//! a self-contained FP-growth implementation (FP-tree construction plus recursive
//! conditional-tree mining) generic over `u64` item identifiers, verified against
//! a naive Apriori-style enumerator in the tests.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A frequent itemset and its support count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrequentItemset {
    /// The items, sorted ascending.
    pub items: Vec<u64>,
    /// Number of transactions containing all of the items.
    pub support: usize,
}

/// One node of the FP-tree.
#[derive(Debug, Clone)]
struct FpNode {
    item: u64,
    count: usize,
    parent: usize,
    children: HashMap<u64, usize>,
}

/// An FP-growth miner.
#[derive(Debug, Clone)]
pub struct FpGrowth {
    min_support: usize,
    /// Maximum size of itemsets to report (0 = unlimited).  The clustering
    /// baseline only needs pairs, so capping the depth keeps mining cheap.
    max_len: usize,
}

impl FpGrowth {
    /// Creates a miner with the given minimum support (in absolute transaction
    /// counts) and no length cap.
    pub fn new(min_support: usize) -> Self {
        FpGrowth { min_support: min_support.max(1), max_len: 0 }
    }

    /// Restricts mining to itemsets of at most `max_len` items.
    pub(crate) fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = max_len;
        self
    }

    /// The minimum support.
    pub fn min_support(&self) -> usize {
        self.min_support
    }

    /// Mines all frequent itemsets (of size ≥ 1) from the transactions.
    pub fn mine(&self, transactions: &[Vec<u64>]) -> Vec<FrequentItemset> {
        // 1. Count item frequencies and keep the frequent ones.
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for t in transactions {
            let mut seen: Vec<u64> = t.clone();
            seen.sort_unstable();
            seen.dedup();
            for item in seen {
                *counts.entry(item).or_default() += 1;
            }
        }
        let mut frequent: Vec<(u64, usize)> =
            counts.iter().filter(|(_, &c)| c >= self.min_support).map(|(&i, &c)| (i, c)).collect();
        // Order by descending frequency (ties by item id) — the canonical FP-tree
        // insertion order.
        frequent.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let order: HashMap<u64, usize> =
            frequent.iter().enumerate().map(|(rank, &(item, _))| (item, rank)).collect();

        // 2. Build the FP-tree.
        let mut nodes: Vec<FpNode> =
            vec![FpNode { item: u64::MAX, count: 0, parent: usize::MAX, children: HashMap::new() }];
        let mut header: HashMap<u64, Vec<usize>> = HashMap::new();
        for t in transactions {
            let mut items: Vec<u64> = t
                .iter()
                .copied()
                .filter(|i| order.contains_key(i))
                .collect::<std::collections::BTreeSet<u64>>()
                .into_iter()
                .collect();
            items.sort_by_key(|i| order[i]);
            let mut current = 0usize;
            for item in items {
                let next = match nodes[current].children.get(&item) {
                    Some(&id) => {
                        nodes[id].count += 1;
                        id
                    }
                    None => {
                        let id = nodes.len();
                        nodes.push(FpNode {
                            item,
                            count: 1,
                            parent: current,
                            children: HashMap::new(),
                        });
                        nodes[current].children.insert(item, id);
                        header.entry(item).or_default().push(id);
                        id
                    }
                };
                current = next;
            }
        }

        // 3. Mine recursively via conditional pattern bases.
        let mut results = Vec::new();
        // Process items in reverse frequency order (least frequent first).
        for &(item, support) in frequent.iter().rev() {
            let suffix = vec![item];
            results.push(FrequentItemset { items: suffix.clone(), support });
            if self.max_len == 1 {
                continue;
            }
            // Conditional pattern base: for every node of `item`, the path to the
            // root weighted by the node's count.
            let mut conditional: Vec<(Vec<u64>, usize)> = Vec::new();
            for &node_id in header.get(&item).unwrap_or(&Vec::new()) {
                let count = nodes[node_id].count;
                let mut path = Vec::new();
                let mut cursor = nodes[node_id].parent;
                while cursor != 0 && cursor != usize::MAX {
                    path.push(nodes[cursor].item);
                    cursor = nodes[cursor].parent;
                }
                if !path.is_empty() {
                    path.reverse();
                    conditional.push((path, count));
                }
            }
            self.mine_conditional(&conditional, &suffix, &mut results);
        }
        // Canonical form: items ascending within each set, sets sorted.
        for set in &mut results {
            set.items.sort_unstable();
        }
        results.sort_by(|a, b| a.items.len().cmp(&b.items.len()).then(a.items.cmp(&b.items)));
        results
    }

    /// Recursive step over a conditional pattern base (a weighted transaction set).
    fn mine_conditional(
        &self,
        base: &[(Vec<u64>, usize)],
        suffix: &[u64],
        results: &mut Vec<FrequentItemset>,
    ) {
        if self.max_len != 0 && suffix.len() >= self.max_len {
            return;
        }
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for (path, weight) in base {
            for &item in path {
                *counts.entry(item).or_default() += weight;
            }
        }
        let frequent: Vec<(u64, usize)> =
            counts.into_iter().filter(|&(_, c)| c >= self.min_support).collect();
        for &(item, support) in &frequent {
            let mut items = suffix.to_vec();
            items.push(item);
            results.push(FrequentItemset { items: items.clone(), support });
            // Build the conditional base for the extended suffix.
            let narrowed: Vec<(Vec<u64>, usize)> = base
                .iter()
                .filter_map(|(path, weight)| {
                    path.iter().position(|&i| i == item).map(|pos| (path[..pos].to_vec(), *weight))
                })
                .filter(|(p, _)| !p.is_empty())
                .collect();
            if !narrowed.is_empty() {
                self.mine_conditional(&narrowed, &items, results);
            }
        }
    }
}

/// Naive frequent-itemset enumeration, the oracle FP-growth is cross-checked
/// against.
#[cfg(test)]
fn naive_frequent_itemsets(
    transactions: &[Vec<u64>],
    min_support: usize,
    max_len: usize,
) -> Vec<FrequentItemset> {
    use std::collections::BTreeSet;
    let mut universe: BTreeSet<u64> = BTreeSet::new();
    for t in transactions {
        universe.extend(t.iter().copied());
    }
    let universe: Vec<u64> = universe.into_iter().collect();
    let sets: Vec<BTreeSet<u64>> =
        transactions.iter().map(|t| t.iter().copied().collect()).collect();
    let mut results = Vec::new();
    // Breadth-first enumeration with pruning.
    let mut frontier: Vec<Vec<u64>> = vec![Vec::new()];
    while let Some(itemset) = frontier.pop() {
        let start = itemset.last().copied().unwrap_or(0);
        for &candidate in universe.iter().filter(|&&i| i > start || itemset.is_empty()) {
            if itemset.contains(&candidate) {
                continue;
            }
            let mut extended = itemset.clone();
            extended.push(candidate);
            extended.sort_unstable();
            let support = sets.iter().filter(|s| extended.iter().all(|i| s.contains(i))).count();
            if support >= min_support {
                results.push(FrequentItemset { items: extended.clone(), support });
                if max_len == 0 || extended.len() < max_len {
                    frontier.push(extended);
                }
            }
        }
    }
    results.sort_by(|a, b| a.items.len().cmp(&b.items.len()).then(a.items.cmp(&b.items)));
    results.dedup_by(|a, b| a.items == b.items);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn classic_transactions() -> Vec<Vec<u64>> {
        // The textbook FP-growth example (items renamed to integers).
        vec![
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ]
    }

    #[test]
    fn singleton_supports_match_raw_counts() {
        let txns = classic_transactions();
        let sets = FpGrowth::new(2).mine(&txns);
        let lookup: BTreeMap<Vec<u64>, usize> =
            sets.iter().map(|s| (s.items.clone(), s.support)).collect();
        assert_eq!(lookup[&vec![1]], 6);
        assert_eq!(lookup[&vec![2]], 7);
        assert_eq!(lookup[&vec![3]], 6);
        assert_eq!(lookup[&vec![4]], 2);
        assert_eq!(lookup[&vec![5]], 2);
    }

    #[test]
    fn classic_example_pairs_and_triples() {
        let txns = classic_transactions();
        let sets = FpGrowth::new(2).mine(&txns);
        let lookup: BTreeMap<Vec<u64>, usize> =
            sets.iter().map(|s| (s.items.clone(), s.support)).collect();
        assert_eq!(lookup[&vec![1, 2]], 4);
        assert_eq!(lookup[&vec![1, 3]], 4);
        assert_eq!(lookup[&vec![2, 3]], 4);
        assert_eq!(lookup[&vec![1, 2, 5]], 2);
        assert_eq!(lookup[&vec![1, 2, 3]], 2);
        assert!(!lookup.contains_key(&vec![3, 4]), "infrequent pair must be absent");
    }

    #[test]
    fn matches_naive_enumeration_on_the_classic_example() {
        let txns = classic_transactions();
        for min_support in [2usize, 3, 5] {
            let mut fp = FpGrowth::new(min_support).mine(&txns);
            let mut naive = naive_frequent_itemsets(&txns, min_support, 0);
            fp.sort_by(|a, b| a.items.cmp(&b.items));
            naive.sort_by(|a, b| a.items.cmp(&b.items));
            assert_eq!(fp, naive, "min_support {min_support}");
        }
    }

    #[test]
    fn max_len_caps_itemset_size() {
        let txns = classic_transactions();
        let sets = FpGrowth::new(2).with_max_len(2).mine(&txns);
        assert!(sets.iter().all(|s| s.items.len() <= 2));
        assert!(sets.iter().any(|s| s.items.len() == 2));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(FpGrowth::new(1).mine(&[]).is_empty());
        let single = FpGrowth::new(1).mine(&[vec![7, 7, 7]]);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].items, vec![7]);
        assert_eq!(single[0].support, 1, "duplicate items in a transaction count once");
        assert_eq!(FpGrowth::new(0).min_support(), 1, "support of zero is clamped");
    }

    #[test]
    fn high_min_support_prunes_everything() {
        let txns = classic_transactions();
        assert!(FpGrowth::new(100).mine(&txns).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn fp_growth_matches_naive_on_random_inputs(
            txns in proptest::collection::vec(
                proptest::collection::vec(0u64..8, 0..6), 0..14),
            min_support in 1usize..4,
        ) {
            let mut fp = FpGrowth::new(min_support).mine(&txns);
            let mut naive = naive_frequent_itemsets(&txns, min_support, 0);
            fp.sort_by(|a, b| a.items.cmp(&b.items));
            naive.sort_by(|a, b| a.items.cmp(&b.items));
            prop_assert_eq!(fp, naive);
        }
    }
}
