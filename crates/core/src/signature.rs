//! Hierarchy-aware MinHash signatures (Section 4.2.1).
//!
//! An entity's level-`i` signature is the element-wise minimum, over the cells of
//! its level-`i` ST-cell set, of `nh` hash functions.  The hash functions are
//! constrained so that a coarse cell never hashes above any of its descendant
//! cells; this gives two properties the index relies on:
//!
//! * **Theorem 1** — `sig^i[u] <= sig^{i+1}[u]` for every entity and every `u`;
//! * **Theorem 2** — if `sig^i[u] > h_u(s)` for a base ST-cell `s`, the entity is
//!   guaranteed not to be present in `s`.
//!
//! Two hash constructions are provided (see [`HasherMode`]): the paper's exact
//! min-over-children rule and a scalable `PathMax` rule; both satisfy the
//! monotonicity property above, which is the only thing the correctness proofs
//! use.  (The unit tests add a third, table-driven family that reproduces the
//! worked example of Tables 4.1–4.3.)
//!
//! A build hashes each cell once, as one row of `nh` values, level by level.
//! PathMax defines `h_u(t, a_1..a_l) = max_j g_u(t, a_j)`, so a level-`l`
//! cell's row is `max(row of (t, a_1..a_{l-1}), g_u(t, a_l))` — its parent
//! cell's row, which ancestor closure puts in the previous level's set, maxed
//! with one fresh draw.  `max` is exact, so the rows are bitwise the
//! definition's values and a build draws `nh` base hashes per cell, the
//! `O(|E|·C·m·nh)` of Section 4.3.

use crate::config::HasherMode;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use trace_model::{CellSetSequence, Level, SpIndex, StCell};

/// A family of `nh` hash functions over base-level ST-cells.
pub trait CellHashFamily: Send + Sync {
    /// Number of hash functions in the family.
    fn num_functions(&self) -> u32;

    /// Exclusive upper bound of the hash values.
    fn range(&self) -> u64;

    /// The value of hash function `u` (0-based) on a base-level cell.
    fn hash_base(&self, u: u32, cell: StCell) -> u64;
}

/// A seeded family of hash functions based on the SplitMix64 finaliser, mapping
/// `(function index, cell)` to `[0, range)`.
#[derive(Debug, Clone)]
pub struct SeededHashFamily {
    seeds: Vec<u64>,
    range: u64,
}

impl SeededHashFamily {
    /// Creates a family of `nh` functions with the given seed and range.
    pub(crate) fn new(nh: u32, seed: u64, range: u64) -> Self {
        assert!(nh > 0, "need at least one hash function");
        assert!(range >= 2, "hash range must be at least 2");
        let seeds = (0..nh as u64)
            .map(|i| splitmix64(seed ^ (i.wrapping_mul(0x9E3779B97F4A7C15))))
            .collect();
        SeededHashFamily { seeds, range }
    }
}

impl CellHashFamily for SeededHashFamily {
    fn num_functions(&self) -> u32 {
        self.seeds.len() as u32
    }

    fn range(&self) -> u64 {
        self.range
    }

    #[inline]
    fn hash_base(&self, u: u32, cell: StCell) -> u64 {
        let mixed = splitmix64(self.seeds[u as usize] ^ cell.packed());
        mixed % self.range
    }
}

/// The 64-bit SplitMix64 finaliser — a fast, well-distributed mixing function.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The hierarchy-aware hasher: extends a base-cell hash family to cells at every
/// sp-index level while preserving `h(parent) <= h(child)`.
pub struct HierarchicalHasher<F> {
    family: F,
    mode: HasherMode,
    /// Memo for the exhaustive mode: packed coarse cell → per-function values.
    memo: RwLock<HashMap<u64, Vec<u64>>>,
}

impl<F: Clone> Clone for HierarchicalHasher<F> {
    fn clone(&self) -> Self {
        HierarchicalHasher {
            family: self.family.clone(),
            mode: self.mode,
            memo: RwLock::new(self.memo.read().clone()),
        }
    }
}

impl<F: std::fmt::Debug> std::fmt::Debug for HierarchicalHasher<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HierarchicalHasher")
            .field("family", &self.family)
            .field("mode", &self.mode)
            .field("memo_entries", &self.memo.read().len())
            .finish()
    }
}

impl<F: CellHashFamily> HierarchicalHasher<F> {
    /// Wraps a base-cell family.
    pub(crate) fn new(family: F, mode: HasherMode) -> Self {
        HierarchicalHasher { family, mode, memo: RwLock::new(HashMap::new()) }
    }

    /// Number of hash functions.
    pub(crate) fn num_functions(&self) -> u32 {
        self.family.num_functions()
    }

    /// Exclusive upper bound of hash values.
    pub fn range(&self) -> u64 {
        self.family.range()
    }

    /// The value of hash function `u` on a cell whose spatial unit lives at any
    /// level of `sp`.
    pub(crate) fn hash(&self, sp: &SpIndex, u: u32, cell: StCell) -> u64 {
        let level = sp.level(cell.unit()).expect("cell unit must exist in the sp-index");
        match self.mode {
            HasherMode::PathMax => self.path_max(sp, u, cell, level),
            HasherMode::Exhaustive => {
                if level == sp.height() {
                    self.family.hash_base(u, cell)
                } else {
                    self.exhaustive(sp, cell, |row| row[u as usize])
                }
            }
        }
    }

    /// The values of all `nh` functions on one cell, written to `out`.
    ///
    /// `parent_row` is the row of `(cell.time(), parent of cell.unit())` when
    /// the caller holds it.  In PathMax mode the row is then
    /// `max(parent_row[u], g_u(cell))` — the path maximum split at its last
    /// step, so `nh` base hashes; without it the cell's whole ancestor path is
    /// folded once for all functions.  In Exhaustive mode a base cell's row is
    /// its `g_u` and a coarser cell's is a copy of its memo row; the parent's
    /// row is not used.
    pub(crate) fn hash_row(
        &self,
        sp: &SpIndex,
        cell: StCell,
        parent_row: Option<&[u64]>,
        out: &mut [u64],
    ) {
        debug_assert_eq!(out.len(), self.family.num_functions() as usize);
        match (self.mode, parent_row) {
            (HasherMode::PathMax, Some(parent)) => {
                for (u, (slot, &above)) in out.iter_mut().zip(parent).enumerate() {
                    *slot = above.max(self.family.hash_base(u as u32, cell));
                }
            }
            (HasherMode::PathMax, None) => {
                out.fill(0);
                for &ancestor in sp.ancestors(cell.unit()).expect("unit exists") {
                    let step = StCell::new(cell.time(), ancestor);
                    for (u, slot) in out.iter_mut().enumerate() {
                        *slot = (*slot).max(self.family.hash_base(u as u32, step));
                    }
                }
            }
            (HasherMode::Exhaustive, _) => {
                if sp.level(cell.unit()).expect("unit exists") == sp.height() {
                    for (u, slot) in out.iter_mut().enumerate() {
                        *slot = self.family.hash_base(u as u32, cell);
                    }
                } else {
                    self.exhaustive(sp, cell, |row| out.copy_from_slice(row));
                }
            }
        }
    }

    /// Exhaustive rule: the per-function minima over all descendant base
    /// cells, memoised per coarse cell; `read` sees the memo's row in place.
    fn exhaustive<R>(&self, sp: &SpIndex, cell: StCell, read: impl FnOnce(&[u64]) -> R) -> R {
        if let Some(row) = self.memo.read().get(&cell.packed()) {
            return read(row);
        }
        let nh = self.family.num_functions() as usize;
        let mut row = vec![u64::MAX; nh];
        let (lo, hi) = sp.base_range(cell.unit()).expect("unit exists");
        for ordinal in lo..hi {
            let base_unit = sp.base_unit_at(ordinal).expect("ordinal in range");
            let base_cell = StCell::new(cell.time(), base_unit);
            for (u, slot) in row.iter_mut().enumerate() {
                let h = self.family.hash_base(u as u32, base_cell);
                if h < *slot {
                    *slot = h;
                }
            }
        }
        let value = read(&row);
        self.memo.write().insert(cell.packed(), row);
        value
    }

    /// PathMax rule: `h_u(t, unit at level l) = max over the unit's ancestors a_1..a_l
    /// of g_u(t, a_j)`, where `g_u` is an independent uniform draw per
    /// (function, time, unit).  A parent's value is the maximum over a strict
    /// prefix of its children's ancestor paths, hence never larger.
    fn path_max(&self, sp: &SpIndex, u: u32, cell: StCell, level: Level) -> u64 {
        let mut value = 0u64;
        let path = sp.ancestors(cell.unit()).expect("unit exists");
        debug_assert_eq!(path.len(), level as usize);
        for &ancestor in path {
            let h = self.family.hash_base(u, StCell::new(cell.time(), ancestor));
            if h > value {
                value = h;
            }
        }
        value
    }
}

/// The per-level signature list of one entity (Section 4.2.1): `levels[i-1][u]` is
/// `sig^i[u]`.
///
/// The levels are shared: a clone is O(1), and `merge_min` copies them only
/// while another clone still holds them, so a copy-on-write publish copies
/// only the signatures it merges into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureList {
    levels: Arc<Vec<Vec<u64>>>,
}

impl SignatureList {
    /// Computes the signature list of an entity from its ST-cell set sequence.
    ///
    /// Empty levels produce all-`u64::MAX` signatures (an entity with no presence
    /// at a level can never be pruned *into* a group by it).
    ///
    /// Each cell's row of `nh` hash values is computed once, level by level,
    /// and min-folded into its level's signature.  In PathMax mode a level-`l`
    /// cell's row is `max(row of (time, parent unit), g_u(cell))`: the path
    /// maximum `max_j g_u(t, a_j)` over `a_1..a_l` is the maximum over
    /// `a_1..a_{l-1}` — the parent cell's row — and the last step, and `max`
    /// is exact on integers, so the rows are bitwise [`HierarchicalHasher`]'s
    /// per-function values.  Ancestor closure puts the parent cell in the
    /// previous level's sorted set, where a binary search finds it; a cell
    /// whose parent is not there (a `from_level_sets` level holding a unit of
    /// another depth) folds its full path instead.  So a build draws
    /// `total_cells × nh` base hashes, the `O(|E|·C·m·nh)` of Section 4.3.
    pub(crate) fn build<F: CellHashFamily>(
        sp: &SpIndex,
        hasher: &HierarchicalHasher<F>,
        seq: &CellSetSequence,
    ) -> Self {
        let nh = hasher.num_functions() as usize;
        let mut levels = Vec::with_capacity(seq.num_levels());
        // The previous level's cells and their rows (row `i` at `i * nh`),
        // and the rows of the level being built.
        let mut previous: &[StCell] = &[];
        let (mut previous_rows, mut rows) = (Vec::new(), Vec::new());
        for (_level, set) in seq.iter_levels() {
            let mut sig = vec![u64::MAX; nh];
            rows.clear();
            rows.resize(set.len() * nh, 0);
            for (i, cell) in set.iter().enumerate() {
                let parent_row = sp
                    .parent(cell.unit())
                    .expect("unit exists")
                    .and_then(|parent| {
                        previous.binary_search(&StCell::new(cell.time(), parent)).ok()
                    })
                    .map(|at| &previous_rows[at * nh..(at + 1) * nh]);
                let row = &mut rows[i * nh..(i + 1) * nh];
                hasher.hash_row(sp, cell, parent_row, row);
                trace_model::kernel::merge_min(&mut sig, row);
            }
            levels.push(sig);
            previous = set.as_slice();
            std::mem::swap(&mut previous_rows, &mut rows);
        }
        SignatureList { levels: Arc::new(levels) }
    }

    /// Reassembles a signature list from raw per-level vectors (the inverse of
    /// [`SignatureList::levels`]; used by the persistence layer).
    ///
    /// # Panics
    /// Panics when the level vectors do not all share one width.
    pub(crate) fn from_levels(levels: Vec<Vec<u64>>) -> Self {
        if let Some(first) = levels.first() {
            assert!(
                levels.iter().all(|l| l.len() == first.len()),
                "all levels of a signature must have the same width"
            );
        }
        SignatureList { levels: Arc::new(levels) }
    }

    /// The raw per-level signature vectors (`levels()[i - 1][u]` is `sig^i[u]`).
    pub(crate) fn levels(&self) -> &[Vec<u64>] {
        &self.levels
    }

    /// Element-wise minimum with another signature of the same shape.
    ///
    /// Because a signature is an element-wise minimum over the cells of each
    /// level set, and level sets distribute over unions
    /// (`level_i(A ∪ B) = level_i(A) ∪ level_i(B)`), the signature of a merged
    /// trace is exactly `min(sig(old), sig(delta))`.  This is what makes
    /// streaming ingestion incremental: only the *new* cells of a batch are
    /// hashed, and the result is bit-identical to rebuilding the signature
    /// from the full merged sequence.
    ///
    /// The levels are copied first when another clone still shares them
    /// (`Arc::make_mut`), so that clone keeps the signature it had.
    ///
    /// # Panics
    /// Panics when the two signatures have different shapes.
    pub(crate) fn merge_min(&mut self, other: &SignatureList) {
        assert_eq!(self.levels.len(), other.levels.len(), "level count mismatch in merge");
        for (mine, theirs) in Arc::make_mut(&mut self.levels).iter_mut().zip(other.levels.iter()) {
            assert_eq!(mine.len(), theirs.len(), "signature width mismatch in merge");
            trace_model::kernel::merge_min(mine, theirs);
        }
    }

    /// Number of levels.
    pub(crate) fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The signature at a level (1-based).
    pub(crate) fn level(&self, level: Level) -> &[u64] {
        &self.levels[(level - 1) as usize]
    }

    /// The routing index at a level: the position of the maximum value (ties are
    /// broken towards the lowest index, matching "ties are broken arbitrarily").
    ///
    /// Delegates to [`trace_model::kernel::argmax`], which keeps the running
    /// maximum in a register instead of re-reading `sig[best]` each iteration.
    pub(crate) fn routing_index(&self, level: Level) -> u32 {
        trace_model::kernel::argmax(self.level(level)) as u32
    }

    /// The value at a given level and function index.
    pub(crate) fn value(&self, level: Level, u: u32) -> u64 {
        self.level(level)[u as usize]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use trace_model::examples::{PaperExample, T1, T2};
    use trace_model::{CellSet, CellSetSequence, SpIndex};

    /// A hash family backed by an explicit table, used to reproduce the worked
    /// example of Table 4.1 exactly.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct TableHashFamily {
        range: u64,
        values: HashMap<(u32, u64), u64>,
    }

    impl TableHashFamily {
        /// Creates an empty table with the given range.
        pub(crate) fn new(range: u64) -> Self {
            TableHashFamily { range, values: HashMap::new() }
        }

        /// Sets the value of hash function `u` on a base cell.
        pub(crate) fn set(&mut self, u: u32, cell: StCell, value: u64) {
            assert!(value < self.range, "table value outside range");
            self.values.insert((u, cell.packed()), value);
        }

        /// Number of distinct functions mentioned in the table.
        fn max_function(&self) -> u32 {
            self.values.keys().map(|&(u, _)| u + 1).max().unwrap_or(0)
        }
    }

    impl CellHashFamily for TableHashFamily {
        fn num_functions(&self) -> u32 {
            self.max_function()
        }

        fn range(&self) -> u64 {
            self.range
        }

        fn hash_base(&self, u: u32, cell: StCell) -> u64 {
            *self
                .values
                .get(&(u, cell.packed()))
                .unwrap_or_else(|| panic!("no table entry for function {u} and cell {cell}"))
        }
    }

    fn paper_hasher() -> (PaperExample, HierarchicalHasher<TableHashFamily>) {
        let ex = PaperExample::build();
        let mut table = TableHashFamily::new(10);
        let u = ex.units;
        for (t, unit) in [
            (T1, u.l1),
            (T2, u.l1),
            (T1, u.l2),
            (T2, u.l2),
            (T1, u.l3),
            (T2, u.l3),
            (T1, u.l4),
            (T2, u.l4),
        ] {
            for h in [1u32, 2] {
                let cell = StCell::new(t, unit);
                let value = ex.hash_value(h as usize, cell).unwrap() as u64;
                table.set(h - 1, cell, value);
            }
        }
        (ex, HierarchicalHasher::new(table, HasherMode::Exhaustive))
    }

    /// Table 4.3: the signatures of the four example entities match the paper.
    #[test]
    fn paper_example_signature_table() {
        let (ex, hasher) = paper_hasher();
        let expected = ex.expected_signatures();
        for ((entity, seq), (expected_entity, sig1, sig2)) in ex.entities.iter().zip(expected) {
            assert_eq!(*entity, expected_entity);
            let sig = SignatureList::build(&ex.sp, &hasher, seq);
            assert_eq!(
                sig.level(1),
                &[sig1[0] as u64, sig1[1] as u64],
                "level-1 signature of {entity}"
            );
            assert_eq!(
                sig.level(2),
                &[sig2[0] as u64, sig2[1] as u64],
                "level-2 signature of {entity}"
            );
        }
    }

    /// Example 4.2.1 routing: e_a, e_b, e_c route to index 2 (1-based) at level 1,
    /// e_d routes to index 1.
    #[test]
    fn paper_example_routing_indices() {
        let (ex, hasher) = paper_hasher();
        let routing: Vec<u32> = ex
            .entities
            .iter()
            .map(|(_, seq)| SignatureList::build(&ex.sp, &hasher, seq).routing_index(1))
            .collect();
        assert_eq!(routing, vec![1, 1, 1, 0], "0-based routing indices at level 1");
    }

    #[test]
    fn seeded_family_is_deterministic_and_in_range() {
        let f = SeededHashFamily::new(16, 99, 1000);
        assert_eq!(f.num_functions(), 16);
        for u in 0..16 {
            for t in 0..20u32 {
                let c = StCell::new(t, t * 7);
                let a = f.hash_base(u, c);
                let b = f.hash_base(u, c);
                assert_eq!(a, b);
                assert!(a < 1000);
            }
        }
        // Different functions give different values somewhere.
        let c = StCell::new(1, 1);
        let distinct: std::collections::BTreeSet<u64> =
            (0..16).map(|u| f.hash_base(u, c)).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn theorem_1_holds_for_both_modes() {
        // sig^i[u] <= sig^{i+1}[u] on a random-ish 3-level hierarchy.
        let sp = SpIndex::uniform(3, &[3, 4]).unwrap();
        let cells: Vec<StCell> = sp
            .base_units()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(i, &unit)| StCell::new((i % 5) as u32, unit))
            .collect();
        let seq = CellSetSequence::from_base_cells(&sp, &CellSet::from_cells(cells)).unwrap();
        for mode in [HasherMode::Exhaustive, HasherMode::PathMax] {
            let hasher = HierarchicalHasher::new(SeededHashFamily::new(32, 7, 10_000), mode);
            let sig = SignatureList::build(&sp, &hasher, &seq);
            for level in 1..sp.height() {
                for u in 0..32 {
                    assert!(
                        sig.value(level, u) <= sig.value(level + 1, u),
                        "Theorem 1 violated at level {level}, u {u}, mode {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn parent_hash_never_exceeds_child_hash() {
        let sp = SpIndex::uniform(2, &[4, 5]).unwrap();
        for mode in [HasherMode::Exhaustive, HasherMode::PathMax] {
            let hasher = HierarchicalHasher::new(SeededHashFamily::new(8, 3, 5_000), mode);
            for &base in sp.base_units().iter().step_by(4) {
                for t in 0..3u32 {
                    let base_cell = StCell::new(t, base);
                    for level in 1..sp.height() {
                        let ancestor = sp.ancestor_at_level(base, level).unwrap();
                        let coarse_cell = StCell::new(t, ancestor);
                        for u in 0..8 {
                            let hp = hasher.hash(&sp, u, coarse_cell);
                            let hc = hasher.hash(&sp, u, base_cell);
                            assert!(
                                hp <= hc,
                                "h(parent)={hp} > h(child)={hc} at level {level} mode {mode:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn theorem_2_absence_certificate() {
        // If sig^i[u] > h_u(s) then s is not in the entity's base set.
        let sp = SpIndex::uniform(2, &[3, 3]).unwrap();
        let hasher =
            HierarchicalHasher::new(SeededHashFamily::new(16, 11, 2_000), HasherMode::PathMax);
        let present: Vec<StCell> =
            sp.base_units().iter().step_by(2).map(|&u| StCell::new(0, u)).collect();
        let seq =
            CellSetSequence::from_base_cells(&sp, &CellSet::from_cells(present.clone())).unwrap();
        let sig = SignatureList::build(&sp, &hasher, &seq);
        let present_set: std::collections::BTreeSet<u64> =
            present.iter().map(|c| c.packed()).collect();
        for &unit in sp.base_units() {
            for t in 0..2u32 {
                let s = StCell::new(t, unit);
                for level in 1..=sp.height() {
                    for u in 0..16 {
                        if sig.value(level, u) > hasher.hash(&sp, u, s) {
                            assert!(
                                !present_set.contains(&s.packed()),
                                "Theorem 2 violated: pruned a present cell {s}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn exhaustive_mode_memoises_coarse_cells() {
        let sp = SpIndex::uniform(2, &[8]).unwrap();
        let hasher =
            HierarchicalHasher::new(SeededHashFamily::new(4, 5, 100), HasherMode::Exhaustive);
        let coarse_unit = sp.top_units()[0];
        let cell = StCell::new(3, coarse_unit);
        assert_eq!(hasher.memo.read().len(), 0);
        let first = hasher.hash(&sp, 0, cell);
        assert_eq!(hasher.memo.read().len(), 1);
        let second = hasher.hash(&sp, 0, cell);
        assert_eq!(first, second);
        assert_eq!(hasher.memo.read().len(), 1);
    }

    /// `sig^l[u]` by the definition: the minimum of `hasher.hash(sp, u, cell)`
    /// over the level-`l` cells, `u64::MAX` over none.
    fn signature_by_definition<F: CellHashFamily>(
        sp: &SpIndex,
        hasher: &HierarchicalHasher<F>,
        seq: &CellSetSequence,
    ) -> Vec<Vec<u64>> {
        let functions = 0..hasher.num_functions();
        seq.iter_levels()
            .map(|(_, set)| {
                let min = |u| set.iter().map(|cell| hasher.hash(sp, u, cell)).min();
                functions.clone().map(|u| min(u).unwrap_or(u64::MAX)).collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The row build is the definition, in both modes and at every
        /// width: for random hierarchies and traces — and the same traces
        /// with every level past a random one emptied, still
        /// ancestor-closed — every `sig^l[u]` is the minimum over the
        /// level-`l` cells of `hasher.hash(sp, u, cell)`.
        #[test]
        fn row_build_equals_the_definition(
            seed in any::<u64>(),
            range in 2u64..5_000,
            top in 1usize..4,
            branching in proptest::collection::vec(1usize..4, 1..4),
            picks in proptest::collection::vec((0u32..5, 0usize..1_000), 0..40),
            kept in 1usize..5,
        ) {
            let sp = SpIndex::uniform(top, &branching).unwrap();
            let base = sp.base_units();
            let cells = picks.iter().map(|&(t, at)| StCell::new(t, base[at % base.len()]));
            let full = CellSetSequence::from_base_cells(&sp, &CellSet::from_cells(cells)).unwrap();
            let cut = full
                .iter_levels()
                .map(|(level, set)| if level as usize <= kept { set.clone() } else { CellSet::new() })
                .collect();
            let cut = CellSetSequence::from_level_sets(&sp, cut).unwrap();
            for mode in [HasherMode::PathMax, HasherMode::Exhaustive] {
                for nh in [1, 7, 32] {
                    let hasher = HierarchicalHasher::new(SeededHashFamily::new(nh, seed, range), mode);
                    for seq in [&full, &cut] {
                        let sig = SignatureList::build(&sp, &hasher, seq);
                        prop_assert_eq!(
                            sig.levels(),
                            signature_by_definition(&sp, &hasher, seq).as_slice(),
                            "{:?}, nh {}", mode, nh
                        );
                    }
                }
            }
        }
    }

    /// Where a cell's parent cell is not in the previous level's set — a
    /// `from_level_sets` level holding a unit of another depth — the row build
    /// folds the cell's full path and stays the definition; a level with no
    /// cells stays all `u64::MAX`.
    #[test]
    fn row_build_folds_the_full_path_where_the_parent_cell_is_missing() {
        let sp = SpIndex::uniform(2, &[2, 2]).unwrap();
        let top = sp.top_units()[0];
        let (mid, other_mid) = (sp.children(top).unwrap()[0], sp.children(top).unwrap()[1]);
        let (base, other_base) = (sp.children(mid).unwrap()[0], sp.children(other_mid).unwrap()[0]);
        let sets = |levels: [&[(u32, u32)]; 3]| {
            let sets = levels
                .map(|cells| CellSet::from_cells(cells.iter().map(|&(t, u)| StCell::new(t, u))));
            CellSetSequence::from_level_sets(&sp, sets.to_vec()).unwrap()
        };
        let sequences = [
            // A base unit at level 2, its parent cell nowhere.
            sets([&[(0, top)], &[(0, other_base)], &[]]),
            // A level-1 unit at level 2 beside a level-2 unit with a base child.
            sets([&[(0, top), (1, top)], &[(0, top), (1, mid)], &[(1, base)]]),
            // A level-2 unit at level 1: its base child at level 2 finds it there.
            sets([&[(0, top), (0, other_mid)], &[(0, other_base)], &[]]),
            // Presence at level 1 only.
            sets([&[(2, top)], &[], &[]]),
        ];
        for mode in [HasherMode::PathMax, HasherMode::Exhaustive] {
            for nh in [1, 7, 32] {
                let hasher = HierarchicalHasher::new(SeededHashFamily::new(nh, 5, 10_000), mode);
                for seq in &sequences {
                    let sig = SignatureList::build(&sp, &hasher, seq);
                    assert_eq!(sig.levels(), signature_by_definition(&sp, &hasher, seq).as_slice());
                }
                let last = SignatureList::build(&sp, &hasher, &sequences[3]);
                assert!(last.level(2).iter().chain(last.level(3)).all(|&v| v == u64::MAX));
            }
        }
    }

    /// A seeded family that counts its base hashes.
    #[derive(Debug)]
    struct CountingFamily {
        inner: SeededHashFamily,
        calls: AtomicU64,
    }

    impl CellHashFamily for CountingFamily {
        fn num_functions(&self) -> u32 {
            self.inner.num_functions()
        }

        fn range(&self) -> u64 {
            self.inner.range()
        }

        fn hash_base(&self, u: u32, cell: StCell) -> u64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.hash_base(u, cell)
        }
    }

    /// The work is counted, not timed: a PathMax build of an ancestor-closed
    /// sequence draws exactly `total_cells() × nh` base hashes — what
    /// `IndexStats::hash_evaluations` adds for it — where hashing each
    /// function's full path per cell drew `Σ_l l·|level l|·nh`.
    #[test]
    fn path_max_build_draws_one_row_per_cell() {
        let sp = SpIndex::uniform(3, &[4, 3, 2]).unwrap();
        let cells = sp
            .base_units()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 5 != 1)
            .map(|(i, &unit)| StCell::new((i % 7) as u32, unit));
        let seq = CellSetSequence::from_base_cells(&sp, &CellSet::from_cells(cells)).unwrap();
        for nh in [1, 7, 32] {
            let family = CountingFamily {
                inner: SeededHashFamily::new(nh, 3, 100_000),
                calls: AtomicU64::new(0),
            };
            let hasher = HierarchicalHasher::new(family, HasherMode::PathMax);
            let _ = SignatureList::build(&sp, &hasher, &seq);
            let drawn = hasher.family.calls.load(Ordering::Relaxed);
            assert_eq!(drawn, seq.total_cells() as u64 * nh as u64, "nh {nh}");
        }
    }

    #[test]
    fn empty_sequence_signature_is_all_max() {
        let sp = SpIndex::uniform(2, &[2]).unwrap();
        let hasher = HierarchicalHasher::new(SeededHashFamily::new(4, 5, 100), HasherMode::PathMax);
        let seq = CellSetSequence::from_base_cells(&sp, &CellSet::new()).unwrap();
        let sig = SignatureList::build(&sp, &hasher, &seq);
        for level in 1..=2u8 {
            assert!(sig.level(level).iter().all(|&v| v == u64::MAX));
        }
        assert_eq!(sig.routing_index(1), 0);
    }

    #[test]
    #[should_panic(expected = "no table entry")]
    fn table_family_panics_on_missing_entries() {
        let table = TableHashFamily::new(10);
        let _ = table.hash_base(0, StCell::new(0, 0));
    }

    #[test]
    fn merge_min_equals_rebuild_from_union() {
        // sig(A ∪ B) == min(sig(A), sig(B)), the property streaming ingestion
        // relies on for incremental signature maintenance.
        let sp = SpIndex::uniform(3, &[3, 3]).unwrap();
        let hasher =
            HierarchicalHasher::new(SeededHashFamily::new(16, 42, 10_000), HasherMode::PathMax);
        let cells_a: Vec<StCell> =
            sp.base_units().iter().step_by(3).map(|&u| StCell::new(1, u)).collect();
        let cells_b: Vec<StCell> =
            sp.base_units().iter().step_by(4).map(|&u| StCell::new(2, u)).collect();
        let set_a = CellSet::from_cells(cells_a.clone());
        let set_b = CellSet::from_cells(cells_b.clone());
        let union = set_a.union(&set_b);

        let seq_a = CellSetSequence::from_base_cells(&sp, &set_a).unwrap();
        let seq_b = CellSetSequence::from_base_cells(&sp, &set_b).unwrap();
        let seq_union = CellSetSequence::from_base_cells(&sp, &union).unwrap();

        let mut merged = SignatureList::build(&sp, &hasher, &seq_a);
        merged.merge_min(&SignatureList::build(&sp, &hasher, &seq_b));
        let rebuilt = SignatureList::build(&sp, &hasher, &seq_union);
        assert_eq!(merged, rebuilt);

        // Merging into a clone copies the shared levels first: the original
        // keeps sig(A), storage and values.
        let original = SignatureList::build(&sp, &hasher, &seq_a);
        let before: Vec<Vec<u64>> = original.levels().to_vec();
        let mut copy = original.clone();
        assert!(std::ptr::eq(copy.levels(), original.levels()), "a clone shares its levels");
        copy.merge_min(&SignatureList::build(&sp, &hasher, &seq_b));
        assert_eq!(copy, rebuilt);
        assert!(!std::ptr::eq(copy.levels(), original.levels()), "a merge copies shared levels");
        assert_eq!(original.levels(), before.as_slice());
        assert_ne!(original, rebuilt, "the delta lowers some value");
    }

    #[test]
    fn routing_index_ties_break_toward_lowest_index() {
        // Duplicate maxima anywhere in the signature must route to the first
        // occurrence: group membership depends on this being deterministic.
        let sig = SignatureList::from_levels(vec![
            vec![7, 9, 9, 3],
            vec![9, 9, 9, 9],
            vec![1, 2, 9, 9],
            vec![u64::MAX, u64::MAX, 0, u64::MAX],
        ]);
        assert_eq!(sig.routing_index(1), 1);
        assert_eq!(sig.routing_index(2), 0);
        assert_eq!(sig.routing_index(3), 2);
        assert_eq!(sig.routing_index(4), 0);
    }

    #[test]
    fn from_levels_round_trips() {
        let levels = vec![vec![3u64, 9], vec![5, 12]];
        let sig = SignatureList::from_levels(levels.clone());
        assert_eq!(sig.levels(), levels.as_slice());
        assert_eq!(sig.num_levels(), 2);
        assert_eq!(sig.value(1, 1), 9);
        assert_eq!(sig.routing_index(2), 1);
    }

    #[test]
    #[should_panic(expected = "same width")]
    fn from_levels_rejects_ragged_input() {
        let _ = SignatureList::from_levels(vec![vec![1], vec![1, 2]]);
    }

    #[test]
    fn splitmix_is_not_identity_and_spreads_bits() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a, 1);
        assert!(a.count_ones() > 10, "output should look random");
    }
}
