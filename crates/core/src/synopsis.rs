//! Per-shard synopses: the tiny, provable summaries the query planner
//! ([`crate::plan`]) consumes to skip shards and seed thresholds.
//!
//! A [`Synopsis`] condenses one shard's entity population into three facts,
//! each chosen because it supports a *proof*, not a heuristic:
//!
//! * **per-level cell-capacity caps** — for every sp-index level `l`, the
//!   maximum level-`l` sequence size over the shard's entities.  Any entity's
//!   level-`l` overlap with any query is at most
//!   `min(|query_l|, |entity_l|) ≤ min(|query_l|, cap_l)`, so feeding the
//!   caps through [`AssociationMeasure::upper_bound`] (Theorem 4's artificial
//!   entity) yields a degree **no entity in the shard can exceed** —
//!   the certificate behind shard skipping;
//! * **a top-m degree sketch** — the ids of the shard's `m` *hottest*
//!   entities (largest total cell count, ties by ascending id).  The planner
//!   evaluates their **exact** degrees against the query; the k-th best of
//!   any ≥ k real candidates is a sound lower bound on the global k-th-best
//!   degree, usable to seed the search bound before any traversal.  The
//!   sketch only influences *which* candidates get pre-scored, never what
//!   their degrees are, so a poor sketch costs speed, never correctness;
//! * **the entity count** — gives an empty shard its `-inf` upper bound,
//!   which makes any seeded query skip it, and is the denominator of the
//!   sampled-scan recall model (`Synopsis::expected_scan_recall`: the
//!   share of a shard's members its hot sketch covers); a shard plan
//!   reports it.
//!
//! ## Consistency contract
//!
//! The synopsis always equals [`Synopsis::compute`] over the snapshot it
//! travels with — the caps are exact maxima of the *current* population,
//! never stale upper bounds.  Every publish, a lone insert included,
//! recomputes it — one `O(entities × levels)` pass over already-materialised
//! sequence lengths; no cell is ever hashed.  Each synopsis records the snapshot
//! [`epoch`](Synopsis::epoch) it was computed at.
//!
//! The synopsis is persisted inside the `MSIX` v2 file ([`crate::persist`])
//! so a reopened index plans without recomputing anything — in particular
//! without losing a non-default [`sketch_size`](Synopsis::sketch_size) chosen
//! at build time.  Version-1 files (which predate synopses) still open: the
//! synopsis is then computed from the loaded sequences at
//! [`DEFAULT_SKETCH_SIZE`].

use trace_model::{AssociationMeasure, CellSetSequence, EntityId};

/// Sketch size used when none is chosen explicitly: enough hot candidates per
/// shard that even a single-shard index can usually seed a k ≤ 16 query.
pub const DEFAULT_SKETCH_SIZE: usize = 16;

/// The planning summary of one shard's population; see the
/// [module docs](crate::synopsis) for what each field proves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Synopsis {
    epoch: u64,
    sketch_size: usize,
    level_caps: Vec<usize>,
    num_entities: usize,
    hot_entities: Vec<EntityId>,
}

impl Synopsis {
    /// Computes the synopsis of a population in one linear pass.
    ///
    /// `levels` is the sp-index height (the length of
    /// `level_caps`); `sketch_size` is `m`, the
    /// number of hottest entities to remember; `epoch` is recorded verbatim
    /// (pass the snapshot's mutation epoch, 0 for fresh builds and opens).
    pub fn compute<'a, I>(levels: u8, sequences: I, sketch_size: usize, epoch: u64) -> Synopsis
    where
        I: IntoIterator<Item = (EntityId, &'a CellSetSequence)>,
    {
        let mut level_caps = vec![0usize; levels as usize];
        let mut sized: Vec<(usize, EntityId)> = Vec::new();
        for (entity, seq) in sequences {
            debug_assert_eq!(seq.num_levels(), levels as usize);
            for (i, cap) in level_caps.iter_mut().enumerate() {
                *cap = (*cap).max(seq.level((i + 1) as u8).len());
            }
            sized.push((seq.total_cells(), entity));
        }
        let num_entities = sized.len();
        // Hottest first: most cells, ties by ascending id (deterministic).
        // Select the m survivors in O(n) before sorting only them — this
        // runs on every mutation batch, so a full population sort would make
        // single-entity upserts O(n log n) for a 16-entry sketch.
        let hottest_first =
            |a: &(usize, EntityId), b: &(usize, EntityId)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
        let keep = sketch_size.min(sized.len());
        if keep == 0 {
            sized.clear();
        } else {
            if keep < sized.len() {
                sized.select_nth_unstable_by(keep - 1, hottest_first);
                sized.truncate(keep);
            }
            sized.sort_unstable_by(hottest_first);
        }
        Synopsis {
            epoch,
            sketch_size,
            level_caps,
            num_entities,
            hot_entities: sized.into_iter().map(|(_, e)| e).collect(),
        }
    }

    /// Reassembles a synopsis from its stored parts (the persistence layer's
    /// decode path); the caller is responsible for validation.
    pub(crate) fn from_parts(
        epoch: u64,
        sketch_size: usize,
        level_caps: Vec<usize>,
        num_entities: usize,
        hot_entities: Vec<EntityId>,
    ) -> Synopsis {
        Synopsis { epoch, sketch_size, level_caps, num_entities, hot_entities }
    }

    /// The snapshot mutation epoch this synopsis was computed at (0 for fresh
    /// builds and freshly opened indexes).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sketch size `m` this synopsis keeps hot entities for.
    pub fn sketch_size(&self) -> usize {
        self.sketch_size
    }

    /// Per-level caps: element `l-1` is the maximum level-`l` sequence size
    /// over the population — an upper bound on any entity's level-`l` overlap
    /// with any query.
    pub(crate) fn level_caps(&self) -> &[usize] {
        &self.level_caps
    }

    /// Number of entities summarised.
    pub(crate) fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// The ids of the `min(m, population)` hottest entities, hottest first
    /// (largest total cell count, ties by ascending id).
    pub(crate) fn hot_entities(&self) -> &[EntityId] {
        &self.hot_entities
    }

    /// An upper bound on the association degree **any** entity of this
    /// population can reach against a query with the given per-level sizes —
    /// `-inf` for an empty population (no entity can contribute anything).
    ///
    /// Sound for every measure satisfying the Section 3.2 axioms: each
    /// entity's level-`l` overlap is at most `min(query_sizes[l-1],
    /// level_caps[l-1])`, and [`AssociationMeasure::upper_bound`] instantiates
    /// the most favourable entity compatible with those caps.
    pub(crate) fn degree_upper_bound<M: AssociationMeasure + ?Sized>(
        &self,
        query_sizes: &[usize],
        measure: &M,
    ) -> f64 {
        debug_assert_eq!(query_sizes.len(), self.level_caps.len());
        if self.num_entities == 0 {
            return f64::NEG_INFINITY;
        }
        let caps: Vec<usize> =
            self.level_caps.iter().zip(query_sizes).map(|(&cap, &q)| cap.min(q)).collect();
        measure.upper_bound(query_sizes, &caps)
    }

    /// The expected recall of a **sampled scan** of this shard at sample rate
    /// `rate ∈ [0, 1]`: the probability that a fixed member of the true top-k
    /// residing in this shard is scored by the scan.
    ///
    /// The sampled scan always scores every hot-sketch entity (they are known
    /// ids, not a random draw) and includes each remaining member
    /// independently with probability `rate`, so a top-k member is found with
    /// probability `1` if it is hot and `rate` otherwise.  With `m` of `n`
    /// entities in the sketch, a member is hot with probability at least
    /// `p = min(m, n) / n` under the planner's prior (hot entities, having
    /// the most cells, are the *most* likely to reach large overlap degrees —
    /// the same monotonicity the seeding heuristic exploits — so the uniform
    /// `m/n` is the conservative floor), giving
    ///
    /// ```text
    /// E[recall] ≥ p + (1 − p)·rate
    /// ```
    ///
    /// An empty shard recalls perfectly (there is nothing to miss), as does
    /// `rate = 1` (the scan degenerates to the exact flat scan).  The
    /// estimate is monotone in `rate`, which is what makes
    /// [`min_rate_for_recall`](Self::min_rate_for_recall) its exact inverse.
    pub(crate) fn expected_scan_recall(&self, rate: f64) -> f64 {
        let rate = rate.clamp(0.0, 1.0);
        if self.num_entities == 0 {
            return 1.0;
        }
        let hot = self.hot_entities.len().min(self.num_entities);
        let p = hot as f64 / self.num_entities as f64;
        (p + (1.0 - p) * rate).clamp(0.0, 1.0)
    }

    /// The smallest sample rate whose
    /// [`expected_scan_recall`](Self::expected_scan_recall) meets `target`:
    /// the inverse of the error
    /// model, `clamp((target − p) / (1 − p), 0, 1)` with `p` the hot-sketch
    /// coverage.  Returns `0.0` when the sketch alone already meets the
    /// target and `1.0` (exact) when no rate below one can.
    pub(crate) fn min_rate_for_recall(&self, target: f64) -> f64 {
        let target = target.clamp(0.0, 1.0);
        if self.num_entities == 0 {
            return 0.0;
        }
        let hot = self.hot_entities.len().min(self.num_entities);
        let p = hot as f64 / self.num_entities as f64;
        if p >= target {
            return 0.0;
        }
        ((target - p) / (1.0 - p)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_model::{CellSet, PaperAdm, SpIndex, StCell};

    fn seq(sp: &SpIndex, cells: &[(u32, usize)]) -> CellSetSequence {
        let set =
            CellSet::from_cells(cells.iter().map(|&(t, u)| StCell::new(t, sp.base_units()[u])));
        CellSetSequence::from_base_cells(sp, &set).unwrap()
    }

    #[test]
    fn caps_are_exact_per_level_maxima() {
        let sp = SpIndex::uniform(2, &[3]).unwrap();
        let a = seq(&sp, &[(0, 0), (1, 1), (2, 5)]);
        let b = seq(&sp, &[(0, 0)]);
        let pop = [(EntityId(1), &a), (EntityId(2), &b)];
        let syn = Synopsis::compute(2, pop.iter().map(|(e, s)| (*e, *s)), 4, 7);
        assert_eq!(syn.epoch(), 7);
        assert_eq!(syn.num_entities(), 2);
        assert_eq!(syn.level_caps().len(), 2);
        // Base level: a has 3 cells; coarse level: a's 3 cells collapse to
        // at most 3 coarse cells — the cap equals a's actual level sizes.
        assert_eq!(syn.level_caps()[1], a.level(2).len());
        assert_eq!(syn.level_caps()[0], a.level(1).len());
    }

    #[test]
    fn sketch_keeps_the_hottest_ids_deterministically() {
        let sp = SpIndex::uniform(2, &[3]).unwrap();
        let big = seq(&sp, &[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let mid = seq(&sp, &[(0, 0), (1, 1)]);
        let tied = seq(&sp, &[(5, 4), (6, 5)]);
        let pop = [(EntityId(9), &mid), (EntityId(3), &tied), (EntityId(7), &big)];
        let syn = Synopsis::compute(2, pop.iter().map(|(e, s)| (*e, *s)), 2, 0);
        // Hottest first; the size tie between 9 and 3 resolves by ascending id.
        assert_eq!(syn.hot_entities(), &[EntityId(7), EntityId(3)]);
        assert_eq!(syn.sketch_size(), 2);
        // m = 0 keeps nothing, m > population keeps everyone.
        let none = Synopsis::compute(2, pop.iter().map(|(e, s)| (*e, *s)), 0, 0);
        assert!(none.hot_entities().is_empty());
        let all = Synopsis::compute(2, pop.iter().map(|(e, s)| (*e, *s)), 10, 0);
        assert_eq!(all.hot_entities().len(), 3);
    }

    #[test]
    fn upper_bound_dominates_every_member_degree() {
        let sp = SpIndex::uniform(3, &[4]).unwrap();
        let measure = PaperAdm::default_for(2);
        let members: Vec<(EntityId, CellSetSequence)> = (0..6u64)
            .map(|e| {
                let cells: Vec<(u32, usize)> = (0..=(e as u32 % 4))
                    .map(|i| (i, ((e as usize) * 3 + i as usize) % 12))
                    .collect();
                (EntityId(e), seq(&sp, &cells))
            })
            .collect();
        let syn = Synopsis::compute(2, members.iter().map(|(e, s)| (*e, s)), 3, 0);
        let query = seq(&sp, &[(0, 0), (1, 3), (2, 6), (3, 9)]);
        let sizes: Vec<usize> = (1..=2u8).map(|l| query.level(l).len()).collect();
        let ub = syn.degree_upper_bound(&sizes, &measure);
        for (_, s) in &members {
            assert!(measure.degree(&query, s) <= ub + 1e-12);
        }
    }

    #[test]
    fn scan_recall_model_is_monotone_and_inverts() {
        let sp = SpIndex::uniform(2, &[3]).unwrap();
        let seqs: Vec<(EntityId, CellSetSequence)> =
            (0..10u64).map(|e| (EntityId(e), seq(&sp, &[(e as u32, 0)]))).collect();
        let syn = Synopsis::compute(2, seqs.iter().map(|(e, s)| (*e, s)), 4, 0);
        // p = 4/10; rate 0 recalls only the sketch, rate 1 recalls exactly.
        assert!((syn.expected_scan_recall(0.0) - 0.4).abs() < 1e-12);
        assert_eq!(syn.expected_scan_recall(1.0), 1.0);
        let mut last = -1.0;
        for i in 0..=10 {
            let r = syn.expected_scan_recall(i as f64 / 10.0);
            assert!(r >= last, "recall model must be monotone in the rate");
            last = r;
        }
        // Inversion: the minimum rate for a target achieves at least it.
        for target in [0.0, 0.3, 0.5, 0.9, 0.95, 1.0] {
            let rate = syn.min_rate_for_recall(target);
            assert!(
                syn.expected_scan_recall(rate) + 1e-12 >= target,
                "rate {rate} misses target {target}"
            );
        }
        // The sketch alone covers low targets at rate 0.
        assert_eq!(syn.min_rate_for_recall(0.3), 0.0);
        // Perfect recall needs the full scan.
        assert_eq!(syn.min_rate_for_recall(1.0), 1.0);
    }

    #[test]
    fn scan_recall_degenerate_shards() {
        let empty = Synopsis::compute(2, std::iter::empty(), 4, 0);
        assert_eq!(empty.expected_scan_recall(0.0), 1.0);
        assert_eq!(empty.min_rate_for_recall(1.0), 0.0);
        // A shard fully covered by its sketch recalls perfectly at rate 0.
        let sp = SpIndex::uniform(2, &[3]).unwrap();
        let a = seq(&sp, &[(0, 0)]);
        let pop = [(EntityId(1), &a)];
        let covered = Synopsis::compute(2, pop.iter().map(|(e, s)| (*e, *s)), 4, 0);
        assert_eq!(covered.expected_scan_recall(0.0), 1.0);
        assert_eq!(covered.min_rate_for_recall(1.0), 0.0);
    }

    #[test]
    fn empty_population_bounds_at_negative_infinity() {
        let syn = Synopsis::compute(2, std::iter::empty(), 4, 0);
        assert_eq!(syn.num_entities(), 0);
        assert!(syn.hot_entities().is_empty());
        let measure = PaperAdm::default_for(2);
        assert_eq!(syn.degree_upper_bound(&[3, 3], &measure), f64::NEG_INFINITY);
    }
}
