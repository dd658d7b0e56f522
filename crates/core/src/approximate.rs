//! Approximate top-k queries via LSH banding (the first future-work direction of
//! Section 8.2, built from the banding technique the paper reviews in
//! Section 2.3).
//!
//! The exact search of Chapter 5 guarantees the correct answer but must keep
//! expanding subtrees until the early-termination bound closes.  Many
//! applications (interactive investigation, recommendation) tolerate approximate
//! answers with much lower latency.  The classic MinHash banding scheme provides
//! exactly that: the `nh` signature values of the *base* level are split into `b`
//! bands of `r` rows; an entity becomes a candidate if it agrees with the query
//! on every row of at least one band.  An entity whose base-level Jaccard
//! similarity with the query is `s` becomes a candidate with probability
//! `1 − (1 − s^r)^b`, so recall is tunable through `(b, r)`.
//!
//! The index stores band buckets beside the MinSigTree; the approximate query
//! scores only the bucket collisions and returns the best `k`, reporting how many
//! candidates were touched so experiments can trade recall against work.

use crate::error::{IndexError, Result};
use crate::query::TopKResult;
use crate::signature::{CellHashFamily, HierarchicalHasher, SignatureList};
use crate::snapshot::IndexSnapshot;
use crate::stats::QueryStats;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use trace_model::{AssociationMeasure, CellSetSequence, EntityId, SpIndex};

/// Configuration of the banding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BandingConfig {
    /// Number of bands (`b`).
    pub bands: u32,
    /// Rows per band (`r`); `b × r` must not exceed the signature width.
    pub rows_per_band: u32,
}

impl Default for BandingConfig {
    fn default() -> Self {
        BandingConfig { bands: 16, rows_per_band: 4 }
    }
}

impl BandingConfig {
    /// Validates the configuration against a signature width.
    pub(crate) fn validate(&self, num_hash_functions: u32) -> Result<()> {
        if self.bands == 0 || self.rows_per_band == 0 {
            return Err(IndexError::InvalidConfig(
                "bands and rows_per_band must be positive".into(),
            ));
        }
        if self.bands * self.rows_per_band > num_hash_functions {
            return Err(IndexError::InvalidConfig(format!(
                "banding needs {} signature values but the index only has {num_hash_functions}",
                self.bands * self.rows_per_band
            )));
        }
        Ok(())
    }
}

/// The banded LSH candidate index.
#[derive(Debug, Clone)]
pub struct BandedIndex {
    config: BandingConfig,
    /// One bucket map per band: hashed band key → entities.
    buckets: Vec<HashMap<u64, Vec<EntityId>>>,
}

impl BandedIndex {
    /// Builds the banded index from every entity's base-level signature.
    pub(crate) fn build<F: CellHashFamily>(
        sp: &SpIndex,
        hasher: &HierarchicalHasher<F>,
        sequences: &std::collections::BTreeMap<EntityId, CellSetSequence>,
        config: BandingConfig,
    ) -> Result<Self> {
        config.validate(hasher.num_functions())?;
        let mut buckets = vec![HashMap::new(); config.bands as usize];
        for (&entity, seq) in sequences {
            let sig = SignatureList::build(sp, hasher, seq);
            for (band, key) in Self::band_keys(&sig, sp.height(), config) {
                buckets[band as usize].entry(key).or_insert_with(Vec::new).push(entity);
            }
        }
        Ok(BandedIndex { config, buckets })
    }

    /// The `(band, key)` pairs of a signature's base level.
    fn band_keys(
        sig: &SignatureList,
        base_level: trace_model::Level,
        config: BandingConfig,
    ) -> Vec<(u32, u64)> {
        let values = sig.level(base_level);
        (0..config.bands)
            .map(|band| {
                let start = (band * config.rows_per_band) as usize;
                let end = start + config.rows_per_band as usize;
                let mut key = 0xCBF2_9CE4_8422_2325u64; // FNV offset basis
                for &v in &values[start..end] {
                    key ^= v;
                    key = key.wrapping_mul(0x1000_0000_01B3);
                }
                (band, key)
            })
            .collect()
    }

    /// The candidate entities colliding with a query signature in at least one band.
    pub(crate) fn candidates(
        &self,
        sig: &SignatureList,
        base_level: trace_model::Level,
    ) -> BTreeSet<EntityId> {
        let mut out = BTreeSet::new();
        for (band, key) in Self::band_keys(sig, base_level, self.config) {
            if let Some(entities) = self.buckets[band as usize].get(&key) {
                out.extend(entities.iter().copied());
            }
        }
        out
    }
}

impl IndexSnapshot {
    /// Builds a banded LSH companion index over the already-indexed entities.
    pub fn banded(&self, config: BandingConfig) -> Result<BandedIndex> {
        BandedIndex::build(self.sp_index(), self.hasher(), self.sequences(), config)
    }

    /// Approximate top-k: scores only the entities that collide with the query in
    /// at least one LSH band.  Recall is below 1 by design; the returned
    /// statistics let callers measure the recall/work trade-off (see the
    /// `approximate_search` example).
    ///
    /// Candidate scoring runs through the same shared
    /// [`TopKHeap`](crate::engine::TopKHeap) selection as the exact executor
    /// and the brute-force ground truth, so result ordering and tie-breaking
    /// agree across all query paths.
    pub fn approximate_top_k<M: AssociationMeasure + ?Sized>(
        &self,
        banded: &BandedIndex,
        query: EntityId,
        k: usize,
        measure: &M,
    ) -> Result<(Vec<TopKResult>, QueryStats)> {
        let start = std::time::Instant::now();
        let query_seq = self.sequence(query).ok_or(IndexError::UnknownQueryEntity(query.raw()))?;
        let sig = SignatureList::build(self.sp_index(), self.hasher(), query_seq);
        let candidates = banded.candidates(&sig, self.sp_index().height());
        let mut stats = QueryStats {
            k,
            sampled_candidates: candidates.len(),
            total_entities: self.num_entities(),
            ..QueryStats::default()
        };
        // Verify the colliding candidates through the arena's fused degree
        // kernels — same selection heap, same scores, no per-candidate map
        // walks.  The tracked variant keeps the dispatch counters complete:
        // approximate scoring dispatches the same intersection kernels as
        // every exact path.
        let arena = self.arena();
        let view = crate::kernel::QueryView::new(query_seq);
        let mut scratch = trace_model::LevelOverlap::default();
        let mut top = crate::engine::TopKHeap::new(k);
        let mut checked = 0usize;
        for &entity in &candidates {
            if entity == query {
                continue;
            }
            let Some(pos) = arena.position(entity) else { continue };
            checked += 1;
            top.offer(
                entity,
                arena.degree_into_tracked(
                    pos,
                    &view,
                    measure,
                    &mut scratch,
                    &mut stats.kernel_dispatch,
                ),
            );
        }
        stats.entities_checked = checked;
        stats.query_time_us = start.elapsed().as_micros() as u64;
        Ok((top.into_sorted(), stats))
    }
}

/// Recall of an approximate answer against the exact answer: the fraction of
/// exact top-k entities that the approximate result recovered (ties are treated
/// by degree, so any entity whose degree matches the k-th exact degree counts).
pub fn recall(exact: &[TopKResult], approximate: &[TopKResult]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let threshold = exact.last().map(|r| r.degree).unwrap_or(0.0);
    let approx_ids: BTreeSet<EntityId> = approximate.iter().map(|r| r.entity).collect();
    let hits = exact
        .iter()
        .filter(|r| {
            approx_ids.contains(&r.entity)
                || r.degree <= threshold
                    && approximate.iter().any(|a| (a.degree - r.degree).abs() < 1e-12)
        })
        .count();
    hits as f64 / exact.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::index::MinSigIndex;
    use trace_model::{PaperAdm, Period, PresenceInstance, SpIndex, TraceSet};

    fn paired_dataset(pairs: usize) -> (SpIndex, TraceSet) {
        let sp = SpIndex::uniform(5, &[5]).unwrap();
        let base = sp.base_units().to_vec();
        let mut traces = TraceSet::new(60);
        for i in 0..pairs {
            for member in 0..2u64 {
                let entity = EntityId(2 * i as u64 + member);
                for step in 0..8u64 {
                    let unit = base[(i * 3 + step as usize) % base.len()];
                    let start = step * 120;
                    traces.record(PresenceInstance::new(
                        entity,
                        unit,
                        Period::new(start, start + 60).unwrap(),
                    ));
                }
            }
        }
        (sp, traces)
    }

    #[test]
    fn config_validation() {
        let config = BandingConfig { bands: 8, rows_per_band: 4 };
        assert!(config.validate(32).is_ok());
        assert!(config.validate(31).is_err());
        assert!(BandingConfig { bands: 0, rows_per_band: 4 }.validate(32).is_err());
    }

    #[test]
    fn identical_partners_are_always_candidates() {
        let (sp, traces) = paired_dataset(20);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(64)).unwrap();
        let banded = index.banded(BandingConfig { bands: 16, rows_per_band: 4 }).unwrap();
        assert!(banded.buckets.iter().all(|band| !band.is_empty()));
        let measure = PaperAdm::default_for(2);
        for query in [0u64, 8, 23] {
            let (approx, stats) =
                index.approximate_top_k(&banded, EntityId(query), 1, &measure).unwrap();
            let partner = if query % 2 == 0 { query + 1 } else { query - 1 };
            assert_eq!(approx[0].entity, EntityId(partner), "query {query}");
            assert!(
                stats.sampled_candidates < index.num_entities(),
                "banding should filter candidates"
            );
        }
    }

    #[test]
    fn approximate_answers_are_a_subset_of_exact_work() {
        let (sp, traces) = paired_dataset(30);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(64)).unwrap();
        let banded = index.banded(BandingConfig::default()).unwrap();
        let measure = PaperAdm::default_for(2);
        let (exact, exact_stats) = index.top_k(EntityId(0), 5, &measure).unwrap();
        let (approx, approx_stats) =
            index.approximate_top_k(&banded, EntityId(0), 5, &measure).unwrap();
        assert!(approx.len() <= 5);
        assert!(approx_stats.entities_checked <= exact_stats.total_entities);
        assert!(
            approx_stats.kernel_dispatch.total() > 0,
            "approximate scoring must populate the dispatch counters"
        );
        assert!(approx_stats.sampled_candidates >= approx_stats.entities_checked);
        let r = recall(&exact, &approx);
        assert!(r > 0.0, "the top pair must be recovered");
        // Every approximate degree is also achievable exactly (it is a real entity's degree).
        for a in &approx {
            assert!(a.degree <= exact[0].degree + 1e-12);
        }
    }

    #[test]
    fn recall_of_identical_answers_is_one() {
        let answers = vec![
            TopKResult { entity: EntityId(1), degree: 0.9 },
            TopKResult { entity: EntityId(2), degree: 0.5 },
        ];
        assert_eq!(recall(&answers, &answers), 1.0);
        assert_eq!(recall(&[], &answers), 1.0);
        let partial = vec![TopKResult { entity: EntityId(1), degree: 0.9 }];
        assert!(recall(&answers, &partial) >= 0.5);
    }

    #[test]
    fn unknown_query_is_reported() {
        let (sp, traces) = paired_dataset(2);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let banded = index.banded(BandingConfig { bands: 4, rows_per_band: 2 }).unwrap();
        let measure = PaperAdm::default_for(2);
        assert!(matches!(
            index.approximate_top_k(&banded, EntityId(12345), 1, &measure),
            Err(IndexError::UnknownQueryEntity(12345))
        ));
    }
}
