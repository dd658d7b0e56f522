//! Top-k joins and batch query evaluation (the kNN-join future-work direction of
//! Section 8.2).
//!
//! A *top-k join* answers the top-k query for every entity of a probe set in one
//! call; [`IndexSnapshot::top_k_batch`] is the same idea with the `top_k`
//! result shape.  Each probe runs the best-first tree search of
//! [`crate::engine`] against the same immutable snapshot, so probes are
//! trivially independent and are fanned out over the rayon thread pool.  The
//! search is deterministic given its inputs, which yields the batch API's
//! contract: **parallel evaluation returns exactly the sequential results, in
//! probe order** (only wall-clock timing fields differ).

use crate::error::Result;
use crate::query::{QueryOptions, TopKResult};
use crate::snapshot::IndexSnapshot;
use crate::stats::QueryStats;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use trace_model::{AssociationMeasure, EntityId};

/// The result of one probe within a join.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinRow {
    /// The probe (query) entity.
    pub probe: EntityId,
    /// Its top-k associated entities.
    pub matches: Vec<TopKResult>,
    /// The per-probe search statistics.
    pub stats: QueryStats,
}

/// Aggregate statistics of a join.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct JoinStats {
    /// Number of probes answered.
    pub probes: usize,
    /// Probes skipped because the entity is not indexed.
    pub skipped: usize,
    /// Mean entities checked per probe.
    pub mean_entities_checked: f64,
    /// Mean pruning effectiveness over the probes.
    pub mean_pruning_effectiveness: f64,
}

/// Options of a join evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinOptions {
    /// Number of result entities per probe.
    pub k: usize,
    /// The pruning ablations of each probe's tree search (the unsharded
    /// join's; a sharded or paged join scans and does not read them).
    pub query: QueryOptions,
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions { k: 10, query: QueryOptions::default() }
    }
}

impl IndexSnapshot {
    /// Answers the top-k query for every query entity of a batch, in parallel,
    /// returning per-query `(results, stats)` pairs **in input order**.
    ///
    /// Equivalent to calling [`top_k`](IndexSnapshot::top_k) once per entry:
    /// the first unknown query entity fails the whole batch with
    /// [`IndexError::UnknownQueryEntity`], exactly as its sequential
    /// counterpart would.
    ///
    /// [`IndexError::UnknownQueryEntity`]: crate::error::IndexError::UnknownQueryEntity
    pub fn top_k_batch<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        queries: &[EntityId],
        k: usize,
        measure: &M,
    ) -> Result<Vec<(Vec<TopKResult>, QueryStats)>> {
        let answers: Vec<Result<(Vec<TopKResult>, QueryStats)>> =
            queries.par_iter().map(|&query| self.top_k(query, k, measure)).collect();
        // Surface the first error in input order, matching sequential
        // evaluation (later probes were computed speculatively and dropped).
        answers.into_iter().collect()
    }

    /// Answers the top-k query for every probe entity, in parallel.
    ///
    /// Probes that are not indexed are skipped (and counted in
    /// [`JoinStats::skipped`]); the output preserves the probe order and is
    /// each probe's own `top_k_with_options` answer.
    pub fn top_k_join<M: AssociationMeasure + Sync + ?Sized>(
        &self,
        probes: &[EntityId],
        measure: &M,
        options: JoinOptions,
    ) -> Result<(Vec<JoinRow>, JoinStats)> {
        Ok(join_probes(probes, |probe| {
            // An unindexed probe is skipped; any other error class would
            // indicate a malformed snapshot, and the join API predates
            // fallible rows, so it folds into "skipped" too.
            let (matches, stats) =
                self.top_k_with_options(probe, options.k, measure, options.query).ok()?;
            Some(JoinRow { probe, matches, stats })
        }))
    }
}

/// Answers every probe through `answer` (`None` = skipped probe) over the
/// rayon pool and folds the rows, in probe order, into the join output and
/// its aggregate statistics.  The one probe loop of the unsharded, sharded
/// and paged joins.
pub(crate) fn join_probes(
    probes: &[EntityId],
    answer: impl Fn(EntityId) -> Option<JoinRow> + Sync,
) -> (Vec<JoinRow>, JoinStats) {
    let rows: Vec<Option<JoinRow>> = probes.par_iter().map(|&probe| answer(probe)).collect();
    let mut stats = JoinStats::default();
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        match row {
            Some(row) => {
                stats.probes += 1;
                stats.mean_entities_checked += row.stats.entities_checked as f64;
                stats.mean_pruning_effectiveness += row.stats.pruning_effectiveness();
                out.push(row);
            }
            None => stats.skipped += 1,
        }
    }
    if stats.probes > 0 {
        stats.mean_entities_checked /= stats.probes as f64;
        stats.mean_pruning_effectiveness /= stats.probes as f64;
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use crate::index::MinSigIndex;
    use trace_model::{PaperAdm, Period, PresenceInstance, SpIndex, TraceSet};

    fn dataset(pairs: usize) -> (SpIndex, TraceSet) {
        let sp = SpIndex::uniform(4, &[4]).unwrap();
        let base = sp.base_units().to_vec();
        let mut traces = TraceSet::new(60);
        for i in 0..pairs {
            for member in 0..2u64 {
                let entity = EntityId(2 * i as u64 + member);
                for step in 0..6u64 {
                    let unit = base[(i * 5 + step as usize) % base.len()];
                    traces.record(PresenceInstance::new(
                        entity,
                        unit,
                        Period::new(step * 120, step * 120 + 60).unwrap(),
                    ));
                }
            }
        }
        (sp, traces)
    }

    #[test]
    fn join_answers_every_probe_and_finds_partners() {
        let (sp, traces) = dataset(20);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(48)).unwrap();
        let measure = PaperAdm::default_for(2);
        let probes: Vec<EntityId> = (0..10u64).map(EntityId).collect();
        let (rows, stats) = index
            .top_k_join(&probes, &measure, JoinOptions { k: 1, ..JoinOptions::default() })
            .unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(stats.probes, 10);
        assert_eq!(stats.skipped, 0);
        for row in &rows {
            let probe = row.probe.raw();
            let partner = if probe % 2 == 0 { probe + 1 } else { probe - 1 };
            assert_eq!(row.matches[0].entity, EntityId(partner));
        }
        assert!(stats.mean_pruning_effectiveness >= 0.0);
        assert!(stats.mean_entities_checked >= 1.0);
    }

    /// The join's rows are the per-probe single queries, in probe order.
    #[test]
    fn parallel_join_matches_sequential_join() {
        let (sp, traces) = dataset(25);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(48)).unwrap();
        let measure = PaperAdm::default_for(2);
        let probes: Vec<EntityId> = (0..30u64).map(EntityId).collect();
        let (par_rows, _) = index
            .top_k_join(&probes, &measure, JoinOptions { k: 3, ..JoinOptions::default() })
            .unwrap();
        assert_eq!(probes.len(), par_rows.len());
        for (&probe, b) in probes.iter().zip(par_rows.iter()) {
            let (seq_matches, _) = index.top_k(probe, 3, &measure).unwrap();
            assert_eq!(probe, b.probe);
            assert_eq!(seq_matches.len(), b.matches.len());
            for (x, y) in seq_matches.iter().zip(b.matches.iter()) {
                assert!((x.degree - y.degree).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn unknown_probes_are_skipped_not_fatal() {
        let (sp, traces) = dataset(3);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let measure = PaperAdm::default_for(2);
        let probes = vec![EntityId(0), EntityId(999), EntityId(1)];
        let (rows, stats) = index.top_k_join(&probes, &measure, JoinOptions::default()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(stats.skipped, 1);
        assert_eq!(rows[0].probe, EntityId(0));
        assert_eq!(rows[1].probe, EntityId(1));
    }

    #[test]
    fn empty_probe_set_is_a_noop() {
        let (sp, traces) = dataset(2);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let measure = PaperAdm::default_for(2);
        let (rows, stats) = index.top_k_join(&[], &measure, JoinOptions::default()).unwrap();
        assert!(rows.is_empty());
        assert_eq!(stats.probes, 0);
        assert_eq!(stats.mean_entities_checked, 0.0);
    }
}
