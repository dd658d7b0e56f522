//! Timing-free work counts of the flat scan, which reads every member's
//! level-1 overlap from its shard's keyed postings instead of intersecting
//! level-1 rows.  On the paper's SYN population (300 entities, the
//! `kernel_conformance` fixture), with every shard scanned:
//!
//! * a query issues no level-1 intersection, and exactly one level-2
//!   intersection (plus one per further shared level) per member sharing a
//!   level-1 cell with it — counted from the sequences;
//! * the out-of-core session issues the same intersections, class by class,
//!   and answers every readable level-1-disjoint member without a read;
//! * answers are bitwise brute force's under all four shipped measures, for
//!   exact scans and for sampled (`ApproximateScan`) ones.
//!
//! Brute force itself keeps the pairwise loop (every level-1 row
//! intersected), so it stays an oracle independent of the postings.

use digital_traces::index::testkit::{assert_equivalent_answers, issued_intersections};
use digital_traces::index::{
    IndexConfig, PlannerConfig, Query, ShardedMinSigIndex, ShardedSnapshot,
};
use digital_traces::mobility_models::{SynConfig, SynDataset};
use digital_traces::model::adm::LevelRatio;
use digital_traces::model::{CellSetSequence, WeightedLevelAdm};
use digital_traces::storage::{PagedTraceStore, PoolConfig, PAGE_SIZE};
use digital_traces::{AssociationMeasure, DiceAdm, EntityId, JaccardAdm, PaperAdm};

const SHARDS: usize = 4;

/// `kernel_conformance`'s SYN population (a week, a fifth co-moving, seed 1,
/// 32 hash functions), over `shards` shards.
fn syn(entities: usize, shards: usize) -> (SynDataset, ShardedMinSigIndex) {
    let dataset = SynDataset::generate(SynConfig {
        num_entities: entities,
        days: 7,
        comover_fraction: 0.2,
        seed: 1,
        ..SynConfig::default()
    })
    .unwrap();
    let config = IndexConfig::with_hash_functions(32);
    let index = ShardedMinSigIndex::build(dataset.sp_index(), &dataset.traces, config, shards);
    (dataset, index.unwrap())
}

/// Every indexed entity but `query`, with its sequence.
fn members(snapshot: &ShardedSnapshot, query: EntityId) -> Vec<(EntityId, &CellSetSequence)> {
    (0..snapshot.num_shards())
        .flat_map(|s| snapshot.shard(s).sequences())
        .filter(|&(&e, _)| e != query)
        .map(|(&e, seq)| (e, seq))
        .collect()
}

/// True when the two sequences share no level-1 cell.
fn disjoint(a: &CellSetSequence, b: &CellSetSequence) -> bool {
    a.level(1).intersection_len(b.level(1)) == 0
}

/// The intersections the scan issues for scoring `scored` against `query`:
/// the pairwise loop's, one per level up to the first empty one, less the
/// level-1 one the postings replace.
fn scan_intersections<'a>(
    query: &CellSetSequence,
    scored: impl Iterator<Item = &'a CellSetSequence>,
) -> u64 {
    scored.map(|seq| issued_intersections(query, seq) - 1).sum()
}

/// The measures the workspace ships, at `levels` levels.
fn measures(levels: usize) -> Vec<Box<dyn AssociationMeasure>> {
    vec![
        Box::new(PaperAdm::default_for(levels)),
        Box::new(DiceAdm::uniform(levels)),
        Box::new(JaccardAdm::uniform(levels)),
        Box::new(WeightedLevelAdm::new(levels, 2.0, 1.5, LevelRatio::Containment).unwrap()),
    ]
}

/// No level-1 intersection, one level-2 one per member sharing a level-1
/// cell: the scan's intersections are the pairwise loop's minus one per
/// member, so a member the postings rule out costs none at all.
#[test]
fn a_scan_intersects_from_level_two_and_only_members_sharing_level_one() {
    let (dataset, index) = syn(300, SHARDS);
    let snapshot = index.snapshot();
    let measure = PaperAdm::default_for(dataset.sp_index().height() as usize);
    let (mut sharing, mut ruled_out) = (0usize, 0usize);
    for query in snapshot.shard(0).sequences().keys().copied().step_by(9) {
        let (_, stats) = snapshot.query(query, &Query::new(10, &measure)).unwrap();
        let context = format!("query {query}");
        assert_eq!(stats.shards_scanned, SHARDS, "{context}: every shard is scanned");
        let sequence = snapshot.sequence(query).unwrap();
        let members = members(&snapshot, query);
        let pairwise: u64 =
            members.iter().map(|(_, seq)| issued_intersections(sequence, seq)).sum();
        let scanned = scan_intersections(sequence, members.iter().map(|&(_, seq)| seq));
        assert_eq!(stats.kernel_dispatch.total(), scanned, "{context}");
        assert_eq!(pairwise - scanned, members.len() as u64, "{context}: one fewer per member");
        // A member sharing level 1 costs one level-2 intersection and one
        // per further shared level; a disjoint one costs nothing.
        let shares = members.iter().filter(|(_, seq)| !disjoint(sequence, seq)).count();
        let deeper: u64 = (members.iter().filter(|(_, seq)| !disjoint(sequence, seq)))
            .map(|(_, seq)| issued_intersections(sequence, seq) - 2)
            .sum();
        assert_eq!(stats.kernel_dispatch.total(), shares as u64 + deeper, "{context}");
        sharing += shares;
        ruled_out += members.len() - shares;
    }
    assert!(ruled_out > sharing, "most SYN pairs share no level-1 cell ({ruled_out} vs {sharing})");
}

/// Out of core the scan runs the same loop over the same postings: the
/// in-memory query's intersections, class by class, and a readable member
/// that shares no level-1 cell is never read.  Sixteen shards of at most 32
/// members are scanned for their size and, with no sketch, nothing is
/// seeded, so every read avoided is a scanned member's.  A member the store
/// lacks is unreadable, not avoided.
#[test]
fn a_paged_scan_reads_no_disjoint_member_and_intersects_like_memory() {
    let shards = 16;
    let (dataset, mut index) = syn(300, shards);
    index.set_synopsis_sketch_size(0);
    let snapshot = index.snapshot();
    let measure = PaperAdm::default_for(dataset.sp_index().height() as usize);
    let missing: Vec<EntityId> = dataset.traces.entities().step_by(25).collect();
    let mut partial = dataset.traces.clone();
    for &entity in &missing {
        partial.remove(entity);
    }
    let (full, partial) =
        (PagedTraceStore::build(&dataset.traces, 4), PagedTraceStore::build(&partial, 4));
    let small = PoolConfig { capacity_bytes: 4 * PAGE_SIZE, ..PoolConfig::default() };
    let (full_pool, partial_pool) = (full.pool(small), partial.pool(small));
    let (paged, lacking) =
        (snapshot.paged(&full, &full_pool), snapshot.paged(&partial, &partial_pool));
    let request = Query::new(10, &measure);
    for query in snapshot.shard(1).sequences().keys().copied().step_by(3) {
        let (out, stats) = paged.query(query, &request).unwrap();
        let (mem, mem_stats) = snapshot.query(query, &request).unwrap();
        let context = format!("query {query}");
        assert_equivalent_answers(&out, &mem, &context);
        assert_eq!(stats.shards_scanned, shards, "{context}: every shard is scanned");
        assert!(!stats.threshold_seeded, "{context}: nothing is seeded");
        assert_eq!(stats.kernel_dispatch, mem_stats.kernel_dispatch, "{context}");
        assert_eq!(stats.entities_checked, mem_stats.entities_checked, "{context}");
        let sequence = snapshot.sequence(query).unwrap();
        let disjoint: Vec<EntityId> = (members(&snapshot, query).into_iter())
            .filter(|(_, seq)| disjoint(sequence, seq))
            .map(|(entity, _)| entity)
            .collect();
        assert_eq!(stats.reads_avoided, disjoint.len(), "{context}");

        let (_, stats) = lacking.query(query, &request).unwrap();
        let unreadable = missing.iter().filter(|&&e| e != query).count();
        let readable = disjoint.iter().filter(|e| !missing.contains(e)).count();
        assert_eq!(stats.candidates_unreadable, unreadable, "{context}: lacking store");
        assert_eq!(stats.reads_avoided, readable, "{context}: lacking store");
    }
    assert_eq!((full_pool.pinned_frames(), partial_pool.pinned_frames()), (0, 0));
}

/// Brute force's answers, bit for bit, under every shipped measure — for the
/// exact scan and for the sampled scan a zero budget plans, which scores
/// exactly the members it samples, each through the postings: its answer
/// is brute force's restricted to them, and its intersections are theirs.
#[test]
fn scans_answer_like_brute_force_under_every_measure_exact_or_sampled() {
    let (dataset, index) = syn(300, SHARDS);
    let snapshot = index.snapshot();
    let population = dataset.traces.entities().count();
    let sampled = PlannerConfig::with_budget_and_floor(0, 0.5);
    for measure in measures(dataset.sp_index().height() as usize) {
        let measure = measure.as_ref();
        for query in snapshot.shard(2).sequences().keys().copied().step_by(15) {
            let context = format!("{}, query {query}", measure.name());
            let (exact, stats) = snapshot.query(query, &Query::new(10, measure)).unwrap();
            assert_eq!(stats.shards_scanned, SHARDS, "{context}");
            let oracle = snapshot.brute_force(query, 10, measure).unwrap();
            assert_equivalent_answers(&exact, &oracle, &format!("{context}: exact"));

            // Sampled, k = the population: the answer is every scored member.
            let everyone = Query { planner: sampled, ..Query::new(population, measure) };
            let (scored, stats) = snapshot.query(query, &everyone).unwrap();
            let report = stats.degradation.as_ref().expect("a zero budget samples");
            assert_eq!(report.shards_planned_approximate, SHARDS, "{context}: every shard sampled");
            assert!(scored.len() < population - 1, "{context}: a sample, not everyone");
            let truth = snapshot.brute_force(query, population, measure).unwrap();
            let restricted: Vec<_> =
                truth.into_iter().filter(|r| scored.iter().any(|s| s.entity == r.entity)).collect();
            assert_equivalent_answers(&scored, &restricted, &format!("{context}: sampled"));
            let sequence = snapshot.sequence(query).unwrap();
            let issued = scan_intersections(
                sequence,
                scored.iter().map(|r| snapshot.sequence(r.entity).unwrap()),
            );
            assert_eq!(stats.kernel_dispatch.total(), issued, "{context}: sampled work");
            assert_eq!(stats.sampled_candidates, scored.len(), "{context}: scored = answered");

            // The same sample at k = 10: its top 10.
            let ten = Query { planner: sampled, ..Query::new(10, measure) };
            let (top, _) = snapshot.query(query, &ten).unwrap();
            assert_equivalent_answers(&top, &scored[..10], &format!("{context}: sampled top 10"));
        }
    }
}
