//! Timing-free work counts of the flat scan, which reads every member's
//! level-1 and level-2 overlaps from its shard's keyed postings instead of
//! intersecting those rows, and scores the members sharing no level-1 cell
//! last, only while they can still enter the shard's top k.  On the paper's
//! SYN population (300 entities, the `kernel_conformance` fixture), with
//! every shard scanned:
//!
//! * a query issues no level-1 or level-2 intersection, and exactly one
//!   level-3 intersection (plus one per further shared level) per scored
//!   member sharing a level-2 cell with it — counted from the sequences,
//!   like which members are scored (`testkit::scan_scored`);
//! * the out-of-core session issues the same intersections, class by class,
//!   and answers every readable member sharing no level-2 cell without a
//!   read;
//! * answers are bitwise brute force's under all four shipped measures, for
//!   exact scans and for sampled ones (past a zero budget's deadline), whose work
//!   follows the same rule over the members they sample.
//!
//! A fixture whose shards hold fewer than k members sharing a level-1 cell
//! with the query makes the scan score its zero-degree tail: answers are
//! brute force's there too, ties at degree 0 by id, in memory and paged.
//!
//! Brute force itself keeps the pairwise loop (every level-1 row
//! intersected), so it stays an oracle independent of the postings.

use digital_traces::index::testkit::{
    assert_equivalent_answers, issued_intersections, scan_scored,
};
use digital_traces::index::{
    IndexConfig, PlannerConfig, Query, ShardDecision, ShardedMinSigIndex, ShardedSnapshot,
};
use digital_traces::mobility_models::{SynConfig, SynDataset};
use digital_traces::model::adm::LevelRatio;
use digital_traces::model::{CellSetSequence, WeightedLevelAdm};
use digital_traces::storage::{PagedTraceStore, PoolConfig, PAGE_SIZE};
use digital_traces::{
    AssociationMeasure, DiceAdm, EntityId, JaccardAdm, PaperAdm, Period, PresenceInstance, SpIndex,
    TraceSet,
};

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

/// The members the scans of `query`'s plan score, shard by shard
/// (`scan_scored`): of every shard the plan scans, the members `admitted`
/// lets through, `query` left out, with `readable` saying which ones a
/// scan's heap can hold.
fn scored_by_scans<'a>(
    snapshot: &'a ShardedSnapshot,
    query: EntityId,
    k: usize,
    measure: &dyn AssociationMeasure,
    admitted: &dyn Fn(EntityId) -> bool,
    readable: &dyn Fn(EntityId) -> bool,
) -> Vec<(EntityId, &'a CellSetSequence)> {
    let sequence = snapshot.sequence(query).unwrap();
    let plan = snapshot.explain(query, k, measure, PlannerConfig::default()).unwrap();
    let mut scored = Vec::new();
    for shard_plan in &plan.shards {
        if shard_plan.decision == ShardDecision::Skip {
            continue;
        }
        let members = (snapshot.shard(shard_plan.shard).sequences().iter())
            .filter(|&(&e, _)| e != query && admitted(e))
            .map(|(&e, seq)| (e, seq));
        scored.extend(scan_scored(sequence, members, k, measure, readable));
    }
    scored
}

/// True when the two sequences share a level-`level` cell.
fn shares(a: &CellSetSequence, b: &CellSetSequence, level: u8) -> bool {
    a.level(level).intersection_len(b.level(level)) > 0
}

/// The intersections the scan issues for scoring `scored` against `query`:
/// the pairwise loop's, one per level up to the first empty one, less the
/// level-1 and level-2 ones the postings replace.
fn scan_intersections<'a>(
    query: &CellSetSequence,
    scored: impl IntoIterator<Item = &'a CellSetSequence>,
) -> u64 {
    scored.into_iter().map(|seq| issued_intersections(query, seq).saturating_sub(2)).sum()
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

/// No level-1 or level-2 intersection, one level-3 one per scored member
/// sharing a level-2 cell: the scan's intersections are the pairwise loop's
/// less two per member, so a member the postings rule out at level 2 costs
/// none at all.  Which members are scored is counted from the sequences:
/// on SYN the members sharing a level-1 cell mostly fill a shard's top 10
/// above the zero-overlap bound, so the rest are mostly never scored.
#[test]
fn a_scan_intersects_from_level_three_and_only_members_sharing_level_two() {
    let (dataset, index) = syn(300, SHARDS);
    let snapshot = index.snapshot();
    let measure = PaperAdm::default_for(dataset.sp_index().height() as usize);
    let (mut sharing_two, mut skipped) = (0usize, 0usize);
    for query in snapshot.shard(0).sequences().keys().copied().step_by(9) {
        let (_, stats) = snapshot.query(query, &Query::new(10, &measure)).unwrap();
        let context = format!("query {query}");
        assert_eq!(stats.shards_scanned, SHARDS, "{context}: every shard is scanned");
        let plan = snapshot.explain(query, 10, &measure, PlannerConfig::default()).unwrap();
        let sequence = snapshot.sequence(query).unwrap();
        let scored = scored_by_scans(&snapshot, query, 10, &measure, &|_| true, &|_| true);
        assert_eq!(stats.entities_checked, plan.seed_candidates + scored.len(), "{context}");
        let issued = scan_intersections(sequence, scored.iter().map(|&(_, seq)| seq));
        assert_eq!(stats.kernel_dispatch.total(), issued, "{context}");
        // A member sharing level 2 costs one level-3 intersection and one
        // per further shared level; any other costs nothing.
        let deeper: Vec<u64> = (scored.iter().filter(|(_, seq)| shares(sequence, seq, 2)))
            .map(|(_, seq)| issued_intersections(sequence, seq) - 2)
            .collect();
        assert!(deeper.iter().all(|&n| n >= 1), "{context}");
        assert_eq!(issued, deeper.iter().sum::<u64>(), "{context}");
        sharing_two += deeper.len();
        skipped += snapshot.num_entities() - 1 - scored.len();
    }
    assert!(sharing_two > 0, "some scored members share a level-2 cell");
    assert!(skipped > 0, "the members sharing no level-1 cell are skipped on SYN");
}

/// Out of core the scan runs the same loop over the same postings: the
/// in-memory query's intersections, class by class, and a readable member
/// that shares no level-2 cell is never read.  Sixteen shards of at most 32
/// members are scanned for their size and, with no sketch, nothing is
/// seeded, so every read avoided is a scanned member's.  A member the store
/// lacks is unreadable, not avoided, and leaves its shard's heap one short.
#[test]
fn a_paged_scan_reads_no_member_sharing_no_level_two_cell_and_intersects_like_memory() {
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
    let readable = |e: EntityId| !missing.contains(&e);
    let mut tails = 0;
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
        let scored = scored_by_scans(&snapshot, query, 10, &measure, &|_| true, &|_| true);
        assert_eq!(stats.entities_checked, scored.len(), "{context}");
        // The scored members a scan answers from the postings alone.
        let unread = |scored: &[(EntityId, &CellSetSequence)],
                      readable: &dyn Fn(EntityId) -> bool| {
            let unread = scored.iter().filter(|(e, seq)| readable(*e) && !shares(sequence, seq, 2));
            unread.count()
        };
        assert_eq!(stats.reads_avoided, unread(&scored, &|_| true), "{context}");
        tails += usize::from(scored.iter().any(|(_, seq)| !shares(sequence, seq, 1)));

        let (_, stats) = lacking.query(query, &request).unwrap();
        let tried = scored_by_scans(&snapshot, query, 10, &measure, &|_| true, &readable);
        let unreadable = tried.iter().filter(|(e, _)| !readable(*e)).count();
        assert_eq!(stats.candidates_unreadable, unreadable, "{context}: lacking store");
        assert_eq!(stats.reads_avoided, unread(&tried, &readable), "{context}: lacking store");
        assert_eq!(stats.entities_checked, tried.len() - unreadable, "{context}: lacking store");
    }
    assert!(tails > 0, "some 16-shard scan scores members sharing no level-1 cell");
    assert_eq!((full_pool.pinned_frames(), partial_pool.pinned_frames()), (0, 0));
}

/// Brute force's answers, bit for bit, under every shipped measure — for the
/// exact scan and for the sampled scan a zero budget runs, which scores
/// members it samples by the exact scan's rule: at k = the population every
/// one (its answer is brute force's restricted to them), at k = 10 the ones
/// the rule picks among them.  Its intersections are theirs.
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
            assert_eq!(report.shards_approximate, SHARDS, "{context}: every shard sampled");
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

            // The same sample at k = 10: its top 10, from the members the
            // rule scores among the sampled ones.
            let ten = Query { planner: sampled, ..Query::new(10, measure) };
            let (top, stats) = snapshot.query(query, &ten).unwrap();
            assert_equivalent_answers(&top, &scored[..10], &format!("{context}: sampled top 10"));
            let sample = |e: EntityId| scored.iter().any(|s| s.entity == e);
            let picked = scored_by_scans(&snapshot, query, 10, measure, &sample, &|_| true);
            assert_eq!(stats.sampled_candidates, picked.len(), "{context}: sampled top 10");
            let issued = scan_intersections(sequence, picked.iter().map(|&(_, seq)| seq));
            assert_eq!(stats.kernel_dispatch.total(), issued, "{context}: sampled top 10 work");
        }
    }
}

/// The loner: an entity whose every visit falls on time slots no regular
/// entity visits.
const LONER: u64 = 96;

/// Two regular entities that also visit the loner's first cell, so they are
/// the only members sharing a level-1 cell with it.
const LONER_FRIENDS: [u64; 2] = [5, 50];

/// 96 regular entities on four interleaved time grids — an entity shares no
/// time unit, so no level-1 cell, with the three quarters of the population
/// on the other grids, so each of four shards holds ≈ 6 members sharing a
/// level-1 cell with a query — plus the loner and its two friends.
fn disjoint_tail() -> (SpIndex, TraceSet) {
    let sp = SpIndex::uniform(2, &[4, 4]).unwrap();
    let base = sp.base_units().to_vec();
    let mut traces = TraceSet::new(60);
    let mut visit = |e: u64, unit, slot: u64| {
        let period = Period::new(slot * 60, slot * 60 + 60).unwrap();
        traces.record(PresenceInstance::new(EntityId(e), unit, period));
    };
    for e in 0..LONER {
        for step in 0..6u64 {
            visit(e, base[(e / 4 * 3 + step) as usize % base.len()], step * 4 + e % 4);
        }
    }
    for step in 0..6u64 {
        visit(LONER, base[step as usize], 100 + step);
    }
    for friend in LONER_FRIENDS {
        visit(friend, base[0], 100);
    }
    (sp, traces)
}

/// Where some shard holds fewer than k members sharing a level-1 cell with
/// the query, its scan scores members of degree 0 too: the answers are brute
/// force's bit for bit, degree-0 ties by id, exact and sampled, in memory and
/// paged, and paged work equals in-memory work.  The loner's answer at k = 10
/// is its two friends, then the eight smallest other ids at degree 0.  At
/// k = the population every member is scored.
#[test]
fn a_scan_scores_the_disjoint_tail_while_it_can_enter_the_answer() {
    let (sp, traces) = disjoint_tail();
    let index = ShardedMinSigIndex::build(&sp, &traces, IndexConfig::default(), SHARDS).unwrap();
    let snapshot = index.snapshot();
    let store = PagedTraceStore::build(&traces, 4);
    let pool = store.pool(PoolConfig { capacity_bytes: 4 * PAGE_SIZE, ..PoolConfig::default() });
    let paged = snapshot.paged(&store, &pool);
    let measure = PaperAdm::default_for(sp.height() as usize);
    let population = traces.entities().count();
    let sampled = PlannerConfig::with_budget_and_floor(0, 0.5);
    let (mut short, mut skipped) = (0, 0);
    for query in [0u64, 5, 33, 50, 77, LONER].map(EntityId) {
        let sequence = snapshot.sequence(query).unwrap();
        for k in [1, 3, 10, population] {
            let context = format!("query {query}, k {k}");
            let request = Query::new(k, &measure);
            let (mem, mem_stats) = snapshot.query(query, &request).unwrap();
            let oracle = snapshot.brute_force(query, k, &measure).unwrap();
            assert_equivalent_answers(&mem, &oracle, &format!("{context}: exact"));
            let (out, stats) = paged.query(query, &request).unwrap();
            assert_equivalent_answers(&out, &oracle, &format!("{context}: paged"));
            let work = |s: &digital_traces::QueryStats| (s.entities_checked, s.kernel_dispatch);
            assert_eq!(work(&stats), work(&mem_stats), "{context}: paged work");

            let plan = snapshot.explain(query, k, &measure, PlannerConfig::default()).unwrap();
            let scored = scored_by_scans(&snapshot, query, k, &measure, &|_| true, &|_| true);
            assert_eq!(
                mem_stats.entities_checked,
                plan.seed_candidates + scored.len(),
                "{context}"
            );
            let issued = scan_intersections(sequence, scored.iter().map(|&(_, seq)| seq));
            assert_eq!(mem_stats.kernel_dispatch.total(), issued, "{context}");
            short += usize::from(scored.iter().any(|(_, seq)| !shares(sequence, seq, 1)));
            skipped += population - 1 - scored.len();
            if k == population {
                assert_eq!(scored.len(), population - 1, "{context}: everyone is scored");
            }
            if query == EntityId(LONER) && k == 10 {
                let ids: Vec<u64> = mem.iter().map(|r| r.entity.raw()).collect();
                assert_eq!(ids, [5, 50, 0, 1, 2, 3, 4, 6, 7, 8], "{context}");
                assert!(mem[2..].iter().all(|r| r.degree == 0.0), "{context}");
            }

            // Sampled: the sample's own brute-force answer, in memory and
            // paged alike.
            let (mem, mem_stats) =
                snapshot.query(query, &Query { planner: sampled, ..request }).unwrap();
            let (out, stats) = paged.query(query, &Query { planner: sampled, ..request }).unwrap();
            assert_equivalent_answers(&out, &mem, &format!("{context}: sampled, paged"));
            assert_eq!(work(&stats), work(&mem_stats), "{context}: sampled, paged work");
            let everyone = Query { planner: sampled, ..Query::new(population, &measure) };
            let (sample, _) = snapshot.query(query, &everyone).unwrap();
            let truth = snapshot.brute_force(query, population, &measure).unwrap();
            let restricted: Vec<_> =
                truth.into_iter().filter(|r| sample.iter().any(|s| s.entity == r.entity)).collect();
            let top = &restricted[..k.min(restricted.len())];
            assert_equivalent_answers(&mem, top, &format!("{context}: sampled"));
        }
    }
    assert!(short > 0, "some scan scores members sharing no level-1 cell");
    assert!(skipped > 0, "some scan skips members sharing no level-1 cell");
    assert_eq!(pool.pinned_frames(), 0);
}
