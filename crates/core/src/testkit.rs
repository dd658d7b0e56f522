//! Deterministic workload generation for tests and benchmarks.
//!
//! Every integration suite of the workspace needs the same three things: a
//! spatial hierarchy, a population of digital traces with *known* association
//! structure, and a stream of presence records to feed the ingest path.
//! Before this module existed each test file grew its own ad-hoc builder; the
//! testkit centralises them so the exactness, persistence, sharding and
//! concurrency suites all draw from one seeded, reproducible generator.
//!
//! A [`Workload`] bundles the hierarchy with the generated [`TraceSet`] and
//! offers index construction, probe sampling and record-stream helpers.
//! Populations come in three families:
//!
//! * **uniform** ([`Workload::uniform`]) — every entity visits uniformly
//!   random ST-cells; no planted structure, the general-purpose conformance
//!   population;
//! * **skewed** ([`Workload::paired`], [`Workload::skewed`]) — planted
//!   associations: itinerary-sharing pairs, and celebrity heavy-hitters over
//!   tiny single-cell pairs;
//! * **adversarial** ([`Workload::all_identical`],
//!   [`Workload::one_cell_pileup`], [`Workload::degenerate_mix`],
//!   [`Workload::pruning_adversarial`]) — the degenerate shapes that
//!   historically break top-k indexes: all-ties populations, one massively
//!   shared cell, empty and single-cell traces, and the sharding-skew
//!   population where one shard holds every top-k entity (the unsharded
//!   tree's best case, and the planner's skip rule's).
//!
//! Generation is fully deterministic: the same config (including its `seed`)
//! produces the same workload on every machine and every run, so a failing
//! case reported by CI reproduces locally without any artefact exchange.
//!
//! The oracle helpers ([`assert_matches_brute_force`],
//! [`assert_exact_for_all`]) compare an index's answers against the
//! brute-force ground truth — the black-box conformance check every query
//! path must pass.

use crate::config::IndexConfig;
use crate::index::MinSigIndex;
use crate::query::TopKResult;
use trace_model::{
    AssociationMeasure, CellSetSequence, DigitalTrace, EntityId, LevelOverlap, PaperAdm, Period,
    PresenceInstance, SpIndex, TraceSet,
};

/// Raw ticks per base temporal unit used by every generated workload.
pub const TICKS_PER_UNIT: u64 = 60;

/// A small deterministic generator (SplitMix64) so workload generation does
/// not depend on any external randomness crate.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Rng64 { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)`; `bound` must be positive.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty sample space");
        self.next_u64() % bound
    }
}

/// Shape of the spatial hierarchy a workload is generated over.
#[derive(Debug, Clone)]
pub struct HierarchySpec {
    /// Number of level-1 (top) units.
    pub top_units: usize,
    /// Branching factor per subsequent level; empty means a flat one-level
    /// hierarchy.
    pub branching: Vec<usize>,
}

impl Default for HierarchySpec {
    /// The three-level `3 × 4 × 4` hierarchy most suites use.
    fn default() -> Self {
        HierarchySpec { top_units: 3, branching: vec![4, 4] }
    }
}

impl HierarchySpec {
    /// A flat single-level hierarchy of `units` base units.
    pub fn flat(units: usize) -> Self {
        HierarchySpec { top_units: units, branching: Vec::new() }
    }

    /// A hierarchy with explicit top-unit count and branching factors.
    pub fn new(top_units: usize, branching: &[usize]) -> Self {
        HierarchySpec { top_units, branching: branching.to_vec() }
    }

    /// Materialises the hierarchy.
    pub(crate) fn build(&self) -> SpIndex {
        SpIndex::uniform(self.top_units, &self.branching).expect("valid hierarchy spec")
    }
}

/// Configuration of [`Workload::uniform`].
#[derive(Debug, Clone)]
pub struct UniformConfig {
    /// Number of generated entities (ids `0..entities`).
    pub entities: u64,
    /// Visits per entity.
    pub visits: u64,
    /// Number of base temporal units the visits are spread over.
    pub time_slots: u64,
    /// The hierarchy to generate over.
    pub hierarchy: HierarchySpec,
    /// Generator seed.
    pub seed: u64,
}

impl Default for UniformConfig {
    fn default() -> Self {
        UniformConfig {
            entities: 60,
            visits: 6,
            time_slots: 48,
            hierarchy: HierarchySpec::default(),
            seed: 0,
        }
    }
}

/// Configuration of [`Workload::paired`].
#[derive(Debug, Clone)]
pub struct PairedConfig {
    /// Number of entity pairs; pair `i` is entities `(2i, 2i+1)`.
    pub pairs: u64,
    /// Shared itinerary length per pair.
    pub steps: u64,
    /// Individual noise visits per member on top of the shared itinerary.
    pub noise_visits: u64,
    /// The hierarchy to generate over.
    pub hierarchy: HierarchySpec,
    /// Generator seed.
    pub seed: u64,
}

impl Default for PairedConfig {
    fn default() -> Self {
        PairedConfig {
            pairs: 20,
            steps: 6,
            noise_visits: 1,
            hierarchy: HierarchySpec::default(),
            seed: 0,
        }
    }
}

/// Configuration of [`Workload::skewed`].
#[derive(Debug, Clone)]
pub struct SkewedConfig {
    /// Number of celebrity entities visiting every base unit repeatedly
    /// (ids `0..celebrities`).
    pub celebrities: u64,
    /// Visits per base unit per celebrity.
    pub celebrity_visits_per_unit: u64,
    /// Number of tiny pairs sharing one ST-cell each (ids
    /// `celebrities..celebrities + 2 * pairs`).
    pub pairs: u64,
    /// The hierarchy to generate over.
    pub hierarchy: HierarchySpec,
    /// Generator seed.
    pub seed: u64,
}

impl Default for SkewedConfig {
    fn default() -> Self {
        SkewedConfig {
            celebrities: 1,
            celebrity_visits_per_unit: 10,
            pairs: 10,
            hierarchy: HierarchySpec::new(2, &[8]),
            seed: 0,
        }
    }
}

/// Configuration of [`Workload::stream`] — a batch of presence records to
/// feed the ingest path, mixing visits of existing entities with brand-new
/// entity ids.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of generated records.
    pub records: usize,
    /// Existing entities are drawn from `0..existing_entities`.
    pub existing_entities: u64,
    /// New entities are drawn from `new_entity_base..new_entity_base + new_entity_span`.
    pub new_entity_base: u64,
    /// Size of the new-entity id pool.
    pub new_entity_span: u64,
    /// Percentage (0–100) of records addressed to new entities.
    pub new_entity_percent: u8,
    /// First tick of the stream's time window (put it after the seed
    /// workload's window to model fresh detections).
    pub start_tick: u64,
    /// Number of base temporal units the stream spans.
    pub time_slots: u64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            records: 200,
            existing_entities: 20,
            new_entity_base: 1_000,
            new_entity_span: 16,
            new_entity_percent: 25,
            start_tick: 10_000,
            time_slots: 50,
            seed: 1,
        }
    }
}

/// Configuration of [`Workload::pruning_adversarial`] — the workload on
/// which a high k-th-degree threshold matters most (and least).
///
/// A *hot* clique of high-overlap entities is planted so that **every** hot
/// id routes to one single shard under [`shard_of`](crate::shard::shard_of)
/// with `num_shards` shards; a *cold* background of weakly-associated
/// entities fills the remaining shards.  Querying a hot entity is the best
/// case: the seeded threshold is the clique's degree almost at once, so the
/// planner skips every cold shard, and the unsharded tree search prunes
/// nearly every cold subtree.  Querying a cold entity is the worst case: the
/// threshold stays low, nothing is skipped and little is pruned.
#[derive(Debug, Clone)]
pub struct PruningAdversarialConfig {
    /// The shard count the hot clique is aimed at: all hot entity ids route
    /// to one shard when the workload is built with this many shards.
    pub num_shards: usize,
    /// Number of hot (high-overlap) entities.
    pub hot_entities: u64,
    /// Number of cold (weak-overlap) background entities.
    pub cold_entities: u64,
    /// Length of the shared hot itinerary in ST-cells.
    pub itinerary_steps: u64,
    /// The hierarchy to generate over.
    pub hierarchy: HierarchySpec,
    /// Generator seed.
    pub seed: u64,
}

impl Default for PruningAdversarialConfig {
    fn default() -> Self {
        PruningAdversarialConfig {
            num_shards: 4,
            hot_entities: 12,
            cold_entities: 48,
            itinerary_steps: 6,
            hierarchy: HierarchySpec::default(),
            seed: 0,
        }
    }
}

/// Configuration of [`Workload::planner_localized`] — the query planner's
/// **best** case: every top-k answer of a hot query lives in one single
/// shard, and every other shard is provably skippable.
///
/// A hot clique (all ids routing to one shard under
/// [`shard_of`](crate::shard::shard_of) with `num_shards` shards) shares an
/// itinerary; every background entity holds exactly **one** ST-cell in a
/// time window disjoint from the clique's, so background shards have
/// per-level capacity caps of 1 and zero overlap with a hot query — their
/// synopsis upper bound is far below the seeded threshold, and the planner
/// must prove all of them away ([`QueryStats::shards_skipped`]
/// `= num_shards - 1` for a hot query at `num_shards ≥ 2`).
///
/// [`QueryStats::shards_skipped`]: crate::stats::QueryStats::shards_skipped
#[derive(Debug, Clone)]
pub struct PlannerLocalizedConfig {
    /// The shard count the hot clique is aimed at.
    pub num_shards: usize,
    /// Number of hot (clique) entities; must be at least 2.
    pub hot_entities: u64,
    /// Number of single-cell background entities filling the other shards.
    pub background_entities: u64,
    /// Length of the shared hot itinerary in ST-cells.
    pub itinerary_steps: u64,
    /// The hierarchy to generate over.
    pub hierarchy: HierarchySpec,
    /// Generator seed.
    pub seed: u64,
}

impl Default for PlannerLocalizedConfig {
    fn default() -> Self {
        PlannerLocalizedConfig {
            num_shards: 4,
            hot_entities: 12,
            background_entities: 48,
            itinerary_steps: 6,
            hierarchy: HierarchySpec::default(),
            seed: 0,
        }
    }
}

/// Configuration of [`Workload::planner_dispersed`] — the query planner's
/// **worst** case: strong candidates live in every shard, so no shard is
/// skippable and planning can only pay for itself through seeding.
///
/// Every generated entity shares one global itinerary (plus light private
/// noise keeping degrees distinct), and ids are chosen so each shard under
/// `num_shards` receives exactly `entities_per_shard` of them: every
/// shard's capacity caps and achievable degrees look alike, the planner's
/// skip certificate can never fire, and `shards_skipped` must stay 0.
#[derive(Debug, Clone)]
pub struct PlannerDispersedConfig {
    /// The shard count the population is spread over.
    pub num_shards: usize,
    /// Entities routed to each shard (total = `num_shards × entities_per_shard`).
    pub entities_per_shard: u64,
    /// Length of the shared global itinerary in ST-cells.
    pub itinerary_steps: u64,
    /// The hierarchy to generate over.
    pub hierarchy: HierarchySpec,
    /// Generator seed.
    pub seed: u64,
}

impl Default for PlannerDispersedConfig {
    fn default() -> Self {
        PlannerDispersedConfig {
            num_shards: 4,
            entities_per_shard: 12,
            itinerary_steps: 6,
            hierarchy: HierarchySpec::default(),
            seed: 0,
        }
    }
}

/// Configuration of [`Workload::deadline_adversarial`] — the latency
/// budget's stress case: **one pathologically expensive shard** (a large
/// clique sharing a long itinerary, so its tree search must score many
/// strong candidates) while every other shard holds only trivial
/// single-cell entities.  A deadline that comfortably covers the cheap
/// shards expires inside the expensive one, which is what the deadline and
/// the recall floor are tested against.
#[derive(Debug, Clone)]
pub struct DeadlineAdversarialConfig {
    /// The shard count; the expensive clique lands in one of them.
    pub num_shards: usize,
    /// Clique size of the expensive shard; must be at least 2.
    pub expensive_entities: u64,
    /// Single-cell entities filling the remaining (cheap) shards.
    pub cheap_entities: u64,
    /// Length of the clique's shared itinerary in ST-cells.
    pub itinerary_steps: u64,
    /// Extra expensive-shard entities that each walk a random *window* of
    /// the clique itinerary plus one private cell.  Their overlap with a
    /// clique query is real but strictly below every clique partner's (the
    /// private cell keeps the Dice ratio under its ceiling), so the exact
    /// top-k is untouched — yet their distinct signatures fan the shard's
    /// tree into many small leaves, and the shard's scan many members to
    /// score after its deadline.  Requires
    /// `itinerary_steps >= 4` when non-zero.
    pub chaff_entities: u64,
    /// The hierarchy to generate over.
    pub hierarchy: HierarchySpec,
    /// Generator seed.
    pub seed: u64,
}

impl Default for DeadlineAdversarialConfig {
    fn default() -> Self {
        DeadlineAdversarialConfig {
            num_shards: 4,
            expensive_entities: 24,
            cheap_entities: 24,
            itinerary_steps: 8,
            chaff_entities: 0,
            hierarchy: HierarchySpec::default(),
            seed: 0,
        }
    }
}

/// A generated population: the hierarchy it lives in plus its trace set.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The spatial hierarchy the traces were generated over.
    pub sp: SpIndex,
    /// The generated traces.
    pub traces: TraceSet,
}

impl Workload {
    /// Uniformly random visits — no planted structure.
    pub fn uniform(config: UniformConfig) -> Workload {
        let sp = config.hierarchy.build();
        let base = sp.base_units().to_vec();
        let mut rng = Rng64::new(config.seed);
        let mut traces = TraceSet::new(TICKS_PER_UNIT);
        for e in 0..config.entities {
            for _ in 0..config.visits {
                let unit = base[rng.below(base.len() as u64) as usize];
                let start = rng.below(config.time_slots) * TICKS_PER_UNIT;
                traces.record(PresenceInstance::new(
                    EntityId(e),
                    unit,
                    Period::new(start, start + TICKS_PER_UNIT).unwrap(),
                ));
            }
        }
        Workload { sp, traces }
    }

    /// Itinerary-sharing pairs: entities `(2i, 2i+1)` visit the same random
    /// ST-cells, plus per-member noise visits in a disjoint time window —
    /// each entity's strongest association is its partner.
    pub fn paired(config: PairedConfig) -> Workload {
        let sp = config.hierarchy.build();
        let base = sp.base_units().to_vec();
        let mut rng = Rng64::new(config.seed);
        let mut traces = TraceSet::new(TICKS_PER_UNIT);
        // The shared itineraries live strictly before `noise_start`, so noise
        // can never accidentally strengthen a cross-pair association above a
        // partner's.
        let noise_start = config.steps * 3 * TICKS_PER_UNIT;
        for i in 0..config.pairs {
            let shared: Vec<(u32, u64)> = (0..config.steps)
                .map(|step| {
                    let unit = base[rng.below(base.len() as u64) as usize];
                    (unit, step * 3 * TICKS_PER_UNIT)
                })
                .collect();
            for member in 0..2u64 {
                let entity = EntityId(2 * i + member);
                for &(unit, start) in &shared {
                    traces.record(PresenceInstance::new(
                        entity,
                        unit,
                        Period::new(start, start + TICKS_PER_UNIT).unwrap(),
                    ));
                }
                for n in 0..config.noise_visits {
                    let unit = base[rng.below(base.len() as u64) as usize];
                    let start = noise_start + (i * 7 + member * 3 + n) % 29 * 2 * TICKS_PER_UNIT;
                    traces.record(PresenceInstance::new(
                        entity,
                        unit,
                        Period::new(start, start + TICKS_PER_UNIT).unwrap(),
                    ));
                }
            }
        }
        Workload { sp, traces }
    }

    /// Celebrity heavy-hitters over tiny pairs: a few entities visit every
    /// base unit repeatedly while many pairs share one specific ST-cell each.
    /// The celebrities' huge traces dilute their ratio-style degrees, so a
    /// tiny entity's top-1 must still be its partner.
    pub fn skewed(config: SkewedConfig) -> Workload {
        let sp = config.hierarchy.build();
        let base = sp.base_units().to_vec();
        let mut rng = Rng64::new(config.seed);
        let mut traces = TraceSet::new(TICKS_PER_UNIT);
        for c in 0..config.celebrities {
            for (i, &unit) in base.iter().enumerate() {
                for t in 0..config.celebrity_visits_per_unit {
                    let start = (i as u64 * config.celebrity_visits_per_unit + t) * TICKS_PER_UNIT;
                    traces.record(PresenceInstance::new(
                        EntityId(c),
                        unit,
                        Period::new(start, start + TICKS_PER_UNIT).unwrap(),
                    ));
                }
            }
        }
        let pair_slots = base.len() as u64 * config.celebrity_visits_per_unit;
        for p in 0..config.pairs {
            let unit = base[rng.below(base.len() as u64) as usize];
            let start = (pair_slots + p * 3) * TICKS_PER_UNIT;
            for member in 0..2u64 {
                traces.record(PresenceInstance::new(
                    EntityId(config.celebrities + 2 * p + member),
                    unit,
                    Period::new(start, start + TICKS_PER_UNIT).unwrap(),
                ));
            }
        }
        Workload { sp, traces }
    }

    /// Adversarial: every entity has exactly the same trace (all base units,
    /// same times) — every degree ties, and search must still terminate.
    pub fn all_identical(entities: u64, hierarchy: HierarchySpec) -> Workload {
        let sp = hierarchy.build();
        let base = sp.base_units().to_vec();
        let mut traces = TraceSet::new(TICKS_PER_UNIT);
        for e in 0..entities {
            for (i, &unit) in base.iter().enumerate() {
                let start = i as u64 * TICKS_PER_UNIT;
                traces.record(PresenceInstance::new(
                    EntityId(e),
                    unit,
                    Period::new(start, start + TICKS_PER_UNIT).unwrap(),
                ));
            }
        }
        Workload { sp, traces }
    }

    /// Adversarial: `crowd` entities (ids `0..crowd`) share one single
    /// ST-cell; one hermit (id `crowd`) lives alone in the last base unit.
    /// The hermit's best association degree is zero.
    pub fn one_cell_pileup(crowd: u64, hierarchy: HierarchySpec) -> Workload {
        let sp = hierarchy.build();
        let base = sp.base_units().to_vec();
        assert!(base.len() >= 2, "pileup needs somewhere for the hermit to hide");
        let mut traces = TraceSet::new(TICKS_PER_UNIT);
        for e in 0..crowd {
            traces.record(PresenceInstance::new(
                EntityId(e),
                base[0],
                Period::new(0, TICKS_PER_UNIT).unwrap(),
            ));
        }
        traces.record(PresenceInstance::new(
            EntityId(crowd),
            *base.last().unwrap(),
            Period::new(0, TICKS_PER_UNIT).unwrap(),
        ));
        Workload { sp, traces }
    }

    /// Adversarial: a normal pair (entities 0 and 1 sharing five cells), a
    /// single-cell entity (2, covered by the pair's first cell) and an
    /// empty-trace entity (3) coexist in one index.
    pub fn degenerate_mix(hierarchy: HierarchySpec) -> Workload {
        let sp = hierarchy.build();
        let base = sp.base_units().to_vec();
        assert!(base.len() >= 5, "degenerate mix wants five distinct base units");
        let mut traces = TraceSet::new(TICKS_PER_UNIT);
        for e in [0u64, 1] {
            for i in 0..5u64 {
                traces.record(PresenceInstance::new(
                    EntityId(e),
                    base[i as usize],
                    Period::new(i * TICKS_PER_UNIT, (i + 1) * TICKS_PER_UNIT).unwrap(),
                ));
            }
        }
        traces.record(PresenceInstance::new(
            EntityId(2),
            base[0],
            Period::new(0, TICKS_PER_UNIT).unwrap(),
        ));
        traces.insert_trace(EntityId(3), DigitalTrace::new());
        Workload { sp, traces }
    }

    /// Adversarial for sharded pruning: one shard holds **all** top-k
    /// entities of a hot query, the other shards only weak decoys.
    ///
    /// Returns the workload plus the hot entity ids (ascending) — all of
    /// which route to the same shard when sharded `config.num_shards` ways.
    /// Hot entities share one itinerary (plus per-entity noise that keeps
    /// their degrees distinct-but-high); each cold entity touches exactly one
    /// itinerary cell, so its association with a hot query is weak but
    /// non-zero, and gets its own noise cells.  See
    /// [`PruningAdversarialConfig`] for how the best/worst cases of a high
    /// threshold are exercised.
    pub fn pruning_adversarial(config: PruningAdversarialConfig) -> (Workload, Vec<EntityId>) {
        assert!(config.num_shards > 0, "the hot clique needs a shard to live in");
        assert!(config.hot_entities >= 2, "a clique of one has no associations");
        assert!(config.itinerary_steps >= 1, "the hot itinerary cannot be empty");
        let sp = config.hierarchy.build();
        let base = sp.base_units().to_vec();
        let mut rng = Rng64::new(config.seed);
        let mut traces = TraceSet::new(TICKS_PER_UNIT);

        // Partition candidate ids by their home shard under the configured
        // shard count; the hot clique gets ids routing to the shard of id 0.
        let (hot, cold) = partition_ids_by_home_shard(
            config.num_shards,
            config.hot_entities,
            config.cold_entities,
        );

        // The shared hot itinerary, strictly before the noise window.
        let itinerary = random_itinerary(&base, &mut rng, config.itinerary_steps);
        let noise_start = config.itinerary_steps * 2 * TICKS_PER_UNIT;
        record_itinerary_clique(&mut traces, &base, &mut rng, &itinerary, &hot, noise_start, 5);
        for (i, &entity) in cold.iter().enumerate() {
            // One itinerary cell: weak but non-zero association with the
            // clique, so cold shards cannot trivially return empty answers.
            let (unit, start) = itinerary[i % itinerary.len()];
            traces.record(PresenceInstance::new(
                entity,
                unit,
                Period::new(start, start + TICKS_PER_UNIT).unwrap(),
            ));
            // Heavy private noise dilutes the cold entity's ratio degrees.
            for n in 0..4u64 {
                let unit = base[rng.below(base.len() as u64) as usize];
                let start = noise_start + (i as u64 * 11 + n * 3) * TICKS_PER_UNIT;
                traces.record(PresenceInstance::new(
                    entity,
                    unit,
                    Period::new(start, start + TICKS_PER_UNIT).unwrap(),
                ));
            }
        }
        (Workload { sp, traces }, hot)
    }

    /// The planner's best case: all top-k answers of a hot query route to
    /// one shard, every other shard is provably skippable.  Returns the
    /// workload plus the hot entity ids (ascending); see
    /// [`PlannerLocalizedConfig`] for the planted structure.
    pub fn planner_localized(config: PlannerLocalizedConfig) -> (Workload, Vec<EntityId>) {
        assert!(config.num_shards > 0, "the hot clique needs a shard to live in");
        assert!(config.hot_entities >= 2, "a clique of one has no associations");
        assert!(config.itinerary_steps >= 1, "the hot itinerary cannot be empty");
        let sp = config.hierarchy.build();
        let base = sp.base_units().to_vec();
        let mut rng = Rng64::new(config.seed);
        let mut traces = TraceSet::new(TICKS_PER_UNIT);

        let (hot, background) = partition_ids_by_home_shard(
            config.num_shards,
            config.hot_entities,
            config.background_entities,
        );

        // The shared hot itinerary, followed by light per-entity hot noise
        // that keeps clique degrees high but distinct.
        let itinerary = random_itinerary(&base, &mut rng, config.itinerary_steps);
        let noise_start = config.itinerary_steps * 2 * TICKS_PER_UNIT;
        record_itinerary_clique(&mut traces, &base, &mut rng, &itinerary, &hot, noise_start, 5);

        // Background: exactly one cell per entity, in its own time slot far
        // beyond every hot cell — zero overlap with any hot query, and
        // per-level capacity caps of 1 in every background shard.
        let background_start = noise_start + (config.hot_entities * 5 + 10) * TICKS_PER_UNIT;
        for (i, &entity) in background.iter().enumerate() {
            let unit = base[rng.below(base.len() as u64) as usize];
            let start = background_start + i as u64 * TICKS_PER_UNIT;
            traces.record(PresenceInstance::new(
                entity,
                unit,
                Period::new(start, start + TICKS_PER_UNIT).unwrap(),
            ));
        }
        (Workload { sp, traces }, hot)
    }

    /// The planner's worst case: strong candidates spread evenly over every
    /// shard, so the skip certificate can never fire.  Returns the workload
    /// plus all entity ids (ascending); see [`PlannerDispersedConfig`].
    pub fn planner_dispersed(config: PlannerDispersedConfig) -> (Workload, Vec<EntityId>) {
        assert!(config.num_shards > 0, "entities need shards to live in");
        assert!(config.entities_per_shard >= 1, "every shard must hold a candidate");
        assert!(config.itinerary_steps >= 1, "the shared itinerary cannot be empty");
        let sp = config.hierarchy.build();
        let base = sp.base_units().to_vec();
        let mut rng = Rng64::new(config.seed);
        let mut traces = TraceSet::new(TICKS_PER_UNIT);

        // Exactly `entities_per_shard` ids routing to every shard.
        let mut per_shard: Vec<u64> = vec![0; config.num_shards];
        let mut entities: Vec<EntityId> = Vec::new();
        let mut next_id = 0u64;
        while per_shard.iter().any(|&n| n < config.entities_per_shard) {
            let id = EntityId(next_id);
            next_id += 1;
            let home = crate::shard::shard_of(id, config.num_shards);
            if per_shard[home] < config.entities_per_shard {
                per_shard[home] += 1;
                entities.push(id);
            }
        }
        entities.sort();

        let itinerary = random_itinerary(&base, &mut rng, config.itinerary_steps);
        let noise_start = config.itinerary_steps * 2 * TICKS_PER_UNIT;
        record_itinerary_clique(
            &mut traces,
            &base,
            &mut rng,
            &itinerary,
            &entities,
            noise_start,
            7,
        );
        (Workload { sp, traces }, entities)
    }

    /// One pathologically expensive shard plus cheap rest — the latency
    /// budget's stress workload; see [`DeadlineAdversarialConfig`].
    /// Returns the workload plus the expensive clique's ids (the natural
    /// probes: their queries *must* drive the expensive shard).
    pub fn deadline_adversarial(config: DeadlineAdversarialConfig) -> (Workload, Vec<EntityId>) {
        assert!(config.num_shards > 0, "the expensive clique needs a shard to live in");
        assert!(config.expensive_entities >= 2, "a clique of one has no associations");
        assert!(config.itinerary_steps >= 1, "the clique itinerary cannot be empty");
        assert!(
            config.chaff_entities == 0 || config.itinerary_steps >= 4,
            "chaff windows need an itinerary of at least 4 steps"
        );
        let sp = config.hierarchy.build();
        let base = sp.base_units().to_vec();
        let mut rng = Rng64::new(config.seed);
        let mut traces = TraceSet::new(TICKS_PER_UNIT);

        let (hot, cheap) = partition_ids_by_home_shard(
            config.num_shards,
            config.expensive_entities + config.chaff_entities,
            config.cheap_entities,
        );
        let (expensive, chaff) = hot.split_at(config.expensive_entities as usize);
        let expensive = expensive.to_vec();

        // The expensive shard: every clique member walks the whole shared
        // itinerary — and nothing else, so all partners *tie* in degree.
        // The tie wall is what makes the shard pathological (tie-complete
        // pruning must expand every boundary subtree), and it keeps the
        // recall oracle honest: any k sampled partners are a fully valid
        // degraded answer, so measured recall reflects sampling coverage,
        // not arbitrary id tie-breaks the sampler cannot know.
        let itinerary = random_itinerary(&base, &mut rng, config.itinerary_steps);
        for &entity in &expensive {
            for &(unit, start) in &itinerary {
                traces.record(PresenceInstance::new(
                    entity,
                    unit,
                    Period::new(start, start + TICKS_PER_UNIT).unwrap(),
                ));
            }
        }

        // Chaff: each walks a random window of the itinerary plus one
        // private cell all its own.  The window makes its overlap with a
        // clique query real (its subtree cannot be dismissed for free); the
        // private cell caps its Dice ratio strictly below the clique
        // partners' (overlap w of sizes steps vs w+1 scores under the
        // full-overlap tie wall), so chaff never enters the exact top-k of
        // any clique probe as long as k stays within the clique.
        let window = (config.itinerary_steps / 2).max(1);
        let chaff_start = config.itinerary_steps * 2 * TICKS_PER_UNIT;
        for (i, &entity) in chaff.iter().enumerate() {
            let offset = rng.below(config.itinerary_steps - window + 1) as usize;
            for &(unit, start) in &itinerary[offset..offset + window as usize] {
                traces.record(PresenceInstance::new(
                    entity,
                    unit,
                    Period::new(start, start + TICKS_PER_UNIT).unwrap(),
                ));
            }
            let unit = base[rng.below(base.len() as u64) as usize];
            let private = chaff_start + i as u64 * TICKS_PER_UNIT;
            traces.record(PresenceInstance::new(
                entity,
                unit,
                Period::new(private, private + TICKS_PER_UNIT).unwrap(),
            ));
        }

        // Cheap shards: one isolated cell per entity, far past every clique
        // and chaff cell — zero overlap with any clique query, trivially
        // skippable or scannable in no time.
        let cheap_start = config.itinerary_steps * 2 * TICKS_PER_UNIT
            + (config.chaff_entities + config.expensive_entities * 5 + 10) * TICKS_PER_UNIT;
        for (i, &entity) in cheap.iter().enumerate() {
            let unit = base[rng.below(base.len() as u64) as usize];
            let start = cheap_start + i as u64 * TICKS_PER_UNIT;
            traces.record(PresenceInstance::new(
                entity,
                unit,
                Period::new(start, start + TICKS_PER_UNIT).unwrap(),
            ));
        }
        (Workload { sp, traces }, expensive)
    }

    /// Builds a [`MinSigIndex`] over this workload.
    pub fn build_index(&self, config: IndexConfig) -> MinSigIndex {
        MinSigIndex::build(&self.sp, &self.traces, config).expect("workload index builds")
    }

    /// The paper's association measure at this workload's hierarchy height.
    pub fn measure(&self) -> PaperAdm {
        PaperAdm::default_for(self.sp.height() as usize)
    }

    /// All entity ids of the workload, ascending.
    pub fn entities(&self) -> Vec<EntityId> {
        self.traces.entities().collect()
    }

    /// A deterministic sample of `n` query entities (repeats once the
    /// population is exhausted, so the sample always has exactly `n` probes).
    pub fn sample_entities(&self, n: usize, seed: u64) -> Vec<EntityId> {
        let pool = self.entities();
        assert!(!pool.is_empty(), "cannot sample from an empty workload");
        let mut rng = Rng64::new(seed);
        (0..n).map(|_| pool[rng.below(pool.len() as u64) as usize]).collect()
    }

    /// A deterministic stream of presence records over this workload's
    /// hierarchy — the input of one ingest batch.
    pub fn stream(&self, config: StreamConfig) -> Vec<PresenceInstance> {
        let base = self.sp.base_units().to_vec();
        let mut rng = Rng64::new(config.seed);
        (0..config.records)
            .map(|_| {
                let entity = if rng.below(100) < config.new_entity_percent as u64 {
                    EntityId(config.new_entity_base + rng.below(config.new_entity_span.max(1)))
                } else {
                    EntityId(rng.below(config.existing_entities.max(1)))
                };
                let unit = base[rng.below(base.len() as u64) as usize];
                let start = config.start_tick + rng.below(config.time_slots) * TICKS_PER_UNIT;
                PresenceInstance::new(
                    entity,
                    unit,
                    Period::new(start, start + TICKS_PER_UNIT).unwrap(),
                )
            })
            .collect()
    }
}

/// A random shared itinerary: `steps` ST-cells, one every other base
/// temporal unit, over random base spatial units.  Shared by the
/// planted-structure generators; the noise window of each starts at
/// `steps * 2 * TICKS_PER_UNIT`.
fn random_itinerary(base: &[u32], rng: &mut Rng64, steps: u64) -> Vec<(u32, u64)> {
    (0..steps)
        .map(|step| {
            let unit = base[rng.below(base.len() as u64) as usize];
            (unit, step * 2 * TICKS_PER_UNIT)
        })
        .collect()
}

/// Records a clique: every member walks the whole shared `itinerary`, plus
/// `i % 3` private noise visits at
/// `noise_start + (i * noise_stride + n) * TICKS_PER_UNIT` — light noise
/// that keeps clique degrees high but distinct.  Shared by the
/// planted-structure generators so their itinerary layout cannot silently
/// diverge.
fn record_itinerary_clique(
    traces: &mut TraceSet,
    base: &[u32],
    rng: &mut Rng64,
    itinerary: &[(u32, u64)],
    members: &[EntityId],
    noise_start: u64,
    noise_stride: u64,
) {
    for (i, &entity) in members.iter().enumerate() {
        for &(unit, start) in itinerary {
            traces.record(PresenceInstance::new(
                entity,
                unit,
                Period::new(start, start + TICKS_PER_UNIT).unwrap(),
            ));
        }
        for n in 0..(i as u64 % 3) {
            let unit = base[rng.below(base.len() as u64) as usize];
            let start = noise_start + (i as u64 * noise_stride + n) * TICKS_PER_UNIT;
            traces.record(PresenceInstance::new(
                entity,
                unit,
                Period::new(start, start + TICKS_PER_UNIT).unwrap(),
            ));
        }
    }
}

/// Splits fresh ascending entity ids into a `hot` group whose members all
/// route to one single shard (the home of id 0 under `num_shards` shards,
/// per [`shard_of`](crate::shard::shard_of)) and a `background` group whose
/// members route anywhere else (anywhere at all when there is only one
/// shard).  Shared by the shard-skew workload generators.
fn partition_ids_by_home_shard(
    num_shards: usize,
    hot_count: u64,
    background_count: u64,
) -> (Vec<EntityId>, Vec<EntityId>) {
    let hot_shard = crate::shard::shard_of(EntityId(0), num_shards);
    let mut hot: Vec<EntityId> = Vec::with_capacity(hot_count as usize);
    let mut background: Vec<EntityId> = Vec::with_capacity(background_count as usize);
    let mut next_id = 0u64;
    while (hot.len() as u64) < hot_count || (background.len() as u64) < background_count {
        let id = EntityId(next_id);
        next_id += 1;
        let home = crate::shard::shard_of(id, num_shards);
        if home == hot_shard && (hot.len() as u64) < hot_count {
            hot.push(id);
        } else if (home != hot_shard || num_shards == 1)
            && (background.len() as u64) < background_count
        {
            background.push(id);
        }
    }
    (hot, background)
}

/// Measured recall of a (possibly degraded) answer against the exact
/// answer: the fraction of exact top-k entities the degraded answer
/// recovered, with degree-ties at the k-th threshold counting as recovered
/// (a sampled scan that surfaced a *different* entity of the same degree is
/// not wrong, only differently tied).  The oracle behind the recall-floor
/// conformance tests and the deadline bench; delegates to
/// [`approximate::recall`](crate::approximate::recall) with the argument
/// order those callers read naturally.
pub fn measured_recall(approx: &[TopKResult], exact: &[TopKResult]) -> f64 {
    crate::approximate::recall(exact, approx)
}

/// How many per-level intersections the fused degree loop issues for one
/// scored pair — one per level up to and including the first empty one, so
/// `1 + the number of leading non-empty levels`, capped at the level count —
/// counted from the owned all-levels overlap.  Summed over the scored
/// candidates, this is what [`KernelDispatch::total`] must read.
///
/// [`KernelDispatch::total`]: crate::stats::KernelDispatch::total
pub fn issued_intersections(query: &CellSetSequence, candidate: &CellSetSequence) -> u64 {
    let overlap = LevelOverlap::from_sequences(query, candidate);
    let shared = overlap.iter().take_while(|(_, stat)| stat.overlap > 0).count();
    (shared + 1).min(overlap.num_levels()) as u64
}

/// The members a flat scan of one shard scores for `query` — the scan's rule
/// restated from the sequences.  `members` are the ones the scan admits, in
/// position order.  Every one sharing a level-1 cell with `query` is
/// scored.  The others are scored too exactly when the `k` best degrees of
/// the sharing members do not all beat `measure`'s bound for a member
/// sharing nothing strictly.  Zero-overlap
/// members cannot raise the k-th degree above that bound, so the tail is all
/// or nothing.  Sharing members come first, each group in the order given.
pub fn scan_scored<'a>(
    query: &CellSetSequence,
    members: impl IntoIterator<Item = (EntityId, &'a CellSetSequence)>,
    k: usize,
    measure: &dyn AssociationMeasure,
) -> Vec<(EntityId, &'a CellSetSequence)> {
    let (mut sharing, disjoint): (Vec<_>, Vec<_>) =
        members.into_iter().partition(|(_, seq)| seq.level(1).intersection_len(query.level(1)) > 0);
    let mut held: Vec<f64> = sharing.iter().map(|(_, seq)| measure.degree(query, seq)).collect();
    held.sort_by(|a, b| b.total_cmp(a));
    let sizes: Vec<usize> = query.iter_levels().map(|(_, set)| set.len()).collect();
    let zero = measure.upper_bound(&sizes, &vec![0; sizes.len()]);
    if k == 0 || held.len() < k || held[k - 1] <= zero {
        sharing.extend(disjoint);
    }
    sharing
}

/// Asserts that two *exact* top-k answers are **fully bit-identical**.
///
/// Exactness in this codebase pins the answer completely: every exact path
/// (unsharded best-first, sharded scans, paged, brute force) ranks under
/// the total order *(degree descending, entity id ascending)* and prunes
/// **strictly** — a subtree tying the k-th threshold is still expanded, so
/// boundary-tied entities are tie-broken by id, not by execution strategy
/// (see `minsig::engine`, "tie-complete pruning").
/// Concretely this asserts:
///
/// * identical lengths and **bitwise-identical degree vectors** (degrees are
///   computed exactly from the sequences on every path);
/// * identical entities at **every** rank, ties at the boundary included;
/// * canonical *(degree descending, entity id ascending)* ordering within
///   each answer.
pub fn assert_equivalent_answers(a: &[TopKResult], b: &[TopKResult], context: &str) {
    assert_canonical_order(a, context);
    assert_canonical_order(b, context);
    assert_eq!(a.len(), b.len(), "{context}: result lengths differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            x.degree.to_bits() == y.degree.to_bits(),
            "{context}: degree at rank {i} differs ({} vs {})",
            x.degree,
            y.degree
        );
        assert_eq!(x.entity, y.entity, "{context}: entity at rank {i} differs");
    }
}

/// An adversarial [`Replacer`](trace_storage::Replacer): evicts a
/// pseudo-random tracked page each time, driven by an [`Rng64`] stream —
/// as unhelpful as a policy can be: if an eviction decision could leak into
/// an answer, this replacer would find it.
#[derive(Debug)]
pub struct ChaoticReplacer {
    rng: Rng64,
    /// Tracked pages in insertion order.
    pages: Vec<trace_storage::PageId>,
}

impl ChaoticReplacer {
    /// Creates the replacer; equal seeds evict identically.
    pub fn new(seed: u64) -> Self {
        ChaoticReplacer { rng: Rng64::new(seed), pages: Vec::new() }
    }
}

impl trace_storage::Replacer for ChaoticReplacer {
    fn record_access(&mut self, id: trace_storage::PageId) {
        if !self.pages.contains(&id) {
            self.pages.push(id);
        }
    }

    fn remove(&mut self, id: trace_storage::PageId) {
        self.pages.retain(|&p| p != id);
    }

    fn victim(&mut self) -> Option<trace_storage::PageId> {
        if self.pages.is_empty() {
            return None;
        }
        let pick = self.rng.below(self.pages.len() as u64) as usize;
        Some(self.pages.remove(pick))
    }

    fn tracked(&self) -> usize {
        self.pages.len()
    }
}

/// Asserts that `answer` is a *valid* exact top-k selection against a full
/// ground-truth table (`truth` must rank **every** candidate, canonically —
/// e.g. `index.brute_force(query, num_entities, measure)`): right length,
/// the canonical top-k degree vector, every reported entity carrying its true
/// degree, no duplicates, canonical ordering.
pub fn assert_valid_top_k(answer: &[TopKResult], truth: &[TopKResult], k: usize, context: &str) {
    assert_canonical_order(answer, context);
    assert_eq!(answer.len(), k.min(truth.len()), "{context}: result length");
    let table: std::collections::BTreeMap<EntityId, u64> =
        truth.iter().map(|r| (r.entity, r.degree.to_bits())).collect();
    let mut seen = std::collections::BTreeSet::new();
    for (i, (a, t)) in answer.iter().zip(truth.iter()).enumerate() {
        assert!(
            a.degree.to_bits() == t.degree.to_bits(),
            "{context}: degree at rank {i} is {}, canonical is {}",
            a.degree,
            t.degree
        );
        assert_eq!(
            Some(&a.degree.to_bits()),
            table.get(&a.entity),
            "{context}: reported degree of {} is not its true degree",
            a.entity
        );
        assert!(seen.insert(a.entity), "{context}: {} reported twice", a.entity);
    }
}

fn assert_canonical_order(answer: &[TopKResult], context: &str) {
    for pair in answer.windows(2) {
        let ordered = pair[0].degree > pair[1].degree
            || (pair[0].degree == pair[1].degree && pair[0].entity < pair[1].entity);
        assert!(
            ordered,
            "{context}: answer is not in canonical (degree desc, id asc) order: {pair:?}"
        );
    }
}

/// Asserts that an index's `top_k` answer for one query equals the
/// brute-force ground truth: same length, and degrees within `1e-9` pairwise
/// (ties may legitimately rank different entities, so ids are not compared).
pub fn assert_matches_brute_force<M: AssociationMeasure + ?Sized>(
    index: &MinSigIndex,
    query: EntityId,
    k: usize,
    measure: &M,
) {
    let (got, _) = index.top_k(query, k, measure).expect("indexed query succeeds");
    let expect = index.brute_force(query, k, measure).expect("brute force succeeds");
    assert_eq!(got.len(), expect.len(), "result size for query {query}, k {k}");
    for (g, e) in got.iter().zip(expect.iter()) {
        assert!(
            (g.degree - e.degree).abs() < 1e-9,
            "degree mismatch for query {query}, k {k}: {} vs {}",
            g.degree,
            e.degree
        );
    }
}

/// [`assert_matches_brute_force`] for **every** indexed entity — the
/// exhaustive conformance sweep the adversarial suites run.
pub fn assert_exact_for_all<M: AssociationMeasure + ?Sized>(
    index: &MinSigIndex,
    k: usize,
    measure: &M,
) {
    for query in index.sequences().keys().copied().collect::<Vec<_>>() {
        assert_matches_brute_force(index, query, k, measure);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::uniform(UniformConfig::default());
        let b = Workload::uniform(UniformConfig::default());
        assert_eq!(a.traces.num_entities(), b.traces.num_entities());
        for e in a.entities() {
            assert_eq!(a.traces.get(e).map(|t| t.len()), b.traces.get(e).map(|t| t.len()));
        }
        let c = Workload::uniform(UniformConfig { seed: 7, ..UniformConfig::default() });
        assert_eq!(c.traces.num_entities(), a.traces.num_entities());
        // Streams are reproducible too.
        assert_eq!(a.stream(StreamConfig::default()), a.stream(StreamConfig::default()));
    }

    #[test]
    fn paired_population_plants_partners() {
        let w = Workload::paired(PairedConfig::default());
        let index = w.build_index(IndexConfig::with_hash_functions(48));
        let measure = w.measure();
        for query in [0u64, 7, 16, 33] {
            let (results, _) = index.top_k(EntityId(query), 1, &measure).unwrap();
            let partner = if query % 2 == 0 { query + 1 } else { query - 1 };
            assert_eq!(results[0].entity, EntityId(partner), "query {query}");
        }
    }

    #[test]
    fn skewed_population_keeps_tiny_partners_on_top() {
        let config = SkewedConfig::default();
        let w = Workload::skewed(config.clone());
        let index = w.build_index(IndexConfig::with_hash_functions(32));
        let measure = w.measure();
        let first_tiny = config.celebrities;
        let (results, _) = index.top_k(EntityId(first_tiny), 1, &measure).unwrap();
        assert_eq!(results[0].entity, EntityId(first_tiny + 1));
    }

    #[test]
    fn adversarial_shapes_have_their_documented_structure() {
        let pileup = Workload::one_cell_pileup(9, HierarchySpec::new(2, &[4]));
        assert_eq!(pileup.traces.num_entities(), 10);
        let mix = Workload::degenerate_mix(HierarchySpec::new(3, &[3, 3]));
        assert!(mix.traces.get(EntityId(3)).unwrap().is_empty());
        let same = Workload::all_identical(5, HierarchySpec::new(2, &[3]));
        let lens: Vec<usize> =
            same.entities().iter().map(|&e| same.traces.get(e).unwrap().len()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn pruning_adversarial_plants_a_one_shard_hot_clique() {
        let config = PruningAdversarialConfig::default();
        let shards = config.num_shards;
        let (w, hot) = Workload::pruning_adversarial(config.clone());
        assert_eq!(hot.len() as u64, config.hot_entities);
        assert_eq!(
            w.traces.num_entities() as u64,
            config.hot_entities + config.cold_entities,
            "hot + cold entities are all indexed"
        );
        // Every hot entity routes to one single shard under the configured
        // shard count.
        let home = crate::shard::shard_of(hot[0], shards);
        for &entity in &hot {
            assert_eq!(crate::shard::shard_of(entity, shards), home, "{entity}");
        }
        // A hot query's entire top-k lives in the hot clique (= that shard).
        let sharded = crate::shard::ShardedMinSigIndex::build(
            &w.sp,
            &w.traces,
            IndexConfig::with_hash_functions(32),
            shards,
        )
        .unwrap();
        let k = hot.len() - 1;
        let (results, _) = sharded.top_k(hot[0], k, &w.measure()).unwrap();
        assert_eq!(results.len(), k);
        let hot_set: std::collections::BTreeSet<EntityId> = hot.iter().copied().collect();
        for r in &results {
            assert!(hot_set.contains(&r.entity), "{} is not a hot entity", r.entity);
        }
    }

    #[test]
    fn planner_localized_isolates_answers_and_starves_background_shards() {
        let config = PlannerLocalizedConfig::default();
        let shards = config.num_shards;
        let (w, hot) = Workload::planner_localized(config.clone());
        assert_eq!(hot.len() as u64, config.hot_entities);
        assert_eq!(
            w.traces.num_entities() as u64,
            config.hot_entities + config.background_entities
        );
        // The clique lives in one shard; background entities never do.
        let home = crate::shard::shard_of(hot[0], shards);
        for &entity in &hot {
            assert_eq!(crate::shard::shard_of(entity, shards), home, "{entity}");
        }
        let hot_set: std::collections::BTreeSet<EntityId> = hot.iter().copied().collect();
        for entity in w.entities() {
            if !hot_set.contains(&entity) {
                assert_ne!(crate::shard::shard_of(entity, shards), home, "{entity}");
                // One single cell: background shards' capacity caps are 1.
                assert_eq!(w.traces.get(entity).unwrap().len(), 1, "{entity}");
            }
        }
        // A hot query's full top-k is the rest of the clique.
        let index = w.build_index(IndexConfig::with_hash_functions(32));
        let truth = index.brute_force(hot[0], hot.len() - 1, &w.measure()).unwrap();
        for r in &truth {
            assert!(hot_set.contains(&r.entity), "{} leaked into the top-k", r.entity);
            assert!(r.degree > 0.0);
        }
    }

    #[test]
    fn planner_dispersed_spreads_candidates_over_every_shard() {
        let config = PlannerDispersedConfig::default();
        let (w, entities) = Workload::planner_dispersed(config.clone());
        assert_eq!(entities.len() as u64, config.num_shards as u64 * config.entities_per_shard);
        let mut per_shard = vec![0u64; config.num_shards];
        for &entity in &entities {
            per_shard[crate::shard::shard_of(entity, config.num_shards)] += 1;
        }
        assert!(
            per_shard.iter().all(|&n| n == config.entities_per_shard),
            "every shard holds the same number of strong candidates: {per_shard:?}"
        );
        // Everyone shares the itinerary: any query's top-1 has real overlap.
        let index = w.build_index(IndexConfig::with_hash_functions(32));
        let (top, _) = index.top_k(entities[0], 1, &w.measure()).unwrap();
        assert!(top[0].degree > 0.0);
    }

    #[test]
    fn sample_entities_draws_from_the_population() {
        let w = Workload::uniform(UniformConfig { entities: 10, ..UniformConfig::default() });
        let sample = w.sample_entities(25, 3);
        assert_eq!(sample.len(), 25);
        assert!(sample.iter().all(|e| w.traces.contains(*e)));
        assert_eq!(sample, w.sample_entities(25, 3));
    }

    #[test]
    fn oracle_helpers_accept_an_exact_index() {
        let w = Workload::uniform(UniformConfig {
            entities: 20,
            visits: 4,
            ..UniformConfig::default()
        });
        let index = w.build_index(IndexConfig::with_hash_functions(16));
        assert_exact_for_all(&index, 3, &w.measure());
    }
}
