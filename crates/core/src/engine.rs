//! The best-first top-k search (Algorithm 2, Section 5.1), run to
//! completion.
//!
//! Every tree search of the crate — the unsharded index's exact
//! [`IndexSnapshot::top_k`], its joins and batches ([`crate::join`]) — runs
//! the crate-private `execute` of this module once.  The flat paths — brute
//! force, every shard of a sharded query, in memory and out of core,
//! [`crate::approximate`] — score through the arena's scans
//! ([`CandidateArena::scan_top_k`](crate::kernel::CandidateArena::scan_top_k)
//! and the postings-driven flat scan) and share only the [`TopKHeap`] and
//! [`merge_top_k`].  The search separates two concerns:
//!
//! * the **logical search** walks the [`MinSigTree`](crate::tree::MinSigTree)
//!   topology (through its flat [`NodeArena`] rows) with a max-heap of
//!   candidate subtrees ordered by an upper bound on the association degree
//!   achievable inside each subtree, gradually tightening per-level overlap
//!   caps down every branch (Theorem 4 / Section 5.1), and stops as soon as
//!   the best bound left is strictly below its own k-th-best degree;
//! * the **data source** — the crate-private `TraceSource` trait — only
//!   answers "what is this entity's degree with the query" during leaf
//!   evaluation.  The snapshot's source scores from its flat candidate
//!   arena; the paged module's test oracle decodes traces instead.
//!
//! The search reports the sorted answers plus the [`QueryStats`] work
//! counters (nodes visited, leaves visited, subtrees pruned, entities
//! checked).
//!
//! ## The frontier's memory
//!
//! A search visits thousands of nodes, so the inner loop owns and reuses
//! everything it touches and allocates per query, not per node.  The heap
//! holds 16-byte candidates — *(bound, node, caps slot)*, ordered by bound
//! descending then node id ascending, the slot taking no part in the order.
//! The per-level overlap caps of inner nodes sit in a slab of fixed-width
//! slots: a pop moves the node's caps into a scratch row and frees the slot
//! before its children are pushed, and childless children (leaves and folded
//! one-entity subtrees) — evaluated, never expanded — store none.  The
//! query's sorted cell hashes are a dense `[level][hash function]` table
//! filled on first use, and a child's bound is computed by
//! [`AssociationMeasure::upper_bound_into`] over one reused scratch.  The
//! leaf-degree scratch belongs to the source, which also owns the
//! kernel-dispatch accounting.
//!
//! ## Tie-complete pruning (pinned tie-breaking)
//!
//! All exact answers of this crate are ranked under the total order *(degree
//! descending, [`EntityId`] ascending)*, and pruning is **strict**: a subtree
//! is discarded only when its upper bound is strictly below the k-th-best
//! threshold.  A subtree *tying* the threshold is still expanded, because it
//! may contain an equal-degree entity with a smaller id that displaces the
//! current k-th answer.  This pins the answer completely: every exact path
//! (unsharded, paged, sharded, brute force) returns the identical bitwise
//! result even when several entities tie exactly at the k-th degree.
//!
//! The bound for a node at depth `d` with routing index `u` and stored value
//! `v` combines two sound constraints:
//!
//! * **level-`d` constraint** — every member entity's level-`d` signature at
//!   `u` is at least `v`, so query level-`d` cells whose hash under `u` is
//!   below `v` cannot be shared (the MinHash minimum property);
//! * **base-level constraint (Theorem 2)** — query *base* cells whose hash
//!   under `u` is below `v` cannot be in any member's trace.
//!
//! Constraints accumulate down a branch (the per-level caps of a child are
//! never larger than its parent's); the caps are turned into a degree bound by
//! instantiating Theorem 4's artificial entity per level (see
//! [`AssociationMeasure::upper_bound_into`]).  The two [`QueryOptions`]
//! ablations switch the level-`d` constraint and the accumulation off.
//!
//! Searching for an arbitrary sequence (what [`IndexSnapshot::top_k`] does
//! for an indexed entity's own):
//!
//! ```
//! use minsig::{IndexConfig, MinSigIndex, QueryOptions};
//! use trace_model::{DiceAdm, EntityId, Period, PresenceInstance, SpIndex, TraceSet};
//!
//! let sp = SpIndex::uniform(2, &[3]).unwrap();
//! let base = sp.base_units().to_vec();
//! let mut traces = TraceSet::new(60);
//! for (e, unit) in [(0u64, base[0]), (1, base[0]), (2, base[4])] {
//!     traces.record(PresenceInstance::new(EntityId(e), unit, Period::new(0, 120).unwrap()));
//! }
//! let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
//! let measure = DiceAdm::uniform(2);
//!
//! let snapshot = index.snapshot();
//! let query = snapshot.sequence(EntityId(0)).unwrap();
//! // Exclude the query entity itself from its answer.
//! let (results, stats) = snapshot
//!     .top_k_for_sequence(query, Some(EntityId(0)), 1, &measure, QueryOptions::default())
//!     .unwrap();
//! assert_eq!(results[0].entity, EntityId(1));
//! assert_eq!(stats.steps, 1);
//! assert!(stats.nodes_visited + stats.subtrees_pruned >= 1);
//! ```

use crate::error::{IndexError, Result};
use crate::kernel::NodeArena;
use crate::query::{Query, QueryOptions, TopKResult};
use crate::signature::{HierarchicalHasher, SeededHashFamily};
use crate::snapshot::IndexSnapshot;
use crate::stats::QueryStats;
use crate::tree::{NodeId, ROOT};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;
use trace_model::{AssociationMeasure, CellSetSequence, EntityId, Level, LevelOverlap, SpIndex};

/// What leaf evaluation asks of the data: the association degree between the
/// query a source was built for and one candidate entity.
///
/// A source is constructed per query (it holds the query's resolved view and
/// its own scratch and counters) and serves one search.
pub(crate) trait TraceSource {
    /// The degree between the source's query and `entity`'s trace.  A leaf
    /// entity is always a member of the source's arena: publish keeps the
    /// tree and the arena in step, and a reopened snapshot's tree entities
    /// are checked against its stored sequences.
    ///
    /// Must return **bitwise** the value `measure.degree(query, sequence)`
    /// yields for the entity's ST-cell set sequence — the engine's exactness
    /// and tie-completeness guarantees ride on that.
    fn degree(&self, entity: EntityId, measure: &dyn AssociationMeasure) -> f64;
}

/// An `f64` wrapper with a total order, used as a heap priority.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub(crate) f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A bounded top-k accumulator: the *single* place where "keep the k best
/// (degree, entity) pairs" is implemented.
///
/// The tree search's leaf evaluation, the flat arena scan behind the
/// brute-force ground truth and the approximate candidate scorer
/// ([`crate::approximate`]) all push through this type, so their tie-breaking
/// and result ordering cannot drift apart.
///
/// Semantics: candidates are ranked under the total order *(degree
/// descending, entity id ascending)*, and the accumulator keeps the exact
/// top-`k` under that order — an offer displaces the current worst answer
/// whenever it ranks strictly higher, including an equal-degree offer with a
/// smaller entity id.  Because the order is total, the kept set does not
/// depend on the order in which candidates are offered, and it equals what
/// sorting all candidates and truncating to `k` would produce.
/// [`TopKHeap::into_sorted`] returns the answers in that same order.
///
/// Combined with the search's strict (tie-complete) pruning, this pins the
/// k-th-degree tie-breaking of **every** exact path in the crate: equal-degree
/// candidates are kept by ascending entity id, with no remaining freedom.
#[derive(Debug, Clone)]
pub struct TopKHeap {
    k: usize,
    /// Min-heap under the ranking order: the root is the worst kept answer —
    /// smallest degree, largest entity id among equal degrees (hence the
    /// inner `Reverse` on the id).
    heap: BinaryHeap<std::cmp::Reverse<(OrdF64, std::cmp::Reverse<EntityId>)>>,
}

impl TopKHeap {
    /// Creates an accumulator for the best `k` answers.
    pub fn new(k: usize) -> Self {
        TopKHeap { k, heap: BinaryHeap::with_capacity(k.saturating_add(1)) }
    }

    /// The current k-th best degree, or `-inf` while fewer than `k` answers
    /// are held (any candidate can still enter).
    pub(crate) fn threshold(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::NEG_INFINITY
        } else {
            self.heap.peek().map(|r| r.0 .0 .0).unwrap_or(f64::NEG_INFINITY)
        }
    }

    /// True when `k` answers are held and a candidate bounded by `bound`
    /// cannot change the answer set — the early-termination test of
    /// Section 5.1, **strict** so that boundary ties stay pinned: a candidate
    /// *tying* the k-th degree could still displace the current k-th answer
    /// through the entity-id tie-break, so only `threshold > bound`
    /// saturates.
    pub(crate) fn is_saturated_against(&self, bound: f64) -> bool {
        self.k > 0 && self.heap.len() >= self.k && self.threshold() > bound
    }

    /// Offers one scored entity.
    pub fn offer(&mut self, entity: EntityId, degree: f64) {
        if self.k == 0 {
            return;
        }
        let ranked = (OrdF64(degree), std::cmp::Reverse(entity));
        if self.heap.len() < self.k {
            self.heap.push(std::cmp::Reverse(ranked));
        } else {
            let mut worst = self.heap.peek_mut().expect("k > 0 answers are held");
            if ranked > worst.0 {
                *worst = std::cmp::Reverse(ranked);
            }
        }
    }

    /// Consumes the accumulator, returning answers sorted by descending degree
    /// (ties by ascending entity id).
    pub fn into_sorted(self) -> Vec<TopKResult> {
        let mut results: Vec<TopKResult> = self
            .heap
            .into_iter()
            .map(|std::cmp::Reverse((OrdF64(degree), std::cmp::Reverse(entity)))| TopKResult {
                entity,
                degree,
            })
            .collect();
        results.sort_by(|a, b| b.degree.total_cmp(&a.degree).then(a.entity.cmp(&b.entity)));
        results
    }
}

/// Merges independently computed exact top-k result lists into one global
/// top-k under the engine's ranking order *(degree descending, entity id
/// ascending)*.
///
/// Sound whenever the parts cover disjoint candidate sets that together form
/// the whole population — the situation of [`crate::shard`], where every part
/// is one shard's exact scan: the union of per-shard top-k sets is a
/// superset of the global top-k, so re-selecting through the shared
/// [`TopKHeap`] reproduces exactly — bitwise, ties included — what a single
/// unsharded index (or a brute-force sort-and-truncate) returns.
pub fn merge_top_k<I>(k: usize, parts: I) -> Vec<TopKResult>
where
    I: IntoIterator<Item = Vec<TopKResult>>,
{
    let mut top = TopKHeap::new(k);
    for part in parts {
        for result in part {
            top.offer(result.entity, result.degree);
        }
    }
    top.into_sorted()
}

/// A candidate subtree in the best-first queue: 16 bytes, so a heap sift
/// moves two words per level and the per-level caps never travel with it.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    upper_bound: OrdF64,
    node: NodeId,
    /// The node's per-level overlap caps, as a [`CapsSlab`] slot;
    /// [`NO_CAPS`] for childless nodes, which never expand.
    caps: u32,
}

/// The [`Candidate::caps`] of a node that stores none.
const NO_CAPS: u32 = u32::MAX;

/// Per-level overlap caps (index 0 = level 1) of the frontier's inner nodes:
/// fixed-width slots in one vector, handed out on push and recycled on pop,
/// so the slab stops growing once the frontier reaches its widest point.
#[derive(Debug)]
struct CapsSlab {
    width: usize,
    caps: Vec<usize>,
    free: Vec<u32>,
}

impl CapsSlab {
    fn new(width: usize) -> Self {
        CapsSlab { width, caps: Vec::new(), free: Vec::new() }
    }

    /// Copies `caps` into a free (or new) slot and returns it.
    fn store(&mut self, caps: &[usize]) -> u32 {
        debug_assert_eq!(caps.len(), self.width);
        match self.free.pop() {
            Some(slot) => {
                let at = slot as usize * self.width;
                self.caps[at..at + self.width].copy_from_slice(caps);
                slot
            }
            None => {
                let slot = (self.caps.len() / self.width.max(1)) as u32;
                debug_assert_ne!(slot, NO_CAPS);
                self.caps.extend_from_slice(caps);
                slot
            }
        }
    }

    /// Moves a slot's caps into `out` and recycles the slot.
    fn take(&mut self, slot: u32, out: &mut Vec<usize>) {
        let at = slot as usize * self.width;
        out.clear();
        out.extend_from_slice(&self.caps[at..at + self.width]);
        self.free.push(slot);
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.upper_bound == other.upper_bound && self.node == other.node
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.upper_bound.cmp(&other.upper_bound).then_with(|| other.node.cmp(&self.node))
    }
}

/// Lazily computed, sorted hash values of the query's cells per (level,
/// function): a dense `[level][u]` table, so a lookup is one index.
struct QueryHashes<'a> {
    sp: &'a SpIndex,
    hasher: &'a HierarchicalHasher<SeededHashFamily>,
    query: &'a CellSetSequence,
    /// Number of hash functions — the row length of `table`.
    width: usize,
    /// `table[(level - 1) * width + u]`; `None` until first asked for.
    table: Vec<Option<Vec<u64>>>,
}

impl<'a> QueryHashes<'a> {
    fn new(
        sp: &'a SpIndex,
        hasher: &'a HierarchicalHasher<SeededHashFamily>,
        query: &'a CellSetSequence,
    ) -> Self {
        let width = hasher.num_functions() as usize;
        let table = vec![None; query.num_levels() * width];
        QueryHashes { sp, hasher, query, width, table }
    }

    /// Number of query level-`level` cells whose hash under function `u` is at
    /// least `value` (i.e. cells that *survive* the pruned set of a node with
    /// routing index `u` and stored value `value`).
    fn surviving(&mut self, level: Level, u: u32, value: u64) -> usize {
        assert!((u as usize) < self.width, "routing index {u} is not a hash function");
        let (sp, hasher, query) = (self.sp, self.hasher, self.query);
        let hashes =
            self.table[(level - 1) as usize * self.width + u as usize].get_or_insert_with(|| {
                let mut v: Vec<u64> =
                    query.level(level).iter().map(|cell| hasher.hash(sp, u, cell)).collect();
                v.sort_unstable();
                v
            });
        let below = hashes.partition_point(|&h| h < value);
        hashes.len() - below
    }
}

/// The best-first top-k search of Algorithm 2: construction seeds the
/// frontier with the tree root, [`run`](Executor::run) pops it to
/// completion.
///
/// The search is exact for every measure satisfying the Section 3.2 axioms
/// and **tie-complete** (see the [module docs](crate::engine)): it returns
/// bitwise exactly the brute-force sort-and-truncate answer over the same
/// source.  Given identical inputs the result is bit-for-bit deterministic
/// (only the wall-clock fields of [`QueryStats`] vary), which is what lets
/// the parallel drivers promise sequential-equivalent output.
struct Executor<'a, S, M>
where
    S: TraceSource + ?Sized,
    M: AssociationMeasure + ?Sized,
{
    tree: &'a NodeArena,
    exclude: Option<EntityId>,
    measure: &'a M,
    /// Borrowed, so the caller can drain its counters after the search.
    source: &'a S,
    options: QueryOptions,
    query_sizes: Vec<usize>,
    hashes: QueryHashes<'a>,
    top: TopKHeap,
    queue: BinaryHeap<Candidate>,
    caps: CapsSlab,
    /// The popped node's caps while its children are pushed.
    parent_caps: Vec<usize>,
    /// The caps of the child being bounded.
    child_caps: Vec<usize>,
    /// Scratch of [`AssociationMeasure::upper_bound_into`].
    bound_scratch: LevelOverlap,
    stats: QueryStats,
    started: Instant,
}

impl<'a, S, M> Executor<'a, S, M>
where
    S: TraceSource + ?Sized,
    M: AssociationMeasure + ?Sized,
{
    /// Creates a search over `snapshot`'s tree — expanded through its flat
    /// [`NodeArena`] rows — with the frontier seeded at the root; the
    /// arguments are [`execute`]'s.
    fn new(
        snapshot: &'a IndexSnapshot,
        sequence: &'a CellSetSequence,
        exclude: Option<EntityId>,
        query: &Query<'a, M>,
        options: QueryOptions,
        source: &'a S,
    ) -> Result<Self> {
        let tree = snapshot.node_arena();
        let Query { k, measure, .. } = *query;
        if sequence.num_levels() != tree.levels() as usize {
            return Err(IndexError::LevelMismatch {
                index_levels: tree.levels(),
                query_levels: sequence.num_levels() as u8,
            });
        }
        let m = tree.levels();
        let query_sizes: Vec<usize> = (1..=m).map(|l| sequence.level(l).len()).collect();
        let stats = QueryStats { total_entities: tree.num_entities(), k, ..QueryStats::default() };

        let mut queue = BinaryHeap::new();
        let mut caps = CapsSlab::new(query_sizes.len());
        let mut bound_scratch = LevelOverlap::default();
        // A k = 0 query has an empty answer by definition; seed nothing.
        if k > 0 {
            let root_bound =
                measure.upper_bound_into(&query_sizes, &query_sizes, &mut bound_scratch);
            queue.push(Candidate {
                upper_bound: OrdF64(root_bound),
                node: ROOT,
                caps: caps.store(&query_sizes),
            });
        }
        Ok(Executor {
            tree,
            exclude,
            measure,
            source,
            options,
            query_sizes,
            hashes: QueryHashes::new(snapshot.sp_index(), snapshot.hasher(), sequence),
            top: TopKHeap::new(k),
            queue,
            caps,
            parent_caps: Vec::with_capacity(m as usize),
            child_caps: Vec::with_capacity(m as usize),
            bound_scratch,
            stats,
            started: Instant::now(),
        })
    }

    /// Pops the frontier in descending bound order until it is empty or its
    /// best bound is strictly below the k-th-best threshold, returning the
    /// sorted answers and the work counters (with the wall-clock time since
    /// construction).
    fn run(mut self) -> (Vec<TopKResult>, QueryStats) {
        // The whole search is one step; a k = 0 query seeded nothing.
        self.stats.steps = usize::from(!self.queue.is_empty());
        while let Some(candidate) = self.queue.pop() {
            // Strict, keeping boundary ties alive (tie-complete pruning).
            if self.top.is_saturated_against(candidate.upper_bound.0) {
                // The frontier is popped in descending bound order: nothing
                // left can reach the threshold either.
                self.stats.subtrees_pruned += 1 + self.queue.len();
                break;
            }
            self.stats.nodes_visited += 1;
            self.visit(candidate);
        }
        self.stats.query_time_us = self.started.elapsed().as_micros() as u64;
        (self.top.into_sorted(), self.stats)
    }

    /// Expands an internal node's children into the frontier, or evaluates a
    /// leaf's entities through the source.
    fn visit(&mut self, candidate: Candidate) {
        let tree = self.tree;
        let m = tree.levels();
        let children = tree.children(candidate.node);

        if children.is_empty() {
            // A childless row — a leaf, or a one-entity subtree the arena
            // folded: evaluate every contained entity exactly, reading the
            // entity list from the arena's contiguous CSR span.
            self.stats.leaves_visited += 1;
            for &entity in tree.leaf_entities(candidate.node) {
                if Some(entity) == self.exclude {
                    continue;
                }
                let degree = self.source.degree(entity, &self.measure);
                self.stats.entities_checked += 1;
                self.top.offer(entity, degree);
            }
            return;
        }

        // Internal node (or root): push its children with tightened bounds.
        // The child rows (depth / routing index / routing value) are strided
        // reads from the arena's SoA vectors; the node's own caps leave the
        // slab first, so its slot is the first one a child reuses.
        self.caps.take(candidate.caps, &mut self.parent_caps);
        let inherited =
            if self.options.accumulate_down_branch { &self.parent_caps } else { &self.query_sizes };
        let base_idx = (m - 1) as usize;
        for &child_id in children {
            let child_depth = tree.depth(child_id);
            let routing_index = tree.routing_index(child_id);
            let routing_value = tree.routing_value(child_id);
            let caps = &mut self.child_caps;
            caps.clear();
            caps.extend_from_slice(inherited);
            let depth_idx = (child_depth - 1) as usize;
            if self.options.use_level_constraints {
                let surviving = self.hashes.surviving(child_depth, routing_index, routing_value);
                caps[depth_idx] = caps[depth_idx].min(surviving);
            }
            // Theorem-2 constraint over base cells (the "partial pruned set").
            let surviving_base = self.hashes.surviving(m, routing_index, routing_value);
            caps[base_idx] = caps[base_idx].min(surviving_base);

            let ub =
                self.measure.upper_bound_into(&self.query_sizes, caps, &mut self.bound_scratch);
            // A subtree whose bound cannot beat the current threshold can
            // still be pushed; it will be discarded by the pruning check when
            // popped (and counted in `subtrees_pruned`).  A childless child
            // is evaluated, never expanded: nothing would read its caps.
            let slot =
                if tree.children(child_id).is_empty() { NO_CAPS } else { self.caps.store(caps) };
            self.queue.push(Candidate { upper_bound: OrdF64(ub), node: child_id, caps: slot });
        }
    }
}

/// The best-first top-k search of Algorithm 2 over an arbitrary
/// [`TraceSource`], run to completion — what every single-tree query path
/// runs.
///
/// `sequence` is what is searched for and `exclude` removes the query entity
/// itself from the answer set; of `query` the search reads `k` and
/// `measure`, and `options` are its pruning ablations.  Leaves are evaluated
/// through `source`.  Fails with [`IndexError::LevelMismatch`] when the
/// sequence does not have the tree's level count.
///
/// The function is exact and tie-complete: it returns bitwise the same result
/// as a brute-force sort-and-truncate over the same source (see the
/// [module docs](crate::engine)).
pub(crate) fn execute<S, M>(
    snapshot: &IndexSnapshot,
    sequence: &CellSetSequence,
    exclude: Option<EntityId>,
    query: &Query<'_, M>,
    options: QueryOptions,
    source: &S,
) -> Result<(Vec<TopKResult>, QueryStats)>
where
    S: TraceSource + ?Sized,
    M: AssociationMeasure + ?Sized,
{
    Ok(Executor::new(snapshot, sequence, exclude, query, options, source)?.run())
}

/// The owned-path reference scan the arena scan's unit tests compare against:
/// scores an explicit candidate set through [`AssociationMeasure::degree`]
/// (all levels, no fused kernel) and the shared [`TopKHeap`].  Returns the
/// sorted top-k and the number of entities scored.
#[cfg(test)]
pub(crate) fn scan_top_k<'a, M, I>(
    candidates: I,
    query: &CellSetSequence,
    exclude: Option<EntityId>,
    k: usize,
    measure: &M,
) -> (Vec<TopKResult>, usize)
where
    M: AssociationMeasure + ?Sized,
    I: IntoIterator<Item = (EntityId, &'a CellSetSequence)>,
{
    let mut top = TopKHeap::new(k);
    let mut checked = 0usize;
    for (entity, seq) in candidates {
        if Some(entity) == exclude {
            continue;
        }
        checked += 1;
        top.offer(entity, measure.degree(query, seq));
    }
    (top.into_sorted(), checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordf64_orders_like_floats_and_handles_nan() {
        let mut v = [OrdF64(0.5), OrdF64(-1.0), OrdF64(2.0), OrdF64(f64::NAN)];
        v.sort();
        assert_eq!(v[0], OrdF64(-1.0));
        assert_eq!(v[1], OrdF64(0.5));
        assert_eq!(v[2], OrdF64(2.0));
        assert!(v[3].0.is_nan());
    }

    #[test]
    fn candidates_order_by_upper_bound() {
        let a = Candidate { upper_bound: OrdF64(0.9), node: 1, caps: NO_CAPS };
        let b = Candidate { upper_bound: OrdF64(0.3), node: 2, caps: NO_CAPS };
        let mut heap = BinaryHeap::new();
        heap.push(b);
        heap.push(a);
        assert_eq!(heap.pop().unwrap().node, 1);
        // Equal bounds pop in ascending node order, whatever slot they hold.
        heap.push(Candidate { upper_bound: OrdF64(0.3), node: 7, caps: 0 });
        heap.push(Candidate { upper_bound: OrdF64(0.3), node: 1, caps: 5 });
        let order: Vec<NodeId> = std::iter::from_fn(|| heap.pop()).map(|c| c.node).collect();
        assert_eq!(order, vec![1, 2, 7]);
        assert_eq!(std::mem::size_of::<Candidate>(), 16);
    }

    #[test]
    fn caps_slab_recycles_slots() {
        let mut slab = CapsSlab::new(3);
        let a = slab.store(&[1, 2, 3]);
        let b = slab.store(&[4, 5, 6]);
        assert_ne!(a, b);
        let mut out = vec![9; 7];
        slab.take(a, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        // The freed slot is the next one handed out; the other is untouched.
        assert_eq!(slab.store(&[7, 8, 9]), a);
        assert_eq!(slab.caps.len(), 6, "no growth while a free slot exists");
        slab.take(b, &mut out);
        assert_eq!(out, vec![4, 5, 6]);
        slab.take(a, &mut out);
        assert_eq!(out, vec![7, 8, 9]);
    }

    #[test]
    fn top_k_heap_keeps_the_best_k_with_stable_ties() {
        let mut top = TopKHeap::new(2);
        assert!(top.heap.is_empty());
        assert_eq!(top.threshold(), f64::NEG_INFINITY);
        top.offer(EntityId(1), 0.5);
        top.offer(EntityId(2), 0.9);
        assert_eq!(top.heap.len(), 2);
        // An equal-degree late-comer with a larger id ranks below the
        // incumbent and is rejected.
        top.offer(EntityId(3), 0.5);
        // Strictly better degrees displace the worst answer.
        top.offer(EntityId(4), 0.7);
        let results = top.into_sorted();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].entity, EntityId(2));
        assert!((results[0].degree - 0.9).abs() < 1e-12);
        assert_eq!(results[1].entity, EntityId(4));
    }

    #[test]
    fn selection_is_independent_of_offer_order() {
        // The k-boundary is a three-way degree tie; whatever order candidates
        // arrive in, the kept set must be the sort-and-truncate answer:
        // {e9 (0.7), e1 (0.0)} — smallest id among the tied.
        let candidates = [(1u64, 0.0), (2, 0.0), (9, 0.7), (5, 0.0)];
        let mut orders = vec![candidates];
        orders.push([candidates[2], candidates[0], candidates[3], candidates[1]]);
        orders.push([candidates[3], candidates[2], candidates[1], candidates[0]]);
        for order in orders {
            let mut top = TopKHeap::new(2);
            for (entity, degree) in order {
                top.offer(EntityId(entity), degree);
            }
            let results = top.into_sorted();
            assert_eq!(results[0].entity, EntityId(9), "order {order:?}");
            assert_eq!(results[1].entity, EntityId(1), "order {order:?}");
        }
    }

    #[test]
    fn merge_top_k_equals_offering_everything_to_one_heap() {
        let offers = [(1u64, 0.3), (2, 0.9), (3, 0.9), (4, 0.1), (5, 0.5), (6, 0.5)];
        let mut all = TopKHeap::new(3);
        let mut left = TopKHeap::new(3);
        let mut right = TopKHeap::new(3);
        for (i, &(entity, degree)) in offers.iter().enumerate() {
            all.offer(EntityId(entity), degree);
            if i % 2 == 0 {
                left.offer(EntityId(entity), degree);
            } else {
                right.offer(EntityId(entity), degree);
            }
        }
        let merged = merge_top_k(3, vec![left.into_sorted(), right.into_sorted()]);
        assert_eq!(merged, all.into_sorted());
    }

    #[test]
    fn merge_top_k_equals_global_sort_and_truncate() {
        let parts = vec![
            vec![
                TopKResult { entity: EntityId(3), degree: 0.7 },
                TopKResult { entity: EntityId(9), degree: 0.2 },
            ],
            vec![],
            vec![
                TopKResult { entity: EntityId(1), degree: 0.7 },
                TopKResult { entity: EntityId(5), degree: 0.4 },
            ],
        ];
        let merged = merge_top_k(3, parts);
        // Ties resolve by ascending entity id, exactly like a single heap.
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].entity, EntityId(1));
        assert_eq!(merged[1].entity, EntityId(3));
        assert_eq!(merged[2].entity, EntityId(5));
        assert!(
            merge_top_k(0, vec![vec![TopKResult { entity: EntityId(1), degree: 1.0 }]]).is_empty()
        );
    }

    #[test]
    fn top_k_heap_with_k_zero_accepts_nothing() {
        let mut top = TopKHeap::new(0);
        top.offer(EntityId(1), 1.0);
        assert!(top.heap.is_empty());
        assert!(top.into_sorted().is_empty());
    }

    #[test]
    fn saturation_test_is_strict_at_ties() {
        let mut top = TopKHeap::new(1);
        assert!(!top.is_saturated_against(0.1), "nothing held yet");
        top.offer(EntityId(7), 0.5);
        // An equal bound may hide an equal-degree entity with a smaller id,
        // which would displace the incumbent — not saturated.
        assert!(!top.is_saturated_against(0.5), "ties must stay alive");
        assert!(top.is_saturated_against(0.4));
        assert!(!top.is_saturated_against(0.6));
    }
}
