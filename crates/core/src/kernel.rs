//! Flat hot-path data layout: the candidate arena and its fused degree kernels.
//!
//! Every exact path of the index — the tree search's leaf evaluation, flat
//! shard scans, the planner's synopsis seeding and brute force's pairwise
//! scan — bottoms out in [`AssociationMeasure::degree`] over candidate
//! traces.  With the owned representation those traces live as per-entity
//! [`CellSetSequence`]s inside a `BTreeMap`: every candidate costs a tree
//! descent plus one pointer chase per level before a single cell is compared.
//!
//! The [`CandidateArena`] takes the map off the read path, and the chase
//! off every row a keyed kernel or a length test reads.  It is a flat,
//! position-indexed structure materialised once per [`IndexSnapshot`]
//! publish:
//!
//! * `entities` — all indexed entity ids, ascending;
//! * `sequences` — per entity, a handle on the snapshot map's own
//!   [`CellSetSequence`] (an `Arc` clone: the same cells, not a copy).  A
//!   packed kernel reads the level's [`packed_slice`] where the sequence
//!   keeps it, so every cell of a snapshot exists once;
//! * `lens` — one flat table of cell counts: `lens[pos * m + i]` is the
//!   length of level `i + 1` of entity `pos`, what [`row_class`] decides by
//!   without following the handle;
//! * `keyed` — **the same rows in keyed form** ([`KeyedRow`]: one key per
//!   unit and 64-time-unit word, with a `u64` mask of the time units
//!   present), CSR-indexed by row number `pos * m + i`.  Derived from the
//!   sequences, never persisted;
//! * `postings` — **the keyed rows of levels 1 and 2 inverted**, one
//!   inverted index per level: per distinct key, ascending, the positions
//!   whose row of that level holds it (ascending, `u32`) with their masks.
//!   Derived from `keyed`, never persisted.
//!
//! It holds cell rows and nothing else: no scan reads a signature, and the
//! tree search reads its routing values from the [`NodeArena`], so the
//! signatures live only in the snapshot's map.
//!
//! Every vector is sized exactly, and `CandidateArena::resident_bytes`
//! reports capacities, not lengths — of the arena's own vectors: the cells
//! behind the handles are the snapshot's sequences' and counted there.
//!
//! On top of it, `CandidateArena::degree_into` fuses the per-level overlap
//! loop: all levels of one candidate are scored against a pre-resolved
//! [`QueryView`] — which holds the query's rows in both forms, converted once
//! per query — without re-fetching the query or touching a map.  Each
//! per-level intersection takes the form [`row_class`] picks from the four
//! row lengths: the keyed kernel when both rows are long enough and their
//! keyed forms at most half as long, else the branch-light / galloping / SIMD
//! packed kernels of [`trace_model::kernel`] (re-exported here).  Every form
//! counts the same integer.  The loop exists once (`level_overlaps`, over
//! one candidate's rows: the arena's, or — for the out-of-core session,
//! `CandidateArena::paged_overlaps` — a resident level-1 row with the finer
//! rows read from pages when first needed) and **stops intersecting at the
//! first empty level**: sequences are ancestor-closed (a
//! [`CellSetSequence`] invariant), so two entities that share no level-`l`
//! cell share no finer one either, and the remaining levels are recorded as
//! `overlap: 0` with their true sizes.  The owned path
//! ([`LevelOverlap::from_sequences`], every level always) does not stop, on
//! purpose: it is the oracle the fused loop is held bitwise equal to.
//!
//! A **flat scan** of a shard (`CandidateArena::flat_scan`, in memory and out
//! of core) intersects no level-1 or level-2 row.  Before its position loop
//! it walks the postings of the query's level-1 and level-2 keys once and
//! adds `popcount(query mask & mask)` into per-position counters in the
//! source's scratch, which leaves every member's exact `|Q₁ ∩ C₁|` and
//! `|Q₂ ∩ C₂|` (the reverse index plus counter of greyhound's `RevIndex` /
//! `SigCounter`, one level deeper).  A member sharing no level-2 cell gets
//! every finer level as `overlap: 0` with its true sizes: no intersection
//! and, out of core, no page read.  Any other member enters `level_overlaps`
//! at level 3 with both overlaps known.  The scan scores the members sharing
//! a level-1 cell first, then the others — ≈ 72 % on SYN, each of degree at
//! most the measure's zero-overlap bound — only while its own top k is not
//! strictly above that bound, so a member it skips provably cannot enter
//! the answer.  The measure receives the integers the pairwise loop hands
//! it.  Tree leaf evaluation, planner seeding and
//! `CandidateArena::scan_top_k` (brute force) keep the pairwise loop, so the
//! oracle stays independent of the postings.
//!
//! The arena is **read-path only**: the mutable index keeps its owned
//! representation as the source of truth and rebuilds the arena whenever a
//! mutation batch publishes a new snapshot — taking a handle on every
//! sequence of the new map and copying the keyed rows and cell counts of
//! every entity the batch did not touch from the arena it replaces, so only
//! the batch's keyed rows are converted, and carrying the postings over in
//! one linear pass per posted level that remaps the copied positions and
//! merges in the batch's entries, for an entity that only grew just its
//! delta's (`CandidateArena::rebuild`).
//! A lone insert takes the same rebuild.  Conformance tests pin the
//! invariant that makes this safe: arena-backed degrees are bitwise identical
//! to the owned path, because both feed the measure the exact same integer
//! overlap statistics.
//!
//! [`IndexSnapshot`]: crate::snapshot::IndexSnapshot
//! [`packed_slice`]: trace_model::CellSet::packed_slice

use crate::engine::{TopKHeap, TraceSource};
use crate::paged::RowSegment;
use crate::query::TopKResult;
use crate::signature::SignatureList;
use crate::stats::{KernelDispatch, QueryStats};
use crate::tree::{MinSigTree, Node, NodeId, ROOT};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;
use trace_model::ajpi::{LevelOverlap, LevelStat};
use trace_model::kernel::{
    keyed_overlap, push_keyed, push_keyed_union, push_packed, row_class, KeyedRow,
};
use trace_model::{AssociationMeasure, CellSetSequence, EntityId, Level};
use trace_storage::PoolStats;

pub use trace_model::kernel::{
    argmax, dispatch_class, intersection_len, intersection_len_gallop, intersection_len_merge,
    intersection_len_simd, merge_min, merge_min_scalar, KernelClass, GALLOP_SKEW, SIMD_LANES,
    TINY_LEN,
};

/// Cell rows in keyed form ([`KeyedRow`]), CSR: row `r` is
/// `keys[offsets[r]..offsets[r + 1]]` with the masks at the same indices.
/// Always `rows + 1` offsets, `offsets[0] == 0` (bar the empty default).
#[derive(Debug, Clone, Default)]
struct KeyedRows {
    offsets: Vec<usize>,
    keys: Vec<u64>,
    masks: Vec<u64>,
}

impl KeyedRows {
    /// No rows, room for `rows` rows of `keys` keys in all.
    fn with_capacity(rows: usize, keys: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        KeyedRows { offsets, keys: Vec::with_capacity(keys), masks: Vec::with_capacity(keys) }
    }

    /// Appends the keyed form of one packed row.
    fn push(&mut self, packed: &[u64]) {
        push_keyed(packed, &mut self.keys, &mut self.masks);
        self.offsets.push(self.keys.len());
    }

    /// Appends the union of two keyed rows as one row.
    fn push_union(&mut self, a: KeyedRow<'_>, b: KeyedRow<'_>) {
        push_keyed_union(a, b, &mut self.keys, &mut self.masks);
        self.offsets.push(self.keys.len());
    }

    /// Appends `from`'s consecutive `rows`, offsets rebased.
    fn extend_from(&mut self, from: &KeyedRows, rows: Range<usize>) {
        let (span, base) = (from.offsets[rows.start]..from.offsets[rows.end], self.keys.len());
        self.keys.extend_from_slice(&from.keys[span.clone()]);
        self.masks.extend_from_slice(&from.masks[span.clone()]);
        let ends = &from.offsets[rows.start + 1..=rows.end];
        self.offsets.extend(ends.iter().map(|&end| end - span.start + base));
    }

    /// Row `r`'s keys and masks.
    #[inline]
    fn parts(&self, r: usize) -> (&[u64], &[u64]) {
        let span = self.offsets[r]..self.offsets[r + 1];
        (&self.keys[span.clone()], &self.masks[span])
    }

    /// Row `r`.
    #[inline]
    fn row(&self, r: usize) -> KeyedRow<'_> {
        let (keys, masks) = self.parts(r);
        KeyedRow::new(keys, masks)
    }

    /// Keys in rows `rows`.
    fn keys_in(&self, rows: Range<usize>) -> usize {
        self.offsets[rows.end] - self.offsets[rows.start]
    }

    /// Heap bytes held: every vector's capacity.
    fn resident_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + (self.keys.capacity() + self.masks.capacity()) * std::mem::size_of::<u64>()
    }
}

/// Levels whose keyed rows an arena also holds inverted ([`Postings`]): 1 and
/// 2, or fewer when the sp-index has fewer.  Each further level costs every
/// publish a carry of more entries than the last (≈ 18 / 25 / 27 / 28 k a
/// shard at levels 1–4 on SYN) for members the coarser counts already
/// mostly rule out.
pub(crate) const POSTED_LEVELS: usize = 2;

/// A flat scan's per-member counters: the exact overlap at each posted level.
pub(crate) type LevelCounts = [u32; POSTED_LEVELS];

/// One entry a publish brings into a level's [`Postings`]: a key, the new
/// arena position whose row holds it, and that row's mask under it.
type Posting = (u64, u32, u64);

/// The inverted index of one level of an arena's keyed rows: for every
/// distinct key (unit, 64-time-unit word), ascending, the arena positions
/// whose row of that level holds it, ascending, each with that row's mask
/// under the key.  A flat scan walks the entries of the query's keys once and
/// adds `popcount(query mask & mask)` per entry, which is every member's
/// exact `|Q_l ∩ C_l|` ([`CandidateArena::flat_scan`]).  Derived from the
/// keyed rows, never persisted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Postings {
    keys: Vec<u64>,
    /// `keys.len() + 1` entries (bar the empty default): key `i`'s entries
    /// are `offsets[i]..offsets[i + 1]`.
    offsets: Vec<u32>,
    positions: Vec<u32>,
    masks: Vec<u64>,
}

impl Postings {
    /// The postings of the arena a publish makes from this one's: the entries
    /// of every position `remap` maps carried over to the position it maps to
    /// (`None`: the entity's rows were dropped or converted again), united
    /// with `fresh` — sorted by key, then position — per key.  A fresh entry
    /// at the position a carried entry of its key maps to ORs its mask into
    /// that entry's (an entity that only grew keeps its entries and brings
    /// its delta's); any other goes in at its position.  Every vector is
    /// allocated for the most it can hold and trimmed to its size at the end.
    /// One pass over the entries, no sort of the carried ones: `remap` ascends
    /// where it maps, as a rebuild's plan and an insert's shift do.
    fn carry(&self, remap: impl Fn(usize) -> Option<u32>, fresh: &[Posting]) -> Postings {
        debug_assert!(fresh.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let (keys, entries) = (self.keys.len() + fresh.len(), self.positions.len() + fresh.len());
        u32::try_from(entries).expect("postings are addressable by u32");
        let mut out = Postings {
            keys: Vec::with_capacity(keys),
            offsets: Vec::with_capacity(keys + 1),
            positions: Vec::with_capacity(entries),
            masks: Vec::with_capacity(entries),
        };
        out.offsets.push(0);
        let (mut old, mut new) = (0, 0);
        loop {
            let key = match (self.keys.get(old), fresh.get(new)) {
                (Some(&a), Some(&(b, ..))) => a.min(b),
                (Some(&a), None) => a,
                (None, Some(&(b, ..))) => b,
                (None, None) => break,
            };
            let carried = if self.keys.get(old) == Some(&key) {
                old += 1;
                self.offsets[old - 1] as usize..self.offsets[old] as usize
            } else {
                0..0
            };
            let end = new + fresh[new..].iter().take_while(|&&(k, ..)| k == key).count();
            let carried = self.positions[carried.clone()].iter().zip(&self.masks[carried]);
            if new == end {
                // Most keys of a publish: nothing of the batch's under them.
                for (&pos, &mask) in carried {
                    if let Some(pos) = remap(pos as usize) {
                        out.positions.push(pos);
                        out.masks.push(mask);
                    }
                }
            } else {
                let mut added = fresh[new..end].iter().peekable();
                for (&pos, &mask) in carried {
                    let Some(pos) = remap(pos as usize) else { continue };
                    while let Some(&(_, at, mask)) = added.next_if(|&&(_, at, _)| at < pos) {
                        out.positions.push(at);
                        out.masks.push(mask);
                    }
                    let grown = added.next_if(|&&(_, at, _)| at == pos).map_or(0, |&(.., m)| m);
                    out.positions.push(pos);
                    out.masks.push(mask | grown);
                }
                for &(_, at, mask) in added {
                    out.positions.push(at);
                    out.masks.push(mask);
                }
            }
            new = end;
            if out.positions.len() > out.offsets[out.keys.len()] as usize {
                out.keys.push(key);
                out.offsets.push(out.positions.len() as u32);
            }
        }
        out.keys.shrink_to_fit();
        out.offsets.shrink_to_fit();
        out.positions.shrink_to_fit();
        out.masks.shrink_to_fit();
        out
    }

    /// Adds, for every entry under each of a query's keys of this level
    /// (`keys` ascending, `masks` parallel), `popcount(query mask & entry
    /// mask)` to counter `level` of the entry's position in `counts`.
    fn accumulate(
        &self,
        (keys, masks): (&[u64], &[u64]),
        counts: &mut [LevelCounts],
        level: usize,
    ) {
        let mut at = 0;
        for (&key, &mask) in keys.iter().zip(masks) {
            at += self.keys[at..].partition_point(|&k| k < key);
            if self.keys.get(at) != Some(&key) {
                continue;
            }
            let span = self.offsets[at] as usize..self.offsets[at + 1] as usize;
            for (&pos, &other) in self.positions[span.clone()].iter().zip(&self.masks[span]) {
                counts[pos as usize][level] += (mask & other).count_ones();
            }
        }
    }

    /// Heap bytes held: every vector's capacity.
    fn resident_bytes(&self) -> usize {
        (self.keys.capacity() + self.masks.capacity()) * std::mem::size_of::<u64>()
            + (self.offsets.capacity() + self.positions.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Appends to `fresh[l]`, for each posted level `l + 1`, the entries of the
/// entity whose level-1 row is row `first` of `rows`, at arena position `at`.
fn push_postings(rows: &KeyedRows, first: usize, at: u32, fresh: &mut [Vec<Posting>]) {
    for (level, entries) in fresh.iter_mut().enumerate() {
        let (keys, masks) = rows.parts(first + level);
        entries.extend(keys.iter().zip(masks).map(|(&key, &mask)| (key, at, mask)));
    }
}

/// Where [`CandidateArena::rebuild`] takes one part of the new arena from.
enum Rows<'m> {
    /// Consecutive positions of the previous arena, copied as one span.
    Carried(Range<usize>),
    /// An entity read from the maps, its keyed rows converted.
    Fresh(&'m CellSetSequence),
    /// An entity read from the maps whose keyed rows are its previous ones
    /// (at that position) united with the keyed form of a delta.
    Grown(&'m CellSetSequence, usize, &'m CellSetSequence),
}

/// The flat candidate arena of one index snapshot (see the [module
/// docs](self)).
///
/// Entities are stored in ascending id order, so `position` is a binary
/// search and a full scan visits candidates in the same order as the owned
/// `BTreeMap` — which keeps `entities_checked` counters and tie handling
/// identical between the two paths.
///
/// Every vector is allocated at its exact final size (`rebuild` converts the
/// batch's keyed rows first, and their key counts size the rest), so
/// `resident_bytes` — which sums capacities — is what the allocator really
/// holds for the arena.
#[derive(Debug, Clone, Default)]
pub struct CandidateArena {
    entities: Vec<EntityId>,
    /// `m`, the sp-index height: rows per entity.
    num_levels: usize,
    /// Per entity, the snapshot map's own sequence (an `Arc` clone): a packed
    /// kernel reads its rows in place, so the arena copies no cell.
    sequences: Vec<CellSetSequence>,
    /// `lens[pos * m + i]` is the cell count of level `i + 1` of entity `pos`.
    /// Kept although `sequences` knows them: a scan reads the row lengths of
    /// every member it scores, and reading them through the handles instead
    /// (two pointer hops a row) measured `durable_rw`'s `query_p50_us`
    /// 446 → 573 µs over 5 run pairs on 2 vCPUs; from this table it is
    /// unchanged.
    lens: Vec<u32>,
    /// The rows in keyed form, row `pos * m + i` = level `i + 1` of entity
    /// `pos`: what the degree loop intersects when [`row_class`] says keyed.
    /// Derived from `sequences`, never persisted.
    keyed: KeyedRows,
    /// The keyed rows of levels 1..=min(m, [`POSTED_LEVELS`]) inverted, one
    /// [`Postings`] per level: per key, the positions holding it with their
    /// masks — what a flat scan reads every member's overlap at those levels
    /// from.  Derived from `keyed`, never persisted.
    postings: Vec<Postings>,
}

impl CandidateArena {
    /// Materialises the arena from the sequences; `num_levels` is the
    /// sp-index height.
    ///
    /// The arena holds no signatures, so `_sig_width` and `_signatures` are
    /// not read.  They stay in the parameter list because the benchmark's
    /// layer replay (`e2e/src/layers.rs`) calls `build` with them.
    pub fn build(
        num_levels: Level,
        _sig_width: usize,
        sequences: &BTreeMap<EntityId, CellSetSequence>,
        _signatures: &BTreeMap<EntityId, SignatureList>,
    ) -> Self {
        CandidateArena::default().rebuild(num_levels, sequences, &[])
    }

    /// [`build`](Self::build) over `sequences`, reusing this arena for every
    /// entity it holds that `changed` (ascending ids, each with the delta it
    /// grew by, if that is all that happened to it) does not list: a handle
    /// on every sequence of `sequences` is taken, and runs of unlisted
    /// entities have their keyed rows and cell counts copied span by span.
    /// Only the listed entities and the ones new to the map have their keyed
    /// rows converted by [`push_keyed`] — from the delta alone, united with
    /// the previous rows, for an entity that only grew — so a publish
    /// converts what its batch brought, not the traces it touched, and
    /// copies the rest in a few `memcpy`s.  The postings of levels 1 and 2
    /// follow the same plan in one linear pass each: carried positions
    /// remapped, a grown entity's entries kept with its delta's united in,
    /// the other listed entities' entries dropped and their converted rows'
    /// entries merged in (`Postings::carry`).  The result equals a fresh
    /// build whenever the unlisted entities' sequences are the ones this
    /// arena was built from and every listed delta is what its entity's rows
    /// grew by; its handles are always `sequences`' own.
    pub(crate) fn rebuild<'m>(
        &self,
        num_levels: Level,
        sequences: &'m BTreeMap<EntityId, CellSetSequence>,
        changed: &'m [(EntityId, Option<CellSetSequence>)],
    ) -> Self {
        debug_assert!(changed.windows(2).all(|w| w[0].0 < w[1].0), "changed ids ascend");
        let (n, m) = (sequences.len(), num_levels as usize);
        debug_assert!(self.is_empty() || self.num_levels() == m);
        u32::try_from(n).expect("arena positions are addressable by u32");
        let plan = self.plan_rebuild(sequences, changed);
        // Convert first: the new key counts size the keyed rows exactly.
        let (mut rows, mut bound) = (0, 0);
        for part in &plan {
            (rows, bound) = match *part {
                Rows::Carried(_) => (rows, bound),
                Rows::Fresh(seq) => (rows + m, bound + seq.total_cells()),
                Rows::Grown(_, pos, delta) => {
                    let grown = self.keyed.keys_in(pos * m..(pos + 1) * m) + delta.total_cells();
                    (rows + m, bound + grown)
                }
            };
        }
        let mut converted = KeyedRows::with_capacity(rows, bound);
        // The deltas' keyed rows, `m` per grown entity in plan order.
        let mut deltas = KeyedRows::with_capacity(0, 0);
        let mut keys = 0;
        for part in &plan {
            match *part {
                Rows::Carried(ref run) => keys += self.keyed.keys_in(run.start * m..run.end * m),
                Rows::Fresh(seq) => {
                    for (_, set) in seq.iter_levels() {
                        converted.push(set.packed_slice());
                    }
                }
                Rows::Grown(_, pos, delta) => {
                    let first = deltas.offsets.len() - 1;
                    for (_, set) in delta.iter_levels() {
                        deltas.push(set.packed_slice());
                    }
                    for i in 0..m {
                        converted.push_union(self.keyed.row(pos * m + i), deltas.row(first + i));
                    }
                }
            }
        }
        let mut arena = CandidateArena {
            entities: Vec::with_capacity(n),
            num_levels: m,
            sequences: Vec::with_capacity(n),
            lens: Vec::with_capacity(n * m),
            keyed: KeyedRows::with_capacity(n * m, keys + converted.keys.len()),
            postings: Vec::new(),
        };
        for (&entity, seq) in sequences {
            arena.entities.push(entity);
            arena.sequences.push(seq.clone());
        }
        // The postings follow the plan: a carried position moves to where
        // its run lands, and so does a grown entity's, taking its delta's
        // keys in as fresh entries; any other converted entity's keys of the
        // posted levels are fresh entries.
        let mut remap = vec![None; self.len()];
        let mut fresh: Vec<Vec<Posting>> = vec![Vec::new(); m.min(POSTED_LEVELS)];
        let (mut at, mut next_converted, mut next_grown) = (0u32, 0, 0);
        for part in plan {
            match part {
                Rows::Carried(run) => {
                    for (old, new) in run.clone().zip(at..) {
                        remap[old] = Some(new);
                    }
                    at += run.len() as u32;
                    let rows = run.start * m..run.end * m;
                    arena.lens.extend_from_slice(&self.lens[rows.clone()]);
                    arena.keyed.extend_from(&self.keyed, rows);
                }
                Rows::Fresh(seq) | Rows::Grown(seq, ..) => {
                    debug_assert_eq!(seq.num_levels(), m);
                    let lens = seq.iter_levels().map(|(_, set)| set.len());
                    arena.lens.extend(lens.map(|len| u32::try_from(len).expect("rows fit u32")));
                    let rows = next_converted * m..(next_converted + 1) * m;
                    if let Rows::Grown(_, pos, _) = part {
                        remap[pos] = Some(at);
                        push_postings(&deltas, next_grown * m, at, &mut fresh);
                        next_grown += 1;
                    } else {
                        push_postings(&converted, rows.start, at, &mut fresh);
                    }
                    arena.keyed.extend_from(&converted, rows);
                    next_converted += 1;
                    at += 1;
                }
            }
        }
        arena.postings = self.carry_postings(|old| remap[old], fresh);
        arena
    }

    /// The postings of the arena a publish makes from this one's, level by
    /// level ([`Postings::carry`]): `remap` moves this arena's positions,
    /// `fresh` holds each posted level's new entries, in any order.  An arena
    /// with no postings yet (the empty default) carries from empty ones.
    fn carry_postings(
        &self,
        remap: impl Fn(usize) -> Option<u32> + Copy,
        fresh: Vec<Vec<Posting>>,
    ) -> Vec<Postings> {
        let empty = Postings::default();
        let mut levels = Vec::with_capacity(fresh.len());
        for (level, mut fresh) in fresh.into_iter().enumerate() {
            fresh.sort_unstable_by_key(|&(key, at, _)| (key, at));
            levels.push(self.postings.get(level).unwrap_or(&empty).carry(remap, &fresh));
        }
        levels
    }

    /// Where [`rebuild`](Self::rebuild) takes each entity of `sequences`
    /// from, in id order: runs of consecutive positions of this arena, the
    /// listed entities that only grew, and the other listed entities and the
    /// ones this arena lacks.  All three id lists ascend, so one walk over
    /// each.
    fn plan_rebuild<'m>(
        &self,
        sequences: &'m BTreeMap<EntityId, CellSetSequence>,
        changed: &'m [(EntityId, Option<CellSetSequence>)],
    ) -> Vec<Rows<'m>> {
        let mut plan: Vec<Rows<'m>> = Vec::new();
        let (mut held, mut listed) = (self.entities.iter().enumerate().peekable(), changed.iter());
        let mut next_listed = listed.next();
        for (&entity, seq) in sequences {
            while next_listed.is_some_and(|(e, _)| *e < entity) {
                next_listed = listed.next();
            }
            while held.next_if(|&(_, &e)| e < entity).is_some() {}
            let pos = held.peek().filter(|&&(_, &e)| e == entity).map(|&(pos, _)| pos);
            let change = next_listed.filter(|(e, _)| *e == entity).map(|(_, delta)| delta);
            match (pos, change) {
                (Some(pos), None) => match plan.last_mut() {
                    Some(Rows::Carried(run)) if run.end == pos => run.end += 1,
                    _ => plan.push(Rows::Carried(pos..pos + 1)),
                },
                (Some(pos), Some(Some(delta))) => plan.push(Rows::Grown(seq, pos, delta)),
                _ => plan.push(Rows::Fresh(seq)),
            }
        }
        plan
    }

    /// Number of entities in the arena.
    #[inline]
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True when the arena holds no entities.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// All entity ids, ascending.
    #[inline]
    pub fn entities(&self) -> &[EntityId] {
        &self.entities
    }

    /// Number of levels (the sp-index height).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// The arena row of an entity, or `None` when it is not indexed.
    #[inline]
    pub fn position(&self, entity: EntityId) -> Option<usize> {
        self.entities.binary_search(&entity).ok()
    }

    /// The packed level-`level` cells of the entity at `pos` (1-based level):
    /// the slice its sequence holds, not a copy.
    #[inline]
    pub fn level_cells(&self, level: Level, pos: usize) -> &[u64] {
        self.sequences[pos].level(level).packed_slice()
    }

    /// Resident heap footprint of the arena in bytes: the capacity of every
    /// vector, i.e. what the allocator holds for it.  The cells the handles
    /// point at are the snapshot's sequences' and not counted here.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.sequences.capacity() * std::mem::size_of::<CellSetSequence>()
            + self.lens.capacity() * std::mem::size_of::<u32>()
            + self.keyed.resident_bytes()
            + self.postings.iter().map(Postings::resident_bytes).sum::<usize>()
            + self.postings.capacity() * std::mem::size_of::<Postings>()
            + self.entities.capacity() * std::mem::size_of::<EntityId>()
    }

    /// Fused per-level degree of the candidate at `pos` against a query view,
    /// reusing `scratch` for the overlap statistics (allocation-free after
    /// the first call).
    ///
    /// Bitwise identical to `measure.degree(query, seq)` over the owned
    /// sequence: both paths hand the measure the exact same integer
    /// [`LevelStat`]s, and the float computation downstream is shared.
    pub(crate) fn degree_into<M: AssociationMeasure + ?Sized>(
        &self,
        pos: usize,
        view: &QueryView<'_>,
        measure: &M,
        scratch: &mut LevelOverlap,
    ) -> f64 {
        self.overlaps_into(pos, view, &[], scratch, None);
        measure.degree_from_overlap(scratch)
    }

    /// [`level_overlaps`] of the candidate at `pos`, past the levels whose
    /// overlaps are `known`.
    #[inline]
    fn overlaps_into(
        &self,
        pos: usize,
        view: &QueryView<'_>,
        known: &[usize],
        scratch: &mut LevelOverlap,
        dispatch: Option<&mut KernelDispatch>,
    ) {
        debug_assert_eq!(view.num_levels(), self.num_levels());
        level_overlaps(view, &mut self.rows(pos), known, scratch, dispatch);
    }

    /// Every row of the entity at `pos`, as [`level_overlaps`] reads them.
    #[inline]
    fn rows(&self, pos: usize) -> ArenaRows<'_> {
        let first = pos * self.num_levels();
        ArenaRows {
            sequence: &self.sequences[pos],
            lens: &self.lens[first..first + self.num_levels()],
            keyed: &self.keyed,
            first,
        }
    }

    /// Words the keyed rows of levels 2..m of the entity at `pos` take in the
    /// form [`push_finer_rows`](Self::push_finer_rows) writes: a key and a
    /// mask per key.
    pub(crate) fn finer_words(&self, pos: usize) -> usize {
        let m = self.num_levels();
        2 * self.keyed.keys_in(pos * m + 1..(pos + 1) * m)
    }

    /// Appends the keyed rows of levels 2..m of the entity at `pos` to
    /// `out`, level by level, each as its keys then its masks — copied, not
    /// converted: what an out-of-core session keeps on pages and
    /// [`paged_overlaps`](Self::paged_overlaps) reads back.
    pub(crate) fn push_finer_rows(&self, pos: usize, out: &mut Vec<u64>) {
        let m = self.num_levels();
        for r in pos * m + 1..(pos + 1) * m {
            let (keys, masks) = self.keyed.parts(r);
            out.extend_from_slice(keys);
            out.extend_from_slice(masks);
        }
    }

    /// [`level_overlaps`] of the candidate at `pos` with only its level-1
    /// row and the lengths of its rows taken from the arena — and the
    /// overlaps a flat scan's postings counted (`known`, levels 1 and 2):
    /// its finer rows are what `read` appends to the vector it is handed —
    /// [`finer_words`](Self::finer_words) words, in the form
    /// [`push_finer_rows`](Self::push_finer_rows) writes.  `read` runs only
    /// when a level past the first is intersected: never for a candidate
    /// that shares no level-1 cell with the query, and, given both posted
    /// overlaps, never for one that shares no level-2 cell.  Where [`row_class`]
    /// picks the packed kernel for a finer row, the row is rebuilt from its
    /// keyed form ([`push_packed`]) in `scratch`, which also receives the
    /// statistics ([`RowScratch::overlap`]).  Everything else — the loop, the
    /// class of every intersection, the integers handed on — is
    /// [`overlaps_into`](Self::overlaps_into)'s.  Returns whether `read` ran.
    pub(crate) fn paged_overlaps(
        &self,
        pos: usize,
        view: &QueryView<'_>,
        known: &[usize],
        read: impl FnOnce(&mut Vec<u64>),
        scratch: &mut RowScratch,
        dispatch: Option<&mut KernelDispatch>,
    ) -> bool {
        let RowScratch { words, rebuilt, overlap } = scratch;
        let mut rows = PagedRows { resident: self.rows(pos), read: Some(read), words, rebuilt };
        level_overlaps(view, &mut rows, known, overlap, dispatch);
        rows.read.is_none()
    }

    /// One-shot variant of `degree_into` that owns its
    /// scratch; convenient for isolated lookups.
    pub fn degree_at<M: AssociationMeasure + ?Sized>(
        &self,
        pos: usize,
        view: &QueryView<'_>,
        measure: &M,
    ) -> f64 {
        let mut scratch = LevelOverlap::default();
        self.degree_into(pos, view, measure, &mut scratch)
    }

    /// Exact top-k over the whole arena, pair by pair — brute force's scan:
    /// every member through the per-candidate loop, level 1 included, with
    /// no postings, so it stays an oracle independent of the planned
    /// queries' flat scan, which reads level 1 from them.  Every
    /// intersection it issues is counted into `dispatch`, one per level up
    /// to and including the first empty one.  Returns the sorted answers
    /// plus the number of entities scored, matching the owned scan's
    /// counters exactly.
    pub fn scan_top_k<M: AssociationMeasure + ?Sized>(
        &self,
        view: &QueryView<'_>,
        exclude: Option<EntityId>,
        k: usize,
        measure: &M,
        dispatch: &mut KernelDispatch,
    ) -> (Vec<TopKResult>, usize) {
        let mut top = TopKHeap::new(k);
        let mut checked = 0usize;
        let mut scratch = LevelOverlap::default();
        for (pos, &entity) in self.entities.iter().enumerate() {
            if Some(entity) == exclude {
                continue;
            }
            checked += 1;
            self.overlaps_into(pos, view, &[], &mut scratch, Some(&mut *dispatch));
            top.offer(entity, measure.degree_from_overlap(&scratch));
        }
        (top.into_sorted(), checked)
    }

    /// The one flat-scan loop of a planned query, in memory and out of core.
    ///
    /// **Counts first.**  It walks the postings of the query's keys at each
    /// posted level once, which leaves every member's exact overlaps at
    /// levels 1 and 2 in `counts` (a source's scratch, resized to one slot
    /// per position).  `score` gets a member's position and those overlaps
    /// — the known prefix [`level_overlaps`] starts after — and returns its
    /// degree.  A member sharing no level-2 cell shares no finer one, so
    /// `score` answers it without an intersection.
    ///
    /// **Disjoint members last.**  It scores, in position order, every
    /// member `admit` lets through that shares a level-1 cell, then the
    /// others, still in position order, only while its own top `k` is not
    /// saturated against `zero` — `measure`'s bound for a member sharing
    /// nothing at any level, computed once.  The test is strict, so a
    /// member skipped has a degree below the k-th one held and cannot enter
    /// the answer, ties at the k-th degree included; it is neither scored
    /// nor counted.  The scan prunes against nothing but its own heap, so
    /// what it scores does not depend on what other jobs found first.
    ///
    /// Scoring is exact, so the only error a filter introduces is *omission*
    /// — what a scan sampled past the latency budget's deadline samples
    /// with and [`Synopsis::expected_scan_recall`] models.  Returns the sorted
    /// answer and how many members were scored.
    ///
    /// [`Synopsis::expected_scan_recall`]: crate::synopsis::Synopsis::expected_scan_recall
    pub(crate) fn flat_scan<M: AssociationMeasure + ?Sized>(
        &self,
        view: &QueryView<'_>,
        measure: &M,
        counts: &mut Vec<LevelCounts>,
        k: usize,
        admit: impl Fn(EntityId) -> bool,
        mut score: impl FnMut(usize, &[usize]) -> f64,
    ) -> (Vec<TopKResult>, usize) {
        let m = self.num_levels();
        counts.clear();
        counts.resize(self.len(), [0; POSTED_LEVELS]);
        for (level, postings) in self.postings.iter().enumerate() {
            postings.accumulate(view.keyed.parts(level), counts, level);
        }
        let sizes: Vec<usize> = (0..m).map(|i| view.level(i).len()).collect();
        let zero = measure.upper_bound(&sizes, &vec![0; m]);
        let mut top = TopKHeap::new(k);
        let mut checked = 0usize;
        for sharing in [true, false] {
            for (pos, (&entity, count)) in self.entities.iter().zip(counts.iter()).enumerate() {
                if (count[0] > 0) != sharing {
                    continue;
                }
                if !sharing && top.is_saturated_against(zero) {
                    break;
                }
                if !admit(entity) {
                    continue;
                }
                let known = count.map(|overlap| overlap as usize);
                checked += 1;
                top.offer(entity, score(pos, &known[..self.postings.len()]));
            }
        }
        (top.into_sorted(), checked)
    }
}

/// Flat per-snapshot rows of the [`MinSigTree`]'s nodes — the node-side
/// counterpart of the entity-side [`CandidateArena`].
///
/// The tree search's inner loop (node expansion) previously walked owned
/// `Node` structs: a `Vec` index into a heap-allocated
/// node, a `BTreeMap` iteration for the children, and a second node fetch per
/// child to read its depth and routing value.  The node arena stores the
/// topology the search needs as structure-of-arrays rows:
///
/// * `depth`, `routing_index`, `routing_value` — one contiguous vector each
///   (the routing values *are* the paper's materialised `SIG_N[u]` node
///   signatures, so this is the node-signature SoA);
/// * CSR children: `child_offsets[id]..child_offsets[id + 1]` brackets the
///   node's children in ascending routing-index order (the owned `BTreeMap`'s
///   iteration order, preserved for deterministic frontier content — answers
///   are order-independent because the frontier orders by bound);
/// * CSR entities: `entity_offsets[id]..entity_offsets[id + 1]` brackets the
///   entities a childless row is evaluated over.
///
/// **It is the owned tree with the subtrees that cannot branch folded away.**
/// A subtree holding exactly one entity is one **childless row** at the
/// subtree's root — that node's own depth, routing index and routing value,
/// entity span = the one entity — and its descendants get no row; a subtree
/// holding none (removals leave those behind) gets no row at all.  A row
/// without children is what the search evaluates instead of expanding, at
/// whatever depth it sits: scoring a candidate is always sound, and the bound
/// the row was admitted under is the subtree root's, which every descendant's
/// bound could only have tightened.  Rows keep the relative order of their
/// `NodeId`s in the owned tree (row 0 is the root), but the ids themselves
/// are the arena's own.
///
/// Like the candidate arena it is **read-path only**: the owned tree stays
/// the source of truth for mutation and persistence.  A snapshot builds
/// these rows in `O(nodes)` when a tree search first asks for them
/// ([`IndexSnapshot::node_arena`](crate::IndexSnapshot::node_arena)); a
/// publish drops them.
#[derive(Debug, Clone, Default)]
pub struct NodeArena {
    levels: Level,
    num_entities: usize,
    depth: Vec<Level>,
    routing_index: Vec<u32>,
    routing_value: Vec<u64>,
    child_offsets: Vec<u32>,
    children: Vec<NodeId>,
    entity_offsets: Vec<u32>,
    entities: Vec<EntityId>,
}

/// Fills `below[id]` with the number of entities held in the subtree of `id`
/// (for it and every node under it) and returns it.  Depth-first from the
/// node, so nothing is assumed about id order; the recursion is as deep as
/// the tree has levels.
fn count_below(nodes: &[Node], id: NodeId, below: &mut [u32]) -> u32 {
    let node = &nodes[id as usize];
    let under: u32 = node.children.values().map(|&child| count_below(nodes, child, below)).sum();
    below[id as usize] = node.entities.len() as u32 + under;
    below[id as usize]
}

impl NodeArena {
    /// Materialises the flat node rows from the owned tree, folding every
    /// one-entity subtree into a childless row and dropping empty ones (see
    /// the type docs).
    pub fn build(tree: &MinSigTree) -> Self {
        let nodes = tree.nodes();
        let mut below = vec![0u32; nodes.len()];
        count_below(nodes, ROOT, &mut below);
        // A node gets a row when every ancestor branches (holds two or more
        // entities) and it holds at least one itself; the root always does.
        const NO_ROW: NodeId = NodeId::MAX;
        let mut row_of = vec![NO_ROW; nodes.len()];
        let mut pending = vec![ROOT];
        while let Some(id) = pending.pop() {
            row_of[id as usize] = 0;
            if below[id as usize] >= 2 {
                let children = nodes[id as usize].children.values();
                pending.extend(children.filter(|&&child| below[child as usize] >= 1));
            }
        }
        // Rows keep the owned ids' relative order, so equal-bound frontier
        // entries pop in the order they always did.
        let mut rows = 0 as NodeId;
        for row in row_of.iter_mut().filter(|row| **row != NO_ROW) {
            *row = rows;
            rows += 1;
        }
        let n = rows as usize;
        let mut arena = NodeArena {
            levels: tree.levels(),
            num_entities: tree.num_entities(),
            depth: Vec::with_capacity(n),
            routing_index: Vec::with_capacity(n),
            routing_value: Vec::with_capacity(n),
            child_offsets: Vec::with_capacity(n + 1),
            children: Vec::with_capacity(n.saturating_sub(1)),
            entity_offsets: Vec::with_capacity(n + 1),
            entities: Vec::with_capacity(tree.num_entities()),
        };
        arena.child_offsets.push(0);
        arena.entity_offsets.push(0);
        for (id, node) in nodes.iter().enumerate() {
            if row_of[id] == NO_ROW {
                continue;
            }
            arena.depth.push(node.depth);
            arena.routing_index.push(node.routing_index);
            arena.routing_value.push(node.routing_value);
            if below[id] == 1 {
                // Folded: follow the one non-empty branch down to the node
                // holding the entity (the counts add up to 1, so it is there).
                let mut holder = node;
                while let Some(&next) = holder.children.values().find(|&&c| below[c as usize] == 1)
                {
                    holder = &nodes[next as usize];
                }
                arena.entities.push(holder.entities[0]);
            } else {
                let kept = node.children.values().map(|&c| row_of[c as usize]);
                arena.children.extend(kept.filter(|&row| row != NO_ROW));
                arena.entities.extend_from_slice(&node.entities);
            }
            arena.child_offsets.push(arena.children.len() as u32);
            arena.entity_offsets.push(arena.entities.len() as u32);
        }
        arena
    }

    /// Number of sp-index levels the tree was built for.
    #[inline]
    pub(crate) fn levels(&self) -> Level {
        self.levels
    }

    /// Number of entities indexed by the tree.
    #[inline]
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Total number of node rows, including the virtual root — at most the
    /// owned tree's node count, less whatever the fold removed.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.depth.len()
    }

    /// Depth of a node (0 for the virtual root, `1..=m` for real nodes).
    #[inline]
    pub fn depth(&self, id: NodeId) -> Level {
        self.depth[id as usize]
    }

    /// Routing index `u` of a node's group.
    #[inline]
    pub fn routing_index(&self, id: NodeId) -> u32 {
        self.routing_index[id as usize]
    }

    /// The group minimum at the routing index (`SIG_N[u]`).
    #[inline]
    pub fn routing_value(&self, id: NodeId) -> u64 {
        self.routing_value[id as usize]
    }

    /// A node's children in ascending routing-index order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let i = id as usize;
        &self.children[self.child_offsets[i] as usize..self.child_offsets[i + 1] as usize]
    }

    /// The entities a childless row is evaluated over: a leaf's list, or a
    /// folded subtree's one entity.  Empty for rows that have children.
    #[inline]
    pub fn leaf_entities(&self, id: NodeId) -> &[EntityId] {
        let i = id as usize;
        &self.entities[self.entity_offsets[i] as usize..self.entity_offsets[i + 1] as usize]
    }

    /// Resident heap footprint of the node rows in bytes: the capacity of
    /// every vector (`build` sizes each exactly).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.depth.capacity() * std::mem::size_of::<Level>()
            + self.routing_index.capacity() * std::mem::size_of::<u32>()
            + self.routing_value.capacity() * std::mem::size_of::<u64>()
            + (self.child_offsets.capacity() + self.entity_offsets.capacity())
                * std::mem::size_of::<u32>()
            + self.children.capacity() * std::mem::size_of::<NodeId>()
            + self.entities.capacity() * std::mem::size_of::<EntityId>()
    }
}

/// One candidate's cell rows as [`level_overlaps`] reads them: per level the
/// packed and keyed lengths, which [`row_class`] decides by, and the overlap
/// with the query by the kernel it decided on.  Every kernel computes the
/// same integer `|Q ∩ C|`.
trait CandidateRows {
    /// What the loop holds of a keyed row between sizing and intersecting it.
    type Keyed: Copy;

    /// Cells in the level-`i + 1` row.
    fn cells(&self, i: usize) -> usize;

    /// The keyed form of the level-`i + 1` row; asked for only when the
    /// packed lengths leave [`row_class`]'s choice open.
    fn keyed(&self, i: usize) -> Self::Keyed;

    /// Keys in `keyed`.
    fn keys(keyed: Self::Keyed) -> usize;

    /// `|Q ∩ C|` at level `i + 1` by a packed kernel, `query` being the
    /// query's packed row.
    fn overlap_packed(&mut self, query: &[u64], i: usize) -> usize;

    /// `|Q ∩ C|` at level `i + 1` by the keyed kernel, `query` being the
    /// query's keyed row and `keyed` the candidate's.
    fn overlap_keyed(&mut self, query: KeyedRow<'_>, i: usize, keyed: Self::Keyed) -> usize;
}

/// An entity's rows in the arena, every level in both forms.
#[derive(Clone, Copy)]
struct ArenaRows<'a> {
    /// Holds the packed rows; followed only when a packed kernel runs.
    sequence: &'a CellSetSequence,
    /// The entity's `m` cell counts.
    lens: &'a [u32],
    keyed: &'a KeyedRows,
    /// The keyed row number of its level 1 (`pos * m`); touched only when a
    /// keyed length or row is asked for.
    first: usize,
}

impl<'a> ArenaRows<'a> {
    /// The packed level-`i + 1` row, where the sequence holds it.
    #[inline]
    fn packed(&self, i: usize) -> &'a [u64] {
        self.sequence.level(i as Level + 1).packed_slice()
    }

    /// The level-`i + 1` keyed row (`i > 0`) in `words`, the entity's finer
    /// rows as [`CandidateArena::push_finer_rows`] writes them.
    fn finer_row<'w>(&self, words: &'w [u64], i: usize) -> KeyedRow<'w> {
        let row = self.first + i;
        let at = 2 * self.keyed.keys_in(self.first + 1..row);
        let keys = self.keyed.keys_in(row..row + 1);
        KeyedRow::new(&words[at..at + keys], &words[at + keys..at + 2 * keys])
    }
}

impl<'a> CandidateRows for ArenaRows<'a> {
    type Keyed = KeyedRow<'a>;

    #[inline]
    fn cells(&self, i: usize) -> usize {
        self.lens[i] as usize
    }

    #[inline]
    fn keyed(&self, i: usize) -> KeyedRow<'a> {
        self.keyed.row(self.first + i)
    }

    #[inline]
    fn keys(keyed: KeyedRow<'a>) -> usize {
        keyed.len()
    }

    #[inline]
    fn overlap_packed(&mut self, query: &[u64], i: usize) -> usize {
        intersection_len(query, self.packed(i))
    }

    #[inline]
    fn overlap_keyed(&mut self, query: KeyedRow<'_>, _: usize, keyed: KeyedRow<'a>) -> usize {
        keyed_overlap(query, keyed)
    }
}

/// What [`CandidateArena::paged_overlaps`] reuses from candidate to
/// candidate: the finer rows read for the current one, a packed row rebuilt
/// from one of them, and the statistics it leaves.
#[derive(Debug, Default)]
pub(crate) struct RowScratch {
    words: Vec<u64>,
    /// A finer row rebuilt in packed form.
    rebuilt: Vec<u64>,
    overlap: LevelOverlap,
}

impl RowScratch {
    /// The statistics the last [`CandidateArena::paged_overlaps`] left.
    pub(crate) fn overlap(&self) -> &LevelOverlap {
        &self.overlap
    }
}

/// What one [`ArenaSource`] reuses from candidate to candidate and counts
/// for its query.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The current candidate's rows read (out of core) and statistics.
    pub(crate) rows: RowScratch,
    pub(crate) dispatch: KernelDispatch,
    /// Out of core: the buffer-pool traffic of the reads.
    pub(crate) io: PoolStats,
    /// Out of core: candidates scored from their resident rows alone, no
    /// page read.
    pub(crate) reads_avoided: usize,
}

impl Scratch {
    /// Adds the kernel-dispatch, buffer-pool and avoided-read counters
    /// accumulated since the last call (or construction) to `stats`, leaving
    /// them at zero.
    pub(crate) fn drain_into(&mut self, stats: &mut QueryStats) {
        stats.kernel_dispatch.absorb(std::mem::take(&mut self.dispatch));
        stats.absorb_io(std::mem::take(&mut self.io));
        stats.reads_avoided += std::mem::take(&mut self.reads_avoided);
    }
}

/// A candidate's rows when the arena holds its level-1 row and the lengths
/// of all its rows, and its finer rows are read into `words` (keys then
/// masks per level) the first time the loop intersects one.
struct PagedRows<'a, R> {
    resident: ArenaRows<'a>,
    /// Reads the finer rows; `None` once it has.
    read: Option<R>,
    words: &'a mut Vec<u64>,
    rebuilt: &'a mut Vec<u64>,
}

impl<R: FnOnce(&mut Vec<u64>)> PagedRows<'_, R> {
    /// Reads the finer rows into `words`, unless they have been.
    fn read_finer(&mut self) {
        if let Some(read) = self.read.take() {
            self.words.clear();
            read(self.words);
        }
    }
}

impl<R: FnOnce(&mut Vec<u64>)> CandidateRows for PagedRows<'_, R> {
    /// The keyed row's key count: only level 1's rows are at hand.
    type Keyed = usize;

    #[inline]
    fn cells(&self, i: usize) -> usize {
        self.resident.cells(i)
    }

    #[inline]
    fn keyed(&self, i: usize) -> usize {
        self.resident.keyed(i).len()
    }

    #[inline]
    fn keys(keyed: usize) -> usize {
        keyed
    }

    fn overlap_packed(&mut self, query: &[u64], i: usize) -> usize {
        if i == 0 {
            return intersection_len(query, self.resident.packed(0));
        }
        self.read_finer();
        self.rebuilt.clear();
        push_packed(self.resident.finer_row(self.words, i), self.rebuilt);
        intersection_len(query, self.rebuilt)
    }

    fn overlap_keyed(&mut self, query: KeyedRow<'_>, i: usize, _: usize) -> usize {
        if i == 0 {
            return keyed_overlap(query, self.resident.keyed(0));
        }
        self.read_finer();
        keyed_overlap(query, self.resident.finer_row(self.words, i))
    }
}

/// The one per-level overlap loop of the flat hot paths: fills `out` with the
/// [`LevelStat`]s of the query against one candidate's `rows`, each level
/// intersected by the kernel [`row_class`] picks from the four row lengths
/// — asking for the keyed ones only when the packed lengths leave the choice
/// open — and counting every intersection it issues into `dispatch` when
/// one is given.  When the caller already knows the overlaps of a prefix of
/// the levels (`known`: a flat scan's postings counted levels 1 and 2; `[]`
/// is the pairwise loop) the loop records them with the true sizes and
/// starts intersecting after them.
///
/// Levels are a prefix hierarchy (Definition 3) and both sides are
/// ancestor-closed — the query by the [`CellSetSequence`] invariant, the
/// candidate rows because they are a `CellSetSequence`'s — so a shared
/// level-`(l + 1)` cell implies a shared level-`l` cell.  Once a level's
/// overlap is 0 every finer level is therefore recorded as `overlap: 0` with
/// its true sizes, without intersecting (or reading) its rows and without a
/// dispatch count: the measure receives bit for bit the integers the
/// all-levels loop ([`LevelOverlap::from_sequences`], the oracle) hands it.
#[inline]
fn level_overlaps<R: CandidateRows>(
    view: &QueryView<'_>,
    rows: &mut R,
    known: &[usize],
    out: &mut LevelOverlap,
    mut dispatch: Option<&mut KernelDispatch>,
) {
    out.clear();
    let mut shares_coarser = true;
    for i in 0..view.num_levels() {
        let (size_a, size_b) = (view.level(i).len(), rows.cells(i));
        let overlap = if let Some(&overlap) = known.get(i) {
            overlap
        } else if shares_coarser {
            let mut keyed = None;
            let class = row_class((size_a, size_b), || {
                let (query, candidate) = (view.keyed.row(i), rows.keyed(i));
                keyed = Some((query, candidate));
                (query.len(), R::keys(candidate))
            });
            if let Some(dispatch) = dispatch.as_deref_mut() {
                dispatch.record(class);
            }
            match (class, keyed) {
                (KernelClass::Keyed, Some((query, candidate))) => {
                    rows.overlap_keyed(query, i, candidate)
                }
                _ => rows.overlap_packed(view.level(i), i),
            }
        } else {
            0
        };
        shares_coarser = overlap > 0;
        out.push(LevelStat { overlap, size_a, size_b });
    }
}

/// A query's per-level cell rows, resolved once per query so the innermost
/// loops never re-fetch the query sequence: the packed slices it borrows and
/// their keyed forms ([`KeyedRow`]), converted here once.  A sharded query
/// lends its one view to every source it runs.
#[derive(Debug, Clone)]
pub struct QueryView<'a> {
    sequence: &'a CellSetSequence,
    levels: Vec<&'a [u64]>,
    keyed: KeyedRows,
}

impl<'a> QueryView<'a> {
    /// Resolves the view of a query sequence.
    pub fn new(query: &'a CellSetSequence) -> Self {
        let levels: Vec<&'a [u64]> =
            query.iter_levels().map(|(_, set)| set.packed_slice()).collect();
        let mut keyed = KeyedRows::with_capacity(levels.len(), query.total_cells());
        for level in &levels {
            keyed.push(level);
        }
        QueryView { sequence: query, levels, keyed }
    }

    /// The query sequence the view resolves.
    #[inline]
    pub(crate) fn sequence(&self) -> &'a CellSetSequence {
        self.sequence
    }

    /// Number of levels.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The packed cells of one level (0-based index; level `i + 1`).
    #[inline]
    pub fn level(&self, i: usize) -> &'a [u64] {
        self.levels[i]
    }
}

/// What scores one shard's members for one query, in memory and out of
/// core: the arena's fused kernel loop against the query's pre-resolved
/// [`QueryView`] — a shard's flat scan, the planner's seeding and the
/// unsharded tree search's leaf evaluation (as its [`TraceSource`]) all
/// score through it.
///
/// The one difference between the two settings is `pages`.  `None`: every
/// row is the arena's ([`CandidateArena::overlaps_into`]).  `Some`: the
/// arena holds the level-1 row, the postings and the row lengths, and the
/// finer rows are the out-of-core session's, read through its buffer pool
/// when the loop first needs one ([`RowSegment::overlaps`]).  A degree is
/// **bitwise identical** either way, and to `measure.degree(query, seq)`
/// over the owned sequence: the loop hands the measure the same integer
/// per-level [`LevelStat`]s whichever form each row was read in.
///
/// The source owns its [`Scratch`] — the rows and overlap statistics reused
/// across every degree it computes, so nothing is allocated per candidate,
/// and the counters of the work it did — plus a flat scan's per-position
/// level-1 and level-2 overlaps.  Both live in single-threaded cells: a
/// search or a scan job is driven by one worker at a time, so the source is
/// `Send` but deliberately not `Sync`.  [`drain_into`](Self::drain_into)
/// moves the counters into the query's stats.  The view is borrowed from
/// the query, so a fan-out converts the query's keyed rows once, not once
/// per shard.
pub(crate) struct ArenaSource<'a> {
    arena: &'a CandidateArena,
    view: &'a QueryView<'a>,
    /// Out of core, the session's pages of `arena`'s finer rows.
    pages: Option<&'a RowSegment<'a>>,
    scratch: RefCell<Scratch>,
    counts: RefCell<Vec<LevelCounts>>,
}

impl<'a> ArenaSource<'a> {
    /// Creates a source scoring `arena`'s members against `view`, their
    /// finer rows read from `pages` when given.
    pub(crate) fn new(
        arena: &'a CandidateArena,
        view: &'a QueryView<'a>,
        pages: Option<&'a RowSegment<'a>>,
    ) -> Self {
        ArenaSource { arena, view, pages, scratch: RefCell::default(), counts: RefCell::default() }
    }

    /// Adds the counters of the source's own scratch to `stats`, leaving
    /// them at zero ([`Scratch::drain_into`]).
    pub(crate) fn drain_into(&self, stats: &mut QueryStats) {
        self.scratch.borrow_mut().drain_into(stats);
    }

    /// The degree of the member at arena position `pos`, past the levels
    /// whose overlaps are `known`.  `track` counts the kernel dispatches
    /// (scans and leaf evaluation do; planner seeding does not).
    #[inline]
    pub(crate) fn score<M: AssociationMeasure + ?Sized>(
        &self,
        pos: usize,
        known: &[usize],
        measure: &M,
        track: bool,
    ) -> f64 {
        self.score_with(&mut self.scratch.borrow_mut(), pos, known, measure, track)
    }

    /// [`score`](Self::score) into a `scratch` the caller owns — the
    /// planner's, reused across the shards it seeds from — instead of the
    /// source's own.
    #[inline]
    pub(crate) fn score_with<M: AssociationMeasure + ?Sized>(
        &self,
        scratch: &mut Scratch,
        pos: usize,
        known: &[usize],
        measure: &M,
        track: bool,
    ) -> f64 {
        let overlap = match self.pages {
            None => {
                let Scratch { rows, dispatch, .. } = scratch;
                let dispatch = track.then_some(dispatch);
                self.arena.overlaps_into(pos, self.view, known, &mut rows.overlap, dispatch);
                &rows.overlap
            }
            Some(pages) => pages.overlaps(self.arena, pos, self.view, known, scratch, track),
        };
        measure.degree_from_overlap(overlap)
    }

    /// [`CandidateArena::flat_scan`] over the source's arena, each member
    /// scored from level 3 on with its level-1 and level-2 overlaps from the
    /// postings — so a member sharing no level-2 cell is neither intersected
    /// nor read — counting its kernel dispatches.
    pub(crate) fn scan<M: AssociationMeasure + ?Sized>(
        &self,
        k: usize,
        measure: &M,
        admit: impl Fn(EntityId) -> bool,
    ) -> (Vec<TopKResult>, usize) {
        let scratch = &mut *self.scratch.borrow_mut();
        let counts = &mut *self.counts.borrow_mut();
        self.arena.flat_scan(self.view, measure, counts, k, admit, |pos, known| {
            self.score_with(scratch, pos, known, measure, true)
        })
    }
}

impl TraceSource for ArenaSource<'_> {
    fn degree(&self, entity: EntityId, measure: &dyn AssociationMeasure) -> f64 {
        let pos = self.arena.position(entity).expect("a leaf entity is an arena member");
        self.score(pos, &[], measure, true)
    }
}

/// Every observable of `got` equals `expect`'s — packed cells, cell counts,
/// keyed rows, every posted level's postings — footprint included.
#[cfg(test)]
pub(crate) fn assert_same_arena(got: &CandidateArena, expect: &CandidateArena, context: &str) {
    assert_eq!(got.entities(), expect.entities(), "{context}");
    assert_eq!(got.num_levels(), expect.num_levels(), "{context}");
    let m = expect.num_levels();
    for pos in 0..expect.len() {
        for level in 1..=m as Level {
            let row = pos * m + level as usize - 1;
            assert_eq!(
                got.level_cells(level, pos),
                expect.level_cells(level, pos),
                "{context}: cells of row {pos}, level {level}"
            );
            assert_eq!(
                got.keyed.row(row),
                expect.keyed.row(row),
                "{context}: keyed row of {pos}, level {level}"
            );
        }
    }
    assert_eq!(got.lens, expect.lens, "{context}: cell counts");
    assert_eq!(got.keyed.offsets, expect.keyed.offsets, "{context}: keyed offsets");
    assert_eq!(got.postings.len(), m.min(POSTED_LEVELS), "{context}: posted levels");
    assert_eq!(got.postings.len(), expect.postings.len(), "{context}: posted levels");
    for (level, (got, expect)) in got.postings.iter().zip(&expect.postings).enumerate() {
        let level = level + 1;
        assert_eq!(got, expect, "{context}: level-{level} postings");
        assert_eq!(
            got.resident_bytes(),
            expect.resident_bytes(),
            "{context}: level-{level} postings footprint"
        );
    }
    assert_eq!(got.resident_bytes(), expect.resident_bytes(), "{context}: footprint");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HasherMode;
    use crate::signature::{HierarchicalHasher, SeededHashFamily};
    use crate::testkit::issued_intersections;
    use proptest::prelude::*;
    use trace_model::{CellSet, PaperAdm, SpIndex, StCell};

    /// Times on both sides of the first word edges and far out; units up to
    /// `u32::MAX`.  The postings properties draw cells from these.
    const TIMES: [u32; 10] = [0, 1, 62, 63, 64, 65, 127, 128, 129, u32::MAX];
    const UNITS: [u32; 5] = [0, 1, 7, u32::MAX - 1, u32::MAX];

    /// The packed row of the drawn `(time, unit)` picks.
    fn packed_row(cells: &[(usize, usize)]) -> Vec<u64> {
        let mut row: Vec<u64> =
            cells.iter().map(|&(t, u)| StCell::new(TIMES[t], UNITS[u]).packed()).collect();
        row.sort_unstable();
        row.dedup();
        row
    }

    /// One member's rows of the posted levels, drawn as `(time, unit)` picks.
    type Drawn = Vec<Vec<(usize, usize)>>;

    /// The packed rows of the posted levels of every drawn member.
    fn packed_members(members: &[Drawn]) -> Vec<Vec<Vec<u64>>> {
        members.iter().map(|rows| rows.iter().map(|cells| packed_row(cells)).collect()).collect()
    }

    /// The fresh entries of `members` (each its rows of the posted levels) at
    /// positions `at..`, per level, as a rebuild gathers them.
    fn fresh_entries(members: &[Vec<Vec<u64>>], at: u32, fresh: &mut [Vec<Posting>]) {
        for (member, pos) in members.iter().zip(at..) {
            let mut rows = KeyedRows::with_capacity(POSTED_LEVELS, 0);
            for row in member {
                rows.push(row);
            }
            push_postings(&rows, 0, pos, fresh);
        }
    }

    /// The postings of `members` at positions 0.., built as a fresh arena
    /// builds them: every entry fresh.
    fn postings_of(members: &[Vec<Vec<u64>>]) -> Vec<Postings> {
        let mut fresh = vec![Vec::new(); POSTED_LEVELS];
        fresh_entries(members, 0, &mut fresh);
        CandidateArena::default().carry_postings(|_| None, fresh)
    }

    /// The postings of each posted level inverted by brute force from an
    /// arena's keyed rows: the oracle of the layout a build produces.
    fn inverted(arena: &CandidateArena) -> Vec<BTreeMap<u64, Vec<(u32, u64)>>> {
        let m = arena.num_levels();
        let mut levels = vec![BTreeMap::new(); m.min(POSTED_LEVELS)];
        for (level, by_key) in levels.iter_mut().enumerate() {
            for pos in 0..arena.len() {
                let (keys, masks) = arena.keyed.parts(pos * m + level);
                for (&key, &mask) in keys.iter().zip(masks) {
                    by_key.entry(key).or_insert_with(Vec::new).push((pos as u32, mask));
                }
            }
        }
        levels
    }

    /// Every member's overlaps with `query` (its rows of the posted levels)
    /// as the postings count them.
    fn accumulated(postings: &[Postings], query: &[Vec<u64>], members: usize) -> Vec<LevelCounts> {
        let mut counts = vec![[0; POSTED_LEVELS]; members];
        for (level, (postings, row)) in postings.iter().zip(query).enumerate() {
            let (mut keys, mut masks) = (Vec::new(), Vec::new());
            push_keyed(row, &mut keys, &mut masks);
            postings.accumulate((&keys, &masks), &mut counts, level);
        }
        counts
    }

    /// Two levels of `(time, unit)` picks.
    fn drawn(cells: usize) -> impl Strategy<Value = Drawn> {
        proptest::collection::vec(
            proptest::collection::vec((0usize..TIMES.len(), 0usize..UNITS.len()), 0..cells),
            POSTED_LEVELS..POSTED_LEVELS + 1,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The postings count what the pairwise loop intersects, at both
        /// posted levels: for every (query, member) pair of random rows —
        /// times on both sides of the word edges 63 / 64 and 127 / 128,
        /// units up to `u32::MAX` — each level's accumulated overlap is
        /// `intersection_len` of that level's packed rows.  And carrying
        /// them over a publish — some members dropped, some grown by a delta
        /// whose entries are united with theirs, the kept ones moved up or
        /// down by the inserts between them — equals building them afresh
        /// over the new order, level by level and to the byte, and still
        /// counts right.
        #[test]
        fn postings_count_the_level_one_intersection(
            members in proptest::collection::vec(drawn(24), 0..10),
            query in drawn(24),
            kept in proptest::collection::vec(0u8..3, 10..11),
            grown in proptest::collection::vec(drawn(8), 10..11),
            inserts in proptest::collection::vec((0usize..11, drawn(16)), 0..4),
        ) {
            let rows = packed_members(&members);
            let query = packed_members(&[query]).remove(0);
            let postings = postings_of(&rows);
            prop_assert_eq!(postings.len(), POSTED_LEVELS);
            let counts = accumulated(&postings, &query, rows.len());
            for (pos, member) in rows.iter().enumerate() {
                for level in 0..POSTED_LEVELS {
                    let expect = intersection_len(&query[level], &member[level]);
                    prop_assert_eq!(counts[pos][level] as usize, expect, "member {}, {}", pos, level);
                }
            }

            // The publish: member `i` is dropped when `kept[i] == 0`, grows
            // by `grown[i]` when it is 2; insert `(slot, rows)` goes in
            // front of old member `slot`.
            let mut next: Vec<Vec<Vec<u64>>> = Vec::new();
            let (mut remap, mut fresh) = (vec![None; rows.len()], vec![Vec::new(); POSTED_LEVELS]);
            for slot in 0..=rows.len() {
                for (_, drawn) in inserts.iter().filter(|(at, _)| (*at).min(rows.len()) == slot) {
                    let member = packed_members(std::slice::from_ref(drawn));
                    fresh_entries(&member, next.len() as u32, &mut fresh);
                    next.extend(member);
                }
                let Some(member) = rows.get(slot) else { break };
                if kept[slot] != 0 {
                    let at = next.len() as u32;
                    remap[slot] = Some(at);
                    let mut member = member.clone();
                    if kept[slot] == 2 {
                        let delta = packed_members(std::slice::from_ref(&grown[slot]));
                        fresh_entries(&delta, at, &mut fresh);
                        for (row, delta) in member.iter_mut().zip(&delta[0]) {
                            row.extend_from_slice(delta);
                            row.sort_unstable();
                            row.dedup();
                        }
                    }
                    next.push(member);
                }
            }
            let previous = CandidateArena { postings, ..CandidateArena::default() };
            let carried = previous.carry_postings(|old| remap[old], fresh);
            let rebuilt = postings_of(&next);
            prop_assert_eq!(&carried, &rebuilt);
            for (carried, rebuilt) in carried.iter().zip(&rebuilt) {
                prop_assert_eq!(carried.resident_bytes(), rebuilt.resident_bytes());
            }
            let counts = accumulated(&carried, &query, next.len());
            for (pos, member) in next.iter().enumerate() {
                for level in 0..POSTED_LEVELS {
                    let expect = intersection_len(&query[level], &member[level]);
                    prop_assert_eq!(counts[pos][level] as usize, expect, "after, {}, {}", pos, level);
                }
            }
        }
    }

    fn fixture(
        n: u64,
    ) -> (SpIndex, BTreeMap<EntityId, CellSetSequence>, BTreeMap<EntityId, SignatureList>) {
        let sp = SpIndex::uniform(2, &[4]).unwrap();
        let hasher =
            HierarchicalHasher::new(SeededHashFamily::new(8, 7, 10_000), HasherMode::PathMax);
        let mut sequences = BTreeMap::new();
        let mut signatures = BTreeMap::new();
        for e in 0..n {
            let cells: Vec<StCell> = (0..=e)
                .map(|t| StCell::new(t as u32, sp.base_units()[(e + t) as usize % 4]))
                .collect();
            let seq = CellSetSequence::from_base_cells(&sp, &CellSet::from_cells(cells)).unwrap();
            signatures.insert(EntityId(e), SignatureList::build(&sp, &hasher, &seq));
            sequences.insert(EntityId(e), seq);
        }
        (sp, sequences, signatures)
    }

    /// The two-level arena `build` makes of `sequences`.
    fn arena_of(sequences: &BTreeMap<EntityId, CellSetSequence>) -> CandidateArena {
        CandidateArena::build(2, 8, sequences, &BTreeMap::new())
    }

    #[test]
    fn build_mirrors_owned_maps() {
        let (_sp, sequences, signatures) = fixture(5);
        let arena = CandidateArena::build(2, 8, &sequences, &signatures);
        assert_eq!(arena.len(), 5);
        assert_eq!(arena.num_levels(), 2);
        for (pos, (&entity, seq)) in sequences.iter().enumerate() {
            assert_eq!(arena.position(entity), Some(pos));
            for level in 1..=2 {
                let packed = seq.level(level).packed_slice();
                assert_eq!(arena.level_cells(level, pos), packed);
                let (mut keys, mut masks) = (Vec::new(), Vec::new());
                push_keyed(packed, &mut keys, &mut masks);
                let row = arena.keyed.row(pos * 2 + level as usize - 1);
                assert_eq!(row, KeyedRow::new(&keys, &masks), "keyed row {pos}, level {level}");
            }
        }
        assert_eq!(arena.position(EntityId(99)), None);
        assert!(arena.resident_bytes() > 0);

        // The postings are the keyed rows of levels 1 and 2 inverted, every
        // vector at its exact size.
        let levels = inverted(&arena);
        assert_eq!((arena.postings.len(), levels.len()), (POSTED_LEVELS, POSTED_LEVELS));
        assert_eq!(arena.postings.capacity(), POSTED_LEVELS);
        for (level, (postings, by_key)) in arena.postings.iter().zip(&levels).enumerate() {
            assert_eq!(postings.keys, by_key.keys().copied().collect::<Vec<_>>());
            for (i, entries) in by_key.values().enumerate() {
                let span = postings.offsets[i] as usize..postings.offsets[i + 1] as usize;
                let held: Vec<(u32, u64)> = (postings.positions[span.clone()].iter().copied())
                    .zip(postings.masks[span].iter().copied())
                    .collect();
                assert_eq!(&held, entries, "level {}, entries of key {i}", level + 1);
            }
            assert_eq!(postings.offsets.len(), postings.keys.len() + 1);
            for (len, capacity) in [
                (postings.keys.len(), postings.keys.capacity()),
                (postings.offsets.len(), postings.offsets.capacity()),
                (postings.positions.len(), postings.positions.capacity()),
                (postings.masks.len(), postings.masks.capacity()),
            ] {
                assert_eq!(len, capacity, "sized exactly");
            }
        }
        // A one-level arena posts its one level.
        let one = CandidateArena::build(1, 0, &BTreeMap::new(), &BTreeMap::new());
        assert_eq!(one.postings.len(), 1);
    }

    /// A lone insert rebuilds like a full build: at every position of a
    /// population with short-row entities (nothing at all, level 1 only, one
    /// cell at each level), and one insert at a time from empty in shuffled
    /// orders.
    #[test]
    fn lone_insert_rebuild_equals_full_build() {
        let (sp, mut sequences, _) = fixture(9);
        // Entities with short rows — at ids below, between and above the
        // regular ones.
        let unit = sp.base_units()[0];
        let top = sp.ancestor_at_level(unit, 1).unwrap();
        let one = |unit| CellSet::from_cells(vec![StCell::new(3, unit)]);
        for (id, sets) in [
            (100u64, vec![CellSet::new(), CellSet::new()]),
            (4, vec![one(top), CellSet::new()]),
            (101, vec![one(top), one(unit)]),
        ] {
            // Id 4 replaces a regular entity; the other two are new.
            let seq = CellSetSequence::from_level_sets(&sp, sets).unwrap();
            sequences.insert(EntityId(id), seq);
        }
        let full = arena_of(&sequences);
        let ids: Vec<EntityId> = sequences.keys().copied().collect();

        // Removing and re-inserting any single entity — first and last
        // position included — reproduces the full build.
        for &held in &ids {
            let mut seqs = sequences.clone();
            seqs.remove(&held);
            let previous = arena_of(&seqs);
            seqs.insert(held, sequences[&held].clone());
            let arena = previous.rebuild(2, &seqs, &[(held, None)]);
            assert_same_arena(&arena, &full, &format!("re-inserting {held:?}"));
        }

        // Growing from empty in random orders equals the build over the same
        // prefix after every single insert.
        let mut rng = crate::testkit::Rng64::new(0xab50);
        for round in 0..8 {
            let mut order = ids.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut seqs = BTreeMap::new();
            let mut arena = arena_of(&seqs);
            for &entity in &order {
                seqs.insert(entity, sequences[&entity].clone());
                arena = arena.rebuild(2, &seqs, &[(entity, None)]);
                let context = format!("round {round}, after {entity:?}");
                assert_same_arena(&arena, &arena_of(&seqs), &context);
            }
        }
    }

    /// A rebuild from a previous arena — rows of unlisted entities copied in
    /// runs, listed and new ones read from the maps, grown ones united with
    /// their delta — equals a full build over the changed maps: changes at
    /// the first and last position, in runs and alone, removals that merge
    /// two runs, a lone insert, nothing and everything listed.
    #[test]
    fn rebuild_carrying_rows_equals_full_build() {
        let (sp, sequences, _) = fixture(12);
        let previous = arena_of(&sequences);
        let stay = |unit_at: usize, times: std::ops::Range<u32>| {
            let unit = sp.base_units()[unit_at];
            let cells = CellSet::from_cells(times.map(|t| StCell::new(t, unit)));
            CellSetSequence::from_base_cells(&sp, &cells).unwrap()
        };
        let (replaced, delta) = (stay(2, 0..70), stay(1, 5..140));
        let all: Vec<u64> = (0..12).chain([40, 41]).collect();
        // (replaced, removed, inserted, grown) ids.
        type Case<'a> = (&'a [u64], &'a [u64], &'a [u64], &'a [u64]);
        let cases: [Case<'_>; 8] = [
            (&[], &[], &[], &[]),
            (&[], &[], &[40], &[]),
            (&[0, 11], &[], &[], &[]),
            (&[3, 4, 5], &[7], &[40], &[]),
            (&[], &[1, 2, 9], &[41], &[]),
            (&[6], &[0, 11], &[40, 41], &[]),
            (&all[..12], &[], &[40, 41], &[]),
            (&[5], &[6], &[40], &[0, 3, 4, 11]),
        ];
        for (replace, remove, insert, grow) in cases {
            let mut seqs = sequences.clone();
            let mut changed = Vec::new();
            for &id in replace.iter().chain(insert) {
                seqs.insert(EntityId(id), replaced.clone());
                changed.push((EntityId(id), None));
            }
            for &id in remove {
                seqs.remove(&EntityId(id));
                changed.push((EntityId(id), None));
            }
            for &id in grow {
                let grown = seqs[&EntityId(id)].union(&delta);
                seqs.insert(EntityId(id), grown);
                changed.push((EntityId(id), Some(delta.clone())));
            }
            changed.sort_by_key(|(id, _)| *id);
            let context =
                format!("replace {replace:?}, remove {remove:?}, insert {insert:?}, grow {grow:?}");
            let rebuilt = previous.rebuild(2, &seqs, &changed);
            assert_same_arena(&rebuilt, &arena_of(&seqs), &context);
        }
    }

    #[test]
    fn fused_degree_is_bitwise_identical_to_owned_path() {
        let (_sp, sequences, signatures) = fixture(8);
        let arena = CandidateArena::build(2, 8, &sequences, &signatures);
        let measure = PaperAdm::default_for(2);
        for (&query, qseq) in &sequences {
            let view = QueryView::new(qseq);
            for (pos, (&entity, seq)) in sequences.iter().enumerate() {
                let owned = measure.degree(qseq, seq);
                let fused = arena.degree_at(pos, &view, &measure);
                assert!(
                    owned.to_bits() == fused.to_bits(),
                    "degree({query:?}, {entity:?}): owned {owned} != fused {fused}"
                );
            }
        }
    }

    #[test]
    fn arena_scan_matches_owned_scan() {
        let (_sp, sequences, signatures) = fixture(10);
        let arena = CandidateArena::build(2, 8, &sequences, &signatures);
        let measure = PaperAdm::default_for(2);
        let qseq = &sequences[&EntityId(3)];
        let view = QueryView::new(qseq);
        let mut dispatch = KernelDispatch::default();
        let (arena_results, arena_checked) =
            arena.scan_top_k(&view, Some(EntityId(3)), 4, &measure, &mut dispatch);
        let issued: u64 = sequences
            .iter()
            .filter(|(&entity, _)| entity != EntityId(3))
            .map(|(_, seq)| issued_intersections(qseq, seq))
            .sum();
        assert_eq!(
            dispatch.total(),
            issued,
            "one classified intersection per level up to the first empty one"
        );
        let (owned_results, owned_checked) = crate::engine::scan_top_k(
            sequences.iter().map(|(e, s)| (*e, s)),
            qseq,
            Some(EntityId(3)),
            4,
            &measure,
        );
        assert_eq!(arena_checked, owned_checked);
        assert_eq!(arena_results.len(), owned_results.len());
        for (a, o) in arena_results.iter().zip(&owned_results) {
            assert_eq!(a.entity, o.entity);
            assert_eq!(a.degree.to_bits(), o.degree.to_bits());
        }
    }

    #[test]
    fn arena_source_overrides_degree() {
        let (_sp, sequences, signatures) = fixture(4);
        let arena = CandidateArena::build(2, 8, &sequences, &signatures);
        let measure = PaperAdm::default_for(2);
        let qseq = sequences[&EntityId(0)].clone();
        let view = QueryView::new(&qseq);
        let source = ArenaSource::new(&arena, &view, None);
        for &entity in arena.entities() {
            let via_source = source.degree(entity, &measure);
            let owned = measure.degree(&qseq, &sequences[&entity]);
            assert_eq!(via_source.to_bits(), owned.to_bits());
        }
        let mut drained = QueryStats::default();
        source.drain_into(&mut drained);
        let issued: u64 = sequences.values().map(|seq| issued_intersections(&qseq, seq)).sum();
        assert_eq!(
            drained.kernel_dispatch.total(),
            issued,
            "4 degrees, each classified up to its first empty level"
        );
        let mut again = QueryStats::default();
        source.drain_into(&mut again);
        assert_eq!(again.kernel_dispatch.total(), 0, "drain_into resets the counters");
    }

    /// Pairs that share a cell down to some level and nothing finer: the loop
    /// issues one intersection more than the levels they share (capped at
    /// the 3 there are) and hands the measure the all-levels loop's integers
    /// — over the arena's rows, and with the finer rows read as an
    /// out-of-core session reads them, which happens exactly when level 1
    /// (level 2, given both posted overlaps) is shared.
    #[test]
    fn overlap_loop_stops_at_the_first_empty_level() {
        let sp = SpIndex::uniform(2, &[2, 2]).unwrap();
        let base = sp.base_units();
        let seq_at = |cells: &[(u32, u32)]| {
            let cells = cells.iter().map(|&(t, u)| StCell::new(t, u)).collect::<Vec<_>>();
            CellSetSequence::from_base_cells(&sp, &CellSet::from_cells(cells)).unwrap()
        };
        let query = seq_at(&[(0, base[0]), (0, base[7])]);
        for (candidate, issued) in [
            (seq_at(&[(0, base[0])]), 3u64),            // the same base unit
            (seq_at(&[(0, base[1])]), 3),               // its sibling: levels 1 and 2
            (seq_at(&[(0, base[2])]), 2),               // its cousin: level 1 only
            (seq_at(&[(0, base[4])]), 2),               // base[7]'s cousin
            (seq_at(&[(1, base[0]), (2, base[7])]), 1), // never at the same time
            (seq_at(&[]), 1),
        ] {
            let view = QueryView::new(&query);
            let arena = CandidateArena::build(
                3,
                0,
                &BTreeMap::from([(EntityId(0), candidate.clone())]),
                &BTreeMap::new(),
            );
            let oracle = LevelOverlap::from_sequences(&query, &candidate);
            assert_eq!(issued_intersections(&query, &candidate), issued);
            let mut finer = Vec::new();
            arena.push_finer_rows(0, &mut finer);
            assert_eq!(finer.len(), arena.finer_words(0));
            let levels: Vec<usize> = oracle.iter().map(|(_, stat)| stat.overlap).collect();

            // Given the overlaps of a prefix of the levels — none (the
            // pairwise loop), level 1, levels 1 and 2 (a scan's postings) —
            // the loop starts after it: the same integers, one intersection
            // fewer per known level the pairwise loop would have issued, and
            // the finer rows read exactly when a level past the first is
            // intersected, so when the last known level is shared.
            for known in 0..=2 {
                let known = &levels[..known];
                let context = format!("{candidate:?}, known {known:?}");
                let issued_after = issued.saturating_sub(known.len() as u64);
                let (mut fused, mut dispatch) =
                    (LevelOverlap::default(), KernelDispatch::default());
                arena.overlaps_into(0, &view, known, &mut fused, Some(&mut dispatch));
                assert_eq!((&fused, dispatch.total()), (&oracle, issued_after), "{context}");
                let (mut scratch, mut paged) = (RowScratch::default(), KernelDispatch::default());
                let read = |out: &mut Vec<u64>| out.extend_from_slice(&finer);
                let ran =
                    arena.paged_overlaps(0, &view, known, read, &mut scratch, Some(&mut paged));
                assert_eq!((scratch.overlap(), paged), (&oracle, dispatch), "paged, {context}");
                let reads = issued > known.len().max(1) as u64;
                assert_eq!(ran, reads, "paged, {context}");
            }
        }
    }

    /// The pre-fold layout — one row per owned node, same ids — kept as the
    /// oracle the folded rows are compared against.
    fn unfolded(tree: &MinSigTree) -> NodeArena {
        let mut arena = NodeArena {
            levels: tree.levels(),
            num_entities: tree.num_entities(),
            child_offsets: vec![0],
            entity_offsets: vec![0],
            ..NodeArena::default()
        };
        for node in tree.nodes() {
            arena.depth.push(node.depth);
            arena.routing_index.push(node.routing_index);
            arena.routing_value.push(node.routing_value);
            arena.children.extend(node.children.values().copied());
            arena.child_offsets.push(arena.children.len() as u32);
            arena.entities.extend_from_slice(&node.entities);
            arena.entity_offsets.push(arena.entities.len() as u32);
        }
        arena
    }

    /// The arena is the owned tree with each one-entity subtree folded to a
    /// childless row and empty subtrees dropped: same entity partition, same
    /// rows on kept nodes, in the owned ids' order.
    #[test]
    fn node_arena_mirrors_the_owned_tree() {
        fn below(tree: &MinSigTree, id: NodeId) -> Vec<EntityId> {
            let node = &tree.nodes()[id as usize];
            let mut all = node.entities.clone();
            all.extend(node.children.values().flat_map(|&child| below(tree, child)));
            all
        }
        let (_sp, _sequences, signatures) = fixture(40);
        let mut tree = MinSigTree::build(2, signatures.iter().map(|(e, s)| (*e, s)));
        // Removals leave empty leaves and freshly lonely subtrees behind.
        for e in (0..40).step_by(3) {
            tree.remove(EntityId(e));
        }
        let arena = NodeArena::build(&tree);
        assert_eq!(arena.levels(), tree.levels());
        assert_eq!(arena.num_entities(), tree.num_entities());

        let (mut folded, mut dropped) = (0usize, 0usize);
        let mut rows_by_id = Vec::new();
        let mut partition = Vec::new();
        let mut pending = vec![(ROOT, ROOT)];
        while let Some((id, row)) = pending.pop() {
            rows_by_id.push((id, row));
            let node = &tree.nodes()[id as usize];
            assert_eq!(arena.depth(row), node.depth);
            assert_eq!(arena.routing_index(row), node.routing_index);
            assert_eq!(arena.routing_value(row), node.routing_value);
            let held = below(&tree, id);
            if held.len() == 1 {
                folded += usize::from(node.depth < tree.levels());
                assert!(arena.children(row).is_empty(), "a one-entity subtree is one row");
                assert_eq!(arena.leaf_entities(row), held.as_slice());
            } else {
                let kept: Vec<NodeId> = node
                    .children
                    .values()
                    .copied()
                    .filter(|&child| !below(&tree, child).is_empty())
                    .collect();
                dropped += node.children.len() - kept.len();
                assert_eq!(arena.children(row).len(), kept.len(), "children of node {id}");
                assert_eq!(arena.leaf_entities(row), node.entities.as_slice());
                pending.extend(kept.into_iter().zip(arena.children(row).iter().copied()));
            }
            partition.extend_from_slice(arena.leaf_entities(row));
        }
        assert!(folded > 0 && dropped > 0, "the fixture folds ({folded}) and drops ({dropped})");
        assert_eq!(rows_by_id.len(), arena.num_nodes(), "every row is reachable from the root");
        assert!(arena.num_nodes() < tree.num_nodes());
        rows_by_id.sort_unstable();
        assert!(rows_by_id.windows(2).all(|w| w[0].1 < w[1].1), "rows keep the owned id order");
        partition.sort_unstable();
        assert_eq!(partition, tree.entities().collect::<Vec<_>>(), "same entity partition");
        assert!(arena.resident_bytes() < unfolded(&tree).resident_bytes());

        // Nothing to fold or drop: an empty tree is its root, a one-entity
        // tree one childless row holding the entity.
        let empty = NodeArena::build(&MinSigTree::new(2));
        assert_eq!((empty.num_nodes(), empty.leaf_entities(ROOT).len()), (1, 0));
        let (&only, sig) = signatures.iter().next().unwrap();
        let lone = NodeArena::build(&MinSigTree::build(2, [(only, sig)]));
        assert_eq!((lone.num_nodes(), lone.leaf_entities(ROOT)), (1, [only].as_slice()));
    }

    /// The tree search over the folded rows against the search over the
    /// unfolded ones: the same answers bit for bit under every option set —
    /// also (round 1) after removing a third of the population has left empty
    /// and lonely subtrees behind — from no more node visits.  Folding scores an entity where its chain begins,
    /// so `entities_checked` may differ; it is reported, not pinned.
    #[test]
    fn folded_rows_answer_like_the_unfolded_tree() {
        use crate::query::QueryOptions;
        use crate::testkit::{PruningAdversarialConfig, UniformConfig, Workload};
        let uniform = Workload::uniform(UniformConfig { entities: 300, ..Default::default() });
        let (skewed, _) = Workload::pruning_adversarial(PruningAdversarialConfig {
            hot_entities: 12,
            cold_entities: 300,
            ..Default::default()
        });
        for (name, workload) in [("uniform", uniform), ("skewed", skewed)] {
            let mut index = workload.build_index(crate::config::IndexConfig::default());
            for round in 0..2 {
                if round == 1 {
                    for entity in workload.entities().into_iter().step_by(3) {
                        index.remove_entity(entity).unwrap();
                    }
                }
                let folded = index.snapshot();
                let plain = (*folded).clone().with_node_arena(unfolded(folded.tree()));
                assert!(folded.node_arena().num_nodes() < plain.node_arena().num_nodes());
                let measure = workload.measure();
                for query in workload.sample_entities(6, 0xf01d) {
                    let Some(seq) = folded.sequence(query) else { continue };
                    for options in [
                        QueryOptions::default(),
                        QueryOptions { accumulate_down_branch: false, ..Default::default() },
                        QueryOptions { use_level_constraints: false, ..Default::default() },
                    ] {
                        let run = |snapshot: &crate::snapshot::IndexSnapshot| {
                            snapshot.top_k_for_sequence(seq, Some(query), 5, &measure, options)
                        };
                        let ((got, work), (expect, plain_work)) =
                            (run(&folded).unwrap(), run(&plain).unwrap());
                        let context = format!(
                            "{name}, round {round}, query {query}, {options:?}: checked {} vs {}",
                            work.entities_checked, plain_work.entities_checked
                        );
                        crate::testkit::assert_equivalent_answers(&got, &expect, &context);
                        assert!(work.nodes_visited <= plain_work.nodes_visited, "{context}");
                    }
                }
            }
        }
    }
}
