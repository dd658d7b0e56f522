//! Durability for the MinSigTree index: [`MinSigIndex::save`] /
//! [`MinSigIndex::open`], over the snapshot's own `save` / `open` /
//! [`to_bytes`](IndexSnapshot::to_bytes).
//!
//! A persisted index is one segment file in the checksummed, length-prefixed
//! format of [`trace_storage::segment`] (magic [`INDEX_MAGIC`], version
//! `INDEX_VERSION` = 3).  The file stores everything a restarted process needs
//! to answer queries **bit-identically** to the index that was saved, without
//! re-hashing a single cell:
//!
//! | segment | contents |
//! |---------|----------|
//! | `META`  | temporal discretisation, [`IndexConfig`], the hasher byte (always 1, PathMax), the *resolved* hash range, hierarchy height, tree level count, and the expected entity / node / unit counts |
//! | `WAL`   | the WAL checkpoint LSN: the highest log record this file already incorporates — format version 3 and newer |
//! | `SYN`   | the planning [`Synopsis`] (sketch size, per-level capacity caps, entity count, hot-entity ids) — format version 2 and newer |
//! | `SP`    | the spatial hierarchy as a parent list (units were created parent-before-child, so replaying the list through [`SpIndexBuilder`] reproduces the exact same dense unit ids) |
//! | `TREE`  | the [`MinSigTree`] node arena, structurally (chunked) |
//! | `ENT`   | per entity: its base-level ST-cells and its full signature list (chunked) |
//!
//! **Version 3** (this build) adds the `WAL` segment carrying the checkpoint
//! LSN of the durable ingest path (`crate::durable`): recovery replays only
//! log records *newer* than this LSN, and because the LSN travels inside the
//! atomically renamed file it can never disagree with the state it
//! describes — a crash between a checkpoint and its log truncation cannot
//! double-apply a batch.  A non-durable [`save`](MinSigIndex::save) writes
//! LSN 0.  **Version 2** added the `SYN` segment so a reopened index plans
//! sharded queries immediately — including a non-default synopsis sketch
//! size chosen at build time — without recomputing anything.  Version-1 and
//! version-2 files still open: missing segments fall back (synopsis computed
//! from the loaded sequences — a linear pass over cached lengths, no
//! re-hashing; checkpoint LSN 0).
//!
//! Per-level sequences are *not* stored: they are cheap, deterministic
//! projections of the base cells ([`CellSetSequence::from_base_cells`]), so
//! [`open`](MinSigIndex::open) recomputes them in one linear pass.  The
//! signatures — the only expensive-to-recompute state — are stored verbatim,
//! and the tree is stored structurally rather than rebuilt so that lower-bound
//! routing values left behind by [`remove_entity`] survive a restart exactly.
//!
//! Writes are atomic (temp file + rename, [`segment::atomic_write`]); a crash
//! mid-save leaves any previous file untouched.  Reads verify the magic, the
//! version, every segment checksum, the segment count, the announced entity /
//! node counts and the structural invariants of the reassembled tree; any
//! mismatch is reported as [`IndexError::Corrupt`] (or [`IndexError::Io`]),
//! never as silently wrong query answers.
//!
//! [`remove_entity`]: crate::index::MinSigIndex::remove_entity
//! [`SpIndexBuilder`]: trace_model::SpIndexBuilder

use crate::config::IndexConfig;
use crate::error::{IndexError, Result};
use crate::index::MinSigIndex;
use crate::signature::{HierarchicalHasher, SeededHashFamily, SignatureList};
use crate::snapshot::{IndexSnapshot, SnapshotParts};
use crate::synopsis::Synopsis;
use crate::tree::{MinSigTree, Node, NodeId};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use trace_model::{CellSet, CellSetSequence, EntityId, SpIndexBuilder, StCell};
use trace_storage::segment::{self, Cursor, SegmentError};

/// Magic bytes of a persisted index file ("MinSig IndeX").
pub const INDEX_MAGIC: [u8; 4] = *b"MSIX";
/// Newest index file format version this build reads and writes.  Version 3
/// added the `WAL` checkpoint-LSN segment, version 2 the `SYN`
/// planning-synopsis segment; older files still open (missing segments fall
/// back to a computed synopsis and checkpoint LSN 0).
pub(crate) const INDEX_VERSION: u16 = 3;

const TAG_META: u32 = 1;
const TAG_SP: u32 = 2;
const TAG_TREE: u32 = 3;
const TAG_ENT: u32 = 4;
const TAG_SYN: u32 = 5;
const TAG_WAL: u32 = 6;

/// META's hasher byte: 1 names PathMax, the one hash rule.  A 0 names the
/// paper's min-over-children rule, which no build writes any more; its
/// signatures are not PathMax's, so the tree search would misread them, and
/// the byte is refused as corrupt like any other.
const PATH_MAX_HASHER: u8 = 1;

/// Entities per `ENT` segment and nodes per `TREE` segment: keeps individual
/// segments small enough to checksum incrementally while amortising the
/// per-segment header over many records.
const ENTITIES_PER_SEGMENT: usize = 256;
const NODES_PER_SEGMENT: usize = 4096;

/// Sentinel parent id marking a level-1 unit in the `SP` parent list.
const NO_PARENT: u32 = u32::MAX;

impl IndexSnapshot {
    /// Persists this snapshot to `path` in the versioned, checksummed segment
    /// format described in [the module docs](crate::persist).
    ///
    /// The write is atomic: the file is produced as a temporary sibling and
    /// renamed into place, so a crash mid-save never clobbers an existing
    /// file.  A saved-then-[`open`](IndexSnapshot::open)ed snapshot answers
    /// every query bit-identically to this one.
    pub(crate) fn save(&self, path: &Path) -> Result<()> {
        segment::atomic_write(path, INDEX_MAGIC, INDEX_VERSION, |writer| {
            self.write_segments(writer, 0)
        })?;
        Ok(())
    }

    /// Serialises this snapshot into an in-memory buffer holding exactly the
    /// bytes [`MinSigIndex::save`] would write to disk.
    ///
    /// Used by the sharded save ([`crate::shard`]) to digest each shard file
    /// without writing it first and reading it back.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        self.to_bytes_with_lsn(0)
    }

    /// [`to_bytes`](IndexSnapshot::to_bytes) with an explicit WAL checkpoint
    /// LSN — the durable checkpoint's hook (`crate::durable`).  The LSN rides
    /// inside the atomically renamed shard file, so the persisted state and
    /// the log position it corresponds to can never be torn apart by a crash.
    pub(crate) fn to_bytes_with_lsn(&self, wal_lsn: u64) -> Result<Vec<u8>> {
        let mut writer = segment::SegmentWriter::new(Vec::new(), INDEX_MAGIC, INDEX_VERSION)
            .map_err(IndexError::from)?;
        self.write_segments(&mut writer, wal_lsn).map_err(IndexError::from)?;
        writer.finish().map_err(IndexError::from)
    }

    fn write_segments<W: std::io::Write>(
        &self,
        writer: &mut segment::SegmentWriter<W>,
        wal_lsn: u64,
    ) -> trace_storage::segment::Result<()> {
        writer.write_segment(TAG_META, &self.encode_meta())?;
        writer.write_segment(TAG_WAL, &wal_lsn.to_le_bytes())?;
        writer.write_segment(TAG_SYN, &self.encode_synopsis())?;
        writer.write_segment(TAG_SP, &self.encode_sp())?;
        for chunk in self.tree().nodes().chunks(NODES_PER_SEGMENT) {
            writer.write_segment(TAG_TREE, &encode_tree_chunk(chunk))?;
        }
        let entities: Vec<EntityId> = self.sequences().keys().copied().collect();
        for chunk in entities.chunks(ENTITIES_PER_SEGMENT) {
            writer.write_segment(TAG_ENT, &self.encode_entity_chunk(chunk))?;
        }
        Ok(())
    }

    /// Loads a snapshot previously written by [`save`](IndexSnapshot::save).
    ///
    /// The load is a cheap linear pass — signatures are read back verbatim and
    /// no cell is re-hashed; only the per-level sequence projections are
    /// recomputed from the stored base cells.  Every checksum, count and
    /// structural invariant is verified: a truncated, bit-flipped or
    /// otherwise damaged file yields [`IndexError::Corrupt`] (or
    /// [`IndexError::Io`]), never a partially loaded index.
    pub(crate) fn open(path: &Path) -> Result<IndexSnapshot> {
        Ok(Self::open_reader(segment::open_file(path, INDEX_MAGIC, INDEX_VERSION)?)?.0)
    }

    /// Loads a snapshot from an in-memory buffer previously produced by
    /// [`to_bytes`](IndexSnapshot::to_bytes) (or read verbatim from a
    /// [`save`](IndexSnapshot::save)d file), with exactly the same
    /// verification as [`open`](IndexSnapshot::open), also returning the
    /// buffer's WAL checkpoint LSN (0 for files older than format version 3
    /// and for non-durable saves) — the recovery hook.
    ///
    /// Lets a caller that must authenticate the bytes first (the sharded
    /// open's manifest digest check) parse the *verified* buffer instead of
    /// re-reading the file — no window for the file to change in between.
    pub(crate) fn open_from_bytes_with_lsn(bytes: &[u8]) -> Result<(IndexSnapshot, u64)> {
        Self::open_reader(segment::SegmentReader::new(bytes, INDEX_MAGIC, INDEX_VERSION)?)
    }

    fn open_reader<R: std::io::Read>(
        mut reader: segment::SegmentReader<R>,
    ) -> Result<(IndexSnapshot, u64)> {
        let version = reader.version();
        let mut meta: Option<Meta> = None;
        let mut sp = None;
        let mut nodes: Vec<Node> = Vec::new();
        let mut sequences = BTreeMap::new();
        let mut signatures = BTreeMap::new();
        let mut synopsis: Option<Synopsis> = None;
        let mut wal_lsn: Option<u64> = None;

        while let Some((tag, payload)) = reader.next_segment()? {
            match tag {
                TAG_META => {
                    if meta.is_some() {
                        return Err(corrupt("duplicate META segment"));
                    }
                    meta = Some(Meta::decode(&payload)?);
                }
                TAG_SYN => {
                    let meta = meta.as_ref().ok_or_else(|| corrupt("SYN segment before META"))?;
                    if synopsis.is_some() {
                        return Err(corrupt("duplicate SYN segment"));
                    }
                    synopsis = Some(decode_synopsis(&payload, meta)?);
                }
                TAG_WAL => {
                    if version < 3 {
                        return Err(corrupt("pre-version-3 file carries a WAL segment"));
                    }
                    if wal_lsn.is_some() {
                        return Err(corrupt("duplicate WAL segment"));
                    }
                    let mut c = Cursor::new(&payload);
                    let lsn = c.u64()?;
                    c.expect_end().map_err(IndexError::from)?;
                    wal_lsn = Some(lsn);
                }
                TAG_SP => {
                    let meta = meta.as_ref().ok_or_else(|| corrupt("SP segment before META"))?;
                    if sp.is_some() {
                        return Err(corrupt("duplicate SP segment"));
                    }
                    sp = Some(decode_sp(meta, &payload)?);
                }
                TAG_TREE => {
                    let meta = meta.as_ref().ok_or_else(|| corrupt("TREE segment before META"))?;
                    decode_tree_chunk(&payload, meta, &mut nodes)?;
                }
                TAG_ENT => {
                    let meta = meta.as_ref().ok_or_else(|| corrupt("ENT segment before META"))?;
                    let sp = sp.as_ref().ok_or_else(|| corrupt("ENT segment before SP"))?;
                    decode_entity_chunk(&payload, meta, sp, &mut sequences, &mut signatures)?;
                }
                other => return Err(corrupt(&format!("unknown segment tag {other}"))),
            }
        }

        let meta = meta.ok_or_else(|| corrupt("missing META segment"))?;
        let sp = sp.ok_or_else(|| corrupt("missing SP segment"))?;
        if nodes.len() as u64 != meta.num_nodes {
            return Err(corrupt(&format!(
                "META announces {} tree nodes but {} were stored",
                meta.num_nodes,
                nodes.len()
            )));
        }
        if sequences.len() as u64 != meta.num_entities {
            return Err(corrupt(&format!(
                "META announces {} entities but {} were stored",
                meta.num_entities,
                sequences.len()
            )));
        }
        let tree = MinSigTree::from_nodes(meta.tree_levels, nodes).map_err(|e| corrupt(&e))?;
        if tree.num_entities() != sequences.len() {
            return Err(corrupt(&format!(
                "tree indexes {} entities but {} sequences were stored",
                tree.num_entities(),
                sequences.len()
            )));
        }
        for entity in tree.entities() {
            if !sequences.contains_key(&entity) {
                return Err(corrupt(&format!("tree holds {entity} but its trace is missing")));
            }
        }

        // Version 2 files always carry a synopsis; a version-1 file never
        // does, so `from_parts` computes it from the loaded sequences (a
        // linear pass over cached lengths — still no re-hashing).
        match &synopsis {
            Some(synopsis) => {
                if version < 2 {
                    return Err(corrupt("version-1 file carries a SYN segment"));
                }
                for &hot in synopsis.hot_entities() {
                    if !sequences.contains_key(&hot) {
                        return Err(corrupt(&format!(
                            "synopsis sketch lists {hot}, which is not indexed"
                        )));
                    }
                }
                // The capacity caps are the one synopsis field that can
                // change answers (an understated cap lets the planner skip a
                // shard that holds top-k entities): verify them against the
                // loaded sequences — one linear pass over cached lengths, no
                // hashing.  (The sketch only picks seeding candidates; a bad
                // sketch costs speed, never correctness.)
                let mut true_caps = vec![0usize; meta.tree_levels as usize];
                for seq in sequences.values() {
                    for (i, cap) in true_caps.iter_mut().enumerate() {
                        *cap = (*cap).max(seq.level((i + 1) as u8).len());
                    }
                }
                if synopsis.level_caps() != true_caps {
                    return Err(corrupt(&format!(
                        "synopsis capacity caps {:?} do not match the stored sequences' \
                         per-level maxima {true_caps:?}",
                        synopsis.level_caps()
                    )));
                }
            }
            None if version >= 2 => return Err(corrupt("missing SYN segment")),
            None => {}
        }

        // Version 3 files always carry the checkpoint LSN; older files never
        // do, and an index saved outside the durable path has LSN 0 anyway.
        let wal_lsn = match wal_lsn {
            Some(lsn) => lsn,
            None if version >= 3 => return Err(corrupt("missing WAL segment")),
            None => 0,
        };

        let family = SeededHashFamily::new(
            meta.config.num_hash_functions,
            meta.config.hash_seed,
            meta.resolved_range,
        );
        let hasher = HierarchicalHasher::new(family);
        let snapshot = IndexSnapshot::from_parts(SnapshotParts {
            sp,
            config: meta.config,
            ticks_per_unit: meta.ticks_per_unit,
            hasher,
            tree,
            sequences,
            signatures,
            synopsis,
        });
        Ok((snapshot, wal_lsn))
    }

    fn encode_meta(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.ticks_per_unit.to_le_bytes());
        out.extend_from_slice(&self.config.num_hash_functions.to_le_bytes());
        out.extend_from_slice(&self.config.hash_seed.to_le_bytes());
        out.push(self.config.hash_range.is_some() as u8);
        out.extend_from_slice(&self.config.hash_range.unwrap_or(0).to_le_bytes());
        out.push(PATH_MAX_HASHER);
        out.extend_from_slice(&self.hasher.range().to_le_bytes());
        out.push(self.sp.height());
        out.push(self.tree().levels());
        out.extend_from_slice(&(self.num_entities() as u64).to_le_bytes());
        out.extend_from_slice(&(self.tree().num_nodes() as u64).to_le_bytes());
        out.extend_from_slice(&(self.sp.num_units() as u64).to_le_bytes());
        out
    }

    fn encode_synopsis(&self) -> Vec<u8> {
        let syn = self.synopsis();
        let mut out =
            Vec::with_capacity(24 + syn.level_caps().len() * 8 + syn.hot_entities().len() * 8);
        out.extend_from_slice(&(syn.sketch_size() as u64).to_le_bytes());
        out.extend_from_slice(&(syn.level_caps().len() as u32).to_le_bytes());
        for &cap in syn.level_caps() {
            out.extend_from_slice(&(cap as u64).to_le_bytes());
        }
        out.extend_from_slice(&(syn.num_entities() as u64).to_le_bytes());
        out.extend_from_slice(&(syn.hot_entities().len() as u32).to_le_bytes());
        for &hot in syn.hot_entities() {
            out.extend_from_slice(&hot.raw().to_le_bytes());
        }
        out
    }

    fn encode_sp(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.sp.num_units() * 4);
        for unit in 0..self.sp.num_units() as u32 {
            let parent = self.sp.parent(unit).expect("unit exists").unwrap_or(NO_PARENT);
            out.extend_from_slice(&parent.to_le_bytes());
        }
        out
    }

    fn encode_entity_chunk(&self, entities: &[EntityId]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(entities.len() as u32).to_le_bytes());
        for &entity in entities {
            let seq = &self.sequences()[&entity];
            let sig = self.signature(entity).expect("every indexed entity has a signature");
            out.extend_from_slice(&entity.raw().to_le_bytes());
            let base = seq.base();
            out.extend_from_slice(&(base.len() as u32).to_le_bytes());
            for cell in base.iter() {
                out.extend_from_slice(&cell.packed().to_le_bytes());
            }
            for level in sig.levels() {
                for &value in level {
                    out.extend_from_slice(&value.to_le_bytes());
                }
            }
        }
        out
    }
}

impl MinSigIndex {
    /// Persists the current snapshot of the index to `path`, atomically, in
    /// the format of the [module docs](crate::persist).
    pub fn save(&self, path: &Path) -> Result<()> {
        IndexSnapshot::save(self, path)
    }

    /// Opens a previously [`save`](MinSigIndex::save)d index as a fresh
    /// mutable handle (epoch 0, build statistics describing the load rather
    /// than the original build).  Every checksum, count and structural
    /// invariant is verified: a damaged file is an error, never a partially
    /// loaded index.
    pub fn open(path: &Path) -> Result<MinSigIndex> {
        let start = Instant::now();
        Ok(MinSigIndex::loaded(IndexSnapshot::open(path)?, 0, start))
    }
}

/// Decoded `META` segment.
struct Meta {
    ticks_per_unit: u64,
    config: IndexConfig,
    resolved_range: u64,
    sp_height: u8,
    tree_levels: u8,
    num_entities: u64,
    num_nodes: u64,
    num_sp_units: u64,
}

impl Meta {
    fn decode(payload: &[u8]) -> Result<Meta> {
        let mut c = Cursor::new(payload);
        let ticks_per_unit = c.u64()?;
        let num_hash_functions = c.u32()?;
        let hash_seed = c.u64()?;
        let has_range = c.u8()?;
        let raw_range = c.u64()?;
        match c.u8()? {
            PATH_MAX_HASHER => {}
            other => return Err(corrupt(&format!("unknown hasher mode {other}"))),
        }
        let resolved_range = c.u64()?;
        let sp_height = c.u8()?;
        let tree_levels = c.u8()?;
        let num_entities = c.u64()?;
        let num_nodes = c.u64()?;
        let num_sp_units = c.u64()?;
        c.expect_end().map_err(IndexError::from)?;
        if ticks_per_unit == 0 {
            return Err(corrupt("ticks_per_unit must be positive"));
        }
        if num_hash_functions == 0 {
            return Err(corrupt("num_hash_functions must be positive"));
        }
        if resolved_range < 2 {
            return Err(corrupt("resolved hash range must be at least 2"));
        }
        if sp_height == 0 || tree_levels != sp_height {
            return Err(corrupt(&format!(
                "hierarchy height {sp_height} and tree level count {tree_levels} are inconsistent"
            )));
        }
        let hash_range = match has_range {
            0 => None,
            1 => Some(raw_range),
            other => return Err(corrupt(&format!("invalid hash_range flag {other}"))),
        };
        let config = IndexConfig { num_hash_functions, hash_seed, hash_range };
        config.validate()?;
        Ok(Meta {
            ticks_per_unit,
            config,
            resolved_range,
            sp_height,
            tree_levels,
            num_entities,
            num_nodes,
            num_sp_units,
        })
    }
}

/// Decodes the `SYN` segment, validating it against the `META` announcements
/// (the hot ids are checked against the loaded sequences afterwards).  The
/// recorded epoch is reset to 0, matching the handle's open semantics.
fn decode_synopsis(payload: &[u8], meta: &Meta) -> Result<Synopsis> {
    let mut c = Cursor::new(payload);
    let sketch_size = c.u64()? as usize;
    let num_levels = c.u32()? as usize;
    if num_levels != meta.tree_levels as usize {
        return Err(corrupt(&format!(
            "synopsis covers {num_levels} levels but the tree has {}",
            meta.tree_levels
        )));
    }
    let mut level_caps = Vec::with_capacity(num_levels);
    for _ in 0..num_levels {
        level_caps.push(c.u64()? as usize);
    }
    let num_entities = c.u64()?;
    if num_entities != meta.num_entities {
        return Err(corrupt(&format!(
            "synopsis summarises {num_entities} entities but META announces {}",
            meta.num_entities
        )));
    }
    let hot_len = c.u32()? as usize;
    if hot_len > sketch_size || hot_len as u64 > num_entities {
        return Err(corrupt(&format!(
            "synopsis sketch holds {hot_len} entities (sketch size {sketch_size}, \
             population {num_entities})"
        )));
    }
    let mut hot_entities = Vec::with_capacity(hot_len.min(1 << 20));
    for _ in 0..hot_len {
        hot_entities.push(EntityId(c.u64()?));
    }
    c.expect_end().map_err(IndexError::from)?;
    Ok(Synopsis::from_parts(0, sketch_size, level_caps, num_entities as usize, hot_entities))
}

fn decode_sp(meta: &Meta, payload: &[u8]) -> Result<trace_model::SpIndex> {
    if payload.len() as u64 != meta.num_sp_units * 4 {
        return Err(corrupt(&format!(
            "SP segment holds {} bytes for {} units",
            payload.len(),
            meta.num_sp_units
        )));
    }
    let mut builder = SpIndexBuilder::new(meta.sp_height);
    let mut c = Cursor::new(payload);
    for unit in 0..meta.num_sp_units as u32 {
        let parent = c.u32()?;
        let id = if parent == NO_PARENT {
            builder.add_top_unit()?
        } else {
            if parent >= unit {
                return Err(corrupt(&format!("unit {unit} lists later unit {parent} as parent")));
            }
            builder.add_child(parent)?
        };
        debug_assert_eq!(id, unit, "builder assigns dense ids in replay order");
    }
    Ok(builder.build()?)
}

fn encode_tree_chunk(nodes: &[Node]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
    for node in nodes {
        out.push(node.depth);
        out.extend_from_slice(&node.routing_index.to_le_bytes());
        out.extend_from_slice(&node.routing_value.to_le_bytes());
        out.extend_from_slice(&(node.children.len() as u32).to_le_bytes());
        for (&routing_index, &child) in &node.children {
            out.extend_from_slice(&routing_index.to_le_bytes());
            out.extend_from_slice(&child.to_le_bytes());
        }
        out.extend_from_slice(&(node.entities.len() as u32).to_le_bytes());
        for entity in &node.entities {
            out.extend_from_slice(&entity.raw().to_le_bytes());
        }
    }
    out
}

fn decode_tree_chunk(payload: &[u8], meta: &Meta, nodes: &mut Vec<Node>) -> Result<()> {
    let mut c = Cursor::new(payload);
    let count = c.u32()? as usize;
    for _ in 0..count {
        if nodes.len() as u64 >= meta.num_nodes {
            return Err(corrupt("more tree nodes than META announced"));
        }
        let depth = c.u8()?;
        let routing_index = c.u32()?;
        let routing_value = c.u64()?;
        let num_children = c.u32()? as usize;
        let mut children = BTreeMap::new();
        for _ in 0..num_children {
            let key = c.u32()?;
            let child: NodeId = c.u32()?;
            if children.insert(key, child).is_some() {
                return Err(corrupt(&format!("duplicate child routing index {key}")));
            }
        }
        let num_entities = c.u32()? as usize;
        let mut entities = Vec::with_capacity(num_entities.min(1 << 20));
        for _ in 0..num_entities {
            entities.push(EntityId(c.u64()?));
        }
        nodes.push(Node { depth, routing_index, routing_value, children, entities });
    }
    c.expect_end().map_err(IndexError::from)
}

fn decode_entity_chunk(
    payload: &[u8],
    meta: &Meta,
    sp: &trace_model::SpIndex,
    sequences: &mut BTreeMap<EntityId, CellSetSequence>,
    signatures: &mut BTreeMap<EntityId, SignatureList>,
) -> Result<()> {
    let width = meta.config.num_hash_functions as usize;
    let levels = meta.tree_levels as usize;
    let mut c = Cursor::new(payload);
    let count = c.u32()? as usize;
    for _ in 0..count {
        if sequences.len() as u64 >= meta.num_entities {
            return Err(corrupt("more entities than META announced"));
        }
        let entity = EntityId(c.u64()?);
        let num_cells = c.u32()? as usize;
        let mut cells = Vec::with_capacity(num_cells.min(1 << 20));
        for _ in 0..num_cells {
            cells.push(StCell::from_packed(c.u64()?));
        }
        let base = CellSet::from_cells(cells);
        if base.len() != num_cells {
            return Err(corrupt(&format!("base cells of {entity} are not sorted-unique")));
        }
        let seq = CellSetSequence::from_base_cells(sp, &base)?;
        let mut sig_levels = Vec::with_capacity(levels);
        for _ in 0..levels {
            let mut level = Vec::with_capacity(width);
            for _ in 0..width {
                level.push(c.u64()?);
            }
            sig_levels.push(level);
        }
        let sig = SignatureList::from_levels(sig_levels);
        if sequences.insert(entity, seq).is_some() {
            return Err(corrupt(&format!("{entity} stored twice")));
        }
        signatures.insert(entity, sig);
    }
    c.expect_end().map_err(IndexError::from)
}

fn corrupt(msg: &str) -> IndexError {
    IndexError::from(SegmentError::Malformed(msg.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{
        file_digest, ShardedMinSigIndex, PARTITION_VERSION, SHARD_MANIFEST_FILE,
        SHARD_MANIFEST_MAGIC, SHARD_MANIFEST_VERSION, TAG_MANIFEST,
    };
    use trace_model::{Period, PresenceInstance, SpIndex, TraceSet};

    fn sample_index(entities: u64) -> (SpIndex, TraceSet, MinSigIndex) {
        let sp = SpIndex::uniform(3, &[4, 4]).unwrap();
        let base = sp.base_units().to_vec();
        let mut traces = TraceSet::new(60);
        for e in 0..entities {
            for step in 0..5u64 {
                let unit = base[((e * 11 + step * 3) % base.len() as u64) as usize];
                let start = step * 240 + e % 7 * 30;
                traces.record(PresenceInstance::new(
                    EntityId(e),
                    unit,
                    Period::new(start, start + 60).unwrap(),
                ));
            }
        }
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::with_hash_functions(24)).unwrap();
        (sp, traces, index)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("persist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn save_open_round_trips_structure_and_answers() {
        let (sp, _traces, index) = sample_index(40);
        let path = temp_path("round-trip.msix");
        index.save(&path).unwrap();
        let reopened = MinSigIndex::open(&path).unwrap();

        assert_eq!(reopened.num_entities(), index.num_entities());
        assert_eq!(reopened.tree().num_nodes(), index.tree().num_nodes());
        assert_eq!(reopened.config(), index.config());
        assert_eq!(reopened.ticks_per_unit(), index.ticks_per_unit());
        assert_eq!(reopened.hasher().range(), index.hasher().range());
        assert_eq!(reopened.epoch(), 0);
        for entity in index.sequences().keys() {
            assert_eq!(reopened.sequence(*entity), index.sequence(*entity));
            assert_eq!(reopened.snapshot().signature(*entity), index.snapshot().signature(*entity));
        }

        let measure = trace_model::PaperAdm::default_for(sp.height() as usize);
        for query in [0u64, 7, 19, 33] {
            let (a, _) = index.top_k(EntityId(query), 5, &measure).unwrap();
            let (b, _) = reopened.top_k(EntityId(query), 5, &measure).unwrap();
            assert_eq!(a, b, "answers must be bit-identical after reload");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reload_preserves_post_removal_tree_state() {
        let (sp, _traces, mut index) = sample_index(20);
        index.remove_entity(EntityId(3)).unwrap();
        index.remove_entity(EntityId(12)).unwrap();
        let path = temp_path("post-removal.msix");
        index.save(&path).unwrap();
        let reopened = MinSigIndex::open(&path).unwrap();
        // Stale lower-bound routing values and empty leaves survive verbatim.
        assert_eq!(reopened.tree().num_nodes(), index.tree().num_nodes());
        assert_eq!(reopened.num_entities(), 18);
        assert!(!reopened.contains(EntityId(3)));
        let measure = trace_model::PaperAdm::default_for(sp.height() as usize);
        let (a, _) = index.top_k(EntityId(0), 4, &measure).unwrap();
        let (b, _) = reopened.top_k(EntityId(0), 4, &measure).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_index_round_trips() {
        let sp = SpIndex::uniform(2, &[2]).unwrap();
        let traces = TraceSet::new(60);
        let index = MinSigIndex::build(&sp, &traces, IndexConfig::default()).unwrap();
        let path = temp_path("empty.msix");
        index.save(&path).unwrap();
        let reopened = MinSigIndex::open(&path).unwrap();
        assert_eq!(reopened.num_entities(), 0);
        assert_eq!(reopened.tree().num_nodes(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_and_corruption_are_reported() {
        let (_sp, _traces, index) = sample_index(30);
        let path = temp_path("corrupt.msix");
        index.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Truncation at every interesting boundary.
        for cut in [0, 4, 8, bytes.len() / 2, bytes.len() - 5] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = MinSigIndex::open(&path).unwrap_err();
            assert!(
                matches!(err, IndexError::Corrupt(_)),
                "cut at {cut} gave {err:?} instead of Corrupt"
            );
        }

        // A flipped payload bit fails its segment checksum.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(MinSigIndex::open(&path).unwrap_err(), IndexError::Corrupt(_)));

        // Wrong magic.
        let mut wrong = bytes.clone();
        wrong[0] = b'Z';
        std::fs::write(&path, &wrong).unwrap();
        assert!(matches!(MinSigIndex::open(&path).unwrap_err(), IndexError::Corrupt(_)));

        // The intact file still opens.
        std::fs::write(&path, &bytes).unwrap();
        MinSigIndex::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn synopsis_round_trips_including_custom_sketch_size() {
        let (_sp, _traces, mut index) = sample_index(30);
        index.set_synopsis_sketch_size(5);
        let path = temp_path("synopsis.msix");
        index.save(&path).unwrap();
        let reopened = MinSigIndex::open(&path).unwrap();
        assert_eq!(reopened.snapshot().synopsis(), index.snapshot().synopsis());
        assert_eq!(reopened.snapshot().synopsis().sketch_size(), 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn inconsistent_synopsis_segments_are_rejected() {
        let (_sp, _traces, index) = sample_index(20);
        let path = temp_path("bad-synopsis.msix");
        index.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Re-encode the file with a tampered SYN payload for each failure
        // mode: wrong entity count, wrong level count, unindexed hot id.
        let tamper = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut reader =
                segment::SegmentReader::new(bytes.as_slice(), INDEX_MAGIC, INDEX_VERSION).unwrap();
            let mut writer =
                segment::SegmentWriter::new(Vec::new(), INDEX_MAGIC, INDEX_VERSION).unwrap();
            while let Some((tag, mut payload)) = reader.next_segment().unwrap() {
                if tag == TAG_SYN {
                    edit(&mut payload);
                }
                writer.write_segment(tag, &payload).unwrap();
            }
            let tampered = writer.finish().unwrap();
            std::fs::write(&path, &tampered).unwrap();
            MinSigIndex::open(&path).unwrap_err()
        };

        let levels = index.tree().levels() as usize;
        // num_entities sits after sketch size (8), level count (4), caps.
        let count_offset = 12 + levels * 8;
        let err = tamper(&|p: &mut Vec<u8>| p[count_offset] ^= 0xFF);
        assert!(matches!(err, IndexError::Corrupt(_)), "wrong entity count: {err:?}");
        let err = tamper(&|p: &mut Vec<u8>| p[8] ^= 0x01);
        assert!(matches!(err, IndexError::Corrupt(_)), "wrong level count: {err:?}");
        // A tampered capacity cap (the one answer-relevant field: an
        // understated cap could make the planner skip a contributing shard)
        // must be refused, not planned against.
        let err = tamper(&|p: &mut Vec<u8>| p[12] ^= 0x3F);
        assert!(matches!(err, IndexError::Corrupt(_)), "wrong capacity cap: {err:?}");
        // First hot id: after count (8) + hot_len (4).
        let hot_offset = count_offset + 12;
        let err = tamper(&|p: &mut Vec<u8>| p[hot_offset] = 0xEE);
        assert!(matches!(err, IndexError::Corrupt(_)), "unindexed hot id: {err:?}");

        std::fs::write(&path, &bytes).unwrap();
        MinSigIndex::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_checkpoint_lsn_round_trips() {
        let (_sp, _traces, index) = sample_index(10);
        let path = temp_path("wal-lsn.msix");
        let bytes = index.snapshot().to_bytes_with_lsn(78).unwrap();
        let (_, lsn) = IndexSnapshot::open_from_bytes_with_lsn(&bytes).unwrap();
        assert_eq!(lsn, 78);
        // A plain (non-durable) save stamps LSN 0.
        index.save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        let (_, lsn) = IndexSnapshot::open_from_bytes_with_lsn(&saved).unwrap();
        assert_eq!(lsn, 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// `index`'s file image with its `META` payload passed through `edit`.
    fn doctored_meta(index: &MinSigIndex, edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
        let valid = index.to_bytes().unwrap();
        let mut reader =
            segment::SegmentReader::new(valid.as_slice(), INDEX_MAGIC, INDEX_VERSION).unwrap();
        let mut writer =
            segment::SegmentWriter::new(Vec::new(), INDEX_MAGIC, INDEX_VERSION).unwrap();
        while let Some((tag, mut payload)) = reader.next_segment().unwrap() {
            if tag == TAG_META {
                edit(&mut payload);
            }
            writer.write_segment(tag, &payload).unwrap();
        }
        writer.finish().unwrap()
    }

    /// A one-shard directory holding `image` as its shard file, under a
    /// manifest that vouches for it, so a sharded open gets as far as
    /// parsing the image.
    fn one_shard_dir(name: &str, image: &[u8], num_entities: usize) -> std::path::PathBuf {
        let dir = temp_path(name);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(ShardedMinSigIndex::shard_file_name(0)), image).unwrap();
        let mut manifest = Vec::new();
        manifest.extend_from_slice(&PARTITION_VERSION.to_le_bytes());
        manifest.extend_from_slice(&1u32.to_le_bytes());
        manifest.extend_from_slice(&(num_entities as u64).to_le_bytes());
        manifest.extend_from_slice(&file_digest(image).to_le_bytes());
        segment::atomic_write(
            &dir.join(SHARD_MANIFEST_FILE),
            SHARD_MANIFEST_MAGIC,
            SHARD_MANIFEST_VERSION,
            |w| w.write_segment(TAG_MANIFEST, &manifest),
        )
        .unwrap();
        dir
    }

    /// ROADMAP 1(d): `num_hash_functions` sizes the seed table and every
    /// signature row, so a `META` claiming `u32::MAX` of them — CRC valid —
    /// must be refused before anything is reserved for it, whether entity
    /// chunks follow or the file indexes no entity at all.  (Finishing under
    /// the test's memory is the assertion: the seeds alone would be 32 GiB.)
    #[test]
    fn absurd_hash_function_count_is_an_error_not_an_allocation() {
        let (sp, _traces, populated) = sample_index(12);
        let empty = MinSigIndex::build(&sp, &TraceSet::new(60), populated.config()).unwrap();
        for (name, index) in [("populated", &populated), ("empty", &empty)] {
            // num_hash_functions follows ticks_per_unit (8 bytes).
            let doctored = doctored_meta(index, |payload| {
                payload[8..12].copy_from_slice(&u32::MAX.to_le_bytes())
            });

            let path = temp_path(&format!("absurd-nh-{name}.msix"));
            std::fs::write(&path, &doctored).unwrap();
            assert!(IndexSnapshot::open(&path).is_err(), "{name}: snapshot open");
            assert!(MinSigIndex::open(&path).is_err(), "{name}: index open");
            std::fs::remove_file(&path).unwrap();

            let dir = one_shard_dir(
                &format!("absurd-nh-{name}-sharded"),
                &doctored,
                index.num_entities(),
            );
            let err = ShardedMinSigIndex::open(&dir).unwrap_err();
            assert!(matches!(err, IndexError::InvalidConfig(_)), "{name}: sharded open: {err:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// `META`'s hasher byte (payload offset 29, right after `hash_range`)
    /// names the hash rule, and only 1, PathMax, opens.  A 0 names the
    /// paper's min-over-children rule, whose signatures the tree search
    /// would misread, and a 2 names nothing: both are corrupt, unsharded or
    /// as a shard.  Byte 1 is what a build writes, and it answers as built.
    #[test]
    fn hasher_bytes_other_than_path_max_are_corrupt() {
        let (sp, _traces, index) = sample_index(24);
        let measure = trace_model::PaperAdm::default_for(sp.height() as usize);
        for byte in [0u8, 1, 2] {
            let doctored = doctored_meta(&index, |payload| payload[29] = byte);
            let path = temp_path(&format!("hasher-{byte}.msix"));
            std::fs::write(&path, &doctored).unwrap();
            let dir =
                one_shard_dir(&format!("hasher-{byte}-sharded"), &doctored, index.num_entities());
            let (single, sharded) = (MinSigIndex::open(&path), ShardedMinSigIndex::open(&dir));
            if byte == 1 {
                assert_eq!(doctored, index.to_bytes().unwrap(), "a build writes byte 1");
                let (single, sharded) = (single.unwrap(), sharded.unwrap());
                for query in [0u64, 9, 17] {
                    let (expect, _) = index.top_k(EntityId(query), 5, &measure).unwrap();
                    assert_eq!(single.top_k(EntityId(query), 5, &measure).unwrap().0, expect);
                    assert_eq!(sharded.top_k(EntityId(query), 5, &measure).unwrap().0, expect);
                }
            } else {
                let err = single.unwrap_err();
                assert!(matches!(err, IndexError::Corrupt(_)), "byte {byte}: index open: {err:?}");
                let err = sharded.unwrap_err();
                assert!(
                    matches!(err, IndexError::Corrupt(_)),
                    "byte {byte}: sharded open: {err:?}"
                );
            }
            std::fs::remove_file(&path).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = temp_path("does-not-exist.msix");
        assert!(matches!(MinSigIndex::open(&path).unwrap_err(), IndexError::Io(_)));
    }

    #[test]
    fn newer_format_versions_are_not_reported_as_corruption() {
        let path = temp_path("future-version.msix");
        segment::atomic_write(&path, INDEX_MAGIC, INDEX_VERSION + 1, |w| {
            w.write_segment(TAG_META, b"whatever a future build writes")?;
            Ok(())
        })
        .unwrap();
        let err = MinSigIndex::open(&path).unwrap_err();
        assert!(
            matches!(err, IndexError::UnsupportedVersion(_)),
            "a newer-format file must say 'upgrade', not 'corrupt': {err:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resident_bytes_exceeds_tree_only_accounting() {
        let (_sp, _traces, index) = sample_index(20);
        let snapshot = index.snapshot();
        assert!(
            snapshot.resident_bytes() > index.stats().index_bytes,
            "signatures + sequences must be counted on top of the tree"
        );
    }
}
