//! The MinSigTree (Section 4.2.2, Algorithm 1).
//!
//! The tree has `m` levels (one per sp-index level) below a virtual root.  A node
//! at depth `d` groups the entities whose level-`d` signature has its maximum at
//! the node's *routing index*; the node stores only that routing index and the
//! group minimum at it (the paper's space optimisation: materialise `SIG_N[u]`
//! only).  Leaves (depth `m`) hold the entity lists.
//!
//! The structure supports the incremental maintenance of Section 4.2.3: inserting
//! an entity re-routes it from the root (creating nodes as needed) and lowers the
//! stored values along the path; removal detaches the entity from its leaf and
//! leaves the stored values untouched, which keeps every stored value a lower
//! bound of the group minimum — exactly what pruning soundness requires.

use crate::signature::SignatureList;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use trace_model::{EntityId, Level};

/// Identifier of a node within a [`MinSigTree`].
pub(crate) type NodeId = u32;

/// One tree node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Node {
    /// Depth of the node: 0 for the virtual root, `1..=m` for real nodes.
    pub depth: Level,
    /// Routing index `u` of the group (0-based position in the signature).
    pub routing_index: u32,
    /// The group minimum at the routing index (`SIG_N[u]`).
    pub routing_value: u64,
    /// Children keyed by their routing index.
    pub children: BTreeMap<u32, NodeId>,
    /// Entities stored at this node (non-empty only at leaf depth `m`).
    pub entities: Vec<EntityId>,
}

impl Node {
    fn new(depth: Level, routing_index: u32, routing_value: u64) -> Self {
        Node {
            depth,
            routing_index,
            routing_value,
            children: BTreeMap::new(),
            entities: Vec::new(),
        }
    }
}

/// The MinSigTree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinSigTree {
    levels: Level,
    nodes: Vec<Node>,
    /// Leaf node of each indexed entity (for removal and update).
    leaf_of: BTreeMap<EntityId, NodeId>,
}

/// The virtual root is always node 0.
pub(crate) const ROOT: NodeId = 0;

impl MinSigTree {
    /// Creates an empty tree for an sp-index of the given height.
    pub(crate) fn new(levels: Level) -> Self {
        assert!(levels >= 1, "tree needs at least one level");
        MinSigTree { levels, nodes: vec![Node::new(0, 0, u64::MAX)], leaf_of: BTreeMap::new() }
    }

    /// Number of sp-index levels this tree was built for.
    pub fn levels(&self) -> Level {
        self.levels
    }

    /// Total number of nodes, including the virtual root.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of entities currently indexed.
    pub(crate) fn num_entities(&self) -> usize {
        self.leaf_of.len()
    }

    /// All nodes in id order, the virtual root first (used by the persistence
    /// layer to serialise the tree structurally).
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Reassembles a tree from its node arena (the inverse of
    /// [`MinSigTree::nodes`]).  The entity → leaf map is rebuilt from the leaf
    /// entity lists, and the structural invariants are re-checked; any
    /// inconsistency (duplicate entities, dangling children, wrong depths) is
    /// reported as an error instead of producing a broken tree.
    pub(crate) fn from_nodes(levels: Level, nodes: Vec<Node>) -> std::result::Result<Self, String> {
        if levels < 1 {
            return Err("tree needs at least one level".into());
        }
        if nodes.is_empty() {
            return Err("node arena is empty (missing virtual root)".into());
        }
        for node in &nodes {
            for &child in node.children.values() {
                if child as usize >= nodes.len() {
                    return Err(format!("child id {child} out of range ({})", nodes.len()));
                }
            }
        }
        let mut leaf_of = BTreeMap::new();
        for (id, node) in nodes.iter().enumerate() {
            for &entity in &node.entities {
                if leaf_of.insert(entity, id as NodeId).is_some() {
                    return Err(format!("{entity} appears in more than one leaf"));
                }
            }
        }
        let tree = MinSigTree { levels, nodes, leaf_of };
        tree.check_invariants()?;
        Ok(tree)
    }

    /// The leaf node currently holding an entity, if indexed.
    pub(crate) fn leaf_of(&self, entity: EntityId) -> Option<NodeId> {
        self.leaf_of.get(&entity).copied()
    }

    /// An estimate of the tree's memory footprint in bytes: each node stores two
    /// integers (routing index and value) plus its child map entries; leaves add
    /// one entity id per entity (Section 7.8's accounting).
    pub fn size_bytes(&self) -> usize {
        let per_node = std::mem::size_of::<u32>() + std::mem::size_of::<u64>();
        let child_entries: usize = self.nodes.iter().map(|n| n.children.len()).sum();
        let entity_entries: usize = self.nodes.iter().map(|n| n.entities.len()).sum();
        self.nodes.len() * per_node
            + child_entries * (std::mem::size_of::<u32>() + std::mem::size_of::<NodeId>())
            + entity_entries * std::mem::size_of::<EntityId>()
    }

    /// Inserts (or re-inserts) an entity with the given signatures, returning the
    /// leaf it was placed in.  If the entity is already present it is removed
    /// first, so the operation is idempotent under identical signatures.
    pub(crate) fn insert(&mut self, entity: EntityId, sig: &SignatureList) -> NodeId {
        debug_assert_eq!(sig.num_levels(), self.levels as usize);
        if self.leaf_of.contains_key(&entity) {
            self.remove(entity);
        }
        let mut current = ROOT;
        for depth in 1..=self.levels {
            let routing_index = sig.routing_index(depth);
            let value = sig.value(depth, routing_index);
            let next = match self.nodes[current as usize].children.get(&routing_index) {
                Some(&child) => {
                    // Keep the stored value the group minimum.
                    let child_node = &mut self.nodes[child as usize];
                    if value < child_node.routing_value {
                        child_node.routing_value = value;
                    }
                    child
                }
                None => {
                    let id = self.nodes.len() as NodeId;
                    self.nodes.push(Node::new(depth, routing_index, value));
                    self.nodes[current as usize].children.insert(routing_index, id);
                    id
                }
            };
            current = next;
        }
        self.nodes[current as usize].entities.push(entity);
        self.leaf_of.insert(entity, current);
        current
    }

    /// Removes an entity from its leaf.  Stored routing values are *not*
    /// recomputed (they stay lower bounds, which is sound); empty leaves are kept
    /// and simply never produce candidates.
    ///
    /// Returns `true` when the entity was present.
    pub(crate) fn remove(&mut self, entity: EntityId) -> bool {
        let Some(leaf) = self.leaf_of.remove(&entity) else { return false };
        let entities = &mut self.nodes[leaf as usize].entities;
        if let Some(pos) = entities.iter().position(|&e| e == entity) {
            entities.swap_remove(pos);
        }
        true
    }

    /// Iterates every indexed entity.
    pub(crate) fn entities(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.leaf_of.keys().copied()
    }

    /// Verifies the structural invariants (used by tests and debug assertions):
    /// child depth is parent depth + 1, entities only at leaves, stored values are
    /// lower bounds of their subtree entities' signature values.
    pub(crate) fn check_invariants(&self) -> std::result::Result<(), String> {
        for (id, node) in self.nodes.iter().enumerate() {
            for (&ri, &child) in &node.children {
                let child_node = &self.nodes[child as usize];
                if child_node.depth != node.depth + 1 {
                    return Err(format!("child {child} of node {id} has wrong depth"));
                }
                if child_node.routing_index != ri {
                    return Err(format!("child {child} keyed under wrong routing index"));
                }
            }
            if node.depth != self.levels && !node.entities.is_empty() {
                return Err(format!("non-leaf node {id} holds entities"));
            }
        }
        for (&entity, &leaf) in &self.leaf_of {
            if !self.nodes[leaf as usize].entities.contains(&entity) {
                return Err(format!("leaf_of points {entity} at a leaf that does not hold it"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl MinSigTree {
    /// Builds the tree from the signatures of all entities (Algorithm 1).
    ///
    /// The recursive grouping of the paper is implemented as repeated single-entity
    /// insertion, which produces exactly the same tree because the routing index of
    /// an entity at each level depends only on its own signature, and group values
    /// are minima (order-independent).
    pub(crate) fn build<'a, I>(levels: Level, entities: I) -> Self
    where
        I: IntoIterator<Item = (EntityId, &'a SignatureList)>,
    {
        let mut tree = MinSigTree::new(levels);
        for (entity, sig) in entities {
            tree.insert(entity, sig);
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::tests::paper_hasher;
    use crate::signature::{HierarchicalHasher, SeededHashFamily, SignatureList};
    use trace_model::examples::PaperExample;
    use trace_model::{CellSet, CellSetSequence, SpIndex, StCell};

    fn paper_signatures() -> (PaperExample, Vec<(EntityId, SignatureList)>) {
        let (ex, hasher) = paper_hasher();
        let sigs = ex
            .entities
            .iter()
            .map(|(e, seq)| (*e, SignatureList::build(&ex.sp, &hasher, seq)))
            .collect();
        (ex, sigs)
    }

    /// Figure 4.1: the sample MinSigTree has N1 = {e_d} with value 3 and N2 =
    /// {e_a, e_b, e_c} with value 2 at level 1; at level 2, N21 = {e_a, e_c} (4)
    /// and N22 = {e_b} (5).  The thesis draws e_d's leaf under routing index 2
    /// with value 7, which follows from the Table 4.3 typo documented in
    /// `trace_model::examples::PaperExample::expected_signatures`; applying the
    /// Section 4.2.1 definition to Table 4.1 gives `sig^2_d = ⟨3, 2⟩`, so the leaf
    /// sits under routing index 1 with value 3.
    #[test]
    fn paper_example_figure_4_1() {
        let (_, sigs) = paper_signatures();
        let tree = MinSigTree::build(2, sigs.iter().map(|(e, s)| (*e, s)));
        tree.check_invariants().unwrap();
        assert_eq!(tree.num_entities(), 4);

        let root = &tree.nodes[ROOT as usize];
        assert_eq!(root.children.len(), 2);
        // N1: routing index 0 (paper's index 1), value 3, containing e_d.
        let n1 = &tree.nodes[root.children[&0] as usize];
        assert_eq!(n1.routing_value, 3);
        // N2: routing index 1 (paper's index 2), value 2 (min of 3, 3, 2).
        let n2 = &tree.nodes[root.children[&1] as usize];
        assert_eq!(n2.routing_value, 2);

        // Level 2 nodes.
        assert_eq!(n1.children.len(), 1);
        let n12 = &tree.nodes[n1.children[&0] as usize];
        assert_eq!(n12.routing_value, 3);
        assert_eq!(n12.entities, vec![EntityId(3)]);

        assert_eq!(n2.children.len(), 2);
        let n21 = &tree.nodes[n2.children[&0] as usize];
        assert_eq!(n21.routing_value, 4);
        let mut n21_entities = n21.entities.clone();
        n21_entities.sort();
        assert_eq!(n21_entities, vec![EntityId(0), EntityId(2)]);
        let n22 = &tree.nodes[n2.children[&1] as usize];
        assert_eq!(n22.routing_value, 5);
        assert_eq!(n22.entities, vec![EntityId(1)]);
    }

    fn random_signatures(n: usize, sp: &SpIndex, nh: u32) -> Vec<(EntityId, SignatureList)> {
        let hasher = HierarchicalHasher::new(SeededHashFamily::new(nh, 1, 100_000));
        (0..n)
            .map(|i| {
                let cells: Vec<StCell> = (0..(i % 7 + 1))
                    .map(|j| {
                        StCell::new(j as u32, sp.base_units()[(i * 3 + j) % sp.num_base_units()])
                    })
                    .collect();
                let seq =
                    CellSetSequence::from_base_cells(sp, &CellSet::from_cells(cells)).unwrap();
                (EntityId(i as u64), SignatureList::build(sp, &hasher, &seq))
            })
            .collect()
    }

    #[test]
    fn build_indexes_every_entity_exactly_once() {
        let sp = SpIndex::uniform(3, &[4, 4]).unwrap();
        let sigs = random_signatures(100, &sp, 16);
        let tree = MinSigTree::build(3, sigs.iter().map(|(e, s)| (*e, s)));
        tree.check_invariants().unwrap();
        assert_eq!(tree.num_entities(), 100);
        let leaf_total: usize = tree.nodes.iter().map(|n| n.entities.len()).sum();
        assert_eq!(leaf_total, 100);
        // Every entity's recorded leaf actually holds it.
        for (e, _) in &sigs {
            let leaf = tree.leaf_of(*e).unwrap();
            assert!(tree.nodes[leaf as usize].entities.contains(e));
        }
    }

    #[test]
    fn node_count_is_bounded_by_entities_times_levels_plus_root() {
        let sp = SpIndex::uniform(3, &[4, 4]).unwrap();
        let sigs = random_signatures(60, &sp, 8);
        let tree = MinSigTree::build(3, sigs.iter().map(|(e, s)| (*e, s)));
        assert!(tree.num_nodes() <= 60 * 3 + 1, "size bound of Section 4.3");
        assert!(tree.size_bytes() > 0);
    }

    #[test]
    fn stored_values_lower_bound_member_signatures() {
        let sp = SpIndex::uniform(2, &[5, 5]).unwrap();
        let sigs = random_signatures(80, &sp, 12);
        let tree = MinSigTree::build(3, sigs.iter().map(|(e, s)| (*e, s)));
        // Walk each entity's path and check the stored value at each depth.
        for (e, sig) in &sigs {
            let mut current = ROOT;
            for depth in 1..=3u8 {
                let ri = sig.routing_index(depth);
                let child = tree.nodes[current as usize].children[&ri];
                let node = &tree.nodes[child as usize];
                assert!(node.routing_value <= sig.value(depth, ri));
                current = child;
            }
            assert_eq!(tree.leaf_of(*e), Some(current));
        }
    }

    #[test]
    fn remove_detaches_entity_and_keeps_invariants() {
        let sp = SpIndex::uniform(2, &[4, 3]).unwrap();
        let sigs = random_signatures(30, &sp, 8);
        let mut tree = MinSigTree::build(3, sigs.iter().map(|(e, s)| (*e, s)));
        assert!(tree.remove(EntityId(5)));
        assert!(!tree.remove(EntityId(5)), "double removal is a no-op");
        assert_eq!(tree.num_entities(), 29);
        assert!(tree.leaf_of(EntityId(5)).is_none());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn reinsert_moves_entity_to_a_new_leaf() {
        let sp = SpIndex::uniform(2, &[4, 3]).unwrap();
        let sigs = random_signatures(20, &sp, 8);
        let mut tree = MinSigTree::build(3, sigs.iter().map(|(e, s)| (*e, s)));
        let before = tree.leaf_of(EntityId(0)).unwrap();
        // Re-insert entity 0 with entity 13's signature; it should land in 13's leaf.
        tree.insert(EntityId(0), &sigs[13].1);
        let after = tree.leaf_of(EntityId(0)).unwrap();
        assert_eq!(after, tree.leaf_of(EntityId(13)).unwrap());
        assert_ne!(before, after);
        assert_eq!(tree.num_entities(), 20);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn from_nodes_round_trips_and_validates() {
        let sp = SpIndex::uniform(3, &[4, 4]).unwrap();
        let sigs = random_signatures(50, &sp, 8);
        let tree = MinSigTree::build(3, sigs.iter().map(|(e, s)| (*e, s)));

        let rebuilt = MinSigTree::from_nodes(tree.levels(), tree.nodes().to_vec()).unwrap();
        assert_eq!(rebuilt.num_nodes(), tree.num_nodes());
        assert_eq!(rebuilt.num_entities(), tree.num_entities());
        for (e, _) in &sigs {
            assert_eq!(rebuilt.leaf_of(*e), tree.leaf_of(*e));
        }

        // A duplicated entity is rejected.
        let mut nodes = tree.nodes().to_vec();
        let victim = nodes
            .iter()
            .position(|n| {
                n.depth == 3 && !n.entities.is_empty() && !n.entities.contains(&EntityId(0))
            })
            .unwrap();
        nodes[victim].entities.push(EntityId(0));
        assert!(MinSigTree::from_nodes(3, nodes).is_err());

        // A dangling child id is rejected.
        let mut nodes = tree.nodes().to_vec();
        nodes[0].children.insert(999, 10_000);
        assert!(MinSigTree::from_nodes(3, nodes).is_err());
    }

    #[test]
    fn empty_tree_has_only_the_root() {
        let tree = MinSigTree::new(4);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.num_entities(), 0);
        assert!(tree.nodes.iter().all(|n| n.entities.is_empty()));
        tree.check_invariants().unwrap();
    }
}
