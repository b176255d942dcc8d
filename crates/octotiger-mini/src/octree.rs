//! The adaptive octree: refined around a binary-star shell.

use std::collections::HashMap;

/// Index of a tree node in the [`Octree`]'s node array.
pub type NodeId = usize;

/// One node of the octree.
#[derive(Debug, Clone)]
pub struct Node {
    /// Parent node (self for the root).
    pub parent: NodeId,
    /// Children ids; empty for leaves.
    pub children: Vec<NodeId>,
    /// Refinement level (root = 0).
    pub level: u32,
    /// Cell center in the unit cube.
    pub center: [f64; 3],
    /// Cell half-width.
    pub half: f64,
    /// Morton key of the cell's min corner at `level` resolution.
    pub morton: u64,
}

impl Node {
    /// Whether the node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// An adaptive octree over the unit cube `[0,1]^3`.
///
/// Refinement mimics Octo-Tiger's star-merger grids: cells are refined up
/// to `max_level` when they intersect either of two spherical shells (the
/// surfaces of the binary's stars), so resolution concentrates where the
/// physics happens and the tree stays far smaller than a uniform
/// `8^max_level` grid.
#[derive(Debug)]
pub struct Octree {
    nodes: Vec<Node>,
    leaves: Vec<NodeId>,
    /// Dense index of each node among the nodes of its kind (see
    /// [`Octree::leaf_index`] and [`Octree::internal_index`]).
    kind_index: Vec<usize>,
    /// Face-neighbour table in CSR form: the neighbours of node `id` are
    /// `nbr_ids[nbr_offsets[id]..nbr_offsets[id + 1]]` (empty for
    /// internal nodes).
    nbr_offsets: Vec<usize>,
    nbr_ids: Vec<NodeId>,
}

/// The binary-star refinement predicate: distance of the cell center to
/// either star center lies within the star's shell, padded by the cell
/// diagonal.
fn refine(center: [f64; 3], half: f64) -> bool {
    const STARS: [([f64; 3], f64); 2] = [([0.35, 0.5, 0.5], 0.18), ([0.68, 0.52, 0.5], 0.12)];
    let diag = half * 3f64.sqrt();
    STARS.iter().any(|(c, r)| {
        let d =
            ((center[0] - c[0]).powi(2) + (center[1] - c[1]).powi(2) + (center[2] - c[2]).powi(2))
                .sqrt();
        (d - r).abs() <= diag
    })
}

/// Integer cell coordinates of a node at its own level, decoded from its
/// Morton key: bit `k` of each 3-bit octant is axis `k`, and the last
/// octant appended (the node's own) is the least significant bit.
fn cell_coords(n: &Node) -> [u32; 3] {
    let mut xyz = [0u32; 3];
    for i in 0..n.level {
        let oct = (n.morton >> (3 * i)) & 7;
        for (k, c) in xyz.iter_mut().enumerate() {
            *c |= (((oct >> k) & 1) as u32) << i;
        }
    }
    xyz
}

/// Build the face-neighbour table in O(leaves): hash every leaf on
/// `(level, cell coordinates)`, probe each leaf's six face cells, and sort
/// each hit list into leaf order. A probe off the grid's edge wraps to a
/// coordinate no cell has, so it finds nothing.
fn face_neighbor_table(nodes: &[Node], leaves: &[NodeId]) -> (Vec<usize>, Vec<NodeId>) {
    let by_cell: HashMap<(u32, [u32; 3]), NodeId> =
        leaves.iter().map(|&l| ((nodes[l].level, cell_coords(&nodes[l])), l)).collect();
    let mut offsets = Vec::with_capacity(nodes.len() + 1);
    let mut ids = Vec::with_capacity(6 * leaves.len());
    offsets.push(0);
    for n in nodes {
        if n.is_leaf() {
            let xyz = cell_coords(n);
            let start = ids.len();
            for axis in 0..3 {
                for step in [-1, 1] {
                    let mut probe = xyz;
                    probe[axis] = probe[axis].wrapping_add_signed(step);
                    if let Some(&o) = by_cell.get(&(n.level, probe)) {
                        ids.push(o);
                    }
                }
            }
            ids[start..].sort_unstable();
        }
        offsets.push(ids.len());
    }
    (offsets, ids)
}

impl Octree {
    /// Build the tree refined to `max_level`.
    pub fn build(max_level: u32) -> Octree {
        let mut nodes = vec![Node {
            parent: 0,
            children: Vec::new(),
            level: 0,
            center: [0.5, 0.5, 0.5],
            half: 0.5,
            morton: 0,
        }];
        let mut frontier = vec![0usize];
        for level in 0..max_level {
            let mut next = Vec::new();
            for &id in &frontier {
                let (center, half) = (nodes[id].center, nodes[id].half);
                if level > 0 && !refine(center, half) {
                    continue;
                }
                let qh = half / 2.0;
                for oct in 0..8u64 {
                    let dx = [(oct & 1) as f64, ((oct >> 1) & 1) as f64, ((oct >> 2) & 1) as f64];
                    let c = [
                        center[0] + (dx[0] * 2.0 - 1.0) * qh,
                        center[1] + (dx[1] * 2.0 - 1.0) * qh,
                        center[2] + (dx[2] * 2.0 - 1.0) * qh,
                    ];
                    let child = Node {
                        parent: id,
                        children: Vec::new(),
                        level: level + 1,
                        center: c,
                        half: qh,
                        morton: (nodes[id].morton << 3) | oct,
                    };
                    let cid = nodes.len();
                    nodes.push(child);
                    nodes[id].children.push(cid);
                    next.push(cid);
                }
            }
            frontier = next;
        }
        let leaves: Vec<NodeId> = (0..nodes.len()).filter(|&i| nodes[i].is_leaf()).collect();
        let mut kind_index = vec![0; nodes.len()];
        for (i, &l) in leaves.iter().enumerate() {
            kind_index[l] = i;
        }
        for (i, id) in (0..nodes.len()).filter(|&id| !nodes[id].is_leaf()).enumerate() {
            kind_index[id] = i;
        }
        let (nbr_offsets, nbr_ids) = face_neighbor_table(&nodes, &leaves);
        Octree { nodes, leaves, kind_index, nbr_offsets, nbr_ids }
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Leaf ids in creation order.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Dense index of leaf `id`: its position in [`Octree::leaves`].
    pub fn leaf_index(&self, id: NodeId) -> usize {
        assert!(self.nodes[id].is_leaf(), "node {id} is not a leaf");
        self.kind_index[id]
    }

    /// Dense index of internal node `id` among the internal nodes, in id
    /// order (`0..internal_len()`).
    pub fn internal_index(&self, id: NodeId) -> usize {
        assert!(!self.nodes[id].is_leaf(), "node {id} is a leaf");
        self.kind_index[id]
    }

    /// Number of internal (non-leaf) nodes.
    pub fn internal_len(&self) -> usize {
        self.nodes.len() - self.leaves.len()
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is only a root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Deterministic "mass" of a leaf (stands in for the density field).
    pub fn leaf_mass(&self, id: NodeId) -> f64 {
        let n = &self.nodes[id];
        1.0 + (n.morton % 97) as f64 / 97.0
    }

    /// Face-adjacent same-level leaf neighbors of `id` (up to 6), in leaf
    /// (= `NodeId`) order. Two leaves are neighbors when they share a
    /// face: their cells sit one cell width apart along exactly one axis.
    /// Empty for internal nodes.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.nbr_ids[self.nbr_offsets[id]..self.nbr_offsets[id + 1]]
    }

    /// Exact sum of all leaf masses — the conserved quantity the FMM
    /// up-sweep must reproduce at the root.
    pub fn total_mass(&self) -> f64 {
        self.leaves.iter().map(|&l| self.leaf_mass(l)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_zero_is_root_only() {
        let t = Octree::build(0);
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.leaves(), &[0]);
    }

    #[test]
    fn level_one_is_uniform() {
        let t = Octree::build(1);
        assert_eq!(t.len(), 9);
        assert_eq!(t.leaves().len(), 8);
    }

    #[test]
    fn adaptivity_keeps_tree_small() {
        let t = Octree::build(5);
        let uniform = (0..=5).map(|l| 8usize.pow(l)).sum::<usize>();
        assert!(t.len() < uniform / 4, "adaptive tree {} vs uniform {}", t.len(), uniform);
        assert!(t.leaves().len() > 500, "still resolves the shells: {}", t.leaves().len());
    }

    #[test]
    fn parents_and_children_are_consistent() {
        let t = Octree::build(3);
        for (id, n) in t.nodes().iter().enumerate() {
            for &c in &n.children {
                assert_eq!(t.node(c).parent, id);
                assert_eq!(t.node(c).level, n.level + 1);
                assert!(t.node(c).half < n.half);
            }
            if id != 0 {
                assert!(t.node(n.parent).children.contains(&id));
            }
        }
    }

    #[test]
    fn morton_keys_unique_per_level() {
        let t = Octree::build(4);
        let mut seen = std::collections::HashSet::new();
        for n in t.nodes() {
            assert!(seen.insert((n.level, n.morton)), "duplicate morton key");
        }
    }

    /// The quadratic reference search: every other leaf of the same level
    /// whose center is one cell width away along exactly one axis.
    fn neighbors_oracle(t: &Octree, id: NodeId) -> Vec<NodeId> {
        let me = t.node(id);
        let w = me.half * 2.0;
        let eps = me.half * 0.1;
        t.leaves()
            .iter()
            .copied()
            .filter(|&o| o != id && t.node(o).level == me.level)
            .filter(|&o| {
                let c = &t.node(o).center;
                let d: Vec<f64> = (0..3).map(|k| (c[k] - me.center[k]).abs()).collect();
                let on_axis = d.iter().filter(|&&x| (x - w).abs() < eps).count();
                let zeros = d.iter().filter(|&&x| x < eps).count();
                on_axis == 1 && zeros == 2
            })
            .collect()
    }

    fn assert_table_matches_oracle(level: u32) {
        let t = Octree::build(level);
        for (id, n) in t.nodes().iter().enumerate() {
            if n.is_leaf() {
                assert_eq!(t.neighbors(id), neighbors_oracle(&t, id), "level {level} leaf {id}");
            } else {
                assert!(t.neighbors(id).is_empty(), "internal node {id} has neighbours");
            }
        }
    }

    #[test]
    fn neighbor_table_matches_quadratic_oracle() {
        for level in 0..=5 {
            assert_table_matches_oracle(level);
        }
    }

    #[test]
    #[ignore = "quadratic oracle at level 6 takes seconds in a debug build"]
    fn neighbor_table_matches_quadratic_oracle_level6() {
        assert_table_matches_oracle(6);
    }

    #[test]
    fn cell_coords_invert_the_morton_key() {
        let t = Octree::build(3);
        for n in t.nodes() {
            let cell = 1.0 / f64::from(1u32 << n.level);
            let xyz = cell_coords(n);
            for (c, x) in n.center.iter().zip(xyz) {
                assert_eq!(*c, (f64::from(x) + 0.5) * cell);
            }
        }
    }

    #[test]
    fn neighbors_are_symmetric_and_bounded() {
        let t = Octree::build(5);
        let mut pairs = 0;
        for &l in t.leaves() {
            let nb = t.neighbors(l);
            assert!(nb.len() <= 6);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
            for &o in nb {
                assert_ne!(o, l);
                assert!(t.neighbors(o).contains(&l), "neighbor relation must be symmetric");
            }
            pairs += nb.len();
        }
        assert_eq!(pairs, 12_408, "directed face-neighbour pairs at level 5");
    }

    #[test]
    fn kind_indices_are_dense() {
        let t = Octree::build(4);
        for (i, &l) in t.leaves().iter().enumerate() {
            assert_eq!(t.leaf_index(l), i);
        }
        let internal: Vec<NodeId> = (0..t.len()).filter(|&id| !t.node(id).is_leaf()).collect();
        assert_eq!(internal.len(), t.internal_len());
        for (i, &n) in internal.iter().enumerate() {
            assert_eq!(t.internal_index(n), i);
        }
    }

    #[test]
    fn mass_is_positive_and_deterministic() {
        let t1 = Octree::build(3);
        let t2 = Octree::build(3);
        assert_eq!(t1.total_mass(), t2.total_mass());
        assert!(t1.total_mass() > t1.leaves().len() as f64 * 0.99);
    }
}
