//! The FMM-shaped step: M2M up-sweep, M2L neighbor exchange, L2L
//! down-sweep, and a completion reduction — all expressed as HPX actions.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use amt::action::{ActionId, ActionRegistry};
use amt::codec::{Reader, Writer};
use amt::Locality;
use bytes::Bytes;
use simcore::{Sim, SimTime};

use crate::octree::{NodeId, Octree};
use crate::sfc::Partition;

/// Virtual-time compute charges (ns) for the physics stand-ins.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    /// Computing a leaf's multipole from its density field.
    pub leaf_multipole: u64,
    /// Aggregating one internal node's multipole (M2M kernel).
    pub m2m: u64,
    /// Applying one received neighbor multipole (M2L kernel).
    pub m2l: u64,
    /// Final leaf update once expansions are complete.
    pub leaf_update: u64,
    /// Hydro ghost-zone payload exchanged between face-adjacent leaves,
    /// bytes. Octo-Tiger's hydro solver ships subgrid boundary slabs —
    /// this is the application's large-message (zero-copy) traffic.
    /// Zero disables the hydro phase.
    pub ghost_bytes: usize,
    /// Hydro update once all ghost zones arrived.
    pub hydro_update: u64,
}

impl Default for ComputeModel {
    fn default() -> Self {
        // Chosen so that at small node counts compute dominates and at
        // larger node counts communication becomes the bottleneck —
        // the strong-scaling regime the paper studies. 12 KiB ghosts sit
        // above the 8 KiB zero-copy threshold, so the application mixes
        // small latency-bound FMM messages with zero-copy rendezvous
        // traffic — the "small and large messages" cocktail of §1.
        ComputeModel {
            leaf_multipole: 25_000,
            m2m: 4_000,
            m2l: 1_500,
            leaf_update: 12_000,
            ghost_bytes: 12 * 1024,
            hydro_update: 15_000,
        }
    }
}

/// Per-step, per-locality mutable state. Each vector covers every node of
/// one kind in the whole tree, indexed by [`Octree::internal_index`] or
/// [`Octree::leaf_index`]; only the entries of nodes this locality owns
/// are meaningful, and the handlers check ownership before touching one.
struct StepState {
    /// Internal node -> (children still missing, mass accum, weighted center).
    pending_children: Vec<(usize, f64, [f64; 3])>,
    /// Leaf -> neighbor multipoles still missing.
    pending_neighbors: Vec<usize>,
    /// Leaf -> hydro ghost zones still missing.
    pending_ghosts: Vec<usize>,
    /// Leaf -> received the L2L expansion.
    got_l2l: Vec<bool>,
    /// Leaves fully finished this step.
    leaves_done: usize,
}

/// Shared per-locality application state.
pub struct AppState {
    tree: Rc<Octree>,
    part: Rc<Partition>,
    me: usize,
    my_leaves: Vec<NodeId>,
    step: StepState,
    /// Locality-0 only: localities that reported completion this step.
    locs_done: usize,
    /// Locality-0 only: sum of reported leaf-mass checksums this step.
    mass_checksum: f64,
    /// Completed step count (driver reads this).
    pub steps_completed: u32,
    /// Steps to run.
    pub steps_target: u32,
    /// Root multipole mass observed each step (invariant check).
    pub last_root_mass: f64,
    /// Checksum invariant validity across all steps so far.
    pub mass_ok: bool,
    compute: ComputeModel,
    /// When the final step completed (locality 0).
    pub finished_at: SimTime,
}

/// Action ids bundled for the step driver.
#[derive(Debug, Clone, Copy)]
pub struct Actions {
    /// Begin a step on a locality.
    pub step_start: ActionId,
    /// Child multipole contribution to a parent.
    pub m2m: ActionId,
    /// Neighbor multipole contribution to a leaf.
    pub m2l: ActionId,
    /// Local expansion pushed down to a node.
    pub l2l: ActionId,
    /// Hydro ghost-zone slab for a leaf.
    pub ghost: ActionId,
    /// A locality finished all its leaves (to locality 0).
    pub loc_done: ActionId,
}

fn encode_m2m(node: NodeId, mass: f64, center: [f64; 3]) -> Bytes {
    let mut w = Writer::new();
    w.put_u64(node as u64);
    w.put_f64(mass);
    for c in center {
        w.put_f64(c);
    }
    w.finish()
}

fn decode_m2m(b: &[u8]) -> (NodeId, f64, [f64; 3]) {
    let mut r = Reader::new(b);
    let node = r.get_u64() as usize;
    let mass = r.get_f64();
    let center = [r.get_f64(), r.get_f64(), r.get_f64()];
    (node, mass, center)
}

/// Bytes of a ghost-zone header: target leaf, then source leaf, both
/// `u64` little-endian.
const GHOST_HEADER: usize = 16;

/// The fill byte of a ghost slab sent by leaf `src`.
fn ghost_fill(src: NodeId) -> u8 {
    (src % 251) as u8
}

/// A ghost zone from leaf `src` for leaf `target`, `len` bytes long: the
/// header, then `src`'s fill byte. A same-locality ghost is the header
/// alone. HPX runs a local action as a task spawn, with nothing
/// serialized, and Octo-Tiger reads a local neighbour's subgrid in
/// place. A remote ghost is the whole boundary slab, the payload the
/// network carries. The slab is one allocation: it is filled in place as
/// an `Arc<[u8]>`, and the `Bytes` handle shares it.
fn encode_ghost(target: NodeId, src: NodeId, len: usize) -> Bytes {
    let mut slab: Arc<[u8]> = std::iter::repeat_n(ghost_fill(src), len).collect();
    let header = Arc::get_mut(&mut slab).expect("a fresh slab has one owner");
    header[..8].copy_from_slice(&(target as u64).to_le_bytes());
    header[8..GHOST_HEADER].copy_from_slice(&(src as u64).to_le_bytes());
    Bytes::from(slab)
}

impl AppState {
    /// Reset the per-step counters of every owned node in place.
    fn reset_step(&mut self) {
        let ghosts_on = self.compute.ghost_bytes > 0;
        let (tree, step) = (&self.tree, &mut self.step);
        for (id, n) in tree.nodes().iter().enumerate() {
            if self.part.owner(id) != self.me {
                continue;
            }
            if n.is_leaf() {
                let (i, nbrs) = (tree.leaf_index(id), tree.neighbors(id).len());
                step.pending_neighbors[i] = nbrs;
                step.pending_ghosts[i] = if ghosts_on { nbrs } else { 0 };
                step.got_l2l[i] = false;
            } else {
                step.pending_children[tree.internal_index(id)] = (n.children.len(), 0.0, [0.0; 3]);
            }
        }
        step.leaves_done = 0;
    }

    /// Whether this locality owns `id`. An action addressed to a node
    /// owned elsewhere is a routing bug, and the handlers panic on it.
    fn owns(&self, id: NodeId) -> bool {
        self.part.owner(id) == self.me
    }
}

/// Register the FMM actions over `states` (one [`AppState`] per locality,
/// indexed by locality id). Returns the action handles, and publishes them
/// into `actions_out`, where the registered closures look them up.
pub fn register_actions(
    registry: &mut ActionRegistry,
    states: Rc<Vec<Rc<RefCell<AppState>>>>,
    actions_out: Rc<RefCell<Option<Actions>>>,
) -> Actions {
    let st = states.clone();
    let ids = actions_out.clone();
    let step_start = registry.register("octo.step_start", move |sim, loc, core, _p| {
        // NOTE: per-step counters were already reset when this locality
        // finished its previous step (see `finish_leaf`) — resetting here
        // would race against early arrivals from faster localities.
        let state = st[loc.id].clone();
        let acts = registered(&ids);
        let (leaves, leaf_cost) = {
            let s = state.borrow();
            (s.my_leaves.clone(), s.compute.leaf_multipole)
        };
        // One task per owned leaf: compute the multipole, then send M2M
        // to the parent and M2L to each neighbor.
        let mut t = sim.now();
        for leaf in leaves {
            let state = state.clone();
            t = loc.spawn(
                sim,
                core,
                Box::new(move |sim, loc, core| {
                    let mut t = sim.now() + leaf_cost;
                    let (tree, part, ghost_bytes) = {
                        let s = state.borrow();
                        (s.tree.clone(), s.part.clone(), s.compute.ghost_bytes)
                    };
                    let mass = tree.leaf_mass(leaf);
                    let center = tree.node(leaf).center;
                    let parent = tree.node(leaf).parent;
                    let payload = encode_m2m(parent, mass, center);
                    t = loc.apply(sim, core, part.owner(parent), acts.m2m, payload).max(t);
                    for &nb in tree.neighbors(leaf) {
                        let dest = part.owner(nb);
                        let payload = encode_m2m(nb, mass, center);
                        t = loc.apply(sim, core, dest, acts.m2l, payload).max(t);
                        if ghost_bytes > 0 {
                            // Hydro ghost zone: the boundary slab only
                            // if it crosses the network (`encode_ghost`).
                            let len = if dest == loc.id { GHOST_HEADER } else { ghost_bytes };
                            let slab = encode_ghost(nb, leaf, len);
                            t = loc.apply(sim, core, dest, acts.ghost, slab).max(t);
                        }
                    }
                    t
                }),
            );
        }
        t
    });

    let st = states.clone();
    let ids = actions_out.clone();
    let m2m = registry.register("octo.m2m", move |sim, loc, core, p| {
        let state = st[loc.id].clone();
        let (node, mass, center) = decode_m2m(&p.args[0]);
        let mut t = sim.now();
        // Accumulate; if the node's multipole is now complete, pass it up
        // (or start the down-sweep at the root).
        let complete = {
            let mut s = state.borrow_mut();
            assert!(s.owns(node), "m2m for non-owned node {node}");
            t += s.compute.m2m;
            let i = s.tree.internal_index(node);
            let e = &mut s.step.pending_children[i];
            e.0 -= 1;
            e.1 += mass;
            for (acc, c) in e.2.iter_mut().zip(center.iter()) {
                *acc += mass * c;
            }
            if e.0 == 0 {
                Some((e.1, e.2))
            } else {
                None
            }
        };
        if let Some((mass, wc)) = complete {
            let (tree, part) = {
                let s = state.borrow();
                (s.tree.clone(), s.part.clone())
            };
            let center = [wc[0] / mass, wc[1] / mass, wc[2] / mass];
            if node == 0 {
                // Root reached: record the invariant and broadcast L2L.
                let l2l = {
                    let mut s = state.borrow_mut();
                    s.last_root_mass = mass;
                    let expected = tree.total_mass();
                    if (mass - expected).abs() > 1e-6 * expected {
                        s.mass_ok = false;
                    }
                    registered(&ids).l2l
                };
                for &c in &tree.node(0).children {
                    let payload = encode_m2m(c, mass, center);
                    t = loc.apply(sim, core, part.owner(c), l2l, payload).max(t);
                }
            } else {
                let parent = tree.node(node).parent;
                let m2m_id = registered(&ids).m2m;
                let payload = encode_m2m(parent, mass, center);
                t = loc.apply(sim, core, part.owner(parent), m2m_id, payload).max(t);
            }
        }
        t
    });

    let st = states.clone();
    let ids = actions_out.clone();
    let m2l = registry.register("octo.m2l", move |sim, loc, core, p| {
        let state = st[loc.id].clone();
        let (leaf, _mass, _center) = decode_m2m(&p.args[0]);
        let mut t = sim.now();
        let ready = {
            let mut s = state.borrow_mut();
            assert!(s.owns(leaf), "m2l for non-owned leaf {leaf}");
            t += s.compute.m2l;
            let i = s.tree.leaf_index(leaf);
            let step = &mut s.step;
            step.pending_neighbors[i] -= 1;
            step.pending_neighbors[i] == 0 && step.got_l2l[i] && step.pending_ghosts[i] == 0
        };
        if ready {
            t = finish_leaf(sim, loc, core, &state, &ids, t);
        }
        t
    });

    let st = states.clone();
    let ids = actions_out.clone();
    let ghost = registry.register("octo.ghost", move |sim, loc, core, p| {
        let state = st[loc.id].clone();
        let slab = &p.args[0];
        let mut r = Reader::new(slab);
        let (leaf, src) = (r.get_u64() as usize, r.get_u64() as usize);
        let mut t = sim.now();
        let ready = {
            let mut s = state.borrow_mut();
            assert!(s.owns(leaf), "ghost for non-owned leaf {leaf}");
            if s.owns(src) {
                assert_eq!(
                    slab.len(),
                    GHOST_HEADER,
                    "same-locality ghost {src} -> {leaf} must be the {GHOST_HEADER} B header alone"
                );
            } else {
                let len = s.compute.ghost_bytes;
                assert_eq!(
                    slab.len(),
                    len,
                    "remote ghost {src} -> {leaf} must be the whole {len} B slab"
                );
                let end = slab[GHOST_HEADER..].last().copied();
                assert!(
                    end.is_none_or(|b| b == ghost_fill(src)),
                    "remote ghost {src} -> {leaf} ends in {end:?}, not its fill {}",
                    ghost_fill(src)
                );
            }
            t += s.compute.m2l; // unpack the slab into the subgrid halo
            let i = s.tree.leaf_index(leaf);
            let step = &mut s.step;
            step.pending_ghosts[i] -= 1;
            step.pending_ghosts[i] == 0 && step.pending_neighbors[i] == 0 && step.got_l2l[i]
        };
        if ready {
            t = finish_leaf(sim, loc, core, &state, &ids, t);
        }
        t
    });

    let st = states.clone();
    let ids = actions_out.clone();
    let l2l = registry.register("octo.l2l", move |sim, loc, core, p| {
        let state = st[loc.id].clone();
        let (node, mass, center) = decode_m2m(&p.args[0]);
        let mut t = sim.now();
        let tree = state.borrow().tree.clone();
        if tree.node(node).is_leaf() {
            let ready = {
                let mut s = state.borrow_mut();
                assert!(s.owns(node), "l2l for non-owned leaf {node}");
                let i = tree.leaf_index(node);
                s.step.got_l2l[i] = true;
                s.step.pending_neighbors[i] == 0 && s.step.pending_ghosts[i] == 0
            };
            if ready {
                t = finish_leaf(sim, loc, core, &state, &ids, t);
            }
        } else {
            // Forward down the tree.
            let (part, l2l_id) = {
                let s = state.borrow();
                (s.part.clone(), registered(&ids).l2l)
            };
            t += state.borrow().compute.m2m;
            for &c in &tree.node(node).children {
                let payload = encode_m2m(c, mass, center);
                t = loc.apply(sim, core, part.owner(c), l2l_id, payload).max(t);
            }
        }
        t
    });

    let st = states.clone();
    let ids = actions_out.clone();
    let loc_done = registry.register("octo.loc_done", move |sim, loc, core, p| {
        assert_eq!(loc.id, 0, "completion reduction targets locality 0");
        let state = st[0].clone();
        let mut r = Reader::new(&p.args[0]);
        let checksum = r.get_f64();
        let mut t = sim.now() + 200;
        let advance = {
            let mut s = state.borrow_mut();
            s.locs_done += 1;
            s.mass_checksum += checksum;
            if s.locs_done == s.part.localities() {
                let expected = s.tree.total_mass();
                if (s.mass_checksum - expected).abs() > 1e-6 * expected {
                    s.mass_ok = false;
                }
                s.locs_done = 0;
                s.mass_checksum = 0.0;
                s.steps_completed += 1;
                Some(s.steps_completed < s.steps_target)
            } else {
                None
            }
        };
        match advance {
            Some(true) => {
                // Kick the next step everywhere.
                let (locs, step_start) = {
                    let s = state.borrow();
                    (s.part.localities(), registered(&ids).step_start)
                };
                for dest in 0..locs {
                    t = loc.apply(sim, core, dest, step_start, Bytes::new()).max(t);
                }
            }
            Some(false) => {
                state.borrow_mut().finished_at = t;
            }
            None => {}
        }
        t
    });

    let actions = Actions { step_start, m2m, m2l, ghost, l2l, loc_done };
    *actions_out.borrow_mut() = Some(actions);
    actions
}

/// The action ids [`register_actions`] published into its `actions_out`
/// cell, which every closure above reads at run time (identical on every
/// locality, like HPX's globally-agreed action ids).
fn registered(ids: &RefCell<Option<Actions>>) -> Actions {
    ids.borrow().expect("actions registered")
}

/// Final leaf update and completion accounting.
fn finish_leaf(
    sim: &mut Sim,
    loc: &Rc<Locality>,
    core: usize,
    state: &Rc<RefCell<AppState>>,
    ids: &RefCell<Option<Actions>>,
    mut t: SimTime,
) -> SimTime {
    let all_done = {
        let mut s = state.borrow_mut();
        t += s.compute.leaf_update;
        if s.compute.ghost_bytes > 0 {
            t += s.compute.hydro_update;
        }
        s.step.leaves_done += 1;
        s.step.leaves_done == s.my_leaves_len()
    };
    if all_done {
        let (checksum, loc_done) = {
            let mut s = state.borrow_mut();
            // This locality's step is quiescent: everything it will ever
            // receive for this step has arrived (the L2L gate guarantees
            // all M2M/M2L are consumed before any leaf finishes). Reset
            // NOW so early arrivals for the next step land in fresh
            // counters instead of racing the step_start broadcast.
            s.reset_step();
            let sum: f64 = s.my_leaves.iter().map(|&l| s.tree.leaf_mass(l)).sum();
            (sum, registered(ids).loc_done)
        };
        let mut w = Writer::new();
        w.put_f64(checksum);
        t = loc.apply(sim, core, 0, loc_done, w.finish()).max(t);
    }
    t
}

impl AppState {
    fn my_leaves_len(&self) -> usize {
        self.my_leaves.len()
    }

    /// Leaves in the whole tree (workload size indicator).
    pub fn tree_leaves(&self) -> usize {
        self.tree.leaves().len()
    }

    /// Diagnostic snapshot of the current step's progress.
    pub fn debug_summary(&self) -> String {
        let (tree, step) = (&self.tree, &self.step);
        let (mut pend_children, mut pend_nbr, mut pend_ghost, mut missing_l2l) = (0, 0, 0, 0);
        for id in (0..tree.len()).filter(|&id| self.owns(id)) {
            if tree.node(id).is_leaf() {
                let i = tree.leaf_index(id);
                pend_nbr += usize::from(step.pending_neighbors[i] > 0);
                pend_ghost += usize::from(step.pending_ghosts[i] > 0);
                missing_l2l += usize::from(!step.got_l2l[i]);
            } else {
                pend_children += usize::from(step.pending_children[tree.internal_index(id)].0 > 0);
            }
        }
        format!(
            "leaves={} done={} pend_internal={} pend_nbr={} pend_ghost={} missing_l2l={} locs_done={}",
            self.my_leaves.len(),
            step.leaves_done,
            pend_children,
            pend_nbr,
            pend_ghost,
            missing_l2l,
            self.locs_done
        )
    }

    /// Build the per-locality states for a world of `localities`.
    pub fn build_all(
        tree: Rc<Octree>,
        part: Rc<Partition>,
        localities: usize,
        steps: u32,
        compute: ComputeModel,
    ) -> Rc<Vec<Rc<RefCell<AppState>>>> {
        Self::build_states(tree, part, localities, None, steps, compute)
    }

    /// [`AppState::build_all`] as rank `rank` alone needs it: its handlers
    /// only touch `states[rank]`, so every other entry is a placeholder
    /// with no leaves and no step state. A world that builds the states
    /// once per rank then holds one step state per locality, not one per
    /// pair.
    pub fn build_for_rank(
        tree: Rc<Octree>,
        part: Rc<Partition>,
        localities: usize,
        rank: usize,
        steps: u32,
        compute: ComputeModel,
    ) -> Rc<Vec<Rc<RefCell<AppState>>>> {
        Self::build_states(tree, part, localities, Some(rank), steps, compute)
    }

    /// The states of every locality; with `only = Some(rank)`, the
    /// others are placeholders.
    fn build_states(
        tree: Rc<Octree>,
        part: Rc<Partition>,
        localities: usize,
        only: Option<usize>,
        steps: u32,
        compute: ComputeModel,
    ) -> Rc<Vec<Rc<RefCell<AppState>>>> {
        assert!(
            compute.ghost_bytes == 0 || compute.ghost_bytes >= GHOST_HEADER,
            "ComputeModel::ghost_bytes = {} must be 0 (no hydro) or at least the \
             {GHOST_HEADER} B ghost header",
            compute.ghost_bytes
        );
        let states: Vec<Rc<RefCell<AppState>>> = (0..localities)
            .map(|me| {
                let live = only.is_none_or(|rank| rank == me);
                let (leaves, internal) =
                    if live { (tree.leaves().len(), tree.internal_len()) } else { (0, 0) };
                let my_leaves: Vec<NodeId> = if live {
                    tree.leaves().iter().copied().filter(|&l| part.owner(l) == me).collect()
                } else {
                    Vec::new()
                };
                let mut s = AppState {
                    tree: tree.clone(),
                    part: part.clone(),
                    me,
                    my_leaves,
                    step: StepState {
                        pending_children: vec![(0, 0.0, [0.0; 3]); internal],
                        pending_neighbors: vec![0; leaves],
                        pending_ghosts: vec![0; leaves],
                        got_l2l: vec![false; leaves],
                        leaves_done: 0,
                    },
                    locs_done: 0,
                    mass_checksum: 0.0,
                    steps_completed: 0,
                    steps_target: steps,
                    last_root_mass: 0.0,
                    mass_ok: true,
                    compute: compute.clone(),
                    finished_at: SimTime::ZERO,
                };
                if live {
                    s.reset_step();
                }
                Rc::new(RefCell::new(s))
            })
            .collect();
        Rc::new(states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sfc::partition;

    fn fresh_states(compute: ComputeModel) -> Rc<Vec<Rc<RefCell<AppState>>>> {
        let tree = Rc::new(Octree::build(3));
        let part = Rc::new(partition(&tree, 2));
        AppState::build_all(tree, part, 2, 1, compute)
    }

    #[test]
    fn debug_summary_reports_pending_ghost_zones() {
        let states = fresh_states(ComputeModel::default());
        for s in states.iter() {
            let s = s.borrow();
            let waiting = s.my_leaves.iter().filter(|&&l| !s.tree.neighbors(l).is_empty()).count();
            assert!(waiting > 0);
            let summary = s.debug_summary();
            assert!(summary.contains(&format!(" pend_nbr={waiting} ")), "{summary}");
            assert!(summary.contains(&format!(" pend_ghost={waiting} ")), "{summary}");
        }
        let no_hydro = fresh_states(ComputeModel { ghost_bytes: 0, ..ComputeModel::default() });
        let summary = no_hydro[0].borrow().debug_summary();
        assert!(summary.contains(" pend_ghost=0 "), "{summary}");
    }

    /// The pending ghost count of `leaf` on its owner.
    fn pending_ghosts(states: &[Rc<RefCell<AppState>>], leaf: NodeId) -> usize {
        let s = states[owner_of(states, leaf)].borrow();
        s.step.pending_ghosts[s.tree.leaf_index(leaf)]
    }

    fn owner_of(states: &[Rc<RefCell<AppState>>], id: NodeId) -> usize {
        states[0].borrow().part.owner(id)
    }

    /// A face-neighbour pair `(target, src)` of a level-3 tree on two
    /// localities, on one locality if `local`, across the two otherwise.
    fn ghost_pair(states: &[Rc<RefCell<AppState>>], local: bool) -> (NodeId, NodeId) {
        let s = states[0].borrow();
        let tree = &s.tree;
        tree.leaves()
            .iter()
            .flat_map(|&l| tree.neighbors(l).iter().map(move |&nb| (l, nb)))
            .find(|&(l, nb)| (s.part.owner(l) == s.part.owner(nb)) == local)
            .expect("the tree has such a pair")
    }

    /// Run the registered `octo.ghost` handler on the owner of `target`
    /// with `slab` as its argument.
    fn deliver_ghost(states: &Rc<Vec<Rc<RefCell<AppState>>>>, target: NodeId, slab: Bytes) {
        let mut registry = ActionRegistry::new();
        let acts = register_actions(&mut registry, states.clone(), Rc::new(RefCell::new(None)));
        let cfg = parcelport::WorldConfig::two_nodes("lci_psr_cq_pin_i".parse().unwrap(), 2);
        let mut world = parcelport::build_world(&cfg, registry);
        let loc = world.locality(owner_of(states, target)).clone();
        let handler = loc.with_registry(|r| r.handler(acts.ghost));
        handler(&mut world.sim, &loc, 0, amt::Parcel::new(acts.ghost, slab));
    }

    #[test]
    fn ghost_handler_accepts_a_local_header_and_a_remote_slab() {
        let states = fresh_states(ComputeModel::default());
        for local in [true, false] {
            let (target, src) = ghost_pair(&states, local);
            let len = if local { GHOST_HEADER } else { ComputeModel::default().ghost_bytes };
            let before = pending_ghosts(&states, target);
            deliver_ghost(&states, target, encode_ghost(target, src, len));
            assert_eq!(pending_ghosts(&states, target), before - 1, "local={local}");
        }
    }

    #[test]
    #[should_panic(expected = "must be the whole 12288 B slab")]
    fn ghost_handler_rejects_a_short_remote_slab() {
        let states = fresh_states(ComputeModel::default());
        let (target, src) = ghost_pair(&states, false);
        let short = ComputeModel::default().ghost_bytes - 1;
        deliver_ghost(&states, target, encode_ghost(target, src, short));
    }

    #[test]
    #[should_panic(expected = "not its fill")]
    fn ghost_handler_rejects_a_remote_slab_with_a_wrong_fill() {
        let states = fresh_states(ComputeModel::default());
        let (target, src) = ghost_pair(&states, false);
        let mut slab = encode_ghost(target, src, ComputeModel::default().ghost_bytes).to_vec();
        *slab.last_mut().unwrap() = ghost_fill(src).wrapping_add(1);
        deliver_ghost(&states, target, Bytes::from(slab));
    }

    #[test]
    #[should_panic(expected = "must be the 16 B header alone")]
    fn ghost_handler_rejects_a_local_ghost_that_carries_a_slab() {
        let states = fresh_states(ComputeModel::default());
        let (target, src) = ghost_pair(&states, true);
        deliver_ghost(&states, target, encode_ghost(target, src, 12 * 1024));
    }

    #[test]
    fn ghost_slab_bytes_match_the_vec_construction() {
        // The reference: the header, then the fill, pushed into a `Vec`.
        let reference = |target: NodeId, src: NodeId, len: usize| {
            let mut slab = Vec::with_capacity(len);
            slab.extend_from_slice(&(target as u64).to_le_bytes());
            slab.extend_from_slice(&(src as u64).to_le_bytes());
            slab.resize(len, ghost_fill(src));
            slab
        };
        for (target, src) in [(3, 260), (1 << 40, 7)] {
            for len in [GHOST_HEADER, 12 * 1024] {
                let slab = encode_ghost(target, src, len);
                assert_eq!(slab[..], reference(target, src, len)[..], "{target} <- {src}, {len} B");
            }
        }
    }

    #[test]
    #[should_panic(expected = "ComputeModel::ghost_bytes = 8 must be 0")]
    fn ghost_bytes_shorter_than_the_header_is_rejected() {
        fresh_states(ComputeModel { ghost_bytes: 8, ..ComputeModel::default() });
    }

    #[test]
    fn build_for_rank_keeps_only_that_rank_live() {
        let tree = Rc::new(Octree::build(3));
        let part = Rc::new(partition(&tree, 3));
        let all = AppState::build_all(tree.clone(), part.clone(), 3, 1, ComputeModel::default());
        let one = AppState::build_for_rank(tree, part, 3, 1, 1, ComputeModel::default());
        for me in 0..3 {
            let (a, o) = (all[me].borrow(), one[me].borrow());
            if me == 1 {
                assert_eq!(o.my_leaves, a.my_leaves);
                assert_eq!(o.debug_summary(), a.debug_summary());
            } else {
                assert!(o.my_leaves.is_empty() && o.step.got_l2l.is_empty(), "rank {me}");
            }
        }
    }
}
