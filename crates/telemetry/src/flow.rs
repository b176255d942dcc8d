//! Parcel-lifecycle flow tracing.
//!
//! Each tracked parcel gets a *flow*: a timeline of timestamps through the
//! fixed stage sequence
//! `put → queue → serialize → inject → wire → match → deliver → spawn`
//! stitched across localities. The sender's parcelport registers the flow
//! ids of a message out-of-band under `(src, dst, tag_base)` at injection
//! time; the receiver's parcelport resolves the same key when it handles
//! the header — nothing is added to the simulated wire format, so enabling
//! tracing cannot perturb timing.
//!
//! Flow id 0 means "untracked": every mutator ignores it, so call sites
//! can mark unconditionally.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

use simcore::{SimTime, LANE_SHIFT};

/// Stage indices of the parcel lifecycle, in causal order.
pub mod stage {
    /// `put_parcel` entered on the sending locality.
    pub const PUT: usize = 0;
    /// Parcel queued behind the per-destination aggregation window.
    pub const QUEUE: usize = 1;
    /// Serialization/encode into an `HpxMessage`.
    pub const SERIALIZE: usize = 2;
    /// Message handed to the parcelport (`put_message`).
    pub const INJECT: usize = 3;
    /// Header packet arrived at the destination NIC.
    pub const WIRE: usize = 4;
    /// Header matched / popped from the completion queue by the receiver.
    pub const MATCH: usize = 5;
    /// Full message delivered to the destination locality.
    pub const DELIVER: usize = 6;
    /// Decode task started on a destination core.
    pub const SPAWN: usize = 7;
    /// Number of stages.
    pub const COUNT: usize = 8;
}

/// Stage display names, indexed by the `stage` constants.
pub const STAGE_NAMES: [&str; stage::COUNT] =
    ["put", "queue", "serialize", "inject", "wire", "match", "deliver", "spawn"];

/// Timestamp sentinel for "stage not reached".
pub const UNSET: u64 = u64::MAX;

/// Lane-mode flow ids carry the owning lane in the engine's lane
/// namespace ([`LANE_SHIFT`]); the low bits are the lane's 1-based local
/// flow index. Lane 0's ids are therefore identical to the legacy
/// single-collector ids.
const LOCAL_MASK: u64 = (1 << LANE_SHIFT) - 1;

/// Registered routes: `(src, dst, tag_base)` → the sender's flow ids.
type RouteMap = HashMap<(usize, usize, u64), Vec<u64>, BuildHasherDefault<RouteHasher>>;

/// A fixed multiply-rotate hasher for [`RouteMap`]'s integer keys, which
/// costs a few instructions per key where SipHash costs a few dozen. The
/// map is never iterated, so its order never shows.
#[derive(Default)]
struct RouteHasher(u64);

impl Hasher for RouteHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Published lane-mode flow metadata: `id` → `put_ns`, from the sender's
/// `flow_begin` until the receiving lane takes it.
type MetaMap = HashMap<u64, u64>;

/// One run's out-of-band registry: message routes, plus the put instant
/// of lane-mode flows so a receiving lane can feed its latency
/// series without owning the sender's `FlowRec`. The tracer of the
/// collector made by `telemetry::enable` owns it and the run's lane
/// tracers share it ([`FlowTracer::for_lane`]), because sender and
/// receiver lanes may run on different threads. The engine's conservative
/// barrier orders every register before its claim; the mutexes only make
/// the handoff data-race-free. Nothing outside the run can reach it, so
/// concurrent runs in one process stay apart.
#[derive(Debug, Default)]
struct RouteStore {
    routes: Mutex<RouteMap>,
    meta: Mutex<MetaMap>,
}

/// An operation on a flow owned by *another* lane's tracer, buffered for
/// the post-run merge (receiver-side stages are marked on the receiving
/// lane, which does not hold the sender's `FlowRec`).
#[derive(Debug, Clone)]
pub(crate) enum ForeignOp {
    /// A stage mark: `(id, stage, t_ns, deliver_node)` —
    /// `deliver_node` is the raw causal gid captured at a DELIVER mark
    /// (0 otherwise), remapped to merged node ids at merge time.
    Mark(u64, usize, u64, u64),
    /// `set_dst_core(id, core)`.
    DstCore(u64, usize),
}

/// One parcel's recorded lifecycle.
#[derive(Debug, Clone)]
pub struct FlowRec {
    /// Source locality.
    pub src: u32,
    /// Destination locality.
    pub dst: u32,
    /// Core that ran `put_parcel`.
    pub src_core: u32,
    /// Core that delivered/decoded (set at deliver time).
    pub dst_core: u32,
    /// Per-stage timestamps in ns ([`UNSET`] where not reached).
    pub stages: [u64; stage::COUNT],
    /// Causal node id of the event that delivered this parcel (0 when no
    /// causal collector was installed) — links the flow to the provenance
    /// graph so the critical path can highlight on-path parcels.
    pub deliver_node: u64,
}

const _: () = assert!(std::mem::size_of::<FlowRec>() <= 88);

/// `v` as a stored locality or core index.
fn index(v: usize) -> u32 {
    u32::try_from(v).expect("flow: locality or core index over u32")
}

impl FlowRec {
    /// Timestamp of `stage`, if recorded.
    pub fn at(&self, stage: usize) -> Option<u64> {
        let t = self.stages[stage];
        (t != UNSET).then_some(t)
    }

    /// Whether the flow reached the delivery stage.
    pub fn delivered(&self) -> bool {
        self.stages[stage::DELIVER] != UNSET
    }
}

/// Recorder of parcel flows plus the out-of-band route registry used to
/// stitch sender and receiver timelines together.
#[derive(Debug)]
pub struct FlowTracer {
    flows: Vec<FlowRec>,
    /// The run's route registry, shared with its lane tracers; made on
    /// first use ([`FlowTracer::store`]).
    store: OnceCell<Arc<RouteStore>>,
    /// Stop allocating new flows past this many (memory guard for long
    /// runs); marks on existing flows keep working. `1 << 22` outside
    /// this crate's tests.
    pub(crate) max_flows: usize,
    /// Parcels [`FlowTracer::begin`] turned away because the tracer was
    /// full: they have no flow, and the record reports their count.
    untracked: u64,
    /// Lane-mode id base (`lane << LANE_SHIFT`); `None` = legacy
    /// single-collector mode with plain 1-based ids.
    lane_base: Option<u64>,
    /// Buffered operations on flows owned by other lanes' tracers.
    foreign: Vec<ForeignOp>,
    /// `(id, op-discriminant)` pairs already buffered — first-wins dedup
    /// so `mark` still reports "newly set" exactly once per stage (the
    /// in-flight accounting depends on it).
    foreign_seen: HashSet<(u64, usize)>,
}

impl Default for FlowTracer {
    fn default() -> Self {
        FlowTracer::new()
    }
}

impl FlowTracer {
    /// Create an empty tracer.
    pub fn new() -> Self {
        FlowTracer {
            flows: Vec::new(),
            store: OnceCell::new(),
            max_flows: 1 << 22,
            untracked: 0,
            lane_base: None,
            foreign: Vec::new(),
            foreign_seen: HashSet::new(),
        }
    }

    /// A lane-mode tracer for `lane` in this tracer's run: it shares this
    /// tracer's route store, new flow ids carry the lane in their high
    /// bits, and operations on flows minted by other lanes are buffered as
    /// [`ForeignOp`]s for the post-run merge.
    pub(crate) fn for_lane(&self, lane: u32) -> FlowTracer {
        FlowTracer {
            store: OnceCell::from(self.store().clone()),
            lane_base: Some((lane as u64) << LANE_SHIFT),
            ..FlowTracer::new()
        }
    }

    /// The run's route registry.
    fn store(&self) -> &Arc<RouteStore> {
        self.store.get_or_init(Arc::default)
    }

    /// Whether this tracer is in lane mode.
    pub(crate) fn lane_mode(&self) -> bool {
        self.lane_base.is_some()
    }

    /// Whether `id` belongs to another lane's tracer.
    #[inline]
    fn is_foreign(&self, id: u64) -> bool {
        match self.lane_base {
            Some(base) => (id & !LOCAL_MASK) != base,
            None => false,
        }
    }

    /// Local index of a native id (the low bits are the 1-based index in
    /// both legacy and lane mode).
    #[inline]
    fn idx(id: u64) -> usize {
        (id & LOCAL_MASK) as usize - 1
    }

    /// Start a flow for a parcel put on `src_core` of locality `src`,
    /// destined for `dst`. Returns the flow id (0 if the tracer is full,
    /// which counts the parcel as untracked).
    pub fn begin(&mut self, src: usize, dst: usize, src_core: usize, t: SimTime) -> u64 {
        if self.flows.len() >= self.max_flows.min(LOCAL_MASK as usize) {
            self.untracked += 1;
            return 0;
        }
        let mut stages = [UNSET; stage::COUNT];
        stages[stage::PUT] = t.as_nanos();
        let (src, dst, src_core) = (index(src), index(dst), index(src_core));
        self.flows.push(FlowRec { src, dst, src_core, dst_core: 0, stages, deliver_node: 0 });
        self.lane_base.unwrap_or(0) | self.flows.len() as u64
    }

    /// Record `stage` for flow `id` at `t`. First mark wins (retries keep
    /// the earliest entry into a stage); id 0 is ignored. Returns whether
    /// the stage was newly set (callers maintain in-flight counts on the
    /// first DELIVER mark only). In lane mode a mark on a foreign id is
    /// buffered for the merge; "newly set" then means "newly buffered",
    /// which coincides (each receiver-side stage is marked by exactly one
    /// locality, and the dedup set keeps retries idempotent). `node` is
    /// the causal node now dispatching, kept as a DELIVER mark's
    /// `deliver_node`.
    pub fn mark(&mut self, id: u64, stage: usize, t: SimTime, node: u64) -> bool {
        if id == 0 {
            return false;
        }
        if self.is_foreign(id) {
            if !self.foreign_seen.insert((id, stage)) {
                return false;
            }
            let deliver_node = if stage == self::stage::DELIVER { node } else { 0 };
            self.foreign.push(ForeignOp::Mark(id, stage, t.as_nanos(), deliver_node));
            return true;
        }
        let rec = &mut self.flows[Self::idx(id)];
        let slot = &mut rec.stages[stage];
        if *slot == UNSET {
            *slot = t.as_nanos();
            if stage == self::stage::DELIVER {
                rec.deliver_node = node;
            }
            true
        } else {
            false
        }
    }

    /// Record the core that handled delivery for `ids`.
    pub fn set_dst_core(&mut self, ids: &[u64], core: usize) {
        for &id in ids {
            if id == 0 {
                continue;
            }
            if self.is_foreign(id) {
                if self.foreign_seen.insert((id, stage::COUNT)) {
                    self.foreign.push(ForeignOp::DstCore(id, core));
                }
                continue;
            }
            self.flows[Self::idx(id)].dst_core = index(core);
        }
    }

    /// Sender side: associate `flows` with the message identified by
    /// `(src, dst, tag_base)` so the receiver — possibly a lane tracer of
    /// this run on another thread — can claim them.
    pub fn register_route(&self, src: usize, dst: usize, tag_base: u64, flows: &[u64]) {
        if !flows.is_empty() {
            let mut routes = self.store().routes.lock().expect("route store poisoned");
            routes.insert((src, dst, tag_base), flows.to_vec());
        }
    }

    /// Receiver side: claim the flows registered for `(src, dst,
    /// tag_base)`. Empty if the sender registered nothing.
    pub fn take_route(&self, src: usize, dst: usize, tag_base: u64) -> Vec<u64> {
        let mut routes = self.store().routes.lock().expect("route store poisoned");
        routes.remove(&(src, dst, tag_base)).unwrap_or_default()
    }

    /// Publish the put instant of lane-mode flow `id` to the run.
    pub(crate) fn publish_meta(&self, id: u64, put_ns: u64) {
        self.store().meta.lock().expect("route store poisoned").insert(id, put_ns);
    }

    /// Take the published put instant of a foreign flow id: its one
    /// reader is the receiving lane, at delivery.
    pub(crate) fn take_meta(&self, id: u64) -> Option<u64> {
        self.store().meta.lock().expect("route store poisoned").remove(&id)
    }

    /// Published flow metadata not yet taken.
    #[cfg(test)]
    pub(crate) fn meta_len(&self) -> usize {
        self.store().meta.lock().expect("route store poisoned").len()
    }

    /// All recorded flows, in creation order.
    pub fn flows(&self) -> &[FlowRec] {
        &self.flows
    }

    /// The record behind flow `id`, if this tracer owns it (None for id 0
    /// and, in lane mode, for foreign ids).
    pub(crate) fn rec(&self, id: u64) -> Option<&FlowRec> {
        if id == 0 || self.is_foreign(id) {
            return None;
        }
        self.flows.get(Self::idx(id))
    }

    /// Append per-lane tracers (in lane-rank order) to this tracer's flows,
    /// replaying every buffered [`ForeignOp`] against the record owned by
    /// the minting lane. `remap` translates raw per-lane causal gids
    /// (`rank << LANE_SHIFT` based) into merged causal-log node ids; gids
    /// absent from the merged log collapse to 0 ("no provenance").
    pub(crate) fn absorb_lanes(&mut self, lanes: Vec<FlowTracer>, remap: &HashMap<u64, u64>) {
        let remap_node = |n: u64| if n == 0 { 0 } else { remap.get(&n).copied().unwrap_or(0) };
        let mut id_map: HashMap<u64, usize> = HashMap::new();
        let mut foreign: Vec<ForeignOp> = Vec::new();
        for lane in lanes {
            self.untracked += lane.untracked;
            let base = lane.lane_base.unwrap_or(0);
            for (i, mut rec) in lane.flows.into_iter().enumerate() {
                id_map.insert(base | (i as u64 + 1), self.flows.len());
                rec.deliver_node = remap_node(rec.deliver_node);
                self.flows.push(rec);
            }
            foreign.extend(lane.foreign);
        }
        for op in foreign {
            match op {
                ForeignOp::Mark(id, stage, t_ns, deliver_node) => {
                    let Some(&idx) = id_map.get(&id) else { continue };
                    let rec = &mut self.flows[idx];
                    if rec.stages[stage] == UNSET {
                        rec.stages[stage] = t_ns;
                        if stage == self::stage::DELIVER {
                            rec.deliver_node = remap_node(deliver_node);
                        }
                    }
                }
                ForeignOp::DstCore(id, core) => {
                    if let Some(&idx) = id_map.get(&id) {
                        self.flows[idx].dst_core = index(core);
                    }
                }
            }
        }
    }

    /// The recorded flows and the untracked count, moved out of the
    /// tracer (a run's capture).
    pub(crate) fn into_flows(self) -> (Vec<FlowRec>, u64) {
        (self.flows, self.untracked)
    }

    /// Number of recorded flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_marks_in_order() {
        let mut f = FlowTracer::new();
        let id = f.begin(0, 1, 3, SimTime::from_nanos(100));
        assert_eq!(id, 1);
        f.mark(id, stage::SERIALIZE, SimTime::from_nanos(150), 0);
        f.mark(id, stage::DELIVER, SimTime::from_nanos(900), 0);
        f.set_dst_core(&[id], 5);
        let rec = &f.flows()[0];
        assert_eq!(rec.at(stage::PUT), Some(100));
        assert_eq!(rec.at(stage::SERIALIZE), Some(150));
        assert_eq!(rec.at(stage::QUEUE), None);
        assert!(rec.delivered());
        assert_eq!(rec.dst_core, 5);
    }

    #[test]
    fn first_mark_wins() {
        let mut f = FlowTracer::new();
        let id = f.begin(0, 1, 0, SimTime::ZERO);
        f.mark(id, stage::INJECT, SimTime::from_nanos(10), 0);
        f.mark(id, stage::INJECT, SimTime::from_nanos(99), 0);
        assert_eq!(f.flows()[0].at(stage::INJECT), Some(10));
    }

    #[test]
    fn id_zero_is_ignored() {
        let mut f = FlowTracer::new();
        f.mark(0, stage::PUT, SimTime::ZERO, 0);
        f.mark(0, stage::WIRE, SimTime::ZERO, 0);
        f.set_dst_core(&[0], 9);
        assert!(f.is_empty());
    }

    #[test]
    fn routes_stitch_sender_to_receiver() {
        let mut f = FlowTracer::new();
        let a = f.begin(0, 1, 0, SimTime::ZERO);
        let b = f.begin(0, 1, 0, SimTime::ZERO);
        f.register_route(0, 1, 42, &[a, b]);
        assert_eq!(f.take_route(0, 1, 42), vec![a, b]);
        // Claimed exactly once.
        assert!(f.take_route(0, 1, 42).is_empty());
        assert!(f.take_route(1, 0, 42).is_empty());
    }

    #[test]
    fn max_flows_caps_allocation() {
        let mut f = FlowTracer::new();
        f.max_flows = 1;
        assert_eq!(f.begin(0, 1, 0, SimTime::ZERO), 1);
        assert_eq!(f.begin(0, 1, 0, SimTime::ZERO), 0);
        assert_eq!(f.begin(1, 0, 0, SimTime::ZERO), 0);
        let (flows, untracked) = f.into_flows();
        assert_eq!((flows.len(), untracked), (1, 2));
    }

    #[test]
    fn lane_ids_carry_lane_and_lane0_matches_legacy() {
        let run = FlowTracer::new();
        let mut l0 = run.for_lane(0);
        let mut l2 = run.for_lane(2);
        assert_eq!(l0.begin(0, 1, 0, SimTime::ZERO), 1);
        let id = l2.begin(2, 0, 0, SimTime::ZERO);
        assert_eq!(id, (2u64 << LANE_SHIFT) | 1);
        assert!(l0.rec(id).is_none(), "foreign id must not resolve locally");
        assert!(l2.rec(id).is_some());
    }

    #[test]
    fn foreign_marks_buffer_and_merge_back() {
        let run = FlowTracer::new();
        let mut sender = run.for_lane(1);
        let mut receiver = run.for_lane(0);
        let id = sender.begin(1, 0, 0, SimTime::from_nanos(5));
        sender.mark(id, stage::INJECT, SimTime::from_nanos(10), 0);
        // Receiver-side stages land on the other lane's tracer.
        assert!(receiver.mark(id, stage::WIRE, SimTime::from_nanos(40), 0));
        assert!(receiver.mark(id, stage::DELIVER, SimTime::from_nanos(50), 0));
        // Retry of an already-buffered stage is not "newly set".
        assert!(!receiver.mark(id, stage::DELIVER, SimTime::from_nanos(60), 0));
        receiver.set_dst_core(&[id], 3);
        assert_eq!(receiver.len(), 0, "foreign ops must not mint local flows");

        let mut merged = FlowTracer::new();
        merged.absorb_lanes(vec![receiver, sender], &HashMap::new());
        assert_eq!(merged.len(), 1);
        let rec = &merged.flows()[0];
        assert_eq!(rec.at(stage::PUT), Some(5));
        assert_eq!(rec.at(stage::INJECT), Some(10));
        assert_eq!(rec.at(stage::WIRE), Some(40));
        assert_eq!(rec.at(stage::DELIVER), Some(50));
        assert_eq!(rec.dst_core, 3);
        assert!(rec.delivered());
    }
}
