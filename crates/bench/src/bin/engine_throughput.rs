//! Wall-clock throughput of the event engine hot path.
//!
//! Unlike every other harness in this crate — which measures *simulated*
//! time — this one measures how fast the simulator itself executes
//! events on the host. It drives a fig1-shaped event mix (self-re-arming
//! per-core ticks, one-shot packet deliveries, a progress timeout that
//! moves on every tick) through two engines:
//!
//! * **baseline** — a self-contained replica of the seed engine: a
//!   `BinaryHeap` of boxed closures, no cancellation, so every timeout
//!   re-arm schedules a fresh event and leaves the stale one to fire as
//!   a dead no-op (exactly what `ParcelLayer`/`Locality` did before the
//!   indexed heap landed);
//! * **engine** — the current `simcore::Sim`: typed handler events on
//!   the indexed four-ary heap, timeout re-arms via `reschedule`.
//!
//! It reports wall-clock events/sec, simulated-ns advanced per wall-ms,
//! allocation counts, and peak heap for both, writes
//! `BENCH_engine.json`, and *fails* (exit 1) unless the current engine
//! clears 1.5x the baseline's logical throughput and executes the
//! steady-state hot path with zero allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use simcore::{
    EventHandler, EventId, HandlerId, LaneCtx, LaneId, RunMode, ShardActor, ShardEventId,
    ShardedSim, Sim, SimTime,
};

// ---------------------------------------------------------------------
// Counting allocator: every heap alloc in the process goes through here.
// ---------------------------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let live =
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed) + layout.size() as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Workload shape (identical logical work on both engines).
// ---------------------------------------------------------------------

/// Simulated cores, each with a self-re-arming tick (fig1's per-core
/// scheduler loop).
const ACTORS: usize = 64;
/// Logical ticks to execute in the measured phase.
const TICKS: u64 = 2_000_000;
/// Warmup ticks (grows heaps/slabs to steady state before measuring).
const WARMUP: u64 = 100_000;
/// Throughput the current engine must clear vs. baseline.
const THRESHOLD: f64 = 1.5;

/// Per-actor deterministic LCG; both engines draw the same deltas.
#[derive(Clone)]
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Delay until this actor's next tick, ns in [200, 1224).
    fn tick_delta(&mut self) -> u64 {
        200 + (self.next() & 1023)
    }

    /// Delay until the delivery spawned by a tick, ns in [50, 178):
    /// always lands before the next tick, so at most one is in flight
    /// per actor and the steady state never grows the queue.
    fn deliver_delta(&mut self) -> u64 {
        50 + (self.next() & 127)
    }
}

/// How far ahead each tick pushes its progress timeout (~23 ticks),
/// mirroring the parcel layer's flush-window timer: re-armed on every
/// tick, it only fires once the actor goes quiet.
const TIMEOUT_AHEAD: u64 = 16 * 1024;

/// Conservative lookahead of the sharded runs: the expanse wire's one-way
/// propagation latency (`netsim::WireModel::expanse().latency_ns`) — the
/// minimum distance any cross-locality delivery keeps from `now`.
const SHARD_LOOKAHEAD: u64 = 1_000;

// ---------------------------------------------------------------------
// Baseline: replica of the seed engine (BinaryHeap + boxed closures).
// ---------------------------------------------------------------------

struct OldEntry {
    at: u64,
    seq: u64,
    f: Box<dyn FnOnce(&mut OldSim)>,
}

impl PartialEq for OldEntry {
    fn eq(&self, o: &Self) -> bool {
        (self.at, self.seq) == (o.at, o.seq)
    }
}
impl Eq for OldEntry {}
impl PartialOrd for OldEntry {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for OldEntry {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(o.at, o.seq))
    }
}

/// The seed engine's scheduling core, reproduced verbatim in miniature:
/// one boxed closure per event, min-order via `Reverse`, no cancel.
struct OldSim {
    now: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<OldEntry>>,
    executed: u64,
}

impl OldSim {
    fn new() -> Self {
        OldSim { now: 0, seq: 0, queue: BinaryHeap::new(), executed: 0 }
    }

    fn schedule_at<F: FnOnce(&mut OldSim) + 'static>(&mut self, at: u64, f: F) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(OldEntry { at, seq, f: Box::new(f) }));
    }

    fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(Reverse(e)) => {
                self.now = e.at;
                self.executed += 1;
                (e.f)(self);
                true
            }
            None => false,
        }
    }
}

/// Shared per-actor state for the baseline run. `timeout_gen` implements
/// the seed's dedup-by-staleness: each re-arm bumps the generation and
/// schedules a fresh closure; stale generations fire as no-ops.
struct OldActor {
    rng: Lcg,
    ticks_done: u64,
    timeout_gen: u64,
    deliveries: u64,
    dead_events: u64,
}

fn run_baseline(ticks: u64) -> (u64, u64, u64, u64) {
    let actors: Rc<RefCell<Vec<OldActor>>> = Rc::new(RefCell::new(
        (0..ACTORS)
            .map(|i| OldActor {
                rng: Lcg(0x9E37_79B9_7F4A_7C15 ^ ((i as u64) << 17)),
                ticks_done: 0,
                timeout_gen: 0,
                deliveries: 0,
                dead_events: 0,
            })
            .collect(),
    ));
    let mut sim = OldSim::new();
    let budget = Rc::new(RefCell::new(ticks));
    for i in 0..ACTORS {
        let a = actors.clone();
        let b = budget.clone();
        sim.schedule_at(i as u64, move |s| old_tick(s, a, b, i));
    }
    while sim.step() {}
    let a = actors.borrow();
    let deliveries: u64 = a.iter().map(|x| x.deliveries).sum();
    let dead: u64 = a.iter().map(|x| x.dead_events).sum();
    (sim.executed, sim.now, deliveries, dead)
}

fn old_tick(
    sim: &mut OldSim,
    actors: Rc<RefCell<Vec<OldActor>>>,
    budget: Rc<RefCell<u64>>,
    i: usize,
) {
    {
        let mut b = budget.borrow_mut();
        if *b == 0 {
            return;
        }
        *b -= 1;
    }
    let (tick_d, deliver_d, gen) = {
        let mut a = actors.borrow_mut();
        let act = &mut a[i];
        act.ticks_done += 1;
        act.timeout_gen += 1;
        (act.rng.tick_delta(), act.rng.deliver_delta(), act.timeout_gen)
    };
    // Delivery: a fresh boxed one-shot per tick.
    let a2 = actors.clone();
    sim.schedule_at(sim.now + deliver_d, move |_s| {
        a2.borrow_mut()[i].deliveries += 1;
    });
    // Timeout re-arm, seed style: schedule a new boxed event and let the
    // stale one from the previous tick fire as a dead no-op.
    let a3 = actors.clone();
    sim.schedule_at(sim.now + TIMEOUT_AHEAD, move |_s| {
        let mut a = a3.borrow_mut();
        if a[i].timeout_gen != gen {
            a[i].dead_events += 1; // stale — the seed engine's waste
        }
    });
    // Next tick.
    let a4 = actors.clone();
    let b4 = budget.clone();
    sim.schedule_at(sim.now + tick_d, move |s| old_tick(s, a4, b4, i));
}

// ---------------------------------------------------------------------
// Current engine: typed handler events + reschedule on the 4-ary heap.
// ---------------------------------------------------------------------

const EV_TICK: u64 = 0;
const EV_DELIVER: u64 = 1;
const EV_TIMEOUT: u64 = 2;

struct NewActorState {
    rng: Lcg,
    ticks_done: u64,
    deliveries: u64,
    timeout: Option<EventId>,
    timeouts_fired: u64,
}

/// The whole workload as one `EventHandler`; the arg word encodes
/// `(actor << 2) | kind`, mirroring how `amt::Locality` tags its events.
struct NewWorkload {
    actors: RefCell<Vec<NewActorState>>,
    budget: RefCell<u64>,
    me: RefCell<Option<HandlerId>>,
}

impl NewWorkload {
    fn arg(actor: usize, kind: u64) -> u64 {
        ((actor as u64) << 2) | kind
    }
}

impl EventHandler for NewWorkload {
    fn on_event(&self, sim: &mut Sim, arg: u64) {
        let kind = arg & 0b11;
        let i = (arg >> 2) as usize;
        match kind {
            EV_TICK => {
                {
                    let mut b = self.budget.borrow_mut();
                    if *b == 0 {
                        return;
                    }
                    *b -= 1;
                }
                let h = self.me.borrow().expect("registered");
                let now = sim.now();
                let mut actors = self.actors.borrow_mut();
                let act = &mut actors[i];
                act.ticks_done += 1;
                let tick_d = act.rng.tick_delta();
                let deliver_d = act.rng.deliver_delta();
                let timeout = act.timeout;
                drop(actors);
                sim.schedule_event_at(now + deliver_d, h, Self::arg(i, EV_DELIVER));
                // Timeout re-arm: move the single live event instead of
                // abandoning a stale one.
                let moved = timeout.map(|ev| sim.reschedule(ev, now + TIMEOUT_AHEAD));
                if moved != Some(true) {
                    let ev =
                        sim.schedule_event_at(now + TIMEOUT_AHEAD, h, Self::arg(i, EV_TIMEOUT));
                    self.actors.borrow_mut()[i].timeout = Some(ev);
                }
                sim.schedule_event_at(now + tick_d, h, Self::arg(i, EV_TICK));
            }
            EV_DELIVER => {
                self.actors.borrow_mut()[i].deliveries += 1;
            }
            EV_TIMEOUT => {
                let mut actors = self.actors.borrow_mut();
                actors[i].timeout = None;
                actors[i].timeouts_fired += 1;
            }
            _ => unreachable!("unknown event tag"),
        }
    }
}

fn run_engine(ticks: u64) -> (Rc<NewWorkload>, Sim) {
    let wl = Rc::new(NewWorkload {
        actors: RefCell::new(
            (0..ACTORS)
                .map(|i| NewActorState {
                    rng: Lcg(0x9E37_79B9_7F4A_7C15 ^ ((i as u64) << 17)),
                    ticks_done: 0,
                    deliveries: 0,
                    timeout: None,
                    timeouts_fired: 0,
                })
                .collect(),
        ),
        budget: RefCell::new(ticks),
        me: RefCell::new(None),
    });
    let mut sim = Sim::new(1);
    let h = sim.register_handler(wl.clone());
    *wl.me.borrow_mut() = Some(h);
    for i in 0..ACTORS {
        sim.schedule_event_at(SimTime::from_nanos(i as u64), h, NewWorkload::arg(i, EV_TICK));
    }
    (wl, sim)
}

// ---------------------------------------------------------------------
// Sharded engine: the same fig1-shaped mix on `simcore::ShardedSim`,
// one lane per actor, deliveries crossing lanes through the wire (and so
// through the cross-shard mailboxes whenever the lanes live apart).
// ---------------------------------------------------------------------

struct ShardTick {
    rng: Lcg,
    /// Deliveries go to the next lane in the ring — cross-shard for every
    /// round-robin placement with more than one shard.
    peer: LaneId,
    budget: u64,
    ticks_done: u64,
    deliveries: u64,
    timeout: Option<ShardEventId>,
    timeouts_fired: u64,
}

impl ShardActor for ShardTick {
    fn on_event(&mut self, ctx: &mut LaneCtx<'_>, arg: u64) {
        match arg & 0b11 {
            EV_TICK => {
                if self.budget == 0 {
                    return;
                }
                self.budget -= 1;
                self.ticks_done += 1;
                let tick_d = self.rng.tick_delta();
                let deliver_d = self.rng.deliver_delta();
                let now = ctx.now();
                // The delivery rides the wire: one propagation latency
                // (the lookahead) plus the jitter the 1-engine run uses.
                ctx.send(self.peer, now + SHARD_LOOKAHEAD + deliver_d, EV_DELIVER);
                let moved = self.timeout.map(|ev| ctx.reschedule(ev, now + TIMEOUT_AHEAD));
                if moved != Some(true) {
                    self.timeout = Some(ctx.schedule_at(now + TIMEOUT_AHEAD, EV_TIMEOUT));
                }
                ctx.schedule_at(now + tick_d, EV_TICK);
            }
            EV_DELIVER => self.deliveries += 1,
            EV_TIMEOUT => {
                self.timeout = None;
                self.timeouts_fired += 1;
            }
            _ => unreachable!("unknown event tag"),
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Build the 64-lane workload on `shards` shards (round-robin placement),
/// `ticks_per_lane` ticks each, seeded identically to the 1-engine run.
fn build_sharded(shards: usize, ticks_per_lane: u64, capture: bool) -> ShardedSim {
    let mut sim = ShardedSim::new(shards, SHARD_LOOKAHEAD);
    if capture {
        sim.set_exec_capture(true);
    }
    for i in 0..ACTORS {
        let lane = sim.add_actor(
            i % shards,
            Box::new(ShardTick {
                rng: Lcg(0x9E37_79B9_7F4A_7C15 ^ ((i as u64) << 17)),
                peer: LaneId(((i + 1) % ACTORS) as u32),
                budget: ticks_per_lane,
                ticks_done: 0,
                deliveries: 0,
                timeout: None,
                timeouts_fired: 0,
            }),
        );
        assert_eq!(lane.0 as usize, i);
    }
    for i in 0..ACTORS {
        sim.seed(LaneId(i as u32), SimTime::from_nanos(i as u64), EV_TICK);
    }
    sim
}

/// Workload self-check: every tick ran, every delivery landed, every
/// armed timeout fired exactly once.
fn check_sharded(sim: &ShardedSim, ticks_per_lane: u64) {
    let mut ticks = 0u64;
    let mut deliveries = 0u64;
    let mut timeouts = 0u64;
    for i in 0..ACTORS {
        let a = sim.actor::<ShardTick>(LaneId(i as u32)).expect("actor present");
        ticks += a.ticks_done;
        deliveries += a.deliveries;
        timeouts += a.timeouts_fired;
    }
    assert_eq!(ticks, ticks_per_lane * ACTORS as u64, "sharded workload self-check: ticks");
    assert_eq!(deliveries, ticks, "sharded workload self-check: deliveries");
    assert_eq!(timeouts, ACTORS as u64, "each lane's single timeout fires once");
}

struct ShardedRun {
    shards: usize,
    mode: RunMode,
    m: Measured,
}

/// One measured sharded run. The executor is `ShardedSim::run`'s own
/// choice (one worker per host CPU, at most one per shard) — the numbers
/// describe what a user of the engine actually gets on this host.
fn run_sharded_perf(shards: usize, total_ticks: u64) -> ShardedRun {
    let ticks_per_lane = total_ticks / ACTORS as u64;
    let mut sim = build_sharded(shards, ticks_per_lane, false);
    let mut mode = RunMode::Sequential;
    let m = measure(ticks_per_lane * ACTORS as u64, || {
        let report = sim.run(None);
        mode = report.mode;
        (report.executed, report.end.as_nanos())
    });
    check_sharded(&sim, ticks_per_lane);
    ShardedRun { shards, mode, m }
}

/// Hard determinism gate: the canonical digest of the sharded workload
/// must be identical at every shard count (the 1-shard run is the
/// reference semantics). Uses a smaller tick budget — capture allocates —
/// and, when the host has threads, checks the threaded executor too.
fn check_sharded_determinism() -> bool {
    const DET_TICKS_PER_LANE: u64 = 1_000;
    let mut reference = build_sharded(1, DET_TICKS_PER_LANE, true);
    reference.run(Some(RunMode::Sequential));
    let want = reference.digest();
    let mut ok = true;
    for &shards in &[2usize, 4, 8] {
        let mut seq = build_sharded(shards, DET_TICKS_PER_LANE, true);
        seq.run(Some(RunMode::Sequential));
        if seq.digest() != want {
            eprintln!("DETERMINISM VIOLATION: {shards} shards (sequential) diverged from 1 shard");
            ok = false;
        }
        let mut thr = build_sharded(shards, DET_TICKS_PER_LANE, true);
        thr.run(Some(RunMode::Threaded));
        if thr.digest() != want {
            eprintln!("DETERMINISM VIOLATION: {shards} shards (threaded) diverged from 1 shard");
            ok = false;
        }
    }
    ok
}

/// Steady-state allocation check for the sharded engine, O(1)-style:
/// doubling the event count must not grow the allocation count beyond a
/// small constant slack (slab/mailbox/scratch reuse means the extra
/// events recycle storage). Returns `(allocs_1x, growth)`.
fn sharded_alloc_growth(shards: usize) -> (u64, i64) {
    const BASE_TICKS_PER_LANE: u64 = 2_000;
    let run = |ticks: u64| -> u64 {
        let mut sim = build_sharded(shards, ticks, false);
        let a0 = allocs();
        sim.run(None);
        allocs() - a0
    };
    // Warm the allocator's size classes so neither measured run pays
    // one-time global growth.
    run(BASE_TICKS_PER_LANE);
    let one = run(BASE_TICKS_PER_LANE);
    let two = run(2 * BASE_TICKS_PER_LANE);
    (one, two as i64 - one as i64)
}

// ---------------------------------------------------------------------
// Sharded world: the real parcelport workloads on the federated engine
// (one lane per locality over N shards), wall-clock vs. the 1-shard run.
// ---------------------------------------------------------------------

/// One scenario point on the federated world's scaling curve.
struct WorldPoint {
    scenario: &'static str,
    shards: usize,
    m: Measured,
}

/// Fig1-shaped message-rate run (2 localities) on the sharded world.
/// Asserts the virtual-time result matches the legacy single-heap run —
/// the determinism contract, enforced here so a perf regression hunt can
/// never chase a semantically different workload.
fn run_world_fig1(shards: usize, legacy_done: SimTime) -> Measured {
    measure_workload(|| {
        let mut p = bench::MsgRateParams::small("lci_psr_cq_pin_i".parse().unwrap());
        p.total_msgs = 20_000;
        p.engine = parcelport::Engine::Federated { shards, mode: None };
        let r = bench::run_msgrate(&p);
        assert!(r.completed, "sharded fig1 workload must complete");
        assert_eq!(r.comm_done, legacy_done, "sharded fig1 diverged from the single-heap run");
        (r.events_executed, r.comm_done.as_nanos())
    })
}

/// Octotiger level-4 run (4 localities) on the sharded world; same
/// equality contract against the legacy run.
fn run_world_octo(shards: usize, legacy_total: SimTime) -> Measured {
    measure_workload(|| {
        let mut p = octotiger_mini::OctoParams::expanse("lci_psr_cq_pin_i".parse().unwrap(), 4);
        p.level = 4;
        p.steps = 2;
        p.cores = 8;
        p.engine = parcelport::Engine::Federated { shards, mode: None };
        let r = octotiger_mini::run_octotiger(&p);
        assert!(r.completed, "sharded octotiger workload must complete");
        assert!(r.mass_ok, "sharded octotiger invariant violated");
        assert_eq!(r.total, legacy_total, "sharded octotiger diverged from the single-heap run");
        (r.events_executed, r.total.as_nanos())
    })
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

struct Measured {
    events: u64,
    wall_ms: f64,
    events_per_sec: f64,
    ticks_per_sec: f64,
    sim_ns_per_wall_ms: f64,
    allocations: u64,
    alloc_bytes: u64,
}

fn measure<F: FnOnce() -> (u64, u64)>(ticks: u64, f: F) -> Measured {
    let a0 = allocs();
    let b0 = alloc_bytes();
    let t0 = Instant::now();
    let (events, sim_ns) = f();
    let wall = t0.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    Measured {
        events,
        wall_ms,
        events_per_sec: events as f64 / wall.as_secs_f64(),
        ticks_per_sec: ticks as f64 / wall.as_secs_f64(),
        sim_ns_per_wall_ms: sim_ns as f64 / wall_ms,
        allocations: allocs() - a0,
        alloc_bytes: alloc_bytes() - b0,
    }
}

/// Measure one real workload (current engine only): wall-clock events/sec
/// and simulated-ns per wall-ms — the perf-trajectory numbers future
/// engine changes are compared against.
fn measure_workload<F: FnOnce() -> (u64, u64)>(f: F) -> Measured {
    measure(0, f)
}

fn json_workload_block(m: &Measured, alloc_ceiling: u64) -> String {
    format!(
        concat!(
            "{{\n",
            "    \"events_executed\": {},\n",
            "    \"wall_ms\": {:.3},\n",
            "    \"events_per_sec\": {:.0},\n",
            "    \"sim_ns_per_wall_ms\": {:.0},\n",
            "    \"allocations\": {},\n",
            "    \"alloc_ceiling\": {},\n",
            "    \"alloc_bytes\": {}\n",
            "  }}"
        ),
        m.events,
        m.wall_ms,
        m.events_per_sec,
        m.sim_ns_per_wall_ms,
        m.allocations,
        alloc_ceiling,
        m.alloc_bytes,
    )
}

fn json_block(m: &Measured) -> String {
    format!(
        concat!(
            "{{\n",
            "    \"events_executed\": {},\n",
            "    \"wall_ms\": {:.3},\n",
            "    \"events_per_sec\": {:.0},\n",
            "    \"logical_ticks_per_sec\": {:.0},\n",
            "    \"sim_ns_per_wall_ms\": {:.0},\n",
            "    \"allocations\": {},\n",
            "    \"alloc_bytes\": {}\n",
            "  }}"
        ),
        m.events,
        m.wall_ms,
        m.events_per_sec,
        m.ticks_per_sec,
        m.sim_ns_per_wall_ms,
        m.allocations,
        m.alloc_bytes,
    )
}

fn main() {
    println!("engine_throughput: {ACTORS} actors, {TICKS} logical ticks (+{WARMUP} warmup)");
    println!();

    // --- baseline (seed engine replica) ---
    run_baseline(WARMUP); // warm the allocator's size classes
    let base = measure(TICKS, || {
        let (events, now, deliveries, dead) = run_baseline(TICKS);
        assert_eq!(deliveries, TICKS, "baseline workload self-check");
        assert!(dead > 0, "baseline must exhibit stale timeout events");
        (events, now)
    });

    // --- current engine ---
    // Warmup on the sim we will measure: grows the heap Vec, slot slab
    // and free list to steady state, so the measured phase reuses
    // storage instead of allocating. The budget is oversized so the
    // measured window stays in steady state (no end-of-run drain); the
    // drain happens after, unmeasured.
    let (wl, mut sim) = run_engine(WARMUP + TICKS + 8 * ACTORS as u64);
    while wl.actors.borrow().iter().map(|a| a.ticks_done).sum::<u64>() < WARMUP {
        sim.step();
    }
    let ticks_before: u64 = wl.actors.borrow().iter().map(|a| a.ticks_done).sum();
    let sim_ref = &mut sim;
    let hot_alloc_start = allocs();
    let mut eng = measure(TICKS, || {
        let start = sim_ref.events_executed();
        let t0 = sim_ref.now().as_nanos();
        // Steady state: exactly two events per logical tick (the tick
        // itself and the delivery it spawned; timeouts only move).
        for _ in 0..2 * TICKS {
            sim_ref.step();
        }
        (sim_ref.events_executed() - start, sim_ref.now().as_nanos() - t0)
    });
    let hot_allocs = allocs() - hot_alloc_start;
    let ticks_measured: u64 =
        wl.actors.borrow().iter().map(|a| a.ticks_done).sum::<u64>() - ticks_before;
    eng.ticks_per_sec = ticks_measured as f64 / (eng.wall_ms / 1e3);
    // Drain the tail (unmeasured) and self-check the workload.
    *wl.budget.borrow_mut() = 0;
    while sim.step() {}
    {
        let actors = wl.actors.borrow();
        let ticks: u64 = actors.iter().map(|a| a.ticks_done).sum();
        let deliveries: u64 = actors.iter().map(|a| a.deliveries).sum();
        let timeouts: u64 = actors.iter().map(|a| a.timeouts_fired).sum();
        assert_eq!(deliveries, ticks, "engine workload self-check");
        assert_eq!(timeouts, ACTORS as u64, "each actor's single timeout fires once");
        assert!(ticks_measured >= TICKS - ACTORS as u64 && ticks_measured <= TICKS + ACTORS as u64);
    }

    // --- real-workload trajectory points (current engine only) ---
    let mut fig1_done = SimTime::ZERO;
    let fig1 = measure_workload(|| {
        let mut p = bench::MsgRateParams::small("lci_psr_cq_pin_i".parse().unwrap());
        p.total_msgs = 20_000;
        let r = bench::run_msgrate(&p);
        assert!(r.completed, "fig1-style workload must complete");
        fig1_done = r.comm_done;
        (r.events_executed, r.comm_done.as_nanos())
    });
    let mut octo_total = SimTime::ZERO;
    let octo = measure_workload(|| {
        let mut p = octotiger_mini::OctoParams::expanse("lci_psr_cq_pin_i".parse().unwrap(), 4);
        p.level = 4;
        p.steps = 2;
        p.cores = 8;
        let r = octotiger_mini::run_octotiger(&p);
        assert!(r.completed, "octotiger workload must complete");
        octo_total = r.total;
        (r.events_executed, r.total.as_nanos())
    });

    // --- sharded engine: scaling curve + determinism + O(1) allocs ---
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let sharded_deterministic = check_sharded_determinism();
    let sharded: Vec<ShardedRun> =
        [1usize, 2, 4, 8].iter().map(|&s| run_sharded_perf(s, TICKS)).collect();
    let ticks_1shard = sharded[0].m.ticks_per_sec;
    let speedup_4shard = sharded[2].m.ticks_per_sec / ticks_1shard;
    let (alloc_1x_1s, alloc_growth_1s) = sharded_alloc_growth(1);
    let (alloc_1x_4s, alloc_growth_4s) = sharded_alloc_growth(4);
    /// Doubling the workload may add at most this many allocations
    /// (thread spawns and one-time growth are constant; events recycle).
    const ALLOC_GROWTH_SLACK: i64 = 512;
    let sharded_allocs_ok =
        alloc_growth_1s <= ALLOC_GROWTH_SLACK && alloc_growth_4s <= ALLOC_GROWTH_SLACK;
    // The wall-clock speedup gate only means something when the host can
    // actually run shards in parallel; on a single-CPU host the engine
    // (correctly) picks the sequential executor, so only determinism and
    // allocation behaviour are gated there. Floors: >= 2x at 4 shards on
    // a >= 4-CPU host, >= 1x on any multi-CPU host.
    let sharded_speedup_floor = if host_cpus >= 4 {
        Some(2.0)
    } else if host_cpus > 1 {
        Some(1.0)
    } else {
        None
    };
    let sharded_speedup_ok = sharded_speedup_floor.is_none_or(|floor| speedup_4shard >= floor);

    // --- sharded world: real workloads on the federated engine ---
    // fig1 has 2 localities (so 2 lanes max), octotiger-L4 has 4; each
    // point re-runs the full build + run and must reproduce the legacy
    // virtual-time result exactly (asserted inside the runners).
    let mut world: Vec<WorldPoint> = Vec::new();
    for &s in &[1usize, 2] {
        world.push(WorldPoint {
            scenario: "fig1_msgrate_8b",
            shards: s,
            m: run_world_fig1(s, fig1_done),
        });
    }
    for &s in &[1usize, 2, 4] {
        world.push(WorldPoint {
            scenario: "octotiger_level4",
            shards: s,
            m: run_world_octo(s, octo_total),
        });
    }
    let world_base = |scenario: &str| {
        world
            .iter()
            .find(|p| p.scenario == scenario && p.shards == 1)
            .map(|p| p.m.wall_ms)
            .unwrap_or(f64::NAN)
    };
    let world_speedup = |p: &WorldPoint| world_base(p.scenario) / p.m.wall_ms;
    let world_octo_4shard_speedup = world
        .iter()
        .find(|p| p.scenario == "octotiger_level4" && p.shards == 4)
        .map(world_speedup)
        .unwrap_or(f64::NAN);
    // Same host-conditionality as the engine gate: wall-clock speedup of
    // the federated world only means something when the host can run the
    // lanes in parallel.
    let world_speedup_floor = (host_cpus >= 4).then_some(2.0);
    let world_speedup_ok =
        world_speedup_floor.is_none_or(|floor| world_octo_4shard_speedup >= floor);
    // Sharded-world allocation ceilings. fig1's sharded count matches the
    // legacy run (~40.6k): the steady-state per-message path is identical
    // and the federated build overhead is noise. octotiger's lanes each
    // rebuild the tree, SFC partition and app states, but that build is
    // linear in the leaves (the face-neighbour table is hashed, not a
    // pairwise search), so the 4 replicas add only ~300 allocations over
    // the legacy run. Each ceiling sits just above the count measured at
    // 1, 2 and 4 shards (fig1 ~40.8k, octotiger ~30.3k) since a parcel
    // holds one argument inline and a ghost slab is one allocation; the
    // counts before that (~80.8k, ~56.6k) fail them.
    const FIG1_SHARDED_ALLOC_CEILING: u64 = 42_000;
    const OCTO_SHARDED_ALLOC_CEILING: u64 = 31_500;
    let world_ceiling = |p: &WorldPoint| {
        if p.scenario == "fig1_msgrate_8b" {
            FIG1_SHARDED_ALLOC_CEILING
        } else {
            OCTO_SHARDED_ALLOC_CEILING
        }
    };
    let world_allocs_ok = world.iter().all(|p| p.m.allocations <= world_ceiling(p));

    // Per-scenario allocation ceilings, pinned from the audited counts
    // (fig1: ~2 allocations/message — the encoded chunk with the header
    // built in front of it, one allocation with its refcount, and the
    // decode task box; a one-argument parcel holds its argument inline on
    // both sides. octotiger: ~30.1k, dominated by intrinsic per-leaf
    // payload encodes now that set-up is linear, a local action queues
    // its parcel with no task box and a ghost slab is one allocation).
    // Each ceiling sits just above the measured value (fig1 40.6k); the
    // argument-vector counts (fig1 80.6k, octotiger 56.3k), the
    // copied-header counts (fig1 100.6k, octotiger 57.4k), the
    // two-allocation-buffer counts (fig1 160.6k, octotiger 77.8k), the
    // pre-audit fig1 count (281k) and the quadratic-set-up octotiger
    // count (426k) fail these ceilings.
    const FIG1_ALLOC_CEILING: u64 = 42_000;
    const OCTO_ALLOC_CEILING: u64 = 31_000;
    let workload_allocs_ok =
        fig1.allocations <= FIG1_ALLOC_CEILING && octo.allocations <= OCTO_ALLOC_CEILING;

    let speedup = eng.ticks_per_sec / base.ticks_per_sec;

    // Each failed gate, with its measured value and its floor or ceiling;
    // the run passes when none failed.
    let mut failed: Vec<String> = Vec::new();
    let speedup_ok = speedup >= THRESHOLD;
    if !speedup_ok {
        failed.push(format!("speedup: {speedup:.2}x < {THRESHOLD}x"));
    }
    if hot_allocs != 0 {
        failed.push(format!("hot_path_allocations: {hot_allocs} > 0"));
    }
    if !sharded_deterministic {
        failed.push("sharded_determinism: digests differ across shard counts".into());
    }
    if !sharded_allocs_ok {
        failed.push(format!(
            "sharded_alloc_growth: 1 shard {alloc_growth_1s:+}, 4 shards {alloc_growth_4s:+} \
             > {ALLOC_GROWTH_SLACK}"
        ));
    }
    if let (false, Some(floor)) = (sharded_speedup_ok, sharded_speedup_floor) {
        failed.push(format!("sharded_speedup: 4 shards {speedup_4shard:.2}x < {floor:.1}x"));
    }
    for (name, allocs, ceiling) in [
        ("fig1", fig1.allocations, FIG1_ALLOC_CEILING),
        ("octo", octo.allocations, OCTO_ALLOC_CEILING),
    ] {
        if allocs > ceiling {
            failed.push(format!("workload_allocs: {name} {allocs} > {ceiling}"));
        }
    }
    if let (false, Some(floor)) = (world_speedup_ok, world_speedup_floor) {
        failed.push(format!(
            "world_speedup: octotiger 4 shards {world_octo_4shard_speedup:.2}x < {floor:.1}x"
        ));
    }
    for p in world.iter().filter(|p| p.m.allocations > world_ceiling(p)) {
        failed.push(format!(
            "world_allocs: {} {} shard{} {} > {}",
            p.scenario,
            p.shards,
            if p.shards == 1 { "" } else { "s" },
            p.m.allocations,
            world_ceiling(p)
        ));
    }
    let pass = failed.is_empty();

    println!("baseline (BinaryHeap + boxed closures, stale timeouts):");
    println!("  events executed   {:>12}", base.events);
    println!("  wall              {:>12.1} ms", base.wall_ms);
    println!("  events/sec        {:>12.0}", base.events_per_sec);
    println!("  logical ticks/sec {:>12.0}", base.ticks_per_sec);
    println!("  allocations       {:>12}", base.allocations);
    println!();
    println!("engine (typed events + indexed 4-ary heap + reschedule):");
    println!("  events executed   {:>12}", eng.events);
    println!("  wall              {:>12.1} ms", eng.wall_ms);
    println!("  events/sec        {:>12.0}", eng.events_per_sec);
    println!("  logical ticks/sec {:>12.0}", eng.ticks_per_sec);
    println!("  allocations       {:>12}  (hot path: {hot_allocs})", eng.allocations);
    println!();
    println!("real workloads (current engine, trajectory):");
    println!(
        "  fig1-style 8B msgrate  {:>10.0} events/sec  {:>9.0} sim-ns/wall-ms  \
         {} allocs (ceiling {FIG1_ALLOC_CEILING})",
        fig1.events_per_sec, fig1.sim_ns_per_wall_ms, fig1.allocations
    );
    println!(
        "  octotiger-mini level 4 {:>10.0} events/sec  {:>9.0} sim-ns/wall-ms  \
         {} allocs (ceiling {OCTO_ALLOC_CEILING})",
        octo.events_per_sec, octo.sim_ns_per_wall_ms, octo.allocations
    );
    println!();
    println!(
        "sharded engine ({ACTORS} lanes, lookahead {SHARD_LOOKAHEAD} ns, host CPUs: {host_cpus}):"
    );
    for r in &sharded {
        println!(
            "  {} shard{} [{}]: {:>11.0} ticks/sec  {:>11.0} events/sec  speedup {:>5.2}x",
            r.shards,
            if r.shards == 1 { " " } else { "s" },
            match r.mode {
                RunMode::Sequential => "seq",
                RunMode::Threaded => "thr",
            },
            r.m.ticks_per_sec,
            r.m.events_per_sec,
            r.m.ticks_per_sec / ticks_1shard,
        );
    }
    println!(
        "  determinism (digest, 1 vs 2/4/8 shards, seq+thr): {}",
        if sharded_deterministic { "ok" } else { "VIOLATED" }
    );
    println!(
        "  alloc growth on 2x events: 1-shard {alloc_growth_1s:+} (of {alloc_1x_1s}), \
         4-shard {alloc_growth_4s:+} (of {alloc_1x_4s})  [slack {ALLOC_GROWTH_SLACK}]"
    );
    if host_cpus == 1 {
        println!("  speedup gate skipped: single-CPU host (sequential executor selected)");
    }
    println!();
    println!("sharded world (one lane per locality, real parcelport workloads):");
    for p in &world {
        println!(
            "  {:<18} {} shard{}: {:>8.1} ms wall  {:>11.0} events/sec  speedup {:>5.2}x  \
             {} allocs",
            p.scenario,
            p.shards,
            if p.shards == 1 { " " } else { "s" },
            p.m.wall_ms,
            p.m.events_per_sec,
            world_speedup(p),
            p.m.allocations,
        );
    }
    println!(
        "  octotiger 4-shard speedup: {world_octo_4shard_speedup:.2}x{}  world allocs: {}",
        if host_cpus >= 4 { " (gate: >= 2x)" } else { " (gate skipped: < 4 host CPUs)" },
        if world_allocs_ok { "ok" } else { "CEILING EXCEEDED" },
    );
    println!();
    println!("speedup (logical ticks/sec): {speedup:.2}x  (threshold {THRESHOLD}x)");
    println!("hot-path allocations: {hot_allocs} (must be 0)");
    println!(
        "workload allocation ceilings: {}",
        if workload_allocs_ok { "ok" } else { "EXCEEDED" }
    );
    println!("peak heap: {} bytes", peak_bytes());
    println!("result: {}", if pass { "PASS" } else { "FAIL" });
    for gate in &failed {
        println!("FAIL {gate}");
    }

    let sharded_configs: String = sharded
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "      {{\n",
                    "        \"shards\": {},\n",
                    "        \"mode\": \"{}\",\n",
                    "        \"events_executed\": {},\n",
                    "        \"wall_ms\": {:.3},\n",
                    "        \"events_per_sec\": {:.0},\n",
                    "        \"logical_ticks_per_sec\": {:.0},\n",
                    "        \"speedup_vs_1shard\": {:.3}\n",
                    "      }}"
                ),
                r.shards,
                match r.mode {
                    RunMode::Sequential => "sequential",
                    RunMode::Threaded => "threaded",
                },
                r.m.events,
                r.m.wall_ms,
                r.m.events_per_sec,
                r.m.ticks_per_sec,
                r.m.ticks_per_sec / ticks_1shard,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let world_configs: String = world
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "      {{\n",
                    "        \"scenario\": \"{}\",\n",
                    "        \"shards\": {},\n",
                    "        \"events_executed\": {},\n",
                    "        \"wall_ms\": {:.3},\n",
                    "        \"events_per_sec\": {:.0},\n",
                    "        \"allocations\": {},\n",
                    "        \"speedup_vs_1shard\": {:.3}\n",
                    "      }}"
                ),
                p.scenario,
                p.shards,
                p.m.events,
                p.m.wall_ms,
                p.m.events_per_sec,
                p.m.allocations,
                world_speedup(p),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"engine_throughput\",\n",
            "  \"actors\": {},\n",
            "  \"logical_ticks\": {},\n",
            "  \"baseline\": {},\n",
            "  \"engine\": {},\n",
            "  \"fig1_msgrate_8b\": {},\n",
            "  \"octotiger_level4\": {},\n",
            "  \"sharded\": {{\n",
            "    \"host_cpus\": {},\n",
            "    \"lookahead_ns\": {},\n",
            "    \"deterministic\": {},\n",
            "    \"alloc_growth_2x_1shard\": {},\n",
            "    \"alloc_growth_2x_4shard\": {},\n",
            "    \"speedup_4shard_vs_1shard\": {:.3},\n",
            "    \"configs\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"world_sharded\": {{\n",
            "    \"fig1_alloc_ceiling\": {},\n",
            "    \"octo_alloc_ceiling\": {},\n",
            "    \"octo_speedup_4shard_vs_1shard\": {:.3},\n",
            "    \"speedup_ok\": {},\n",
            "    \"allocs_ok\": {},\n",
            "    \"configs\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"speedup_ticks_per_sec\": {:.3},\n",
            "  \"threshold\": {},\n",
            "  \"hot_path_allocations\": {},\n",
            "  \"peak_heap_bytes\": {},\n",
            "  \"pass\": {}\n",
            "}}\n"
        ),
        ACTORS,
        TICKS,
        json_block(&base),
        json_block(&eng),
        json_workload_block(&fig1, FIG1_ALLOC_CEILING),
        json_workload_block(&octo, OCTO_ALLOC_CEILING),
        host_cpus,
        SHARD_LOOKAHEAD,
        sharded_deterministic,
        alloc_growth_1s,
        alloc_growth_4s,
        speedup_4shard,
        sharded_configs,
        FIG1_SHARDED_ALLOC_CEILING,
        OCTO_SHARDED_ALLOC_CEILING,
        world_octo_4shard_speedup,
        world_speedup_ok,
        world_allocs_ok,
        world_configs,
        speedup,
        THRESHOLD,
        hot_allocs,
        peak_bytes(),
        pass,
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!();
    println!("wrote BENCH_engine.json");

    if !pass {
        std::process::exit(1);
    }
}
