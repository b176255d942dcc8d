//! The sharded parallel event engine: conservative (Chandy–Misra style)
//! parallel discrete-event simulation with wire-latency lookahead.
//!
//! # Model
//!
//! The single-threaded [`Sim`](crate::Sim) funnels every event through one
//! heap pop loop. This module shards that loop: the workload is split into
//! **lanes** (a lane ≈ one simulated locality: a unit of strictly
//! sequential execution), lanes are assigned to **shards**, and each shard
//! runs its own copy of the single-threaded engine's indexed four-ary heap
//! ([`crate::event`], with a `Copy` lane payload) on the thread of the
//! worker that owns it.
//!
//! Correctness rests on one workload contract, enforced at runtime:
//! events scheduled *across lanes* must fire at least `lookahead`
//! nanoseconds in the future (`at >= now + lookahead`). In the simulated
//! network this is free: a packet handed to the wire is never visible at
//! the destination before one propagation latency has elapsed
//! (`netsim::Fabric::min_lookahead`), which is exactly the null-message
//! lookahead a conservative parallel DES needs. Same-lane scheduling is
//! unrestricted.
//!
//! # Execution: workers, frontiers and the lookahead barrier
//!
//! Shards advance in epochs. A run hands the `S` shards to `W` **workers**
//! in contiguous blocks — worker `w` owns shards `w*S/W .. (w+1)*S/W` for
//! the whole run: one worker on the calling thread for
//! [`RunMode::Sequential`], one per shard for [`RunMode::Threaded`], and
//! `min(S, host CPUs)` when the caller leaves the choice to the engine.
//! Every worker runs the same epoch loop:
//!
//! 1. contribute its **frontier**: the minimum, over its own shards, of the
//!    heap head and of the earliest cross-shard event sent in the last
//!    window (still in flight in a mailbox);
//! 2. join a one-phase min-reduction barrier. The epoch window is
//!    `min(frontiers) + lookahead`; the run ends when every frontier is at
//!    infinity;
//! 3. drain its own shards' inboxes;
//! 4. run its own shards' windows in shard order: every local event
//!    strictly before the window end.
//!
//! Any cross-shard event produced inside a window fires at `>= now +
//! lookahead >= min(frontiers) + lookahead`, i.e. in a later window — so
//! no shard can receive an event in its past. In-flight sends already
//! count in the frontier, so no phase has to wait for them to land before
//! the reduction. Mailboxes are double-buffered by epoch parity: an
//! epoch's windows send into one half while its drains empty the other.
//! The sequential executor is the one-worker case of the loop; its barrier
//! is a local minimum.
//!
//! # Determinism: the canonical merge rule
//!
//! Every event carries the key `(fire_time, scheduling_lane,
//! per-lane sequence)`; shard heaps order by it, and cross-shard arrivals
//! are sorted by it before insertion. Because a lane executes sequentially
//! no matter which shard hosts it, and cross-lane interaction always pays
//! the lookahead, the key is independent of the shard count *and* of
//! thread scheduling: running a workload on 1 shard, on N shards
//! sequentially, or on N shards with real threads yields bit-identical
//! per-lane execution and an identical canonical global order (sort all
//! executed events by `(time, lane, seq)`). The determinism proptests and
//! golden traces pin this.
//!
//! When every lane maps to its own shard the tie-break reduces to
//! `(time, shard_id, seq)` — the per-locality sharding the parcelport
//! simulation uses.
//!
//! # Observability
//!
//! The engine itself records only what pins its schedule: the executed
//! event log behind [`ShardedSim::canonical_log`] and
//! [`ShardedSim::digest`] (off by default, one branch per event when
//! off), plus the [`RunReport`]. Observing the workload is the actors'
//! job: the federated world (`parcelport::sharded`) runs a nested
//! [`Sim`](crate::Sim) with lane-namespaced causal node ids in every lane,
//! installs the lane's own `telemetry::LaneCollector` around each
//! dispatch, and merges the collectors in lane-rank order after the run.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::event::{EventId, EventQueue};
use crate::time::SimTime;

/// A lane: the unit of sequential execution and of shard placement
/// (≈ one simulated locality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneId(pub u32);

/// Lanes live in the top 20 bits of the packed key; per-lane sequence
/// numbers in the low 44. A run can hold ~1M lanes and ~17.5T events per
/// lane before the packing overflows (both asserted).
const LANE_SHIFT: u32 = 44;
const MAX_LANES: u32 = 1 << 20;
const SEQ_MASK: u64 = (1 << LANE_SHIFT) - 1;

#[inline]
fn pack_key(lane: u32, seq: u64) -> u64 {
    debug_assert!(lane < MAX_LANES && seq <= SEQ_MASK);
    ((lane as u64) << LANE_SHIFT) | seq
}

/// A component that owns one lane and receives its typed events.
///
/// Unlike [`EventHandler`](crate::EventHandler) (shared via `Rc`, interior
/// mutability), a shard actor is *owned* by its shard and dispatched with
/// `&mut self` — which is what lets shards move onto OS threads: the actor
/// only has to be `Send`, never `Sync`.
pub trait ShardActor: Send + Any {
    /// An event scheduled for this actor's lane fired at `ctx.now()`.
    fn on_event(&mut self, ctx: &mut LaneCtx<'_>, arg: u64);

    /// Downcast support, so tests and harnesses can read actor state back
    /// out of [`ShardedSim::actor`] after a run.
    fn as_any(&self) -> &dyn Any;
}

/// Handle to a pending event on the scheduling lane, as returned by
/// [`LaneCtx::schedule_at`]: the single-heap engine's generation-checked
/// [`EventId`], so stale handles fail `cancel`/`reschedule` instead of
/// touching a recycled slot. Only the scheduling lane may cancel or
/// reschedule (cross-lane events return no handle — they are on another
/// thread's heap).
pub type ShardEventId = EventId;

/// One event crossing a shard boundary, in flight through a mailbox.
#[derive(Debug, Clone, Copy)]
struct RemoteEvent {
    at: SimTime,
    /// Canonical key minted by the *scheduling* lane.
    key: u64,
    /// Destination lane's slot index on its home shard.
    slot: u32,
    arg: u64,
}

/// Where a lane lives.
#[derive(Debug, Clone, Copy)]
struct LaneLoc {
    shard: u32,
    slot: u32,
}

/// What a shard-heap slot carries besides its `(time, key)` order (the
/// queue's provenance word stays 0: the engine records no causal graph).
/// `Copy`, so a shard's heap is `Send` by
/// construction, unlike the [`Sim`](crate::Sim)'s closure payloads.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneEvent {
    /// Destination lane's slot index on this shard.
    lane_slot: u32,
    /// Scheduling lane (cancel/reschedule owner check).
    owner_lane: u32,
    arg: u64,
}

// ---------------------------------------------------------------------
// Mailboxes: one inbox per destination shard per epoch parity.
// ---------------------------------------------------------------------

/// Cross-shard mail. The windows of epoch `e` push into half `e & 1`;
/// epoch `e + 1` drains that half after its barrier while its own windows
/// push into the other one. So a half is never pushed and drained at
/// once: every push into it happened before the barrier its drain
/// follows. The mutex serializes concurrent source shards pushing into
/// one inbox; the drain sorts by the canonical key, so the order in which
/// the pushes interleave cannot show.
#[derive(Debug)]
pub(crate) struct Mailboxes {
    halves: [Vec<Mutex<Vec<RemoteEvent>>>; 2],
}

impl Mailboxes {
    fn new(shards: usize) -> Self {
        let half = || (0..shards).map(|_| Mutex::new(Vec::new())).collect();
        Mailboxes { halves: [half(), half()] }
    }

    #[inline]
    fn push(&self, half: usize, dst: usize, ev: RemoteEvent) {
        self.halves[half][dst].lock().expect("mailbox poisoned").push(ev);
    }

    /// Move every event in `dst`'s inbox of `half` into `scratch`
    /// (capacity of both sides is retained — steady state allocates
    /// nothing).
    fn drain_into(&self, half: usize, dst: usize, scratch: &mut Vec<RemoteEvent>) {
        scratch.append(&mut self.halves[half][dst].lock().expect("mailbox poisoned"));
    }
}

// ---------------------------------------------------------------------
// The epoch barrier.
// ---------------------------------------------------------------------

/// Spin iterations a barrier waiter burns before it parks.
const SPIN_LIMIT: u32 = 1 << 14;

/// One-phase min-reduction barrier: every worker adds its frontier and
/// gets back the minimum over all workers. A waiter spins for a bounded
/// time, then parks on a `Condvar`. It spins only when every worker has a
/// CPU of its own, so an oversubscribed run never starves the worker it
/// waits for. A worker that panics poisons the barrier, and the others
/// panic too instead of waiting forever.
struct EpochBarrier {
    n: usize,
    spin: bool,
    arrived: AtomicUsize,
    min_ns: AtomicU64,
    /// The last completed reduction; stable until every worker has read
    /// it, since the next one needs every worker's arrival.
    result_ns: AtomicU64,
    /// Completed reductions; a waiter leaves once it moves.
    gen: AtomicU64,
    poisoned: AtomicBool,
    /// Parked waiters: the releaser skips the `Condvar` when none sleeps.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl EpochBarrier {
    fn new(n: usize, spin: bool) -> Self {
        EpochBarrier {
            n,
            spin,
            arrived: AtomicUsize::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            result_ns: AtomicU64::new(u64::MAX),
            gen: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Publish this worker's frontier; returns the minimum over all
    /// workers once every one of them has published.
    fn reduce(&self, frontier_ns: u64) -> u64 {
        let gen = self.gen.load(Ordering::Acquire);
        self.min_ns.fetch_min(frontier_ns, Ordering::AcqRel);
        // The arrivals form one release sequence, so the last arrival
        // sees every `fetch_min` before it.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // These `Relaxed` accesses are published by the `SeqCst`
            // (hence release) store of `gen`, which every waiter loads
            // with `SeqCst` (hence acquire) before it reads the result or
            // arrives again.
            let min = self.min_ns.swap(u64::MAX, Ordering::Relaxed);
            self.arrived.store(0, Ordering::Relaxed);
            self.result_ns.store(min, Ordering::Relaxed);
            self.gen.store(gen.wrapping_add(1), Ordering::SeqCst);
            self.wake();
            return min;
        }
        let done =
            || self.gen.load(Ordering::SeqCst) != gen || self.poisoned.load(Ordering::SeqCst);
        let mut spins = if self.spin { SPIN_LIMIT } else { 0 };
        while spins > 0 && !done() {
            std::hint::spin_loop();
            spins -= 1;
        }
        if !done() {
            let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            while !done() {
                guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
            // Under the lock, and a stale count only costs a spare notify.
            self.sleepers.fetch_sub(1, Ordering::Relaxed);
        }
        assert!(!self.poisoned.load(Ordering::SeqCst), "another shard worker panicked");
        self.result_ns.load(Ordering::Acquire)
    }

    /// Wake the parked waiters after a `SeqCst` store they wait on. A
    /// parking waiter counts itself asleep and then re-checks, both
    /// `SeqCst` under the lock: either it sees the store, or this load
    /// sees it asleep and the notify, taken under the lock, reaches it.
    fn wake(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.cv.notify_all();
        }
    }
}

/// Poisons the barrier when its worker unwinds, so the others fail
/// loudly instead of waiting for an arrival that never comes.
struct PoisonOnPanic<'a>(&'a EpochBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::SeqCst);
            self.0.wake();
        }
    }
}

// ---------------------------------------------------------------------
// ShardCore: one shard's queue, lanes, clock and execution log.
// ---------------------------------------------------------------------

/// One executed-event record, for canonical digests and golden traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecRec {
    /// Fire time, ns.
    pub at: u64,
    /// Canonical key `(lane << 44) | lane_seq` of the scheduling lane.
    pub key: u64,
    /// Lane the event fired on.
    pub lane: u32,
    /// Argument word.
    pub arg: u64,
}

struct LaneSlot {
    lane: u32,
    /// Per-lane canonical sequence counter.
    seq: u64,
    actor: Option<Box<dyn ShardActor>>,
}

/// Everything one shard owns. `Send` by construction: lent to the worker
/// that owns it for the whole run.
struct ShardCore {
    shard: u32,
    now: SimTime,
    executed: u64,
    queue: EventQueue<LaneEvent>,
    lanes: Vec<LaneSlot>,
    exec_log: Option<Vec<ExecRec>>,
    lookahead: u64,
    registry: Arc<Vec<LaneLoc>>,
    mail: Arc<Mailboxes>,
    /// The mailbox half this epoch's window sends into.
    send_half: usize,
    /// Earliest cross-shard event sent since the last frontier, raw ns.
    sent_min_ns: u64,
    /// Reused drain buffer (steady state allocates nothing).
    scratch: Vec<RemoteEvent>,
}

// The registry and mailboxes are Sync (immutable / mutex-guarded); actors
// are Send; everything else is owned plain data.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ShardCore>();
};

impl ShardCore {
    /// Drain the inbound mail of mailbox `half` into the local heap.
    /// Arrivals are sorted by the canonical key before insertion so the
    /// heap's internal layout — not just its pop order — is independent of
    /// producer thread timing.
    fn drain_inbox(&mut self, half: usize) {
        self.mail.drain_into(half, self.shard as usize, &mut self.scratch);
        if self.scratch.is_empty() {
            return;
        }
        self.scratch.sort_unstable_by_key(|e| (e.at, e.key));
        for i in 0..self.scratch.len() {
            let e = self.scratch[i];
            let owner_lane = (e.key >> LANE_SHIFT) as u32;
            let ev = LaneEvent { lane_slot: e.slot, owner_lane, arg: e.arg };
            self.queue.insert(e.at, e.key, 0, ev);
        }
        self.scratch.clear();
    }

    /// Execute every local event firing strictly before `window_end_ns`,
    /// sending cross-shard events into mailbox `half`.
    fn run_window(&mut self, window_end_ns: u64, half: usize) {
        self.send_half = half;
        // Windows end at `frontier + lookahead >= 1`, so the last instant
        // inside one is `window_end_ns - 1`.
        let last = SimTime::from_nanos(window_end_ns - 1);
        while let Some(ev) = self.queue.pop_if(last) {
            let LaneEvent { lane_slot, arg, .. } = ev.payload;
            debug_assert!(ev.at >= self.now, "shard time must not go backwards");
            self.now = ev.at;
            self.executed += 1;
            if let Some(log) = &mut self.exec_log {
                log.push(ExecRec {
                    at: ev.at.as_nanos(),
                    key: ev.seq,
                    lane: self.lanes[lane_slot as usize].lane,
                    arg,
                });
            }
            // Detach the actor so the dispatch can borrow the core
            // mutably; an actor never addresses itself through the
            // context's lane table, so the hole is unobservable.
            let mut actor = self.lanes[lane_slot as usize]
                .actor
                .take()
                .expect("actor present outside dispatch");
            let mut ctx = LaneCtx { core: self, lane_slot };
            actor.on_event(&mut ctx, arg);
            self.lanes[lane_slot as usize].actor = Some(actor);
        }
    }

    /// This shard's frontier contribution, as raw ns (`u64::MAX` when
    /// idle): the earliest of its pending events and of the cross-shard
    /// events it sent since the last call, which may not have landed yet.
    fn take_frontier_ns(&mut self) -> u64 {
        let head = self.queue.peek_at().map_or(u64::MAX, SimTime::as_nanos);
        head.min(std::mem::replace(&mut self.sent_min_ns, u64::MAX))
    }

    /// Mint the canonical key for the next event scheduled by `lane_slot`.
    #[inline]
    fn next_key(&mut self, lane_slot: u32) -> u64 {
        let slot = &mut self.lanes[lane_slot as usize];
        let seq = slot.seq;
        slot.seq += 1;
        assert!(seq <= SEQ_MASK, "lane {} overflowed its sequence space", slot.lane);
        pack_key(slot.lane, seq)
    }
}

// ---------------------------------------------------------------------
// LaneCtx: what an actor sees during dispatch.
// ---------------------------------------------------------------------

/// Scheduling context handed to [`ShardActor::on_event`]: the dispatching
/// shard's clock and queue, scoped to the firing lane.
pub struct LaneCtx<'a> {
    core: &'a mut ShardCore,
    lane_slot: u32,
}

impl LaneCtx<'_> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The lane this event fired on.
    #[inline]
    pub fn lane(&self) -> LaneId {
        LaneId(self.core.lanes[self.lane_slot as usize].lane)
    }

    /// The shard hosting this lane.
    #[inline]
    pub fn shard(&self) -> usize {
        self.core.shard as usize
    }

    /// The engine's cross-lane lookahead, ns.
    #[inline]
    pub fn lookahead(&self) -> u64 {
        self.core.lookahead
    }

    /// Schedule an event on this lane at absolute time `at` (clamped to
    /// `now`). Returns a cancellable handle.
    pub fn schedule_at(&mut self, at: SimTime, arg: u64) -> ShardEventId {
        let at = at.max(self.core.now);
        let key = self.core.next_key(self.lane_slot);
        let owner_lane = self.core.lanes[self.lane_slot as usize].lane;
        let ev = LaneEvent { lane_slot: self.lane_slot, owner_lane, arg };
        self.core.queue.insert(at, key, 0, ev)
    }

    /// Schedule an event on this lane `delay_ns` from now.
    pub fn schedule_in(&mut self, delay_ns: u64, arg: u64) -> ShardEventId {
        self.schedule_at(self.core.now + delay_ns, arg)
    }

    /// Send an event to `dest` (possibly on another shard) firing at `at`.
    ///
    /// Cross-lane sends must respect the lookahead: `at >= now +
    /// lookahead`, panicking otherwise — the violation would let a shard
    /// observe an event in its past. The bound is enforced for co-resident
    /// lanes too, so a workload's legality never depends on placement.
    pub fn send(&mut self, dest: LaneId, at: SimTime, arg: u64) {
        let now = self.core.now;
        let my_lane = self.core.lanes[self.lane_slot as usize].lane;
        if dest.0 == my_lane {
            self.schedule_at(at, arg);
            return;
        }
        assert!(
            at >= now + self.core.lookahead,
            "cross-lane send violates conservative lookahead: lane {} -> lane {} at {} < now {} + lookahead {}",
            my_lane,
            dest.0,
            at.as_nanos(),
            now.as_nanos(),
            self.core.lookahead,
        );
        let key = self.core.next_key(self.lane_slot);
        let loc = self.core.registry[dest.0 as usize];
        if loc.shard == self.core.shard {
            let ev = LaneEvent { lane_slot: loc.slot, owner_lane: my_lane, arg };
            self.core.queue.insert(at, key, 0, ev);
        } else {
            let core = &mut *self.core;
            core.sent_min_ns = core.sent_min_ns.min(at.as_nanos());
            core.mail.push(
                core.send_half,
                loc.shard as usize,
                RemoteEvent { at, key, slot: loc.slot, arg },
            );
        }
    }

    /// Cancel a pending event scheduled by this lane. Returns `false` on a
    /// stale handle; panics if the event belongs to another lane.
    pub fn cancel(&mut self, id: ShardEventId) -> bool {
        match self.core.queue.get(id).map(|ev| ev.owner_lane) {
            None => false,
            Some(owner) => {
                let my_lane = self.core.lanes[self.lane_slot as usize].lane;
                assert_eq!(owner, my_lane, "lane {my_lane} cancelling lane {owner}'s event");
                self.core.queue.cancel(id)
            }
        }
    }

    /// Move a pending event of this lane to fire at `at` (clamped to
    /// `now`). Re-keyed as if newly scheduled — identical ordering to
    /// cancel + schedule, without the churn.
    pub fn reschedule(&mut self, id: ShardEventId, at: SimTime) -> bool {
        match self.core.queue.get(id).map(|ev| ev.owner_lane) {
            None => false,
            Some(owner) => {
                let my_lane = self.core.lanes[self.lane_slot as usize].lane;
                assert_eq!(owner, my_lane, "lane {my_lane} rescheduling lane {owner}'s event");
                let at = at.max(self.core.now);
                let key = self.core.next_key(self.lane_slot);
                self.core.queue.reschedule(id, at, key)
            }
        }
    }
}

// ---------------------------------------------------------------------
// ShardedSim: construction, the executor, post-run access.
// ---------------------------------------------------------------------

/// How a run was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// One worker, on the calling thread, owns every shard (same epoch
    /// algorithm, same results).
    Sequential,
    /// One worker per shard when the caller pins it; the mode reported
    /// for a run that used more than one worker.
    Threaded,
}

/// What a run did.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Events executed, summed over shards.
    pub executed: u64,
    /// Latest event time across shards (the makespan).
    pub end: SimTime,
    /// Number of epoch windows.
    pub epochs: u64,
    /// Executor used.
    pub mode: RunMode,
}

/// The sharded engine. See the module docs for the execution model.
pub struct ShardedSim {
    cores: Vec<ShardCore>,
    /// Lane -> placement. Snapshotted into an `Arc` shared by the cores at
    /// run start (lanes are added between runs, never during one).
    registry: Vec<LaneLoc>,
    lookahead: u64,
}

impl ShardedSim {
    /// Create an engine with `shards` shards and the given conservative
    /// lookahead (ns). The lookahead must be strictly positive: a
    /// zero-lookahead configuration would force lockstep execution (every
    /// window would close immediately), which is exactly the degenerate
    /// case [`netsim`'s positive-latency check] exists to reject.
    pub fn new(shards: usize, lookahead_ns: u64) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            lookahead_ns >= 1,
            "conservative lookahead must be strictly positive: a zero-latency wire would force \
             lockstep execution (no shard could ever run ahead); give the model a latency >= 1ns"
        );
        let mail = Arc::new(Mailboxes::new(shards));
        let cores = (0..shards as u32)
            .map(|shard| ShardCore {
                shard,
                now: SimTime::ZERO,
                executed: 0,
                queue: EventQueue::new(),
                lanes: Vec::new(),
                exec_log: None,
                lookahead: lookahead_ns,
                registry: Arc::new(Vec::new()),
                mail: mail.clone(),
                send_half: 0,
                sent_min_ns: u64::MAX,
                scratch: Vec::new(),
            })
            .collect();
        ShardedSim { cores, registry: Vec::new(), lookahead: lookahead_ns }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cores.len()
    }

    /// The conservative lookahead, ns.
    pub fn lookahead(&self) -> u64 {
        self.lookahead
    }

    /// Add an actor as a new lane on `shard`. Returns the lane id.
    pub fn add_actor(&mut self, shard: usize, actor: Box<dyn ShardActor>) -> LaneId {
        assert!(shard < self.cores.len(), "shard {shard} out of range");
        let lane = self.registry.len() as u32;
        assert!(lane < MAX_LANES, "too many lanes");
        let slot = self.cores[shard].lanes.len() as u32;
        self.registry.push(LaneLoc { shard: shard as u32, slot });
        self.cores[shard].lanes.push(LaneSlot { lane, seq: 0, actor: Some(actor) });
        LaneId(lane)
    }

    /// Seed an event for `lane` at absolute time `at` before the run
    /// starts (provenance parent 0, key minted from the lane's counter —
    /// exactly as if the lane scheduled it itself at time zero).
    pub fn seed(&mut self, lane: LaneId, at: SimTime, arg: u64) {
        let loc = self.registry[lane.0 as usize];
        let core = &mut self.cores[loc.shard as usize];
        let key = core.next_key(loc.slot);
        core.queue.insert(at, key, 0, LaneEvent { lane_slot: loc.slot, owner_lane: lane.0, arg });
    }

    /// Record every executed event (time, canonical key, lane, arg) for
    /// [`Self::canonical_log`] / [`Self::digest`]. Off by default; one
    /// branch per event when off.
    pub fn set_exec_capture(&mut self, on: bool) {
        for core in &mut self.cores {
            core.exec_log = if on { Some(Vec::new()) } else { None };
        }
    }

    /// Run to completion. `Some(Sequential)` runs one worker on the
    /// calling thread, `Some(Threaded)` one worker per shard, and `None`
    /// `min(shards, host CPUs)` workers (identical results either way —
    /// that equivalence is what the determinism tests pin).
    pub fn run(&mut self, mode: Option<RunMode>) -> RunReport {
        let workers = match mode {
            Some(RunMode::Sequential) => 1,
            Some(RunMode::Threaded) => self.cores.len(),
            None => self.cores.len().min(host_cpus()),
        };
        let mode =
            mode.unwrap_or(if workers > 1 { RunMode::Threaded } else { RunMode::Sequential });
        self.run_workers(workers, mode)
    }

    /// Run on `workers` workers, worker `w` owning shards `w*S/W ..
    /// (w+1)*S/W`; worker 0 works on the calling thread.
    fn run_workers(&mut self, workers: usize, mode: RunMode) -> RunReport {
        let registry = Arc::new(self.registry.clone());
        for core in &mut self.cores {
            core.registry = registry.clone();
        }
        let (shards, lookahead) = (self.cores.len(), self.lookahead);
        let workers = workers.clamp(1, shards);
        let epochs = if workers == 1 {
            run_worker(&mut self.cores, lookahead, None)
        } else {
            let barrier = &EpochBarrier::new(workers, workers <= host_cpus());
            std::thread::scope(|s| {
                let mut rest = &mut self.cores[..];
                for w in (1..workers).rev() {
                    let (head, block) = rest.split_at_mut(w * shards / workers);
                    s.spawn(move || run_worker(block, lookahead, Some(barrier)));
                    rest = head;
                }
                run_worker(rest, lookahead, Some(barrier))
            })
        };
        RunReport { executed: self.executed(), end: self.end(), epochs, mode }
    }

    /// Events executed, summed over shards.
    pub fn executed(&self) -> u64 {
        self.cores.iter().map(|c| c.executed).sum()
    }

    /// Latest event time across shards.
    pub fn end(&self) -> SimTime {
        self.cores.iter().map(|c| c.now).max().unwrap_or(SimTime::ZERO)
    }

    /// Borrow an actor back (e.g. to read workload results post-run).
    pub fn actor<T: ShardActor>(&self, lane: LaneId) -> Option<&T> {
        let loc = self.registry.get(lane.0 as usize)?;
        let slot = self.cores[loc.shard as usize].lanes.get(loc.slot as usize)?;
        slot.actor.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// The canonical global execution log: every executed event, sorted by
    /// `(time, lane, lane_seq)`. Identical across shard counts, executors
    /// and thread schedules — the deterministic merge rule made tangible.
    /// Requires [`Self::set_exec_capture`].
    pub fn canonical_log(&self) -> Vec<ExecRec> {
        let mut all: Vec<ExecRec> = Vec::new();
        for core in &self.cores {
            if let Some(log) = &core.exec_log {
                all.extend_from_slice(log);
            }
        }
        all.sort_unstable_by_key(|r| (r.at, r.key));
        all
    }

    /// FNV-1a digest of the canonical execution log.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for r in self.canonical_log() {
            for x in [r.at, r.key, r.lane as u64, r.arg] {
                for b in x.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100000001b3);
                }
            }
        }
        h
    }

    /// Total events still pending across all shard heaps (mailboxes are
    /// empty outside a run).
    pub fn events_pending(&self) -> usize {
        self.cores.iter().map(|c| c.queue.len()).sum()
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One worker's epoch loop over its block of shards; returns the number
/// of epochs. Without a barrier (one worker) the frontier reduction is
/// the local minimum.
fn run_worker(cores: &mut [ShardCore], lookahead: u64, barrier: Option<&EpochBarrier>) -> u64 {
    let _poison = barrier.map(PoisonOnPanic);
    let mut epochs = 0u64;
    loop {
        let frontier = cores.iter_mut().map(ShardCore::take_frontier_ns).min().unwrap_or(u64::MAX);
        let min_ns = barrier.map_or(frontier, |b| b.reduce(frontier));
        if min_ns == u64::MAX {
            return epochs;
        }
        let window = min_ns.saturating_add(lookahead);
        let half = (epochs & 1) as usize;
        for core in cores.iter_mut() {
            core.drain_inbox(half ^ 1);
            core.run_window(window, half);
        }
        epochs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Ping-pong actor: on every event, bounce to the peer lane one
    /// lookahead (+jitter) ahead, `rounds` times; also exercise a
    /// self-timer that is rescheduled on every bounce.
    struct Pinger {
        peer: LaneId,
        rounds: u64,
        bounces: u64,
        timer: Option<ShardEventId>,
        timer_fired: u64,
        log: PingLog,
    }

    /// `(virtual ns, event arg)` of every event a `Pinger` handled.
    type PingLog = Vec<(u64, u64)>;

    const EV_BOUNCE: u64 = 1;
    const EV_TIMER: u64 = 2;

    impl ShardActor for Pinger {
        fn on_event(&mut self, ctx: &mut LaneCtx<'_>, arg: u64) {
            self.log.push((ctx.now().as_nanos(), arg));
            match arg {
                EV_BOUNCE => {
                    self.bounces += 1;
                    if self.bounces < self.rounds {
                        let jitter = self.bounces % 7;
                        ctx.send(self.peer, ctx.now() + ctx.lookahead() + jitter, EV_BOUNCE);
                    }
                    let deadline = ctx.now() + 10 * ctx.lookahead();
                    let moved = self.timer.map(|t| ctx.reschedule(t, deadline));
                    if moved != Some(true) {
                        self.timer = Some(ctx.schedule_at(deadline, EV_TIMER));
                    }
                }
                EV_TIMER => {
                    self.timer = None;
                    self.timer_fired += 1;
                }
                _ => unreachable!(),
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// `(digest, executed, lane A's log, lane B's log)` of a ping-pong on
    /// `shards` shards and `workers` workers, lane B on the last shard.
    fn pingpong(shards: usize, workers: usize) -> (u64, u64, PingLog, PingLog) {
        const L: u64 = 100;
        let mut sim = ShardedSim::new(shards, L);
        sim.set_exec_capture(true);
        let a = LaneId(0);
        let b = LaneId(1);
        let pa =
            Pinger { peer: b, rounds: 50, bounces: 0, timer: None, timer_fired: 0, log: vec![] };
        let pb =
            Pinger { peer: a, rounds: 50, bounces: 0, timer: None, timer_fired: 0, log: vec![] };
        assert_eq!(sim.add_actor(0, Box::new(pa)), a);
        assert_eq!(sim.add_actor(shards - 1, Box::new(pb)), b);
        sim.seed(a, SimTime::from_nanos(0), EV_BOUNCE);
        let report = sim.run_workers(workers, RunMode::Sequential);
        assert_eq!(report.executed, sim.executed());
        let la = sim.actor::<Pinger>(a).unwrap().log.clone();
        let lb = sim.actor::<Pinger>(b).unwrap().log.clone();
        (sim.digest(), report.executed, la, lb)
    }

    #[test]
    fn one_vs_two_shards_identical() {
        let (d1, e1, la1, lb1) = pingpong(1, 1);
        let (d2, e2, la2, lb2) = pingpong(2, 1);
        assert_eq!(e1, e2);
        assert_eq!(d1, d2, "digest must be sharding-independent");
        assert_eq!(la1, la2, "lane A's execution must be sharding-independent");
        assert_eq!(lb1, lb2);
    }

    #[test]
    fn threaded_matches_sequential() {
        let (ds, es, las, lbs) = pingpong(2, 1);
        let (dt, et, lat, lbt) = pingpong(2, 2);
        assert_eq!(es, et);
        assert_eq!(ds, dt, "digest must be thread-schedule-independent");
        assert_eq!(las, lat);
        assert_eq!(lbs, lbt);
    }

    /// All-to-all flood: each lane's first `budget` events fan out to
    /// every other lane at one lookahead plus a small jitter, so bursts
    /// from different shards collide at identical instants.
    struct Flooder {
        lanes: u32,
        budget: u32,
        log: PingLog,
    }

    impl ShardActor for Flooder {
        fn on_event(&mut self, ctx: &mut LaneCtx<'_>, arg: u64) {
            self.log.push((ctx.now().as_nanos(), arg));
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let me = ctx.lane().0;
            for peer in (0..self.lanes).filter(|&p| p != me) {
                let at = ctx.now() + ctx.lookahead() + arg % 3;
                ctx.send(LaneId(peer), at, arg.wrapping_mul(31).wrapping_add(peer as u64));
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// `(digest, executed, per-lane logs)` of a 12-lane flood on `shards`
    /// shards (lane `i` on shard `i % shards`) and `workers` workers.
    fn flood(shards: usize, workers: usize) -> (u64, u64, Vec<PingLog>) {
        const LANES: u32 = 12;
        let mut sim = ShardedSim::new(shards, 40);
        sim.set_exec_capture(true);
        for lane in 0..LANES {
            let f = Flooder { lanes: LANES, budget: 3, log: vec![] };
            sim.add_actor(lane as usize % shards, Box::new(f));
            sim.seed(LaneId(lane), SimTime::from_nanos(lane as u64 % 2), lane as u64);
        }
        let report = sim.run_workers(workers, RunMode::Threaded);
        let logs = (0..LANES).map(|l| sim.actor::<Flooder>(LaneId(l)).unwrap().log.clone());
        (sim.digest(), report.executed, logs.collect())
    }

    #[test]
    fn multiplexed_pingpong_matches_one_shard() {
        let want = pingpong(1, 1);
        for shards in [4, 8] {
            for workers in [2, 3] {
                let got = pingpong(shards, workers);
                assert_eq!(got, want, "{shards} shards on {workers} workers diverged");
            }
        }
    }

    #[test]
    fn multiplexed_flood_matches_one_shard() {
        let want = flood(1, 1);
        assert_eq!(want.1, 12 + 12 * 3 * 11, "every lane fans out `budget` times");
        for shards in [4, 8] {
            for workers in [2, 3] {
                let got = flood(shards, workers);
                assert_eq!(got, want, "{shards} shards on {workers} workers diverged");
            }
        }
    }

    #[test]
    #[should_panic(expected = "conservative lookahead")]
    fn cross_lane_send_below_lookahead_panics() {
        struct Bad {
            peer: LaneId,
        }
        impl ShardActor for Bad {
            fn on_event(&mut self, ctx: &mut LaneCtx<'_>, _arg: u64) {
                // One ns short of the lookahead: must panic even though
                // both lanes share a shard.
                let at = SimTime::from_nanos(ctx.now().as_nanos() + ctx.lookahead() - 1);
                ctx.send(self.peer, at, 0);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        struct Sink;
        impl ShardActor for Sink {
            fn on_event(&mut self, _ctx: &mut LaneCtx<'_>, _arg: u64) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sim = ShardedSim::new(1, 50);
        let b = LaneId(1);
        sim.add_actor(0, Box::new(Bad { peer: b }));
        sim.add_actor(0, Box::new(Sink));
        sim.seed(LaneId(0), SimTime::ZERO, 0);
        sim.run(Some(RunMode::Sequential));
    }

    #[test]
    #[should_panic(expected = "another shard worker panicked")]
    fn a_panicking_worker_fails_the_run_instead_of_hanging() {
        struct Boom;
        impl ShardActor for Boom {
            fn on_event(&mut self, _ctx: &mut LaneCtx<'_>, _arg: u64) {
                panic!("actor failure");
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        struct Ticker;
        impl ShardActor for Ticker {
            fn on_event(&mut self, ctx: &mut LaneCtx<'_>, _arg: u64) {
                ctx.schedule_in(1, 0);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        // The ticker never runs dry, so worker 0 only stops once the
        // barrier tells it that worker 1's actor panicked.
        let mut sim = ShardedSim::new(2, 10);
        let ticker = sim.add_actor(0, Box::new(Ticker));
        let boom = sim.add_actor(1, Box::new(Boom));
        sim.seed(ticker, SimTime::ZERO, 0);
        sim.seed(boom, SimTime::from_nanos(5), 0);
        sim.run(Some(RunMode::Threaded));
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_lookahead_rejected() {
        let _ = ShardedSim::new(2, 0);
    }

    #[test]
    fn cancel_prevents_firing_and_is_deterministic() {
        struct Canceller {
            victim: Option<ShardEventId>,
            fired: Vec<u64>,
        }
        impl ShardActor for Canceller {
            fn on_event(&mut self, ctx: &mut LaneCtx<'_>, arg: u64) {
                self.fired.push(arg);
                if arg == 0 {
                    self.victim = Some(ctx.schedule_in(10, 99));
                    ctx.schedule_in(5, 1);
                } else if arg == 1 {
                    let v = self.victim.take().unwrap();
                    assert!(ctx.cancel(v));
                    assert!(!ctx.cancel(v), "stale handle");
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sim = ShardedSim::new(2, 1);
        let lane = sim.add_actor(0, Box::new(Canceller { victim: None, fired: vec![] }));
        sim.seed(lane, SimTime::ZERO, 0);
        sim.run(Some(RunMode::Sequential));
        let a = sim.actor::<Canceller>(lane).unwrap();
        assert_eq!(a.fired, vec![0, 1], "cancelled event must not fire");
    }

    #[test]
    fn run_auto_picks_an_executor_and_terminates() {
        static TOTAL: AtomicU64 = AtomicU64::new(0);
        struct Counter {
            left: u64,
        }
        impl ShardActor for Counter {
            fn on_event(&mut self, ctx: &mut LaneCtx<'_>, _arg: u64) {
                TOTAL.fetch_add(1, Ordering::Relaxed);
                if self.left > 0 {
                    self.left -= 1;
                    ctx.schedule_in(7, 0);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sim = ShardedSim::new(4, 10);
        for s in 0..4 {
            let lane = sim.add_actor(s, Box::new(Counter { left: 100 }));
            sim.seed(lane, SimTime::ZERO, 0);
        }
        let report = sim.run(None);
        assert_eq!(report.executed, 4 * 101);
        assert_eq!(sim.events_pending(), 0);
        assert_eq!(report.end, SimTime::from_nanos(700));
        assert!(report.epochs > 0);
    }
}
