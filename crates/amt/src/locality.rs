//! A locality: one simulated node of the HPX runtime — worker cores, task
//! queue, background work, and the plumbing into the parcelport.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use simcore::causal::{self, MarkKind};
use simcore::keyed::intern;
use simcore::{
    CoreClock, CostModel, EventHandler, EventId, HandlerId, Sim, SimResource, SimTime, Slab,
};

use telemetry::CoreState;

use crate::action::{ActionId, ActionRegistry};
use crate::parcel::Parcel;
use crate::parcel_layer::{ParcelLayer, ParcelLayerConfig};
use crate::sched::{IdleBackoff, Task, WorkerConfig, MAX_IDLE_BACKOFF_NS};
use crate::serialize::HpxMessage;
use crate::{BgOutcome, DeliverFn, OnSent, Parcelport};

/// One run-queue entry. A local action (HPX `apply` to this locality)
/// is queued as its parcel, and only boxed closures pay for a box.
enum Job {
    /// A boxed task: a decode, or a closure spawned through
    /// [`Locality::spawn`].
    Closure(Task),
    /// A local action: runs the parcel's handler with no serialization.
    Action(Parcel),
}

// A job is a queue slot; a parcel must not grow it (see DESIGN §3.4).
const _: () = assert!(std::mem::size_of::<Job>() <= 40);

/// Scheduler state of one locality.
struct SchedState {
    queue: VecDeque<Job>,
    /// The shared task-queue cache lines (HPX scheduler contention).
    queue_res: SimResource,
    cores: Vec<CoreClock>,
    /// Per-core armed-tick marker; `SimTime::NEVER` when the core sleeps.
    armed: Vec<SimTime>,
    /// The pending tick event per core, for rescheduling in place.
    armed_ev: Vec<Option<EventId>>,
    backoff: Vec<IdleBackoff>,
    /// Worker cores whose `armed` is `NEVER`; kept by `arm` and the
    /// tick handler so a wake with every worker armed costs no scan.
    unarmed_workers: usize,
    /// Scratch buffer for the idle workers one wake picks from; it grows
    /// on the first wake that finds one and is reused after that.
    idle: Vec<usize>,
    tasks_spawned: u64,
    tasks_run: u64,
    wake_rr: usize,
}

/// Typed-event tags carried in the low bits of the handler argument word.
const EV_TICK: u64 = 0;
const EV_DELIVER: u64 = 1;
const EV_FLUSH: u64 = 2;
const EV_TAG_MASK: u64 = 0b11;

#[inline]
fn tick_arg(core: usize) -> u64 {
    EV_TICK | ((core as u64) << 2)
}

/// A delivery event's argument: the event tag in the low two bits, the
/// parked delivery's slab key (below 2^62) above them.
#[inline]
fn deliver_arg(key: u64) -> u64 {
    EV_DELIVER | (key << 2)
}

#[inline]
fn flush_arg(core: usize, dest: usize) -> u64 {
    debug_assert!(dest < (1 << 31), "destination id too large to encode");
    EV_FLUSH | ((dest as u64) << 2) | ((core as u64) << 33)
}

/// A delivery parked between the parcelport upcall and its decode task.
struct PendingDeliver {
    core: usize,
    msg: HpxMessage,
}

/// One simulated node running the AMT runtime.
///
/// All interior mutability is host-single-threaded (`RefCell`); simulated
/// concurrency is expressed through virtual time and [`SimResource`]s.
pub struct Locality {
    /// This locality's id (== its netsim node id).
    pub id: usize,
    /// The cost model this locality charges.
    pub cost: Rc<CostModel>,
    cfg: WorkerConfig,
    sched: RefCell<SchedState>,
    registry: RefCell<ActionRegistry>,
    layer: RefCell<ParcelLayer>,
    parcelport: RefCell<Option<Rc<RefCell<dyn Parcelport>>>>,
    /// Self-reference for registering as an event handler.
    weak: Weak<Locality>,
    /// Typed-event handler id, registered lazily on first use. A locality
    /// drives exactly one `Sim` over its lifetime.
    handler: Cell<Option<HandlerId>>,
    /// Deliveries parked until their event fires, keyed by the event's
    /// argument word.
    pending: RefCell<Slab<PendingDeliver>>,
    /// Name of the run-queue counter track (`loc<id>.runq`), interned the
    /// first time a collector samples it.
    runq_track: OnceCell<&'static str>,
    /// Name of the send-queue counter track (`loc<id>.sendq`), interned
    /// the first time a traced put samples it.
    sendq_track: OnceCell<&'static str>,
}

impl Locality {
    /// Create a locality with `cfg` cores and the given registry snapshot.
    pub fn new(
        id: usize,
        cost: Rc<CostModel>,
        cfg: WorkerConfig,
        registry: ActionRegistry,
        layer_cfg: ParcelLayerConfig,
    ) -> Rc<Self> {
        let transfer = cost.cacheline_transfer;
        let sched = SchedState {
            queue: VecDeque::new(),
            queue_res: SimResource::new("amt.task_queue", transfer),
            cores: (0..cfg.cores).map(CoreClock::new).collect(),
            armed: vec![SimTime::NEVER; cfg.cores],
            armed_ev: vec![None; cfg.cores],
            backoff: (0..cfg.cores)
                .map(|_| IdleBackoff::new(cost.idle_poll.max(50), MAX_IDLE_BACKOFF_NS))
                .collect(),
            unarmed_workers: cfg.worker_count(),
            idle: Vec::new(),
            tasks_spawned: 0,
            tasks_run: 0,
            wake_rr: 0,
        };
        Rc::new_cyclic(|weak| Locality {
            id,
            cfg,
            sched: RefCell::new(sched),
            registry: RefCell::new(registry),
            layer: RefCell::new(ParcelLayer::new(layer_cfg, &cost)),
            parcelport: RefCell::new(None),
            cost,
            weak: weak.clone(),
            handler: Cell::new(None),
            pending: RefCell::new(Slab::new()),
            runq_track: OnceCell::new(),
            sendq_track: OnceCell::new(),
        })
    }

    /// This locality's typed-event handler id, registering on first use.
    fn handler_id(&self, sim: &mut Sim) -> HandlerId {
        match self.handler.get() {
            Some(h) => h,
            None => {
                let rc = self.weak.upgrade().expect("locality alive");
                let h = sim.register_handler(rc);
                self.handler.set(Some(h));
                h
            }
        }
    }

    /// Worker configuration.
    pub fn worker_config(&self) -> &WorkerConfig {
        &self.cfg
    }

    /// Install the parcelport and wire its delivery upcall back to this
    /// locality.
    pub fn set_parcelport(self: &Rc<Self>, pp: Rc<RefCell<dyn Parcelport>>) {
        let weak = Rc::downgrade(self);
        let deliver: DeliverFn = Rc::new(move |sim, core, at, src, msg| {
            if let Some(loc) = weak.upgrade() {
                loc.deliver(sim, core, at, src, msg);
            }
        });
        pp.borrow_mut().set_deliver(deliver);
        *self.parcelport.borrow_mut() = Some(pp);
    }

    /// The installed parcelport, if any.
    pub fn parcelport(&self) -> Option<Rc<RefCell<dyn Parcelport>>> {
        self.parcelport.borrow().clone()
    }

    /// Sample the run-queue depth as a counter track (the track name is
    /// interned once, the first time a collector is installed).
    fn sample_runq(&self, sim: &Sim) {
        telemetry::with(|tel| {
            let depth = self.sched.borrow().queue.len();
            let name = *self.runq_track.get_or_init(|| intern(&format!("loc{}.runq", self.id)));
            tel.track_sample(name, sim.now(), depth as f64);
        });
    }

    /// Name of the send-queue counter track, interned once.
    pub(crate) fn sendq_track(&self) -> &'static str {
        self.sendq_track.get_or_init(|| intern(&format!("loc{}.sendq", self.id)))
    }

    /// Access the action registry.
    pub fn with_registry<R>(&self, f: impl FnOnce(&ActionRegistry) -> R) -> R {
        f(&self.registry.borrow())
    }

    /// Access the parcel layer (tests/metrics).
    pub fn with_layer<R>(&self, f: impl FnOnce(&mut ParcelLayer) -> R) -> R {
        f(&mut self.layer.borrow_mut())
    }

    /// Tasks executed so far.
    pub fn tasks_run(&self) -> u64 {
        self.sched.borrow().tasks_run
    }

    /// Tasks spawned so far.
    pub fn tasks_spawned(&self) -> u64 {
        self.sched.borrow().tasks_spawned
    }

    /// Tasks waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.sched.borrow().queue.len()
    }

    /// Busy-time utilization of core `core` over `[0, now]`.
    pub fn core_utilization(&self, core: usize, now: SimTime) -> f64 {
        self.sched.borrow().cores[core].utilization(now)
    }

    /// Kick every core once; call after wiring the parcelport.
    pub fn start(self: &Rc<Self>, sim: &mut Sim) {
        let now = sim.now();
        for core in 0..self.cfg.cores {
            self.arm(sim, core, now);
        }
    }

    /// Arm a tick for `core` at `at` (deduplicated: keeps the earliest).
    ///
    /// A core has at most one live tick event. Arming earlier than the
    /// pending tick *reschedules* it in place — re-sequenced exactly as a
    /// freshly scheduled event would be — instead of the old scheme of
    /// scheduling a second event and letting the first fire as a stale
    /// no-op. The heap never carries dead tick events.
    pub fn arm(self: &Rc<Self>, sim: &mut Sim, core: usize, at: SimTime) {
        let at = at.max(sim.now());
        let h = self.handler_id(sim);
        let pending = {
            let mut s = self.sched.borrow_mut();
            let cur = s.armed[core];
            if cur <= at {
                sim.stats.bump("amt.arm_dedup");
                return; // an earlier (or equal) tick is already pending
            }
            if cur == SimTime::NEVER && core >= self.cfg.first_worker() {
                s.unarmed_workers -= 1;
            }
            s.armed[core] = at;
            s.armed_ev[core]
        };
        sim.stats.bump("amt.arm_scheduled");
        match pending {
            Some(ev) => {
                let live = sim.reschedule(ev, at);
                debug_assert!(live, "armed tick event must be pending");
            }
            None => {
                let ev = sim.schedule_event_at(at, h, tick_arg(core));
                self.sched.borrow_mut().armed_ev[core] = Some(ev);
            }
        }
    }

    /// Spawn a task; wakes sleeping workers.
    pub fn spawn(self: &Rc<Self>, sim: &mut Sim, core: usize, task: Task) -> SimTime {
        self.push_job(sim, core, Job::Closure(task))
    }

    /// HPX `apply`: invoke `action` on `dest` with `args`. A local action
    /// is a task spawn with nothing serialized; it runs the handler and
    /// ends no earlier than `amt_action_dispatch` after it starts. A
    /// remote one is [`Locality::send_action`].
    pub fn apply(
        self: &Rc<Self>,
        sim: &mut Sim,
        core: usize,
        dest: usize,
        action: ActionId,
        args: Vec<bytes::Bytes>,
    ) -> SimTime {
        if dest == self.id {
            self.push_job(sim, core, Job::Action(Parcel::new(action, args)))
        } else {
            self.send_action(sim, core, dest, action, args)
        }
    }

    /// Queue `job` at the cost of a task spawn, and wake a sleeping worker.
    fn push_job(self: &Rc<Self>, sim: &mut Sim, core: usize, job: Job) -> SimTime {
        let done = {
            let mut s = self.sched.borrow_mut();
            let done = s.queue_res.access(sim.now(), core, self.cost.task_spawn);
            s.queue.push_back(job);
            s.tasks_spawned += 1;
            done
        };
        sim.stats.bump("amt.spawn");
        self.sample_runq(sim);
        self.wake_workers(sim, done, 1);
        done
    }

    /// Wake up to `n` sleeping (unarmed, not busy) worker cores at `at`,
    /// round-robin — one notify per work item, not a broadcast, like a
    /// condition variable's `notify_one`.
    pub fn wake_workers(self: &Rc<Self>, sim: &mut Sim, at: SimTime, n: usize) {
        let first = self.cfg.first_worker();
        let (mut idle, rot) = {
            let mut s = self.sched.borrow_mut();
            debug_assert_eq!(
                s.unarmed_workers,
                s.armed[first..].iter().filter(|&&a| a == SimTime::NEVER).count(),
                "unarmed worker count out of step with the armed ticks"
            );
            if s.unarmed_workers == 0 {
                return;
            }
            let mut idle = std::mem::take(&mut s.idle);
            idle.extend(
                (first..self.cfg.cores)
                    .filter(|&c| s.armed[c] == SimTime::NEVER && s.cores[c].free_at <= at),
            );
            if idle.is_empty() {
                s.idle = idle;
                return;
            }
            let r = s.wake_rr;
            s.wake_rr = s.wake_rr.wrapping_add(n);
            (idle, r)
        };
        let len = idle.len();
        idle.rotate_left(rot % len);
        for &c in idle.iter().take(n) {
            self.arm(sim, c, at);
        }
        idle.clear();
        self.sched.borrow_mut().idle = idle;
    }

    /// Arm the dedicated progress core (or all idle workers when there is
    /// none) at `at` — the NIC arrival waker target.
    pub fn wake_progress(self: &Rc<Self>, sim: &mut Sim, at: SimTime) {
        if self.cfg.dedicated_progress {
            // The pinned progress thread spins on the NIC: it reacts at
            // the arrival instant.
            self.arm(sim, 0, at);
        } else {
            // Worker threads poll opportunistically: they notice the
            // event one polling period later than a spinning thread.
            let skewed = at + self.cost.worker_poll_skew;
            causal::mark("worker.poll_skew", MarkKind::Wait, at, skewed, 0);
            let at = skewed;
            self.wake_workers(sim, at, 1);
            // Ensure at least one worker will look even if all are busy:
            // the earliest-free worker checks right after it frees up.
            let first = self.cfg.first_worker();
            let best = {
                let s = self.sched.borrow();
                (first..self.cfg.cores).min_by_key(|&c| s.cores[c].free_at)
            };
            if let Some(c) = best {
                let free = self.sched.borrow().cores[c].free_at;
                self.arm(sim, c, free.max(at));
            }
        }
    }

    /// One core tick: run a task if available, otherwise background work.
    fn tick(self: Rc<Self>, sim: &mut Sim, core: usize) {
        let now = sim.now();
        let free_at = self.sched.borrow().cores[core].free_at;
        if free_at > now {
            self.arm(sim, core, free_at);
            return;
        }

        // The dedicated progress core only does communication progress.
        if self.cfg.dedicated_progress && core == 0 {
            self.progress_tick(sim);
            return;
        }

        // 1. Try to pop a job (charges the shared queue).
        let (job, t0) = {
            let mut s = self.sched.borrow_mut();
            if s.queue.is_empty() {
                let t = s.queue_res.access(now, core, self.cost.idle_poll);
                (None, t)
            } else {
                let t = s.queue_res.access(now, core, self.cost.task_schedule);
                (s.queue.pop_front(), t)
            }
        };

        if let Some(job) = job {
            let t_end = match job {
                Job::Closure(task) => task(sim, &self, core),
                Job::Action(parcel) => self.run_action(sim, core, parcel),
            }
            .max(t0);
            let (span, state) = (Some("task"), CoreState::Working);
            telemetry::core_tick(self.id, core, span, state, "task", now, t_end);
            {
                let mut s = self.sched.borrow_mut();
                let charged = t_end - now;
                s.cores[core].charge(now, charged);
                s.tasks_run += 1;
                s.backoff[core].reset();
            }
            self.sample_runq(sim);
            self.arm(sim, core, t_end);
            return;
        }

        // 2. Idle: offer background work to the parcelport.
        let bg = self.run_background(sim, core, t0);
        let t_end = bg.cpu_done.max(t0);
        // Charged polling burns the core even when nothing was found —
        // that is exactly the time the profiler must surface for the
        // every-worker-polls parcelports.
        let (span, bg_label) =
            if bg.did_work { (Some("background"), "background") } else { (None, "poll") };
        telemetry::core_tick(self.id, core, span, CoreState::Progress, bg_label, now, t_end);
        {
            let mut s = self.sched.borrow_mut();
            let charged = t_end - now;
            s.cores[core].charge(now, charged);
        }
        if bg.wake_workers {
            self.wake_workers(sim, t_end, bg.completions.max(1));
        }
        if bg.did_work {
            self.sched.borrow_mut().backoff[core].reset();
            self.arm(sim, core, t_end);
        } else {
            // Nothing anywhere: back off, or sleep entirely and rely on
            // spawn / NIC wakeups.
            let queue_nonempty = !self.sched.borrow().queue.is_empty();
            if queue_nonempty {
                self.arm(sim, core, t_end);
                return;
            }
            let delay = self.sched.borrow_mut().backoff[core].next();
            match bg.retry_at {
                Some(r) => {
                    let at = r.max(t_end).min(t_end + delay);
                    self.arm(sim, core, at);
                }
                None => { /* sleep until woken */ }
            }
        }
    }

    /// Tick body for the dedicated progress core.
    fn progress_tick(self: &Rc<Self>, sim: &mut Sim) {
        let now = sim.now();
        let bg = {
            let pp = self.parcelport.borrow().clone();
            match pp {
                Some(pp) => {
                    let out = pp.borrow_mut().progress(sim, 0);
                    out
                }
                None => BgOutcome::idle(now),
            }
        };
        let t_end = bg.cpu_done.max(now);
        let (span, label) =
            if bg.did_work { (Some("progress"), "progress") } else { (None, "poll") };
        telemetry::core_tick(self.id, 0, span, CoreState::Progress, label, now, t_end);
        self.sched.borrow_mut().cores[0].charge(now, t_end - now);
        if bg.wake_workers {
            self.wake_workers(sim, t_end, bg.completions.max(1));
        }
        if bg.did_work {
            self.arm(sim, 0, t_end);
        } else if let Some(r) = bg.retry_at {
            self.arm(sim, 0, r.max(t_end));
        }
        // else: sleep; the NIC arrival waker re-arms core 0.
    }

    /// Body of a local action job: dispatch to the parcel's handler.
    fn run_action(self: &Rc<Self>, sim: &mut Sim, core: usize, parcel: Parcel) -> SimTime {
        let handler = self.with_registry(|r| r.handler(parcel.action));
        let t = sim.now() + self.cost.amt_action_dispatch;
        handler(sim, self, core, parcel).max(t)
    }

    fn run_background(self: &Rc<Self>, sim: &mut Sim, core: usize, t0: SimTime) -> BgOutcome {
        let pp = self.parcelport.borrow().clone();
        match pp {
            Some(pp) => {
                let wrapper = self.cost.amt_background_work;
                let mut out = pp.borrow_mut().background_work(sim, core);
                out.cpu_done = out.cpu_done.max(t0) + wrapper;
                out
            }
            None => BgOutcome::idle(t0),
        }
    }

    /// Enqueue a parcel for `dest` (full upper-layer path: parcel queue +
    /// connection cache, or send-immediate). Returns when the calling
    /// core is done.
    pub fn put_parcel(
        self: &Rc<Self>,
        sim: &mut Sim,
        core: usize,
        dest: usize,
        parcel: Parcel,
    ) -> SimTime {
        ParcelLayer::put_parcel(self, sim, core, dest, parcel)
    }

    /// Convenience: invoke `action` on `dest` with `args`.
    pub fn send_action(
        self: &Rc<Self>,
        sim: &mut Sim,
        core: usize,
        dest: usize,
        action: ActionId,
        args: Vec<bytes::Bytes>,
    ) -> SimTime {
        self.put_parcel(sim, core, dest, Parcel::new(action, args))
    }

    /// Hand a message to the parcelport (used by the parcel layer).
    pub(crate) fn pp_put_message(
        self: &Rc<Self>,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        dest: usize,
        msg: HpxMessage,
        on_sent: Option<OnSent>,
    ) -> SimTime {
        let pp = self.parcelport.borrow().clone().expect("no parcelport installed");
        telemetry::counter_add_at("amt.messages_put", 1, at.max(sim.now()));
        telemetry::hist_record_at("amt.msg_bytes", msg.total_bytes() as u64, at.max(sim.now()));
        let t = pp.borrow_mut().put_message(sim, core, at, dest, msg, on_sent);
        sim.stats.bump("amt.messages_put");
        t
    }

    /// Delivery upcall: a complete HPX message arrived from `src` and was
    /// fully handled at virtual time `at`. Parks the message in the
    /// delivery slab and schedules a typed event (no allocation beyond the
    /// slab slot) that spawns the decode task at `at`.
    pub fn deliver(
        self: &Rc<Self>,
        sim: &mut Sim,
        core: usize,
        at: SimTime,
        src: usize,
        msg: HpxMessage,
    ) {
        sim.stats.bump("amt.messages_delivered");
        let _ = src;
        // Counts the message, marks its flows delivered, and samples the
        // cumulative `amt.delivered` track (all localities share the
        // thread-local collector, so one track covers the world).
        telemetry::message_delivered(&msg.flows, at.max(sim.now()));
        let h = self.handler_id(sim);
        let key = self.pending.borrow_mut().insert(PendingDeliver { core, msg });
        sim.schedule_event_at(at.max(sim.now()), h, deliver_arg(key));
    }

    /// Schedule a parcel-queue flush for `dest` at `at` (the close of a
    /// drain window) as a typed event.
    pub(crate) fn schedule_flush(
        self: &Rc<Self>,
        sim: &mut Sim,
        core: usize,
        dest: usize,
        at: SimTime,
    ) {
        let h = self.handler_id(sim);
        sim.schedule_event_at(at, h, flush_arg(core, dest));
    }

    /// Body of a fired delivery event: spawn the decode task.
    fn spawn_decode(self: &Rc<Self>, sim: &mut Sim, pd: PendingDeliver) {
        let PendingDeliver { core, msg } = pd;
        let decode_cost = self.cost.amt_decode_base + self.cost.serialize(msg.non_zero_copy.len());
        let per_parcel = self.cost.amt_decode_per_parcel;
        let dispatch = self.cost.amt_action_dispatch;
        self.spawn(
            sim,
            core,
            Box::new(move |sim, loc, core| {
                telemetry::flow_set_dst_core(&msg.flows, core);
                telemetry::flow_mark_many(&msg.flows, telemetry::stage::SPAWN, sim.now());
                let mut t = sim.now() + decode_cost;
                let parcels = msg.decode();
                for p in parcels {
                    let handler = loc.with_registry(|r| r.handler(p.action));
                    t += per_parcel + dispatch;
                    // The action observes `t` as its start time via charge
                    // accounting: it returns its own end time, measured
                    // from `sim.now()`; we add our offset before running.
                    let end = handler(sim, loc, core, p);
                    t = t.max(end);
                }
                t
            }),
        );
    }
}

impl EventHandler for Locality {
    fn on_event(&self, sim: &mut Sim, arg: u64) {
        let this = self.weak.upgrade().expect("locality alive");
        // Everything nested under this event (parcelport calls, lock
        // acquires, fabric sends) belongs to this locality's cores.
        telemetry::profile_set_loc(self.id);
        match arg & EV_TAG_MASK {
            EV_TICK => {
                let core = (arg >> 2) as usize;
                {
                    let mut s = this.sched.borrow_mut();
                    s.armed[core] = SimTime::NEVER;
                    s.armed_ev[core] = None;
                    if core >= this.cfg.first_worker() {
                        s.unarmed_workers += 1;
                    }
                }
                this.tick(sim, core);
            }
            EV_DELIVER => {
                let pd = this.pending.borrow_mut().remove(arg >> 2).expect("delivery fired twice");
                this.spawn_decode(sim, pd);
            }
            EV_FLUSH => {
                let core = (arg >> 33) as usize;
                let dest = ((arg >> 2) & 0x7FFF_FFFF) as usize;
                ParcelLayer::flush(&this, sim, core, dest);
            }
            _ => unreachable!("unknown event tag"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locality(cfg: WorkerConfig) -> Rc<Locality> {
        Locality::new(
            0,
            Rc::new(CostModel::default()),
            cfg,
            ActionRegistry::new(),
            ParcelLayerConfig::default(),
        )
    }

    #[test]
    fn spawned_tasks_run_and_charge_time() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::workers_only(2));
        loc.start(&mut sim);
        let hits = Rc::new(std::cell::Cell::new(0));
        for _ in 0..5 {
            let h = hits.clone();
            loc.spawn(
                &mut sim,
                0,
                Box::new(move |sim, _loc, _core| {
                    h.set(h.get() + 1);
                    sim.now() + 1_000 // 1us of work
                }),
            );
        }
        sim.run();
        assert_eq!(hits.get(), 5);
        assert_eq!(loc.tasks_run(), 5);
        assert_eq!(loc.queue_depth(), 0);
        // 5us of work split over 2 workers: ~3us wall, >0 utilization.
        assert!(loc.core_utilization(0, sim.now()) > 0.0);
    }

    #[test]
    fn two_workers_run_in_parallel() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::workers_only(2));
        loc.start(&mut sim);
        for _ in 0..2 {
            loc.spawn(&mut sim, 0, Box::new(|sim, _l, _c| sim.now() + 10_000));
        }
        sim.run();
        // If serialized this would be >= 20us; parallel is ~10us.
        assert!(sim.now().as_nanos() < 15_000, "took {}", sim.now());
    }

    #[test]
    fn single_worker_serializes() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::workers_only(1));
        loc.start(&mut sim);
        for _ in 0..2 {
            loc.spawn(&mut sim, 0, Box::new(|sim, _l, _c| sim.now() + 10_000));
        }
        sim.run();
        assert!(sim.now().as_nanos() >= 20_000, "took {}", sim.now());
    }

    #[test]
    fn tasks_can_spawn_tasks() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::workers_only(2));
        loc.start(&mut sim);
        let hits = Rc::new(std::cell::Cell::new(0u32));
        let h = hits.clone();
        loc.spawn(
            &mut sim,
            0,
            Box::new(move |sim, loc, core| {
                let h2 = h.clone();
                loc.spawn(
                    sim,
                    core,
                    Box::new(move |sim, _l, _c| {
                        h2.set(h2.get() + 1);
                        sim.now()
                    }),
                );
                sim.now() + 100
            }),
        );
        sim.run();
        assert_eq!(hits.get(), 1);
        assert_eq!(loc.tasks_run(), 2);
    }

    #[test]
    fn sim_quiesces_when_idle() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::workers_only(4));
        loc.start(&mut sim);
        loc.spawn(&mut sim, 0, Box::new(|sim, _l, _c| sim.now() + 50));
        sim.run();
        // No runaway self-arming: the event heap drained.
        assert_eq!(sim.events_pending(), 0);
        // And a fresh spawn wakes the sleeping workers again.
        let hits = Rc::new(std::cell::Cell::new(false));
        let h = hits.clone();
        loc.spawn(
            &mut sim,
            0,
            Box::new(move |sim, _l, _c| {
                h.set(true);
                sim.now()
            }),
        );
        sim.run();
        assert!(hits.get());
    }

    #[test]
    fn collector_records_task_spans() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::workers_only(2));
        let tel = telemetry::enable();
        loc.start(&mut sim);
        loc.spawn(&mut sim, 0, Box::new(|sim, _l, _c| sim.now() + 2_000));
        sim.run();
        telemetry::disable();
        let spans = tel.with_core_spans(|spans| spans.to_vec());
        assert_eq!(spans.len(), 1, "one locality recorded");
        let task: Vec<_> = spans[0].iter().filter(|s| s.label == "task").collect();
        assert_eq!(task.len(), 1);
        assert!(task[0].end - task[0].start >= 2_000);
        assert!(task[0].core < 2);
        assert!(tel.chrome_trace_collected().contains("\"tid\":\"loc0/core"));
    }

    #[test]
    fn apply_to_self_matches_the_boxed_closure_it_replaces() {
        // `work` computes for 5 us; `blip` ends at once, so the dispatch
        // cost sets its end.
        let hits = Rc::new(std::cell::Cell::new(0));
        let mut registry = ActionRegistry::new();
        let h = hits.clone();
        let work = registry.register("work", move |sim, _l, _c, _p| {
            h.set(h.get() + 1);
            sim.now() + 5_000
        });
        let h = hits.clone();
        let blip = registry.register("blip", move |sim, _l, _c, p| {
            assert_eq!(p.args.len(), 1, "the args reach the handler");
            h.set(h.get() + 1);
            sim.now()
        });
        let twin = |registry| {
            let cost = Rc::new(CostModel::default());
            let cfg = WorkerConfig::workers_only(2);
            Locality::new(0, cost, cfg, registry, ParcelLayerConfig::default())
        };
        let (a, b) = (twin(registry.clone()), twin(registry));
        let (mut typed, mut boxed) = (Sim::new(0), Sim::new(0));
        a.start(&mut typed);
        b.start(&mut boxed);
        for action in [work, blip, work, blip, blip] {
            let arg = || vec![bytes::Bytes::from_static(b"x")];
            let t_typed = a.apply(&mut typed, 0, 0, action, arg());
            // The reference: a boxed closure that carries the handler and
            // the parcel, and applies the same dispatch floor.
            let handler = b.with_registry(|r| r.handler(action));
            let parcel = Parcel::new(action, arg());
            let dispatch = b.cost.amt_action_dispatch;
            let t_boxed = b.spawn(
                &mut boxed,
                0,
                Box::new(move |sim, loc, core| {
                    let t = sim.now() + dispatch;
                    handler(sim, loc, core, parcel).max(t)
                }),
            );
            assert_eq!(t_typed, t_boxed, "spawn cost");
        }
        typed.run();
        boxed.run();
        assert_eq!(hits.get(), 10);
        assert_eq!(typed.now(), boxed.now(), "end time");
        assert_eq!(typed.events_executed(), boxed.events_executed());
        assert_eq!((a.tasks_spawned(), a.tasks_run()), (5, 5));
        assert_eq!((a.tasks_spawned(), a.tasks_run()), (b.tasks_spawned(), b.tasks_run()));
        for core in 0..2 {
            let (ua, ub) =
                (a.core_utilization(core, typed.now()), b.core_utilization(core, boxed.now()));
            assert_eq!(ua.to_bits(), ub.to_bits(), "core {core} utilization");
        }
    }

    /// Arm `cores` for 1 us, then return how many ticks one
    /// `wake_workers` call at time 0 arms.
    fn wake_after_arming(loc: &Rc<Locality>, sim: &mut Sim, cores: &[usize]) -> u64 {
        for &c in cores {
            loc.arm(sim, c, SimTime::from_nanos(1_000));
        }
        let before = sim.stats.get("amt.arm_scheduled");
        loc.wake_workers(sim, sim.now(), 1);
        sim.stats.get("amt.arm_scheduled") - before
    }

    #[test]
    fn wake_ignores_an_unarmed_progress_core() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::with_progress(3));
        assert_eq!(wake_after_arming(&loc, &mut sim, &[1, 2]), 0, "every worker is armed");
        let s = loc.sched.borrow();
        assert_eq!(s.armed[0], SimTime::NEVER, "the progress core stays asleep");
        assert_eq!(s.unarmed_workers, 0);
    }

    #[test]
    fn wake_arms_the_one_unarmed_worker() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::with_progress(3));
        assert_eq!(wake_after_arming(&loc, &mut sim, &[0, 1]), 1);
        let s = loc.sched.borrow();
        assert_eq!(s.armed[2], sim.now(), "worker 2 ticks now");
        assert_eq!(s.armed[1], SimTime::from_nanos(1_000), "worker 1 keeps its tick");
        assert_eq!(s.unarmed_workers, 0);
    }

    #[test]
    fn dedicated_progress_core_runs_no_tasks() {
        let mut sim = Sim::new(0);
        let loc = locality(WorkerConfig::with_progress(2));
        loc.start(&mut sim);
        let core_seen = Rc::new(std::cell::Cell::new(usize::MAX));
        let cs = core_seen.clone();
        loc.spawn(
            &mut sim,
            1,
            Box::new(move |sim, _l, core| {
                cs.set(core);
                sim.now() + 10
            }),
        );
        sim.run();
        assert_eq!(core_seen.get(), 1, "task must not run on the progress core");
    }
}
